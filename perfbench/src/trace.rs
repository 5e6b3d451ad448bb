//! The traced run: the workload's stream replayed in-process against
//! engines configured like the server, with spans around the calls into
//! each layer's public functions, plus probes that time layers directly.
//!
//! Spans are recorded by this file only (nothing inside `crates/` is
//! instrumented). Each request gets a root span and one child per layer
//! call on its path:
//!
//! ```text
//! request.{query,mutate}
//!   decode   frame::decode_request_payload | minijson::parse_object_into
//!   extract  request fields -> Source/Query (the serve layer's job)
//!   route    routing_shard
//!   execute  Engine::execute_serve | Engine::{create_graph,add_edges,remove_edges,compact_graph}
//!   render   Report::json_object + reply envelope
//!   encode   frame::encode_reply | JSONL line
//! ```
//!
//! Tracing alternates by pairs of requests: half are traced and probed,
//! half run bare, and the median request-path time of the two halves
//! gives the tracing overhead. Probes run outside every
//! request span, so they never count toward closure: `Engine::plan`, a
//! direct `ResultCache::lookup_shared`, the other wire codec than the
//! workload's, a replay re-execution, an in-memory mirror of each
//! mutation, and a cold run on the same snapshot for each session query.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dsg_engine::frame;
use dsg_engine::minijson::{self, FieldScratch};
use dsg_engine::result_cache::{CacheKey, GraphId};
use dsg_engine::{routing_shard, Engine, ResourcePolicy, ServeReport, Source};
use dsg_graph::GraphKind;

use crate::check;
use crate::stats::{mean, median};
use crate::workload::Op;

/// One recorded span; `parent` is an index into the span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Ends `prev` and begins its next sibling at one timestamp, so the
    /// tracer's own cost between siblings is not left unexplained.
    fn switch(
        &mut self,
        prev: Option<u32>,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
    ) -> Option<u32> {
        let i = prev? as usize;
        let now = self.now();
        self.spans[i].end_ns = now;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        Some((self.spans.len() - 1) as u32)
    }

    fn end(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let now = self.now();
            self.spans[i as usize].end_ns = now;
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        out.flush()
    }
}

/// How the replay engines are set up: like the server of the workload
/// (whose resource policy is the default one).
pub struct ReplayConfig<'a> {
    pub shards: usize,
    /// Binary frames; the JSONL streams, whose requests are all distinct
    /// or session queries, also get the replay re-execution probe.
    pub binary: bool,
    /// Durable session store root (`Some` for session streams).
    pub data_dir: Option<&'a Path>,
}

/// What the replay measured besides spans.
#[derive(Default)]
pub struct ReplayStats {
    /// Request-path wall time (probes excluded) of the traced and of the
    /// bare half.
    pub traced_request_us: Vec<f64>,
    pub bare_request_us: Vec<f64>,
    pub queries: u64,
    pub query_hits: u64,
    /// Execute time of in-path result-cache replays.
    pub replay_exec_us: Vec<f64>,
    /// `(request id, request-span ms)` of traced queries.
    pub query_span_ms: Vec<(u64, f64)>,
    pub plan_us: Vec<f64>,
    pub planned_parallel: u64,
    pub lookup_us: Vec<f64>,
    pub replay_probe_us: Vec<f64>,
    pub other_decode_us: Vec<f64>,
    pub other_encode_us: Vec<f64>,
    pub mutate_ms: Vec<f64>,
    pub mirror_mutate_ms: Vec<f64>,
    /// Durable mutate minus its in-memory mirror, per traced mutation.
    pub append_ms: Vec<f64>,
    pub wal_bytes: u64,
    pub wal_edges: u64,
    pub fsynced_records: u64,
    pub synced_ops: u64,
    pub stale_evictions: u64,
    /// Per algorithm: named queries that were not result-cache replays,
    /// and those the incremental tier answered.
    pub inc_attempts: [u64; 3],
    pub inc_hits: [u64; 3],
    pub inc_affected: Vec<f64>,
    pub fallback_extra_ms: Vec<f64>,
    pub cost_vs_cold: Vec<f64>,
    pub tier_replay: u64,
    pub tier_incremental: u64,
    pub tier_full: u64,
    pub compactions: u64,
    pub result_evictions: u64,
}

/// Engines of one replay plus the per-request scratch state.
pub struct Replayer<'a> {
    cfg: ReplayConfig<'a>,
    engines: Vec<Engine>,
    mirror: Engine,
    scratch: FieldScratch,
    out: Vec<u8>,
    pub tracer: Tracer,
    pub stats: ReplayStats,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl<'a> Replayer<'a> {
    pub fn new(cfg: ReplayConfig<'a>) -> Result<Replayer<'a>, String> {
        let engines: Vec<Engine> = (0..cfg.shards.max(1)).map(|_| Engine::new()).collect();
        if let Some(dir) = cfg.data_dir {
            for (i, e) in engines.iter().enumerate() {
                e.catalog()
                    .open_data_dir(
                        &dir.join(format!("shard-{i}")),
                        dsg_engine::DEFAULT_FSYNC_EVERY,
                        dsg_engine::DEFAULT_SNAPSHOT_EVERY,
                    )
                    .map_err(|e| format!("open replay data dir: {e}"))?;
            }
        }
        Ok(Replayer {
            cfg,
            engines,
            mirror: Engine::new(),
            scratch: FieldScratch::new(),
            out: Vec::with_capacity(1 << 16),
            tracer: Tracer::new(),
            stats: ReplayStats::default(),
        })
    }

    /// Replays `ops` in order until `budget_s` of wall time is spent;
    /// returns how many ops ran.
    pub fn run(&mut self, ops: &[(u64, Op)], budget_s: f64) -> Result<usize, String> {
        let started = Instant::now();
        for (n, (id, op)) in ops.iter().enumerate() {
            if started.elapsed().as_secs_f64() > budget_s {
                return Ok(n);
            }
            // Pairs alternate, so each half holds both connections of
            // an interleaved stream and every phase of a request cycle.
            self.tracer.on = (n / 2) % 2 == 0;
            self.step(*id, op)?;
        }
        Ok(ops.len())
    }

    fn step(&mut self, id: u64, op: &Op) -> Result<(), String> {
        // The client's work: the request's wire form.
        let fields = op.fields(id);
        let line = op.jsonl(id);
        let mut payload = Vec::new();
        frame::encode_request_payload(&fields, &mut payload)
            .map_err(|e| format!("encode request: {e:?}"))?;
        let (graph, file) = op.identity();
        let shard = routing_shard(graph, file, self.cfg.shards);
        let engine = &self.engines[shard];
        let before = Counters::read(engine, graph);

        let req_started = Instant::now();
        let t = &mut self.tracer;
        let root = t.begin(
            if op.is_query() {
                "request.query"
            } else {
                "request.mutate"
            },
            None,
            id,
        );
        let s = t.begin("decode", root, id);
        if self.cfg.binary {
            frame::decode_request_payload(&payload, &mut self.scratch)
                .map_err(|e| format!("decode request: {e:?}"))?;
        } else {
            minijson::parse_object_into(&line, &mut self.scratch)
                .map_err(|e| format!("parse request: {e}"))?;
        }
        let s = t.switch(s, "extract", root, id);
        let query = op.query();
        let s = t.switch(s, "route", root, id);
        let routed = routing_shard(graph, file, self.cfg.shards);
        debug_assert_eq!(routed, shard);
        let s = t.switch(s, "execute", root, id);
        let exec_started = Instant::now();
        let policy = ResourcePolicy::default();
        let (json, replayed, exec_ms, s) = match &query {
            Some((source, q)) => {
                let served = engine
                    .execute_serve(source, q, &policy)
                    .map_err(|e| format!("replay execute: {e}"))?;
                let exec_ms = exec_started.elapsed().as_secs_f64() * 1e3;
                let s = t.switch(s, "render", root, id);
                let mut j = dsg_engine::JsonBuilder::new();
                j.num_field("id", id as f64);
                j.raw_field("ok", "true");
                let replayed = match &served {
                    ServeReport::Shared { report, elapsed_ms } => {
                        j.raw_field("result", &report.json_object(false));
                        j.num_field("cache_hit", 1.0);
                        j.num_field("result_cache_hit", 1.0);
                        j.num_field("loads", engine.catalog().stats().loads as f64);
                        j.num_field("elapsed_ms", *elapsed_ms);
                        true
                    }
                    ServeReport::Owned(report) => {
                        j.raw_field("result", &report.json_object(false));
                        if let Some(hit) = report.cache_hit {
                            j.num_field("cache_hit", f64::from(u8::from(hit)));
                        }
                        if let Some(hit) = report.result_cache_hit {
                            j.num_field("result_cache_hit", f64::from(u8::from(hit)));
                        }
                        j.num_field("loads", engine.catalog().stats().loads as f64);
                        j.num_field("elapsed_ms", report.elapsed_ms);
                        report.result_cache_hit == Some(true)
                    }
                };
                (j.finish(), replayed, exec_ms, s)
            }
            None => {
                let outcome = check::apply(engine, op);
                let exec_ms = exec_started.elapsed().as_secs_f64() * 1e3;
                let s = t.switch(s, "render", root, id);
                let graph = graph.expect("mutations name a graph");
                let mut json = outcome
                    .map(|o| check::mutation_body(id, graph, &o))
                    .map_err(|e| format!("replay mutation: {e}"))?;
                json.push('}');
                (json, false, exec_ms, s)
            }
        };
        let s = t.switch(s, "encode", root, id);
        if self.cfg.binary {
            frame::encode_reply(&json, &mut self.out);
        } else {
            self.out.extend_from_slice(json.as_bytes());
            self.out.push(b'\n');
        }
        t.end(s);
        t.end(root);
        let req_ns = req_started.elapsed().as_nanos() as u64;
        let traced = t.on;
        if traced {
            self.stats.traced_request_us.push(req_ns as f64 / 1e3);
        } else {
            self.stats.bare_request_us.push(req_ns as f64 / 1e3);
        }
        self.out.clear();

        let after = Counters::read(engine, graph);
        if let Some((source, q)) = &query {
            self.stats.queries += 1;
            if replayed {
                self.stats.query_hits += 1;
                self.stats.replay_exec_us.push(exec_ms * 1e3);
            }
            if traced {
                self.stats.query_span_ms.push((id, req_ns as f64 / 1e6));
            }
            self.probe_query(
                shard, source, q, &policy, replayed, exec_ms, traced, &before, &after,
            )?;
        } else {
            self.stats.mutate_ms.push(exec_ms);
            self.stats.stale_evictions += before.entries.saturating_sub(after.entries);
            if let Some(edges) = op_edges(op) {
                // A snapshot rotation truncates the WAL: only ops whose
                // append grew it are counted.
                if after.wal_bytes > before.wal_bytes {
                    self.stats.wal_bytes += after.wal_bytes - before.wal_bytes;
                    self.stats.wal_edges += edges;
                }
            }
            if after.last_fsync >= before.last_fsync {
                self.stats.fsynced_records += after.last_fsync - before.last_fsync;
                self.stats.synced_ops += 1;
            }
            if traced {
                let t0 = Instant::now();
                check::apply(&self.mirror, op)?;
                let mirror_ms = t0.elapsed().as_secs_f64() * 1e3;
                self.stats.mirror_mutate_ms.push(mirror_ms);
                self.stats.append_ms.push(exec_ms - mirror_ms);
            } else {
                // Keep the mirror in step; only traced ops are timed.
                check::apply(&self.mirror, op)?;
            }
        }
        if traced {
            // The other wire codec, on the same request and reply.
            if self.cfg.binary {
                let t0 = Instant::now();
                minijson::parse_object_into(&line, &mut self.scratch)
                    .map_err(|e| format!("parse request: {e}"))?;
                self.stats.other_decode_us.push(us(t0));
                let t0 = Instant::now();
                self.out.extend_from_slice(json.as_bytes());
                self.out.push(b'\n');
                self.stats.other_encode_us.push(us(t0));
            } else {
                let t0 = Instant::now();
                frame::decode_request_payload(&payload, &mut self.scratch)
                    .map_err(|e| format!("decode request: {e:?}"))?;
                self.stats.other_decode_us.push(us(t0));
                let t0 = Instant::now();
                frame::encode_reply(&json, &mut self.out);
                self.stats.other_encode_us.push(us(t0));
            }
            self.out.clear();
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn probe_query(
        &mut self,
        shard: usize,
        source: &Source,
        q: &dsg_engine::Query,
        policy: &ResourcePolicy,
        replayed: bool,
        exec_ms: f64,
        traced: bool,
        before: &Counters,
        after: &Counters,
    ) -> Result<(), String> {
        let engine = &self.engines[shard];
        let s = &mut self.stats;
        if let Source::Named { .. } = source {
            let alg = match q.algorithm {
                dsg_engine::Algorithm::Approx { .. } => 0,
                dsg_engine::Algorithm::AtLeastK { .. } => 1,
                _ => 2,
            };
            if replayed {
                s.tier_replay += 1;
            } else {
                s.inc_attempts[alg] += 1;
                if after.inc_hits > before.inc_hits {
                    s.inc_hits[alg] += 1;
                    s.tier_incremental += 1;
                    if let Some(d) = engine.last_incremental() {
                        s.inc_affected.push(d.affected as f64);
                    }
                } else {
                    s.tier_full += 1;
                }
            }
        }
        if !traced {
            return Ok(());
        }
        let t0 = Instant::now();
        let plan = engine
            .plan(source, q, policy)
            .map_err(|e| format!("plan: {e}"))?;
        s.plan_us.push(us(t0));
        s.planned_parallel += u64::from(plan.backend.name() == "parallel");

        let kind = source.kind_for(&q.algorithm);
        let graph_id = match source {
            Source::File { path, binary, .. } => engine
                .catalog()
                .peek(path, *binary, kind)
                .map(|e| GraphId::file(e.fingerprint)),
            Source::Named { name } => engine
                .catalog()
                .get_named(name)
                .map(|(g, e)| GraphId::named(g.fingerprint(), e.version)),
            Source::Memory { .. } => None,
        };
        if let Some(graph_id) = graph_id {
            let key = CacheKey::new(graph_id, kind, q, policy);
            let label = source.label();
            let t0 = Instant::now();
            let hit = engine.results().lookup_shared(&key, &label);
            s.lookup_us.push(us(t0));
            std::hint::black_box(hit);
        }
        if !self.cfg.binary {
            let t0 = Instant::now();
            let again = engine
                .execute_serve(source, q, policy)
                .map_err(|e| format!("replay probe: {e}"))?;
            let elapsed = us(t0);
            let hit = match &again {
                ServeReport::Shared { .. } => true,
                ServeReport::Owned(r) => r.result_cache_hit == Some(true),
            };
            if hit {
                s.replay_probe_us.push(elapsed);
            }
        }
        if let (Source::Named { name }, false) = (source, replayed) {
            // The cold path on the same snapshot, for the tier's cost: a
            // fresh engine holding the same edges, so nothing is warm.
            let (_, entry) = engine
                .catalog()
                .get_named(name)
                .ok_or("replay lost its graph")?;
            let cold = check::cold_engine();
            cold.create_graph(name, entry.list.kind, &entry.list.edges)
                .map_err(|e| format!("cold probe: {e}"))?;
            let t0 = Instant::now();
            cold.execute(source, q, policy)
                .map_err(|e| format!("cold probe: {e}"))?;
            let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
            s.cost_vs_cold.push(exec_ms / cold_ms.max(1e-6));
            if after.inc_fallbacks > before.inc_fallbacks && after.inc_hits == before.inc_hits {
                s.fallback_extra_ms.push(exec_ms - cold_ms);
            }
        }
        Ok(())
    }

    /// Folds end-of-replay engine counters into the stats.
    pub fn finish(&mut self) {
        for e in &self.engines {
            self.stats.compactions += e
                .catalog()
                .named_stats()
                .iter()
                .map(|g| g.compactions)
                .sum::<u64>();
            self.stats.result_evictions += e.results().stats().evictions;
        }
    }
}

fn op_edges(op: &Op) -> Option<u64> {
    match op {
        Op::Create { edges, .. } => Some(edges.len() as u64),
        Op::Add { edges, .. } | Op::Remove { edges, .. } => Some(edges.len() as u64),
        _ => None,
    }
}

/// Engine counters read around a request (outside its spans).
struct Counters {
    entries: u64,
    inc_hits: u64,
    inc_fallbacks: u64,
    wal_bytes: u64,
    last_fsync: u64,
}

impl Counters {
    fn read(engine: &Engine, graph: Option<&str>) -> Counters {
        let inc = engine.incremental_stats();
        let named = graph.and_then(|name| {
            engine
                .catalog()
                .named_stats()
                .into_iter()
                .find(|g| g.name == name)
        });
        Counters {
            entries: engine.results().stats().entries,
            inc_hits: inc.hits,
            inc_fallbacks: inc.fallbacks,
            wal_bytes: named.as_ref().map_or(0, |g| g.wal_bytes),
            last_fsync: named.as_ref().map_or(0, |g| g.last_fsync),
        }
    }
}

/// Per span name: total duration and self time (duration minus the part
/// covered by its children), in nanoseconds, plus the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let d = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += d;
        e.1 += d.saturating_sub(child_ns[i]);
        e.2 += 1;
    }
    out
}

/// Closure check: per request kind, the share of root-span time its
/// child spans leave unexplained. Returns the worst kind's share.
pub fn unexplained_frac(spans: &[Span]) -> f64 {
    let times = self_times(spans);
    ["request.query", "request.mutate"]
        .iter()
        .filter_map(|k| times.get(k))
        .filter(|(total, _, _)| *total > 0)
        .map(|(total, selfns, _)| *selfns as f64 / *total as f64)
        .fold(0.0, f64::max)
}

/// Median duration (µs) of spans named `name`, optionally only those
/// under roots of `kind`.
pub fn median_span_us(spans: &[Span], name: &str, kind: Option<&str>) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| match (kind, s.parent) {
            (Some(k), Some(p)) => spans[p as usize].name == k,
            (Some(_), None) => false,
            (None, _) => true,
        })
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    median(&v)
}

/// Parse and cold-load probes over the workload's graph files.
pub fn io_probe(files: &[(String, GraphKind)]) -> Result<(f64, f64), String> {
    let mut parse = Vec::new();
    let mut load = Vec::new();
    for (path, kind) in files {
        let t0 = Instant::now();
        let list = dsg_graph::io::read_text(path, *kind).map_err(|e| format!("parse: {e}"))?;
        parse.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(list);
        let catalog = dsg_engine::GraphCatalog::new();
        let t0 = Instant::now();
        catalog
            .get_or_load(Path::new(path), false, *kind)
            .map_err(|e| format!("load: {e}"))?;
        load.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((mean(&parse), mean(&load)))
}

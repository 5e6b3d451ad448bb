//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --server <path to densest> [--scale full|tiny]
//! perfbench stream --workload <name> --seed <n> [--scale full|tiny] [--count n]
//! ```
//!
//! `run` starts real `densest serve` processes, drives the last one over
//! its Unix socket for `--seconds`, checks every reply against a cold
//! in-process reference, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a traced in-process replay (`--trace 1`).
//! The last line of standard output is the result object; the line
//! before it records the run's provenance. `stream` prints the first
//! requests of every connection, for the determinism test.
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod check;
mod drive;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dsg_core::directed::{sweep_c_csr, sweep_c_csr_parallel};
use dsg_core::large::{approx_densest_at_least_k_csr, approx_densest_at_least_k_csr_parallel};
use dsg_core::{approx_densest_csr, approx_densest_csr_parallel};
use dsg_engine::CatalogEntry;
use dsg_graph::GraphKind;

use drive::{Env, WireRun};
use stats::{beyond, mean, median, metric, num, percentile, result_line, Metric};
use trace::{ReplayConfig, Replayer};
use workload::{Op, Plan, Scale, Workload, ALG_KEYS};

/// Share of `--seconds` the traced run spends on its wire phase; the
/// rest goes to the in-process replay.
const TRACE_WIRE_SHARE: f64 = 0.5;
/// Replay ops at most per pass (bounds the span file on cached workloads).
const MAX_REPLAY_OPS: usize = 20_000;
/// Session-probe ops (the two creates, then about 16 rounds per graph)
/// on workloads without mutations.
const SESSION_PROBE_OPS: usize = 84;
/// Closure tolerance: child spans must explain this much of each
/// request kind's root-span time.
const CLOSURE_TOLERANCE: f64 = 0.05;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    server: Option<PathBuf>,
    count: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it
        .next()
        .ok_or("usage: perfbench run|stream --workload <name> …")?;
    let mut a = Args {
        command,
        workload: Workload::ColdPeel,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        server: None,
        count: 200,
    };
    let mut have_workload = false;
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {flag} value '{value}' ({what})");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(&value).ok_or_else(|| {
                    bad("cold-peel|cached-pipelined|cached-sharded|session-churn")
                })?;
                have_workload = true;
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err(bad("must be > 0"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => a.scale = Scale::parse(&value).ok_or_else(|| bad("full|tiny"))?,
            "--server" => a.server = Some(PathBuf::from(value)),
            "--count" => a.count = value.parse().map_err(|_| bad("an integer"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !have_workload {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = match args.command.as_str() {
        "stream" => print_stream(&args, nproc),
        "run" => run(&args, nproc),
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the first `--count` requests of every connection's stream.
fn print_stream(args: &Args, nproc: usize) -> Result<bool, String> {
    let plan = Plan::new(args.workload, args.scale, args.seed, nproc, &work_dir(args));
    for op in &plan.warmup {
        println!("warmup {}", op.jsonl(0));
    }
    for c in 0..plan.connections() {
        let mut s = plan.stream(c);
        for _ in 0..args.count {
            let (id, op) = s.next_op();
            println!("conn{c} {}", op.jsonl(id));
        }
    }
    Ok(true)
}

fn work_dir(args: &Args) -> PathBuf {
    Path::new(".bench_work").join(format!("{}-{}", args.workload.name(), args.seed))
}

fn run(args: &Args, nproc: usize) -> Result<bool, String> {
    let server_bin = args.server.clone().ok_or("--server is required for run")?;
    let work = work_dir(args);
    wire::fresh_dir(&work)?;
    let result = run_in(args, nproc, server_bin, &work);
    drive::cleanup(&work);
    result
}

fn run_in(args: &Args, nproc: usize, server_bin: PathBuf, work: &Path) -> Result<bool, String> {
    let gen_started = Instant::now();
    let plan = Plan::new(args.workload, args.scale, args.seed, nproc, work);
    let files: Vec<(String, GraphKind)> = plan
        .graphs
        .iter()
        .map(|g| (g.path.clone(), g.kind))
        .collect();
    if args.workload != Workload::SessionChurn || args.trace {
        for g in &plan.graphs {
            dsg_graph::io::write_text(&g.path, &g.list)
                .map_err(|e| format!("write {}: {e}", g.path))?;
        }
    }
    let gen_s = gen_started.elapsed().as_secs_f64();
    let env = Env {
        server_bin,
        work: work.to_path_buf(),
        nproc,
    };
    let wire_seconds = if args.trace {
        args.seconds * TRACE_WIRE_SHARE
    } else {
        args.seconds
    };
    let wire = drive::run(&plan, &env, wire_seconds)?;
    let query_ms = wire.latencies(true);
    let mutate_ms = wire.latencies(false);
    let timed_ops = wire.samples.len() as u64;

    let mut prov = vec![
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("scale", format!("\"{}\"", args.scale.name())),
        ("seconds", num(args.seconds)),
        ("wire_seconds", num(wire_seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "commit",
            format!(
                "\"{}\"",
                std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())
            ),
        ),
        (
            "server_flags",
            format!("\"{}\"", wire.server_flags.join(" ")),
        ),
        ("connections", plan.connections().to_string()),
        ("setup_runs", wire.setup_s.len().to_string()),
        ("graphs", graph_summary(&plan)),
        ("generate_s", num(gen_s)),
        ("timed_ops", timed_ops.to_string()),
        ("sub_phases", drive::WINDOWS.to_string()),
        ("query_samples", query_ms.len().to_string()),
        (
            "query_samples_beyond_p90",
            beyond(query_ms.len(), 90.0).to_string(),
        ),
        (
            "whole_run",
            format!(
                "{{\"throughput_ops\": {}, \"query_p50_ms\": {}, \"query_p90_ms\": {}, \"server_cpu_ms_per_op\": {}}}",
                num(timed_ops as f64 / wire.seconds),
                num(percentile(&query_ms, 50.0)),
                num(percentile(&query_ms, 90.0)),
                num((wire.cpu_marks[drive::WINDOWS] - wire.cpu_marks[0]) / timed_ops.max(1) as f64),
            ),
        ),
        ("sub_phase_values", {
            let w = wire.windowed();
            format!(
                "{{\"throughput_ops\": {}, \"query_p50_ms\": {}, \"query_p90_ms\": {}, \"server_cpu_ms_per_op\": {}, \"setup_s\": {}}}",
                nums(&w.throughput_ops),
                nums(&w.query_p50_ms),
                nums(&w.query_p90_ms),
                nums(&w.cpu_ms_per_op),
                nums(&wire.setup_s),
            )
        }),
        ("mutate_samples", mutate_ms.len().to_string()),
        (
            "failed_frac",
            num(wire.failed as f64 / wire.attempted.max(1) as f64),
        ),
        (
            "replay_frac",
            num(wire.replays as f64 / timed_ops.max(1) as f64),
        ),
    ];
    if args.workload == Workload::SessionChurn {
        prov.push(("mutate_p50_ms", num(percentile(&mutate_ms, 50.0))));
        prov.push(("mutate_p90_ms", num(percentile(&mutate_ms, 90.0))));
        prov.push((
            "mutate_samples_beyond_p90",
            beyond(mutate_ms.len(), 90.0).to_string(),
        ));
    }
    if !wire.mismatches.is_empty() {
        let list: Vec<String> = wire
            .mismatches
            .iter()
            .map(|m| format!("\"{}\"", m.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        prov.push(("mismatches", format!("[{}]", list.join(","))));
    }

    let metrics = if args.trace {
        let (metrics, extra) = layers(&plan, &env, &wire, &files, args.seconds)?;
        prov.extend(extra);
        metrics
    } else {
        end_to_end(&wire)
    };
    let body: Vec<String> = prov.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"provenance\": {{{}}}}}", body.join(", "));
    println!(
        "{}",
        result_line(wire.failed == 0, wire.attempted, wire.failed, &metrics)
    );
    Ok(wire.failed == 0)
}

fn graph_summary(plan: &Plan) -> String {
    let items: Vec<String> = plan
        .graphs
        .iter()
        .map(|g| {
            format!(
                "{{\"name\": \"{}\", \"nodes\": {}, \"edges\": {}}}",
                g.name,
                g.list.num_nodes,
                g.list.num_edges()
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// The end-to-end metrics of `BENCHMARK.json`.
fn end_to_end(wire: &WireRun) -> Vec<Metric> {
    let w = wire.windowed();
    vec![
        metric("setup_s", median(&wire.setup_s), "s"),
        metric("throughput_ops", median(&w.throughput_ops), "1/s"),
        metric("query_p50_ms", median(&w.query_p50_ms), "ms"),
        metric("query_p90_ms", median(&w.query_p90_ms), "ms"),
        metric("server_cpu_ms_per_op", median(&w.cpu_ms_per_op), "ms"),
        metric("server_rss_mb", wire.rss_mb, "MB"),
    ]
}

/// A JSON array of numbers.
fn nums(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(", "))
}

/// Merges per-connection op lists round-robin, as one serial replay.
fn interleave(logs: &[Vec<(u64, Op)>]) -> Vec<(u64, Op)> {
    let longest = logs.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| logs.iter().filter_map(move |l| l.get(i).cloned()))
        .collect()
}

/// The ops the traced run replays: what the wire phase sent, or for the
/// cached workloads the fixed set followed by its cycle.
fn replay_ops(plan: &Plan, wire: &WireRun) -> Vec<(u64, Op)> {
    if plan.workload.binary() {
        let mut streams: Vec<_> = (0..plan.connections()).map(|c| plan.stream(c)).collect();
        let per_conn = MAX_REPLAY_OPS / streams.len();
        let logs: Vec<Vec<(u64, Op)>> = streams
            .iter_mut()
            .map(|s| (0..per_conn).map(|_| s.next_op()).collect())
            .collect();
        let mut ops: Vec<(u64, Op)> = plan
            .warmup
            .iter()
            .enumerate()
            .map(|(i, op)| (i as u64, op.clone()))
            .collect();
        ops.extend(interleave(&logs));
        ops
    } else {
        let mut ops = interleave(&wire.logs);
        ops.truncate(MAX_REPLAY_OPS);
        ops
    }
}

/// Times the peeling kernels directly on the workload's CSR snapshots:
/// `(passes, serial ms per pass, parallel ms per pass)` per algorithm.
fn kernel_probe(plan: &Plan, nproc: usize) -> [(f64, f64, f64); 3] {
    const REPS: usize = 3;
    let canonical = |kind: GraphKind| {
        let g = plan.graphs.iter().find(|g| g.kind == kind).expect("graph");
        let mut list = (*g.list).clone();
        list.canonicalize();
        CatalogEntry::from_list(list, 0, 0)
    };
    let u = canonical(GraphKind::Undirected);
    let d = canonical(GraphKind::Directed);
    let (ug, dg) = (u.csr_undirected(), d.csr_directed());
    let k = 50.min(ug.num_nodes());
    let time = |f: &dyn Fn() -> u32| -> (f64, f64) {
        let mut ms = Vec::new();
        let mut passes = 0;
        for _ in 0..REPS {
            let t0 = Instant::now();
            passes = std::hint::black_box(f());
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        (f64::from(passes), median(&ms))
    };
    let sweep_passes = |r: dsg_core::SweepResult| r.per_c.iter().map(|c| c.2).sum::<u32>();
    type Run<'a> = Box<dyn Fn() -> u32 + 'a>;
    let runs: [(Run, Run); 3] = [
        (
            Box::new(|| approx_densest_csr(&ug, 0.5).passes),
            Box::new(|| approx_densest_csr_parallel(&ug, 0.5, nproc).passes),
        ),
        (
            Box::new(|| approx_densest_at_least_k_csr(&ug, k, 0.5).passes),
            Box::new(|| approx_densest_at_least_k_csr_parallel(&ug, k, 0.5, nproc).passes),
        ),
        (
            Box::new(|| sweep_passes(sweep_c_csr(&dg, 2.0, 0.5))),
            Box::new(|| sweep_passes(sweep_c_csr_parallel(&dg, 2.0, 0.5, nproc))),
        ),
    ];
    runs.map(|(serial, parallel)| {
        let (passes, s_ms) = time(&*serial);
        let (_, p_ms) = time(&*parallel);
        let p = passes.max(1.0);
        (passes, s_ms / p, p_ms / p)
    })
}

/// Max/min of the per-shard `routed` counters in a stats reply (1 for
/// a one-shard server, which reports no breakdown).
fn routed_skew(stats_reply: &str) -> f64 {
    let routed: Vec<f64> = stats_reply
        .match_indices("\"routed\":")
        .filter_map(|(at, pat)| {
            let rest = &stats_reply[at + pat.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect();
    match (
        routed.iter().cloned().fold(f64::NAN, f64::max),
        routed.iter().cloned().fold(f64::NAN, f64::min),
    ) {
        (max, min) if routed.len() > 1 && min > 0.0 => max / min,
        _ => 1.0,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

type Provenance = Vec<(&'static str, String)>;

/// Median over traced queries of the wire latency minus the in-process
/// request span: socket I/O, the serve loop and queue wait. The cached
/// workloads repeat one fixed set, so there the medians are compared.
fn residual_us(wire: &WireRun, s: &trace::ReplayStats) -> f64 {
    let wire_ms: HashMap<u64, f64> = wire.op_ms.iter().copied().collect();
    let diffs: Vec<f64> = s
        .query_span_ms
        .iter()
        .filter_map(|(id, span)| wire_ms.get(id).map(|w| (w - span) * 1e3))
        .collect();
    if diffs.is_empty() {
        let spans: Vec<f64> = s.query_span_ms.iter().map(|(_, ms)| *ms).collect();
        (percentile(&wire.latencies(true), 50.0) - median(&spans)) * 1e3
    } else {
        median(&diffs)
    }
}

/// The traced run: replays, probes, and the per-layer metrics.
fn layers(
    plan: &Plan,
    env: &Env,
    wire: &WireRun,
    files: &[(String, GraphKind)],
    seconds: f64,
) -> Result<(Vec<Metric>, Provenance), String> {
    let w = plan.workload;
    let session = w == Workload::SessionChurn;
    let budget = seconds * (1.0 - TRACE_WIRE_SHARE);
    let ops = replay_ops(plan, wire);
    let replay_dir = env.work.join("replay");
    let probe_dir = env.work.join("probe");
    for d in [&replay_dir, &probe_dir] {
        wire::fresh_dir(d)?;
    }
    let mut traced = Replayer::new(ReplayConfig {
        shards: w.shards(),
        binary: w.binary(),
        data_dir: session.then_some(replay_dir.as_path()),
    })?;
    let n = traced.run(&ops, budget)?;
    traced.finish();

    // The session layers: this replay on session-churn, a probe stream
    // over the workload's own graphs elsewhere.
    let mut probe_replayer;
    let sess = if session {
        &traced.stats
    } else {
        let mut stream = plan.session_stream();
        let ops: Vec<(u64, Op)> = (0..SESSION_PROBE_OPS).map(|_| stream.next_op()).collect();
        probe_replayer = Replayer::new(ReplayConfig {
            shards: 1,
            binary: false,
            data_dir: Some(&probe_dir),
        })?;
        probe_replayer.run(&ops, f64::INFINITY)?;
        probe_replayer.finish();
        &probe_replayer.stats
    };

    let spans = &traced.tracer.spans;
    let s = &traced.stats;
    let kernel = kernel_probe(plan, env.nproc);
    let (parse_ms, load_ms) = trace::io_probe(files)?;
    let span = |name: &str| trace::median_span_us(spans, name, None);
    let query_span = |name: &str| trace::median_span_us(spans, name, Some("request.query"));

    let mut m = Vec::new();
    for (i, key) in ALG_KEYS.iter().enumerate() {
        let (passes, serial, parallel) = kernel[i];
        m.push(metric(format!("kernel.passes.{key}"), passes, "count"));
        m.push(metric(format!("kernel.pass_ms.serial.{key}"), serial, "ms"));
        m.push(metric(
            format!("kernel.pass_ms.parallel.{key}"),
            parallel,
            "ms",
        ));
        m.push(metric(
            format!("kernel.parallel_speedup.{key}"),
            serial / parallel.max(1e-9),
            "ratio",
        ));
    }
    m.push(metric("planner.plan_us", median(&s.plan_us), "us"));
    m.push(metric(
        "planner.parallel_share",
        ratio(s.planned_parallel, s.plan_us.len() as u64),
        "ratio",
    ));
    m.push(metric("graph.io.parse_ms", parse_ms, "ms"));
    m.push(metric("catalog.load_ms", load_ms, "ms"));
    m.push(metric(
        "result_cache.hit_ratio",
        ratio(s.query_hits, s.queries),
        "ratio",
    ));
    m.push(metric("result_cache.lookup_us", median(&s.lookup_us), "us"));
    m.push(metric(
        "result_cache.evictions",
        s.result_evictions as f64,
        "count",
    ));
    let replay_us = if w.binary() {
        median(&s.replay_exec_us)
    } else {
        median(&s.replay_probe_us)
    };
    m.push(metric("engine.replay_us", replay_us, "us"));
    m.push(metric("report.render_us", query_span("render"), "us"));
    let (frame_decode, frame_encode, json_parse) = if w.binary() {
        (span("decode"), span("encode"), median(&s.other_decode_us))
    } else {
        (
            median(&s.other_decode_us),
            median(&s.other_encode_us),
            span("decode"),
        )
    };
    m.push(metric("frame.decode_request_us", frame_decode, "us"));
    m.push(metric("frame.encode_reply_us", frame_encode, "us"));
    m.push(metric("minijson.parse_us", json_parse, "us"));
    m.push(metric("serve.residual_us", residual_us(wire, s), "us"));
    m.push(metric("shard.route_us", span("route"), "us"));
    m.push(metric(
        "shard.routed_skew",
        routed_skew(&wire.stats_reply),
        "ratio",
    ));

    let (mut_p50, mut_p90) = if session {
        let mutate_ms = wire.latencies(false);
        (percentile(&mutate_ms, 50.0), percentile(&mutate_ms, 90.0))
    } else {
        (
            percentile(&sess.mutate_ms, 50.0),
            percentile(&sess.mutate_ms, 90.0),
        )
    };
    m.push(metric("mutate_p50_ms", mut_p50, "ms"));
    m.push(metric("mutate_p90_ms", mut_p90, "ms"));
    m.push(metric(
        "catalog.mutate_ms",
        median(&sess.mirror_mutate_ms),
        "ms",
    ));
    m.push(metric(
        "persistence.append_ms",
        median(&sess.append_ms),
        "ms",
    ));
    m.push(metric(
        "persistence.wal_bytes_per_edge",
        ratio(sess.wal_bytes, sess.wal_edges),
        "B",
    ));
    m.push(metric(
        "persistence.fsyncs_per_op",
        ratio(sess.fsynced_records, sess.synced_ops),
        "ratio",
    ));
    for (i, key) in ALG_KEYS.iter().enumerate() {
        m.push(metric(
            format!("incremental.hit_ratio.{key}"),
            ratio(sess.inc_hits[i], sess.inc_attempts[i]),
            "ratio",
        ));
    }
    m.push(metric(
        "incremental.affected",
        mean(&sess.inc_affected),
        "count",
    ));
    m.push(metric(
        "incremental.fallback_ms",
        median(&sess.fallback_extra_ms),
        "ms",
    ));
    m.push(metric(
        "incremental.cost_vs_cold_max",
        sess.cost_vs_cold.iter().cloned().fold(0.0, f64::max),
        "ratio",
    ));
    let named = sess.tier_replay + sess.tier_incremental + sess.tier_full;
    m.push(metric(
        "engine.tier_share.replay",
        ratio(sess.tier_replay, named),
        "ratio",
    ));
    m.push(metric(
        "engine.tier_share.incremental",
        ratio(sess.tier_incremental, named),
        "ratio",
    ));
    m.push(metric(
        "engine.tier_share.full",
        ratio(sess.tier_full, named),
        "ratio",
    ));
    m.push(metric(
        "delta.compactions",
        sess.compactions as f64,
        "count",
    ));
    m.push(metric(
        "result_cache.stale_evictions",
        sess.stale_evictions as f64,
        "count",
    ));
    let unexplained = trace::unexplained_frac(spans);
    m.push(metric("trace.unexplained_frac", unexplained, "ratio"));
    m.push(metric(
        "trace.overhead_frac",
        median(&s.traced_request_us) / median(&s.bare_request_us).max(1e-9) - 1.0,
        "ratio",
    ));

    // Spans and per-layer self times, written at the end.
    let out_dir = Path::new(".bench_out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create .bench_out: {e}"))?;
    let span_file = out_dir.join(format!("spans-{}-{}.jsonl", w.name(), plan.seed));
    traced
        .tracer
        .write(&span_file)
        .map_err(|e| format!("write spans: {e}"))?;
    let selfs: Vec<String> = trace::self_times(spans)
        .iter()
        .map(|(name, (total, selfns, count))| {
            format!(
                "\"{name}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                num(*total as f64 / 1e6),
                num(*selfns as f64 / 1e6)
            )
        })
        .collect();
    let extra = vec![
        ("replayed_ops", n.to_string()),
        ("traced_ops", s.traced_request_us.len().to_string()),
        ("span_file", format!("\"{}\"", span_file.display())),
        ("layer_self_time", format!("{{{}}}", selfs.join(", "))),
        ("closure_tolerance", num(CLOSURE_TOLERANCE)),
        ("closure_ok", (unexplained <= CLOSURE_TOLERANCE).to_string()),
        (
            "session_layers_from",
            format!("\"{}\"", if session { "stream" } else { "probe" }),
        ),
    ];
    Ok((m, extra))
}

//! Engine shards: the far side of the serving loop's one seam.
//!
//! The socket server ([`crate::serve`]) is one accept thread plus
//! `workers` event loops. The event loops own every connection and its
//! buffers, and decode every request. After decoding, the shard count
//! decides exactly one thing, where the request goes:
//!
//! * **One shard:** the event loop answers it in the same turn, straight
//!   from its parse scratch, with the engine `serve_unix` was handed.
//!   There is no queue, no executor thread and no copy of the request.
//! * **N shards:** the request joins a *run* on its connection and the
//!   run crosses to one of N engines over a bounded queue. That shard's
//!   executor threads answer the run and mail the replies back.
//!
//! ```text
//!                        ┌──────────────┐
//!   accept thread ──────▶│ event loops  │──┐
//!   (one, shared)        │ (all conn    │  │ bounded per-shard queue
//!                        │  I/O lives   │  ▼     (N shards only)
//!                        │  here)       │ ┌─────────────────────────┐
//!                        │              │ │ shard 0: Engine+catalog │
//!                        │  decode, then│ │ + result cache + warm/  │
//!                        │  answer now  │ │ incremental state, own  │
//!                        │  (1 shard) or│ │ executor pool           │
//!                        │  hash-route ─┼▶├─────────────────────────┤
//!                        │              │ │ shard 1: …              │
//!                        └──────▲───────┘ └───────────┬─────────────┘
//!                               └── completion mailbox┘
//! ```
//!
//! * Each shard owns a full [`Engine`] — its own [`GraphCatalog`],
//!   [`ResultCache`], and warm-seed/incremental state. Shards share
//!   **nothing**: no lock is ever taken by more than one shard, so one
//!   shard's slow query or contended session never stalls another
//!   shard's throughput.
//! * The routing rule is pure and stable: FNV-1a over the request's
//!   graph identity (`"g:" + name` for session graphs, `"f:" + path`
//!   for file graphs), mod the shard count. Every `create_graph`,
//!   mutation, and query for the same named graph therefore lands on
//!   the same shard, which is what keeps all per-session invariants
//!   (version monotonicity, warm restarts, incremental re-peeling) of
//!   the single-engine server valid per-shard, unchanged.
//! * A full queue parks the *connection* (the run is retried once the
//!   shard drains), never the event loop — backpressure is
//!   per-connection, exactly like the write high-water mark.
//! * A **run** is the longest prefix of a connection's decoded requests
//!   that all route to the same shard (ending before a `stats`/`shutdown`,
//!   a malformed item, or the first request homed elsewhere; at most
//!   `MAX_RUN` long). The shard executes its requests strictly in order
//!   and mails all their replies back as one completion, so a pipelined
//!   batch pays one queue push, one wake and one socket write instead of
//!   one per request. A run never waits for input that has not arrived.
//! * Dispatch is **serial per connection**: one run in flight at a
//!   time, so responses come back in request order on every connection
//!   and a 1-shard and an N-shard server answer the same single-client
//!   transcript with byte-identical response *content* (`elapsed_ms`
//!   differs per run; `loads` counts per-shard catalog loads).
//! * `stats` and `shutdown` never reach a shard: the event loop answers
//!   them in their turn. `stats` sums every shard's counters into the
//!   flat single-engine schema (`named` arrays concatenated in shard
//!   order) and, with more than one shard, appends a `"shards"`
//!   per-shard breakdown array.
//!
//! [`GraphCatalog`]: crate::GraphCatalog
//! [`ResultCache`]: crate::ResultCache

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::minijson::{self, Value};
use crate::report::JsonBuilder;
#[cfg(unix)]
use crate::serve::{answer, Connection, LoopCtx, Pool};
use crate::serve::{ServeMetrics, ServeOptions, ServeSummary};
use crate::{Engine, ResourcePolicy};

/// Bound of each shard's request queue. Small on purpose: the queue is
/// a handoff buffer, not a backlog — a shard that falls this far behind
/// should push back on its connections, not absorb unbounded work.
pub(crate) const SHARD_QUEUE_CAP: usize = 256;

/// Picks the shard serving a request, from the request's graph
/// identity: the session-graph `name` if present, else the `file` path,
/// else shard 0 (identity-free requests have no affinity to honor).
///
/// The hash is FNV-1a over a tagged key (`"g:" + name` / `"f:" + path`)
/// so a file named like a session graph cannot collide with it. The
/// function is pure — the same request routes to the same shard across
/// restarts, which is what pins a named graph's whole session (create,
/// mutations, queries) to one engine.
pub fn routing_shard(graph: Option<&str>, file: Option<&str>, shards: usize) -> usize {
    let shards = shards.max(1);
    let (tag, key) = match (graph, file) {
        (Some(name), _) => (b'g', name),
        (None, Some(path)) => (b'f', path),
        (None, None) => return 0,
    };
    let mut hash: u64 = 0xcbf29ce484222325;
    for &byte in [tag, b':'].iter().chain(key.as_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    (hash % shards as u64) as usize
}

/// Most requests in one run. A run's replies reach the write buffer in
/// one splice, so this bounds how far one completion can overshoot the
/// write high-water mark that gates the next dispatch.
const MAX_RUN: usize = 64;

/// One decoded request, owned so it can wait on its connection and
/// cross to a shard. `op` is the opcode-carried op for binary requests;
/// JSONL requests resolve the op from their fields, exactly like
/// [`crate::serve::handle_fields`].
pub(crate) struct Request {
    op: Option<&'static str>,
    fields: Vec<(String, Value)>,
}

/// One run crossing from an event loop to a shard. `worker`/`slot`/`gen`
/// address the owning connection so the completion finds its way back
/// (and is dropped if the connection died and its slot was reused —
/// the generation check).
pub(crate) struct ShardJob {
    worker: usize,
    slot: usize,
    gen: u64,
    /// Requests that all route to this shard, in connection order.
    run: Vec<Request>,
    /// Encode the replies as binary frames rather than JSONL lines.
    binary: bool,
}

/// A finished run's pre-encoded replies, concatenated in request order
/// and homed to `(slot, gen)` on the event loop that owns the
/// connection.
pub(crate) struct Completion {
    slot: usize,
    gen: u64,
    bytes: Vec<u8>,
}

struct QueueState {
    jobs: VecDeque<ShardJob>,
    /// Event loops that hit the bound and parked a connection; the
    /// executor wakes them as soon as it pops (capacity freed).
    stalled: Vec<usize>,
}

/// The bounded handoff queue in front of one shard. The event-loop side
/// never blocks: a push against a full queue fails and the connection
/// parks. The executor side blocks on `ready` until a job or shutdown
/// arrives.
struct ShardQueue {
    backlog: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

impl ShardQueue {
    fn new(cap: usize) -> Self {
        ShardQueue {
            backlog: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                stalled: Vec::new(),
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Nonblocking push. On a full queue the job comes back to the
    /// caller (which parks its connection) and `worker` is registered
    /// for a wake once the executor frees a slot.
    fn try_push(&self, job: ShardJob, worker: usize) -> Result<(), ShardJob> {
        let mut state = self.backlog.lock().expect("shard queue poisoned");
        if state.jobs.len() >= self.cap {
            if !state.stalled.contains(&worker) {
                state.stalled.push(worker);
            }
            return Err(job);
        }
        state.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once shutdown latches and the queue is
    /// drained. Also returns the stalled event loops to wake now that a
    /// slot is free.
    fn pop(&self, metrics: &ServeMetrics) -> Option<(ShardJob, Vec<usize>)> {
        let mut state = self.backlog.lock().expect("shard queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                let stalled = std::mem::take(&mut state.stalled);
                return Some((job, stalled));
            }
            if metrics.shutdown_requested() {
                return None;
            }
            state = self.ready.wait(state).expect("shard queue poisoned");
        }
    }

    /// Wakes every executor parked in [`ShardQueue::pop`] so it can
    /// observe the shutdown latch. Taking the mutex first makes the
    /// wake race-free against a concurrent check-then-wait.
    fn poke(&self) {
        let _state = self.backlog.lock().expect("shard queue poisoned");
        self.ready.notify_all();
    }

    /// Test-only: returns a popped job to the head of the queue (an
    /// executor raced a just-raised [`HoldGate`]). May transiently
    /// exceed `cap` by the one job being returned; order is preserved.
    #[cfg(test)]
    fn push_front(&self, job: ShardJob) {
        let mut state = self.backlog.lock().expect("shard queue poisoned");
        state.jobs.push_front(job);
        self.ready.notify_one();
    }
}

/// Test-only brake on one shard's executors: while held, the shard
/// pops nothing — used to prove queue backpressure ordering and that
/// other shards keep making progress (shard isolation).
#[cfg(test)]
pub(crate) struct HoldGate {
    held: Mutex<bool>,
    released: Condvar,
}

#[cfg(test)]
impl HoldGate {
    fn new() -> Self {
        HoldGate {
            held: Mutex::new(false),
            released: Condvar::new(),
        }
    }

    pub(crate) fn hold(&self) {
        *self.held.lock().expect("hold gate poisoned") = true;
    }

    pub(crate) fn release(&self) {
        *self.held.lock().expect("hold gate poisoned") = false;
        self.released.notify_all();
    }

    fn is_held(&self) -> bool {
        *self.held.lock().expect("hold gate poisoned")
    }

    fn wait(&self, metrics: &ServeMetrics) {
        let mut held = self.held.lock().expect("hold gate poisoned");
        while *held && !metrics.shutdown_requested() {
            let (guard, _) = self
                .released
                .wait_timeout(held, std::time::Duration::from_millis(25))
                .expect("hold gate poisoned");
            held = guard;
        }
    }
}

/// Everything per-shard: the engines, their queues, per-shard serve
/// metrics (queries/mutations/errors executed there), and the routed
/// counter (requests sent there over its queue).
pub(crate) struct ShardRuntime<'a> {
    /// The engine the server was handed. With one shard it *is* shard
    /// 0; with more it only donates its tuning to `owned`.
    template: &'a Engine,
    /// The per-shard engines of an N-shard server (empty at one shard).
    owned: Vec<Engine>,
    /// One queue per owned engine: empty at one shard, where every
    /// request is answered on its event loop.
    queues: Vec<ShardQueue>,
    shard_metrics: Vec<ServeMetrics>,
    routed: Vec<AtomicU64>,
    #[cfg(test)]
    holds: Vec<HoldGate>,
}

impl<'a> ShardRuntime<'a> {
    /// The shards of a server running `options.shards` engines. One
    /// shard serves with `engine` itself, so the caller's tuning and
    /// any state it inspects after serving are the served engine's.
    /// More shards get fresh engines tuned like `engine`. With a data
    /// dir in `options`, shard `i` opens its own `shard-<i>`
    /// subdirectory (unless its engine is durable already) — WAL and
    /// snapshot files are as shard-private as the locks are, so
    /// durability adds no cross-shard contention.
    pub(crate) fn new(
        engine: &'a Engine,
        options: &ServeOptions,
        queue_cap: usize,
    ) -> std::io::Result<Self> {
        let shards = options.shards.max(1);
        let owned: Vec<Engine> = if shards > 1 {
            (0..shards).map(|_| shard_engine(engine)).collect()
        } else {
            Vec::new()
        };
        let runtime = ShardRuntime {
            template: engine,
            queues: owned.iter().map(|_| ShardQueue::new(queue_cap)).collect(),
            owned,
            shard_metrics: (0..shards).map(|_| ServeMetrics::new()).collect(),
            routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(test)]
            holds: (0..shards).map(|_| HoldGate::new()).collect(),
        };
        if let Some(dir) = &options.data_dir {
            // Graphs recover on the shard whose directory they were
            // written to; restarting with a different `--shards` count
            // strands them on dirs routing no longer hashes to
            // (documented — shard rebalancing is a ROADMAP item).
            for (index, engine) in runtime.engines().iter().enumerate() {
                if engine.catalog().is_durable() {
                    continue;
                }
                engine
                    .catalog()
                    .open_data_dir(
                        &dir.join(format!("shard-{index}")),
                        options.fsync_every,
                        options.snapshot_every,
                    )
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
        }
        Ok(runtime)
    }

    #[cfg(test)]
    pub(crate) fn hold(&self, shard: usize) -> &HoldGate {
        &self.holds[shard]
    }

    /// The shard engines, in shard order.
    pub(crate) fn engines(&self) -> &[Engine] {
        if self.owned.is_empty() {
            std::slice::from_ref(self.template)
        } else {
            &self.owned
        }
    }

    /// Whether requests are answered on the event loop that decoded
    /// them: true exactly when there is one shard (and so no queue).
    pub(crate) fn inline(&self) -> bool {
        self.queues.is_empty()
    }

    /// The request counters of shard `shard`.
    pub(crate) fn shard_metrics(&self, shard: usize) -> &ServeMetrics {
        &self.shard_metrics[shard]
    }

    /// Shards with a queue, and so with executor threads to run.
    #[cfg(unix)]
    pub(crate) fn queued_shards(&self) -> std::ops::Range<usize> {
        0..self.queues.len()
    }

    /// Wakes every executor so it can observe the shutdown latch.
    #[cfg(unix)]
    pub(crate) fn wake_executors(&self) {
        for queue in &self.queues {
            queue.poke();
        }
    }

    /// The run's [`ServeSummary`]: connection accounting and
    /// event-loop-side errors from `metrics`, request counts and
    /// incremental-tier counters summed over the shards.
    pub(crate) fn summary(&self, metrics: &ServeMetrics) -> ServeSummary {
        let mut summary = metrics.summary();
        for shard in &self.shard_metrics {
            let (queries, mutations, errors) = shard.op_counts();
            summary.queries += queries;
            summary.mutations += mutations;
            summary.errors += errors;
        }
        for engine in self.engines() {
            let inc = engine.incremental_stats();
            summary.incremental_hits += inc.hits;
            summary.incremental_fallbacks += inc.fallbacks;
        }
        summary
    }

    /// Appends the `stats` reply fields to `j`: every flat counter
    /// summed over the shards, the connection accounting of `metrics`,
    /// the session graphs of every shard in shard order, and — with
    /// more than one shard — a `"shards"` breakdown whose per-shard
    /// rows are the observable proof of isolation: each shard's
    /// loads/queries/mutations moved only when requests routed to it.
    pub(crate) fn render_stats(&self, metrics: &ServeMetrics, j: &mut JsonBuilder) {
        let mut sums = [0u64; FLAT_COUNTERS.len()];
        let mut named: Vec<String> = Vec::new();
        for engine in self.engines() {
            for (sum, value) in sums.iter_mut().zip(flat_counters(engine)) {
                *sum += value;
            }
            named.extend(engine.catalog().named_stats().iter().map(named_json));
        }
        let (engine_side, session_side) = FLAT_COUNTERS.split_at(CONN_FIELDS_AT);
        let (engine_sums, session_sums) = sums.split_at(CONN_FIELDS_AT);
        for (name, value) in engine_side.iter().zip(engine_sums) {
            j.num_field(name, *value as f64);
        }
        j.num_field("conn_active", metrics.active_connections() as f64);
        j.num_field("conn_peak", metrics.peak_connections() as f64);
        for (name, value) in session_side.iter().zip(session_sums) {
            j.num_field(name, *value as f64);
        }
        // Per-session-graph accounting, after the flat fields so those
        // stay trivially greppable — and only when at least one session
        // graph exists, so the reply of a session-less server stays a
        // flat object that the minijson request parser itself could
        // read (the throughput experiment and older clients rely on
        // that).
        if !named.is_empty() {
            j.raw_field("named", &format!("[{}]", named.join(",")));
        }
        if self.inline() {
            return;
        }
        let rows: Vec<String> = self
            .engines()
            .iter()
            .enumerate()
            .map(|(index, engine)| {
                let (queries, mutations, errors) = self.shard_metrics[index].op_counts();
                let mut row = JsonBuilder::new();
                row.num_field("shard", index as f64);
                row.num_field("routed", self.routed[index].load(Ordering::Relaxed) as f64);
                row.num_field("queries", queries as f64);
                row.num_field("mutations", mutations as f64);
                row.num_field("errors", errors as f64);
                row.num_field("loads", engine.catalog().stats().loads as f64);
                row.num_field("graphs", engine.catalog().len() as f64);
                row.num_field("graphs_named", engine.catalog().named_len() as f64);
                row.finish()
            })
            .collect();
        j.raw_field("shards", &format!("[{}]", rows.join(",")));
    }
}

/// The flat `stats` counters, in reply order; the connection fields
/// (`conn_active`, `conn_peak`) go between the first `CONN_FIELDS_AT`
/// and the rest.
const FLAT_COUNTERS: [&str; 19] = [
    "loads",
    "hits",
    "stat_scans",
    "evictions",
    "graphs",
    "result_hits",
    "result_misses",
    "result_insertions",
    "result_evictions",
    "result_entries",
    "result_bytes",
    "mutations",
    "graphs_named",
    "warm_hits",
    "warm_fallbacks",
    "incremental_hits",
    "incremental_fallbacks",
    // Startup-recovery counters (zero on a non-durable server): the
    // crash-recovery CI lane asserts on these structured fields instead
    // of grepping server logs.
    "replayed_ops",
    "dropped_tail_records",
];

const CONN_FIELDS_AT: usize = 11;

/// One engine's values of [`FLAT_COUNTERS`], in the same order.
fn flat_counters(engine: &Engine) -> [u64; FLAT_COUNTERS.len()] {
    let catalog = engine.catalog();
    let stats = catalog.stats();
    let results = engine.results().stats();
    let warm = engine.warm_stats();
    let inc = engine.incremental_stats();
    let (replayed, dropped) = catalog.recovery_counters();
    [
        stats.loads,
        stats.hits,
        stats.stat_scans,
        stats.evictions,
        catalog.len() as u64,
        results.hits,
        results.misses,
        results.insertions,
        results.evictions,
        results.entries,
        results.bytes,
        catalog.mutations(),
        catalog.named_len() as u64,
        warm.hits,
        warm.fallbacks,
        inc.hits,
        inc.fallbacks,
        replayed,
        dropped,
    ]
}

/// One session graph's object in the `stats` reply's `named` array.
fn named_json(g: &crate::NamedGraphStats) -> String {
    let mut item = JsonBuilder::new();
    item.str_field("name", &g.name);
    item.num_field("version", g.version as f64);
    item.num_field("nodes", g.nodes as f64);
    item.num_field("edges", g.edges as f64);
    item.num_field("delta_edges", g.delta_edges as f64);
    item.num_field("compactions", g.compactions as f64);
    item.num_field("warm_hits", g.warm_hits as f64);
    item.num_field("warm_fallbacks", g.warm_fallbacks as f64);
    item.num_field("incremental_hits", g.incremental_hits as f64);
    item.num_field("incremental_fallbacks", g.incremental_fallbacks as f64);
    item.num_field("wal_bytes", g.wal_bytes as f64);
    item.num_field("snapshot_version", g.snapshot_version as f64);
    item.num_field("last_fsync", g.last_fsync as f64);
    item.num_field("replayed_ops", g.replayed_ops as f64);
    item.num_field("dropped_tail_records", g.dropped_tail_records as f64);
    item.finish()
}

/// A fresh engine stamped with `template`'s tuning — every knob the
/// serve CLI exposes is copied so an N-shard server behaves like N
/// independently configured 1-shard servers. [`ShardRuntime::new`]
/// opens the data dirs only after every engine is tuned, so recovery
/// replays under the configured compaction ratio.
fn shard_engine(template: &Engine) -> Engine {
    let engine = Engine::new();
    engine
        .catalog()
        .set_max_entries(template.catalog().max_entries());
    engine
        .catalog()
        .set_compact_ratio(template.catalog().compact_ratio());
    engine.results().set_budget(template.results().budget());
    engine.set_warm_threshold(template.warm_threshold());
    engine.set_incremental_threshold(template.incremental_threshold());
    engine.set_mapreduce_spill(template.mapreduce_spill());
    engine
}

/// One shard's executor: pop a run, execute its requests in order
/// against **this shard's** engine and metrics only (the whole
/// isolation invariant is visible right here), encode every reply into
/// one buffer, mail it home as one completion.
#[cfg(unix)]
pub(crate) fn executor_loop(
    runtime: &ShardRuntime<'_>,
    shard: usize,
    policy: &ResourcePolicy,
    metrics: &ServeMetrics,
    pool: &Pool,
) {
    // Not a `while let`: the cfg(test) executor brake must run before
    // every pop, inside the loop body.
    #[allow(clippy::while_let_loop)]
    loop {
        #[cfg(test)]
        runtime.holds[shard].wait(metrics);
        let Some((job, stalled)) = runtime.queues[shard].pop(metrics) else {
            break;
        };
        // The brake can be raised while this executor was already parked
        // inside `pop` — the pre-pop wait above saw it open. Running the
        // job anyway would let a "held" shard answer, so put it back
        // (front: order is sacred) and wait the gate out.
        #[cfg(test)]
        if runtime.holds[shard].is_held() && !metrics.shutdown_requested() {
            runtime.queues[shard].push_front(job);
            for worker in stalled {
                pool.wake(worker);
            }
            runtime.holds[shard].wait(metrics);
            continue;
        }
        let mut bytes = Vec::new();
        for request in &job.run {
            // `stats` and `shutdown` never join a run (see
            // `PendingItem::new`), so no reply here latches shutdown.
            answer(
                runtime,
                shard,
                policy,
                metrics,
                request.op,
                &request.fields,
                job.binary,
                &mut bytes,
            );
        }
        pool.deliver(
            job.worker,
            Completion {
                slot: job.slot,
                gen: job.gen,
                bytes,
            },
        );
        // Capacity freed: revive event loops whose connections parked
        // against this queue's bound.
        for worker in stalled {
            pool.wake(worker);
        }
    }
}

/// A decoded request (or a decode error's reply) waiting its turn on
/// an N-shard connection, dispatched strictly in order.
pub(crate) enum PendingItem {
    /// A request homed to shard `shard` by [`routing_shard`].
    Routed { shard: usize, request: Request },
    /// `stats` or `shutdown`: concerns the whole server, so the event
    /// loop answers it in its turn.
    Inline(Request),
    /// A pre-encoded error reply: a per-request decode error (the
    /// stream stays synchronized), or frame-level damage (the
    /// connection closes after it; its input was already discarded at
    /// extraction).
    Error(Vec<u8>),
}

impl PendingItem {
    /// Classifies a decoded request by where it is answered.
    pub(crate) fn new(op: Option<&'static str>, fields: &[(String, Value)], shards: usize) -> Self {
        let request = Request {
            op,
            fields: fields.to_vec(),
        };
        let op = op.or_else(|| minijson::get(fields, "op").and_then(Value::as_str));
        if matches!(op, Some("stats" | "shutdown")) {
            return PendingItem::Inline(request);
        }
        let graph = minijson::get(fields, "graph").and_then(Value::as_str);
        let file = minijson::get(fields, "file").and_then(Value::as_str);
        PendingItem::Routed {
            shard: routing_shard(graph, file, shards),
            request,
        }
    }
}

/// Advances an N-shard connection as far as the serial-dispatch rule
/// allows: retries a parked run, then answers inline items and hands
/// runs to shards until one run is in flight. Returns whether anything
/// moved. A no-op at one shard, where nothing is ever pending.
#[cfg(unix)]
pub(crate) fn dispatch(
    ctx: &LoopCtx<'_>,
    conn: &mut Connection,
    slot: usize,
    saw_shutdown: &mut bool,
) -> bool {
    let mut progressed = false;
    loop {
        if conn.dead || *saw_shutdown {
            return progressed;
        }
        // Retry a run bounced off a full shard queue before anything
        // else — order is sacred.
        if let Some((shard, job)) = conn.parked.take() {
            if !push_run(ctx, conn, shard, job) {
                return progressed;
            }
            progressed = true;
        }
        if conn.in_flight || conn.backlogged() {
            return progressed;
        }
        let Some(item) = conn.pending.pop_front() else {
            return progressed;
        };
        progressed = true;
        match item {
            PendingItem::Routed { shard, request } => {
                let mut run = vec![request];
                while run.len() < MAX_RUN {
                    match conn.pending.pop_front() {
                        Some(PendingItem::Routed { shard: s, request }) if s == shard => {
                            run.push(request)
                        }
                        Some(other) => {
                            conn.pending.push_front(other);
                            break;
                        }
                        None => break,
                    }
                }
                let job = ShardJob {
                    worker: ctx.worker,
                    slot,
                    gen: conn.gen,
                    run,
                    binary: conn.binary(),
                };
                push_run(ctx, conn, shard, job);
            }
            PendingItem::Inline(request) => {
                let binary = conn.binary();
                let shutdown = answer(
                    ctx.runtime,
                    0,
                    ctx.policy,
                    ctx.metrics,
                    request.op,
                    &request.fields,
                    binary,
                    &mut conn.wbuf,
                );
                if shutdown {
                    // Requests after a shutdown go unanswered, exactly
                    // like the one-shard loop leaves later input unread.
                    conn.pending.clear();
                    conn.rpos = conn.rbuf.len();
                    *saw_shutdown = true;
                }
            }
            PendingItem::Error(bytes) => conn.wbuf.extend_from_slice(&bytes),
        }
    }
}

/// Hands a run to its shard's queue; a full queue parks it on the
/// connection instead. `routed` counts requests, so it moves by the
/// run's length. Returns whether the run went in.
#[cfg(unix)]
fn push_run(ctx: &LoopCtx<'_>, conn: &mut Connection, shard: usize, job: ShardJob) -> bool {
    let len = job.run.len() as u64;
    match ctx.runtime.queues[shard].try_push(job, ctx.worker) {
        Ok(()) => {
            ctx.runtime.routed[shard].fetch_add(len, Ordering::Relaxed);
            conn.in_flight = true;
            true
        }
        Err(job) => {
            conn.parked = Some((shard, job));
            false
        }
    }
}

/// Splices completed runs into their connections' write buffers
/// (generation-checked, so a reply for a dead, reclaimed slot is
/// dropped on the floor) and marks each receiving connection due for
/// service.
#[cfg(unix)]
pub(crate) fn apply_completions(completions: Vec<Completion>, conns: &mut [Option<Connection>]) {
    for completion in completions {
        let Some(conn) = conns.get_mut(completion.slot).and_then(Option::as_mut) else {
            continue;
        };
        if conn.gen != completion.gen {
            continue;
        }
        conn.wbuf.extend_from_slice(&completion.bytes);
        conn.in_flight = false;
        conn.due = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::run_pool;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn sock_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dsg_shard_{name}_{}.sock", std::process::id()))
    }

    fn fixture(name: &str, content: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("dsg_shard_{name}_{}", std::process::id()));
        std::fs::write(&path, content).expect("fixture write");
        path
    }

    fn connect_retry(path: &Path) -> UnixStream {
        for _ in 0..200 {
            if let Ok(stream) = UnixStream::connect(path) {
                return stream;
            }
            // Test-only: wait for the router thread to bind its socket.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("server socket {} never came up", path.display());
    }

    fn spawn_server(sock: PathBuf, options: ServeOptions) -> std::thread::JoinHandle<ServeSummary> {
        std::thread::spawn(move || {
            let engine = Engine::new();
            crate::serve::serve_unix(&engine, &ResourcePolicy::default(), &sock, &options)
                .expect("serve_unix failed")
        })
    }

    /// Sends every request line, then reads exactly `expect` response
    /// lines.
    fn exchange(stream: &mut UnixStream, requests: &str, expect: usize) -> Vec<String> {
        stream.write_all(requests.as_bytes()).expect("send");
        read_lines(stream, expect)
    }

    fn read_lines(stream: &mut UnixStream, expect: usize) -> Vec<String> {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        (0..expect)
            .map(|_| {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
                line.trim_end().to_string()
            })
            .collect()
    }

    /// `None` (timeout) when the server sent nothing within `wait`.
    fn try_read_line(stream: &UnixStream, wait: Duration) -> Option<String> {
        stream.set_read_timeout(Some(wait)).expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        let got = match reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                None
            }
            Err(e) => panic!("read failed: {e}"),
        };
        stream.set_read_timeout(None).expect("timeout");
        got
    }

    /// Drops `"key":<value>` (with its leading comma) from a response
    /// line — for the two run-dependent fields, `elapsed_ms` and the
    /// per-engine `loads` counter.
    fn strip_field(line: &str, key: &str) -> String {
        let pat = format!(",\"{key}\":");
        match line.find(&pat) {
            None => line.to_string(),
            Some(start) => {
                let rest = &line[start + pat.len()..];
                let end = rest.find([',', '}']).expect("unterminated field");
                format!("{}{}", &line[..start], &rest[end..])
            }
        }
    }

    fn strip_run_dependent(line: &str) -> String {
        strip_field(&strip_field(line, "elapsed_ms"), "loads")
    }

    #[test]
    fn routing_is_deterministic_and_tagged() {
        // Precomputed FNV-1a values: h("g:alpha") = 13295628215524255688,
        // h("g:beta") = 25966380842540422, h("f:/tmp/a.txt") =
        // 587426745370860717, h("f:g:alpha") = 344651217429707284.
        // A restart (or another process) recomputes the same hash — the
        // function is pure, which is the whole determinism story.
        assert_eq!(routing_shard(Some("alpha"), None, 2), 0);
        assert_eq!(routing_shard(Some("alpha"), None, 4), 0);
        assert_eq!(routing_shard(Some("alpha"), None, 8), 0);
        assert_eq!(routing_shard(Some("beta"), None, 4), 2);
        assert_eq!(routing_shard(Some("beta"), None, 8), 6);
        assert_eq!(routing_shard(None, Some("/tmp/a.txt"), 2), 1);
        assert_eq!(routing_shard(None, Some("/tmp/a.txt"), 8), 5);
        // The graph name wins when both identities are present (the
        // serve layer rejects that request anyway; routing must still
        // be total), and the g:/f: tags keep a file named like a
        // session graph on its own routing key.
        assert_eq!(
            routing_shard(Some("alpha"), Some("/tmp/a.txt"), 8),
            routing_shard(Some("alpha"), None, 8)
        );
        assert_eq!(routing_shard(None, Some("g:alpha"), 8), 4);
        // Identity-free requests (and the degenerate shard counts)
        // pin to shard 0.
        assert_eq!(routing_shard(None, None, 8), 0);
        assert_eq!(routing_shard(Some("anything"), None, 1), 0);
        assert_eq!(routing_shard(Some("anything"), None, 0), 0);
    }

    #[test]
    fn sharded_transcript_is_byte_identical_to_single_shard() {
        let a = fixture("parity_a.txt", "0 1\n0 2\n1 2\n2 3\n");
        let b = fixture("parity_b.txt", "0 1\n1 2\n2 3\n3 4\n4 0\n");
        let requests = format!(
            concat!(
                "{{\"id\":1,\"algorithm\":\"approx\",\"file\":\"{a}\"}}\n",
                "{{\"id\":2,\"algorithm\":\"charikar\",\"file\":\"{a}\"}}\n",
                "{{\"id\":3,\"algorithm\":\"approx\",\"file\":\"{b}\"}}\n",
                "{{\"id\":4,\"algorithm\":\"approx\",\"file\":\"{a}\"}}\n",
                "{{\"id\":5,\"op\":\"create_graph\",\"graph\":\"pg\",\"edges\":\"0 1, 1 2, 0 2\"}}\n",
                "{{\"id\":6,\"algorithm\":\"approx\",\"graph\":\"pg\"}}\n",
                "{{\"id\":7,\"op\":\"add_edges\",\"graph\":\"pg\",\"edges\":\"2 3\"}}\n",
                "{{\"id\":8,\"algorithm\":\"approx\",\"graph\":\"pg\"}}\n",
                "{{\"id\":9,\"op\":\"shutdown\"}}\n",
            ),
            a = a.display(),
            b = b.display(),
        );
        let mut transcripts = Vec::new();
        for shards in [1usize, 4] {
            let sock = sock_path(&format!("parity{shards}"));
            let server = spawn_server(
                sock.clone(),
                ServeOptions {
                    workers: 2,
                    max_connections: 8,
                    shards,
                    ..ServeOptions::default()
                },
            );
            let mut conn = connect_retry(&sock);
            let lines = exchange(&mut conn, &requests, 9);
            server.join().expect("server panicked");
            transcripts.push(
                lines
                    .iter()
                    .map(|l| strip_run_dependent(l))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "4-shard responses must be byte-identical to 1-shard (minus elapsed_ms/loads)"
        );
        // And they carried real results, not errors.
        assert!(transcripts[0].iter().all(|l| l.contains("\"ok\":true")));
    }

    #[test]
    fn binary_and_batched_requests_flow_through_the_router() {
        let a = fixture("bin_a.txt", "0 1\n0 2\n1 2\n");
        let sock = sock_path("binary");
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards: 2,
                ..ServeOptions::default()
            },
        );
        connect_retry(&sock);
        let mut requests = String::new();
        for id in 1..=6 {
            requests.push_str(&format!(
                "{{\"id\":{id},\"algorithm\":\"approx\",\"file\":\"{}\"}}\n",
                a.display()
            ));
        }
        requests.push_str("{\"id\":7,\"op\":\"stats\"}\n");
        requests.push_str("{\"id\":8,\"op\":\"shutdown\"}\n");
        let mut out = Vec::new();
        let stats = crate::serve::client_unix_opts(
            &sock,
            std::io::Cursor::new(requests),
            &mut out,
            &crate::serve::ClientOptions {
                binary: true,
                pipeline: 4,
            },
        )
        .expect("binary client failed");
        server.join().expect("server panicked");
        assert_eq!(stats.exchanges, 8);
        let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
        assert_eq!(lines.len(), 8);
        // Replies in request order, all ok, stats merged from 2 shards.
        for (index, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{}", index + 1)),
                "out of order: {line}"
            );
            assert!(line.contains("\"ok\":true"), "not ok: {line}");
        }
        assert!(lines[6].contains("\"shards\":[{\"shard\":0,"));
    }

    #[test]
    fn stats_merge_sums_shards_and_keeps_the_flat_field_order() {
        let sock = sock_path("stats");
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards: 2,
                ..ServeOptions::default()
            },
        );
        let mut conn = connect_retry(&sock);
        // "a" routes to shard 1 and "b" to shard 0 of 2 (FNV-1a above),
        // so this session exercises both engines.
        assert_eq!(routing_shard(Some("a"), None, 2), 1);
        assert_eq!(routing_shard(Some("b"), None, 2), 0);
        let lines = exchange(
            &mut conn,
            concat!(
                "{\"id\":1,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1, 1 2\"}\n",
                "{\"id\":2,\"op\":\"create_graph\",\"graph\":\"b\",\"edges\":\"0 1\"}\n",
                "{\"id\":3,\"op\":\"add_edges\",\"graph\":\"a\",\"edges\":\"2 0\"}\n",
                "{\"id\":4,\"algorithm\":\"approx\",\"graph\":\"a\"}\n",
                "{\"id\":5,\"algorithm\":\"approx\",\"graph\":\"b\"}\n",
                "{\"id\":6,\"op\":\"stats\"}\n",
                "{\"id\":7,\"op\":\"shutdown\"}\n",
            ),
            7,
        );
        server.join().expect("server panicked");
        let stats = &lines[5];
        // Counters summed across both engines.
        assert!(stats.contains("\"graphs_named\":2"), "{stats}");
        assert!(stats.contains("\"mutations\":1"), "{stats}");
        assert!(stats.contains("\"result_misses\":2"), "{stats}");
        // Named arrays concatenated in shard order: b (shard 0) first.
        let named_b = stats.find("\"name\":\"b\"").expect("named b");
        let named_a = stats.find("\"name\":\"a\"").expect("named a");
        assert!(named_b < named_a, "{stats}");
        // Per-shard breakdown proves the routing split: shard 0 ran b's
        // create + query, shard 1 ran a's create + add + query.
        assert!(
            stats.contains("{\"shard\":0,\"routed\":2,\"queries\":1,\"mutations\":1,\"errors\":0,"),
            "{stats}"
        );
        assert!(
            stats.contains("{\"shard\":1,\"routed\":3,\"queries\":1,\"mutations\":2,\"errors\":0,"),
            "{stats}"
        );
        // The flat prefix keeps the exact single-engine field order, so
        // existing stats consumers parse a sharded server unchanged.
        let order = [
            "\"ok\":",
            "\"loads\":",
            "\"hits\":",
            "\"stat_scans\":",
            "\"evictions\":",
            "\"graphs\":",
            "\"result_hits\":",
            "\"result_misses\":",
            "\"result_insertions\":",
            "\"result_evictions\":",
            "\"result_entries\":",
            "\"result_bytes\":",
            "\"conn_active\":",
            "\"conn_peak\":",
            "\"mutations\":",
            "\"graphs_named\":",
            "\"warm_hits\":",
            "\"warm_fallbacks\":",
            "\"incremental_hits\":",
            "\"incremental_fallbacks\":",
            "\"replayed_ops\":",
            "\"dropped_tail_records\":",
            "\"named\":",
            "\"shards\":",
        ];
        let mut last = 0usize;
        for key in order {
            let at = stats
                .find(key)
                .unwrap_or_else(|| panic!("missing {key} in {stats}"));
            assert!(at > last, "field {key} out of order in {stats}");
            last = at;
        }
    }

    /// Test harness around [`run_pool`] directly: tiny queue caps and
    /// the per-shard [`HoldGate`]s are only reachable this way.
    fn with_held_router<F: FnOnce(&ShardRuntime, &Path)>(name: &str, queue_cap: usize, body: F) {
        let sock = sock_path(name);
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).expect("bind");
        let template = Engine::new();
        let options = ServeOptions {
            workers: 1,
            max_connections: 8,
            shards: 2,
            ..ServeOptions::default()
        };
        let runtime = ShardRuntime::new(&template, &options, queue_cap).expect("shard runtime");
        let policy = ResourcePolicy::default();
        let metrics = ServeMetrics::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                run_pool(&runtime, &policy, &listener, &options, &metrics).expect("router failed")
            });
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&runtime, &sock)));
            if let Err(panic) = result {
                // A failed body never reached its shutdown op; without
                // one the scope join below waits on the accept loop
                // forever and the captured assertion message is never
                // shown — the failure presents as a silent hang. Release
                // every brake, stop the router, then re-panic.
                for shard in 0..runtime.holds.len() {
                    runtime.hold(shard).release();
                }
                let mut conn = connect_retry(&sock);
                let _ = conn.write_all(b"{\"op\":\"shutdown\"}\n");
                let _ = try_read_line(&conn, Duration::from_secs(5));
                std::panic::resume_unwind(panic);
            }
        });
        let _ = std::fs::remove_file(&sock);
    }

    #[test]
    fn mutations_behind_queue_backpressure_keep_their_order() {
        // Queue cap 1: conn1's job fills shard 1's queue, conn2's job
        // for the same shard bounces and parks. The mutation and query
        // pipelined behind it must still apply in order once the shard
        // drains.
        with_held_router("backpressure", 1, |runtime, sock| {
            assert_eq!(routing_shard(Some("a"), None, 2), 1);
            assert_eq!(routing_shard(Some("c"), None, 2), 1);
            runtime.hold(1).hold();
            let mut conn1 = connect_retry(sock);
            conn1
                .write_all(
                    b"{\"id\":11,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1\"}\n",
                )
                .expect("send");
            // Test-only: give the router time to enqueue conn1's job
            // (fills the cap).
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(100));
            let mut conn2 = connect_retry(sock);
            conn2
                .write_all(
                    concat!(
                        "{\"id\":21,\"op\":\"create_graph\",\"graph\":\"c\",\"edges\":\"0 1\"}\n",
                        "{\"id\":22,\"op\":\"add_edges\",\"graph\":\"c\",\"edges\":\"1 2\"}\n",
                        "{\"id\":23,\"algorithm\":\"charikar\",\"graph\":\"c\"}\n",
                    )
                    .as_bytes(),
                )
                .expect("send");
            // Held shard: nobody gets an answer.
            assert_eq!(try_read_line(&conn2, Duration::from_millis(200)), None);
            runtime.hold(1).release();
            let replies1 = read_lines(&mut conn1, 1);
            assert!(
                replies1[0].starts_with("{\"id\":11,\"ok\":true"),
                "{}",
                replies1[0]
            );
            let replies2 = read_lines(&mut conn2, 3);
            assert!(
                replies2[0].starts_with("{\"id\":21,\"ok\":true"),
                "{}",
                replies2[0]
            );
            assert!(
                replies2[1].starts_with("{\"id\":22,\"ok\":true"),
                "{}",
                replies2[1]
            );
            // The query ran after the mutation it was pipelined behind:
            // it sees all 3 nodes of the mutated graph.
            assert!(
                replies2[2].starts_with("{\"id\":23,\"ok\":true"),
                "{}",
                replies2[2]
            );
            assert!(replies2[2].contains("\"graph_nodes\":3"), "{}", replies2[2]);
            exchange(&mut conn1, "{\"op\":\"shutdown\"}\n", 1);
        });
    }

    #[test]
    fn a_saturated_shard_never_stalls_the_other() {
        with_held_router("barrier", 4, |runtime, sock| {
            assert_eq!(routing_shard(Some("a"), None, 2), 1);
            assert_eq!(routing_shard(Some("b"), None, 2), 0);
            runtime.hold(1).hold();
            let mut conn1 = connect_retry(sock);
            conn1
                .write_all(
                    b"{\"id\":1,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1\"}\n",
                )
                .expect("send");
            // Shard 1 is saturated (its whole executor pool is parked),
            // yet shard 0 answers a different connection immediately —
            // the isolation barrier the shard layer exists for.
            let mut conn2 = connect_retry(sock);
            let replies = exchange(
                &mut conn2,
                "{\"id\":2,\"op\":\"create_graph\",\"graph\":\"b\",\"edges\":\"0 1\"}\n",
                1,
            );
            assert!(
                replies[0].starts_with("{\"id\":2,\"ok\":true"),
                "{}",
                replies[0]
            );
            // conn1 is still waiting on the held shard...
            assert_eq!(try_read_line(&conn1, Duration::from_millis(200)), None);
            runtime.hold(1).release();
            // ...and completes once it drains.
            let replies = read_lines(&mut conn1, 1);
            assert!(
                replies[0].starts_with("{\"id\":1,\"ok\":true"),
                "{}",
                replies[0]
            );
            exchange(&mut conn2, "{\"op\":\"shutdown\"}\n", 1);
        });
    }

    /// Reads exactly `expect` reply frames, returning their JSON payloads.
    fn read_frames(stream: &mut UnixStream, expect: usize) -> Vec<String> {
        use std::io::Read;
        (0..expect)
            .map(|_| {
                let mut header = [0u8; crate::frame::HEADER_LEN];
                stream.read_exact(&mut header).expect("reply header");
                assert_eq!(header[2], crate::frame::Opcode::Reply.byte());
                let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
                let mut payload = vec![0u8; len as usize];
                stream.read_exact(&mut payload).expect("reply payload");
                String::from_utf8(payload).expect("utf8 reply")
            })
            .collect()
    }

    /// One batch frame carrying `requests` (JSONL request objects) as its
    /// items, in order; `None` is a malformed item (an unknown field-key
    /// tag), which is answered with a typed error in its place.
    fn batch_frame(requests: &[Option<&str>]) -> Vec<u8> {
        use crate::frame::{self, Opcode};
        let mut payload = Vec::new();
        for request in requests {
            match request {
                Some(text) => {
                    let fields = minijson::parse_object(text).expect("test request");
                    let op = minijson::get(&fields, "op")
                        .and_then(Value::as_str)
                        .unwrap_or("query");
                    frame::encode_batch_item(op, &fields, &mut payload).expect("encode item");
                }
                None => frame::encode_batch_item_from_payload(Opcode::Query, &[0x77], &mut payload),
            }
        }
        let mut out = Vec::new();
        frame::encode_request_from_payload(Opcode::Batch, &payload, &mut out);
        out
    }

    /// Session graph `a` (shard 1 of 2) interleaved with file graph `f`
    /// (chosen to route to shard 0), a `stats` mid-stream and a
    /// malformed request (`None`): the runs are
    /// [1] [2] [3,4] stats [6] bad [8] stats shutdown.
    fn interleaved(f: &Path) -> Vec<Option<String>> {
        let f = f.display();
        [
            "{\"id\":1,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1, 1 2\"}".to_string(),
            format!("{{\"id\":2,\"algorithm\":\"approx\",\"file\":\"{f}\"}}"),
            "{\"id\":3,\"algorithm\":\"approx\",\"graph\":\"a\"}".to_string(),
            "{\"id\":4,\"op\":\"add_edges\",\"graph\":\"a\",\"edges\":\"2 0\"}".to_string(),
            "{\"id\":5,\"op\":\"stats\"}".to_string(),
            format!("{{\"id\":6,\"algorithm\":\"approx\",\"file\":\"{f}\"}}"),
            String::new(),
            "{\"id\":8,\"algorithm\":\"charikar\",\"graph\":\"a\"}".to_string(),
            "{\"id\":9,\"op\":\"stats\"}".to_string(),
            "{\"id\":10,\"op\":\"shutdown\"}".to_string(),
        ]
        .into_iter()
        .map(|r| (!r.is_empty()).then_some(r))
        .collect()
    }

    /// Sends `requests` in one write — as one batch frame, or as JSONL
    /// lines — to a fresh `shards`-shard server and returns every reply.
    fn replies_in_one_write(
        shards: usize,
        binary: bool,
        requests: &[Option<String>],
    ) -> Vec<String> {
        let sock = sock_path(&format!("runs{shards}{binary}"));
        let server = spawn_server(
            sock.clone(),
            ServeOptions {
                workers: 2,
                max_connections: 8,
                shards,
                ..ServeOptions::default()
            },
        );
        let mut conn = connect_retry(&sock);
        let replies = if binary {
            let items: Vec<Option<&str>> = requests.iter().map(|r| r.as_deref()).collect();
            conn.write_all(&batch_frame(&items)).expect("send");
            read_frames(&mut conn, requests.len())
        } else {
            let lines: String = requests
                .iter()
                .map(|r| format!("{}\n", r.as_deref().unwrap_or("{\"id\":7,\"algorithm\":")))
                .collect();
            exchange(&mut conn, &lines, requests.len())
        };
        server.join().expect("server panicked");
        replies
    }

    #[test]
    fn runs_keep_request_order_across_shards() {
        assert_eq!(routing_shard(Some("a"), None, 2), 1);
        let f = (0..)
            .map(|i| fixture(&format!("runs_{i}.txt"), "0 1\n0 2\n1 2\n2 3\n"))
            .find(|p| routing_shard(None, p.to_str(), 2) == 0)
            .expect("some fixture name routes to shard 0");
        let requests = interleaved(&f);
        for binary in [true, false] {
            let sharded = replies_in_one_write(2, binary, &requests);
            let single = replies_in_one_write(1, binary, &requests);
            let ids = ["1", "2", "3", "4", "5", "6", "null", "8", "9", "10"];
            for (reply, id) in sharded.iter().zip(ids) {
                assert!(reply.starts_with(&format!("{{\"id\":{id},")), "{reply}");
            }
            assert!(sharded[6].contains("\"ok\":false"), "{}", sharded[6]);
            // Every reply but the two stats (whose schemas differ by the
            // per-shard breakdown) matches the 1-shard server's.
            for index in [0, 1, 2, 3, 5, 6, 7, 9] {
                assert_eq!(
                    strip_run_dependent(&sharded[index]),
                    strip_run_dependent(&single[index]),
                    "reply {index} (binary: {binary})"
                );
            }
            // The mid-stream stats counts exactly the requests before
            // it: a's create + query + add on shard 1, f's query on 0.
            let mid = &sharded[4];
            assert!(mid.contains("\"mutations\":1,"), "{mid}");
            assert!(mid.contains("\"result_misses\":2,"), "{mid}");
            assert!(
                mid.contains("{\"shard\":0,\"routed\":1,\"queries\":1,\"mutations\":0,"),
                "{mid}"
            );
            assert!(
                mid.contains("{\"shard\":1,\"routed\":3,\"queries\":1,\"mutations\":2,"),
                "{mid}"
            );
            // f's second query replays; the malformed request reached no
            // shard.
            let end = &sharded[8];
            assert!(end.contains("\"result_hits\":1,"), "{end}");
            assert!(end.contains("\"result_misses\":3,"), "{end}");
            assert!(
                end.contains(
                    "{\"shard\":0,\"routed\":2,\"queries\":2,\"mutations\":0,\"errors\":0,"
                ),
                "{end}"
            );
            assert!(
                end.contains(
                    "{\"shard\":1,\"routed\":4,\"queries\":2,\"mutations\":2,\"errors\":0,"
                ),
                "{end}"
            );
        }
    }
    /// Polls `done` until it holds; panics naming `what` after 5 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        for _ in 0..500 {
            if done() {
                return;
            }
            // Test-only: poll the router's progress.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn a_run_parked_behind_backpressure_keeps_its_order() {
        // Queue cap 1 on a held shard: conn1's three-request batch
        // crosses as one job and fills the queue; conn2's run to the
        // same shard parks behind it until the shard drains.
        with_held_router("run_backpressure", 1, |runtime, sock| {
            assert_eq!(routing_shard(Some("a"), None, 2), 1);
            assert_eq!(routing_shard(Some("c"), None, 2), 1);
            runtime.hold(1).hold();
            let mut conn1 = connect_retry(sock);
            conn1
                .write_all(&batch_frame(&[
                    Some("{\"id\":11,\"op\":\"create_graph\",\"graph\":\"a\",\"edges\":\"0 1\"}"),
                    Some("{\"id\":12,\"op\":\"add_edges\",\"graph\":\"a\",\"edges\":\"1 2\"}"),
                    Some("{\"id\":13,\"algorithm\":\"charikar\",\"graph\":\"a\"}"),
                ]))
                .expect("send");
            let routed = || runtime.routed[1].load(Ordering::Relaxed);
            // The whole batch goes in as one run, though the queue holds
            // one job and the held shard answers nothing.
            wait_until("conn1's run to enqueue", || routed() == 3);
            let mut conn2 = connect_retry(sock);
            conn2
                .write_all(
                    concat!(
                        "{\"id\":21,\"op\":\"create_graph\",\"graph\":\"c\",\"edges\":\"0 1\"}\n",
                        "{\"id\":22,\"algorithm\":\"charikar\",\"graph\":\"c\"}\n",
                    )
                    .as_bytes(),
                )
                .expect("send");
            // conn2's push bounced off the full queue: its run parked.
            wait_until("conn2's run to park", || {
                let state = runtime.queues[1].backlog.lock().expect("queue");
                !state.stalled.is_empty()
            });
            assert_eq!(routed(), 3);
            runtime.hold(1).release();
            let replies1 = read_frames(&mut conn1, 3);
            for (reply, prefix) in replies1.iter().zip([
                "{\"id\":11,\"ok\":true",
                "{\"id\":12,\"ok\":true",
                "{\"id\":13,\"ok\":true",
            ]) {
                assert!(reply.starts_with(prefix), "{reply}");
            }
            assert!(replies1[0].contains("\"version\":1"), "{}", replies1[0]);
            assert!(replies1[1].contains("\"version\":2"), "{}", replies1[1]);
            // The query ran after the mutation it was batched behind.
            assert!(replies1[2].contains("\"graph_nodes\":3"), "{}", replies1[2]);
            let replies2 = read_lines(&mut conn2, 2);
            assert!(
                replies2[0].starts_with("{\"id\":21,\"ok\":true"),
                "{}",
                replies2[0]
            );
            assert!(
                replies2[1].starts_with("{\"id\":22,\"ok\":true"),
                "{}",
                replies2[1]
            );
            assert_eq!(routed(), 5);
            exchange(&mut conn2, "{\"op\":\"shutdown\"}\n", 1);
        });
    }
}

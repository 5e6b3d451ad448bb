//! The end-to-end run: set the server up several times, then drive the
//! last one closed-loop from this process for the timed phase, and check
//! every reply against a cold in-process reference afterwards.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dsg_engine::ResourcePolicy;

use crate::check;
use crate::stats::percentile;
use crate::wire::{batch_frame, fresh_dir, pause, FrameConn, JsonlConn, Server, ServerConfig};
use crate::workload::{Op, OpStream, Plan, Workload};

/// Fresh server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests per pipelined batch frame.
const PIPELINE_DEPTH: usize = 32;
/// Equal sub-phases of the timed phase. Throughput, latency and CPU are
/// computed per sub-phase and reported as the median over them, so a
/// burst of interference from outside the benchmark moves one sub-phase
/// rather than the result.
pub const WINDOWS: usize = 5;

pub struct Env {
    pub server_bin: PathBuf,
    pub work: PathBuf,
    pub nproc: usize,
}

/// One completed timed-phase request.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Seconds from the start of the timed phase to the reply.
    pub done_s: f64,
    /// Client-seen latency: request written to reply read.
    pub ms: f64,
    pub query: bool,
}

/// Everything the wire phase measured.
#[derive(Default)]
pub struct WireRun {
    pub setup_s: Vec<f64>,
    /// Length of the timed phase.
    pub seconds: f64,
    pub samples: Vec<Sample>,
    /// Server CPU milliseconds at each sub-phase boundary (`WINDOWS + 1`).
    pub cpu_marks: Vec<f64>,
    /// Requests whose replies were checked (set-up, warm-up and timed).
    pub attempted: u64,
    pub failed: u64,
    pub rss_mb: f64,
    /// Timed-phase replies marked as result-cache replays.
    pub replays: u64,
    pub stats_reply: String,
    pub server_flags: Vec<String>,
    /// Ops each connection sent, in order, and the wire latency of the
    /// timed ones by id (not kept for the cached workloads, whose ops
    /// cycle a fixed set).
    pub logs: Vec<Vec<(u64, Op)>>,
    pub op_ms: Vec<(u64, f64)>,
    pub mismatches: Vec<String>,
}

/// Per-sub-phase values of the timed phase.
pub struct Windowed {
    pub throughput_ops: Vec<f64>,
    pub query_p50_ms: Vec<f64>,
    pub query_p90_ms: Vec<f64>,
    pub cpu_ms_per_op: Vec<f64>,
}

impl WireRun {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }

    fn judge(&mut self, id: u64, reply: &str, expected: &str) {
        self.attempted += 1;
        if check::body(reply) != expected {
            self.fail(format!(
                "request {id}: got {} expected {}",
                clip(reply),
                clip(expected)
            ));
        }
    }

    /// Latencies of the timed phase's queries (`true`) or mutations.
    pub fn latencies(&self, query: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.query == query)
            .map(|s| s.ms)
            .collect()
    }

    /// The values per sub-phase. A request counts toward the
    /// sub-phase its reply arrived in; replies after the timed phase
    /// (the requests in flight at its end) count toward none.
    pub fn windowed(&self) -> Windowed {
        let len = self.seconds / WINDOWS as f64;
        let mut ops = [0u64; WINDOWS];
        let mut span = [(f64::INFINITY, 0.0f64); WINDOWS];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
        for s in &self.samples {
            let w = (s.done_s / len) as usize;
            if w < WINDOWS {
                ops[w] += 1;
                span[w] = (span[w].0.min(s.done_s), span[w].1.max(s.done_s));
                if s.query {
                    lat[w].push(s.ms);
                }
            }
        }
        let per = |f: &dyn Fn(usize) -> f64| (0..WINDOWS).map(f).collect::<Vec<_>>();
        Windowed {
            // Replies per second between a sub-phase's first and last
            // reply: not quantized by the sub-phase length.
            throughput_ops: per(&|w| {
                ops[w].saturating_sub(1) as f64 / (span[w].1 - span[w].0).max(1e-9)
            }),
            query_p50_ms: per(&|w| percentile(&lat[w], 50.0)),
            query_p90_ms: per(&|w| percentile(&lat[w], 90.0)),
            cpu_ms_per_op: per(&|w| {
                (self.cpu_marks[w + 1] - self.cpu_marks[w]) / ops[w].max(1) as f64
            }),
        }
    }
}

fn clip(s: &str) -> String {
    s.chars().take(300).collect()
}

fn server_config(plan: &Plan, env: &Env, k: usize) -> ServerConfig {
    ServerConfig {
        binary: env.server_bin.clone(),
        socket: env.work.join("serve.sock"),
        workers: env.nproc,
        shards: plan.workload.shards(),
        data_dir: (plan.workload == Workload::SessionChurn)
            .then(|| env.work.join(format!("data-{k}"))),
    }
}

/// A JSONL lockstep connection mid-run: its stream and its transcript.
struct Lane {
    conn: JsonlConn,
    stream: OpStream,
    ops: Vec<(u64, Op)>,
    replies: Vec<String>,
    samples: Vec<Sample>,
}

impl Lane {
    fn new(server: &Server, stream: OpStream) -> Result<Lane, String> {
        Ok(Lane {
            conn: JsonlConn::new(server.connect()?)?,
            stream,
            ops: Vec::new(),
            replies: Vec::new(),
            samples: Vec::new(),
        })
    }

    /// Sends the stream's next request and records its reply.
    fn send(&mut self, started: Instant) -> Result<(), String> {
        let (id, op) = self.stream.next_op();
        let line = op.jsonl(id);
        let t0 = Instant::now();
        let reply = self.conn.call(&line)?.to_string();
        let done = Instant::now();
        self.samples.push(Sample {
            done_s: (done - started).as_secs_f64(),
            ms: (done - t0).as_secs_f64() * 1e3,
            query: op.is_query(),
        });
        self.ops.push((id, op));
        self.replies.push(reply);
        Ok(())
    }

    fn run_until(&mut self, started: Instant, deadline: Instant) -> Result<(), String> {
        while Instant::now() < deadline {
            self.send(started)?;
        }
        Ok(())
    }
}

/// Sends `ops` over one JSONL connection, requiring `"ok":true`.
fn call_ok(conn: &mut JsonlConn, ops: &[Op]) -> Result<Vec<String>, String> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let reply = conn.call(&op.jsonl(i as u64))?;
            if !reply.contains("\"ok\":true") {
                return Err(format!("warm-up request failed: {}", clip(reply)));
            }
            Ok(reply.to_string())
        })
        .collect()
}

/// Joins scoped threads, turning a panic into an error.
fn join_all<T>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<T, String>>>,
) -> Result<Vec<T>, String> {
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("load thread panicked".into()))
        })
        .collect()
}

/// Runs the set-ups and the timed phase, then verifies every reply.
pub fn run(plan: &Plan, env: &Env, seconds: f64) -> Result<WireRun, String> {
    let mut run = WireRun {
        seconds,
        ..WireRun::default()
    };
    let policy = ResourcePolicy::default();
    let conns = plan.connections();
    let session = plan.workload == Workload::SessionChurn;
    let cached = plan.workload.binary();

    // Cached workloads: the fixed set's reference answers, up front.
    let set_results: Vec<String> = if cached {
        let engine = check::cold_engine();
        plan.warmup
            .iter()
            .map(|op| check::file_result(&engine, op, &policy))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };

    let mut lanes: Vec<Lane> = Vec::new();
    let mut live: Option<Server> = None;
    for k in 0..SETUPS {
        let cfg = server_config(plan, env, k);
        if let Some(dir) = &cfg.data_dir {
            fresh_dir(dir)?;
        }
        let t0 = Instant::now();
        let server = Server::start(&cfg)?;
        if session {
            // The stream opens with the graphs' creates.
            let mut lane = Lane::new(&server, plan.stream(0))?;
            for _ in 0..plan.setup_ops {
                lane.send(t0)?;
            }
            lane.samples.clear();
            lanes.push(lane);
        } else {
            let mut conn = JsonlConn::new(server.connect()?)?;
            call_ok(&mut conn, &plan.warmup[..plan.setup_ops])?;
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            lanes.clear();
            server.shutdown()?;
        } else {
            run.server_flags = server.flags.clone();
            live = Some(server);
        }
    }
    let server = live.expect("the last set-up stays up");

    // Untimed warm-up: the cached set (verified), so every timed
    // request is a replay.
    if cached {
        let mut conn = JsonlConn::new(server.connect()?)?;
        let replies = call_ok(&mut conn, &plan.warmup)?;
        for (i, reply) in replies.iter().enumerate() {
            let expected = check::query_body(i as u64, &set_results[i]);
            run.judge(i as u64, reply, &expected);
        }
    }
    if plan.workload == Workload::ColdPeel {
        lanes.push(Lane::new(&server, plan.stream(0))?);
    }
    // Untimed warm-up of the sessions: one full cycle of rounds per
    // connection (its replies are checked with the rest).
    std::thread::scope(|s| {
        join_all(
            lanes
                .iter_mut()
                .map(|lane| {
                    s.spawn(move || {
                        let t0 = Instant::now();
                        while !lane.stream.warmed() {
                            lane.send(t0)?;
                        }
                        lane.samples.clear();
                        Ok(())
                    })
                })
                .collect(),
        )
    })?;

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let server_ref = &server;
    let (cpu_marks, pipes) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            (0..=WINDOWS)
                .map(|w| {
                    let at = started + Duration::from_secs_f64(seconds * w as f64 / WINDOWS as f64);
                    pause(at.saturating_duration_since(Instant::now()));
                    server_ref.cpu_ms()
                })
                .collect::<Result<Vec<f64>, String>>()
        });
        let pipes = if cached {
            let set_results = &set_results;
            join_all(
                (0..conns)
                    .map(|c| {
                        s.spawn(move || {
                            pipe_lane(plan, c, server_ref, set_results, started, deadline)
                        })
                    })
                    .collect(),
            )
        } else {
            join_all(
                lanes
                    .iter_mut()
                    .map(|lane| s.spawn(move || lane.run_until(started, deadline)))
                    .collect(),
            )
            .map(|_| Vec::new())
        };
        let marks = sampler
            .join()
            .unwrap_or_else(|_| Err("sampler panicked".into()));
        (marks, pipes)
    });
    run.cpu_marks = cpu_marks?;
    for lane in pipes? {
        run.attempted += lane.samples.len() as u64;
        run.replays += lane.replays;
        run.samples.extend(lane.samples);
        for m in lane.mismatches {
            run.fail(m);
        }
        run.failed += lane.extra_failures;
    }
    run.rss_mb = server.peak_rss_mb()?;
    {
        let mut conn = JsonlConn::new(server.connect()?)?;
        run.stats_reply = conn.call(r#"{"op":"stats","id":"stats"}"#)?.to_string();
    }
    server.shutdown()?;

    // Verification, outside the timed phase.
    if !cached {
        for lane in &lanes {
            // A session lane's first ops, the creates, are set-up.
            let timed = &lane.ops[lane.ops.len() - lane.samples.len()..];
            run.op_ms.extend(
                timed
                    .iter()
                    .map(|(id, _)| *id)
                    .zip(lane.samples.iter().map(|s| s.ms)),
            );
            run.samples.extend(&lane.samples);
            run.replays += lane.replies.iter().filter(|r| check::is_replay(r)).count() as u64;
        }
        let expected: Vec<Vec<String>> = lanes
            .iter()
            .map(|lane| {
                if session {
                    check::session_bodies(&lane.ops, &policy, env.nproc)
                } else {
                    check::file_bodies(&lane.ops, &policy, env.nproc)
                }
            })
            .collect();
        for (lane, bodies) in lanes.iter().zip(&expected) {
            for (((id, _), reply), body) in lane.ops.iter().zip(&lane.replies).zip(bodies) {
                run.judge(*id, reply, body);
            }
        }
        run.logs = lanes.into_iter().map(|l| l.ops).collect();
    }
    Ok(run)
}

/// One pipelined connection's timed-phase outcome.
struct PipeLane {
    samples: Vec<Sample>,
    replays: u64,
    mismatches: Vec<String>,
    extra_failures: u64,
}

/// Drives one binary connection: batches of `PIPELINE_DEPTH` requests
/// cycling over its share of the fixed set, every reply checked inline
/// against the set's reference answers.
fn pipe_lane(
    plan: &Plan,
    conn: usize,
    server: &Server,
    set_results: &[String],
    started: Instant,
    deadline: Instant,
) -> Result<PipeLane, String> {
    let mut stream = plan.stream(conn);
    // One batch per position of the connection's cycle: after them the
    // stream repeats, ids included, so the frames are encoded once.
    let cycle = plan.cycle_len(conn);
    let mut frames = Vec::with_capacity(cycle);
    let mut expected = Vec::with_capacity(cycle * PIPELINE_DEPTH);
    for _ in 0..cycle {
        let batch: Vec<(u64, Op)> = (0..PIPELINE_DEPTH).map(|_| stream.next_op()).collect();
        for (id, op) in &batch {
            let i = plan
                .warmup
                .iter()
                .position(|w| w.jsonl(0) == op.jsonl(0))
                .expect("cycled ops come from the fixed set");
            expected.push((*id, check::query_body(*id, &set_results[i])));
        }
        frames.push(batch_frame(&batch));
    }
    let mut c = FrameConn::new(server.connect()?);
    let mut out = PipeLane {
        samples: Vec::with_capacity(1 << 21),
        replays: 0,
        mismatches: Vec::new(),
        extra_failures: 0,
    };
    let mut b = 0usize;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        c.send(&frames[b])?;
        for k in 0..PIPELINE_DEPTH {
            let reply = c.next_reply()?;
            let done = Instant::now();
            out.samples.push(Sample {
                done_s: (done - started).as_secs_f64(),
                ms: (done - t0).as_secs_f64() * 1e3,
                query: true,
            });
            let (id, want) = &expected[b * PIPELINE_DEPTH + k];
            out.replays += u64::from(check::is_replay(reply));
            if check::body(reply) != want {
                if out.mismatches.len() < 5 {
                    out.mismatches
                        .push(format!("request {id}: got {}", clip(reply)));
                } else {
                    out.extra_failures += 1;
                }
            }
        }
        b = (b + 1) % frames.len();
    }
    Ok(out)
}

/// Removes the run's scratch directory.
pub fn cleanup(work: &Path) {
    let _ = std::fs::remove_dir_all(work);
}

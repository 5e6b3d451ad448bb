//! The four workloads: their graphs and their seeded request streams.
//!
//! Graphs are the repository's dataset stand-ins (fixed shapes, so the
//! seed moves only the requests); request parameters, mutation batches
//! and their order are drawn from the run's `--seed`. Every stream is a
//! pure function of `(workload, scale, seed)`: the same seed gives a
//! byte-identical stream (`perfbench stream` prints it).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsg_datasets::{flickr_standin, livejournal_standin, twitter_standin, Scale as DataScale};
use dsg_engine::minijson::Value;
use dsg_engine::{routing_shard, Algorithm, JsonBuilder, Query, Source};
use dsg_graph::{EdgeList, GraphKind, SplitMix64};

/// One of the benchmark's workloads (names are part of the benchmark's
/// interface: `BENCHMARK.json` and later changes cite them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct-key kernel queries over one JSONL connection.
    ColdPeel,
    /// Result-cache replays, pipelined binary frames, one engine shard.
    CachedPipelined,
    /// The same replays against two engine shards, one graph per connection.
    CachedSharded,
    /// Mutation batches and queries on two durable session graphs, one
    /// connection alternating between them.
    SessionChurn,
}

/// Graph sizes: `Full` is the measured configuration, `Tiny` the smoke test's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured sizes.
    Full,
    /// Stand-ins at their smallest size, for the smoke test.
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdPeel,
        Workload::CachedPipelined,
        Workload::CachedSharded,
        Workload::SessionChurn,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPeel => "cold-peel",
            Workload::CachedPipelined => "cached-pipelined",
            Workload::CachedSharded => "cached-sharded",
            Workload::SessionChurn => "session-churn",
        }
    }

    /// Client connections of the load generator.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::ColdPeel | Workload::SessionChurn => 1,
            Workload::CachedPipelined | Workload::CachedSharded => nproc.clamp(1, 2),
        }
    }

    /// `--shards` of the server.
    pub fn shards(self) -> usize {
        match self {
            Workload::CachedSharded => 2,
            _ => 1,
        }
    }

    /// Binary frames (pipelined) rather than JSONL lockstep.
    pub fn binary(self) -> bool {
        matches!(self, Workload::CachedPipelined | Workload::CachedSharded)
    }
}

impl Scale {
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    fn pick(self, full: DataScale) -> DataScale {
        match self {
            Scale::Full => full,
            Scale::Tiny => DataScale::Tiny,
        }
    }
}

/// A peeling query's algorithm and parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Alg {
    Approx { epsilon: f64 },
    AtLeastK { k: u64, epsilon: f64 },
    Directed { delta: f64, epsilon: f64 },
}

impl Alg {
    pub fn name(self) -> &'static str {
        match self {
            Alg::Approx { .. } => "approx",
            Alg::AtLeastK { .. } => "atleast-k",
            Alg::Directed { .. } => "directed",
        }
    }

    pub fn algorithm(self) -> Algorithm {
        match self {
            Alg::Approx { epsilon } => Algorithm::Approx {
                epsilon,
                sketch: None,
            },
            Alg::AtLeastK { k, epsilon } => Algorithm::AtLeastK {
                k: k as usize,
                epsilon,
            },
            Alg::Directed { delta, epsilon } => Algorithm::Directed { delta, epsilon },
        }
    }
}

/// Per-algorithm metric suffixes: approx, atleast-k, directed.
pub const ALG_KEYS: [&str; 3] = ["approx", "atleast_k", "directed"];

/// What a query runs against.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    File(String),
    Graph(String),
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub enum Op {
    Query {
        target: Target,
        alg: Alg,
    },
    Create {
        graph: String,
        directed: bool,
        edges: Arc<Vec<(u32, u32)>>,
    },
    Add {
        graph: String,
        edges: Vec<(u32, u32)>,
    },
    Remove {
        graph: String,
        edges: Vec<(u32, u32)>,
    },
    Compact {
        graph: String,
    },
}

impl Op {
    pub fn op_name(&self) -> &'static str {
        match self {
            Op::Query { .. } => "query",
            Op::Create { .. } => "create_graph",
            Op::Add { .. } => "add_edges",
            Op::Remove { .. } => "remove_edges",
            Op::Compact { .. } => "compact",
        }
    }

    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }

    /// `(graph, file)` identity the server routes on.
    pub fn identity(&self) -> (Option<&str>, Option<&str>) {
        match self {
            Op::Query {
                target: Target::File(f),
                ..
            } => (None, Some(f)),
            Op::Query {
                target: Target::Graph(g),
                ..
            } => (Some(g), None),
            Op::Create { graph, .. }
            | Op::Add { graph, .. }
            | Op::Remove { graph, .. }
            | Op::Compact { graph } => (Some(graph), None),
        }
    }

    /// The request's fields, `op` first, exactly as a client sends them.
    pub fn fields(&self, id: u64) -> Vec<(String, Value)> {
        let mut f = vec![
            ("op".to_string(), Value::Str(self.op_name().into())),
            ("id".to_string(), Value::Num(id as f64)),
        ];
        let num = |key: &str, v: f64| (key.to_string(), Value::Num(v));
        match self {
            Op::Query { target, alg } => {
                f.push(("algorithm".into(), Value::Str(alg.name().into())));
                f.push(match target {
                    Target::File(path) => ("file".into(), Value::Str(path.clone())),
                    Target::Graph(name) => ("graph".into(), Value::Str(name.clone())),
                });
                match *alg {
                    Alg::Approx { epsilon } => f.push(num("epsilon", epsilon)),
                    Alg::AtLeastK { k, epsilon } => {
                        f.push(num("k", k as f64));
                        f.push(num("epsilon", epsilon));
                    }
                    Alg::Directed { delta, epsilon } => {
                        f.push(num("delta", delta));
                        f.push(num("epsilon", epsilon));
                    }
                }
            }
            Op::Create {
                graph,
                directed,
                edges,
            } => {
                f.push(("graph".into(), Value::Str(graph.clone())));
                f.push(("directed".into(), Value::Bool(*directed)));
                f.push(("edges".into(), Value::Str(edge_string(edges))));
            }
            Op::Add { graph, edges } | Op::Remove { graph, edges } => {
                f.push(("graph".into(), Value::Str(graph.clone())));
                f.push(("edges".into(), Value::Str(edge_string(edges))));
            }
            Op::Compact { graph } => f.push(("graph".into(), Value::Str(graph.clone()))),
        }
        f
    }

    /// The JSONL request line (no trailing newline).
    pub fn jsonl(&self, id: u64) -> String {
        let mut j = JsonBuilder::new();
        for (key, value) in self.fields(id) {
            j.value_field(&key, &value);
        }
        j.finish()
    }

    /// The engine source and query this request asks for (queries only).
    pub fn query(&self) -> Option<(Source, Query)> {
        let Op::Query { target, alg } = self else {
            return None;
        };
        let source = match target {
            Target::File(path) => Source::text(path.clone()),
            Target::Graph(name) => Source::named(name.clone()),
        };
        Some((source, Query::new(alg.algorithm())))
    }
}

/// The flat `"edges"` string of a mutation request: `"u v u v …"`.
pub fn edge_string(edges: &[(u32, u32)]) -> String {
    let mut s = String::with_capacity(edges.len() * 14);
    for (i, (u, v)) in edges.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        let _ = write!(s, "{u} {v}");
    }
    s
}

/// A generated graph: written to a file for file workloads, sent as a
/// `create_graph` payload for the session workload.
pub struct GraphSpec {
    /// Stand-in name (`flickr`, `livejournal`, `twitter`).
    pub name: &'static str,
    pub kind: GraphKind,
    /// Path relative to the checkout root (the server's working directory).
    pub path: String,
    pub list: Arc<EdgeList>,
}

/// Everything a run sends: graphs plus one op generator per connection.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub graphs: Vec<GraphSpec>,
    /// The warm-up ops sent once before timing (one per graph for the
    /// file workloads — their answers time `setup_s` — and the whole
    /// fixed query set for the cached workloads).
    pub warmup: Vec<Op>,
    /// Ops that count as set-up (first warm-up query per file, or the
    /// `create_graph` ops): a prefix of `warmup`, or of the session stream.
    pub setup_ops: usize,
    streams: Vec<StreamKind>,
}

enum StreamKind {
    /// Endless distinct-key queries.
    Cold {
        undirected: String,
        directed: String,
    },
    /// A fixed query set, cycled.
    Cycle(Vec<Op>),
    /// The session graphs' creates, then churn rounds taking turns.
    Sessions,
}

#[derive(Clone)]
struct SessionSpec {
    graph: String,
    directed: bool,
    edges: Arc<EdgeList>,
    queries: Vec<Alg>,
}

/// Distinct-key request parameters: every draw is a fresh `f64`, so no
/// two cold-peel requests share a result-cache key.
fn draw_epsilon(rng: &mut SplitMix64) -> f64 {
    0.3 + 0.4 * rng.next_f64()
}

fn draw_k(rng: &mut SplitMix64, nodes: u32) -> u64 {
    let hi = (nodes / 50).clamp(12, 400) as u64;
    10 + rng.range_u64(hi - 9)
}

fn draw_delta(rng: &mut SplitMix64) -> f64 {
    2.0 + 1.0 * rng.next_f64()
}

/// Derives an independent generator per purpose from the run seed.
fn rng_for(seed: u64, purpose: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(mix.next_u64())
}

impl Plan {
    /// Builds the graphs and streams of `workload` under `dir` (a path
    /// relative to the working directory, as requests name it).
    pub fn new(workload: Workload, scale: Scale, seed: u64, nproc: usize, dir: &Path) -> Plan {
        let path_of =
            |stem: &str| -> String { dir.join(format!("{stem}.txt")).display().to_string() };
        let spec = |name: &'static str, kind: GraphKind, list: EdgeList, stem: &str| GraphSpec {
            name,
            kind,
            path: path_of(stem),
            list: Arc::new(list),
        };
        let mut plan = Plan {
            workload,
            seed,
            graphs: Vec::new(),
            warmup: Vec::new(),
            setup_ops: 0,
            streams: Vec::new(),
        };
        match workload {
            Workload::ColdPeel => {
                let u = spec(
                    "flickr",
                    GraphKind::Undirected,
                    flickr_standin(scale.pick(DataScale::Medium)),
                    "flickr",
                );
                let d = spec(
                    "livejournal",
                    GraphKind::Directed,
                    livejournal_standin(scale.pick(DataScale::Small)),
                    "livejournal",
                );
                plan.warmup = vec![
                    Op::Query {
                        target: Target::File(u.path.clone()),
                        alg: Alg::Approx { epsilon: 0.5 },
                    },
                    Op::Query {
                        target: Target::File(d.path.clone()),
                        alg: Alg::Directed {
                            delta: 2.0,
                            epsilon: 0.5,
                        },
                    },
                ];
                plan.setup_ops = 2;
                plan.streams = vec![StreamKind::Cold {
                    undirected: u.path.clone(),
                    directed: d.path.clone(),
                }];
                plan.graphs = vec![u, d];
            }
            Workload::CachedPipelined | Workload::CachedSharded => {
                // File names are chosen so the two graphs route to
                // different shards of a two-shard server; both workloads
                // use the same names, hence the same request bytes.
                let (u_stem, d_stem) = split_stems(dir);
                let u = spec(
                    "flickr",
                    GraphKind::Undirected,
                    flickr_standin(scale.pick(DataScale::Small)),
                    &u_stem,
                );
                let d = spec(
                    "livejournal",
                    GraphKind::Directed,
                    livejournal_standin(scale.pick(DataScale::Small)),
                    &d_stem,
                );
                let set = cached_set(seed, &u, &d);
                plan.warmup = set.clone();
                // The set opens with one query per file (see cached_set).
                plan.setup_ops = 2;
                let conns = workload.connections(nproc);
                plan.streams = (0..conns)
                    .map(|c| {
                        if workload == Workload::CachedSharded {
                            let mine = set
                                .iter()
                                .filter(|op| {
                                    let (g, f) = op.identity();
                                    routing_shard(g, f, 2) == c % 2
                                })
                                .cloned()
                                .collect();
                            StreamKind::Cycle(mine)
                        } else {
                            StreamKind::Cycle(set.clone())
                        }
                    })
                    .collect();
                plan.graphs = vec![u, d];
            }
            Workload::SessionChurn => {
                let u = spec(
                    "flickr",
                    GraphKind::Undirected,
                    flickr_standin(scale.pick(DataScale::Medium)),
                    "flickr",
                );
                let d = spec(
                    "twitter",
                    GraphKind::Directed,
                    twitter_standin(scale.pick(DataScale::Small)),
                    "twitter",
                );
                plan.setup_ops = 2;
                plan.streams = vec![StreamKind::Sessions];
                plan.graphs = vec![u, d];
            }
        }
        plan
    }

    /// Number of connection streams.
    pub fn connections(&self) -> usize {
        self.streams.len()
    }

    /// Length of connection `conn`'s cycle (cached workloads; 1 otherwise).
    pub fn cycle_len(&self, conn: usize) -> usize {
        match &self.streams[conn] {
            StreamKind::Cycle(ops) => ops.len(),
            _ => 1,
        }
    }

    /// The session stream over this workload's own two graphs: the
    /// session workload's stream, or for the others the traced run's
    /// probe of the session layers.
    pub fn session_stream(&self) -> OpStream {
        let sessions = session_specs(&self.graphs[0], &self.graphs[1])
            .into_iter()
            .map(|spec| Session {
                mirror: Mirror::new(&spec.edges, spec.directed),
                spec,
                round: 0,
            })
            .collect();
        OpStream {
            conn: 0,
            next_id: 0,
            rng: rng_for(self.seed, 100),
            state: StreamState::Sessions {
                sessions,
                pending: Vec::new(),
                turn: 0,
            },
        }
    }

    /// The op generator of connection `conn`.
    pub fn stream(&self, conn: usize) -> OpStream {
        let rng = rng_for(self.seed, 100 + conn as u64);
        let state = match &self.streams[conn] {
            StreamKind::Cold {
                undirected,
                directed,
            } => {
                let u_nodes = self.graphs[0].list.num_nodes;
                StreamState::Cold {
                    undirected: undirected.clone(),
                    directed: directed.clone(),
                    nodes: u_nodes,
                }
            }
            StreamKind::Cycle(ops) => StreamState::Cycle(ops.clone()),
            StreamKind::Sessions => return self.session_stream(),
        };
        OpStream {
            conn,
            next_id: 0,
            rng,
            state,
        }
    }
}

/// The two session graphs over an undirected and a directed graph. Their
/// queries are fixed (the CLI defaults, with `k` = 100): repeating the
/// same query across versions is what lets the warm and incremental
/// tiers reuse earlier results, and fixed parameters keep the cost of a
/// query the same for every seed, which moves only the mutated edges.
fn session_specs(u: &GraphSpec, d: &GraphSpec) -> [SessionSpec; 2] {
    [
        SessionSpec {
            graph: "churn-u".into(),
            directed: false,
            edges: u.list.clone(),
            queries: vec![
                Alg::Approx { epsilon: 0.5 },
                Alg::AtLeastK {
                    k: 100,
                    epsilon: 0.5,
                },
            ],
        },
        SessionSpec {
            graph: "churn-d".into(),
            directed: true,
            edges: d.list.clone(),
            queries: vec![Alg::Directed {
                delta: 2.0,
                epsilon: 0.5,
            }],
        },
    ]
}

/// Picks the two cached-workload file stems so that they hash to
/// different shards of a two-shard server.
fn split_stems(dir: &Path) -> (String, String) {
    let route = |stem: &str| {
        let p: PathBuf = dir.join(format!("{stem}.txt"));
        routing_shard(None, Some(&p.display().to_string()), 2)
    };
    let u = "flickr-small".to_string();
    let target = 1 - route(&u);
    let d = (0..)
        .map(|i| format!("livejournal-small-{i}"))
        .find(|stem| route(stem) == target)
        .expect("some suffix routes to the other shard");
    (u, d)
}

/// The cached workloads' fixed query set: the first query of each file
/// opens the set (it doubles as the set-up warm-up), then more
/// approx / atleast-k / directed queries with seed-drawn parameters.
fn cached_set(seed: u64, u: &GraphSpec, d: &GraphSpec) -> Vec<Op> {
    let mut rng = rng_for(seed, 3);
    let uf = Target::File(u.path.clone());
    let df = Target::File(d.path.clone());
    let mut set = vec![
        Op::Query {
            target: uf.clone(),
            alg: Alg::Approx {
                epsilon: draw_epsilon(&mut rng),
            },
        },
        Op::Query {
            target: df.clone(),
            alg: Alg::Directed {
                delta: draw_delta(&mut rng),
                epsilon: draw_epsilon(&mut rng),
            },
        },
    ];
    for i in 0..10 {
        let (target, alg) = match i % 5 {
            0 | 3 => (
                uf.clone(),
                Alg::Approx {
                    epsilon: draw_epsilon(&mut rng),
                },
            ),
            1 | 4 => (
                uf.clone(),
                Alg::AtLeastK {
                    k: draw_k(&mut rng, u.list.num_nodes),
                    epsilon: draw_epsilon(&mut rng),
                },
            ),
            _ => (
                df.clone(),
                Alg::Directed {
                    delta: draw_delta(&mut rng),
                    epsilon: draw_epsilon(&mut rng),
                },
            ),
        };
        set.push(Op::Query { target, alg });
    }
    set
}

/// The live edge set of a session graph, mirrored by the generator so
/// removals name existing edges and additions new ones.
struct Mirror {
    directed: bool,
    nodes: u32,
    edges: Vec<(u32, u32)>,
    pos: HashMap<(u32, u32), usize>,
}

impl Mirror {
    fn new(list: &EdgeList, directed: bool) -> Mirror {
        let mut m = Mirror {
            directed,
            nodes: list.num_nodes.max(2),
            edges: Vec::with_capacity(list.edges.len()),
            pos: HashMap::with_capacity(list.edges.len()),
        };
        for &(u, v) in &list.edges {
            m.insert(u, v);
        }
        m
    }

    fn key(&self, u: u32, v: u32) -> (u32, u32) {
        if self.directed {
            (u, v)
        } else {
            (u.min(v), u.max(v))
        }
    }

    fn insert(&mut self, u: u32, v: u32) -> bool {
        let k = self.key(u, v);
        if u == v || self.pos.contains_key(&k) {
            return false;
        }
        self.pos.insert(k, self.edges.len());
        self.edges.push(k);
        true
    }

    fn remove_at(&mut self, i: usize) -> (u32, u32) {
        let e = self.edges.swap_remove(i);
        self.pos.remove(&e);
        if let Some(&moved) = self.edges.get(i) {
            self.pos.insert(moved, i);
        }
        e
    }

    fn add_batch(&mut self, rng: &mut SplitMix64, n: usize) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let u = rng.range_u32(self.nodes);
            let v = rng.range_u32(self.nodes);
            if self.insert(u, v) {
                out.push((u, v));
            }
        }
        out
    }

    fn remove_batch(&mut self, rng: &mut SplitMix64, n: usize) -> Vec<(u32, u32)> {
        let n = n.min(self.edges.len().saturating_sub(1));
        (0..n)
            .map(|_| {
                let i = rng.range_u64(self.edges.len() as u64) as usize;
                self.remove_at(i)
            })
            .collect()
    }
}

enum StreamState {
    Cold {
        undirected: String,
        directed: String,
        nodes: u32,
    },
    Cycle(Vec<Op>),
    Sessions {
        sessions: Vec<Session>,
        pending: Vec<Op>,
        /// Rounds sent so far, over all sessions (they take turns).
        turn: u64,
    },
}

/// One session graph of a session stream.
struct Session {
    spec: SessionSpec,
    mirror: Mirror,
    round: u64,
}

/// Batch sizes of session rounds: mostly small, with periodic large
/// add, remove-heavy and mixed batches and a compaction.
pub const SMALL_BATCH: usize = 8;
pub const LARGE_BATCH: usize = 2000;
/// Session rounds repeat this schedule (fixed, so every seed gets the
/// same mix; the seed picks which edges and how many queries).
const ROUND_CYCLE: u64 = 16;

/// An endless, deterministic op generator for one connection. Ids are
/// `conn << 48 | sequence`, unique across connections.
pub struct OpStream {
    conn: usize,
    next_id: u64,
    rng: SplitMix64,
    state: StreamState,
}

impl OpStream {
    /// Whether a session stream has sent every session's first full
    /// cycle of rounds (always true for other streams). The first rounds
    /// after a create find no warm state, so the session workload sends
    /// one cycle before timing starts.
    pub fn warmed(&self) -> bool {
        match &self.state {
            StreamState::Sessions {
                sessions,
                pending,
                turn,
            } => *turn >= ROUND_CYCLE * sessions.len() as u64 && pending.is_empty(),
            _ => true,
        }
    }

    /// The next request as `(id, op)`.
    pub fn next_op(&mut self) -> (u64, Op) {
        let id = ((self.conn as u64) << 48) | self.next_id;
        let op = match &mut self.state {
            StreamState::Cold {
                undirected,
                directed,
                nodes,
            } => {
                // A fixed 5-cycle keeps the algorithm mix identical
                // across seeds: approx dominates, so the median sits
                // inside one mode rather than between two.
                let rng = &mut self.rng;
                let (target, alg) = match self.next_id % 5 {
                    0 | 2 | 4 => (
                        undirected.clone(),
                        Alg::Approx {
                            epsilon: draw_epsilon(rng),
                        },
                    ),
                    1 => (
                        undirected.clone(),
                        Alg::AtLeastK {
                            k: draw_k(rng, *nodes),
                            epsilon: draw_epsilon(rng),
                        },
                    ),
                    _ => (
                        directed.clone(),
                        Alg::Directed {
                            delta: draw_delta(rng),
                            epsilon: draw_epsilon(rng),
                        },
                    ),
                };
                Op::Query {
                    target: Target::File(target),
                    alg,
                }
            }
            StreamState::Cycle(ops) => ops[(self.next_id % ops.len() as u64) as usize].clone(),
            StreamState::Sessions {
                sessions,
                pending,
                turn,
            } => {
                if let Some(session) = sessions.get(self.next_id as usize) {
                    let mut edges = session.mirror.edges.clone();
                    edges.sort_unstable();
                    Op::Create {
                        graph: session.spec.graph.clone(),
                        directed: session.spec.directed,
                        edges: Arc::new(edges),
                    }
                } else {
                    if pending.is_empty() {
                        let n = sessions.len() as u64;
                        let session = &mut sessions[(*turn % n) as usize];
                        *pending = session_round(
                            &mut self.rng,
                            &session.spec,
                            &mut session.mirror,
                            session.round,
                        );
                        pending.reverse();
                        session.round += 1;
                        *turn += 1;
                    }
                    pending.pop().expect("a round holds at least one op")
                }
            }
        };
        self.next_id += 1;
        (id, op)
    }
}

/// One session round: a mutation batch (or compaction) then 1–2 queries.
fn session_round(rng: &mut SplitMix64, spec: &SessionSpec, m: &mut Mirror, round: u64) -> Vec<Op> {
    let g = || spec.graph.clone();
    let mut ops = Vec::with_capacity(4);
    match round % ROUND_CYCLE {
        5 => ops.push(Op::Add {
            graph: g(),
            edges: m.add_batch(rng, LARGE_BATCH),
        }),
        9 => ops.push(Op::Remove {
            graph: g(),
            edges: m.remove_batch(rng, LARGE_BATCH),
        }),
        13 => {
            ops.push(Op::Add {
                graph: g(),
                edges: m.add_batch(rng, LARGE_BATCH / 2),
            });
            ops.push(Op::Remove {
                graph: g(),
                edges: m.remove_batch(rng, LARGE_BATCH / 2),
            });
        }
        15 => ops.push(Op::Compact { graph: g() }),
        r if r % 2 == 0 => ops.push(Op::Add {
            graph: g(),
            edges: m.add_batch(rng, SMALL_BATCH),
        }),
        _ => ops.push(Op::Remove {
            graph: g(),
            edges: m.remove_batch(rng, SMALL_BATCH),
        }),
    }
    let queries = 1 + (rng.next_u64() % 2) as usize;
    for i in 0..queries {
        let alg = spec.queries[(round as usize + i) % spec.queries.len()];
        ops.push(Op::Query {
            target: Target::Graph(g()),
            alg,
        });
    }
    ops
}

//! Reply correctness: reference answers computed in-process by a fresh,
//! cold engine, compared byte for byte with what the server sent after
//! the per-request envelope fields (`elapsed_ms`, cache markers,
//! `loads`) are stripped.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dsg_engine::{CatalogEntry, Engine, JsonBuilder, MutationOutcome, ResourcePolicy, Source};
use dsg_graph::GraphKind;

use crate::workload::Op;

/// Envelope fields that vary per request and are not part of the answer.
const VOLATILE: [&str; 4] = [
    ",\"cache_hit\":",
    ",\"result_cache_hit\":",
    ",\"loads\":",
    ",\"elapsed_ms\":",
];

/// The reply without its volatile envelope fields and closing brace.
/// Those fields are always last in the envelope, after the answer.
pub fn body(reply: &str) -> &str {
    let cut = VOLATILE
        .iter()
        .filter_map(|m| reply.rfind(m))
        .min()
        .unwrap_or_else(|| reply.len().saturating_sub(1));
    &reply[..cut]
}

/// Whether `reply` carries `result_cache_hit: 1`.
pub fn is_replay(reply: &str) -> bool {
    reply.contains(",\"result_cache_hit\":1")
}

/// The expected body of a query reply with `result` as its answer.
pub fn query_body(id: u64, result: &str) -> String {
    let mut j = JsonBuilder::new();
    j.num_field("id", id as f64);
    j.raw_field("ok", "true");
    j.raw_field("result", result);
    let mut s = j.finish();
    s.pop();
    s
}

/// The expected body of a mutation reply.
pub fn mutation_body(id: u64, graph: &str, o: &MutationOutcome) -> String {
    let mut j = JsonBuilder::new();
    j.num_field("id", id as f64);
    j.raw_field("ok", "true");
    j.str_field("graph", graph);
    j.num_field("version", o.version as f64);
    j.num_field("nodes", o.nodes as f64);
    j.num_field("edges", o.edges as f64);
    j.num_field("applied", o.applied as f64);
    j.num_field("delta_edges", o.delta_edges as f64);
    j.num_field("compacted", if o.compacted { 1.0 } else { 0.0 });
    let mut s = j.finish();
    s.pop();
    s
}

/// A cold reference engine: nothing replays from its result cache.
pub fn cold_engine() -> Engine {
    let engine = Engine::new();
    engine.results().set_budget(0);
    engine
}

/// The answer a cold engine gives to a file query, as the reply's
/// `result` object.
pub fn file_result(engine: &Engine, op: &Op, policy: &ResourcePolicy) -> Result<String, String> {
    let (source, query) = op.query().ok_or("not a query")?;
    let report = engine
        .execute(&source, &query, policy)
        .map_err(|e| format!("reference execute: {e}"))?;
    Ok(report.json_str().to_string())
}

/// Expected bodies for file-query ops, computed on `threads` threads.
pub fn file_bodies(ops: &[(u64, Op)], policy: &ResourcePolicy, threads: usize) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(vec![String::new(); ops.len()]);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let engine = cold_engine();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((id, op)) = ops.get(i) else { break };
                    let body = match file_result(&engine, op, policy) {
                        Ok(result) => query_body(*id, &result),
                        Err(e) => format!("<reference failed: {e}>"),
                    };
                    out.lock().expect("reference results lock")[i] = body;
                }
            });
        }
    });
    out.into_inner().expect("reference results lock")
}

/// Expected bodies of a session stream's ops, in order.
///
/// The mutations are replayed on an in-memory engine (one connection
/// sends them in order, so versions match one for one); each query is
/// answered by a fresh cold engine over its graph's materialized snapshot
/// at that point, so neither the result cache nor the warm or incremental
/// tiers of the engine under test take part. Those cold runs are spread
/// over `threads` workers, a few snapshots in flight at a time.
pub fn session_bodies(ops: &[(u64, Op)], policy: &ResourcePolicy, threads: usize) -> Vec<String> {
    let out = Mutex::new(vec![String::new(); ops.len()]);
    let put = |i: usize, body: String| out.lock().expect("reference results lock")[i] = body;
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Arc<CatalogEntry>)>(threads);
    let rx = Mutex::new(rx);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let job = rx.lock().expect("reference queue lock").recv();
                let Ok((i, entry)) = job else { break };
                let (id, op) = &ops[i];
                let body = cold_result(&entry, op, policy)
                    .map(|r| query_body(*id, &r))
                    .unwrap_or_else(|e| format!("<reference failed: {e}>"));
                put(i, body);
            });
        }
        let engine = Engine::new();
        for (i, (id, op)) in ops.iter().enumerate() {
            let graph = op.identity().0.expect("session ops name a graph");
            if op.is_query() {
                match engine.catalog().get_named(graph) {
                    Some((_, entry)) => tx.send((i, entry)).expect("reference workers alive"),
                    None => put(i, format!("<reference lost graph {graph}>")),
                }
            } else {
                let body = apply(&engine, op)
                    .map(|o| mutation_body(*id, graph, &o))
                    .unwrap_or_else(|e| format!("<reference failed: {e}>"));
                put(i, body);
            }
        }
        drop(tx);
    });
    out.into_inner().expect("reference results lock")
}

/// A cold run of a session query over one materialized snapshot.
pub fn cold_result(
    entry: &CatalogEntry,
    op: &Op,
    policy: &ResourcePolicy,
) -> Result<String, String> {
    let (source, query) = op.query().ok_or("not a query")?;
    let source = Source::Memory {
        list: entry.list.clone(),
        label: source.label(),
    };
    let report = cold_engine()
        .execute(&source, &query, policy)
        .map_err(|e| format!("reference execute: {e}"))?;
    Ok(report.json_str().to_string())
}

/// Applies one mutation op to `engine`.
pub fn apply(engine: &Engine, op: &Op) -> Result<MutationOutcome, String> {
    match op {
        Op::Create {
            graph,
            directed,
            edges,
        } => {
            let kind = if *directed {
                GraphKind::Directed
            } else {
                GraphKind::Undirected
            };
            engine.create_graph(graph, kind, edges)
        }
        Op::Add { graph, edges } => engine.add_edges(graph, edges),
        Op::Remove { graph, edges } => engine.remove_edges(graph, edges),
        Op::Compact { graph } => engine.compact_graph(graph),
        Op::Query { .. } => return Err("not a mutation".into()),
    }
    .map_err(|e| e.to_string())
}

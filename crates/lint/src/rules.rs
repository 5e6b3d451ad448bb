//! The rule passes: call-graph construction, transitive may-acquire
//! sets, and the three analyses — lock-order, guard-held-across-call,
//! hot-path hygiene — plus suppression application.

use crate::config::Config;
use crate::facts::{Callee, FileFacts, FuncFacts, LockRegistry};
use crate::report::{Finding, ObservedEdge, Report, SuppressionEntry};
use std::collections::{HashMap, HashSet, VecDeque};

/// Rule identifiers, used in findings and `allow(...)` comments.
pub mod rule {
    pub const LOCK_ORDER: &str = "lock-order";
    pub const LOCK_CYCLE: &str = "lock-cycle";
    pub const UNDECLARED_LOCK: &str = "undeclared-lock";
    pub const GUARD_ACROSS_CALL: &str = "guard-across-call";
    pub const HOT_PATH_PANIC: &str = "hot-path-panic";
    pub const HOT_PATH_BLOCKING: &str = "hot-path-blocking";
    pub const INVALID_SUPPRESSION: &str = "invalid-suppression";
    pub const CONFIG: &str = "config";

    pub const ALL: &[&str] = &[
        LOCK_ORDER,
        LOCK_CYCLE,
        UNDECLARED_LOCK,
        GUARD_ACROSS_CALL,
        HOT_PATH_PANIC,
        HOT_PATH_BLOCKING,
        INVALID_SUPPRESSION,
        CONFIG,
    ];
}

/// A function flattened out of its file, with a global index.
struct Flat<'a> {
    file: &'a str,
    func: &'a FuncFacts,
}

/// Run every rule pass over extracted facts and produce the report.
pub fn run(reg: &LockRegistry, files: &[FileFacts], cfg: &Config) -> Report {
    let funcs: Vec<Flat<'_>> = files
        .iter()
        .flat_map(|f| {
            f.funcs.iter().map(move |fu| Flat {
                file: &f.path,
                func: fu,
            })
        })
        .collect();

    let callees = resolve_calls(&funcs);
    let may_acquire = transitive_acquires(&funcs, &callees);
    let mut findings = Vec::new();

    // --- config sanity: the declared order must itself be acyclic ------
    let declared = DeclaredOrder::new(cfg);
    if let Some(cycle) = declared.find_cycle() {
        findings.push(Finding {
            rule: rule::CONFIG.to_string(),
            file: "lint.toml".to_string(),
            line: 0,
            message: format!(
                "declared lock order contains a cycle: {}",
                cycle.join(" < ")
            ),
            suppressed: None,
        });
    }

    // --- undeclared locks ---------------------------------------------
    let declared_locks: HashSet<String> = cfg.all_declared_locks().into_iter().collect();
    for lock in &reg.locks {
        if !declared_locks.contains(&lock.id) {
            findings.push(Finding {
                rule: rule::UNDECLARED_LOCK.to_string(),
                file: lock.file.clone(),
                line: lock.line,
                message: format!(
                    "{} field `{}` is not declared in lint.toml [lock_order]; \
                     register it under `locks`, `leaves`, or an edge",
                    lock.kind.name(),
                    lock.id
                ),
                suppressed: None,
            });
        }
    }

    // --- observed lock-order edges ------------------------------------
    let mut edges: Vec<ObservedEdge> = Vec::new();
    for (gi, fl) in funcs.iter().enumerate() {
        for a in &fl.func.acquires {
            // Direct nesting inside this function.
            for b in &fl.func.acquires {
                if b.start > a.start && b.start < a.end {
                    edges.push(ObservedEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        file: fl.file.to_string(),
                        line: b.line,
                        holder: fl.func.display(),
                        via: None,
                    });
                }
            }
            // Nesting via calls made while the guard is live.
            for (ci, call) in fl.func.calls.iter().enumerate() {
                if call.idx <= a.start || call.idx >= a.end {
                    continue;
                }
                if let Some(&callee_gi) = callees[gi].get(&ci) {
                    for lock in sorted(&may_acquire[callee_gi]) {
                        edges.push(ObservedEdge {
                            from: a.lock.clone(),
                            to: lock.clone(),
                            file: fl.file.to_string(),
                            line: call.line,
                            holder: fl.func.display(),
                            via: Some(funcs[callee_gi].func.display()),
                        });
                    }
                }
            }
        }
    }
    dedup_edges(&mut edges);

    // --- rule: lock-order ---------------------------------------------
    for e in &edges {
        if let Some(problem) = declared.judge(&e.from, &e.to) {
            let via = e
                .via
                .as_deref()
                .map(|v| format!(" via call to `{v}`"))
                .unwrap_or_default();
            findings.push(Finding {
                rule: rule::LOCK_ORDER.to_string(),
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "`{}` acquires `{}` while holding `{}`{via}: {problem}",
                    e.holder, e.to, e.from
                ),
                suppressed: None,
            });
        }
    }

    // --- rule: lock-cycle (on observed edges) -------------------------
    for cycle in find_cycles(&edges) {
        let site = edges
            .iter()
            .find(|e| e.from == cycle[0])
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_default();
        findings.push(Finding {
            rule: rule::LOCK_CYCLE.to_string(),
            file: site.0,
            line: site.1,
            message: format!(
                "observed lock acquisitions form a cycle: {} -> {}",
                cycle.join(" -> "),
                cycle[0]
            ),
            suppressed: None,
        });
    }

    // --- rule: guard-across-call --------------------------------------
    // Holding a guard while calling a function whose transitive
    // acquisitions include a lock *defined in another module*. Matching
    // on the lock's home (not the callee's file) catches the PR-5 shape
    // where the cross-module work was laundered through a local helper.
    let lock_home: HashMap<&str, &str> = reg
        .locks
        .iter()
        .map(|l| (l.id.as_str(), l.file.as_str()))
        .collect();
    for (gi, fl) in funcs.iter().enumerate() {
        for a in &fl.func.acquires {
            for (ci, call) in fl.func.calls.iter().enumerate() {
                if call.idx <= a.start || call.idx >= a.end {
                    continue;
                }
                let Some(&callee_gi) = callees[gi].get(&ci) else {
                    continue;
                };
                let foreign: Vec<String> = sorted(&may_acquire[callee_gi])
                    .into_iter()
                    .filter(|l| lock_home.get(l.as_str()).copied() != Some(fl.file))
                    .collect();
                if foreign.is_empty() {
                    continue;
                }
                let callee = &funcs[callee_gi];
                findings.push(Finding {
                    rule: rule::GUARD_ACROSS_CALL.to_string(),
                    file: fl.file.to_string(),
                    line: call.line,
                    message: format!(
                        "`{}` holds `{}` across a call to `{}` which may acquire \
                         another module's lock(s): {}",
                        fl.func.display(),
                        a.lock,
                        callee.func.display(),
                        foreign.join(", ")
                    ),
                    suppressed: None,
                });
            }
        }
    }

    // --- rule: hot-path hygiene ---------------------------------------
    let (hot, unmatched_roots) = hot_functions(&funcs, &callees, cfg);
    // A root that names no function would silently empty its closure
    // and switch the hot-path rules off for everything it used to cover
    // (a renamed event loop, say); that is a configuration error.
    for root in unmatched_roots {
        findings.push(Finding {
            rule: rule::CONFIG.to_string(),
            file: "lint.toml".to_string(),
            line: 0,
            message: format!(
                "[hot_path] root `{root}` names no function in the analyzed sources, \
                 so the hot-path rules check nothing from it"
            ),
            suppressed: None,
        });
    }
    let mut hot_names: Vec<String> = hot
        .iter()
        .map(|&gi| {
            format!(
                "{} ({})",
                funcs[gi].func.display(),
                basename(funcs[gi].file)
            )
        })
        .collect();
    hot_names.sort();
    for &gi in &hot {
        let fl = &funcs[gi];
        for p in &fl.func.panics {
            findings.push(Finding {
                rule: rule::HOT_PATH_PANIC.to_string(),
                file: fl.file.to_string(),
                line: p.line,
                message: format!(
                    "`{}` is on the event-loop hot path but contains `{}`",
                    fl.func.display(),
                    p.what
                ),
                suppressed: None,
            });
        }
        for b in &fl.func.blocking {
            findings.push(Finding {
                rule: rule::HOT_PATH_BLOCKING.to_string(),
                file: fl.file.to_string(),
                line: b.line,
                message: format!(
                    "`{}` is on the event-loop hot path but calls blocking `{}`",
                    fl.func.display(),
                    b.what
                ),
                suppressed: None,
            });
        }
    }

    // --- suppressions --------------------------------------------------
    let suppressions = apply_suppressions(files, &mut findings);

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Report {
        findings,
        suppressions,
        locks: reg.locks.clone(),
        edges,
        funcs_analyzed: funcs.len(),
        hot_funcs: hot_names,
    }
}

fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn sorted(set: &HashSet<String>) -> Vec<String> {
    let mut v: Vec<String> = set.iter().cloned().collect();
    v.sort();
    v
}

fn dedup_edges(edges: &mut Vec<ObservedEdge>) {
    let mut seen = HashSet::new();
    edges.retain(|e| {
        seen.insert((
            e.from.clone(),
            e.to.clone(),
            e.file.clone(),
            e.line,
            e.via.clone(),
        ))
    });
}

/// The declared partial order from lint.toml.
struct DeclaredOrder {
    adj: HashMap<String, Vec<String>>,
    leaves: HashSet<String>,
}

impl DeclaredOrder {
    fn new(cfg: &Config) -> Self {
        let mut adj: HashMap<String, Vec<String>> = HashMap::new();
        for (a, b) in &cfg.order_edges {
            adj.entry(a.clone()).or_default().push(b.clone());
        }
        DeclaredOrder {
            adj,
            leaves: cfg.leaves.iter().cloned().collect(),
        }
    }

    fn reachable(&self, from: &str, to: &str) -> bool {
        let mut q = VecDeque::from([from.to_string()]);
        let mut seen = HashSet::new();
        while let Some(n) = q.pop_front() {
            if !seen.insert(n.clone()) {
                continue;
            }
            if let Some(next) = self.adj.get(&n) {
                for m in next {
                    if m == to {
                        return true;
                    }
                    q.push_back(m.clone());
                }
            }
        }
        false
    }

    /// `None` when the observed edge `from -> to` is sanctioned,
    /// otherwise a description of why it is not.
    fn judge(&self, from: &str, to: &str) -> Option<String> {
        if from == to {
            return Some(format!(
                "re-entrant acquisition of `{from}` would self-deadlock"
            ));
        }
        if self.leaves.contains(from) {
            return Some(format!(
                "`{from}` is declared a leaf lock and must never be held across another acquisition"
            ));
        }
        if self.leaves.contains(to) || self.reachable(from, to) {
            return None;
        }
        Some(format!(
            "no declared `{from} < {to}` path in lint.toml [lock_order]"
        ))
    }

    /// A cycle in the *declared* order is a config bug.
    fn find_cycle(&self) -> Option<Vec<String>> {
        let nodes: Vec<&String> = self.adj.keys().collect();
        for start in nodes {
            if self.reachable(start, start) {
                return Some(vec![start.clone()]);
            }
        }
        None
    }
}

/// Cycles over the observed edge graph (each reported once, rotated to
/// its lexicographically smallest node).
fn find_cycles(edges: &[ObservedEdge]) -> Vec<Vec<String>> {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(&e.to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut seen_cycles: HashSet<Vec<String>> = HashSet::new();
    let mut nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.sort();
    for &start in &nodes {
        // DFS from each node looking for a path back to it.
        let mut stack = vec![(start, vec![start.to_string()])];
        let mut visited = HashSet::new();
        while let Some((n, path)) = stack.pop() {
            if !visited.insert(n) && path.len() > 1 {
                continue;
            }
            for &m in adj.get(n).map(Vec::as_slice).unwrap_or_default() {
                if m == start {
                    let mut cyc = path.clone();
                    // Rotate so the smallest element leads.
                    let min = cyc.iter().enumerate().min_by_key(|(_, v)| (*v).clone());
                    if let Some((mi, _)) = min {
                        cyc.rotate_left(mi);
                    }
                    if seen_cycles.insert(cyc.clone()) {
                        cycles.push(cyc);
                    }
                } else if !path.contains(&m.to_string()) {
                    let mut p = path.clone();
                    p.push(m.to_string());
                    stack.push((m, p));
                }
            }
        }
    }
    cycles
}

/// Resolve every call site to a global function index where possible.
/// Returns, per function, a map call-index -> callee global index.
fn resolve_calls(funcs: &[Flat<'_>]) -> Vec<HashMap<usize, usize>> {
    let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut method_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_impl_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (gi, fl) in funcs.iter().enumerate() {
        match &fl.func.impl_of {
            Some(t) => {
                method_by_name.entry(&fl.func.name).or_default().push(gi);
                by_impl_name.entry((t, &fl.func.name)).or_default().push(gi);
            }
            None => free_by_name.entry(&fl.func.name).or_default().push(gi),
        }
    }
    let pick = |cands: Option<&Vec<usize>>, same_file: Option<&str>| -> Option<usize> {
        let cands = cands?;
        if let Some(file) = same_file {
            let local: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&gi| funcs[gi].file == file)
                .collect();
            if local.len() == 1 {
                return Some(local[0]);
            }
            if !local.is_empty() {
                return None;
            }
        }
        (cands.len() == 1).then(|| cands[0])
    };

    funcs
        .iter()
        .map(|fl| {
            let mut out = HashMap::new();
            for (ci, call) in fl.func.calls.iter().enumerate() {
                let resolved = match &call.callee {
                    Callee::Free(n) => pick(free_by_name.get(n.as_str()), Some(fl.file))
                        .or_else(|| pick(free_by_name.get(n.as_str()), None)),
                    Callee::Method(n) => {
                        let own = fl.func.impl_of.as_deref().and_then(|t| {
                            pick(by_impl_name.get(&(t, n.as_str())), Some(fl.file))
                                .or_else(|| pick(by_impl_name.get(&(t, n.as_str())), None))
                        });
                        own.or_else(|| pick(method_by_name.get(n.as_str()), Some(fl.file)))
                            .or_else(|| pick(method_by_name.get(n.as_str()), None))
                    }
                    Callee::Qualified(ty, n) => {
                        let ty = if ty == "Self" {
                            fl.func.impl_of.as_deref().unwrap_or("Self")
                        } else {
                            ty.as_str()
                        };
                        pick(by_impl_name.get(&(ty, n.as_str())), Some(fl.file))
                            .or_else(|| pick(by_impl_name.get(&(ty, n.as_str())), None))
                            .or_else(|| pick(free_by_name.get(n.as_str()), None))
                    }
                };
                if let Some(gi) = resolved {
                    out.insert(ci, gi);
                }
            }
            out
        })
        .collect()
}

/// Fixpoint: the set of locks each function may acquire, transitively.
fn transitive_acquires(
    funcs: &[Flat<'_>],
    callees: &[HashMap<usize, usize>],
) -> Vec<HashSet<String>> {
    let mut sets: Vec<HashSet<String>> = funcs
        .iter()
        .map(|fl| fl.func.acquires.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for gi in 0..funcs.len() {
            for &callee_gi in callees[gi].values() {
                if callee_gi == gi {
                    continue;
                }
                let add: Vec<String> = sets[callee_gi]
                    .iter()
                    .filter(|l| !sets[gi].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    sets[gi].extend(add);
                }
            }
        }
        if !changed {
            return sets;
        }
    }
}

/// Call-graph closure of the configured hot roots, restricted (for
/// reporting) to functions defined in hot files, plus the configured
/// roots that match no function.
fn hot_functions<'c>(
    funcs: &[Flat<'_>],
    callees: &[HashMap<usize, usize>],
    cfg: &'c Config,
) -> (Vec<usize>, Vec<&'c str>) {
    let names = |r: &str, fl: &Flat<'_>| r == fl.func.name || r == fl.func.display();
    let roots: Vec<usize> = funcs
        .iter()
        .enumerate()
        .filter(|(_, fl)| cfg.hot_roots.iter().any(|r| names(r, fl)))
        .map(|(gi, _)| gi)
        .collect();
    let unmatched: Vec<&str> = cfg
        .hot_roots
        .iter()
        .filter(|r| !funcs.iter().any(|fl| names(r, fl)))
        .map(String::as_str)
        .collect();
    let mut reach: HashSet<usize> = HashSet::new();
    let mut q: VecDeque<usize> = roots.into_iter().collect();
    while let Some(gi) = q.pop_front() {
        if !reach.insert(gi) {
            continue;
        }
        for &c in callees[gi].values() {
            q.push_back(c);
        }
    }
    let mut hot: Vec<usize> = reach
        .into_iter()
        .filter(|&gi| {
            cfg.hot_files
                .iter()
                .any(|h| basename(funcs[gi].file) == h.as_str())
        })
        .collect();
    hot.sort();
    (hot, unmatched)
}

/// Match findings against `// dsg-lint: allow(...)` comments (same line
/// or the line directly above). Reasonless suppressions do not suppress
/// and are themselves findings.
fn apply_suppressions(files: &[FileFacts], findings: &mut Vec<Finding>) -> Vec<SuppressionEntry> {
    let mut entries: Vec<SuppressionEntry> = Vec::new();
    let mut index: HashMap<(String, String, u32), usize> = HashMap::new();
    for f in files {
        for s in &f.suppressions {
            let ei = entries.len();
            if !rule::ALL.contains(&s.rule.as_str()) {
                findings.push(Finding {
                    rule: rule::INVALID_SUPPRESSION.to_string(),
                    file: f.path.clone(),
                    line: s.line,
                    message: format!(
                        "unknown rule `{}` in dsg-lint allow comment (known: {})",
                        s.rule,
                        rule::ALL.join(", ")
                    ),
                    suppressed: None,
                });
                continue;
            }
            if s.reason.is_none() {
                findings.push(Finding {
                    rule: rule::INVALID_SUPPRESSION.to_string(),
                    file: f.path.clone(),
                    line: s.line,
                    message: format!(
                        "suppression of `{}` has no reason; write `dsg-lint: allow({}) reason=\"...\"`",
                        s.rule, s.rule
                    ),
                    suppressed: None,
                });
                continue;
            }
            entries.push(SuppressionEntry {
                file: f.path.clone(),
                line: s.line,
                rule: s.rule.clone(),
                reason: s.reason.clone().unwrap_or_default(),
                used: false,
            });
            // A suppression covers its own line and the next line.
            index.insert((f.path.clone(), s.rule.clone(), s.line), ei);
            index.insert((f.path.clone(), s.rule.clone(), s.line + 1), ei);
        }
    }
    for finding in findings.iter_mut() {
        if finding.rule == rule::INVALID_SUPPRESSION {
            continue;
        }
        if let Some(&ei) = index.get(&(finding.file.clone(), finding.rule.clone(), finding.line)) {
            entries[ei].used = true;
            finding.suppressed = Some(entries[ei].reason.clone());
        }
    }
    entries
}

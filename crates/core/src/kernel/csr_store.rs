//! Serial in-memory degree stores over CSR snapshots, with decremental
//! degree maintenance — `O(m + n·passes)` total instead of one full edge
//! scan per pass, producing exactly the same run as the streaming
//! backends on the same graph.

use dsg_graph::{CsrDirected, CsrUndirected};

use super::{DegreeStore, KernelState};

/// Undirected decremental CSR backend.
pub struct CsrUndirectedStore<'g> {
    g: &'g CsrUndirected,
    in_removal: Vec<bool>,
}

impl<'g> CsrUndirectedStore<'g> {
    /// Wraps a CSR snapshot.
    pub fn new(g: &'g CsrUndirected) -> Self {
        CsrUndirectedStore {
            g,
            in_removal: vec![false; g.num_nodes()],
        }
    }
}

impl DegreeStore for CsrUndirectedStore<'_> {
    fn init(&mut self) -> KernelState {
        let n = self.g.num_nodes();
        let mut state = KernelState::full(n, 1);
        let side = &mut state.sides[0];
        for u in 0..n as u32 {
            side.deg[u as usize] = self.g.weighted_degree(u);
        }
        if !self.g.is_weighted() && !self.g.has_self_loops() {
            // Degrees are the offset differences and every edge counts
            // once: the adjacency scan below would reproduce exactly
            // these integer values.
            state.total_weight = self.g.num_edges() as f64;
            return state;
        }
        // Self-loops are excluded from the induced-degree semantics of
        // the streaming variant; subtract them up front.
        let mut total_w = 0.0f64;
        for u in 0..n as u32 {
            for (v, w) in self.g.neighbors_weighted(u) {
                if v == u {
                    side.deg[u as usize] -= w;
                } else {
                    total_w += w;
                }
            }
        }
        state.total_weight = total_w / 2.0;
        state
    }

    fn begin_pass(&mut self, _state: &mut KernelState) {
        // Degrees are maintained decrementally in `apply_removals`.
    }

    fn rebuild(&mut self, state: &mut KernelState) -> bool {
        // Reachable only through floating-point drift of the decremental
        // degrees (weighted graphs): restore the exact state a streaming
        // pass would hold.
        let side = &mut state.sides[0];
        let mut total_w = 0.0f64;
        for u in side.alive.iter() {
            let mut d = 0.0;
            for (v, w) in self.g.neighbors_weighted(u) {
                if v != u && side.alive.contains(v) {
                    d += w;
                    total_w += w;
                }
            }
            side.deg[u as usize] = d;
        }
        state.total_weight = total_w / 2.0;
        true
    }

    fn apply_removals(&mut self, state: &mut KernelState, side: usize, removed: &[u32]) {
        let side = &mut state.sides[side];
        for &u in removed {
            self.in_removal[u as usize] = true;
        }
        // Decrement neighbor degrees and the live edge weight.
        for &u in removed {
            for (v, w) in self.g.neighbors_weighted(u) {
                if v != u && side.alive.contains(v) {
                    if self.in_removal[v as usize] {
                        // Intra-batch edge: visited from both sides.
                        state.total_weight -= w * 0.5;
                    } else {
                        state.total_weight -= w;
                        side.deg[v as usize] -= w;
                    }
                }
            }
        }
        for &u in removed {
            side.alive.remove(u);
            side.deg[u as usize] = 0.0;
            self.in_removal[u as usize] = false;
        }
        // Guard against floating-point drift on weighted graphs.
        if state.total_weight < 0.0 {
            state.total_weight = 0.0;
        }
    }
}

/// Directed decremental CSR backend (side 0 = `S` with out-degrees into
/// `T`, side 1 = `T` with in-degrees from `S`).
pub struct CsrDirectedStore<'g> {
    g: &'g CsrDirected,
}

impl<'g> CsrDirectedStore<'g> {
    /// Wraps a directed CSR snapshot.
    pub fn new(g: &'g CsrDirected) -> Self {
        CsrDirectedStore { g }
    }
}

impl DegreeStore for CsrDirectedStore<'_> {
    fn init(&mut self) -> KernelState {
        let n = self.g.num_nodes();
        let mut state = KernelState::full(n, 2);
        for u in 0..n as u32 {
            state.sides[0].deg[u as usize] = self.g.out_degree(u) as f64;
            state.sides[1].deg[u as usize] = self.g.in_degree(u) as f64;
        }
        state.total_weight = self.g.num_edges() as f64;
        state
    }

    fn begin_pass(&mut self, _state: &mut KernelState) {
        // Degrees are maintained decrementally in `apply_removals`.
    }

    fn apply_removals(&mut self, state: &mut KernelState, side: usize, removed: &[u32]) {
        let (s_side, rest) = state.sides.split_first_mut().expect("two sides");
        let t_side = &mut rest[0];
        if side == 0 {
            for &u in removed {
                s_side.alive.remove(u);
                for &v in self.g.out_neighbors(u) {
                    if t_side.alive.contains(v) {
                        state.total_weight -= 1.0;
                        t_side.deg[v as usize] -= 1.0;
                    }
                }
                s_side.deg[u as usize] = 0.0;
            }
        } else {
            for &v in removed {
                t_side.alive.remove(v);
                for &u in self.g.in_neighbors(v) {
                    if s_side.alive.contains(u) {
                        state.total_weight -= 1.0;
                        s_side.deg[u as usize] -= 1.0;
                    }
                }
                t_side.deg[v as usize] = 0.0;
            }
        }
    }
}

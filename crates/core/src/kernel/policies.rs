//! The removal policies: one per algorithm of the paper (plus the
//! rejected naive directed rule, kept as an ablation).

use dsg_graph::density;

use super::{DegreeStore, KernelState, RemovalPolicy, Selection};

/// Algorithm 1's rule: remove every node whose induced degree is at most
/// `2(1+ε)·ρ(S)`.
///
/// The fallback (reachable only with biased, e.g. Count-Min, degree
/// estimates) evicts the `ε/(1+ε)·|S|` smallest-estimate nodes — at
/// least one — which preserves the `O(log_{1+ε} n)` pass bound no matter
/// how biased the oracle is.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdPolicy {
    epsilon: f64,
}

impl ThresholdPolicy {
    /// Creates the policy; `epsilon ≥ 0`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        ThresholdPolicy { epsilon }
    }
}

impl RemovalPolicy for ThresholdPolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let side = &state.sides[0];
        let rho = density::undirected(state.total_weight, side.alive.len());
        let threshold = density::undirected_threshold(rho, self.epsilon);
        for u in side.alive.iter() {
            if side.deg[u as usize] <= threshold {
                buf.push(u);
            }
        }
        Selection {
            side: 0,
            density: rho,
            threshold,
            successor: None,
        }
    }

    fn fallback<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) {
        let side = &state.sides[0];
        let mut by_estimate: Vec<(f64, u32)> = side
            .alive
            .iter()
            .map(|u| (side.deg[u as usize], u))
            .collect();
        by_estimate.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("degree estimates are never NaN")
                .then(a.1.cmp(&b.1))
        });
        let target =
            ((self.epsilon / (1.0 + self.epsilon)) * side.alive.len() as f64).ceil() as usize;
        let target = target.clamp(1, side.alive.len());
        buf.extend(by_estimate[..target].iter().map(|&(_, u)| u));
    }
}

/// Algorithm 2's rule: of the nodes at or below the `2(1+ε)·ρ(S)`
/// threshold, remove only the `ε/(1+ε)·|S|` smallest-degree ones (ties
/// by id), stopping once `|S| < k`.
#[derive(Clone, Debug)]
pub struct KFloorPolicy {
    k: usize,
    epsilon: f64,
    candidates: Vec<(f64, u32)>,
}

impl KFloorPolicy {
    /// Creates the policy; `epsilon > 0` (with `ε = 0` the prescribed
    /// removal count is zero and the algorithm cannot progress).
    pub fn new(k: usize, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "Algorithm 2 requires epsilon > 0");
        KFloorPolicy {
            k,
            epsilon,
            candidates: Vec::new(),
        }
    }
}

impl RemovalPolicy for KFloorPolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.len() < self.k
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let side = &state.sides[0];
        let rho = density::undirected(state.total_weight, side.alive.len());
        let threshold = density::undirected_threshold(rho, self.epsilon);

        // A~(S): all nodes at or below the threshold.
        self.candidates.clear();
        for u in side.alive.iter() {
            let d = side.deg[u as usize];
            if d <= threshold {
                self.candidates.push((d, u));
            }
        }
        // |A(S)| = ε/(1+ε)·|S|, rounded up so progress is guaranteed.
        // Lemma 4's counting argument gives |A~| > ε/(1+ε)·|S| with exact
        // degrees, so the clamp only matters under estimation error.
        let target =
            ((self.epsilon / (1.0 + self.epsilon)) * side.alive.len() as f64).ceil() as usize;
        let target = target.clamp(1, self.candidates.len().max(1));
        let removed = target.min(self.candidates.len());
        // Ids make every `(degree, id)` key unique, so selecting the
        // `removed` smallest and sorting only them gives `buf` the order
        // of a full sort and leaves the smallest survivor at `removed`.
        let by_key = |a: &(f64, u32), b: &(f64, u32)| {
            a.0.partial_cmp(&b.0)
                .expect("degrees are never NaN")
                .then(a.1.cmp(&b.1))
        };
        if removed < self.candidates.len() {
            self.candidates.select_nth_unstable_by(removed, by_key);
        }
        self.candidates[..removed].sort_unstable_by(by_key);
        buf.extend(self.candidates[..removed].iter().map(|&(_, u)| u));
        Selection {
            side: 0,
            density: rho,
            threshold,
            successor: self.candidates.get(removed).copied(),
        }
    }
}

/// Charikar's rule: remove the single minimum-degree node per pass
/// (extracted through [`DegreeStore::extract_min`], so priority-structure
/// backends keep the peel `O(m + n)` overall).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinNodePolicy;

impl RemovalPolicy for MinNodePolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let rho = density::undirected(state.total_weight, state.sides[0].alive.len());
        let u = store
            .extract_min(state, 0)
            .expect("a live minimum exists while the side is non-empty");
        buf.push(u);
        Selection {
            side: 0,
            density: rho,
            // The minimum degree is the natural "threshold" of this rule.
            threshold: state.sides[0].deg[u as usize],
            successor: None,
        }
    }
}

/// Algorithm 3's size-based rule (§4.3): remove from `S` when
/// `|S|/|T| ≥ c` (nodes with out-degree into `T` at most
/// `(1+ε)·|E(S,T)|/|S|`), symmetrically from `T` otherwise.
#[derive(Clone, Copy, Debug)]
pub struct DirectedSizesPolicy {
    c: f64,
    epsilon: f64,
}

impl DirectedSizesPolicy {
    /// Creates the policy; `c > 0`, `epsilon ≥ 0`.
    pub fn new(c: f64, epsilon: f64) -> Self {
        assert!(c > 0.0, "ratio c must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        DirectedSizesPolicy { c, epsilon }
    }

    /// The side rule at ratio `c`: `true` when a pass that starts at
    /// sizes `(|S|, |T|)` removes from `S` (`|S|/|T| ≥ c`). A run depends
    /// on `c` only through this test, which is what lets the δ-grid
    /// sweep reuse a run across ratios (`crate::directed`).
    #[inline]
    pub fn removes_from_s(c: f64, s_len: usize, t_len: usize) -> bool {
        s_len as f64 / t_len as f64 >= c
    }
}

impl RemovalPolicy for DirectedSizesPolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty() || state.sides[1].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let (s_len, t_len) = (state.sides[0].alive.len(), state.sides[1].alive.len());
        let rho = density::directed(state.total_weight, s_len, t_len);
        let from_s = Self::removes_from_s(self.c, s_len, t_len);
        let side = usize::from(!from_s);
        let side_len = if from_s { s_len } else { t_len };
        let threshold = density::directed_threshold(state.total_weight, side_len, self.epsilon);
        let sd = &state.sides[side];
        for u in sd.alive.iter() {
            if sd.deg[u as usize] <= threshold {
                buf.push(u);
            }
        }
        Selection {
            side,
            density: rho,
            threshold,
            successor: None,
        }
    }
}

/// The naive side-selection rule that §4.3 describes and rejects: compute
/// **both** candidate sets each pass, compare the maximum out-degree over
/// `A(S)` with the maximum in-degree over `B(T)`, and remove `A(S)` iff
/// `E(S, j*) ≥ c·E(i*, T)`. Same `(2+2ε)` guarantee, twice the selection
/// work — kept as an ablation.
#[derive(Clone, Debug)]
pub struct DirectedNaivePolicy {
    c: f64,
    epsilon: f64,
    b_set: Vec<u32>,
}

impl DirectedNaivePolicy {
    /// Creates the policy; `c > 0`, `epsilon ≥ 0`.
    pub fn new(c: f64, epsilon: f64) -> Self {
        assert!(c > 0.0, "ratio c must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        DirectedNaivePolicy {
            c,
            epsilon,
            b_set: Vec::new(),
        }
    }
}

impl RemovalPolicy for DirectedNaivePolicy {
    fn finished(&self, state: &KernelState) -> bool {
        state.sides[0].alive.is_empty() || state.sides[1].alive.is_empty()
    }

    fn select<S: DegreeStore + ?Sized>(
        &mut self,
        _store: &mut S,
        state: &KernelState,
        buf: &mut Vec<u32>,
    ) -> Selection {
        let (s_side, t_side) = (&state.sides[0], &state.sides[1]);
        let (s_len, t_len) = (s_side.alive.len(), t_side.alive.len());
        let rho = density::directed(state.total_weight, s_len, t_len);

        // Both candidate sets — the cost the size-based rule avoids.
        let s_threshold = density::directed_threshold(state.total_weight, s_len, self.epsilon);
        let t_threshold = density::directed_threshold(state.total_weight, t_len, self.epsilon);
        buf.extend(
            s_side
                .alive
                .iter()
                .filter(|&u| s_side.deg[u as usize] <= s_threshold),
        );
        self.b_set.clear();
        self.b_set.extend(
            t_side
                .alive
                .iter()
                .filter(|&v| t_side.deg[v as usize] <= t_threshold),
        );
        let max_out_a = buf
            .iter()
            .map(|&u| s_side.deg[u as usize])
            .fold(0.0f64, f64::max);
        let max_in_b = self
            .b_set
            .iter()
            .map(|&v| t_side.deg[v as usize])
            .fold(0.0f64, f64::max);

        // E(S, j*) / E(i*, T) ≥ c -> remove A(S); cross-multiplied to
        // avoid dividing by a zero max out-degree.
        if max_in_b >= self.c * max_out_a {
            Selection {
                side: 0,
                density: rho,
                threshold: s_threshold,
                successor: None,
            }
        } else {
            std::mem::swap(buf, &mut self.b_set);
            Selection {
                side: 1,
                density: rho,
                threshold: t_threshold,
                successor: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CsrUndirectedStore;
    use dsg_graph::{CsrUndirected, EdgeList, SplitMix64};

    #[test]
    fn k_floor_selection_matches_full_sort() {
        // Degrees from {0, 1, 2, 3} make ties the rule; the live edge
        // weight moves the threshold so that the clamp target lands both
        // below and at or above the candidate count.
        let by_key =
            |a: &(f64, u32), b: &(f64, u32)| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1));
        let (mut clamped, mut whole) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = SplitMix64::new(seed);
            let n = 1 + rng.range_u32(80) as usize;
            let eps = [0.1, 0.5, 1.0, 3.0][rng.range_u32(4) as usize];
            let empty = CsrUndirected::from_edge_list(&EdgeList::new_undirected(n as u32));
            let mut store = CsrUndirectedStore::new(&empty);
            let mut state = KernelState::full(n, 1);
            for u in 0..n as u32 {
                state.sides[0].deg[u as usize] = rng.range_u32(4) as f64;
                if n > 1 && rng.bernoulli(0.2) {
                    state.sides[0].alive.remove(u);
                }
            }
            let alive = state.sides[0].alive.len();
            state.total_weight = rng.next_f64() * 1.5 * alive as f64;

            let mut policy = KFloorPolicy::new(1, eps);
            let mut buf = Vec::new();
            let sel = policy.select(&mut store, &state, &mut buf);

            let side = &state.sides[0];
            let mut reference: Vec<(f64, u32)> = side
                .alive
                .iter()
                .map(|u| (side.deg[u as usize], u))
                .filter(|&(d, _)| d <= sel.threshold)
                .collect();
            reference.sort_by(by_key);
            let target = ((eps / (1.0 + eps)) * alive as f64).ceil() as usize;
            let removed = target.clamp(1, reference.len().max(1)).min(reference.len());
            if target >= reference.len() {
                whole += 1;
            } else {
                clamped += 1;
            }
            let expected: Vec<u32> = reference[..removed].iter().map(|&(_, u)| u).collect();
            assert_eq!(buf, expected, "seed {seed}");
            assert_eq!(
                sel.successor,
                reference.get(removed).copied(),
                "seed {seed}"
            );
        }
        assert!(
            clamped > 50 && whole > 50,
            "clamped {clamped}, whole {whole}"
        );
    }
}

//! The elimination-tree zoo: panel-reduction shapes for tiled QR.
//!
//! A panel of `m` tile rows is reduced to one triangular tile by `m - 1`
//! pairwise *merges*, each either a TS merge (`TSQRT`: triangular pivot
//! absorbs a full square victim) or a TT merge (`TTQRT`: triangular pivot
//! absorbs a triangular victim). Which pairs merge, and in which parallel
//! *rounds*, is the elimination tree — the single structural degree of
//! freedom of tiled QR (Bouwmeester et al., "Tiled QR factorization
//! algorithms"). This module enumerates the classical family:
//!
//! * [`EliminationTree::Flat`] — the paper's TS chain: one `GEQRT`, then
//!   every subdiagonal row is TS-merged into the pivot sequentially.
//!   Minimal task count, linear critical path.
//! * [`EliminationTree::FlatTt`] — `GEQRT` everywhere, sequential TT
//!   chain. The degenerate tree kept for ablations.
//! * [`EliminationTree::Binary`] — `GEQRT` everywhere, stride-doubling
//!   TT reduction: `1 + ⌈log₂ m⌉` unit critical path, the shortest.
//! * [`EliminationTree::Greedy`] — each round TT-kills the bottom
//!   `⌊alive/2⌋` rows against the rows directly above them. Same
//!   log-depth as binary on one panel, but it eliminates bottom rows as
//!   early as possible, which pipelines consecutive panels better on
//!   `p × q` grids (Bouwmeester's asymptotically optimal choice).
//! * [`EliminationTree::Fibonacci`] — like greedy but round `r` kills at
//!   most `F_r` rows (`1, 1, 2, 3, 5, …`), the weighted-ideal schedule
//!   when an elimination costs ~1 round-trip and the panel drains at
//!   Fibonacci rate.
//! * [`EliminationTree::Plateau`]`(k)` — TS domains of size `k`: each
//!   domain head `GEQRT`s and TS-absorbs its `k - 1` rows as a chain,
//!   then a binary TT tree merges the domain heads. `Plateau(1)` is
//!   `Binary`; `Plateau(m)` is `Flat`. TSQR on a tall-skinny grid is
//!   `Plateau(⌈√mt⌉)` ([`EliminationTree::tsqr_domain`]), which is what
//!   [`TreePolicy::Auto`] picks there.
//!
//! Every tree produces the *same factorization bits for its own DAG* —
//! the runtime guarantees bit-identity across schedules of one DAG, and
//! the testkit holds each tree to the same κ-scaled numerical oracles.

/// How a [`MergeOp`] combines two panel rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeKind {
    /// `TSQRT`: the victim row is a full square tile (never `GEQRT`ed).
    Ts,
    /// `TTQRT`: the victim row was triangularized first (`GEQRT` or an
    /// earlier merge), so only its upper triangle is annihilated.
    Tt,
}

/// One pairwise merge in a panel's elimination schedule: `pivot` absorbs
/// `victim`. Row indices are panel-local (`0` is the diagonal row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MergeOp {
    /// Surviving row (always `< victim`).
    pub pivot: usize,
    /// Eliminated row; never referenced again within the panel.
    pub victim: usize,
    /// TS or TT merge.
    pub kind: MergeKind,
}

/// A panel-reduction shape from the elimination-tree zoo (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EliminationTree {
    /// TS chain (the paper's algorithm): 1 `GEQRT`, sequential `TSQRT`s.
    Flat,
    /// Sequential `TTQRT` chain with `GEQRT` on every row.
    FlatTt,
    /// Stride-doubling binary `TTQRT` tree.
    Binary,
    /// Fibonacci-capped bottom-half elimination.
    Fibonacci,
    /// Bottom-half-per-round elimination (asymptotically optimal).
    Greedy,
    /// TS domains of size `k` merged by a binary TT tree (`k >= 1`).
    Plateau(usize),
}

impl EliminationTree {
    /// The round-based merge schedule for a panel of `m` rows: rounds run
    /// in order, ops within a round touch pairwise-disjoint rows and may
    /// run in parallel. Every row `1..m` appears as a victim exactly
    /// once; a TS victim is never a pivot and never `GEQRT`ed.
    ///
    /// Panics on `m == 0` or a zero domain size.
    pub fn rounds(&self, m: usize) -> Vec<Vec<MergeOp>> {
        assert!(m > 0, "empty panel");
        match *self {
            EliminationTree::Flat => (1..m)
                .map(|v| {
                    vec![MergeOp {
                        pivot: 0,
                        victim: v,
                        kind: MergeKind::Ts,
                    }]
                })
                .collect(),
            EliminationTree::FlatTt => (1..m)
                .map(|v| {
                    vec![MergeOp {
                        pivot: 0,
                        victim: v,
                        kind: MergeKind::Tt,
                    }]
                })
                .collect(),
            EliminationTree::Binary => binary_rounds(&(0..m).collect::<Vec<_>>()),
            EliminationTree::Greedy => bottom_rounds(m, |_, alive| alive / 2),
            EliminationTree::Fibonacci => {
                // F_r caps the kill count of round r: 1, 1, 2, 3, 5, …
                let (mut fa, mut fb) = (1usize, 1usize);
                bottom_rounds(m, move |round, alive| {
                    if round > 1 {
                        let next = fa.saturating_add(fb);
                        fa = fb;
                        fb = next;
                    }
                    fa.min(alive / 2)
                })
            }
            EliminationTree::Plateau(k) => plateau_rounds(m, k),
        }
    }

    /// `true` for each panel-local row that is some TS merge's victim —
    /// exactly the rows that must *not* be triangularized by `GEQRT`.
    pub fn ts_victims(&self, m: usize) -> Vec<bool> {
        let mut v = vec![false; m];
        for round in self.rounds(m) {
            for op in round {
                if op.kind == MergeKind::Ts {
                    v[op.victim] = true;
                }
            }
        }
        v
    }

    /// Unit-weight critical-path length of a single `m`-row panel
    /// (every `GEQRT`/merge counted as one step) — the Bouwmeester
    /// closed forms:
    ///
    /// * `Flat`/`FlatTt`: `m`
    /// * `Binary`/`Greedy`: `1 + ⌈log₂ m⌉`
    /// * `Fibonacci`: `1 +` the number of Fibonacci-capped rounds
    /// * `Plateau(k)`: `1 + (min(k, m) − 1) + ⌈log₂ ⌈m/k⌉⌉`
    ///
    /// Equals `1 + rounds(m).len()` for every tree (each round chains on
    /// the previous one through a shared row).
    pub fn unit_depth(&self, m: usize) -> usize {
        assert!(m > 0, "empty panel");
        match *self {
            EliminationTree::Flat | EliminationTree::FlatTt => m,
            EliminationTree::Binary | EliminationTree::Greedy => 1 + ceil_log2(m),
            EliminationTree::Fibonacci => 1 + self.rounds(m).len(),
            EliminationTree::Plateau(k) => {
                assert!(k > 0, "zero domain size");
                1 + (k.min(m) - 1) + ceil_log2(m.div_ceil(k))
            }
        }
    }

    /// Stable lowercase label for artifacts and trace metadata
    /// (`"flat"`, `"binary"`, `"plateau4"`, …).
    pub fn label(&self) -> String {
        match *self {
            EliminationTree::Flat => "flat".into(),
            EliminationTree::FlatTt => "flat_tt".into(),
            EliminationTree::Binary => "binary".into(),
            EliminationTree::Fibonacci => "fibonacci".into(),
            EliminationTree::Greedy => "greedy".into(),
            EliminationTree::Plateau(k) => format!("plateau{k}"),
        }
    }

    /// The canonical zoo members (push `Plateau(tsqr_domain(mt))`
    /// yourself for tall-skinny sweeps).
    pub fn zoo() -> Vec<EliminationTree> {
        vec![
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
            EliminationTree::Fibonacci,
            EliminationTree::Greedy,
            EliminationTree::Plateau(2),
            EliminationTree::Plateau(4),
        ]
    }

    /// Worker-agnostic TSQR domain size for `mt` tile rows:
    /// `⌈√mt⌉` balances the in-domain TS chain against the head tree
    /// when the worker count is unknown (a calibrated selector does
    /// better).
    pub fn tsqr_domain(mt: usize) -> usize {
        ((mt as f64).sqrt().ceil() as usize).max(1)
    }

    /// The geometry heuristic [`TreePolicy::Auto`] resolves to, no
    /// calibration profile needed: tall-skinny grids (`nt <= 2`) take
    /// TSQR, `Plateau(⌈√mt⌉)`, markedly tall grids take `Greedy`,
    /// everything else the paper's `Flat` chain.
    pub fn default_for(mt: usize, nt: usize) -> EliminationTree {
        if nt <= 2 && mt >= 4 {
            EliminationTree::Plateau(Self::tsqr_domain(mt))
        } else if mt >= 4 * nt {
            EliminationTree::Greedy
        } else {
            EliminationTree::Flat
        }
    }
}

impl std::fmt::Display for EliminationTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// How a factorization chooses its elimination tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreePolicy {
    /// Use exactly this tree.
    Fixed(EliminationTree),
    /// Pick per geometry: the geometry heuristic
    /// ([`EliminationTree::default_for`]).
    Auto,
}

impl Default for TreePolicy {
    /// The paper's TS chain.
    fn default() -> Self {
        TreePolicy::Fixed(EliminationTree::Flat)
    }
}

impl TreePolicy {
    /// Resolve to a concrete tree for an `mt × nt` grid: `Auto` is the
    /// geometry heuristic, needing no calibration profile.
    pub fn resolve(self, mt: usize, nt: usize) -> EliminationTree {
        match self {
            TreePolicy::Fixed(tree) => tree,
            TreePolicy::Auto => EliminationTree::default_for(mt, nt),
        }
    }
}

/// `⌈log₂ x⌉` for `x >= 1`.
fn ceil_log2(x: usize) -> usize {
    x.next_power_of_two().trailing_zeros() as usize
}

/// Stride-doubling binary TT reduction over the surviving `rows`.
fn binary_rounds(rows: &[usize]) -> Vec<Vec<MergeOp>> {
    let mut rounds = Vec::new();
    let mut stride = 1;
    while stride < rows.len() {
        let mut ops = Vec::new();
        let mut p = 0;
        while p + stride < rows.len() {
            ops.push(MergeOp {
                pivot: rows[p],
                victim: rows[p + stride],
                kind: MergeKind::Tt,
            });
            p += 2 * stride;
        }
        rounds.push(ops);
        stride *= 2;
    }
    rounds
}

/// Bottom-block TT elimination: round `r` (1-based) kills the bottom
/// `kills(r, alive)` surviving rows, each against the surviving row the
/// same distance above the block (so all pivots sit above all victims
/// and the round's rows are pairwise disjoint).
fn bottom_rounds(m: usize, mut kills: impl FnMut(usize, usize) -> usize) -> Vec<Vec<MergeOp>> {
    let mut alive: Vec<usize> = (0..m).collect();
    let mut rounds = Vec::new();
    let mut round = 1;
    while alive.len() > 1 {
        let n = alive.len();
        let s = kills(round, n).clamp(1, n / 2);
        let ops = (0..s)
            .map(|j| MergeOp {
                pivot: alive[n - 2 * s + j],
                victim: alive[n - s + j],
                kind: MergeKind::Tt,
            })
            .collect();
        alive.truncate(n - s);
        rounds.push(ops);
        round += 1;
    }
    rounds
}

/// TS domains of size `k` (chains, rounds interleaved across domains)
/// followed by a binary TT tree over the domain heads.
fn plateau_rounds(m: usize, k: usize) -> Vec<Vec<MergeOp>> {
    assert!(k > 0, "zero domain size");
    let heads: Vec<usize> = (0..m).step_by(k).collect();
    let mut rounds = Vec::new();
    for j in 1..k {
        let ops: Vec<MergeOp> = heads
            .iter()
            .filter(|&&h| h + j < m)
            .map(|&h| MergeOp {
                pivot: h,
                victim: h + j,
                kind: MergeKind::Ts,
            })
            .collect();
        if ops.is_empty() {
            break;
        }
        rounds.push(ops);
    }
    rounds.extend(binary_rounds(&heads));
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_trees() -> Vec<EliminationTree> {
        let mut zoo = EliminationTree::zoo();
        zoo.push(EliminationTree::Plateau(3));
        zoo
    }

    #[test]
    fn every_row_killed_exactly_once() {
        for tree in all_trees() {
            for m in 1..=24 {
                let mut killed = vec![0usize; m];
                let mut dead = vec![false; m];
                for round in tree.rounds(m) {
                    let mut touched = std::collections::HashSet::new();
                    for op in &round {
                        assert!(op.pivot < op.victim, "{tree}: pivot below victim");
                        assert!(!dead[op.pivot], "{tree}: dead pivot reused");
                        assert!(!dead[op.victim], "{tree}: double kill");
                        assert!(touched.insert(op.pivot), "{tree}: pivot clash in round");
                        assert!(touched.insert(op.victim), "{tree}: victim clash in round");
                        killed[op.victim] += 1;
                    }
                    // Deaths land after the whole round (intra-round ops
                    // are concurrent).
                    for op in &round {
                        dead[op.victim] = true;
                    }
                }
                assert!(!dead[0], "{tree}: diagonal row must survive");
                assert_eq!(killed[0], 0, "{tree}: diagonal row killed");
                for (row, &count) in killed.iter().enumerate().skip(1) {
                    assert_eq!(count, 1, "{tree} m={m}: row {row} killed {count}x");
                }
            }
        }
    }

    #[test]
    fn ts_victims_are_never_pivots() {
        for tree in all_trees() {
            for m in 1..=24 {
                let ts = tree.ts_victims(m);
                for op in tree.rounds(m).into_iter().flatten() {
                    assert!(!ts[op.pivot], "{tree}: TS victim used as pivot");
                }
            }
        }
    }

    #[test]
    fn unit_depth_matches_round_count() {
        for tree in all_trees() {
            for m in 1..=32 {
                assert_eq!(tree.unit_depth(m), 1 + tree.rounds(m).len(), "{tree} m={m}");
            }
        }
    }

    #[test]
    fn closed_form_depths() {
        assert_eq!(EliminationTree::Flat.unit_depth(8), 8);
        assert_eq!(EliminationTree::Binary.unit_depth(8), 4);
        assert_eq!(EliminationTree::Greedy.unit_depth(8), 4);
        // Fibonacci kills 1,1,2 then the ⌊alive/2⌋ cap bites: 2,1 —
        // five rounds for m = 8.
        assert_eq!(EliminationTree::Fibonacci.unit_depth(8), 6);
        // Plateau(4) on 8 rows: 3-chain + 1 head merge.
        assert_eq!(EliminationTree::Plateau(4).unit_depth(8), 5);
        // Degenerate ends of the plateau family.
        for m in 1..=16 {
            assert_eq!(
                EliminationTree::Plateau(1).unit_depth(m),
                EliminationTree::Binary.unit_depth(m)
            );
            assert_eq!(
                EliminationTree::Plateau(m).unit_depth(m),
                EliminationTree::Flat.unit_depth(m)
            );
        }
    }

    #[test]
    fn greedy_and_fibonacci_sit_between_binary_and_flat() {
        for m in 2..=32 {
            let flat = EliminationTree::Flat.unit_depth(m);
            let binary = EliminationTree::Binary.unit_depth(m);
            for tree in [EliminationTree::Greedy, EliminationTree::Fibonacci] {
                let d = tree.unit_depth(m);
                assert!(d >= binary && d <= flat, "{tree} m={m}: {d}");
            }
        }
    }

    #[test]
    fn auto_policy_heuristics() {
        // Tall-skinny: TSQR, the plateau of ⌈√mt⌉-row domains.
        assert_eq!(TreePolicy::Auto.resolve(16, 1), EliminationTree::Plateau(4));
        assert_eq!(TreePolicy::Auto.resolve(12, 2), EliminationTree::Plateau(4));
        assert_eq!(
            TreePolicy::Auto.resolve(256, 2),
            EliminationTree::Plateau(16)
        );
        // Markedly tall: greedy.
        assert_eq!(TreePolicy::Auto.resolve(16, 4), EliminationTree::Greedy);
        // Square / mildly tall: the paper's flat chain.
        assert_eq!(TreePolicy::Auto.resolve(8, 8), EliminationTree::Flat);
        assert_eq!(TreePolicy::Auto.resolve(2, 1), EliminationTree::Flat);
        // Fixed is identity.
        assert_eq!(
            TreePolicy::Fixed(EliminationTree::Fibonacci).resolve(100, 1),
            EliminationTree::Fibonacci
        );
        assert_eq!(TreePolicy::default().resolve(5, 5), EliminationTree::Flat);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EliminationTree::Plateau(4).label(), "plateau4");
        assert_eq!(EliminationTree::Greedy.to_string(), "greedy");
    }

    #[test]
    #[should_panic]
    fn zero_plateau_domain_panics() {
        let _ = EliminationTree::Plateau(0).rounds(4);
    }
}

//! Algorithm 1: the relatively-balanced partition dynamic program.
//!
//! Given per-block weights `f_i + b_i` and a pipeline depth `p`, find the
//! contiguous partition into `p` stages that minimises the maximum stage
//! weight. The paper's formulation builds `prefix_sum` and a
//! `time[i][j] = min over k < i of max(time[k][j-1], prefix[i] − prefix[k])`
//! table, then reconstructs the partition; this is exactly that, O(n²·p).

use autopipe_sim::Partition;

/// The filled Algorithm-1 table for one weight vector: `parent[i][j]` is the
/// split point of the last stage in the optimal `j`-stage partition of the
/// first `i` blocks.
///
/// Row `i` of the DP reads only `prefix[0..=i]` and rows `< i`, so the table
/// built for `(weights, p)` *contains* the table of every sub-problem
/// `(&weights[..len], stages)` with `len ≤ n`, `stages ≤ p`: same candidate
/// expression, same strict-`<` tie rule, same floats. One build therefore
/// answers every prefix re-balance the planner's master-shifting step asks
/// for, each as an O(stages) backtrack, with boundaries identical (ties
/// included) to a fresh [`balanced_partition`] on the prefix.
#[derive(Debug, Clone)]
pub(crate) struct BalancedTable {
    /// Row stride, `p + 1`.
    w: usize,
    /// Flattened row-major `(n+1)×(p+1)` split-point table.
    parent: Vec<usize>,
}

impl BalancedTable {
    /// Run Algorithm 1 on `weights` for every depth up to `p`.
    ///
    /// Panics if `p == 0` or `p > weights.len()` (a stage may never be empty).
    pub(crate) fn build(weights: &[f64], p: usize) -> BalancedTable {
        let n = weights.len();
        assert!(p >= 1 && p <= n, "need 1 <= p ({p}) <= n ({n})");

        let mut prefix = vec![0.0_f64; n + 1];
        for i in 0..n {
            prefix[i + 1] = prefix[i] + weights[i];
        }

        // time[i][j]: best max-stage-weight for the first i blocks in j
        // stages, flattened row-major over a (n+1)×(p+1) grid.
        let inf = f64::INFINITY;
        let w = p + 1;
        let mut time = vec![inf; (n + 1) * w];
        let mut parent = vec![0usize; (n + 1) * w];
        time[0] = 0.0;
        for i in 1..=n {
            let maxj = p.min(i);
            for j in 1..=maxj {
                // Stage j takes blocks k..i; the first j-1 stages need >= j-1
                // blocks, and every stage is non-empty so k >= j-1 and k < i.
                let mut best = inf;
                let mut best_k = 0usize;
                for k in (j - 1)..i {
                    let sub = time[k * w + j - 1];
                    if sub == inf {
                        continue;
                    }
                    let cand = sub.max(prefix[i] - prefix[k]);
                    if cand < best {
                        best = cand;
                        best_k = k;
                    }
                }
                time[i * w + j] = best;
                parent[i * w + j] = best_k;
            }
        }
        BalancedTable { w, parent }
    }

    /// Write the boundaries of `balanced_partition(&weights[..len], stages)`
    /// into `out[..=stages]`, reconstructing right-to-left.
    ///
    /// Panics unless `1 <= stages <= min(p, len)` and `len <= n`.
    pub(crate) fn prefix_into(&self, len: usize, stages: usize, out: &mut [usize]) {
        assert!(
            stages >= 1 && stages < self.w && stages <= len && len * self.w < self.parent.len(),
            "prefix ({len} blocks, {stages} stages) outside the table"
        );
        out[stages] = len;
        let mut i = len;
        for j in (1..=stages).rev() {
            i = self.parent[i * self.w + j];
            out[j - 1] = i;
        }
    }

    /// `balanced_partition(&weights[..len], stages)` as a [`Partition`].
    pub(crate) fn partition(&self, len: usize, stages: usize) -> Partition {
        let mut boundaries = vec![0usize; stages + 1];
        self.prefix_into(len, stages, &mut boundaries);
        Partition::new(boundaries)
    }
}

/// Min–max balanced contiguous partition of `weights` into `p` stages.
///
/// Panics if `p == 0` or `p > weights.len()` (a stage may never be empty).
pub fn balanced_partition(weights: &[f64], p: usize) -> Partition {
    BalancedTable::build(weights, p).partition(weights.len(), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The max stage weight of a partition — the quantity Algorithm 1
    /// minimises.
    fn max_stage_weight(part: &Partition, weights: &[f64]) -> f64 {
        (0..part.n_stages())
            .map(|s| part.range(s).map(|b| weights[b]).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Exhaustive optimum for small instances.
    fn brute_force(weights: &[f64], p: usize) -> f64 {
        fn rec(weights: &[f64], start: usize, p: usize, cur_max: f64, best: &mut f64) {
            let n = weights.len();
            if p == 1 {
                let last: f64 = weights[start..].iter().sum();
                *best = best.min(cur_max.max(last));
                return;
            }
            let mut acc = 0.0;
            // stage takes at least 1 block, leaves >= p-1 for the rest
            for end in (start + 1)..=(n - (p - 1)) {
                acc += weights[end - 1];
                let m = cur_max.max(acc);
                if m < *best {
                    rec(weights, end, p - 1, m, best);
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(weights, 0, p, 0.0, &mut best);
        best
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let cases: Vec<(Vec<f64>, usize)> = vec![
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], 2),
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], 3),
            (vec![5.0, 1.0, 1.0, 1.0, 5.0], 3),
            (vec![2.0, 2.0, 2.0, 2.0], 4),
            (vec![1.0, 1.0, 9.0, 1.0, 1.0, 1.0, 1.0], 3),
            (vec![0.1, 0.9, 0.5, 0.5, 0.8, 0.2, 0.4, 0.6], 4),
        ];
        for (w, p) in cases {
            let part = balanced_partition(&w, p);
            let got = max_stage_weight(&part, &w);
            let want = brute_force(&w, p);
            assert!(
                (got - want).abs() < 1e-9,
                "weights {w:?} p {p}: got {got}, optimal {want}"
            );
        }
    }

    #[test]
    fn single_stage_takes_everything() {
        let w = vec![1.0, 2.0, 3.0];
        let part = balanced_partition(&w, 1);
        assert_eq!(part.n_stages(), 1);
        assert_eq!(part.range(0), 0..3);
    }

    #[test]
    fn p_equals_n_gives_singletons() {
        let w = vec![3.0, 1.0, 2.0];
        let part = balanced_partition(&w, 3);
        assert_eq!(part.sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let w = vec![1.0; 12];
        let part = balanced_partition(&w, 4);
        assert_eq!(part.sizes(), vec![3, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "need 1 <= p")]
    fn rejects_more_stages_than_blocks() {
        balanced_partition(&[1.0, 2.0], 3);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The DP never does worse than the exhaustive optimum, on any
            /// random instance small enough to brute force.
            #[test]
            fn dp_is_optimal(
                weights in proptest::collection::vec(0.01f64..10.0, 2..10),
                p_seed in 0usize..100
            ) {
                let p = 1 + p_seed % weights.len();
                let part = balanced_partition(&weights, p);
                let got = max_stage_weight(&part, &weights);
                let want = brute_force(&weights, p);
                prop_assert!((got - want).abs() < 1e-9, "got {} want {}", got, want);
            }

            /// One table answers every sub-problem with the boundaries a
            /// fresh DP on the prefix returns. Weights come either from a
            /// continuous range or from a three-value set, where equal
            /// stage sums are common and the strict-`<` tie rule decides.
            #[test]
            fn table_prefix_equals_fresh_dp_on_the_prefix(
                smooth in proptest::collection::vec(0.01f64..10.0, 2..24),
                picks in proptest::collection::vec(0usize..3, 2..24),
                p_seed in 0usize..100
            ) {
                let tied: Vec<f64> = picks.iter().map(|&i| [0.5, 1.0, 2.0][i]).collect();
                for weights in [smooth, tied] {
                    let p = 1 + p_seed % weights.len();
                    let table = BalancedTable::build(&weights, p);
                    for len in 1..=weights.len() {
                        for stages in 1..=p.min(len) {
                            let fresh = balanced_partition(&weights[..len], stages);
                            prop_assert_eq!(
                                table.partition(len, stages),
                                fresh,
                                "len {} stages {} weights {:?}",
                                len,
                                stages,
                                weights
                            );
                        }
                    }
                }
            }

            /// Stages always cover all blocks exactly once.
            #[test]
            fn partition_is_a_cover(
                weights in proptest::collection::vec(0.01f64..10.0, 2..30),
                p_seed in 0usize..100
            ) {
                let p = 1 + p_seed % weights.len();
                let part = balanced_partition(&weights, p);
                prop_assert_eq!(part.n_stages(), p);
                prop_assert_eq!(part.n_blocks(), weights.len());
                let covered: usize = part.sizes().iter().sum();
                prop_assert_eq!(covered, weights.len());
            }
        }
    }
}

//! Baseline planners and shared search machinery.

pub mod dapple;
pub mod megatron;
pub mod piper;
pub mod replicated;

use autopipe_cost::CostDb;
use autopipe_sim::Partition;

/// Block indices where a pipeline boundary may be placed when planning at
/// whole-layer granularity over a (possibly sub-layer) cost database:
/// immediately before each transformer layer except the first. The embedding
/// stays glued to the first stage and the head blocks to the last — the
/// convention all three baselines share and the source of their imbalance.
pub(crate) fn layer_boundary_positions(db: &CostDb) -> Vec<usize> {
    let mut positions = vec![0usize];
    let mut acc = 0.0_f64;
    for (i, b) in db.blocks.iter().enumerate() {
        // A boundary is allowed where the accumulated layer weight is a
        // positive integer and a new layer-body block begins.
        if b.layer_weight > 0.0 && acc > 0.0 && (acc - acc.round()).abs() < 1e-9 {
            positions.push(i);
        }
        acc += b.layer_weight;
    }
    positions.push(db.len());
    positions.dedup();
    positions
}

/// Enumerate all compositions of `total` into `parts` positive integers,
/// calling `f` on each.
pub(crate) fn for_each_composition(total: usize, parts: usize, f: &mut impl FnMut(&[usize])) {
    fn rec(remaining: usize, parts: usize, cur: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if parts == 1 {
            cur.push(remaining);
            f(cur);
            cur.pop();
            return;
        }
        // leave at least 1 per remaining part
        for take in 1..=(remaining - (parts - 1)) {
            cur.push(take);
            rec(remaining - take, parts - 1, cur, f);
            cur.pop();
        }
    }
    if parts == 0 || total < parts {
        return;
    }
    rec(total, parts, &mut Vec::with_capacity(parts), f);
}

/// Min–max partition of `weights` into `mult.len()` stages where stage `j`'s
/// cost is its weight sum times `mult[j]`, with boundaries restricted to
/// `allowed` (sorted, starting with 0 and ending with `weights.len()`).
/// Returns the partition and its max stage cost, or `None` if `allowed`
/// cannot host that many stages.
pub(crate) fn weighted_minmax_partition(
    weights: &[f64],
    mult: &[f64],
    allowed: &[usize],
) -> Option<(Partition, f64)> {
    let s = mult.len();
    let a = allowed.len();
    if s == 0 || a < s + 1 {
        return None;
    }
    debug_assert_eq!(allowed[0], 0);
    debug_assert_eq!(*allowed.last().unwrap(), weights.len());

    let mut prefix = vec![0.0_f64; weights.len() + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let seg = |ai: usize, aj: usize| prefix[allowed[aj]] - prefix[allowed[ai]];

    let inf = f64::INFINITY;
    // dp[ai][j]: best max-cost covering blocks up to allowed[ai] with j stages
    let mut dp = vec![vec![inf; s + 1]; a];
    let mut parent = vec![vec![0usize; s + 1]; a];
    dp[0][0] = 0.0;
    for ai in 1..a {
        for j in 1..=s.min(ai) {
            for ak in (j - 1)..ai {
                if dp[ak][j - 1] == inf {
                    continue;
                }
                let cand = dp[ak][j - 1].max(seg(ak, ai) * mult[j - 1]);
                if cand < dp[ai][j] {
                    dp[ai][j] = cand;
                    parent[ai][j] = ak;
                }
            }
        }
    }
    if dp[a - 1][s] == inf {
        return None;
    }
    let mut bounds = vec![0usize; s + 1];
    bounds[s] = weights.len();
    let mut ai = a - 1;
    for j in (1..=s).rev() {
        let ak = parent[ai][j];
        bounds[j - 1] = allowed[ak];
        ai = ak;
    }
    Some((Partition::new(bounds), dp[a - 1][s]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_cost::Hardware;
    use autopipe_model::{zoo, Granularity};

    fn db() -> CostDb {
        CostDb::build(
            &zoo::gpt2_345m(),
            &Hardware::rtx3090_cluster(),
            4,
            true,
            Granularity::SubLayer,
        )
    }

    #[test]
    fn layer_positions_count_and_alignment() {
        let d = db();
        let pos = layer_boundary_positions(&d);
        // 0, one per layer boundary (23 interior), and n.
        assert_eq!(pos.len(), 2 + 23);
        // All interior positions start a new layer: odd block index
        // (embedding at 0, layer l starts at 1 + 2l).
        for &p in &pos[1..pos.len() - 1] {
            assert_eq!((p - 1) % 2, 0, "position {p}");
        }
    }

    #[test]
    fn compositions_enumerate_all() {
        let mut seen = Vec::new();
        for_each_composition(4, 2, &mut |c| seen.push(c.to_vec()));
        assert_eq!(seen, vec![vec![1, 3], vec![2, 2], vec![3, 1]]);
        let mut count = 0;
        for_each_composition(16, 3, &mut |_| count += 1);
        // C(15, 2)
        assert_eq!(count, 105);
    }

    #[test]
    fn weighted_minmax_respects_allowed_positions() {
        let w = vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        // Only a split at 3 is allowed besides the trivial ends.
        let (part, cost) = weighted_minmax_partition(&w, &[1.0, 1.0], &[0, 3, 6]).unwrap();
        assert_eq!(part.boundaries(), &[0, 3, 6]);
        assert!((cost - 7.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_minmax_uses_multipliers() {
        let w = vec![1.0; 8];
        // Stage 1 is 3x slower per unit: it should get fewer blocks.
        let allowed: Vec<usize> = (0..=8).collect();
        let (part, _) = weighted_minmax_partition(&w, &[3.0, 1.0], &allowed).unwrap();
        assert!(part.range(0).len() < part.range(1).len());
    }

    #[test]
    fn weighted_minmax_none_when_too_many_stages() {
        let w = vec![1.0; 4];
        assert!(weighted_minmax_partition(&w, &[1.0; 3], &[0, 2, 4]).is_none());
    }
}

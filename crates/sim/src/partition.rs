//! Pipeline partition schemes.

use serde::Serialize;

use autopipe_cost::CostDb;

/// A contiguous partition of a model's block sequence into pipeline stages.
///
/// `boundaries` has `n_stages + 1` entries; stage `s` owns blocks
/// `boundaries[s] .. boundaries[s+1]`. Every stage is non-empty.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Partition {
    boundaries: Vec<usize>,
}

impl Partition {
    /// Build from explicit boundaries. Panics if boundaries are not strictly
    /// increasing starting at 0 — planners must never emit empty stages.
    pub fn new(boundaries: Vec<usize>) -> Partition {
        assert!(boundaries.len() >= 2, "need at least one stage");
        assert_eq!(boundaries[0], 0, "first boundary must be 0");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "stage boundaries must be strictly increasing (no empty stages): {boundaries:?}"
        );
        Partition { boundaries }
    }

    /// Build from per-stage block counts.
    pub(crate) fn from_sizes(sizes: &[usize]) -> Partition {
        let mut boundaries = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0;
        boundaries.push(0);
        for &s in sizes {
            acc += s;
            boundaries.push(acc);
        }
        Partition::new(boundaries)
    }

    /// Even split of `n_blocks` into `p` stages (remainder spread over the
    /// leading stages) — the shape of Megatron-LM's uniform partition.
    pub fn even(n_blocks: usize, p: usize) -> Partition {
        assert!(p >= 1 && p <= n_blocks);
        let base = n_blocks / p;
        let rem = n_blocks % p;
        let sizes: Vec<usize> = (0..p).map(|s| base + usize::from(s < rem)).collect();
        Partition::from_sizes(&sizes)
    }

    /// Number of pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total number of blocks partitioned.
    pub fn n_blocks(&self) -> usize {
        *self.boundaries.last().unwrap()
    }

    /// Block range of stage `s`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.boundaries[s]..self.boundaries[s + 1]
    }

    /// Per-stage block counts.
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.n_stages()).map(|s| self.range(s).len()).collect()
    }

    /// Raw boundaries (read-only).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Extract per-stage forward/backward times and the boundary comm cost.
    /// O(p) via the cost database's prefix sums.
    pub fn stage_costs(&self, db: &CostDb) -> StageCosts {
        let mut out = StageCosts {
            f: Vec::new(),
            b: Vec::new(),
            comm: 0.0,
        };
        self.stage_costs_into(db, &mut out);
        out
    }

    /// [`Self::stage_costs`] into a caller-owned buffer — reuses the `f`/`b`
    /// vectors so per-candidate extraction in a search loop stays
    /// allocation-free after warmup.
    pub fn stage_costs_into(&self, db: &CostDb, out: &mut StageCosts) {
        assert_eq!(
            self.n_blocks(),
            db.len(),
            "partition covers {} blocks but cost db has {}",
            self.n_blocks(),
            db.len()
        );
        out.f.clear();
        out.b.clear();
        for s in 0..self.n_stages() {
            out.f.push(db.range_fwd(self.range(s)));
            out.b.push(db.range_bwd(self.range(s)));
        }
        out.comm = db.comm;
    }

    /// Per-stage transformer-layer-equivalents — Table II's reporting
    /// convention (`.5` per lone sub-layer block).
    pub fn layer_counts(&self, db: &CostDb) -> Vec<f64> {
        (0..self.n_stages())
            .map(|s| db.range_layers(self.range(s)))
            .collect()
    }

    /// Per-stage parameter counts.
    pub fn stage_params(&self, db: &CostDb) -> Vec<u64> {
        (0..self.n_stages())
            .map(|s| db.range_params(self.range(s)))
            .collect()
    }
}

/// Per-stage costs of a partition: the `f_x`, `b_x` and `Comm` of the
/// paper's recurrences.
///
/// `Default` yields an empty buffer suitable only as a target for
/// [`Partition::stage_costs_into`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StageCosts {
    /// Forward time per stage for one micro-batch, seconds.
    pub f: Vec<f64>,
    /// Backward time per stage, seconds: the backward alone. Schedules price
    /// a checkpointed stage's re-forward as a `Recompute` op, at `f`.
    pub b: Vec<f64>,
    /// Single boundary communication cost, seconds.
    pub comm: f64,
}

impl StageCosts {
    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.f.len()
    }

    /// `f_x + b_x` for stage `x` — the per-micro-batch load Algorithm 1
    /// balances.
    pub fn work(&self, x: usize) -> f64 {
        self.f[x] + self.b[x]
    }

    /// Construct directly (tests, synthetic pipelines).
    pub fn new(f: Vec<f64>, b: Vec<f64>, comm: f64) -> StageCosts {
        assert_eq!(f.len(), b.len());
        assert!(!f.is_empty());
        StageCosts { f, b, comm }
    }
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
    fn even_partition_covers_everything() {
        let p = Partition::even(51, 4);
        assert_eq!(p.n_stages(), 4);
        assert_eq!(p.n_blocks(), 51);
        assert_eq!(p.sizes().iter().sum::<usize>(), 51);
        // remainder goes to leading stages
        assert_eq!(p.sizes(), vec![13, 13, 13, 12]);
    }

    #[test]
    #[should_panic(expected = "empty stages")]
    fn empty_stage_rejected() {
        Partition::new(vec![0, 3, 3, 5]);
    }

    #[test]
    fn stage_costs_sum_to_model_totals() {
        let d = db();
        let p = Partition::even(d.len(), 4);
        let sc = p.stage_costs(&d);
        let f_sum: f64 = sc.f.iter().sum();
        let b_sum: f64 = sc.b.iter().sum();
        assert!((f_sum - d.total_fwd()).abs() < 1e-12);
        assert!((f_sum + b_sum - d.total_work()).abs() < 1e-12);
    }

    #[test]
    fn layer_counts_sum_to_model_layers() {
        let d = db();
        let p = Partition::even(d.len(), 4);
        let total: f64 = p.layer_counts(&d).iter().sum();
        assert_eq!(total, 24.0);
    }

    #[test]
    fn params_partition_exactly() {
        let d = db();
        let p = Partition::from_sizes(&[10, 10, 10, 21]);
        let total: u64 = p.stage_params(&d).iter().sum();
        assert_eq!(total, d.total_params());
    }
}

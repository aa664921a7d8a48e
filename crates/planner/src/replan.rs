//! Observed-cost folding for straggler re-planning: scale the cost model by
//! *observed* per-stage slowdowns so the planner can be re-run on it.
//!
//! When a stage persistently runs slower than modelled (observed/expected
//! compute ratio over threshold for k iterations), the recorded timeline is
//! the new profile: every block the degraded stage hosts really does cost
//! `ratio ×` its modelled time on that device. [`observed_cost_db`] scales
//! those block costs; [`crate::PlanService::replan`] serves the re-plan on
//! the adjusted database through the plan cache, warm-started from the
//! running partition, with the degraded baseline it is judged against.

use autopipe_cost::CostDb;
use autopipe_sim::Partition;

use crate::types::PlanError;

/// Scale the block costs of `db` by the observed per-stage compute ratios
/// under `partition` (ratio ≥ 1 = that stage runs that much slower than
/// modelled). Blocks inherit the ratio of the stage that hosted them when
/// the observation was made; prefix sums are rebuilt.
pub fn observed_cost_db(
    db: &CostDb,
    partition: &Partition,
    ratios: &[f64],
) -> Result<CostDb, PlanError> {
    if ratios.len() != partition.n_stages() {
        return Err(PlanError::Infeasible(format!(
            "{} ratios for {} stages",
            ratios.len(),
            partition.n_stages()
        )));
    }
    if partition.n_blocks() != db.len() {
        return Err(PlanError::Infeasible(format!(
            "partition covers {} blocks, cost database has {}",
            partition.n_blocks(),
            db.len()
        )));
    }
    if ratios.iter().any(|&r| !(r.is_finite() && r > 0.0)) {
        return Err(PlanError::Infeasible(format!(
            "stage ratios must be finite and positive, got {ratios:?}"
        )));
    }
    let mut out = db.clone();
    for (s, &ratio) in ratios.iter().enumerate() {
        for b in &mut out.blocks[partition.range(s)] {
            b.fwd *= ratio;
            b.bwd *= ratio;
        }
    }
    out.recompute_prefixes();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autopipe::{plan, AutoPipeConfig};
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
    fn unit_ratios_change_nothing() {
        let d = db();
        let cfg = AutoPipeConfig::default();
        let base = plan(&d, 4, 8, &cfg).unwrap();
        let adjusted = observed_cost_db(&d, &base.partition, &[1.0; 4]).unwrap();
        assert_eq!(d, adjusted);
    }

    #[test]
    fn ratios_scale_only_their_stage() {
        let d = db();
        let part = Partition::even(d.len(), 4);
        let adjusted = observed_cost_db(&d, &part, &[1.0, 2.0, 1.0, 1.0]).unwrap();
        for (i, (a, b)) in adjusted.blocks.iter().zip(&d.blocks).enumerate() {
            let in_stage1 = part.range(1).contains(&i);
            let factor = if in_stage1 { 2.0 } else { 1.0 };
            assert_eq!(a.fwd, b.fwd * factor, "block {i} fwd");
            assert_eq!(a.bwd, b.bwd * factor, "block {i} bwd");
        }
        // Prefixes were rebuilt.
        let total: f64 = adjusted.blocks.iter().map(|b| b.fwd).sum();
        assert!((adjusted.range_fwd(0..adjusted.len()) - total).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let d = db();
        let part = Partition::even(d.len(), 4);
        assert!(observed_cost_db(&d, &part, &[1.0; 3]).is_err());
        assert!(observed_cost_db(&d, &part, &[1.0, -2.0, 1.0, 1.0]).is_err());
        assert!(observed_cost_db(&d, &Partition::even(d.len() - 1, 4), &[1.0; 4]).is_err());
    }
}

//! Data×pipeline strategy selection.
//!
//! AutoPipe "omits the search in the data parallelism dimension by using the
//! same data parallelism size for each pipeline stage" (§IV-D): with `G`
//! devices it only considers uniform strategies `pipeline depth S × data
//! parallelism G/S`, plans each feasible depth with the AutoPipe Planner,
//! simulates it, adds the gradient-synchronisation cost, and keeps the best.
//! This is how Tables III–IV's AutoPipe rows pick complete data parallelism
//! at low memory demand and 2- or 4-stage pipelines at high memory demand.

use std::sync::Arc;

use autopipe_cost::{CommModel, CostDb, Hardware};
use autopipe_planner::autopipe::{AutoPipeConfig, AutoPipeOutcome};
use autopipe_planner::types::PlanError;
use autopipe_planner::PlanService;
use autopipe_schedule::{apply_recompute, one_f_one_b};
use autopipe_sim::memcheck::check_memory_budget;

/// One evaluated (depth, width) candidate.
#[derive(Debug, Clone)]
pub struct StrategyChoice {
    /// Pipeline depth.
    pub stages: usize,
    /// Uniform data-parallel width (`G / stages`).
    pub dp: usize,
    /// Micro-batches per pipeline replica per iteration.
    pub microbatches: usize,
    /// Planner outcome for this depth, shared with the service's cache.
    pub outcome: Arc<AutoPipeOutcome>,
    /// Gradient all-reduce time appended per iteration.
    pub grad_sync: f64,
    /// Total schemes simulated across every candidate depth.
    pub schemes_explored_total: usize,
}

impl StrategyChoice {
    /// Estimated full iteration time.
    pub fn est_iteration_time(&self) -> f64 {
        self.outcome.analytic.iteration_time + self.grad_sync
    }
}

/// Choose the best uniform strategy for `g` devices running a global batch
/// of `gbs` samples with micro-batch size `mbs`. `fixed_stages` pins the
/// depth (used by the per-depth experiments of Figs 9–10). Every depth is
/// planned under `cfg` through `service`, so a repeat sweep answers from its
/// plan cache at lookup latency.
#[allow(clippy::too_many_arguments)]
pub fn choose_strategy(
    db: &CostDb,
    hw: &Hardware,
    g: usize,
    gbs: usize,
    mbs: usize,
    fixed_stages: Option<usize>,
    cfg: &AutoPipeConfig,
    service: &PlanService,
) -> Result<StrategyChoice, PlanError> {
    if g < 1 || mbs < 1 || gbs < mbs {
        return Err(PlanError::Infeasible(format!(
            "bad cluster/batch geometry: {g} devices, micro-batch {mbs}, global batch {gbs}"
        )));
    }
    let comm = CommModel::from_hardware(hw);
    let m_total = gbs / mbs;

    let depths: Vec<usize> = match fixed_stages {
        Some(s) => vec![s],
        None => (1..=g).filter(|s| g.is_multiple_of(*s)).collect(),
    };

    let mut best: Option<StrategyChoice> = None;
    let mut last_err = PlanError::Infeasible("no depth evaluated".into());
    let mut total_explored = 0usize;
    for s in depths {
        if s > db.len() {
            continue;
        }
        let dp = g / s;
        if dp == 0 {
            continue;
        }
        let m = m_total / dp;
        if m == 0 {
            last_err = PlanError::Infeasible(format!(
                "depth {s}: no micro-batches left per replica (Gbs {gbs}, mbs {mbs}, dp {dp})"
            ));
            continue;
        }
        let outcome = match service.plan_cfg(db, s, m, cfg) {
            Ok(served) => served.outcome,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        total_explored += outcome.schemes_explored;
        // Real memory feasibility of the planned partition, under the
        // requested budget (not just the hardware's) and with the plan's
        // recompute mask applied — a depth the planner rescued with
        // recomputation must not be rejected on the full-stash footprint.
        let mut sched = one_f_one_b(s, m);
        if outcome.recompute.iter().any(|&r| r) {
            apply_recompute(&mut sched, &outcome.recompute);
        }
        let budget = cfg.memory_budget.unwrap_or_else(|| hw.mem_budget());
        if let Err(e) = check_memory_budget(&outcome.partition, db, &sched, budget) {
            last_err = PlanError::Oom(format!("depth {s}: {e}"));
            continue;
        }
        let max_stage_param_bytes = outcome
            .partition
            .stage_params(db)
            .into_iter()
            .max()
            .unwrap_or(0)
            * hw.elem_bytes;
        let cand = StrategyChoice {
            stages: s,
            dp,
            microbatches: m,
            grad_sync: comm.grad_sync(max_stage_param_bytes, dp),
            outcome,
            schemes_explored_total: 0,
        };
        let better = best
            .as_ref()
            .map(|b| cand.est_iteration_time() < b.est_iteration_time())
            .unwrap_or(true);
        if better {
            best = Some(cand);
        }
    }
    match best {
        Some(mut b) => {
            b.schemes_explored_total = total_explored;
            Ok(b)
        }
        None => Err(last_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::{zoo, Granularity};

    fn choose(
        db: &CostDb,
        hw: &Hardware,
        g: usize,
        gbs: usize,
        mbs: usize,
        fixed_stages: Option<usize>,
    ) -> Result<StrategyChoice, PlanError> {
        let cfg = AutoPipeConfig::default();
        let service = PlanService::with_config(cfg);
        choose_strategy(db, hw, g, gbs, mbs, fixed_stages, &cfg, &service)
    }

    fn db(model: &autopipe_model::ModelConfig, mbs: usize) -> CostDb {
        CostDb::build(
            model,
            &Hardware::rtx3090_cluster(),
            mbs,
            true,
            Granularity::SubLayer,
        )
    }

    #[test]
    fn low_memory_picks_complete_data_parallelism() {
        // Table III: AutoPipe uses complete DP for GPT-2 345M at mbs 4.
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_345m(), 4);
        for g in [4, 16] {
            let c = choose(&d, &hw, g, 128, 4, None).unwrap();
            assert_eq!(c.stages, 1, "g={g}");
            assert_eq!(c.dp, g);
        }
    }

    #[test]
    fn high_memory_pipelines() {
        // Table IV: AutoPipe uses a 2-stage pipeline for GPT-2 345M at
        // mbs 32 and a 4-stage pipeline for GPT-2 1.3B at mbs 16.
        let hw = Hardware::rtx3090_cluster();
        let c345 = choose(&db(&zoo::gpt2_345m(), 32), &hw, 4, 512, 32, None).unwrap();
        assert_eq!(c345.stages, 2, "345M dp {}", c345.dp);
        let c13 = choose(&db(&zoo::gpt2_1_3b(), 16), &hw, 4, 512, 16, None).unwrap();
        assert_eq!(c13.stages, 4, "1.3B dp {}", c13.dp);
    }

    #[test]
    fn fixed_depth_is_respected() {
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_345m(), 4);
        let c = choose(&d, &hw, 4, 128, 4, Some(4)).unwrap();
        assert_eq!(c.stages, 4);
        assert_eq!(c.dp, 1);
        assert_eq!(c.microbatches, 32);
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        // 1.3B at mbs 32 on a single device: every depth-1 plan OOMs.
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_1_3b(), 32);
        let r = choose(&d, &hw, 1, 64, 32, None);
        assert!(r.is_err());
    }

    #[test]
    fn strategy_adapts_to_bigger_devices() {
        // GPT-2 345M at mbs 32 must pipeline on 24 GB cards (Table IV) but
        // fits pure data parallelism on 80 GB cards — the planner should
        // notice and drop the pipeline.
        let small = Hardware::rtx3090_cluster();
        let big = Hardware::a100_cluster();
        let mk =
            |hw: &Hardware| CostDb::build(&zoo::gpt2_345m(), hw, 32, true, Granularity::SubLayer);
        let c_small = choose(&mk(&small), &small, 4, 512, 32, None).unwrap();
        assert!(c_small.stages >= 2);
        let c_big = choose(&mk(&big), &big, 4, 512, 32, None).unwrap();
        assert_eq!(c_big.stages, 1, "80 GB cards should allow complete DP");
    }

    #[test]
    fn grad_sync_only_with_replication() {
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_345m(), 4);
        let c = choose(&d, &hw, 4, 128, 4, Some(4)).unwrap();
        assert_eq!(c.grad_sync, 0.0);
        let c2 = choose(&d, &hw, 4, 128, 4, Some(2)).unwrap();
        assert!(c2.grad_sync > 0.0);
    }
}

//! DAPPLE-Planner-style baseline.
//!
//! Reproduces the planner behaviour the AutoPipe paper measures against
//! (§IV-D, Tables III–IV, Fig. 13):
//!
//! * always pipelines (S ≥ 2) and "tends to partition the model into a
//!   two-stage pipeline";
//! * allows a different data-parallel width per stage and "prefers to use
//!   larger data parallelism sizes in the second pipeline stage" — encoded
//!   as: among configurations within 5% of the best per-device throughput
//!   bottleneck, pick the largest rear width (this is what produces the
//!   7/17-layer rear-heavy split on 4 GPUs and the dp-15-style plan whose
//!   rear width exceeds the micro-batch size on 16 GPUs, the Table III
//!   runtime error);
//! * plans with an **optimistic memory model** (fp16 weights + stashed
//!   checkpoints only — no optimiser states, no recompute working set), so
//!   it happily emits the 2-stage GPT-2 1.3B plan that OOMs on real
//!   hardware (Table IV);
//! * searches exhaustively over (stage count, whole-layer split, device
//!   composition), the largest search space of the three planners — the
//!   Fig. 12 search-time ordering.

use std::time::Instant;

use autopipe_cost::{memory::in_flight_1f1b, CostDb, Hardware};
use autopipe_sim::Partition;

use crate::baselines::{for_each_composition, layer_boundary_positions, weighted_minmax_partition};
use crate::types::{HybridPlan, PlanError};

/// Relative tolerance within which DAPPLE's rear-heavy preference overrides
/// the throughput objective.
const REAR_PREFERENCE_TOL: f64 = 1.05;

/// Bytes per parameter DAPPLE budgets for (fp16 weights only — the
/// optimistic part).
const DAPPLE_PARAM_BYTES: u64 = 2;

/// Plan for `g` devices. `m_total` is the number of micro-batches flowing
/// through the (single) pipeline per iteration (`Gbs / mbs`).
pub fn plan(db: &CostDb, g: usize, m_total: usize, hw: &Hardware) -> Result<HybridPlan, PlanError> {
    let t0 = Instant::now();
    if g < 2 {
        return Err(PlanError::Infeasible(
            "DAPPLE always pipelines; needs >= 2 devices".into(),
        ));
    }
    let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();
    let allowed = layer_boundary_positions(db);
    let n_layers = allowed.len() - 1;

    struct Cand {
        cost: f64,
        dp: Vec<usize>,
        partition: Partition,
    }
    let mut cands: Vec<Cand> = Vec::new();
    let mut explored = 0usize;

    for s in 2..=g.min(n_layers) {
        // Each composition's split DP covers every contiguous layer split:
        // C(L−1, S−1) candidate schemes per composition.
        let splits_covered = binom_saturating(n_layers - 1, s - 1);
        for_each_composition(g, s, &mut |comp: &[usize]| {
            explored = explored.saturating_add(splits_covered);
            let mult: Vec<f64> = comp.iter().map(|&gj| 1.0 / gj as f64).collect();
            if let Some((part, cost)) = weighted_minmax_partition(&weights, &mult, &allowed) {
                if dapple_memory_ok(&part, db, hw) {
                    cands.push(Cand {
                        cost,
                        dp: comp.to_vec(),
                        partition: part,
                    });
                }
            }
        });
    }
    if cands.is_empty() {
        return Err(PlanError::Infeasible(
            "no DAPPLE configuration fits its memory model".into(),
        ));
    }

    let best_cost = cands.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
    // Rear-heavy preference among near-optimal candidates.
    let winner = cands
        .iter()
        .filter(|c| c.cost <= best_cost * REAR_PREFERENCE_TOL)
        .max_by(|a, b| {
            let rear = a.dp.last().cmp(&b.dp.last());
            rear.then(b.dp.len().cmp(&a.dp.len())) // fewer stages preferred
                .then(b.cost.total_cmp(&a.cost)) // then lower cost
        })
        .unwrap();

    let sc = winner.partition.stage_costs(db);
    let fill: f64 = sc.f.iter().sum::<f64>() + sc.b.iter().sum::<f64>();
    Ok(HybridPlan {
        planner: "dapple",
        stages: winner.dp.len(),
        dp: winner.dp.clone(),
        partition: winner.partition.clone(),
        est_iteration_time: m_total as f64 * winner.cost + fill,
        schemes_explored: explored,
        search_time: t0.elapsed(),
    })
}

/// `C(n, k)` with saturation (search-space accounting only).
fn binom_saturating(n: usize, k: usize) -> usize {
    let k = k.min(n - k.min(n));
    let mut acc: f64 = 1.0;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
        if acc > usize::MAX as f64 / 2.0 {
            return usize::MAX / 2;
        }
    }
    acc.round() as usize
}

/// DAPPLE's optimistic per-stage memory estimate.
fn dapple_memory_ok(part: &Partition, db: &CostDb, hw: &Hardware) -> bool {
    let s = part.n_stages();
    for j in 0..s {
        let blocks = &db.blocks[part.range(j)];
        let params: u64 = blocks.iter().map(|b| b.params).sum();
        let ckpt: u64 = blocks.iter().map(|b| b.ckpt_act_bytes).sum();
        let in_flight = in_flight_1f1b(j, s, usize::MAX) as u64;
        let est = params * DAPPLE_PARAM_BYTES + in_flight * ckpt;
        if est > hw.mem_budget() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::{zoo, Granularity};

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
    fn picks_rear_heavy_two_stage_on_4_gpus() {
        // Table IV / Fig. 13: "DAPPLE Planner assigns 17 layers to stage 2
        // for a 24-layer GPT-2 345M" with a (1, 3) device split.
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_345m(), 32);
        let p = plan(&d, 4, 16, &hw).unwrap();
        assert_eq!(p.stages, 2, "dp {:?}", p.dp);
        assert!(p.dp[1] > p.dp[0], "dp {:?}", p.dp);
        let layers = p.partition.layer_counts(&d);
        assert!(
            layers[1] > layers[0] + 4.0,
            "expected rear-heavy layer split, got {layers:?}"
        );
    }

    #[test]
    fn sixteen_gpu_plan_fails_runtime_check_at_mbs_4() {
        // Table III's "-": rear dp exceeds the micro-batch size.
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_345m(), 4);
        let p = plan(&d, 16, 32, &hw).unwrap();
        assert_eq!(p.stages, 2);
        assert!(
            p.dp[1] > 4,
            "expected rear dp > mbs to trigger the runtime error, got {:?}",
            p.dp
        );
        assert!(p.runtime_check(4).is_err());
    }

    #[test]
    fn emits_oom_plan_for_gpt2_1_3b() {
        // DAPPLE's optimistic memory model accepts a 2-stage 1.3B plan that
        // the real memory model rejects (Table IV "OOM").
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_1_3b(), 16);
        let p = plan(&d, 4, 32, &hw).unwrap();
        assert_eq!(p.stages, 2);
        // Real check: the rear stage exceeds the budget.
        let sched = autopipe_schedule::one_f_one_b(p.stages, 8);
        assert!(
            autopipe_sim::memcheck::check_memory(&p.partition, &d, &sched, &hw).is_err(),
            "the 2-stage 1.3B plan should OOM under the real memory model"
        );
    }

    #[test]
    fn never_returns_single_stage() {
        let hw = Hardware::rtx3090_cluster();
        let d = db(&zoo::gpt2_345m(), 4);
        for g in [2, 4, 8] {
            let p = plan(&d, g, 32, &hw).unwrap();
            assert!(p.stages >= 2, "g={g}: stages {}", p.stages);
            assert_eq!(p.dp.iter().sum::<usize>(), g);
        }
    }
}

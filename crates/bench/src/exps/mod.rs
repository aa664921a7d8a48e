//! One module per paper table/figure.

pub mod ablations;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig9_10;
pub mod planner_tables;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod trace;

use autopipe_cost::{CommModel, CostDb, Hardware};
use autopipe_planner::autopipe::AutoPipeConfig;
use autopipe_planner::baselines::{dapple, piper, replicated};
use autopipe_planner::types::{HybridPlan, PlanError};
use autopipe_planner::PlanService;

/// Run a named planner ("D", "P" or "A") and return its hybrid plan.
/// AutoPipe's uniform strategy is wrapped into the same [`HybridPlan`]
/// shape as the baselines so they can all be evaluated identically.
pub(crate) fn run_planner(
    alg: &str,
    db: &CostDb,
    hw: &Hardware,
    g: usize,
    gbs: usize,
    mbs: usize,
) -> Result<HybridPlan, PlanError> {
    let m_total = gbs / mbs;
    match alg {
        "D" => dapple::plan(db, g, m_total, hw),
        "P" => piper::plan(db, g, m_total, hw),
        "A" => {
            let cfg = AutoPipeConfig::default();
            let service = PlanService::with_config(cfg);
            let c = autopipe_core::choose_strategy(db, hw, g, gbs, mbs, None, &cfg, &service)?;
            Ok(HybridPlan {
                planner: "autopipe",
                stages: c.stages,
                dp: vec![c.dp; c.stages],
                partition: c.outcome.partition.clone(),
                est_iteration_time: c.est_iteration_time(),
                schemes_explored: c.schemes_explored_total,
                search_time: c.outcome.search_time,
            })
        }
        _ => unreachable!("unknown planner {alg}"),
    }
}

/// Evaluate a hybrid plan end to end: check the real memory model, check
/// the runtime constraint (dp ≤ mbs), then replay the replicated pipeline
/// and add gradient synchronisation. Errors carry the paper's cell markers.
pub(crate) fn evaluate_plan(
    plan: &HybridPlan,
    db: &CostDb,
    hw: &Hardware,
    gbs: usize,
    mbs: usize,
) -> Result<f64, String> {
    // DAPPLE's per-stage replicas each take a slice of every micro-batch,
    // so a stage width above the micro-batch size is a runtime error
    // (Table III's "-"). Megatron-style uniform data parallelism (Piper's
    // and AutoPipe's complete-DP plans) divides the *global* batch instead
    // and has no such constraint.
    if plan.planner == "dapple" {
        plan.runtime_check(mbs).map_err(|_| "-".to_string())?;
    }
    // Real per-stage memory check (1F1B in-flight discipline).
    let sched = autopipe_schedule::one_f_one_b(plan.stages, (gbs / mbs).max(plan.stages));
    autopipe_sim::memcheck::check_memory(&plan.partition, db, &sched, hw)
        .map_err(|_| "OOM".to_string())?;
    let comm = CommModel::from_hardware(hw);
    let m_total = gbs / mbs;
    let r = replicated::evaluate_plan(plan, db, m_total, hw.elem_bytes, &comm);
    Ok(r.total())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::cost_db;
    use autopipe_model::zoo;

    #[test]
    fn all_three_planners_run_and_evaluate() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 32);
        for alg in ["D", "P", "A"] {
            let plan = run_planner(alg, &db, &hw, 4, 512, 32).unwrap();
            let t = evaluate_plan(&plan, &db, &hw, 512, 32).unwrap();
            assert!(t > 0.0, "{alg}: {t}");
        }
    }

    #[test]
    fn table_iv_headline_ordering_holds() {
        // GPT-2 345M, mbs 32, 4 GPUs, Gbs 512: A < D and A < P.
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 32);
        let t = |alg: &str| {
            let plan = run_planner(alg, &db, &hw, 4, 512, 32).unwrap();
            evaluate_plan(&plan, &db, &hw, 512, 32).unwrap()
        };
        let (d, p, a) = (t("D"), t("P"), t("A"));
        assert!(a < d, "A {a} vs D {d}");
        assert!(a < p, "A {a} vs P {p}");
    }

    #[test]
    fn dapple_oom_marker_on_1_3b() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_1_3b(), &hw, 16);
        let plan = run_planner("D", &db, &hw, 4, 512, 16).unwrap();
        assert_eq!(evaluate_plan(&plan, &db, &hw, 512, 16).unwrap_err(), "OOM");
    }

    #[test]
    fn dapple_runtime_error_marker_on_16_gpus_low_memory() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 4);
        let plan = run_planner("D", &db, &hw, 16, 128, 4).unwrap();
        assert_eq!(evaluate_plan(&plan, &db, &hw, 128, 4).unwrap_err(), "-");
    }
}

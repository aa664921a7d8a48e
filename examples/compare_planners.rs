//! Run all three planners (DAPPLE, Piper, AutoPipe) on the same job and
//! compare their plans: depth, widths, layer split, balance, and the
//! iteration time each plan actually achieves on the cluster simulator.
//!
//! ```text
//! cargo run --release --example compare_planners
//! ```

use autopipe_core::choose_strategy;
use autopipe_cost::{CommModel, CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::AutoPipeConfig;
use autopipe_planner::baselines::{dapple, piper, replicated};
use autopipe_planner::types::HybridPlan;
use autopipe_planner::PlanService;
use autopipe_sim::metrics::balance_stddev;

fn main() {
    let hw = Hardware::rtx3090_cluster();
    let model = zoo::gpt2_345m();
    let (g, mbs, gbs) = (4usize, 32usize, 512usize);
    let m_total = gbs / mbs;
    let db = CostDb::build(&model, &hw, mbs, true, Granularity::SubLayer);
    let comm = CommModel::from_hardware(&hw);

    println!(
        "job: {} on {g} GPUs, micro-batch {mbs}, global batch {gbs} (high memory demand)\n",
        model.name
    );

    let autopipe = {
        let cfg = AutoPipeConfig::default();
        let service = PlanService::with_config(cfg);
        let c = choose_strategy(&db, &hw, g, gbs, mbs, None, &cfg, &service).expect("autopipe");
        HybridPlan {
            planner: "autopipe",
            stages: c.stages,
            dp: vec![c.dp; c.stages],
            partition: c.outcome.partition.clone(),
            est_iteration_time: c.est_iteration_time(),
            schemes_explored: c.schemes_explored_total,
            search_time: c.outcome.search_time,
        }
    };
    let plans: Vec<(&str, HybridPlan)> = vec![
        (
            "DAPPLE",
            dapple::plan(&db, g, m_total, &hw).expect("dapple"),
        ),
        ("Piper", piper::plan(&db, g, m_total, &hw).expect("piper")),
        ("AutoPipe", autopipe),
    ];

    for (name, plan) in &plans {
        let sc = plan.partition.stage_costs(&db);
        let balance = balance_stddev(&sc, m_total);
        let achieved = replicated::evaluate_plan(plan, &db, m_total, hw.elem_bytes, &comm);
        println!("{name:>9}: {} stage(s), widths {:?}", plan.stages, plan.dp);
        println!(
            "           layers/stage {:?}",
            plan.partition.layer_counts(&db)
        );
        println!(
            "           balance sigma {:.1} ms, measured iteration {:.1} ms, search {:.2} ms \
             ({} schemes)",
            balance * 1e3,
            achieved.total() * 1e3,
            plan.search_time.as_secs_f64() * 1e3,
            plan.schemes_explored
        );
    }
}

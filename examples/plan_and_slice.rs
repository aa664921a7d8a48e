//! Deep dive into the two AutoPipe components on GPT-2 345M, 4 stages:
//! what the Planner's balanced sub-layer partition buys over Megatron-LM's
//! uniform split, and what the Slicer's Warmup rescheduling does to the
//! startup overhead.
//!
//! ```text
//! cargo run --release --example plan_and_slice
//! ```

use autopipe_core::Plan;
use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_sim::event::EventConfig;

fn main() {
    let hw = Hardware::rtx3090_cluster();
    let model = zoo::gpt2_345m();
    let mbs = 8;
    let (p, m) = (4, 8);
    let db = CostDb::build(&model, &hw, mbs, true, Granularity::SubLayer);
    // Both partitions run 1F1B; checkpointed stages replay each forward
    // before its backward.
    let plan_1f1b = |part| Plan::new(part, 1, m, 0, None, &db).expect("1F1B generates");

    // --- Planner ---------------------------------------------------------
    let mega = megatron::uniform_partition(&db, p).unwrap();
    let auto = plan(&db, p, m, &AutoPipeConfig::default()).expect("planning failed");

    println!("== Planner: Megatron uniform vs AutoPipe sub-layer ==");
    for (name, part) in [("Megatron-LM", &mega), ("AutoPipe", &auto.partition)] {
        let sc = part.stage_costs(&db);
        let plan = plan_1f1b(part.clone());
        let sim = plan
            .simulate(&db, hw.link_latency, &EventConfig::default())
            .expect("a plan simulates");
        let per_stage: Vec<String> = (0..p)
            .map(|x| format!("{:.1}ms", sc.work(x) * 1e3))
            .collect();
        println!(
            "{name:>12}: layers {:?}, stage work [{}], iter {:.1} ms",
            plan.layer_counts,
            per_stage.join(", "),
            sim.iteration_time * 1e3
        );
    }
    println!(
        "planner explored {} schemes in {:.2} ms",
        auto.schemes_explored,
        auto.search_time.as_secs_f64() * 1e3
    );

    // --- Slicer ----------------------------------------------------------
    println!("\n== Slicer: Algorithm 2 on the planned partition ==");
    let plain = plan_1f1b(auto.partition);
    let mut sliced = plain.clone();
    sliced.slice(&db);
    println!(
        "Algorithm 2 says: slice the first {} micro-batch(es)",
        sliced.schedule.n_sliced
    );

    // Verify on the event simulator with realistic per-op overheads.
    let cfg = EventConfig::actual_run(hw.kernel_overhead, 7);
    let run = |plan: &Plan| {
        plan.simulate(&db, hw.link_latency, &cfg)
            .expect("a plan simulates")
    };
    let (plain, sliced) = (run(&plain), run(&sliced));
    println!(
        "measured startup : {:.1} ms -> {:.1} ms ({:.0}% reduction)",
        plain.startup_overhead * 1e3,
        sliced.startup_overhead * 1e3,
        100.0 * (1.0 - sliced.startup_overhead / plain.startup_overhead)
    );
    println!(
        "measured iter    : {:.1} ms -> {:.1} ms",
        plain.iteration_time * 1e3,
        sliced.iteration_time * 1e3
    );
}

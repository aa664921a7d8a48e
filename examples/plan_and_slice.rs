//! Deep dive into the two AutoPipe components on GPT-2 345M, 4 stages:
//! what the Planner's balanced sub-layer partition buys over Megatron-LM's
//! uniform split, and what the Slicer's Warmup rescheduling does to the
//! startup overhead.
//!
//! ```text
//! cargo run --release --example plan_and_slice
//! ```

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_schedule::{apply_checkpointing, one_f_one_b, sliced_1f1b, Schedule};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe_sim::{simulate_replay_masked, SimScratch};
use autopipe_slicer::{plan_slicing, solve_sliced_count};

fn main() {
    let hw = Hardware::rtx3090_cluster();
    let model = zoo::gpt2_345m();
    let mbs = 8;
    let (p, m) = (4, 8);
    let db = CostDb::build(&model, &hw, mbs, true, Granularity::SubLayer);

    // --- Planner ---------------------------------------------------------
    let mega = megatron::uniform_partition(&db, p).unwrap();
    let auto = plan(&db, p, m, &AutoPipeConfig::default()).expect("planning failed");

    println!("== Planner: Megatron uniform vs AutoPipe sub-layer ==");
    // Checkpointed stages replay each forward before its backward.
    let replays = vec![db.checkpointing; p];
    for (name, part) in [("Megatron-LM", &mega), ("AutoPipe", &auto.partition)] {
        let sc = part.stage_costs(&db);
        let sim = simulate_replay_masked(&sc, m, &mut SimScratch::new(), None, Some(&replays));
        let per_stage: Vec<String> = (0..p)
            .map(|x| format!("{:.1}ms", sc.work(x) * 1e3))
            .collect();
        println!(
            "{name:>12}: layers {:?}, stage work [{}], master stage {}, iter {:.1} ms",
            part.layer_counts(&db),
            per_stage.join(", "),
            sim.master_stage,
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
    let sc = auto.partition.stage_costs(&db);
    let k = solve_sliced_count(&sc);
    let n_sliced = plan_slicing(&sc, m).n_sliced;
    println!("Algorithm 2 says: slice the first {k} micro-batch(es)");

    // Verify on the event simulator with realistic per-op overheads.
    let ev = EventCosts::from_stage_costs(&sc, hw.link_latency);
    let cfg = EventConfig::actual_run(hw.kernel_overhead, 7);
    let lowered = |mut sched: Schedule| {
        if db.checkpointing {
            apply_checkpointing(&mut sched);
        }
        sched
    };
    let plain = run_schedule(&lowered(one_f_one_b(p, m)), &ev, &cfg).unwrap();
    let sliced = run_schedule(&lowered(sliced_1f1b(p, m, n_sliced)), &ev, &cfg).unwrap();
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

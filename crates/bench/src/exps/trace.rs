//! Timeline artifacts: dump Chrome-trace JSON for Megatron-LM 1F1B vs the
//! full AutoPipe schedule (load `results/trace_*.json` in Perfetto or
//! `chrome://tracing` to *see* the bubbles the planner removes and the
//! warmup halves the slicer introduces).

use autopipe_core::Plan;
use autopipe_cost::Hardware;
use autopipe_model::zoo;
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_sim::event::EventConfig;

use crate::report::{save_json, Table};
use crate::systems::cost_db;

/// Dump traces and print the bubble decomposition.
pub fn run() {
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
    let (p, m) = (4, 8);

    let plan_1f1b = |part| Plan::new(part, 1, m, 0, None, &db).expect("1F1B generates");
    let megatron = plan_1f1b(megatron::uniform_partition(&db, p).unwrap());
    let planned = plan(&db, p, m, &AutoPipeConfig::default()).unwrap();
    let mut autopipe = plan_1f1b(planned.partition);
    autopipe.slice(&db);

    let mut t = Table::new(&["system", "iteration (ms)", "bubble frac", "trace file"]);
    let cfg = EventConfig::actual_run(hw.kernel_overhead, 1);
    for (name, plan) in [("megatron", megatron), ("autopipe", autopipe)] {
        let r = plan
            .simulate(&db, hw.link_latency, &cfg)
            .expect("a plan simulates");
        let file = format!("trace_{name}");
        save_json(&file, &r.timeline.chrome_trace());
        t.row(vec![
            name.into(),
            format!("{:.1}", r.iteration_time * 1e3),
            format!("{:.3}", r.timeline.bubble_ratio()),
            format!("results/{file}.json"),
        ]);
        // Per-device decomposition to stdout.
        for d in r.timeline.breakdown() {
            println!(
                "  {name} device {}: fwd {:.0}ms bwd {:.0}ms wait {:.0}ms idle {:.0}ms",
                d.device,
                d.fwd * 1e3,
                d.bwd * 1e3,
                d.wait * 1e3,
                d.idle * 1e3
            );
        }
    }
    t.print("Timeline traces (GPT-2 345M, 4 stages, 8 micro-batches)");
}

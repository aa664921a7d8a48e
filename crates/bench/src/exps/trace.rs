//! Timeline artifacts: dump Chrome-trace JSON for Megatron-LM 1F1B vs the
//! full AutoPipe schedule (load `results/trace_*.json` in Perfetto or
//! `chrome://tracing` to *see* the bubbles the planner removes and the
//! warmup halves the slicer introduces).

use autopipe_cost::Hardware;
use autopipe_model::zoo;
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_schedule::{apply_checkpointing, one_f_one_b, sliced_1f1b};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe_slicer::plan_slicing;

use crate::report::{save_json, Table};
use crate::systems::cost_db;

/// Dump traces and print the bubble decomposition.
pub fn run() {
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
    let (p, m) = (4, 8);

    let mega_part = megatron::uniform_partition(&db, p).unwrap();
    let auto_part = plan(&db, p, m, &AutoPipeConfig::default())
        .unwrap()
        .partition;
    let auto_sched = sliced_1f1b(p, m, plan_slicing(&auto_part.stage_costs(&db), m).n_sliced);

    let mut t = Table::new(&["system", "iteration (ms)", "bubble frac", "trace file"]);
    for (name, part, mut sched) in [
        ("megatron", &mega_part, one_f_one_b(p, m)),
        ("autopipe", &auto_part, auto_sched),
    ] {
        if db.checkpointing {
            apply_checkpointing(&mut sched);
        }
        let sc = part.stage_costs(&db);
        let ev = EventCosts::from_stage_costs(&sc, hw.link_latency);
        let r = run_schedule(&sched, &ev, &EventConfig::actual_run(hw.kernel_overhead, 1)).unwrap();
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

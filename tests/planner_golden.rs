//! The planner's explored set, winner and floats, pinned against a table
//! captured before the search was made faster.
//!
//! `tests/data/planner_golden.txt` holds one line per request over the 80
//! `(Table-I model, p, m)` points of the benchmark's `plan_sweep` grid, cold
//! `autopipe_plan` with pruning on: schemes explored, schemes pruned, the
//! iteration time's bit pattern and the winning boundaries. A search
//! optimisation must reproduce every field exactly; a change that is *meant*
//! to alter plans regenerates the table with
//! `cargo test --release --test planner_golden -- --ignored --nocapture`.

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::{autopipe_plan, AutoPipeConfig};

const DEPTHS: [usize; 5] = [2, 4, 8, 12, 16];
const MICROBATCHES: [usize; 4] = [8, 16, 32, 64];
const MBS: usize = 4;

/// The table the current planner produces, in the golden file's format.
fn table() -> String {
    let hw = Hardware::rtx3090_cluster();
    let cfg = AutoPipeConfig {
        prune: true,
        ..AutoPipeConfig::default()
    };
    let mut out = String::new();
    for (idx, model) in zoo::benchmark_models().iter().enumerate() {
        let db = CostDb::build(model, &hw, MBS, true, Granularity::SubLayer);
        for p in DEPTHS {
            for m in MICROBATCHES {
                let o = autopipe_plan(&db, p, m, &cfg).unwrap();
                let bounds: Vec<String> = o
                    .partition
                    .boundaries()
                    .iter()
                    .map(|b| b.to_string())
                    .collect();
                out.push_str(&format!(
                    "model={idx} p={p} m={m} explored={} pruned={} time_bits={:016x} boundaries={}\n",
                    o.schemes_explored,
                    o.schemes_pruned,
                    o.analytic.iteration_time.to_bits(),
                    bounds.join(",")
                ));
            }
        }
    }
    out
}

#[test]
fn cold_plans_match_the_golden_table() {
    let want = include_str!("data/planner_golden.txt");
    let got = table();
    assert_eq!(got.lines().count(), 80);
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "plan differs from the committed table");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
#[ignore = "prints the table for tests/data/planner_golden.txt"]
fn print_golden_table() {
    print!("{}", table());
}

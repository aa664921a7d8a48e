//! Table II: the seven 4-stage partition schemes of GPT-2 345M.

use autopipe_core::table2::{table2_partitions, TABLE2_LAYERS};
use autopipe_core::Plan;
use autopipe_cost::Hardware;
use autopipe_model::zoo;
use autopipe_sim::event::EventConfig;
use autopipe_sim::{simulate_replay_masked, SimScratch};
use serde_json::json;

use crate::report::{save_json, Table};
use crate::systems::cost_db;

/// Print Table II (with each scheme's simulated iteration time as a bonus
/// column — the quantity Fig. 11 compares).
pub fn run() {
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&zoo::gpt2_345m(), &hw, 4);
    let m = 8;
    // Priced like the planner: every stage replays its forwards.
    let replays = [db.checkpointing; 4];
    let mut t = Table::new(&[
        "Partition ID",
        "stage 0",
        "stage 1",
        "stage 2",
        "stage 3",
        "sim iter (ms)",
    ]);
    let mut records = Vec::new();
    for (i, part) in table2_partitions(&db).into_iter().enumerate() {
        // The event summary has no master stage; the analytic replay does.
        let sc = part.stage_costs(&db);
        let master = simulate_replay_masked(&sc, m, &mut SimScratch::new(), None, Some(&replays));
        let plan = Plan::new(part, 1, m, 0, None, &db).expect("1F1B generates");
        let sim = plan
            .simulate(&db, hw.link_latency, &EventConfig::default())
            .expect("a plan simulates");
        let row = TABLE2_LAYERS[i];
        t.row(vec![
            (i + 1).to_string(),
            row[0].to_string(),
            row[1].to_string(),
            row[2].to_string(),
            row[3].to_string(),
            format!("{:.1}", sim.iteration_time * 1e3),
        ]);
        records.push(json!({
            "scheme": i + 1,
            "layers": row.to_vec(),
            "sim_iteration_s": sim.iteration_time,
            "master_stage": master.master_stage,
        }));
    }
    t.print("Table II: pipeline planning of the GPT-2 345M model");
    save_json("table2", &json!(records));
}

//! Scaling study (extension beyond the paper): how planner cost and plan
//! quality behave as models get deeper and wider than the paper's
//! benchmarks — the regime the paper motivates with ("Megatron-LM uses 3072
//! accelerators ... but its pipeline depth is only 64").

use autopipe_cost::Hardware;
use autopipe_model::zoo;
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use serde_json::json;

use crate::report::{save_json, Table};
use crate::systems::cost_db;

/// Max/mean of the stages' busy time: the load each stage runs, its
/// checkpointing replays included.
fn busy_imbalance(busy: &[f64]) -> f64 {
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    busy.iter().copied().fold(0.0, f64::max) / mean
}

/// Depth-axis rows: (layers, stages, search ms, schemes, max/mean stage
/// imbalance).
pub(crate) fn depth_scaling() -> Vec<(usize, usize, f64, usize, f64)> {
    let hw = Hardware::rtx3090_cluster();
    let mut out = Vec::new();
    for layers in [12usize, 24, 48, 96] {
        let model = zoo::gpt2_depth(layers);
        let db = cost_db(&model, &hw, 4);
        for p in [4usize, 8, 16] {
            if p * 2 > layers {
                continue;
            }
            let m = 2 * p;
            let outcome = plan(&db, p, m, &AutoPipeConfig::default()).unwrap();
            let secs = outcome.search_time.as_secs_f64();
            let imb = busy_imbalance(&outcome.analytic.stage_busy);
            out.push((layers, p, secs, outcome.schemes_explored, imb));
        }
    }
    out
}

/// Width-axis rows: (model, stages, search ms, imbalance) on the GPT-3
/// class configs.
pub(crate) fn width_scaling() -> Vec<(String, usize, f64, f64)> {
    let hw = Hardware::rtx3090_cluster();
    let mut out = Vec::new();
    for model in [
        zoo::gpt2_345m(),
        zoo::gpt2_1_3b(),
        zoo::gpt3_2_7b(),
        zoo::gpt3_6_7b(),
    ] {
        let db = cost_db(&model, &hw, 4);
        let p = 8;
        let outcome = plan(&db, p, 2 * p, &AutoPipeConfig::default()).unwrap();
        let secs = outcome.search_time.as_secs_f64();
        let imb = busy_imbalance(&outcome.analytic.stage_busy);
        out.push((model.name.clone(), p, secs, imb));
    }
    out
}

/// Print the scaling study.
pub fn run() {
    let mut records = Vec::new();
    let mut t = Table::new(&[
        "layers",
        "stages",
        "search (ms)",
        "schemes",
        "max/mean load",
    ]);
    for (layers, p, secs, schemes, imb) in depth_scaling() {
        t.row(vec![
            layers.to_string(),
            p.to_string(),
            format!("{:.2}", secs * 1e3),
            schemes.to_string(),
            format!("{imb:.3}"),
        ]);
        records.push(json!({"axis": "depth", "layers": layers, "stages": p,
                            "search_wall_s": secs, "schemes": schemes, "imbalance": imb}));
    }
    t.print("Scaling: planner cost and balance vs model depth (345M-width GPTs)");

    let mut t = Table::new(&["model", "stages", "search (ms)", "max/mean load"]);
    for (model, p, secs, imb) in width_scaling() {
        t.row(vec![
            model.clone(),
            p.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{imb:.3}"),
        ]);
        records.push(json!({"axis": "width", "model": model, "stages": p,
                            "search_wall_s": secs, "imbalance": imb}));
    }
    t.print("Scaling: planner cost and balance vs model width (GPT-2 345M .. GPT-3 6.7B)");
    save_json("scaling", &json!(records));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_quality_holds_at_scale() {
        // The planner's max/mean stage load stays under 1.25 at every depth
        // and width — the balancing property does not degrade with scale.
        for (layers, p, _, _, imb) in depth_scaling() {
            assert!(imb < 1.25, "layers={layers} p={p}: imbalance {imb}");
        }
        for (model, p, _, imb) in width_scaling() {
            assert!(imb < 1.25, "{model} p={p}: imbalance {imb}");
        }
    }

    #[test]
    fn search_cost_stays_practical_at_96_layers() {
        // Heuristic search on a 96-layer model completes in milliseconds in
        // release builds; allow generous slack for unoptimised test builds.
        let rows = depth_scaling();
        let worst = rows
            .iter()
            .map(|(_, _, s, _, _)| *s)
            .fold(0.0_f64, f64::max);
        assert!(worst < 15.0, "worst search time {worst}s");
        // And the scheme budget bounds the search structurally.
        for (layers, p, _, schemes, _) in rows {
            assert!(schemes <= 512, "layers={layers} p={p}: {schemes} schemes");
        }
    }
}

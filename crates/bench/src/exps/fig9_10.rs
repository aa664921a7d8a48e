//! Fig. 9 (iteration time vs micro-batch size, 4 stages × 8 micro-batches)
//! and Fig. 10 (iteration time vs pipeline depth, m = 2·depth).

use autopipe_cost::Hardware;
use autopipe_model::{zoo, ModelConfig};
use serde_json::json;

use crate::report::{ms, save_json, Table};
use crate::systems::{cost_db, measure, System};

const SYSTEMS: [System; 4] = [
    System::Megatron,
    System::SlicerOnly,
    System::PlannerOnly,
    System::AutoPipe,
];

/// Fig. 9: fix depth 4 and 8 micro-batches, sweep the micro-batch size.
/// GPT-2 762M OOMs at mbs 32 (kept in the sweep to reproduce the marker).
pub fn run_fig9() {
    let points: Vec<[usize; 4]> = [4, 8, 16, 24, 32].map(|mbs| [mbs, mbs, 4, 8]).to_vec();
    let models = [zoo::gpt2_345m(), zoo::gpt2_762m(), zoo::bert_large()];
    sweep(
        "fig9",
        "mbs",
        models.map(|m| (m, points.clone())),
        |model, _| {
            format!(
                "Fig. 9: {} — iteration time (ms) vs micro-batch size (4 stages, 8 micro-batches)",
                model.name
            )
        },
    );
}

/// Fig. 10: fix the micro-batch size, sweep the depth with m = 2·depth.
/// Megatron needs the depth to divide the layer count: GPT-2 762M (36
/// layers) runs 9 stages instead of 8.
pub fn run_fig10() {
    let cases = [
        (zoo::gpt2_345m(), 4, [2, 4, 8, 12]),
        (zoo::gpt2_762m(), 4, [2, 4, 9, 12]),
        (zoo::bert_large(), 16, [2, 4, 8, 12]),
    ];
    let cases =
        cases.map(|(model, mbs, depths)| (model, depths.map(|p| [p, mbs, p, 2 * p]).to_vec()));
    sweep("fig10", "stages", cases, |model, mbs| {
        format!(
            "Fig. 10: {} — iteration time (ms) vs pipeline depth (mbs {mbs}, m = 2·depth)",
            model.name
        )
    });
}

/// Measure the four systems at each `[x, mbs, p, m]` point of every
/// model's sweep (`x` is the swept value, named `axis`), print one table per
/// model, titled by `title(model, first point's mbs)`, and save the records
/// as `results/<fig>.json`.
fn sweep(
    fig: &str,
    axis: &str,
    cases: impl IntoIterator<Item = (ModelConfig, Vec<[usize; 4]>)>,
    title: impl Fn(&ModelConfig, usize) -> String,
) {
    let hw = Hardware::rtx3090_cluster();
    let mut records = Vec::new();
    for (model, points) in cases {
        let mut t = Table::new(&[
            axis,
            "Megatron-LM",
            "Slicer",
            "Planner",
            "AutoPipe",
            "speedup",
        ]);
        for &[x, mbs, p, m] in &points {
            let db = cost_db(&model, &hw, mbs);
            let vals: Vec<Result<f64, String>> = SYSTEMS
                .iter()
                .map(|&s| measure(s, &db, &hw, p, m).map(|o| o.iteration))
                .collect();
            let speedup = match (&vals[0], &vals[3]) {
                (Ok(mega), Ok(auto)) => format!("{:.2}x", mega / auto),
                _ => "-".into(),
            };
            let mut cells = vec![x.to_string()];
            cells.extend(vals.iter().map(ms));
            cells.push(speedup);
            t.row(cells);
            records.push(json!({
                "model": model.name,
                axis: x,
                "megatron_s": vals[0].clone().ok(),
                "slicer_s": vals[1].clone().ok(),
                "planner_s": vals[2].clone().ok(),
                "autopipe_s": vals[3].clone().ok(),
            }));
        }
        t.print(&title(&model, points[0][1]));
    }
    save_json(fig, &json!(records));
}

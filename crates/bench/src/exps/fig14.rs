//! Fig. 14: startup overhead comparison — Megatron-LM 1F1B, the interleaved
//! schedule, the Slicer alone, and full AutoPipe.

use autopipe_cost::Hardware;
use autopipe_model::zoo;
use serde_json::json;

use crate::report::{ms, save_json, Table};
use crate::systems::{cost_db, measure, System};

const SYSTEMS: [System; 4] = [
    System::Megatron,
    System::Interleaved(2),
    System::SlicerOnly,
    System::AutoPipe,
];

/// Fig. 14a: 4-stage pipeline, sweep the micro-batch size. The interleaved
/// schedule OOMs at the largest size.
pub fn run_fig14a() {
    startups(
        "fig14a",
        "mbs",
        ["megatron_s", "interleaved", "slicer_s", "autopipe_s"],
        [4, 8, 16, 24, 32].map(|mbs| [mbs, mbs, 4, 8]),
        "Fig. 14a: startup overhead (ms) vs micro-batch size (GPT-2 345M, 4 stages)",
    );
}

/// Fig. 14b: mbs 4, sweep the pipeline depth. The interleaved schedule
/// cannot chunk 24 layers onto 8 devices ("X").
pub fn run_fig14b() {
    startups(
        "fig14b",
        "stages",
        ["megatron_s", "interleaved_s", "slicer_s", "autopipe_s"],
        [2, 4, 8, 12].map(|p| [p, 4, p, 2 * p]),
        "Fig. 14b: startup overhead (ms) vs pipeline depth (GPT-2 345M, mbs 4)",
    );
}

/// Measure the four systems' startup on GPT-2 345M at each `[x, mbs, p, m]`
/// point (`x` is the swept value, named `axis`), print the table and save
/// the records, one field per system named by `keys`, as
/// `results/<fig>.json`.
fn startups(
    fig: &str,
    axis: &str,
    [k0, k1, k2, k3]: [&str; 4],
    points: impl IntoIterator<Item = [usize; 4]>,
    title: &str,
) {
    let hw = Hardware::rtx3090_cluster();
    let model = zoo::gpt2_345m();
    let mut t = Table::new(&[axis, "Megatron-LM", "Interleaved", "Slicer", "AutoPipe"]);
    let mut records = Vec::new();
    for [x, mbs, p, m] in points {
        let db = cost_db(&model, &hw, mbs);
        let vals: Vec<Result<f64, String>> = SYSTEMS
            .iter()
            .map(|&s| measure(s, &db, &hw, p, m).map(|o| o.startup))
            .collect();
        let mut cells = vec![x.to_string()];
        cells.extend(vals.iter().map(ms));
        t.row(cells);
        records.push(json!({
            axis: x,
            k0: vals[0].clone().ok(),
            k1: vals[1].clone().ok(),
            k2: vals[2].clone().ok(),
            k3: vals[3].clone().ok(),
        }));
    }
    t.print(title);
    save_json(fig, &json!(records));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both the Slicer and the interleaved schedule roughly halve startup
    /// vs Megatron 1F1B; AutoPipe's startup is slightly larger than the
    /// Slicer's ("because AutoPipe moves the load of the last pipeline
    /// stage forward to balance the pipeline").
    #[test]
    fn startup_halving_and_ordering() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
        let (p, m) = (4, 8);
        let mega = measure(System::Megatron, &db, &hw, p, m).unwrap().startup;
        let int = measure(System::Interleaved(2), &db, &hw, p, m)
            .unwrap()
            .startup;
        let slicer = measure(System::SlicerOnly, &db, &hw, p, m).unwrap().startup;
        let auto = measure(System::AutoPipe, &db, &hw, p, m).unwrap().startup;
        assert!(slicer < 0.75 * mega, "slicer {slicer} vs mega {mega}");
        assert!(int < 0.75 * mega, "interleaved {int} vs mega {mega}");
        assert!(auto < mega, "autopipe {auto} vs mega {mega}");
        assert!(
            auto > 0.9 * slicer,
            "autopipe startup ({auto}) should be >= slicer's ({slicer})"
        );
    }
}

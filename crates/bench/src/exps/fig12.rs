//! Fig. 12: planner search time per model.
//!
//! The reproducible claim is the *ordering*: DAPPLE's exhaustive
//! (composition × per-layer split) sweep is the slowest, Piper's sampled
//! two-level search sits in the middle, and AutoPipe's heuristic is an
//! order of magnitude faster than Piper.

use std::time::Instant;

use autopipe_cost::Hardware;
use autopipe_model::zoo;
use serde_json::json;

use crate::exps::run_planner;
use crate::report::{save_json, Table};
use crate::systems::cost_db;

/// One planner's search measurement.
#[derive(Debug, Clone, Copy)]
pub struct SearchStat {
    /// Wall-clock seconds of the full planning call.
    pub seconds: f64,
    /// Candidate configurations the search evaluated.
    pub schemes: usize,
}

/// Measure (dapple, piper, autopipe) search cost for every benchmark model
/// on `g` GPUs at high memory demand.
pub(crate) fn search_times(g: usize) -> Vec<(String, [SearchStat; 3])> {
    let hw = Hardware::rtx3090_cluster();
    zoo::benchmark_models()
        .into_iter()
        .map(|model| {
            let mbs = if model.name.contains("1.3B") { 16 } else { 32 };
            let db = cost_db(&model, &hw, mbs);
            let gbs = 32 * mbs;
            let mut stats = [SearchStat {
                seconds: 0.0,
                schemes: 0,
            }; 3];
            for (i, alg) in ["D", "P", "A"].iter().enumerate() {
                let t0 = Instant::now();
                let plan = run_planner(alg, &db, &hw, g, gbs, mbs);
                stats[i] = SearchStat {
                    seconds: t0.elapsed().as_secs_f64(),
                    schemes: plan.map(|p| p.schemes_explored).unwrap_or(0),
                };
            }
            (model.name, stats)
        })
        .collect()
}

/// Print Fig. 12.
pub fn run() {
    let g = 16;
    let data = search_times(g);
    let mut t = Table::new(&[
        "Model",
        "DAPPLE (ms / schemes)",
        "Piper (ms / schemes)",
        "AutoPipe (ms / schemes)",
        "P/A time",
    ]);
    let mut records = Vec::new();
    for (model, [d, p, a]) in &data {
        t.row(vec![
            model.clone(),
            format!("{:.1} / {}", d.seconds * 1e3, d.schemes),
            format!("{:.1} / {}", p.seconds * 1e3, p.schemes),
            format!("{:.2} / {}", a.seconds * 1e3, a.schemes),
            format!("{:.0}x", p.seconds / a.seconds.max(1e-9)),
        ]);
        records.push(json!({
            "model": model, "gpus": g,
            "dapple_wall_s": d.seconds, "dapple_schemes": d.schemes,
            "piper_wall_s": p.seconds, "piper_schemes": p.schemes,
            "autopipe_wall_s": a.seconds, "autopipe_schemes": a.schemes,
        }));
    }
    t.print(&format!("Fig. 12: planner search cost ({g} GPUs)"));
    save_json("fig12", &json!(records));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The structural claim behind Fig. 12: AutoPipe's heuristic evaluates
    /// orders of magnitude fewer candidate configurations than the
    /// exhaustive baselines (wall-clock follows at cluster scale; the
    /// harness reports both).
    #[test]
    fn autopipe_explores_far_fewer_schemes() {
        let data = search_times(8);
        for (model, [d, p, a]) in &data {
            assert!(
                a.schemes * 10 <= p.schemes,
                "{model}: autopipe {} vs piper {} schemes",
                a.schemes,
                p.schemes
            );
            assert!(
                a.schemes * 10 <= d.schemes,
                "{model}: autopipe {} vs dapple {} schemes",
                a.schemes,
                d.schemes
            );
            // (Wall-clock ordering emerges at cluster scale — the g=16
            // configuration the harness reports — where the baselines'
            // composition spaces explode; at g=8 debug-mode timing is too
            // noisy to assert on.)
        }
    }
}

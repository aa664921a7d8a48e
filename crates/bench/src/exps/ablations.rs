//! Ablation studies on AutoPipe's design choices (beyond the paper's own
//! §IV-E): what each ingredient buys.
//!
//! * `granularity` — sub-layer vs whole-layer planning (the Fig. 3 claim);
//! * `heuristic` — Algorithm 1's seed alone vs the full master-stage search;
//! * `slice count` — iteration/startup as the number of sliced micro-batches
//!   sweeps past Algorithm 2's answer;
//! * `bandwidth` — AutoPipe's edge over Megatron-LM as the interconnect
//!   scales from 10 Gbps to 1 Tbps.

use autopipe_core::Plan;
use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_planner::balanced_partition;
use autopipe_sim::event::EventConfig;
use serde_json::json;

use crate::report::{save_json, Table};
use crate::systems::{cost_db, measure, System};

/// Sub-layer vs layer granularity: simulated iteration time of the planner's
/// best scheme at each granularity. Returns (model, p, layer_s, sublayer_s).
pub(crate) fn granularity_ablation() -> Vec<(String, usize, f64, f64)> {
    let hw = Hardware::rtx3090_cluster();
    let mut out = Vec::new();
    for model in zoo::benchmark_models() {
        for p in [4usize, 8] {
            let m = 2 * p;
            let layer_db = CostDb::build(&model, &hw, 4, true, Granularity::Layer);
            let sub_db = CostDb::build(&model, &hw, 4, true, Granularity::SubLayer);
            let l = plan(&layer_db, p, m, &AutoPipeConfig::default()).unwrap();
            let s = plan(&sub_db, p, m, &AutoPipeConfig::default()).unwrap();
            out.push((
                model.name.clone(),
                p,
                l.analytic.iteration_time,
                s.analytic.iteration_time,
            ));
        }
    }
    out
}

/// Algorithm 1 seed vs the full heuristic: (model, p, seed_s, heuristic_s).
pub(crate) fn heuristic_ablation() -> Vec<(String, usize, f64, f64)> {
    let hw = Hardware::rtx3090_cluster();
    let mut out = Vec::new();
    for model in zoo::benchmark_models() {
        for p in [4usize, 8, 12] {
            let m = 2 * p;
            let db = cost_db(&model, &hw, 4);
            let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();
            // Priced like the planner: every stage replays its forwards.
            let seed = Plan::new(balanced_partition(&weights, p), 1, m, 0, None, &db)
                .expect("1F1B generates");
            let seed_time = seed
                .simulate(&db, hw.link_latency, &EventConfig::default())
                .expect("a plan simulates")
                .iteration_time;
            let full = plan(&db, p, m, &AutoPipeConfig::default()).unwrap();
            out.push((
                model.name.clone(),
                p,
                seed_time,
                full.analytic.iteration_time,
            ));
        }
    }
    out
}

/// Slice-count sweep on a balanced pipeline: (k, iteration_s, startup_s)
/// plus Algorithm 2's chosen k.
pub(crate) fn slice_sweep(p: usize, m: usize) -> (Vec<(usize, f64, f64)>, usize) {
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
    let part = plan(&db, p, m, &AutoPipeConfig::default())
        .unwrap()
        .partition;
    let sliced = |k| Plan::new(part.clone(), 1, m, k, None, &db).expect("1F1B generates");
    let mut chosen = sliced(0);
    chosen.slice(&db);
    let cfg = EventConfig::actual_run(hw.kernel_overhead, 3);
    let rows = (0..p)
        .map(|k| {
            let r = sliced(k)
                .simulate(&db, hw.link_latency, &cfg)
                .expect("a plan simulates");
            (k, r.iteration_time, r.startup_overhead)
        })
        .collect();
    (rows, chosen.schedule.n_sliced)
}

/// Bandwidth sensitivity: speedup of AutoPipe over Megatron-LM as the link
/// bandwidth scales. Returns (scale, speedup).
pub(crate) fn bandwidth_sweep() -> Vec<(f64, f64)> {
    let base = Hardware::rtx3090_cluster();
    [0.1, 0.5, 1.0, 2.0, 10.0]
        .iter()
        .map(|&scale| {
            let hw = Hardware {
                link_bandwidth: base.link_bandwidth * scale,
                ..base.clone()
            };
            let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
            let mega = measure(System::Megatron, &db, &hw, 4, 8).unwrap().iteration;
            let auto = measure(System::AutoPipe, &db, &hw, 4, 8).unwrap().iteration;
            (scale, mega / auto)
        })
        .collect()
}

/// Print all four ablations.
pub fn run() {
    let mut records = Vec::new();

    let mut t = Table::new(&[
        "Model",
        "stages",
        "layer-gran (ms)",
        "sub-layer (ms)",
        "gain",
    ]);
    for (model, p, l, s) in granularity_ablation() {
        t.row(vec![
            model.clone(),
            p.to_string(),
            format!("{:.1}", l * 1e3),
            format!("{:.1}", s * 1e3),
            format!("{:.2}x", l / s),
        ]);
        records.push(
            json!({"ablation": "granularity", "model": model, "stages": p,
                            "layer_s": l, "sublayer_s": s}),
        );
    }
    t.print("Ablation: planning granularity (Fig. 3's claim)");

    let mut t = Table::new(&[
        "Model",
        "stages",
        "Alg.1 seed (ms)",
        "heuristic (ms)",
        "gain",
    ]);
    for (model, p, seed, full) in heuristic_ablation() {
        t.row(vec![
            model.clone(),
            p.to_string(),
            format!("{:.1}", seed * 1e3),
            format!("{:.1}", full * 1e3),
            format!("{:.2}x", seed / full),
        ]);
        records.push(json!({"ablation": "heuristic", "model": model, "stages": p,
                            "seed_s": seed, "full_s": full}));
    }
    t.print("Ablation: Algorithm 1 alone vs the master-stage heuristic");

    let (rows, chosen) = slice_sweep(8, 16);
    let mut t = Table::new(&["sliced k", "iteration (ms)", "startup (ms)", ""]);
    for (k, iter, startup) in &rows {
        t.row(vec![
            k.to_string(),
            format!("{:.1}", iter * 1e3),
            format!("{:.1}", startup * 1e3),
            if *k == chosen {
                "<- Algorithm 2".into()
            } else {
                String::new()
            },
        ]);
        records.push(
            json!({"ablation": "slice_sweep", "k": k, "iteration_s": iter,
                            "startup_s": startup, "chosen": chosen}),
        );
    }
    t.print("Ablation: slice-count sweep (GPT-2 345M, 8 stages, 16 micro-batches)");

    let mut t = Table::new(&["bandwidth scale", "AutoPipe speedup"]);
    for (scale, speedup) in bandwidth_sweep() {
        t.row(vec![format!("{scale}x"), format!("{speedup:.3}x")]);
        records.push(json!({"ablation": "bandwidth", "scale": scale, "speedup": speedup}));
    }
    t.print("Ablation: interconnect bandwidth sensitivity (4 stages, GPT-2 345M)");

    save_json("ablations", &json!(records));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sublayer_never_loses_to_layer_granularity() {
        for (model, p, l, s) in granularity_ablation() {
            assert!(s <= l + 1e-9, "{model} p={p}: sub-layer {s} vs layer {l}");
        }
    }

    #[test]
    fn heuristic_never_loses_to_the_seed() {
        for (model, p, seed, full) in heuristic_ablation() {
            assert!(
                full <= seed + 1e-9,
                "{model} p={p}: heuristic {full} vs seed {seed}"
            );
        }
    }

    #[test]
    fn algorithm2_choice_is_near_the_sweep_optimum() {
        let (rows, chosen) = slice_sweep(6, 12);
        let best = rows
            .iter()
            .map(|(_, it, _)| *it)
            .fold(f64::INFINITY, f64::min);
        let chosen_iter = rows[chosen.min(rows.len() - 1)].1;
        assert!(
            chosen_iter <= best * 1.02,
            "chosen k={chosen} at {chosen_iter}, sweep best {best}"
        );
    }

    #[test]
    fn speedup_survives_bandwidth_extremes() {
        for (scale, speedup) in bandwidth_sweep() {
            assert!(
                speedup > 0.95,
                "scale {scale}: AutoPipe regressed to {speedup}"
            );
        }
    }
}

//! Schedule-family shoot-out: simulates every family the schedule IR can
//! generate (plain 1F1B, sliced 1F1B, GPipe, zero-bubble, interleaved) on
//! fixed GPT-2 workloads, reports each family's iteration time and bubble
//! fraction, runs the cross-family planner on the same workloads, and emits
//! the machine-readable record `results/BENCH_schedules.json` so schedule
//! regressions are visible across commits.
//!
//! The planner's pick is asserted to match the best single family — the
//! search must never lose to its own candidate list. `--smoke` drops to one
//! workload to validate the emitter in CI.

use autopipe_bench::report::save_json;
use autopipe_bench::systems::cost_db;
use autopipe_cost::{CostDb, Hardware};
use autopipe_model::zoo;
use autopipe_planner::family::{plan_families, FamilyConfig};
use autopipe_planner::{autopipe_plan, balanced_partition};
use autopipe_schedule::{generators, Schedule};
use autopipe_sim::event::{EventConfig, EventCosts};
use autopipe_sim::memcheck::check_memory;
use autopipe_sim::{replay_schedule, Partition, ReplayScratch};
use serde_json::{json, Value};

/// Bubble fraction of one simulated iteration: the share of device-seconds
/// the pipeline spends idle, `1 − Σ busy_d / (p · T)`.
fn bubble_fraction(busy: &[f64], iteration_time: f64) -> f64 {
    let total: f64 = busy.iter().sum();
    1.0 - total / (busy.len() as f64 * iteration_time)
}

fn family_rows(
    db: &CostDb,
    hw: &Hardware,
    p: usize,
    m: usize,
    cfg: &FamilyConfig,
) -> (Vec<Value>, Option<(String, f64)>) {
    let base = autopipe_plan(db, p, m, &cfg.autopipe).unwrap().partition;
    let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();
    let v = cfg.chunk_counts[0];
    let entries: Vec<(String, Option<(Schedule, Partition)>)> = vec![
        (
            "1f1b".into(),
            Some((generators::one_f_one_b(p, m), base.clone())),
        ),
        (
            "sliced_1f1b".into(),
            Some((generators::sliced_1f1b(p, m, 2), base.clone())),
        ),
        (
            "gpipe".into(),
            Some((generators::gpipe(p, m), base.clone())),
        ),
        (
            "zero_bubble".into(),
            Some((generators::zero_bubble(p, m), base.clone())),
        ),
        (
            "interleaved".into(),
            generators::interleaved(p, v, m)
                .ok()
                .filter(|_| p * v <= weights.len())
                .map(|s| (s, balanced_partition(&weights, p * v))),
        ),
    ];

    let mut scratch = ReplayScratch::new();
    let mut rows = Vec::new();
    let mut best: Option<(String, f64)> = None;
    for (name, entry) in entries {
        let Some((sched, partition)) = entry else {
            rows.push(json!({"family": name, "skipped": "generator guard"}));
            continue;
        };
        if let Err(e) = check_memory(&partition, db, &sched, hw) {
            rows.push(json!({"family": name, "skipped": e.to_string()}));
            continue;
        }
        let costs = EventCosts::from_stage_costs(&partition.stage_costs(db), cfg.latency);
        let summary = replay_schedule(&sched, &costs, &EventConfig::default(), &mut scratch)
            .expect("validated schedules replay");
        let bubble = bubble_fraction(&summary.device_busy, summary.iteration_time);
        rows.push(json!({
            "family": name,
            "iteration_s": summary.iteration_time,
            "bubble_fraction": bubble,
            "startup_s": summary.startup_overhead,
        }));
        if best
            .as_ref()
            .is_none_or(|(_, t)| summary.iteration_time < *t)
        {
            best = Some((name, summary.iteration_time));
        }
    }
    (rows, best)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workloads: Vec<(&str, usize, usize, usize)> = if smoke {
        vec![("gpt2_345m", 4, 8, 4)]
    } else {
        vec![
            ("gpt2_345m", 4, 8, 4),
            ("gpt2_345m", 8, 16, 4),
            ("gpt2_762m", 4, 8, 4),
        ]
    };

    let hw = Hardware::rtx3090_cluster();
    let cfg = FamilyConfig {
        latency: hw.link_latency,
        ..FamilyConfig::default()
    };
    let mut records = Vec::new();
    for (name, p, m, mbs) in workloads {
        let model = match name {
            "gpt2_762m" => zoo::gpt2_762m(),
            _ => zoo::gpt2_345m(),
        };
        let db = cost_db(&model, &hw, mbs);
        let (rows, best) = family_rows(&db, &hw, p, m, &cfg);
        let (best_name, best_time) = best.expect("at least one family must fit");

        let outcome = plan_families(&db, &hw, p, m, &cfg).unwrap();
        // The planner searches a superset of the single-family menu above
        // (extra slice counts), so its pick can only tie or win.
        assert!(
            outcome.iteration_time <= best_time + 1e-12,
            "planner pick {} slower than best single family {best_name} {}",
            outcome.iteration_time,
            best_time
        );
        println!(
            "{name} p={p} m={m}: best single family {best_name} {best_time:.4}s, \
             planner picked {:?} {:.4}s",
            outcome.schedule.kind, outcome.iteration_time
        );
        let workload = json!({"model": name, "p": p, "m": m, "mbs": mbs});
        let best_row = json!({"family": best_name, "iteration_s": best_time});
        let pick = json!({
            "family": format!("{:?}", outcome.schedule.kind),
            "n_sliced": outcome.schedule.n_sliced,
            "n_chunks": outcome.schedule.n_chunks,
            "iteration_s": outcome.iteration_time,
        });
        records.push(json!({
            "workload": workload,
            "families": rows,
            "best_single_family": best_row,
            "planner_pick": pick,
        }));
    }

    save_json(
        "BENCH_schedules",
        &json!({"workloads": records, "smoke": smoke}),
    );
}

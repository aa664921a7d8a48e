//! Comm-engine shoot-out: blocking sends vs the overlapped comm lane.
//!
//! For each workload × link configuration this bench replays 1F1B on the
//! blocking planner's partition under both comm engines at every chunking
//! factor k ∈ {1, 2, 4, 8}, reporting iteration time and bubble fraction,
//! then runs the planner twice — once under the blocking cost model and
//! once overlap-aware — and records both picks. The overlap-aware pick must
//! never be slower under its own model than the blocking pick re-scored
//! under overlap (the planner can always keep the blocking winner), which
//! the bench asserts.
//!
//! Link configurations scale the profiled α+β: `fast_link` is the cluster
//! as profiled; `slow_link` stretches latency 4× and volume 8× — the
//! comm-heavy regime where overlap pays. Emits
//! `results/BENCH_comm.json`; `--smoke` drops to one workload for CI.

use autopipe_bench::report::save_json;
use autopipe_bench::systems::cost_db;
use autopipe_cost::Hardware;
use autopipe_model::zoo;
use autopipe_planner::{autopipe_plan, AutoPipeConfig};
use autopipe_schedule::generators;
use autopipe_sim::analytic::OverlapModel;
use autopipe_sim::event::{EventConfig, EventCosts};
use autopipe_sim::schedule_replay::{replay_schedule, ReplayScratch};
use autopipe_sim::CommConfig;
use serde_json::json;

/// Bubble fraction of one simulated iteration: the share of device-seconds
/// the pipeline spends idle, `1 − Σ busy_d / (p · T)`.
fn bubble_fraction(busy: &[f64], iteration_time: f64) -> f64 {
    let total: f64 = busy.iter().sum();
    1.0 - total / (busy.len() as f64 * iteration_time)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let workloads: Vec<(&str, usize, usize, usize)> = if smoke {
        vec![("gpt2_345m", 4, 8, 4)]
    } else {
        vec![("gpt2_345m", 4, 8, 4), ("gpt2_345m", 8, 16, 4)]
    };
    // (name, latency scale, volume scale) applied to the profiled link.
    // `comm_bound` pushes message volume to the same order as per-stage
    // compute — the regime the ISSUE's ≥10% acceptance bar targets.
    let links: &[(&str, f64, f64)] = &[
        ("fast_link", 1.0, 1.0),
        ("slow_link", 4.0, 8.0),
        ("comm_bound", 4.0, 256.0),
    ];
    let chunk_counts = [1usize, 2, 4, 8];

    let hw = Hardware::rtx3090_cluster();
    let mut records = Vec::new();
    for &(name, p, m, mbs) in &workloads {
        for &(link, lat_scale, vol_scale) in links {
            let mut db = cost_db(&zoo::gpt2_345m(), &hw, mbs);
            db.comm *= vol_scale;
            db.recompute_prefixes();
            let latency = hw.link_latency * lat_scale;

            // Blocking planner's partition, replayed under both engines.
            let base = autopipe_plan(&db, p, m, &AutoPipeConfig::default()).unwrap();
            let sched = generators::one_f_one_b(p, m);
            let sc = base.partition.stage_costs(&db);
            let costs = EventCosts::from_stage_costs(&sc, latency);
            let mut scratch = ReplayScratch::new();
            let replay = |comm: CommConfig, scratch: &mut ReplayScratch| {
                let cfg = EventConfig {
                    comm,
                    ..EventConfig::default()
                };
                replay_schedule(&sched, &costs, &cfg, scratch).expect("1F1B replays")
            };
            let blocking = replay(CommConfig::default(), &mut scratch);
            let mut engine_rows = vec![json!({
                "engine": "blocking",
                "iteration_s": blocking.iteration_time,
                "bubble_fraction": bubble_fraction(&blocking.device_busy, blocking.iteration_time),
            })];
            let mut best_gain = 0.0_f64;
            for k in chunk_counts {
                let s = replay(CommConfig::overlapped(k), &mut scratch);
                let gain = 1.0 - s.iteration_time / blocking.iteration_time;
                best_gain = best_gain.max(gain);
                engine_rows.push(json!({
                    "engine": "overlapped",
                    "chunks": k,
                    "iteration_s": s.iteration_time,
                    "bubble_fraction": bubble_fraction(&s.device_busy, s.iteration_time),
                    "gain_vs_blocking": gain,
                }));
            }

            // Planner picks under each cost model. The overlap-aware search
            // scores with the same eager-send recurrence the replay above
            // executes, so its pick reflects how the plan will actually run.
            let ov = OverlapModel { latency, chunks: 4 };
            let aware = autopipe_plan(
                &db,
                p,
                m,
                &AutoPipeConfig {
                    overlap: Some(ov),
                    ..Default::default()
                },
            )
            .unwrap();
            let base_under_overlap = autopipe_sim::analytic::simulate_replay_masked(
                &base.partition.stage_costs(&db),
                m,
                &mut autopipe_sim::SimScratch::new(),
                Some(&ov),
                None,
            );
            assert!(
                aware.analytic.iteration_time <= base_under_overlap.iteration_time + 1e-12,
                "overlap-aware pick {} loses to blocking pick under overlap {}",
                aware.analytic.iteration_time,
                base_under_overlap.iteration_time
            );
            let different = base.partition.boundaries() != aware.partition.boundaries();
            println!(
                "{name} p={p} m={m} {link}: overlap gain up to {:.1}% \
                 (blocking {:.4}s); overlap-aware plan {} ({:.4}s vs {:.4}s re-scored)",
                100.0 * best_gain,
                blocking.iteration_time,
                if different { "differs" } else { "matches" },
                aware.analytic.iteration_time,
                base_under_overlap.iteration_time,
            );

            let workload = json!({"model": name, "p": p, "m": m, "mbs": mbs});
            let link_rec = json!({
                "name": link,
                "latency_s": latency,
                "volume_scale": vol_scale,
            });
            let blocking_pick = json!({
                "boundaries": base.partition.boundaries(),
                "iteration_s_blocking_model": base.analytic.iteration_time,
                "iteration_s_overlap_model": base_under_overlap.iteration_time,
            });
            let aware_pick = json!({
                "boundaries": aware.partition.boundaries(),
                "iteration_s_overlap_model": aware.analytic.iteration_time,
                "differs_from_blocking_pick": different,
                "schemes_explored": aware.schemes_explored,
            });
            let planner = json!({
                "blocking_pick": blocking_pick,
                "overlap_aware_pick": aware_pick,
            });
            records.push(json!({
                "workload": workload,
                "link": link_rec,
                "engines": engine_rows,
                "max_overlap_gain": best_gain,
                "planner": planner,
            }));
        }
    }

    save_json("BENCH_comm", &json!({"workloads": records, "smoke": smoke}));
}

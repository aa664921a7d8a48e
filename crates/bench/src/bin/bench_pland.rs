//! Planner-service benchmark: measures what `pland` adds on top of a fast
//! single search — content-cache hit latency vs a cold plan, warm-started
//! incremental re-planning vs the cold re-plan path, and sustained serving
//! throughput for a realistic cold/cached/incremental request mix at
//! several worker counts — and emits `results/BENCH_pland.json`.
//!
//! The workload is fixed (GPT-2 345M sub-layer costs) so numbers are
//! comparable run to run. `--smoke` shrinks repetition counts to validate
//! the emitter in CI without meaningful measurement.

use std::hint::black_box;
use std::time::Instant;

use autopipe_bench::report::save_json;
use autopipe_bench::systems::cost_db;
use autopipe_cost::{CostDb, Hardware};
use autopipe_model::zoo;
use autopipe_planner::autopipe::{plan, plan_seeded, AutoPipeConfig, PlannerScratch};
use autopipe_planner::replan::observed_cost_db;
use autopipe_planner::service::{BatchRequest, PlanService, Source};
use serde_json::json;

const P: usize = 8;
const M: usize = 16;

/// Same-shape cost drift: scale a band of block costs, as the straggler
/// monitor's observed ratios do.
fn drifted(db: &CostDb, lo: usize, hi: usize, factor: f64) -> CostDb {
    let mut out = db.clone();
    let hi = hi.min(out.blocks.len());
    for b in &mut out.blocks[lo..hi] {
        b.fwd *= factor;
        b.bwd *= factor;
    }
    out.recompute_prefixes();
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (cold_reps, hit_reps, replan_reps, mix_rounds) = if smoke {
        (3, 200, 3, 2)
    } else {
        (50, 100_000, 50, 12)
    };

    let model = zoo::gpt2_345m();
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&model, &hw, 4);
    let serving_cfg = AutoPipeConfig {
        prune: true,
        ..AutoPipeConfig::default()
    };

    // ---- 1. Content-cache hit latency vs a cold plan. -------------------
    let t0 = Instant::now();
    for _ in 0..cold_reps {
        let svc = PlanService::new();
        black_box(svc.plan(black_box(&db), P, M).unwrap());
    }
    let cold_us = t0.elapsed().as_secs_f64() / cold_reps as f64 * 1e6;

    let svc = PlanService::new();
    let first = svc.plan(&db, P, M).unwrap();
    let t0 = Instant::now();
    for _ in 0..hit_reps {
        black_box(svc.plan(black_box(&db), P, M).unwrap());
    }
    let hit_us = t0.elapsed().as_secs_f64() / hit_reps as f64 * 1e6;
    let hit = svc.plan(&db, P, M).unwrap();
    assert_eq!(hit.source, Source::Hit);
    let hit_bit_identical = hit.outcome.partition == first.outcome.partition
        && hit.outcome.analytic.iteration_time.to_bits()
            == first.outcome.analytic.iteration_time.to_bits();

    // ---- 2. Warm-started incremental re-plan vs the cold re-plan path. --
    // Drift: two stages of the running plan slow down (the StragglerMonitor
    // scenario). Both sides build the observed cost database and simulate
    // the degraded baseline, as `PlanService::replan` does on a miss.
    let base = plan(&db, P, M, &serving_cfg).unwrap();
    let mut ratios = vec![1.0f64; P];
    ratios[1] = 1.8;
    ratios[P - 2] = 1.4;
    let observe = || {
        let observed = observed_cost_db(&db, &base.partition, &ratios).unwrap();
        let degraded =
            autopipe_sim::analytic::simulate_replay(&base.partition.stage_costs(&observed), M)
                .iteration_time;
        black_box(degraded);
        observed
    };

    // The cold baseline: a full unseeded search on the observed costs.
    let t0 = Instant::now();
    let mut cold_r = None;
    for _ in 0..replan_reps {
        let observed = observe();
        cold_r = Some(black_box(
            plan(&observed, P, M, &AutoPipeConfig::default()).unwrap(),
        ));
    }
    let cold_replan_us = t0.elapsed().as_secs_f64() / replan_reps as f64 * 1e6;
    let cold_r = cold_r.unwrap();

    // The warm path as the service runs it on a content miss: seed the
    // pruned search with the running partition.
    let mut scratch = PlannerScratch::new();
    let t0 = Instant::now();
    let mut warm = None;
    for _ in 0..replan_reps {
        let observed = observe();
        warm = Some(black_box(
            plan_seeded(
                &observed,
                P,
                M,
                &serving_cfg,
                std::slice::from_ref(&base.partition),
                &mut scratch,
            )
            .unwrap(),
        ));
    }
    let warm_replan_us = t0.elapsed().as_secs_f64() / replan_reps as f64 * 1e6;
    let warm = warm.unwrap();
    let drift_same_plan = warm.partition == cold_r.partition
        && (warm.analytic.iteration_time - cold_r.analytic.iteration_time).abs()
            <= 1e-9 * cold_r.analytic.iteration_time;
    assert!(
        drift_same_plan,
        "warm re-plan diverged from the cold re-plan"
    );

    // Undrifted costs: the re-plan request is bit-identical to the base
    // request, so the service answers it from the content cache.
    let no_drift = svc
        .replan(&db, &first.outcome.partition, &[1.0; P], M)
        .unwrap();
    let no_drift_pure_hit = no_drift.served.source == Source::Hit;
    let no_drift_bit_identical = no_drift.served.outcome.partition == first.outcome.partition
        && no_drift.served.outcome.analytic.iteration_time.to_bits()
            == first.outcome.analytic.iteration_time.to_bits();
    assert!(no_drift_pure_hit && no_drift_bit_identical);

    // ---- 3. Sustained serving throughput on a cold/cached/incremental mix.
    // Distinct request contents: the base costs plus seven same-shape drifts
    // (incremental candidates) at two depths, repeated `mix_rounds` times so
    // the steady state is mostly cache hits — a fleet re-planning the same
    // jobs as stragglers come and go.
    let n = db.len();
    let drifts: Vec<CostDb> = (1..8)
        .map(|i| drifted(&db, (i * 5) % n, (i * 5) % n + 12, 1.0 + 0.1 * i as f64))
        .collect();
    let mut dbs: Vec<&CostDb> = vec![&db];
    dbs.extend(drifts.iter());
    let mut requests: Vec<BatchRequest> = Vec::new();
    for _ in 0..mix_rounds {
        for &d in &dbs {
            for p in [4usize, 8] {
                requests.push(BatchRequest { db: d, p, m: 2 * p });
            }
        }
    }

    let worker_counts = [1usize, 4];
    let mut per_workers = Vec::new();
    let mut rates: Vec<(usize, f64)> = Vec::new();
    let mut outputs: Vec<Vec<(Vec<usize>, u64)>> = Vec::new();
    for &w in &worker_counts {
        let svc = PlanService::new();
        let t0 = Instant::now();
        let served = svc.plan_batch(&requests, w);
        let secs = t0.elapsed().as_secs_f64();
        let stats = svc.stats();
        rates.push((w, requests.len() as f64 / secs));
        let out: Vec<(Vec<usize>, u64)> = served
            .iter()
            .map(|r| {
                let s = r.as_ref().unwrap();
                (
                    s.outcome.partition.boundaries().to_vec(),
                    s.outcome.analytic.iteration_time.to_bits(),
                )
            })
            .collect();
        outputs.push(out);
        per_workers.push(json!({
            "workers": w,
            "seconds": secs,
            "plans_per_sec": requests.len() as f64 / secs,
            "hits": stats.hits,
            "warm": stats.warm,
            "cold": stats.cold,
        }));
    }
    let outputs_identical = outputs.windows(2).all(|w| w[0] == w[1]);
    assert!(
        outputs_identical,
        "batched outputs differ across worker counts"
    );

    let workload = json!({"model": model.name, "p": P, "m": M, "mbs": 4});
    let cache = json!({
        "cold_us": cold_us,
        "hit_us": hit_us,
        "speedup": cold_us / hit_us,
        "hit_bit_identical": hit_bit_identical,
    });
    let incremental = json!({
        "cold_replan_us": cold_replan_us,
        "warm_replan_us": warm_replan_us,
        "speedup": cold_replan_us / warm_replan_us,
        "schemes_cold": cold_r.schemes_explored,
        "schemes_warm": warm.schemes_explored,
        "drift_same_plan": drift_same_plan,
        "no_drift_pure_hit": no_drift_pure_hit,
        "no_drift_bit_identical": no_drift_bit_identical,
    });
    // Worker counts above the machine's core count only add scheduling
    // overhead; record the hardware so the scaling column reads correctly.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let throughput = json!({
        "requests": requests.len(),
        "distinct_requests": dbs.len() * 2,
        "machine_cores": cores,
        "per_workers": per_workers,
        "outputs_identical": outputs_identical,
    });
    let record = json!({
        "workload": workload,
        "cache": cache,
        "incremental": incremental,
        "throughput": throughput,
        "smoke": smoke,
    });
    save_json("BENCH_pland", &record);

    println!(
        "cache:       cold {cold_us:.1}us vs hit {hit_us:.3}us ({:.0}x)",
        cold_us / hit_us
    );
    println!(
        "incremental: cold re-plan {cold_replan_us:.1}us vs warm {warm_replan_us:.1}us \
         ({:.1}x, {} vs {} schemes)",
        cold_replan_us / warm_replan_us,
        cold_r.schemes_explored,
        warm.schemes_explored
    );
    for (w, pps) in &rates {
        println!("throughput:  {w} workers -> {pps:.0} plans/sec");
    }
    println!("outputs identical across worker counts: {outputs_identical}");
    assert!(
        hit_bit_identical && no_drift_pure_hit,
        "pland serving contract violated"
    );
}

//! Serving-determinism contract for the planner service (`pland`).
//!
//! The cache and the batch pool must be *invisible* in the outputs: a cache
//! hit, a miss (drifted or not), and every request of a concurrent batch must
//! return the same winning partition and bit-identical iteration time as a
//! serial cold plan of the same request under the same configuration.

use std::sync::Arc;

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::plan;
use autopipe_planner::service::{BatchRequest, PlanService, Source};

fn db(model: &autopipe_model::ModelConfig) -> CostDb {
    CostDb::build(
        model,
        &Hardware::rtx3090_cluster(),
        4,
        true,
        Granularity::SubLayer,
    )
}

/// Cold plans, cache hits, and batched serving at several worker counts all
/// produce the same bits for a workload spanning models and depths.
#[test]
fn serving_is_bit_identical_to_serial_cold_plans() {
    let gpt = db(&zoo::gpt2_345m());
    let bert = db(&zoo::bert_large());
    let reqs: Vec<BatchRequest> = [4usize, 6, 8]
        .iter()
        .flat_map(|&p| {
            [
                BatchRequest {
                    db: &gpt,
                    p,
                    m: 2 * p,
                },
                BatchRequest {
                    db: &bert,
                    p,
                    m: 2 * p,
                },
            ]
        })
        .collect();
    // Duplicate the workload so the tail of the batch exercises hits.
    let reqs: Vec<BatchRequest> = reqs.iter().chain(reqs.iter()).copied().collect();

    let svc = PlanService::new();
    // Serial cold reference: the plain planner under the serving config.
    let reference: Vec<_> = reqs
        .iter()
        .map(|r| plan(r.db, r.p, r.m, svc.config()).unwrap())
        .collect();

    for workers in [1, 2, 4] {
        let fresh = PlanService::new();
        let served = fresh.plan_batch(&reqs, workers);
        for (i, (s, c)) in served.iter().zip(&reference).enumerate() {
            let s = s.as_ref().unwrap();
            assert_eq!(
                s.outcome.partition, c.partition,
                "request {i} at {workers} workers"
            );
            assert_eq!(
                s.outcome.analytic.iteration_time.to_bits(),
                c.analytic.iteration_time.to_bits(),
                "request {i} at {workers} workers"
            );
        }
        let stats = fresh.stats();
        assert_eq!(stats.total(), reqs.len());
        if workers == 1 {
            // Serial serving is deterministic: every duplicate hits. (At
            // higher worker counts a duplicate can race its first
            // occurrence and recompute — same bits, different source.)
            assert_eq!(stats.hits, reqs.len() / 2, "{stats:?}");
        }
    }

    // And the now-warm original service answers everything from cache with
    // the same bits.
    for r in &reqs {
        let _ = svc.plan(r.db, r.p, r.m).unwrap();
    }
    for (r, c) in reqs.iter().zip(&reference) {
        let hit = svc.plan(r.db, r.p, r.m).unwrap();
        assert_eq!(hit.source, Source::Hit);
        assert_eq!(hit.outcome.partition, c.partition);
        assert_eq!(
            hit.outcome.analytic.iteration_time.to_bits(),
            c.analytic.iteration_time.to_bits()
        );
    }
}

/// Hammering one service from many threads with a mix of repeated and
/// drifted requests stays consistent: every response matches the serial
/// cold plan for its request, no matter how the threads interleave.
#[test]
fn concurrent_requests_against_one_service_are_consistent() {
    let base = db(&zoo::gpt2_345m());
    let mut drifted = base.clone();
    for b in &mut drifted.blocks[..8] {
        b.fwd *= 1.6;
        b.bwd *= 1.6;
    }
    drifted.recompute_prefixes();

    let svc = Arc::new(PlanService::new());
    let cold_base = plan(&base, 4, 8, svc.config()).unwrap();
    let cold_drift = plan(&drifted, 4, 8, svc.config()).unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for round in 0..6 {
                    let (d, c) = if round % 2 == 0 {
                        (&base, &cold_base)
                    } else {
                        (&drifted, &cold_drift)
                    };
                    let served = svc.plan(d, 4, 8).unwrap();
                    assert_eq!(served.outcome.partition, c.partition);
                    assert_eq!(
                        served.outcome.analytic.iteration_time.to_bits(),
                        c.analytic.iteration_time.to_bits()
                    );
                }
            });
        }
    });
    // 4 threads × 6 rounds.
    assert_eq!(svc.stats().total(), 24);
}

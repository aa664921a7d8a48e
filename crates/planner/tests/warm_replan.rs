//! Property coverage for warm-started incremental re-planning.
//!
//! The service's replan path scores the cached winner as an incumbent and
//! runs the pruned wave search on the drifted costs. These properties pin
//! the contract that makes that safe: across random per-stage cost drifts,
//! the warm-started search returns the same winning partition and the same
//! (bit-identical) iteration time as a cold search under the same config —
//! and its iteration time matches even the unpruned exhaustive-heuristic
//! search. The exception is a search that exhausts its scheme budget, where
//! the seed's simulation costs the warm search the cold search's last
//! scheme; one such case from the serving benchmark is pinned below.

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::{plan, plan_seeded, AutoPipeConfig, PlannerScratch};
use autopipe_planner::replan::observed_cost_db;
use proptest::prelude::*;

fn db() -> CostDb {
    CostDb::build(
        &zoo::gpt2_345m(),
        &Hardware::rtx3090_cluster(),
        4,
        true,
        Granularity::SubLayer,
    )
}

proptest! {
    /// Warm-started search on drifted costs == cold search on drifted costs
    /// (same knobs, pruning on — the service's serving configuration), and
    /// the warm plan is never slower than the unpruned cold search's.
    #[test]
    fn warm_start_matches_cold_search_under_drift(
        ratios in proptest::collection::vec(1.0f64..3.0, 8),
        p_idx in 0usize..2,
    ) {
        let p = [4usize, 8][p_idx];
        let m = 2 * p;
        let d = db();
        let cfg = AutoPipeConfig { prune: true, ..AutoPipeConfig::default() };
        let base = plan(&d, p, m, &cfg).unwrap();
        let ratios: Vec<f64> = (0..p).map(|s| ratios[s % ratios.len()]).collect();
        let observed = observed_cost_db(&d, &base.partition, &ratios).unwrap();

        let cold = plan(&observed, p, m, &cfg).unwrap();
        let warm = plan_seeded(
            &observed,
            p,
            m,
            &cfg,
            std::slice::from_ref(&base.partition),
            &mut PlannerScratch::new(),
        )
        .unwrap();

        prop_assert_eq!(&warm.partition, &cold.partition);
        prop_assert_eq!(
            warm.analytic.iteration_time.to_bits(),
            cold.analytic.iteration_time.to_bits()
        );
        // The incumbent costs one simulation on top of the cold exploration.
        prop_assert!(warm.schemes_explored <= cold.schemes_explored + 1);

        // Pruning (and therefore warm-starting) must not cost plan quality
        // against the unpruned heuristic either. The dominance bound's
        // float epsilon can swallow ulp-level ties, so this one is a
        // relative-tolerance check, not a bit comparison.
        let unpruned = plan(&observed, p, m, &AutoPipeConfig::default()).unwrap();
        prop_assert!(
            warm.analytic.iteration_time
                <= unpruned.analytic.iteration_time * (1.0 + 1e-9),
            "warm {} vs unpruned {}",
            warm.analytic.iteration_time,
            unpruned.analytic.iteration_time
        );
    }
}

/// A warm start is not always as good as the cold search: when the search
/// exhausts `max_schemes`, the seed's simulation is one scheme of the
/// budget, so the warm search stops where a cold search one scheme shorter
/// stops. Pinned from `plan_serve`'s drifted stream (seed 1, pool variant
/// 2530): GPT-2 762M (75 blocks) at p = 16, m = 16, stages 1 and 6 running
/// 1.27× and 1.81× slow, warm-started from the shape's cold winner. The
/// cold search finds its winner with its 512th scheme; the warm answer is
/// 0.15 % slower.
#[test]
fn a_budget_bound_warm_start_can_settle_above_the_cold_plan() {
    let d = CostDb::build(
        &zoo::gpt2_762m(),
        &Hardware::rtx3090_cluster(),
        4,
        true,
        Granularity::SubLayer,
    );
    let cfg = AutoPipeConfig {
        prune: true,
        ..AutoPipeConfig::default()
    };
    let (p, m) = (16, 16);
    let base = plan(&d, p, m, &cfg).unwrap().partition;
    let mut ratios = [1.0; 16];
    ratios[1] = 1.2658196676886855;
    ratios[6] = 1.8075643490505775;
    let observed = observed_cost_db(&d, &base, &ratios).unwrap();

    let cold = plan(&observed, p, m, &cfg).unwrap();
    let warm = plan_seeded(
        &observed,
        p,
        m,
        &cfg,
        std::slice::from_ref(&base),
        &mut PlannerScratch::new(),
    )
    .unwrap();
    assert_eq!(cold.schemes_explored, cfg.max_schemes);
    assert_eq!(warm.schemes_explored, cfg.max_schemes);
    assert_eq!(
        cold.partition.boundaries(),
        [0, 7, 11, 16, 22, 27, 32, 35, 38, 43, 48, 53, 58, 63, 68, 73, 75]
    );
    assert_eq!(
        warm.partition.boundaries(),
        [0, 6, 11, 16, 22, 27, 32, 35, 38, 43, 48, 53, 58, 63, 68, 73, 75]
    );
    let gap = warm.analytic.iteration_time / cold.analytic.iteration_time - 1.0;
    assert!((gap - 0.001526).abs() < 1e-6, "gap {gap}");

    // The warm answer is the cold search's one scheme earlier.
    let shorter = AutoPipeConfig {
        max_schemes: cfg.max_schemes - 1,
        ..cfg
    };
    let cold_shorter = plan(&observed, p, m, &shorter).unwrap();
    assert_eq!(cold_shorter.partition, warm.partition);
    assert_eq!(
        cold_shorter.analytic.iteration_time.to_bits(),
        warm.analytic.iteration_time.to_bits()
    );
}

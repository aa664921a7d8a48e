//! Memory-aware planning properties (ISSUE 9): recompute-lowered schedules
//! simulate bit-identically across the event / schedule-replay / analytic
//! tiers for every family, the static `memcheck` in-flight model agrees
//! with the `memtrace` dynamic replay on non-uniformly sliced schedules,
//! and budgeted planning stays deterministic at any thread count while
//! unlocking configs the no-recompute planner rejects.

use proptest::prelude::*;

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::family::{plan_families, FamilyConfig};
use autopipe_planner::{AutoPipeConfig, RecomputePolicy};
use autopipe_schedule::{
    apply_recompute, gpipe, interleaved, one_f_one_b, recompute_mask, sliced_1f1b, validate,
    zero_bubble, Schedule,
};
use autopipe_sim::analytic::{simulate_replay_masked, simulate_time_masked, SimScratch};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe_sim::memcheck::{check_memory_budget, peak_in_flight};
use autopipe_sim::memtrace::{dynamic_peaks, StageQuanta};
use autopipe_sim::{replay_schedule, ReplayScratch, StageCosts};

/// A random schedule from any family with a random per-stage recompute
/// mask applied, plus stage costs sized to its stage count.
fn masked_family() -> impl Strategy<Value = (Schedule, StageCosts, Vec<bool>)> {
    (0usize..5, 2usize..=6, 2usize..=3, 1usize..=12).prop_flat_map(|(fam, p, v, m_extra)| {
        let m = match fam {
            1 => m_extra.max(2),
            2 => p * (1 + m_extra % 3),
            _ => m_extra,
        };
        let sched = match fam {
            0 => one_f_one_b(p, m),
            1 => sliced_1f1b(p, m, 2),
            2 => interleaved(p, v, m).expect("m is a multiple of p"),
            3 => gpipe(p, m),
            _ => zero_bubble(p, m),
        };
        let stages = sched.n_stages();
        (
            Just(sched),
            proptest::collection::vec(1e-4f64..3.0, stages),
            proptest::collection::vec(1e-4f64..6.0, stages),
            proptest::collection::vec(0usize..2, stages),
            0usize..=20,
        )
            .prop_map(|(mut sched, f, b, mask_raw, comm_tenths)| {
                let mask: Vec<bool> = mask_raw.iter().map(|&x| x == 1).collect();
                apply_recompute(&mut sched, &mask);
                (
                    sched,
                    StageCosts::new(f, b, comm_tenths as f64 * 1e-4),
                    mask,
                )
            })
    })
}

fn db(mbs: usize) -> CostDb {
    CostDb::build(
        &zoo::gpt2_1_3b(),
        &Hardware::rtx3090_cluster(),
        mbs,
        true,
        Granularity::SubLayer,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A recompute-lowered schedule of any family still validates, the
    /// lowering round-trips the mask, and the generic replay reproduces the
    /// event simulator bit-for-bit on it.
    #[test]
    fn recompute_schedules_replay_bit_identically((sched, costs, mask) in masked_family()) {
        validate(&sched).expect("masked schedules must validate");
        prop_assert_eq!(recompute_mask(&sched), mask);
        let ec = EventCosts::from_stage_costs(&costs, costs.comm.min(30e-6));
        let cfg = EventConfig { kernel_overhead: 1e-5, ..EventConfig::default() };
        let event = run_schedule(&sched, &ec, &cfg).unwrap();
        let mut scratch = ReplayScratch::new();
        let fast = replay_schedule(&sched, &ec, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(
            fast.iteration_time.to_bits(),
            event.iteration_time.to_bits(),
            "fast {} vs event {}", fast.iteration_time, event.iteration_time
        );
        prop_assert_eq!(fast.startup_overhead.to_bits(), event.startup_overhead.to_bits());
        for d in 0..sched.n_devices {
            prop_assert_eq!(fast.device_busy[d].to_bits(), event.device_busy[d].to_bits());
        }
    }

    /// On 1F1B the masked analytic tiers (exact replay and the fast
    /// single-pass sweep) are bit-identical to each other and to the event
    /// simulator driving the `Recompute`-lowered schedule.
    #[test]
    fn masked_analytic_tiers_match_event(
        p in 2usize..=8,
        m in 1usize..=12,
        fs in proptest::collection::vec(1e-3f64..3.0, 8),
        bs in proptest::collection::vec(1e-3f64..6.0, 8),
        mask_bits in proptest::collection::vec(0usize..2, 8),
    ) {
        let costs = StageCosts::new(fs[..p].to_vec(), bs[..p].to_vec(), 0.0);
        let mask: Vec<bool> = mask_bits[..p].iter().map(|&x| x == 1).collect();
        let analytic = simulate_replay_masked(&costs, m, &mut SimScratch::new(), None, Some(&mask));
        let mut scratch = SimScratch::new();
        let fast = simulate_time_masked(&costs, m, &mut scratch, None, Some(&mask));
        prop_assert_eq!(fast.iteration_time.to_bits(), analytic.iteration_time.to_bits());
        prop_assert_eq!(scratch.stage_busy(), &analytic.stage_busy[..]);

        let mut sched = one_f_one_b(p, m);
        apply_recompute(&mut sched, &mask);
        let ec = EventCosts { f: costs.f.clone(), b: costs.b.clone(), latency: 0.0, volume: 0.0 };
        let event =
            replay_schedule(&sched, &ec, &EventConfig::default(), &mut ReplayScratch::new()).unwrap();
        prop_assert_eq!(
            event.iteration_time.to_bits(),
            analytic.iteration_time.to_bits(),
            "event {} vs analytic {}", event.iteration_time, analytic.iteration_time
        );
    }

    /// `memcheck`'s program-order in-flight replay agrees exactly with the
    /// `memtrace` time-ordered allocation replay on sliced schedules with
    /// non-uniform slice patterns (k of m micro-batches halved): quanta
    /// that isolate the checkpoint term make the dynamic peak a pure
    /// multiple of the fractional in-flight count.
    #[test]
    fn sliced_in_flight_matches_memtrace(
        p in 2usize..=6,
        m_extra in 0usize..=10,
        k_pick in 0usize..=5,
        fs in proptest::collection::vec(1e-3f64..2.0, 6),
        bs in proptest::collection::vec(1e-3f64..4.0, 6),
    ) {
        let m = (p - 1).max(1) + m_extra;
        let k = k_pick.min(m).min(p - 1);
        let sched = sliced_1f1b(p, m, k);
        let costs = StageCosts::new(fs[..p].to_vec(), bs[..p].to_vec(), 1e-4);
        let ec = EventCosts::from_stage_costs(&costs, 1e-5);
        let result = run_schedule(&sched, &ec, &EventConfig::default()).unwrap();
        // Unit checkpoint of 2 bytes per micro-batch: a live half stashes
        // exactly 1 byte, so the byte peak is twice the fractional count.
        let quanta: Vec<StageQuanta> = (0..p)
            .map(|_| StageQuanta { param_state: 0, ckpt_per_mb: 2, ckpt_input: 0, working: 0 })
            .collect();
        let peaks = dynamic_peaks(&sched, &result, &quanta);
        for d in 0..p {
            let expected = (2.0 * peak_in_flight(&sched, d)).round() as u64;
            prop_assert_eq!(
                peaks[d].peak, expected,
                "device {} (p={} m={} k={}): dynamic {} vs static {}",
                d, p, m, k, peaks[d].peak, expected
            );
            prop_assert_eq!(peaks[d].residual, 0);
        }
    }
}

#[test]
fn budgeted_auto_planning_unlocks_oom_configs_deterministically() {
    // GPT-2 1.3B on two 24 GB cards: a budget below the no-recompute
    // feasibility threshold OOMs under `Off` but plans under `Auto` with a
    // non-trivial mask — and the winner is bit-identical at every thread
    // count with the budget active.
    let d = db(4);
    let hw = Hardware::rtx3090_cluster();
    // Between the full-recompute floor (~16.03e9) and the no-recompute
    // feasibility threshold (~16.66e9) measured by bench_memory.
    let budget = 16_300_000_000u64;
    let cfg = |threads: usize, recompute: RecomputePolicy| {
        FamilyConfig::for_planner(
            AutoPipeConfig {
                threads,
                memory_budget: Some(budget),
                recompute,
                ..AutoPipeConfig::default()
            },
            hw.link_latency,
        )
    };
    let off = plan_families(&d, &hw, 2, 16, &cfg(1, RecomputePolicy::Off));
    assert!(off.is_err(), "no-recompute planning must OOM at 16.3 GB");

    let auto = plan_families(&d, &hw, 2, 16, &cfg(1, RecomputePolicy::Auto)).unwrap();
    assert!(
        auto.recompute.iter().any(|&r| r),
        "the unlock must come from a recompute mask"
    );
    assert_eq!(recompute_mask(&auto.schedule), auto.recompute);
    check_memory_budget(&auto.partition, &d, &auto.schedule, budget)
        .expect("winner must fit the stated budget");
    validate(&auto.schedule).unwrap();

    for threads in [2, 4, 8] {
        let t = plan_families(&d, &hw, 2, 16, &cfg(threads, RecomputePolicy::Auto)).unwrap();
        assert_eq!(t.schedule, auto.schedule, "threads={threads}");
        assert_eq!(t.partition, auto.partition, "threads={threads}");
        assert_eq!(
            t.iteration_time.to_bits(),
            auto.iteration_time.to_bits(),
            "threads={threads}"
        );
    }
}

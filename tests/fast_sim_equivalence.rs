//! Equivalence of the fast-tier simulator with the full replay (and, where
//! its assumptions hold, the paper's closed-form recurrences).
//!
//! The contract `simulate_time` ships with is *bit-exactness*: every end
//! time is produced by the same float expressions in the same order as
//! `simulate_replay`, so iteration time and startup overhead match to the
//! last bit and the master stage follows the identical tie rules. These
//! properties drive randomized pipelines through both engines — including
//! degenerate near-zero stages, m < n pipelines and zero communication —
//! and require agreement far below the issue's 1e-12 bar.

use proptest::prelude::*;

use autopipe_schedule::{
    gpipe, interleaved, one_f_one_b, sliced_1f1b, validate, zero_bubble, Schedule,
};
use autopipe_sim::analytic::{
    recurrence, simulate_replay, simulate_replay_masked, simulate_time, simulate_time_masked,
    OverlapModel, SimScratch,
};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe_sim::{replay_schedule, CommConfig, ReplayScratch, StageCosts};

/// Fully random pipelines: any depth 1..=8, any m 1..=32 (including m < n),
/// stage times spanning four orders of magnitude down to near-zero.
fn wild_costs() -> impl Strategy<Value = (StageCosts, usize)> {
    (1usize..=8, 1usize..=32, 0usize..=100).prop_flat_map(|(p, m, comm_tenths_ms)| {
        (
            proptest::collection::vec(1e-4f64..3.0, p),
            proptest::collection::vec(1e-4f64..6.0, p),
            Just(m),
            Just(comm_tenths_ms),
        )
            .prop_map(move |(f, b, m, comm_tenths_ms)| {
                (StageCosts::new(f, b, comm_tenths_ms as f64 * 1e-4), m)
            })
    })
}

/// Pipelines with some stages squashed to (near-)zero work — the degenerate
/// shapes that exercise the master-stage fallback paths.
fn degenerate_costs() -> impl Strategy<Value = (StageCosts, usize)> {
    (2usize..=6, 1usize..=16, 0usize..=63).prop_flat_map(|(p, m, mask)| {
        (
            proptest::collection::vec(0.5f64..2.0, p),
            proptest::collection::vec(0.5f64..2.0, p),
            Just(m),
            Just(mask),
        )
            .prop_map(move |(mut f, mut b, m, mask)| {
                for x in 0..f.len() {
                    if mask & (1 << x) != 0 {
                        f[x] = 1e-15;
                        b[x] = 1e-15;
                    }
                }
                (StageCosts::new(f, b, 0.0), m)
            })
    })
}

/// Well-conditioned pipelines (m ≥ n, bounded imbalance) where the paper's
/// closed-form recurrence is a valid description of the schedule.
fn recurrence_friendly_costs() -> impl Strategy<Value = (StageCosts, usize)> {
    (2usize..=6, 0usize..=16, 0usize..=20).prop_flat_map(|(p, m_extra, comm_milli)| {
        (
            proptest::collection::vec(0.5f64..1.5, p),
            proptest::collection::vec(1.0f64..3.0, p),
            Just(p + m_extra),
            Just(comm_milli),
        )
            .prop_map(move |(f, b, m, comm_milli)| {
                (StageCosts::new(f, b, comm_milli as f64 * 1e-3), m)
            })
    })
}

/// One fast-tier call in any of its modes.
type ModalCase = (StageCosts, usize, Option<OverlapModel>, Option<Vec<bool>>);

/// A random pipeline in a random mode: blocking or overlapped (1..=8
/// chunks), with or without a recompute mask, and with a random subset of
/// the stage times set to exactly 0.0 — zero-duration ops tie their
/// predecessor's end time, which is where the iteration-end anchor's
/// "last maximal op" rule decides.
fn modal_case() -> impl Strategy<Value = ModalCase> {
    (
        (1usize..=8, 1usize..=24, 0usize..=100),
        (0usize..=8, 0usize..3, 0usize..256),
        (0usize..65536, 0usize..65536),
    )
        .prop_flat_map(
            |((p, m, comm_tenths_ms), (k, mask_sel, mask_bits), (z1, z2))| {
                (
                    proptest::collection::vec(1e-4f64..3.0, p),
                    proptest::collection::vec(1e-4f64..6.0, p),
                )
                    .prop_map(move |(mut f, mut b)| {
                        // Two independent draws ANDed: each time is zero with
                        // probability 1/4.
                        let zeros = z1 & z2;
                        for x in 0..p {
                            if zeros & (1 << x) != 0 {
                                f[x] = 0.0;
                            }
                            if zeros & (1 << (8 + x)) != 0 {
                                b[x] = 0.0;
                            }
                        }
                        let comm = comm_tenths_ms as f64 * 1e-4;
                        let overlap = (k > 0).then_some(OverlapModel {
                            latency: comm.min(30e-6),
                            chunks: k,
                        });
                        let mask = (mask_sel > 0)
                            .then(|| (0..p).map(|x| mask_bits & (1 << x) != 0).collect());
                        (StageCosts::new(f, b, comm), m, overlap, mask)
                    })
            },
        )
}

fn assert_fast_matches_replay(costs: &StageCosts, m: usize) -> Result<(), String> {
    let full = simulate_replay(costs, m);
    let mut scratch = SimScratch::new();
    let fast = simulate_time(costs, m, &mut scratch);
    prop_assert_eq!(
        fast.iteration_time.to_bits(),
        full.iteration_time.to_bits(),
        "iteration time: fast {} vs replay {}",
        fast.iteration_time,
        full.iteration_time
    );
    prop_assert_eq!(
        fast.startup_overhead.to_bits(),
        full.startup_overhead.to_bits()
    );
    prop_assert_eq!(fast.master_stage, full.master_stage);
    prop_assert_eq!(scratch.stage_busy(), &full.stage_busy[..]);
    Ok(())
}

/// A random schedule from any family the IR can generate, with stage costs
/// sized to its stage count (`p·v` for interleaved, `p` otherwise).
fn any_family() -> impl Strategy<Value = (Schedule, StageCosts)> {
    (0usize..5, 2usize..=6, 2usize..=4, 0usize..=20).prop_flat_map(|(fam, p, v, comm_tenths_ms)| {
        (1usize..=16).prop_flat_map(move |m_extra| {
            // Family-specific floors: slicing needs m ≥ slice count,
            // interleaving needs m to be a multiple of the depth.
            let m = match fam {
                1 => m_extra.max(2),
                2 => p * (1 + m_extra % 4),
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
                Just(comm_tenths_ms),
            )
                .prop_map(move |(sched, f, b, comm)| {
                    (sched, StageCosts::new(f, b, comm as f64 * 1e-4))
                })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every family the IR generates validates, and the generic fast-tier
    /// replay reproduces the event simulator bit-for-bit on it — split
    /// backwards, slicing, interleaving and all, with and without jitter
    /// (the same seed draws the same stream in the same sweep order).
    #[test]
    fn every_family_validates_and_replays_bit_identically(
        (sched, costs) in any_family(),
        jittered in 0usize..=1,
    ) {
        validate(&sched).expect("generated schedules must validate");
        let ec = EventCosts::from_stage_costs(&costs, costs.comm.min(30e-6));
        let cfg = EventConfig {
            kernel_overhead: 1e-5,
            jitter_sigma: 0.02 * jittered as f64,
            ..EventConfig::default()
        };
        let event = run_schedule(&sched, &ec, &cfg).unwrap();
        let mut scratch = ReplayScratch::new();
        let fast = replay_schedule(&sched, &ec, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(
            fast.iteration_time.to_bits(),
            event.iteration_time.to_bits(),
            "iteration time: fast {} vs event {}",
            fast.iteration_time,
            event.iteration_time
        );
        prop_assert_eq!(
            fast.startup_overhead.to_bits(),
            event.startup_overhead.to_bits()
        );
        for d in 0..sched.n_devices {
            prop_assert_eq!(fast.device_busy[d].to_bits(), event.device_busy[d].to_bits());
        }
    }

    /// Fast tier ≡ full replay, bitwise, on arbitrary pipelines.
    #[test]
    fn fast_tier_is_bit_identical_to_replay((costs, m) in wild_costs()) {
        assert_fast_matches_replay(&costs, m)?;
    }

    /// ... including pipelines with degenerate (near-zero) stages.
    #[test]
    fn fast_tier_handles_degenerate_stages((costs, m) in degenerate_costs()) {
        assert_fast_matches_replay(&costs, m)?;
    }

    /// One scratch buffer survives arbitrary problem-size sequences.
    #[test]
    fn scratch_reuse_never_contaminates_results(
        cases in proptest::collection::vec(wild_costs(), 1..6)
    ) {
        let mut scratch = SimScratch::new();
        for (costs, m) in &cases {
            let full = simulate_replay(costs, *m);
            let fast = simulate_time(costs, *m, &mut scratch);
            prop_assert_eq!(fast.iteration_time.to_bits(), full.iteration_time.to_bits());
            prop_assert_eq!(fast.master_stage, full.master_stage);
        }
    }

    /// One scratch serving a random sequence of `(n, m, overlap, mask)`
    /// calls — the cached sweep order must re-key whenever `(n, m)` moves
    /// and must not care when only the mode does — stays bit-equal to the
    /// full replay, zero-duration stages included.
    #[test]
    fn one_scratch_rekeys_across_sizes_and_modes(
        cases in proptest::collection::vec(modal_case(), 1..8)
    ) {
        let mut scratch = SimScratch::new();
        // Run the sequence twice so every case is also reached from the
        // last one's key.
        for (costs, m, overlap, mask) in cases.iter().chain(cases.iter()) {
            let full = simulate_replay_masked(
                costs,
                *m,
                &mut SimScratch::new(),
                overlap.as_ref(),
                mask.as_deref(),
            );
            let fast =
                simulate_time_masked(costs, *m, &mut scratch, overlap.as_ref(), mask.as_deref());
            prop_assert_eq!(
                fast.iteration_time.to_bits(),
                full.iteration_time.to_bits(),
                "iteration time: fast {} vs replay {} ({:?}, m={}, {:?}, {:?})",
                fast.iteration_time,
                full.iteration_time,
                costs,
                m,
                overlap,
                mask
            );
            prop_assert_eq!(
                fast.startup_overhead.to_bits(),
                full.startup_overhead.to_bits()
            );
            prop_assert_eq!(
                fast.master_stage,
                full.master_stage,
                "master stage ({:?}, m={}, {:?}, {:?})",
                costs,
                m,
                overlap,
                mask
            );
            prop_assert_eq!(scratch.stage_busy(), &full.stage_busy[..]);
        }
    }

    /// The overlapped comm lane preserves the whole-family bit-identity:
    /// the generic fast-tier replay reproduces the event simulator's eager
    /// chunked sends exactly, for every family and chunking factor.
    #[test]
    fn every_family_replays_bit_identically_with_overlap_on(
        (sched, costs) in any_family(),
        k in 1usize..=8,
    ) {
        let ec = EventCosts::from_stage_costs(&costs, costs.comm.min(30e-6));
        let cfg = EventConfig {
            kernel_overhead: 1e-5,
            comm: CommConfig::overlapped(k),
            ..EventConfig::default()
        };
        let event = run_schedule(&sched, &ec, &cfg).unwrap();
        let mut scratch = ReplayScratch::new();
        let fast = replay_schedule(&sched, &ec, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(
            fast.iteration_time.to_bits(),
            event.iteration_time.to_bits(),
            "iteration time: fast {} vs event {} (k={})",
            fast.iteration_time,
            event.iteration_time,
            k
        );
        prop_assert_eq!(
            fast.startup_overhead.to_bits(),
            event.startup_overhead.to_bits()
        );
        for d in 0..sched.n_devices {
            prop_assert_eq!(fast.device_busy[d].to_bits(), event.device_busy[d].to_bits());
        }
    }

    /// The analytic tiers agree bitwise with each other under overlap on
    /// arbitrary pipelines, and with one chunk the overlapped model can
    /// never be slower than blocking (same wire schedule, device freed
    /// early).
    #[test]
    fn overlapped_analytic_tiers_agree_bitwise((costs, m) in wild_costs(), k in 1usize..=8) {
        let ov = OverlapModel { latency: costs.comm.min(30e-6), chunks: k };
        let full = simulate_replay_masked(&costs, m, &mut SimScratch::new(), Some(&ov), None);
        let mut scratch = SimScratch::new();
        let fast = simulate_time_masked(&costs, m, &mut scratch, Some(&ov), None);
        prop_assert_eq!(
            fast.iteration_time.to_bits(),
            full.iteration_time.to_bits(),
            "iteration time: fast {} vs replay {} (k={})",
            fast.iteration_time,
            full.iteration_time,
            k
        );
        prop_assert_eq!(
            fast.startup_overhead.to_bits(),
            full.startup_overhead.to_bits()
        );
        prop_assert_eq!(fast.master_stage, full.master_stage);
        if k == 1 {
            let blocking = simulate_replay(&costs, m);
            prop_assert!(
                fast.iteration_time <= blocking.iteration_time + 1e-12,
                "1-chunk overlap {} must not lose to blocking {}",
                fast.iteration_time,
                blocking.iteration_time
            );
        }
    }

    /// Where the closed-form recurrence's assumptions hold (m ≥ n, bounded
    /// imbalance), the fast tier stays within the recurrence's documented
    /// tolerance of it — transitively pinning all three engines together.
    #[test]
    fn fast_tier_tracks_recurrence((costs, m) in recurrence_friendly_costs()) {
        let mut scratch = SimScratch::new();
        let fast = simulate_time(&costs, m, &mut scratch);
        let r = recurrence::simulate(&costs, m);
        let tol = (2.0 * m as f64 + 2.0 * costs.n_stages() as f64 + 2.0) * costs.comm
            + 0.02 * fast.iteration_time + 1e-9;
        prop_assert!(
            (fast.iteration_time - r.iteration_time).abs() <= tol,
            "fast {} vs recurrence {} (tol {})", fast.iteration_time, r.iteration_time, tol
        );
    }
}

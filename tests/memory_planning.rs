//! Memory-aware planning properties: recompute-lowered schedules simulate
//! bit-identically in the event simulator, its replay and the analytic
//! sweep for every family; the threaded runtime's measured peak of stashed
//! micro-batches equals `memcheck`'s in-flight count on every family, mask
//! and slice pattern; and budgeted planning stays deterministic while
//! unlocking configs the no-recompute planner rejects.

use proptest::prelude::*;

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity, ModelConfig, ModelFamily};
use autopipe_planner::family::{plan_families, FamilyConfig};
use autopipe_planner::{AutoPipeConfig, RecomputePolicy};
use autopipe_runtime::{BatchSet, Pipeline, PipelineConfig};
use autopipe_schedule::{
    apply_recompute, gpipe, interleaved, one_f_one_b, recompute_mask, sliced_1f1b, validate,
    zero_bubble, Schedule,
};
use autopipe_sim::analytic::{simulate_replay_masked, simulate_time_masked, SimScratch};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe_sim::memcheck::{check_memory_budget, peak_in_flight};
use autopipe_sim::{replay_schedule, Partition, ReplayScratch, StageCosts};

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
}

/// The grid of [`runtime_peak_in_flight_equals_memcheck`]: every family at
/// p ∈ {2, 4} and m ∈ {1, 2, 4, 8} — 1F1B, GPipe, zero-bubble, sliced 1F1B
/// with every k ≤ min(m, p) (m ≥ 2), and interleaved v = 2 where p divides
/// m — under no, every and every other stage's recompute.
fn memory_grid() -> Vec<Schedule> {
    let mut grid = Vec::new();
    for p in [2, 4] {
        for m in [1, 2, 4, 8] {
            let mut families = vec![one_f_one_b(p, m), gpipe(p, m), zero_bubble(p, m)];
            if m >= 2 {
                families.extend((0..=m.min(p)).map(|k| sliced_1f1b(p, m, k)));
            }
            if m % p == 0 {
                families.push(interleaved(p, 2, m).expect("p divides m"));
            }
            for sched in families {
                let n = sched.n_stages();
                for mask in [
                    vec![false; n],
                    vec![true; n],
                    (0..n).map(|s| s % 2 == 0).collect(),
                ] {
                    let mut masked = sched.clone();
                    apply_recompute(&mut masked, &mask);
                    grid.push(masked);
                }
            }
        }
    }
    grid
}

/// The runtime is the reference for `memcheck`: on every grid point, with
/// activation checkpointing off and on, each device's measured peak of
/// stashed micro-batches (a record per forwarded part, closed by the fused
/// backward or the grad-weight) equals `peak_in_flight` exactly — halves
/// are dyadic, so the sums are exact — and a successful iteration closes
/// every record it opened (a record live at the end fails it).
#[test]
fn runtime_peak_in_flight_equals_memcheck() {
    // Four layers lower to 11 blocks: enough for p = 4, v = 2.
    let model = ModelConfig {
        name: "memory grid".into(),
        family: ModelFamily::Gpt2,
        num_layers: 4,
        hidden_size: 16,
        num_heads: 2,
        seq_len: 8,
        vocab_size: 40,
        ffn_mult: 2,
    };
    let blocks = autopipe_model::build_blocks(&model, Granularity::SubLayer).len();
    let mut points = 0;
    for sched in memory_grid() {
        let m = sched.n_microbatches;
        let batch = BatchSet::synthetic(7, m, 2, model.seq_len, model.vocab_size);
        for checkpointing in [false, true] {
            let mut pipe = Pipeline::try_new(&PipelineConfig {
                model: model.clone(),
                partition: Partition::even(blocks, sched.n_stages()),
                schedule: sched.clone(),
                lr: 1e-3,
                seed: 3,
                checkpointing,
            })
            .expect("valid pipeline config");
            pipe.forward_backward(&batch)
                .unwrap_or_else(|e| panic!("{:?} ckpt={checkpointing}: {e:?}", sched.kind));
            let peaks = pipe.last_peak_in_flight().expect("peak after an iteration");
            for (d, &peak) in peaks.iter().enumerate() {
                assert_eq!(
                    peak,
                    peak_in_flight(&sched, d),
                    "{:?} p={} m={m} k={} mask={:?} ckpt={checkpointing} device {d}",
                    sched.kind,
                    sched.n_devices,
                    sched.n_sliced,
                    recompute_mask(&sched),
                );
                points += 1;
            }
        }
    }
    assert_eq!(points, 936, "device × config points");
}

#[test]
fn budgeted_auto_planning_unlocks_oom_configs_deterministically() {
    // GPT-2 1.3B on two 24 GB cards: a budget below the no-recompute
    // feasibility threshold OOMs under `Off` but plans under `Auto` with a
    // non-trivial mask — and a repeated search returns the bit-identical
    // winner with the budget active.
    let d = db(4);
    let hw = Hardware::rtx3090_cluster();
    // Between the full-recompute floor (~16.03e9) and the no-recompute
    // feasibility threshold (~16.66e9) measured by bench_memory.
    let budget = 16_300_000_000u64;
    let cfg = |recompute: RecomputePolicy| {
        FamilyConfig::for_planner(
            AutoPipeConfig {
                memory_budget: Some(budget),
                recompute,
                ..AutoPipeConfig::default()
            },
            hw.link_latency,
        )
    };
    let off = plan_families(&d, &hw, 2, 16, &cfg(RecomputePolicy::Off));
    assert!(off.is_err(), "no-recompute planning must OOM at 16.3 GB");

    let auto = plan_families(&d, &hw, 2, 16, &cfg(RecomputePolicy::Auto)).unwrap();
    assert!(
        auto.recompute.iter().any(|&r| r),
        "the unlock must come from a recompute mask"
    );
    assert_eq!(recompute_mask(&auto.schedule), auto.recompute);
    check_memory_budget(&auto.partition, &d, &auto.schedule, budget)
        .expect("winner must fit the stated budget");
    validate(&auto.schedule).unwrap();

    let again = plan_families(&d, &hw, 2, 16, &cfg(RecomputePolicy::Auto)).unwrap();
    assert_eq!(again.schedule, auto.schedule);
    assert_eq!(again.partition, auto.partition);
    assert_eq!(
        again.iteration_time.to_bits(),
        auto.iteration_time.to_bits()
    );
}

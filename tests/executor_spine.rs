//! Cross-executor consistency — the guarantee the shared executor spine
//! exists to provide.
//!
//! Both executors (the discrete-event simulator in `autopipe-sim` and the
//! threaded runtime in `autopipe-runtime`) emit the same
//! [`autopipe_exec::Timeline`] format. That makes three cross-checks
//! possible:
//!
//! 1. The same [`Schedule`] produces **identical per-device op orderings**
//!    in the event simulator and the threaded runtime (compared with
//!    [`Timeline::same_op_order`]).
//! 2. Both orderings are exactly the schedule's own program order — the
//!    executors add timing, never reorder.
//! 3. The analytic pipeline simulator's critical path (§III-B.1) lands on
//!    the event simulator's timeline within floating-point tolerance.

use autopipe_exec::{CommConfig, Timeline};
use autopipe_model::{build_blocks, zoo, Granularity, ModelConfig, ModelFamily};
use autopipe_runtime::{BatchSet, Pipeline, PipelineConfig};
use autopipe_schedule::{
    gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble, OpKind, Part, Schedule,
};
use autopipe_sim::analytic::simulate_replay;
use autopipe_sim::{run_schedule, EventConfig, EventCosts, OpClass, Partition, StageCosts};

fn tiny() -> ModelConfig {
    ModelConfig {
        name: "tiny".into(),
        family: ModelFamily::Gpt2,
        num_layers: 2,
        hidden_size: 16,
        num_heads: 2,
        seq_len: 8,
        vocab_size: 40,
        ffn_mult: 2,
    }
}

/// Run `sched` through the threaded runtime on `model` and return its
/// timeline.
fn runtime_timeline(
    model: ModelConfig,
    sched: &Schedule,
    partition: Vec<usize>,
    mbs: usize,
) -> Timeline {
    let m = sched.n_microbatches;
    let batch = BatchSet::synthetic(21, m, mbs, model.seq_len, model.vocab_size);
    let mut pipe = Pipeline::try_new(&PipelineConfig {
        model,
        partition: Partition::new(partition),
        schedule: sched.clone(),
        lr: 1e-3,
        seed: 42,
        checkpointing: false,
    })
    .expect("valid pipeline config");
    pipe.forward_backward(&batch).expect("iteration completes");
    pipe.last_timeline()
        .expect("timeline after iteration")
        .clone()
}

/// Run `sched` through the event simulator (uniform costs) under the comm
/// engine `comm` and return its timeline.
fn simulated_timeline(sched: &Schedule, comm: CommConfig) -> Timeline {
    let n = sched.n_stages();
    let costs = EventCosts {
        f: vec![1.0; n],
        b: vec![2.0; n],
        latency: 0.001,
        volume: 0.05,
    };
    let cfg = EventConfig {
        comm,
        ..EventConfig::default()
    };
    run_schedule(sched, &costs, &cfg).unwrap().timeline
}

fn assert_consistent(sched: &Schedule, partition: Vec<usize>, mbs: usize) {
    assert_consistent_on(tiny(), sched, partition, mbs);
}

fn assert_consistent_on(model: ModelConfig, sched: &Schedule, partition: Vec<usize>, mbs: usize) {
    let real = runtime_timeline(model, sched, partition, mbs);
    // Check 1: wall-clock execution and virtual-time simulation ran the
    // exact same per-device op sequences — under both simulated comm
    // engines, since overlap moves wire time, never ops.
    for comm in [CommConfig::default(), CommConfig::overlapped(4)] {
        let sim = simulated_timeline(sched, comm);
        real.same_op_order(&sim)
            .unwrap_or_else(|divergence| panic!("runtime vs simulator ({comm:?}): {divergence}"));
    }
    // Check 2: and that sequence is the schedule's program order.
    for (d, ops) in sched.devices.iter().enumerate() {
        assert_eq!(real.op_order(d), *ops, "device {d} diverged from program");
    }
}

#[test]
fn one_f_one_b_runs_identically_on_both_executors() {
    // Two devices over the 7-block tiny model.
    assert_consistent(&one_f_one_b(2, 4), vec![0, 3, 7], 2);
    // `gpt2_tiny` at both widths a two-device elastic session serves at.
    let model = zoo::gpt2_tiny();
    let n = build_blocks(&model, Granularity::SubLayer).len();
    for (p, partition) in [(1, vec![0, n]), (2, vec![0, n / 2, n])] {
        assert_consistent_on(model.clone(), &one_f_one_b(p, 4), partition, 2);
    }
}

#[test]
fn sliced_1f1b_runs_identically_on_both_executors() {
    // Four stages, two sliced micro-batches: exercises Half1/Half2 sends
    // and the aggregated `Part::Both` message of the last sliced
    // micro-batch (§III-C) on both executors.
    assert_consistent(&sliced_1f1b(4, 6, 2), vec![0, 2, 4, 6, 7], 4);
}

#[test]
fn gpipe_runs_identically_on_both_executors() {
    assert_consistent(&gpipe(2, 4), vec![0, 3, 7], 2);
}

#[test]
fn zero_bubble_runs_identically_on_both_executors() {
    // Split backward: BwdInput/BwdWeight interleave through steady state
    // and the weight-grad drain tail, on both executors.
    assert_consistent(&zero_bubble(2, 4), vec![0, 3, 7], 2);
}

#[test]
fn interleaved_runs_identically_on_both_executors() {
    // Two devices × two chunks over the 7-block tiny model: four
    // chunk-stages, cross-device chunk hand-offs in both directions.
    assert_consistent(&interleaved(2, 2, 4).unwrap(), vec![0, 2, 4, 6, 7], 2);
}

#[test]
fn split_backward_trains_bit_identically_to_fused() {
    // The capstone bit-identity check: zero-bubble's split backward
    // (BwdInput + stashed BwdWeight) must produce the same losses and the
    // same parameters as fused-backward 1F1B, to the last bit, because
    // grad accumulation happens in the same order on the same floats.
    let model = tiny();
    let m = 4;
    let batch = BatchSet::synthetic(33, m, 2, model.seq_len, model.vocab_size);
    let run = |sched: Schedule| {
        let mut pipe = Pipeline::try_new(&PipelineConfig {
            model: model.clone(),
            partition: Partition::new(vec![0, 3, 7]),
            schedule: sched,
            lr: 1e-3,
            seed: 42,
            checkpointing: false,
        })
        .expect("valid pipeline config");
        let mut losses = Vec::new();
        for _ in 0..3 {
            losses.push(pipe.train_iteration(&batch).expect("iteration").loss);
        }
        (losses, pipe.param_checksum())
    };
    let (fused_losses, fused_ck) = run(one_f_one_b(2, m));
    let (split_losses, split_ck) = run(zero_bubble(2, m));
    assert_eq!(fused_losses, split_losses);
    assert_eq!(fused_ck.to_bits(), split_ck.to_bits());
}

#[test]
fn analytic_critical_path_lands_on_the_event_timeline() {
    // Unbalanced stages so the critical path is non-trivial; zero latency
    // so the analytic scalar comm cost equals the event transfer cost.
    let m = 6;
    let sc = StageCosts::new(vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 0.05);
    let analytic = simulate_replay(&sc, m);
    let ec = EventCosts::from_stage_costs(&sc, 0.0);
    let event = run_schedule(&one_f_one_b(4, m), &ec, &EventConfig::default()).unwrap();

    assert!(
        (analytic.iteration_time - event.iteration_time).abs() < 1e-9,
        "iteration: analytic {} vs event {}",
        analytic.iteration_time,
        event.iteration_time
    );

    // Every op on the analytic critical path must appear on the event
    // timeline at the same start/end (1 chunk per device, so the op's
    // stage IS its device).
    assert!(!analytic.critical_path.is_empty());
    for &idx in &analytic.critical_path {
        let op = analytic.ops[idx];
        let ev = event
            .timeline
            .device(op.stage)
            .find(|e| match (op.class, e.op.kind) {
                (OpClass::Fwd, OpKind::Fwd { mb, part, .. }) => mb == op.mb && part == Part::Full,
                (OpClass::Bwd, OpKind::Bwd { mb, .. }) => mb == op.mb,
                _ => false,
            })
            .unwrap_or_else(|| {
                panic!(
                    "critical-path op {:?} mb {} missing on device {}",
                    op.class, op.mb, op.stage
                )
            });
        assert!(
            (op.start - ev.start).abs() < 1e-9 && (op.end - ev.end).abs() < 1e-9,
            "critical-path op {:?} mb {} stage {}: analytic [{}, {}] vs event [{}, {}]",
            op.class,
            op.mb,
            op.stage,
            op.start,
            op.end,
            ev.start,
            ev.end
        );
    }
}

//! Fault-tolerance properties through the `autopipe::Session` facade: fault
//! scripts are pure time perturbations. Across many random seeded scripts
//! the runtime's losses and parameter checksum stay bit-identical to a
//! fault-free run, and injected stalls surface as structured watchdog
//! reports instead of hangs; on the event simulator the same kind of scripts
//! at paper scale never deadlock, reorder or speed up the pipeline. One
//! script replayed on both executors runs the same ops in the same order
//! and, when it kills a device, kills the same device at the same op.

use autopipe::{PlannedSession, Session};
use autopipe_exec::{FaultPlan, FaultSpec, StageStall};
use autopipe_model::{zoo, ModelConfig, ModelFamily};
use autopipe_runtime::{BatchSet, Pipeline, PipelineConfig, RuntimeError, WatchdogConfig};
use autopipe_schedule::{sliced_1f1b, OpKind};
use autopipe_sim::{
    run_schedule, run_schedule_failstop, run_schedule_faulty, EventConfig, EventCosts, Partition,
};
use std::time::Duration;

const P: usize = 2;
const M: usize = 4;

/// A deliberately minuscule GPT so 50+ full training runs fit in a debug
/// test binary: 2 layers -> 7 sub-layer blocks, plenty for a 2-stage
/// pipeline.
fn micro_gpt() -> ModelConfig {
    ModelConfig {
        name: "GPT-2 micro (fault tests)".into(),
        family: ModelFamily::Gpt2,
        num_layers: 2,
        hidden_size: 32,
        num_heads: 2,
        seq_len: 16,
        vocab_size: 64,
        ffn_mult: 4,
    }
}

/// Plan once; every fault script re-arms a clone of the planned session.
fn planned() -> PlannedSession {
    Session::for_model(micro_gpt())
        .stages(P)
        .microbatches(M)
        .microbatch_size(2)
        .seed(13)
        .iterations(2)
        .plan()
        .unwrap()
        .slice()
        .unwrap()
}

/// The headline property: 50 random fault scripts — link delay spikes,
/// drops with redelivery, stage stragglers and stalls — change when things
/// happen, never what is computed.
#[test]
fn fifty_random_fault_scripts_never_change_numerics() {
    let base = planned();
    let program_len = base
        .plan()
        .schedule
        .devices
        .iter()
        .map(Vec::len)
        .max()
        .unwrap();
    let clean = base.clone().run().unwrap();
    let spec = FaultSpec::new(P, program_len, 1.0);
    for seed in 0..50u64 {
        // Virtual fault seconds -> tens of microseconds of real sleep.
        let faulty = base
            .clone()
            .faults(FaultPlan::random(seed, &spec), 2e-5)
            .run()
            .unwrap();
        assert_eq!(
            clean.losses, faulty.losses,
            "seed {seed}: losses drifted under faults"
        );
        assert_eq!(
            clean.param_checksum.to_bits(),
            faulty.param_checksum.to_bits(),
            "seed {seed}: params drifted under faults"
        );
        assert!(
            faulty.fault_report.is_none_or(|r| !r.aborted),
            "seed {seed}: the run aborted"
        );
    }
}

/// The simulator side, at paper scale: 50 random fault scripts against GPT-2
/// 345M on a 4-stage sliced pipeline all complete (a lost dependency would
/// error out of the event simulator), keep the fault-free per-device op
/// order, and never finish before the fault-free run.
#[test]
fn fifty_random_fault_scripts_only_move_simulated_time() {
    let base = Session::for_model(zoo::gpt2_345m())
        .stages(4)
        .microbatches(8)
        .microbatch_size(4)
        .plan()
        .unwrap()
        .slice()
        .unwrap();
    assert!(base.plan().n_sliced >= 1, "the campaign runs sliced");
    let sched = &base.plan().schedule;
    let program_len = sched.devices.iter().map(Vec::len).max().unwrap();
    // Fault magnitudes in units of the mean stage forward time, so the
    // scripts meaningfully perturb the 345M timeline.
    let fwd = base.plan().partition.stage_costs(base.cost_db()).f;
    let spec = FaultSpec::new(4, program_len, fwd.iter().sum::<f64>() / 4.0);
    let mut slowed = 0;
    for seed in 0..50u64 {
        let sim = base
            .clone()
            .faults(FaultPlan::random(seed, &spec), 0.0)
            .simulate()
            .unwrap_or_else(|e| panic!("seed {seed} deadlocked: {e}"));
        let faulty = sim.faulty.expect("a script was set");
        if let Err(e) = sim.clean.timeline.same_op_order(&faulty.timeline) {
            panic!("seed {seed} reordered ops: {e}");
        }
        assert!(
            faulty.iteration_time >= sim.clean.iteration_time - 1e-9,
            "seed {seed}: faults sped the pipeline up"
        );
        slowed += usize::from(faulty.iteration_time > sim.clean.iteration_time);
    }
    assert!(slowed > 0, "no script perturbed the timeline at all");
}

/// An injected stall long past the watchdog's first deadline produces a
/// structured report (the firing, resolved) and clean numerics — not a
/// hang, not an abort.
#[test]
fn watchdog_reports_injected_stalls_through_the_facade() {
    let base = planned();
    let clean = base.clone().run().unwrap();
    let stall = FaultPlan {
        stalls: vec![StageStall {
            device: 0,
            op_index: 2,
            pause: 1.0,
        }],
        ..FaultPlan::none()
    };
    let faulty = base
        .faults(stall, 0.05) // the stall sleeps ~50 ms per iteration
        .watchdog(WatchdogConfig {
            base_timeout: Duration::from_millis(5),
            slack: 4.0,
            backoff: 2.0,
            max_retries: 40,
            jitter_seed: 0,
        })
        .run()
        .unwrap();
    let report = faulty.fault_report.expect("stall must produce a report");
    assert!(!report.events.is_empty(), "watchdog never fired: {report}");
    assert!(!report.aborted, "watchdog failed to ride out the stall");
    assert_eq!(clean.losses, faulty.losses);
    assert_eq!(
        clean.param_checksum.to_bits(),
        faulty.param_checksum.to_bits()
    );
}

/// A four-stage sliced pipeline on [`micro_gpt`], driven directly.
fn micro_pipeline() -> Pipeline {
    Pipeline::try_new(&PipelineConfig {
        model: micro_gpt(),
        partition: Partition::new(vec![0, 2, 4, 6, 7]),
        schedule: sliced_1f1b(4, M, 2),
        lr: 1e-3,
        seed: 5,
        checkpointing: false,
    })
    .unwrap()
}

/// Uniform costs for [`micro_pipeline`]'s schedule on the event simulator.
fn micro_costs() -> EventCosts {
    EventCosts {
        f: vec![1.0; 4],
        b: vec![2.0; 4],
        latency: 0.01,
        volume: 0.05,
    }
}

/// One fault script, two executors. Delay scripts finish on both with the
/// same per-device op order; a fail-stop script either never fires on
/// either, or kills the same device at the same op with the same kind on
/// both, and the runtime never gets further than the simulator, which
/// drains the survivors as far as they can go.
#[test]
fn one_fault_script_replays_alike_on_both_executors() {
    let mut pipe = micro_pipeline();
    let sched = pipe.schedule().clone();
    let costs = micro_costs();
    let cfg = EventConfig::default();
    let model = micro_gpt();
    let batch = BatchSet::synthetic(3, M, 2, model.seq_len, model.vocab_size);
    let program_len = sched.devices.iter().map(Vec::len).max().unwrap();
    let spec = FaultSpec::new(4, program_len, 1.0);

    for seed in 0..10u64 {
        let plan = FaultPlan::random(seed, &spec);
        let sim = run_schedule_faulty(&sched, &costs, &cfg, &plan).unwrap();
        pipe.set_faults(plan, 2e-5);
        pipe.forward_backward(&batch)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let ran = pipe
            .last_timeline()
            .expect("a timeline after a finished iteration");
        if let Err(e) = sim.timeline.same_op_order(ran) {
            panic!("seed {seed}: the executors ran different ops: {e}");
        }
    }

    let mut fired = 0;
    for seed in 0..10u64 {
        let plan = FaultPlan::random_failstop(seed, &spec, 0.5);
        let sim = run_schedule_failstop(&sched, &costs, &cfg, &plan).unwrap();
        let mut pipe = micro_pipeline();
        pipe.set_faults(plan, 0.0);
        let outcome = pipe.forward_backward(&batch);
        if sim.completed {
            assert!(outcome.is_ok(), "seed {seed}: only the runtime died");
            continue;
        }
        fired += 1;
        let Err(RuntimeError::StageDown { report, .. }) = outcome else {
            panic!("seed {seed}: the simulator saw a death, the runtime did not");
        };
        let (root, want) = (&report.crashed[0], &sim.crashed[0]);
        assert_eq!(
            (root.device, root.at_op, root.kind),
            (want.device, want.at_op, want.kind),
            "seed {seed}: the executors disagree on the death"
        );
        for (d, (&ran, &simulated)) in report.counters.iter().zip(&sim.counters).enumerate() {
            assert!(
                ran <= simulated,
                "seed {seed}: device {d} ran {ran} ops, the simulator only {simulated}"
            );
        }
    }
    assert!(fired > 0, "no fail-stop script fired");
}

/// `ready` means one thing on both executors: when the device reached the
/// op, or for a receive when its message arrived. On a clean blocking run
/// every other op starts where it was reached; a scripted stall of `s`
/// opens a gap of `s` between the two, in virtual time on the simulator and
/// (at least) `s × time_scale` in wall time on the runtime.
#[test]
fn ready_is_where_the_device_reached_the_op_on_both_executors() {
    let mut pipe = micro_pipeline();
    let sched = pipe.schedule().clone();
    let (costs, cfg) = (micro_costs(), EventConfig::default());
    let model = micro_gpt();
    let batch = BatchSet::synthetic(4, M, 2, model.seq_len, model.vocab_size);
    let is_recv = |kind: OpKind| matches!(kind, OpKind::RecvAct { .. } | OpKind::RecvGrad { .. });

    let sim = run_schedule(&sched, &costs, &cfg).unwrap().timeline;
    pipe.forward_backward(&batch).unwrap();
    let ran = pipe.last_timeline().unwrap().clone();
    for (who, timeline) in [("simulator", &sim), ("runtime", &ran)] {
        for d in 0..sched.n_devices {
            for (j, e) in timeline.device(d).enumerate() {
                if !is_recv(e.op.kind) {
                    assert_eq!(e.ready, e.start, "{who}: device {d} op {j}");
                }
            }
        }
    }

    // Stall device 1's first compute op by 3 virtual seconds = 3 ms.
    let (device, pause, time_scale) = (1, 3.0, 1e-3);
    let op_index = sched.devices[device]
        .iter()
        .position(|op| op.is_compute())
        .unwrap();
    let plan = FaultPlan {
        stalls: vec![StageStall {
            device,
            op_index,
            pause,
        }],
        ..FaultPlan::none()
    };
    let sim = run_schedule_faulty(&sched, &costs, &cfg, &plan).unwrap();
    let e = sim.timeline.device(device).nth(op_index).unwrap();
    assert!(
        (e.start - e.ready - pause).abs() < 1e-9,
        "simulator: {} − {} ≠ {pause}",
        e.start,
        e.ready
    );
    pipe.set_faults(plan, time_scale);
    pipe.forward_backward(&batch).unwrap();
    let e = pipe
        .last_timeline()
        .unwrap()
        .device(device)
        .nth(op_index)
        .unwrap();
    assert!(
        e.start - e.ready >= pause * time_scale,
        "runtime: {} − {} < {}",
        e.start,
        e.ready,
        pause * time_scale
    );
}

//! Fault-tolerance properties through the `autopipe::Session` facade: fault
//! scripts are pure time perturbations. Across many random seeded scripts
//! the runtime's losses and parameter checksum stay bit-identical to a
//! fault-free run, and injected stalls surface as structured watchdog
//! reports instead of hangs; on the event simulator the same kind of scripts
//! at paper scale never deadlock, reorder or speed up the pipeline.

use autopipe::{PlannedSession, Session};
use autopipe_exec::{FaultPlan, FaultSpec, StageStall};
use autopipe_model::{zoo, ModelConfig, ModelFamily};
use autopipe_runtime::WatchdogConfig;
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

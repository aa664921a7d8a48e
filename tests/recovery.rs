//! Crash-consistency and fail-stop recovery, end to end.
//!
//! Four layers of evidence:
//!
//! 1. a **seeded campaign** of random fail-stop scripts against the
//!    threaded runtime with durable checkpointing armed — every crash
//!    recovers, every restart-in-place trajectory is bit-identical to the
//!    uninterrupted run, every device loss shrinks and converges, and a
//!    shrink followed by a grow back trains like the uninterrupted run;
//! 2. **every crash position** of a sliced two-stage and a plain four-stage
//!    program is detected by a neighbour's next receive, not by the
//!    watchdog's deadlines;
//! 3. the **kill-9 guarantee** — a writer aborted between the temp-dir
//!    write and the commit rename leaves the previous generation loadable;
//! 4. **property tests** — snapshot → save → load round-trips exactly for
//!    random training prefixes, and a byte flipped anywhere in a committed
//!    payload is rejected (falling back to the previous valid generation).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use autopipe_core::RecoveryConfig;
use autopipe_exec::{FaultPlan, FaultSpec, StageCrash};
use autopipe_model::{ModelConfig, ModelFamily};
use autopipe_runtime::{
    Action, BatchSet, CheckpointError, CheckpointStore, Controller, FailPoint, Outcome, Pipeline,
    PipelineConfig, RecoveryStore, RuntimeError, WatchdogConfig,
};
use autopipe_schedule::{one_f_one_b, recompute_mask, sliced_1f1b, Schedule};
use autopipe_sim::Partition;

const M: usize = 4;
const STEPS: usize = 5;

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

fn pipe(p: usize, seed: u64) -> Pipeline {
    pipe_on(one_f_one_b(p, M), seed)
}

fn pipe_on(schedule: Schedule, seed: u64) -> Pipeline {
    let partition = match schedule.n_devices {
        1 => Partition::new(vec![0, 7]),
        2 => Partition::new(vec![0, 3, 7]),
        4 => Partition::new(vec![0, 2, 4, 6, 7]),
        other => panic!("no fixture for {other} devices"),
    };
    Pipeline::try_new(&PipelineConfig {
        model: tiny(),
        partition,
        schedule,
        lr: 1e-3,
        seed,
        checkpointing: false,
    })
    .unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autopipe_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Synchronous checkpoints into `dir`, every step.
fn sync_recovery(dir: &PathBuf) -> RecoveryConfig {
    RecoveryConfig {
        background: false,
        ..RecoveryConfig::new(dir)
    }
}

/// Exactly-once training under recovery: every outcome folds through the
/// run controller (as the `Session` facade's loop does) and its actions are
/// applied in order; a shrink is re-split evenly onto the survivors under
/// plain 1F1B.
fn train_with_recovery(
    mut pipe: Pipeline,
    cfg: &RecoveryConfig,
    batch: &BatchSet,
    steps: usize,
) -> (Vec<f32>, Pipeline, Controller) {
    let mut store = RecoveryStore::open(cfg).unwrap();
    store.prime(&mut pipe).unwrap();
    let mut ctl = Controller::new(&vec![1.0; pipe.schedule().n_devices], Some(cfg), None, None);
    let mut losses: Vec<f32> = Vec::new();
    while losses.len() < steps {
        let step = losses.len() as u64;
        let outcome = match pipe.train_iteration(batch) {
            Ok(stats) => {
                losses.push(stats.loss);
                let (step, membership) = (step + 1, &[]);
                ctl.fold(Outcome::Completed {
                    step,
                    membership,
                    observed: None,
                })
            }
            Err(RuntimeError::StageDown { report, .. }) => ctl.fold(Outcome::FailStop {
                step,
                report: &report,
            }),
            Err(other) => panic!("deadlock or unrecovered error: {other}"),
        };
        for action in outcome.unwrap() {
            match action {
                Action::Checkpoint { step } => {
                    store.save(&mut pipe, step).unwrap();
                }
                Action::Restore => {
                    let manifest = store.restore_newest(&mut pipe).unwrap();
                    ctl.restored(manifest.step, manifest.generation);
                    losses.truncate(manifest.step as usize);
                }
                Action::Reshape { width, .. } => {
                    let n = pipe.partition().n_blocks();
                    pipe.repartition(&Partition::even(n, width), one_f_one_b(width, M))
                        .unwrap();
                }
                Action::Halt { reason } => panic!("halted: {reason}"),
            }
        }
    }
    (losses, pipe, ctl)
}

/// Seeded campaign: random crash scripts, restart-in-place. Every seed must
/// recover and replay the uninterrupted loss trajectory bit-for-bit.
#[test]
fn seeded_crashes_restart_bit_identically() {
    let model = tiny();
    let batch = BatchSet::synthetic(50, M, 2, model.seq_len, model.vocab_size);
    let mut clean = pipe(2, 77);
    let clean_losses: Vec<f32> = (0..STEPS)
        .map(|_| clean.train_iteration(&batch).unwrap().loss)
        .collect();
    let clean_sum = clean.param_checksum();

    let program_len = one_f_one_b(2, M).devices[0].len();
    for seed in 0..12u64 {
        let dir = temp_dir(&format!("campaign_restart_{seed}"));
        let mut crashed = pipe(2, 77);
        crashed.set_faults(
            FaultPlan::random_failstop(seed, &FaultSpec::new(2, program_len, 1.0), 0.0),
            0.0,
        );
        let (losses, recovered, ctl) =
            train_with_recovery(crashed, &sync_recovery(&dir), &batch, STEPS);
        assert_eq!(ctl.recoveries(), 1, "seed {seed}: crash never fired");
        assert_eq!(clean_losses, losses, "seed {seed}: trajectory drifted");
        assert_eq!(
            clean_sum.to_bits(),
            recovered.param_checksum().to_bits(),
            "seed {seed}: params drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seeded campaign: random device losses on 4 stages; every seed must
/// shrink to 3 survivors and keep converging (the unsliced migration is
/// numerically exact, so the trajectory stays bit-identical too).
#[test]
fn seeded_losses_shrink_and_converge() {
    let model = tiny();
    let batch = BatchSet::synthetic(51, M, 2, model.seq_len, model.vocab_size);
    let mut clean = pipe(4, 77);
    let clean_losses: Vec<f32> = (0..STEPS)
        .map(|_| clean.train_iteration(&batch).unwrap().loss)
        .collect();

    let program_len = one_f_one_b(4, M).devices[0].len();
    for seed in 0..12u64 {
        let dir = temp_dir(&format!("campaign_shrink_{seed}"));
        let mut crashed = pipe(4, 77);
        crashed.set_faults(
            FaultPlan::random_failstop(seed, &FaultSpec::new(4, program_len, 1.0), 1.0),
            0.0,
        );
        let (losses, recovered, ctl) =
            train_with_recovery(crashed, &sync_recovery(&dir), &batch, STEPS);
        assert_eq!(ctl.recoveries(), 1, "seed {seed}: loss never fired");
        assert_eq!(
            recovered.schedule().n_devices,
            3,
            "seed {seed}: did not shrink"
        );
        assert_eq!(clean_losses, losses, "seed {seed}: trajectory drifted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A shrink and a grow back, at the runtime layer: the pipeline serves on
/// one device after step 3 and on two again after step 5 (the steps at which
/// a session's controller re-shapes for a leave at step 3 and a rejoin at
/// step 4 under a one-step quarantine). Both swaps go through
/// `Pipeline::repartition`, and the run's losses and parameters are the
/// uninterrupted two-stage run's, bit for bit. A fresh one-stage pipeline
/// restored from the generation saved just before the grow, then grown the
/// same way, replays the post-grow steps bit for bit: a grow leaves nothing
/// behind that a restart could not rebuild.
#[test]
fn a_shrink_and_a_grow_back_train_like_the_uninterrupted_run() {
    const STEPS: usize = 10;
    let (shrink_after, grow_after) = (3, 5);
    let model = tiny();
    let batch = BatchSet::synthetic(99, M, 2, model.seq_len, model.vocab_size);
    let mut clean = pipe(2, 77);
    let clean_losses: Vec<f32> = (0..STEPS)
        .map(|_| clean.train_iteration(&batch).unwrap().loss)
        .collect();

    let dir = temp_dir("grow");
    let mut store = CheckpointStore::open(&dir, 1).unwrap();
    let mut elastic = pipe(2, 77);
    let (wide, wide_schedule) = (elastic.partition().clone(), elastic.schedule().clone());
    let mut losses = Vec::new();
    for step in 1..=STEPS {
        losses.push(elastic.train_iteration(&batch).unwrap().loss);
        if step == shrink_after {
            let narrow = Partition::even(wide.n_blocks(), 1);
            elastic.repartition(&narrow, one_f_one_b(1, M)).unwrap();
        } else if step == grow_after {
            store
                .save(&elastic.snapshot(step as u64, "pre-grow"))
                .unwrap();
            elastic.repartition(&wide, wide_schedule.clone()).unwrap();
        }
    }
    assert_eq!(clean_losses, losses, "the re-shaped run drifted");
    assert_eq!(
        clean.param_checksum().to_bits(),
        elastic.param_checksum().to_bits()
    );

    let (manifest, states) = store.load_latest().unwrap();
    assert_eq!(manifest.step, grow_after as u64);
    let mut fresh = pipe(1, 5);
    autopipe_runtime::restore_states(&mut fresh, &states).unwrap();
    fresh.repartition(&wide, wide_schedule).unwrap();
    for (i, expected) in losses.iter().enumerate().skip(grow_after) {
        let got = fresh.train_iteration(&batch).unwrap().loss;
        assert_eq!(
            expected.to_bits(),
            got.to_bits(),
            "post-grow step {}",
            i + 1
        );
    }
    assert_eq!(
        fresh.param_checksum().to_bits(),
        elastic.param_checksum().to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every (device, op) crash position of a sliced p = 2 and a plain p = 4
/// program, under a watchdog that would need two seconds to give a wait up:
/// the iteration comes back `StageDown` naming that device and op long before
/// the first deadline, because a survivor's next receive sees the dead
/// stage's links closed. One position where the survivor is blocked in a
/// receive then goes through the controller and replays bit for bit.
#[test]
fn every_crash_position_is_detected_by_a_neighbours_next_receive() {
    let patient = WatchdogConfig {
        base_timeout: Duration::from_secs(2),
        max_retries: 0,
        ..WatchdogConfig::default()
    };
    let model = tiny();
    let batch = BatchSet::synthetic(50, M, 2, model.seq_len, model.vocab_size);
    let crash_at = |device, at_op| FaultPlan {
        crashes: vec![StageCrash { device, at_op }],
        ..FaultPlan::none()
    };
    for schedule in [sliced_1f1b(2, M, 2), one_f_one_b(4, M)] {
        for device in 0..schedule.n_devices {
            for at_op in 0..schedule.devices[device].len() {
                let mut crashed = pipe_on(schedule.clone(), 77);
                crashed.set_watchdog(patient);
                crashed.set_faults(crash_at(device, at_op), 0.0);
                let started = Instant::now();
                let err = crashed.train_iteration(&batch).unwrap_err();
                let took = started.elapsed();
                let RuntimeError::StageDown { stage, report } = err else {
                    panic!("device {device} op {at_op}: expected StageDown, got {err}");
                };
                let crash = report.first_crash().expect("crash event recorded");
                assert_eq!((stage, crash.device, crash.at_op), (device, device, at_op));
                assert!(
                    took < patient.base_timeout / 2,
                    "{:?} device {device} op {at_op}: {took:?} to detect, waited out a deadline",
                    schedule.kind
                );
            }
        }
    }

    // Stage 0 dying at op 5 leaves stage 1 waiting for an activation.
    let sliced = sliced_1f1b(2, M, 2);
    let mut clean = pipe_on(sliced.clone(), 77);
    let clean_losses: Vec<f32> = (0..STEPS)
        .map(|_| clean.train_iteration(&batch).unwrap().loss)
        .collect();
    let dir = temp_dir("crash_positions");
    let mut crashed = pipe_on(sliced, 77);
    crashed.set_watchdog(patient);
    crashed.set_faults(crash_at(0, 5), 0.0);
    let (losses, recovered, ctl) =
        train_with_recovery(crashed, &sync_recovery(&dir), &batch, STEPS);
    assert_eq!(ctl.recoveries(), 1);
    assert_eq!(clean_losses, losses);
    assert_eq!(
        clean.param_checksum().to_bits(),
        recovered.param_checksum().to_bits()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan whose schedule carries `Recompute` ops (the budgeted four-stage
/// `Auto` plan `tests/train_golden.rs` trains) comes back from its manifest
/// with them: capture → save → load → `Manifest::schedule` is the schedule
/// the pipeline ran.
#[test]
fn a_masked_plan_survives_the_manifest() {
    use autopipe::{RecomputePolicy, SchedulePolicy, Session};
    let planned = Session::for_model(autopipe::model::zoo::gpt2_tiny())
        .stages(4)
        .microbatches(4)
        .microbatch_size(2)
        .schedule_policy(SchedulePolicy::Auto)
        .recompute_policy(RecomputePolicy::Auto)
        .memory_budget(1_528_236)
        .plan()
        .unwrap();
    let plan = planned.plan();
    assert!(
        recompute_mask(&plan.schedule).contains(&true),
        "the budget no longer forces a recompute mask"
    );
    let mut pipe = Pipeline::try_new(&PipelineConfig::from_session(
        planned.config(),
        plan.partition.clone(),
        plan.schedule.clone(),
    ))
    .unwrap();
    let dir = temp_dir("masked_manifest");
    let mut store = CheckpointStore::open(&dir, 1).unwrap();
    store.save(&pipe.snapshot(0, "masked")).unwrap();
    let (manifest, _) = store.load_latest().unwrap();
    assert_eq!(manifest.recompute, recompute_mask(&plan.schedule));
    assert_eq!(manifest.schedule().unwrap(), plan.schedule);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kill-9-mid-write guarantee: a writer that dies after the temp-dir
/// write but before the commit rename must leave generation N−1 the newest
/// loadable state, with the torn temp directory cleaned on the next open.
#[test]
fn a_write_killed_before_the_rename_falls_back_to_the_previous_generation() {
    let dir = temp_dir("kill9");
    let mut store = CheckpointStore::open(&dir, 4).unwrap();
    let mut p = pipe(2, 9);
    let batch = BatchSet::synthetic(9, M, 2, 8, 40);

    p.train_iteration(&batch).unwrap();
    let committed = store.save(&p.snapshot(1, "gen-n-1")).unwrap();

    // Step once more, then "kill -9" the writer mid-commit.
    p.train_iteration(&batch).unwrap();
    let reference = p.param_checksum();
    store.fail_next(FailPoint::BeforeRename);
    let err = store.save(&p.snapshot(2, "torn")).unwrap_err();
    assert!(
        matches!(err, CheckpointError::Injected(FailPoint::BeforeRename)),
        "unexpected error: {err}"
    );

    // A fresh process opening the same directory: the torn tmp dir is
    // ignored (and swept), generation N−1 is the newest valid state.
    let reopened = CheckpointStore::open(&dir, 4).unwrap();
    let (manifest, states) = reopened.load_latest().unwrap();
    assert_eq!(manifest.generation, committed);
    assert_eq!(manifest.step, 1);

    // And that state restores into a working pipeline with the exact
    // parameters of step 1.
    let mut restored = pipe(2, 123);
    autopipe_runtime::restore_states(&mut restored, &states).unwrap();
    // Replaying step 2 on the restored state reaches the crashed run's
    // parameters bit-for-bit.
    restored.train_iteration(&batch).unwrap();
    assert_eq!(restored.param_checksum().to_bits(), reference.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-trip: any training prefix → snapshot → save → load restores an
    /// independent pipeline to the same parameters, bit-for-bit.
    #[test]
    fn checkpoints_round_trip_any_training_prefix(seed in 0usize..1000, steps in 0usize..4) {
        let dir = temp_dir(&format!("prop_roundtrip_{seed}_{steps}"));
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        let mut original = pipe(2, seed as u64);
        let batch = BatchSet::synthetic(seed as u64 ^ 1, M, 2, 8, 40);
        for _ in 0..steps {
            original.train_iteration(&batch).unwrap();
        }
        store.save(&original.snapshot(steps as u64, "prop")).unwrap();

        let (manifest, states) = store.load_latest().unwrap();
        prop_assert_eq!(manifest.step, steps as u64);
        let mut restored = pipe(2, seed as u64 + 1);
        autopipe_runtime::restore_states(&mut restored, &states).unwrap();
        prop_assert_eq!(
            restored.param_checksum().to_bits(),
            original.param_checksum().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fuzz: flipping any byte of any committed payload file must be
    /// caught by the CRC (or the header check) and the loader must fall
    /// back to the previous valid generation — never serve corrupt state.
    #[test]
    fn a_flipped_byte_anywhere_is_rejected(seed in 0usize..1000, victim_frac in 0.0f64..1.0) {
        let dir = temp_dir(&format!("prop_bitflip_{seed}"));
        let mut store = CheckpointStore::open(&dir, 4).unwrap();
        let mut p = pipe(2, seed as u64);
        let batch = BatchSet::synthetic(seed as u64, M, 2, 8, 40);
        store.save(&p.snapshot(0, "good")).unwrap();
        p.train_iteration(&batch).unwrap();
        let newest = store.save(&p.snapshot(1, "victim")).unwrap();

        // Flip one byte somewhere in one of the newest generation's stage
        // payloads, position chosen by the fuzz input.
        let gen_dir = dir.join(format!("gen-{newest:06}"));
        let mut payloads: Vec<PathBuf> = std::fs::read_dir(&gen_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("stage-"))
            })
            .collect();
        payloads.sort();
        let victim = &payloads[(victim_frac * payloads.len() as f64) as usize % payloads.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        let pos = (victim_frac * bytes.len() as f64) as usize % bytes.len();
        bytes[pos] ^= 0xFF;
        std::fs::write(victim, &bytes).unwrap();

        let (manifest, _) = store.load_latest().unwrap();
        prop_assert_eq!(manifest.generation, newest - 1);
        prop_assert_eq!(manifest.step, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

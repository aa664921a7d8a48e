//! Fail-stop recovery: detect a dead stage, restore durable state, resume.
//!
//! The [`RecoveryCoordinator`] sits between a training loop and the
//! [`Pipeline`]: the loop feeds it completed steps
//! ([`RecoveryCoordinator::maybe_checkpoint`]) and hands it the
//! [`RuntimeError::StageDown`] report when an iteration dies
//! ([`RecoveryCoordinator::recover`]). Detection itself is split across two
//! mechanisms that already exist in the engine: a dead stage's dropped
//! endpoint closes its links, so a neighbour's next receive sees the
//! *hang-up* and abandons the wait at once (the watchdog's deadlines are for
//! peers that are alive and late), and the coordinator's *join reaping*
//! attributes the death to the right stage with a structured
//! [`CrashEvent`].
//!
//! Recovery executes one of two policies:
//!
//! * **Restart-in-place** ([`RecoveryPolicy::RestartInPlace`]): reload the
//!   newest valid checkpoint generation into the same pipeline shape, clear
//!   the fired fail-stop events, and report the step to replay from. The
//!   caller re-runs micro-batches from that step with exactly-once
//!   semantics — every optimiser step is applied exactly once on the
//!   trajectory the parameters actually follow, so the loss curve is
//!   bit-identical to an uninterrupted run.
//!
//! * **Shrink-and-replan** ([`RecoveryPolicy::ShrinkAndReplan`]): the dead
//!   device is gone (always forced for [`FailStopKind::Lost`]), so a
//!   [`Replanner`] produces a partition and schedule for the surviving
//!   device count and the pipeline hot-swaps onto it through
//!   [`Pipeline::repartition`] after restoring the checkpoint. The
//!   `Session` facade passes a closure over its one re-planning path (the
//!   real planner, under the session's policy and constraints);
//!   [`EvenReplanner`] is the dependency-light stand-in used by this
//!   crate's own tests.

use std::fmt;

use autopipe_core::{Error, RecoveryConfig, RecoveryPolicy};
use autopipe_exec::FailStopKind;
use autopipe_schedule::{one_f_one_b, Schedule};
use autopipe_sim::Partition;

use crate::checkpoint::{
    restore_states, BackgroundCheckpointer, CheckpointStore, Manifest, PipelineSnapshot,
    StageState, WriterStatus,
};
use crate::engine::Pipeline;
use crate::watchdog::{CrashEvent, FaultReport};

/// A new plan for the surviving devices.
#[derive(Debug, Clone)]
pub struct ShrinkPlan {
    /// Partition of the same block sequence onto the surviving stages.
    pub partition: Partition,
    /// Schedule for the surviving device count (same micro-batch count).
    pub schedule: Schedule,
    /// The planner's predicted iteration time for the new plan (analytic
    /// simulator), when the replanner computes one.
    pub predicted_iteration: Option<f64>,
}

/// Produces a plan for `survivors` devices after a shrink. The runtime
/// cannot depend on the slicer crate (layering), so the real planner sits
/// behind this trait: the `Session` facade passes a closure.
pub trait Replanner {
    /// Plan the same block sequence onto `survivors` devices, keeping
    /// `n_microbatches` per iteration.
    fn replan(
        &mut self,
        survivors: usize,
        current: &Partition,
        n_microbatches: usize,
    ) -> Result<ShrinkPlan, Error>;
}

impl<F: FnMut(usize, &Partition, usize) -> Result<ShrinkPlan, Error>> Replanner for F {
    fn replan(
        &mut self,
        survivors: usize,
        current: &Partition,
        m: usize,
    ) -> Result<ShrinkPlan, Error> {
        self(survivors, current, m)
    }
}

/// Dependency-light replanner: splits the block sequence evenly and runs
/// plain 1F1B. Used by runtime-level tests; the facade passes the real
/// planner instead.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvenReplanner;

impl Replanner for EvenReplanner {
    fn replan(
        &mut self,
        survivors: usize,
        current: &Partition,
        n_microbatches: usize,
    ) -> Result<ShrinkPlan, Error> {
        let n = current.n_blocks();
        if survivors < 1 || n < survivors {
            return Err(Error::Config(format!(
                "cannot shrink {n} blocks onto {survivors} devices"
            )));
        }
        let mut boundaries = Vec::with_capacity(survivors + 1);
        for s in 0..=survivors {
            boundaries.push(s * n / survivors);
        }
        Ok(ShrinkPlan {
            partition: Partition::new(boundaries),
            schedule: one_f_one_b(survivors, n_microbatches),
            predicted_iteration: None,
        })
    }
}

/// What one recovery did.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// The pipeline was restored in place; replay from `from_step`.
    Resumed {
        /// Step count of the restored checkpoint (completed steps).
        from_step: u64,
        /// Checkpoint generation that was loaded.
        generation: u64,
    },
    /// The pipeline was restored, then hot-swapped onto fewer devices;
    /// replay from `from_step`.
    Shrunk {
        /// Step count of the restored checkpoint (completed steps).
        from_step: u64,
        /// Checkpoint generation that was loaded.
        generation: u64,
        /// Device count after the shrink.
        devices: usize,
        /// Analytic prediction for the new plan's iteration time, when the
        /// replanner computed one.
        predicted_iteration: Option<f64>,
    },
}

impl RecoveryAction {
    /// The step training must replay from.
    pub fn from_step(&self) -> u64 {
        match self {
            RecoveryAction::Resumed { from_step, .. }
            | RecoveryAction::Shrunk { from_step, .. } => *from_step,
        }
    }
}

/// One entry of the coordinator's recovery log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// The crash that triggered the recovery.
    pub crash: CrashEvent,
    /// What the coordinator did about it.
    pub action: RecoveryAction,
}

/// The recovery budget ran out: `max_recoveries` crashes have already been
/// handled in this run.
#[derive(Debug)]
pub struct RecoveryExhausted {
    /// How many recoveries were performed before giving up.
    pub recoveries: usize,
}

impl fmt::Display for RecoveryExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery budget exhausted after {} recoveries",
            self.recoveries
        )
    }
}

impl std::error::Error for RecoveryExhausted {}

/// Durable-checkpoint writer + fail-stop recovery executor for one training
/// run. See the module docs for the state machine.
pub struct RecoveryCoordinator {
    cfg: RecoveryConfig,
    /// Synchronous store (`background: false`).
    store: Option<CheckpointStore>,
    /// Background writer (`background: true`).
    writer: Option<BackgroundCheckpointer>,
    recoveries: usize,
    log: Vec<RecoveryRecord>,
}

impl RecoveryCoordinator {
    /// Open the checkpoint store and (if configured) spawn the background
    /// writer.
    pub fn new(cfg: RecoveryConfig) -> Result<RecoveryCoordinator, Error> {
        cfg.validate()?;
        let store = CheckpointStore::open(&cfg.dir, cfg.retain).map_err(Error::from)?;
        let (store, writer) = if cfg.background {
            (None, Some(BackgroundCheckpointer::spawn(store)))
        } else {
            (Some(store), None)
        };
        Ok(RecoveryCoordinator {
            cfg,
            store,
            writer,
            recoveries: 0,
            log: Vec::new(),
        })
    }

    /// Synchronously commit a baseline snapshot of the pipeline's *initial*
    /// state (step 0), so restart-in-place is possible even for a crash in
    /// the very first iteration. Call once before training.
    pub fn prime(&mut self, pipeline: &mut Pipeline) -> Result<(), Error> {
        let snap = pipeline.snapshot(0, "baseline");
        self.save_sync(&snap)
    }

    /// Offer a snapshot after a completed step, honouring the cadence.
    /// Returns `true` when a snapshot was committed (synchronous mode) or
    /// accepted by the writer (background mode); `false` when the step was
    /// off-cadence or the writer was busy.
    pub fn maybe_checkpoint(&mut self, pipeline: &mut Pipeline, step: u64) -> Result<bool, Error> {
        if step == 0 || !step.is_multiple_of(self.cfg.cadence as u64) {
            return Ok(false);
        }
        let snap = pipeline.snapshot(step, "step");
        if let Some(writer) = &self.writer {
            Ok(writer.offer(snap))
        } else {
            self.save_sync(&snap)?;
            Ok(true)
        }
    }

    fn save_sync(&mut self, snap: &PipelineSnapshot) -> Result<(), Error> {
        if let Some(writer) = &self.writer {
            // Priming / forced saves in background mode: hand the snapshot
            // to the writer and wait for it to land.
            while !writer.offer(snap.clone()) {
                writer.drain();
            }
            writer.drain();
            let status = writer.status();
            if let Some(e) = status.last_error {
                return Err(Error::Checkpoint(e.into()));
            }
            Ok(())
        } else {
            let store = self.store.as_mut().expect("sync mode owns the store");
            store.save(snap).map(|_| ()).map_err(Error::from)
        }
    }

    /// Block until every accepted background snapshot is on disk, then load
    /// the newest valid generation. (A fresh read-only store handle is used
    /// so the writer thread keeps ownership of its own.)
    fn load_latest(&mut self) -> Result<(Manifest, Vec<StageState>), Error> {
        if let Some(writer) = &self.writer {
            writer.drain();
        }
        let reader = CheckpointStore::open(&self.cfg.dir, self.cfg.retain).map_err(Error::from)?;
        reader.load_latest().map_err(Error::from)
    }

    /// Execute the recovery policy for a [`RuntimeError::StageDown`] report.
    /// On success the pipeline is trainable again and the returned
    /// [`RecoveryAction`] names the step to replay from (exactly-once: the
    /// caller discards any loss entries past that step and re-runs them).
    ///
    /// [`RuntimeError::StageDown`]: crate::watchdog::RuntimeError::StageDown
    pub fn recover(
        &mut self,
        pipeline: &mut Pipeline,
        report: &FaultReport,
        replanner: &mut dyn Replanner,
    ) -> Result<RecoveryAction, Error> {
        // A lost device anywhere in the report dictates the policy, even
        // when a collateral crash event sorts ahead of it.
        let crash = report
            .crashed
            .iter()
            .find(|c| c.kind == FailStopKind::Lost)
            .or_else(|| report.first_crash())
            .cloned()
            .unwrap_or_else(|| CrashEvent {
                device: 0,
                at_op: 0,
                kind: FailStopKind::Crash,
                detail: Some("stage down without a crash event".into()),
            });
        if self.recoveries >= self.cfg.max_recoveries {
            return Err(Error::Runtime(Box::new(RecoveryExhausted {
                recoveries: self.recoveries,
            })));
        }
        self.recoveries += 1;

        let (manifest, states) = self.load_latest()?;
        // Restore into the *current* shape first — the checkpoint was taken
        // on this geometry (shrink re-splits afterwards via repartition).
        restore_states(pipeline, &states).map_err(Error::from)?;
        // The scripted fail-stop has fired; a respawned stage must not
        // re-die at the same op on every replay.
        pipeline.clear_failstop_events();

        let p = pipeline.schedule().n_devices;
        let shrink =
            crash.kind == FailStopKind::Lost || self.cfg.policy == RecoveryPolicy::ShrinkAndReplan;
        let action = if shrink {
            let survivors = p.checked_sub(1).filter(|s| *s >= 1).ok_or_else(|| {
                Error::Config("lost the only device; nothing left to shrink onto".into())
            })?;
            let m = pipeline.schedule().n_microbatches;
            let plan = replanner.replan(survivors, pipeline.partition(), m)?;
            pipeline
                .repartition(&plan.partition, plan.schedule)
                .map_err(Error::from)?;
            RecoveryAction::Shrunk {
                from_step: manifest.step,
                generation: manifest.generation,
                devices: survivors,
                predicted_iteration: plan.predicted_iteration,
            }
        } else {
            RecoveryAction::Resumed {
                from_step: manifest.step,
                generation: manifest.generation,
            }
        };
        self.log.push(RecoveryRecord {
            crash,
            action: action.clone(),
        });
        Ok(action)
    }

    /// Recoveries performed so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// The full recovery log of this run.
    pub fn log(&self) -> &[RecoveryRecord] {
        &self.log
    }

    /// Background-writer counters (`None` in synchronous mode).
    pub fn writer_status(&self) -> Option<WriterStatus> {
        self.writer.as_ref().map(|w| w.status())
    }

    /// Flush the background writer (no-op in synchronous mode).
    pub fn drain(&self) {
        if let Some(writer) = &self.writer {
            writer.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::BatchSet;
    use crate::engine::{Pipeline, PipelineConfig};
    use crate::watchdog::RuntimeError;
    use autopipe_exec::{FaultPlan, StageCrash};
    use autopipe_model::{ModelConfig, ModelFamily};
    use std::path::PathBuf;

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

    fn pipe(p: usize, m: usize) -> Pipeline {
        let partition = match p {
            2 => Partition::new(vec![0, 3, 7]),
            4 => Partition::new(vec![0, 2, 4, 6, 7]),
            other => panic!("no fixture for {other} devices"),
        };
        Pipeline::try_new(&PipelineConfig {
            model: tiny(),
            partition,
            schedule: one_f_one_b(p, m),
            lr: 1e-3,
            seed: 77,
            checkpointing: false,
            comm: autopipe_exec::CommConfig::default(),
        })
        .unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autopipe_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drive a training loop with crash recovery and exactly-once replay:
    /// the returned losses contain each step exactly once.
    fn train_with_recovery(
        mut pipe: Pipeline,
        coord: &mut RecoveryCoordinator,
        batch: &BatchSet,
        steps: usize,
        replanner: &mut dyn Replanner,
    ) -> (Vec<f32>, Pipeline) {
        coord.prime(&mut pipe).unwrap();
        let mut losses: Vec<f32> = Vec::new();
        while losses.len() < steps {
            match pipe.train_iteration(batch) {
                Ok(stats) => {
                    losses.push(stats.loss);
                    coord
                        .maybe_checkpoint(&mut pipe, losses.len() as u64)
                        .unwrap();
                }
                Err(RuntimeError::StageDown { report, .. }) => {
                    let action = coord.recover(&mut pipe, &report, replanner).unwrap();
                    // Exactly-once: forget losses past the restored step and
                    // replay them on the restored parameters.
                    losses.truncate(action.from_step() as usize);
                }
                Err(other) => panic!("unexpected runtime error: {other}"),
            }
        }
        (losses, pipe)
    }

    #[test]
    fn restart_in_place_replays_bit_identically() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(50, m, 2, model.seq_len, model.vocab_size);
        let steps = 5;

        // Uninterrupted baseline.
        let mut clean = pipe(2, m);
        let clean_losses: Vec<f32> = (0..steps)
            .map(|_| clean.train_iteration(&batch).unwrap().loss)
            .collect();

        // Crashed run: device 1 dies mid-iteration 3 (after 2 checkpoints).
        let dir = temp_dir("recover_restart");
        let mut coord = RecoveryCoordinator::new(RecoveryConfig {
            background: false,
            ..RecoveryConfig::new(&dir)
        })
        .unwrap();
        let mut crashed = pipe(2, m);
        crashed.set_faults(
            FaultPlan {
                crashes: vec![StageCrash {
                    device: 1,
                    at_op: 5,
                }],
                ..FaultPlan::none()
            },
            0.0,
        );
        let (losses, recovered) =
            train_with_recovery(crashed, &mut coord, &batch, steps, &mut EvenReplanner);

        assert_eq!(coord.recoveries(), 1);
        assert!(matches!(
            coord.log()[0].action,
            RecoveryAction::Resumed { .. }
        ));
        assert_eq!(
            clean_losses, losses,
            "restart-in-place must replay the uninterrupted trajectory bit-for-bit"
        );
        assert_eq!(
            clean.param_checksum().to_bits(),
            recovered.param_checksum().to_bits(),
            "final parameters must match the uninterrupted run exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrink_and_replan_continues_on_fewer_devices() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(51, m, 2, model.seq_len, model.vocab_size);
        let steps = 5;

        let mut clean = pipe(4, m);
        let clean_losses: Vec<f32> = (0..steps)
            .map(|_| clean.train_iteration(&batch).unwrap().loss)
            .collect();

        let dir = temp_dir("recover_shrink");
        let mut coord = RecoveryCoordinator::new(RecoveryConfig {
            background: false,
            policy: RecoveryPolicy::ShrinkAndReplan,
            ..RecoveryConfig::new(&dir)
        })
        .unwrap();
        let mut crashed = pipe(4, m);
        crashed.set_faults(
            FaultPlan {
                crashes: vec![StageCrash {
                    device: 2,
                    at_op: 4,
                }],
                ..FaultPlan::none()
            },
            0.0,
        );
        let (losses, recovered) =
            train_with_recovery(crashed, &mut coord, &batch, steps, &mut EvenReplanner);

        assert_eq!(coord.recoveries(), 1);
        match &coord.log()[0].action {
            RecoveryAction::Shrunk { devices, .. } => assert_eq!(*devices, 3),
            other => panic!("expected a shrink, got {other:?}"),
        }
        assert_eq!(recovered.schedule().n_devices, 3);
        // The hot-swap migration is numerically exact, so even the shrunk
        // trajectory replays the uninterrupted losses.
        assert_eq!(clean_losses, losses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_budget_exhausts_with_a_typed_error() {
        let dir = temp_dir("recover_budget");
        let mut coord = RecoveryCoordinator::new(RecoveryConfig {
            background: false,
            max_recoveries: 1,
            ..RecoveryConfig::new(&dir)
        })
        .unwrap();
        let m = 4;
        let mut p = pipe(2, m);
        coord.prime(&mut p).unwrap();
        let report = FaultReport {
            crashed: vec![CrashEvent {
                device: 1,
                at_op: 0,
                kind: FailStopKind::Crash,
                detail: None,
            }],
            aborted: true,
            ..FaultReport::default()
        };
        assert!(coord.recover(&mut p, &report, &mut EvenReplanner).is_ok());
        let err = coord
            .recover(&mut p, &report, &mut EvenReplanner)
            .unwrap_err();
        assert!(
            err.to_string().contains("recovery budget exhausted"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_lost_forces_a_shrink_even_under_restart_policy() {
        let dir = temp_dir("recover_lost");
        let mut coord = RecoveryCoordinator::new(RecoveryConfig {
            background: false,
            policy: RecoveryPolicy::RestartInPlace,
            ..RecoveryConfig::new(&dir)
        })
        .unwrap();
        let m = 4;
        let mut p = pipe(4, m);
        coord.prime(&mut p).unwrap();
        let report = FaultReport {
            crashed: vec![CrashEvent {
                device: 3,
                at_op: 2,
                kind: FailStopKind::Lost,
                detail: None,
            }],
            aborted: true,
            ..FaultReport::default()
        };
        let action = coord.recover(&mut p, &report, &mut EvenReplanner).unwrap();
        assert!(matches!(action, RecoveryAction::Shrunk { devices: 3, .. }));
        assert_eq!(p.schedule().n_devices, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

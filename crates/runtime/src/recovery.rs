//! Fail-stop recovery: detect a dead stage, restore durable state, name
//! what is gone.
//!
//! The [`RecoveryCoordinator`] sits between a training loop and the
//! [`Pipeline`]: the loop feeds it completed steps
//! ([`RecoveryCoordinator::maybe_checkpoint`]) and hands it the
//! [`RuntimeError::StageDown`](crate::RuntimeError::StageDown) report when
//! an iteration dies ([`RecoveryCoordinator::recover`]). Detection itself is split across two
//! mechanisms that already exist in the engine: a dead stage's dropped
//! endpoint closes its links, so a neighbour's next receive sees the
//! *hang-up* and abandons the wait at once (the watchdog's deadlines are for
//! peers that are alive and late), and the coordinator's *join reaping*
//! attributes the death to the right stage with a structured
//! [`CrashEvent`].
//!
//! Recovery reloads the newest valid checkpoint generation into the
//! pipeline's current shape, clears the fired fail-stop events, and reports
//! the step to replay from. The caller re-runs micro-batches from that step
//! with exactly-once semantics — every optimiser step is applied exactly
//! once on the trajectory the parameters actually follow, so the loss curve
//! is bit-identical to an uninterrupted run. What happens to the shape
//! depends on the policy:
//!
//! * **Restart-in-place** ([`RecoveryPolicy::RestartInPlace`]): nothing —
//!   [`RecoveryAction::Resumed`].
//!
//! * **Shrink-and-replan** ([`RecoveryPolicy::ShrinkAndReplan`], always
//!   forced for [`FailStopKind::Lost`]): the dead device is gone, and
//!   [`RecoveryAction::Shrunk`] names it. Recovery plans nothing: the caller
//!   re-plans onto the survivors and swaps through
//!   [`Pipeline::repartition`] — the `Session` facade at its one re-shape
//!   site, where with elastic membership on the loss is one more departure.

use std::fmt;

use autopipe_core::{Error, RecoveryConfig, RecoveryPolicy};
use autopipe_exec::FailStopKind;

use crate::checkpoint::{
    restore_states, BackgroundCheckpointer, CheckpointStore, Manifest, PipelineSnapshot, StageState,
};
use crate::engine::Pipeline;
use crate::watchdog::{CrashEvent, FaultReport};

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
    /// The pipeline was restored in its current shape, but `device` is
    /// gone: the caller re-splits onto `devices` survivors, then replays
    /// from `from_step`.
    Shrunk {
        /// Step count of the restored checkpoint (completed steps).
        from_step: u64,
        /// Checkpoint generation that was loaded.
        generation: u64,
        /// The pipeline device that is gone.
        device: usize,
        /// Device count after the shrink.
        devices: usize,
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
    /// On success the pipeline holds the newest durable state and the
    /// returned [`RecoveryAction`] names the step to replay from
    /// (exactly-once: the caller discards any loss entries past that step
    /// and re-runs them) and, for a shrink, the device that is gone.
    ///
    /// [`RuntimeError::StageDown`]: crate::watchdog::RuntimeError::StageDown
    pub fn recover(
        &mut self,
        pipeline: &mut Pipeline,
        report: &FaultReport,
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
        // Restore into the *current* shape — the checkpoint was taken on
        // this geometry (a shrink is re-split by the caller afterwards).
        restore_states(pipeline, &states).map_err(Error::from)?;
        // The scripted fail-stop has fired; a respawned stage must not
        // re-die at the same op on every replay.
        pipeline.clear_failstop_events();

        let shrink =
            crash.kind == FailStopKind::Lost || self.cfg.policy == RecoveryPolicy::ShrinkAndReplan;
        let action = if shrink {
            let devices = pipeline.schedule().n_devices - 1;
            if devices < 1 {
                return Err(Error::Config(
                    "lost the only device; nothing left to shrink onto".into(),
                ));
            }
            RecoveryAction::Shrunk {
                from_step: manifest.step,
                generation: manifest.generation,
                device: crash.device,
                devices,
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
    use autopipe_schedule::one_f_one_b;
    use autopipe_sim::Partition;
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
        })
        .unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autopipe_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Drive a training loop with crash recovery and exactly-once replay:
    /// the returned losses contain each step exactly once. A shrink is
    /// re-split evenly onto the survivors under plain 1F1B.
    fn train_with_recovery(
        mut pipe: Pipeline,
        coord: &mut RecoveryCoordinator,
        batch: &BatchSet,
        steps: usize,
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
                    let action = coord.recover(&mut pipe, &report).unwrap();
                    if let RecoveryAction::Shrunk { devices, .. } = action {
                        let n = pipe.partition().n_blocks();
                        let m = pipe.schedule().n_microbatches;
                        pipe.repartition(&Partition::even(n, devices), one_f_one_b(devices, m))
                            .unwrap();
                    }
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
        let (losses, recovered) = train_with_recovery(crashed, &mut coord, &batch, steps);

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
        let (losses, recovered) = train_with_recovery(crashed, &mut coord, &batch, steps);

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
        assert!(coord.recover(&mut p, &report).is_ok());
        let err = coord.recover(&mut p, &report).unwrap_err();
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
        let action = coord.recover(&mut p, &report).unwrap();
        assert!(matches!(
            action,
            RecoveryAction::Shrunk {
                device: 3,
                devices: 3,
                ..
            }
        ));
        // Recovery names the loss; the re-split is the caller's.
        assert_eq!(p.schedule().n_devices, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

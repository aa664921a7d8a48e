//! Fail-stop recovery: what a recovery did, and the checkpoint I/O it
//! restores from.
//!
//! The run [`Controller`](crate::Controller) decides when to snapshot and
//! when to restore (and, for a lost device, to shrink); [`RecoveryStore`]
//! carries the I/O out: it primes a baseline generation, saves snapshots
//! (synchronously or through the background writer), and restores the
//! newest valid generation into the pipeline's current shape, whatever
//! shape wrote it. The run
//! replays from the restored step with exactly-once semantics, so a
//! restart-in-place trajectory is bit-identical to an uninterrupted run.
//! Detection is the engine's: a dead stage's dropped endpoint closes its
//! links, so a neighbour's next receive sees the hang-up at once, and join
//! reaping names the dead stage in a structured [`CrashEvent`].

use std::fmt;

use autopipe_core::{Error, RecoveryConfig};
use autopipe_sim::Partition;

use crate::checkpoint::{
    restore_states, BackgroundCheckpointer, CheckpointStore, Manifest, PipelineSnapshot,
};
use crate::engine::Pipeline;
use crate::watchdog::CrashEvent;

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

/// One entry of the controller's recovery log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// The crash that triggered the recovery.
    pub crash: CrashEvent,
    /// What the recovery did about it.
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

/// The checkpoint I/O of one run. See the [module docs](self).
pub struct RecoveryStore {
    cfg: RecoveryConfig,
    /// Synchronous store (`background: false`).
    store: Option<CheckpointStore>,
    /// Background writer (`background: true`).
    writer: Option<BackgroundCheckpointer>,
}

impl RecoveryStore {
    /// Open the checkpoint store and (if configured) spawn the background
    /// writer.
    pub fn open(cfg: &RecoveryConfig) -> Result<RecoveryStore, Error> {
        cfg.validate()?;
        let store = CheckpointStore::open(&cfg.dir, cfg.retain).map_err(Error::from)?;
        let (store, writer) = if cfg.background {
            (None, Some(BackgroundCheckpointer::spawn(store)))
        } else {
            (Some(store), None)
        };
        Ok(RecoveryStore {
            cfg: cfg.clone(),
            store,
            writer,
        })
    }

    /// Synchronously commit a baseline snapshot of the pipeline's *initial*
    /// state (step 0), so restart-in-place is possible even for a crash in
    /// the very first iteration. Call once before training.
    pub fn prime(&mut self, pipeline: &mut Pipeline) -> Result<(), Error> {
        let snap = pipeline.snapshot(0, "baseline");
        if let Some(writer) = &self.writer {
            // Hand the snapshot to the writer and wait for it to land.
            while !writer.offer(snap.clone()) {
                writer.drain();
            }
            writer.drain();
            if let Some(e) = writer.status().last_error {
                return Err(Error::Checkpoint(e.into()));
            }
            Ok(())
        } else {
            self.save_sync(&snap)
        }
    }

    /// Snapshot the pipeline as of `step`: committed synchronously, or
    /// offered to the background writer, which skips it while busy.
    pub fn save(&mut self, pipeline: &mut Pipeline, step: u64) -> Result<(), Error> {
        let snap = pipeline.snapshot(step, "step");
        match &self.writer {
            Some(writer) => {
                writer.offer(snap);
                Ok(())
            }
            None => self.save_sync(&snap),
        }
    }

    fn save_sync(&mut self, snap: &PipelineSnapshot) -> Result<(), Error> {
        let store = self.store.as_mut().expect("sync mode owns the store");
        store.save(snap).map(|_| ()).map_err(Error::from)
    }

    /// Wait for every accepted background snapshot, load the newest valid
    /// generation into the pipeline's current shape, and clear the fired
    /// fail-stop events so a respawned stage does not re-die at the same op
    /// on every replay. A generation written before a re-shape is restored
    /// in the shape that wrote it and migrated back by
    /// [`Pipeline::repartition`]. Returns the generation's manifest: its
    /// step is the one to replay from. (A fresh read-only store handle is
    /// used so the writer thread keeps ownership of its own.)
    pub fn restore_newest(&mut self, pipeline: &mut Pipeline) -> Result<Manifest, Error> {
        self.drain();
        let reader = CheckpointStore::open(&self.cfg.dir, self.cfg.retain).map_err(Error::from)?;
        let (manifest, states) = reader.load_latest().map_err(Error::from)?;
        let written = manifest.schedule().map_err(Error::from)?;
        let reshaped = manifest.boundaries != pipeline.partition().boundaries()
            || written != *pipeline.schedule();
        let serving = reshaped.then(|| (pipeline.partition().clone(), pipeline.schedule().clone()));
        if serving.is_some() {
            pipeline.repartition(&Partition::new(manifest.boundaries.clone()), written)?;
        }
        restore_states(pipeline, &states).map_err(Error::from)?;
        if let Some((partition, schedule)) = serving {
            pipeline.repartition(&partition, schedule)?;
        }
        pipeline.clear_failstop_events();
        Ok(manifest)
    }

    /// Flush the background writer (no-op in synchronous mode). Dropping
    /// the store flushes it too.
    fn drain(&self) {
        if let Some(writer) = &self.writer {
            writer.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Action, Controller, Outcome};
    use crate::data::BatchSet;
    use crate::engine::{Pipeline, PipelineConfig};
    use crate::watchdog::{FaultReport, RuntimeError};
    use autopipe_exec::{DeviceLost, FailStopKind, FaultPlan, StageCrash};
    use autopipe_model::{ModelConfig, ModelFamily};
    use autopipe_schedule::one_f_one_b;
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

    fn sync_recovery(dir: &PathBuf) -> RecoveryConfig {
        RecoveryConfig {
            background: false,
            ..RecoveryConfig::new(dir)
        }
    }

    /// Train `steps` steps under recovery, folding every outcome through
    /// the controller: the returned losses contain each step exactly once.
    /// A shrink is re-split evenly onto the survivors under plain 1F1B.
    fn train_with_recovery(
        mut pipe: Pipeline,
        cfg: &RecoveryConfig,
        batch: &BatchSet,
        steps: usize,
    ) -> (Vec<f32>, Pipeline, Controller) {
        let mut store = RecoveryStore::open(cfg).unwrap();
        store.prime(&mut pipe).unwrap();
        let width = pipe.schedule().n_devices;
        let mut ctl = Controller::new(&vec![1.0; width], Some(cfg), None, None);
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
                Err(other) => panic!("unexpected runtime error: {other}"),
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
                        let m = pipe.schedule().n_microbatches;
                        let schedule = one_f_one_b(width, m);
                        pipe.repartition(&Partition::even(n, width), schedule)
                            .unwrap();
                    }
                    Action::Halt { reason } => panic!("halted: {reason}"),
                }
            }
        }
        (losses, pipe, ctl)
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

        // Crashed run: device 1 dies mid-iteration.
        let dir = temp_dir("recover_restart");
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
        let (losses, recovered, ctl) =
            train_with_recovery(crashed, &sync_recovery(&dir), &batch, steps);

        assert_eq!(ctl.recoveries(), 1);
        assert!(matches!(
            ctl.recovery_log()[0].action,
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
        let mut crashed = pipe(4, m);
        crashed.set_faults(
            FaultPlan {
                lost: vec![DeviceLost {
                    device: 2,
                    at_op: 4,
                }],
                ..FaultPlan::none()
            },
            0.0,
        );
        let (losses, recovered, ctl) =
            train_with_recovery(crashed, &sync_recovery(&dir), &batch, steps);

        assert_eq!(ctl.recoveries(), 1);
        match &ctl.recovery_log()[0].action {
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
    fn restore_migrates_a_generation_written_before_a_reshape() {
        let dir = temp_dir("recover_reshaped");
        let m = 4;
        let one_stage = || (Partition::new(vec![0, 7]), one_f_one_b(1, m));
        let mut want = pipe(2, m);
        let (partition, schedule) = one_stage();
        want.repartition(&partition, schedule).unwrap();

        let mut served = pipe(2, m);
        let mut store = RecoveryStore::open(&sync_recovery(&dir)).unwrap();
        store.prime(&mut served).unwrap();
        let batch = BatchSet::synthetic(52, m, 2, tiny().seq_len, tiny().vocab_size);
        served.train_iteration(&batch).unwrap();
        let (partition, schedule) = one_stage();
        served.repartition(&partition, schedule).unwrap();
        let manifest = store.restore_newest(&mut served).unwrap();

        assert_eq!((manifest.step, manifest.boundaries.len()), (0, 3));
        assert_eq!(served.schedule().n_stages(), 1);
        assert_eq!(
            served.param_checksum().to_bits(),
            want.param_checksum().to_bits(),
            "the primed parameters, re-split onto the serving shape"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fail-stop report with one event of `kind` on `device`.
    fn down(device: usize, kind: FailStopKind) -> FaultReport {
        FaultReport {
            crashed: vec![CrashEvent {
                device,
                at_op: 0,
                kind,
                detail: None,
            }],
            aborted: true,
            ..FaultReport::default()
        }
    }

    #[test]
    fn recovery_budget_exhausts_with_a_typed_error() {
        let cfg = RecoveryConfig {
            max_recoveries: 1,
            ..RecoveryConfig::new("unused")
        };
        let mut ctl = Controller::new(&[1.0, 1.0], Some(&cfg), None, None);
        let report = down(1, FailStopKind::Crash);
        let fail = Outcome::FailStop {
            step: 0,
            report: &report,
        };
        assert_eq!(ctl.fold(fail).unwrap(), vec![Action::Restore]);
        ctl.restored(0, 0);
        let err = ctl.fold(fail).unwrap_err();
        assert!(
            err.to_string().contains("recovery budget exhausted"),
            "{err}"
        );
    }

    #[test]
    fn device_lost_forces_a_shrink_even_under_restart_policy() {
        let cfg = RecoveryConfig::new("unused");
        let mut ctl = Controller::new(&[1.0, 1.0, 2.0, 1.0], Some(&cfg), None, None);
        let report = down(3, FailStopKind::Lost);
        let actions = ctl.fold(Outcome::FailStop {
            step: 2,
            report: &report,
        });
        // Restore, then re-split onto the survivors, each charged its own
        // multiplier; outside elastic membership the shrink is a recovery,
        // not a re-plan.
        assert_eq!(
            actions.unwrap(),
            vec![
                Action::Restore,
                Action::Reshape {
                    trigger: "fail-stop shrink",
                    width: 3,
                    multipliers: vec![1.0, 1.0, 2.0],
                }
            ]
        );
        ctl.restored(2, 5);
        assert_eq!(
            ctl.recovery_log()[0].action,
            RecoveryAction::Shrunk {
                from_step: 2,
                generation: 5,
                device: 3,
                devices: 3,
            }
        );
        assert_eq!((ctl.replans(), ctl.elastic_log().len()), (0, 0));
    }
}

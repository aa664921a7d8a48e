//! The run controller: every decision a training run takes between steps,
//! in one pure fold.
//!
//! A [`Controller`] holds no tensors, threads or I/O. The run loop steps the
//! pipeline, hands the [`Outcome`] to [`Controller::fold`], and applies the
//! [`Action`]s it returns in order. The controller owns the
//! [`ClusterMembership`] — the one record of which devices serve and how
//! slow each is, seeded with the configured multipliers, elastic or not —
//! the straggler baseline and streaks, the recovery budget and the logs.
//! A step folds in a fixed precedence:
//!
//! 1. **Fail-stop**: within budget, restore and replay. A lost device
//!    leaves the serving set, and the run shrinks onto the survivors.
//! 2. **Checkpoint** a completed step on the recovery cadence.
//! 3. **Membership** (elastic only): the step's scripted events and
//!    everyone else's implicit heartbeat fold once per step, however often
//!    recovery replays it; departures shrink (or halt below `min_devices`),
//!    readmissions grow, a serving device's slowdown re-plans.
//! 4. **Straggler**, only on a step without a re-shape: the first step on
//!    each shape calibrates per-stage compute time, and a stage over
//!    `threshold` × that for `window` steps re-plans at the same width.
//!
//! Every re-shape carries the serving devices' multipliers from the record,
//! and the straggler baseline re-calibrates after every re-shape or
//! restore.

use autopipe_core::{ElasticConfig, Error, MembershipConfig, RecoveryConfig, StragglerConfig};
use autopipe_exec::{FailStopKind, MembershipChange, MembershipFault, Timeline};
use autopipe_schedule::Schedule;

use crate::adaptive::stage_compute_times;
use crate::elastic::{ElasticAction, ElasticEvent};
use crate::membership::{sort_canonical, ClusterMembership, DeviceState, MemberEvent, TimedEvent};
use crate::recovery::{RecoveryAction, RecoveryExhausted, RecoveryRecord};
use crate::watchdog::{CrashEvent, FaultReport, RuntimeError};

/// What one step of a run came to.
#[derive(Debug, Clone, Copy)]
pub enum Outcome<'a> {
    /// Step `step` (counted from 1) trained to completion.
    Completed {
        /// The step's number: the steps completed so far.
        step: u64,
        /// The membership events scripted at this step.
        membership: &'a [MembershipFault],
        /// The step's timeline and the schedule it ran, when recorded.
        observed: Option<(&'a Timeline, &'a Schedule)>,
    },
    /// The step after `step` died fail-stop.
    FailStop {
        /// Steps completed before the failed one.
        step: u64,
        /// What the aborted iteration reported.
        report: &'a FaultReport,
    },
}

/// One thing the run loop must do, in the order [`Controller::fold`] lists
/// them.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Snapshot the pipeline as of `step` completed steps.
    Checkpoint {
        /// The snapshot's step.
        step: u64,
    },
    /// Load the newest durable generation, drop the steps past it and
    /// replay them; report the generation with [`Controller::restored`].
    Restore,
    /// Re-plan onto `width` devices, device `d` running `multipliers[d]`
    /// times slower than profiled, and hot-swap the pipeline.
    Reshape {
        /// What called for it, for error messages.
        trigger: &'static str,
        /// Serving devices after the re-shape.
        width: usize,
        /// Per serving device, in stage order.
        multipliers: Vec<f64>,
    },
    /// Stop the run: the serving set fell below the elastic floor.
    Halt {
        /// Why, for the error the run surfaces.
        reason: String,
    },
}

/// Folds step outcomes into actions. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Controller {
    membership: ClusterMembership,
    /// Membership transitions already translated into actions.
    cursor: usize,
    /// The highest step whose scripted membership has been folded.
    folded: u64,
    elastic: Option<ElasticConfig>,
    recovery: Option<RecoveryConfig>,
    straggler: Option<StragglerConfig>,
    /// Expected per-stage compute seconds on the shape in force; `None`
    /// until the next completed step calibrates it.
    baseline: Option<Vec<f64>>,
    /// Consecutive over-threshold steps per stage.
    streaks: Vec<usize>,
    /// The crash of a restore not yet reported back, with the (pipeline
    /// position, width after) of the shrink it called for.
    pending: Option<(CrashEvent, Option<(usize, usize)>)>,
    recovery_log: Vec<RecoveryRecord>,
    elastic_log: Vec<ElasticEvent>,
    replans: usize,
}

impl Controller {
    /// A run on `multipliers.len()` serving devices, device `d` running
    /// `multipliers[d]` times slower than profiled. `recovery` arms
    /// checkpoints and fail-stop recovery, `elastic` folds scripted
    /// membership, `straggler` re-plans around persistently slow stages.
    pub fn new(
        multipliers: &[f64],
        recovery: Option<&RecoveryConfig>,
        elastic: Option<&ElasticConfig>,
        straggler: Option<StragglerConfig>,
    ) -> Controller {
        let health = elastic.map_or(MembershipConfig::default(), |e| e.membership);
        let mut membership = ClusterMembership::new(multipliers.len(), health);
        for (d, &m) in multipliers.iter().enumerate() {
            membership.set_multiplier(d, m);
        }
        Controller {
            membership,
            cursor: 0,
            folded: 0,
            elastic: elastic.cloned(),
            recovery: recovery.cloned(),
            straggler,
            baseline: None,
            streaks: Vec::new(),
            pending: None,
            recovery_log: Vec::new(),
            elastic_log: Vec::new(),
            replans: 0,
        }
    }

    /// Fold one step's outcome into the actions it calls for, in order.
    /// Errors when the recovery budget is spent, when the only device is
    /// lost, and when a step's timeline cannot calibrate the straggler
    /// baseline.
    pub fn fold(&mut self, outcome: Outcome<'_>) -> Result<Vec<Action>, Error> {
        let mut actions = Vec::new();
        match outcome {
            Outcome::FailStop { step, report } => {
                let max = self.recovery.as_ref().map_or(0, |r| r.max_recoveries);
                if self.recovery_log.len() >= max {
                    return Err(Error::Runtime(Box::new(RecoveryExhausted {
                        recoveries: self.recovery_log.len(),
                    })));
                }
                // A lost device anywhere in the report dictates the shrink,
                // even when a collateral crash event sorts ahead of it.
                let crash = (report.crashed.iter())
                    .find(|c| c.kind == FailStopKind::Lost)
                    .or_else(|| report.first_crash())
                    .cloned()
                    .unwrap_or_else(|| CrashEvent {
                        device: 0,
                        at_op: 0,
                        kind: FailStopKind::Crash,
                        detail: Some("stage down without a crash event".into()),
                    });
                actions.push(Action::Restore);
                let mut shrink = None;
                if crash.kind == FailStopKind::Lost {
                    let width = self.membership.serving() - 1;
                    if width < 1 {
                        return Err(Error::Config(
                            "lost the only device; nothing left to shrink onto".into(),
                        ));
                    }
                    let device = self.membership.serving_devices()[crash.device];
                    self.membership.observe(step, device, MemberEvent::Leave);
                    self.translate(step, &mut actions);
                    shrink = Some((crash.device, width));
                }
                self.pending = Some((crash, shrink));
                self.baseline = None;
            }
            Outcome::Completed {
                step,
                membership,
                observed,
            } => {
                let cadence = self.recovery.as_ref().map(|r| r.cadence as u64);
                if cadence.is_some_and(|c| step > 0 && step.is_multiple_of(c)) {
                    actions.push(Action::Checkpoint { step });
                }
                if self.elastic.is_some() && step > self.folded {
                    self.folded = step;
                    self.fold_membership(step, membership, &mut actions);
                }
                let reshaped = (actions.iter()).any(|a| !matches!(a, Action::Checkpoint { .. }));
                if let (false, Some(cfg), Some((tl, sched))) = (reshaped, self.straggler, observed)
                {
                    self.observe(cfg, tl, sched, &mut actions)?;
                }
            }
        }
        if actions.iter().any(|a| matches!(a, Action::Reshape { .. })) {
            self.baseline = None;
        }
        Ok(actions)
    }

    /// Record the generation an [`Action::Restore`] loaded: its step and
    /// number.
    ///
    /// # Panics
    ///
    /// Without a fail-stop folded since the last call.
    pub fn restored(&mut self, from_step: u64, generation: u64) {
        let (crash, shrink) = self.pending.take().expect("no restore was asked for");
        let action = match shrink {
            Some((device, devices)) => RecoveryAction::Shrunk {
                from_step,
                generation,
                device,
                devices,
            },
            None => RecoveryAction::Resumed {
                from_step,
                generation,
            },
        };
        self.recovery_log.push(RecoveryRecord { crash, action });
    }

    /// The serving devices in stage order.
    pub fn serving(&self) -> Vec<usize> {
        self.membership.serving_devices()
    }

    /// The record's multiplier of each serving device, in stage order.
    pub fn serving_multipliers(&self) -> Vec<f64> {
        self.membership.serving_multipliers()
    }

    /// Fail-stop recoveries performed.
    pub fn recoveries(&self) -> usize {
        self.recovery_log.len()
    }

    /// What each recovery did.
    pub fn recovery_log(&self) -> &[RecoveryRecord] {
        &self.recovery_log
    }

    /// Every membership decision taken (empty without elastic membership).
    pub fn elastic_log(&self) -> &[ElasticEvent] {
        &self.elastic_log
    }

    /// Re-shapes other than a fail-stop shrink outside elastic membership,
    /// which is one of the recoveries.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Fold one step's scripted events, and an implicit heartbeat from every
    /// other device on the roster, one event at a time; then re-plan if a
    /// slowdown changed what a serving device is charged.
    fn fold_membership(&mut self, step: u64, faults: &[MembershipFault], out: &mut Vec<Action>) {
        let at = |device, event| TimedEvent {
            at: step,
            device,
            event,
        };
        let mut events = Vec::new();
        let mut slowed = Vec::new();
        for f in faults {
            match f.change {
                MembershipChange::Leave => events.push(at(f.device, MemberEvent::Leave)),
                MembershipChange::Join => events.push(at(f.device, MemberEvent::Join)),
                MembershipChange::Flap { beats } => {
                    // `beats` silent heartbeat periods, then the device is
                    // back — all within this step's health-check window.
                    events.extend((0..beats).map(|_| at(f.device, MemberEvent::Missed)));
                    events.push(at(f.device, MemberEvent::Heartbeat));
                }
                MembershipChange::Slowdown { factor } => {
                    let factor = factor.max(f64::MIN_POSITIVE);
                    if self.membership.multiplier(f.device) != factor {
                        self.membership.set_multiplier(f.device, factor);
                        slowed.push(f.device);
                    }
                }
            }
        }
        for d in 0..self.membership.len() {
            if self.membership.state(d) != DeviceState::Evicted
                && !events.iter().any(|e| e.device == d)
            {
                events.push(at(d, MemberEvent::Heartbeat));
            }
        }
        // Flap misses fold before the recovery beat: the canonical (tick,
        // device, kind) order ranks Missed before Heartbeat. Each event's
        // transition is translated before the next folds, so every action
        // names the width serving at that moment.
        sort_canonical(&mut events);
        for e in events {
            self.membership.observe(e.at, e.device, e.event);
            self.translate(step, out);
        }
        if slowed.iter().any(|&d| self.membership.state(d).serves()) {
            let multipliers = self.serving_multipliers();
            self.decide(step, ElasticAction::Replan { multipliers }, out);
        }
    }

    /// Translate the membership transitions logged since the last call: a
    /// serving device leaving shrinks (or halts below the floor), a
    /// readmitted one grows the run back.
    fn translate(&mut self, step: u64, out: &mut Vec<Action>) {
        let floor = self.elastic.as_ref().map_or(1, |e| e.min_devices);
        while let Some(&t) = self.membership.log().get(self.cursor) {
            self.cursor += 1;
            let action = if t.from.serves() && !t.to.serves() {
                let survivors = self.membership.serving();
                if survivors < floor {
                    let how = match t.to {
                        DeviceState::Evicted => "evicted",
                        _ => "quarantined",
                    };
                    let reason = format!(
                        "device {} {how} left {survivors} serving devices, below the elastic \
                         floor of {floor}",
                        t.device
                    );
                    ElasticAction::Halt { reason }
                } else {
                    ElasticAction::Shrink {
                        survivors,
                        device: t.device,
                    }
                }
            } else if t.to == DeviceState::Readmitted {
                self.membership.mark_grown(step, t.device);
                ElasticAction::Grow {
                    target: self.membership.serving(),
                    device: t.device,
                }
            } else {
                continue;
            };
            self.decide(step, action, out);
        }
    }

    /// Turn one membership decision into the run's action: logged and
    /// counted as a re-plan under elastic membership; outside it only a
    /// fail-stop loss reaches here, and its shrink is a recovery.
    fn decide(&mut self, step: u64, action: ElasticAction, out: &mut Vec<Action>) {
        let multipliers = self.serving_multipliers();
        let elastic = self.elastic.is_some();
        out.push(match &action {
            ElasticAction::Halt { reason } => Action::Halt {
                reason: reason.clone(),
            },
            ElasticAction::Shrink { survivors, .. } => Action::Reshape {
                trigger: if elastic {
                    "elastic shrink"
                } else {
                    "fail-stop shrink"
                },
                width: *survivors,
                multipliers,
            },
            ElasticAction::Grow { target, .. } => Action::Reshape {
                trigger: "elastic grow",
                width: *target,
                multipliers,
            },
            ElasticAction::Replan { multipliers } => Action::Reshape {
                trigger: "slowdown re-plan",
                width: multipliers.len(),
                multipliers: multipliers.clone(),
            },
        });
        if elastic {
            self.replans += usize::from(!matches!(action, ElasticAction::Halt { .. }));
            self.elastic_log.push(ElasticEvent { step, action });
        }
    }

    /// Calibrate the straggler baseline on the first step of a shape, or
    /// count each stage's slow streak and re-plan once one reaches the
    /// window.
    fn observe(
        &mut self,
        cfg: StragglerConfig,
        tl: &Timeline,
        sched: &Schedule,
        out: &mut Vec<Action>,
    ) -> Result<(), Error> {
        let times = stage_compute_times(tl, sched);
        let Some(baseline) = &self.baseline else {
            if times.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
                return Err(RuntimeError::InvalidConfig(format!(
                    "straggler baseline needs finite, positive stage times, got {times:?}"
                ))
                .into());
            }
            self.streaks = vec![0; times.len()];
            self.baseline = Some(times);
            return Ok(());
        };
        let ratios: Vec<f64> = times.iter().zip(baseline).map(|(t, e)| t / e).collect();
        for (streak, &ratio) in self.streaks.iter_mut().zip(&ratios) {
            *streak = if ratio > cfg.threshold {
                *streak + 1
            } else {
                0
            };
        }
        if self.streaks.iter().all(|&s| s < cfg.window) {
            return Ok(());
        }
        // A device is as slow as its slowest chunk-stage. Ratios below 1 are
        // clamped: a fast stage is not evidence the record overcharges it.
        for (position, device) in self.serving().into_iter().enumerate() {
            let ratio = (0..sched.n_chunks)
                .map(|c| ratios[sched.stage_of(position, c)])
                .fold(1.0, f64::max);
            let known = self.membership.multiplier(device);
            self.membership.set_multiplier(device, ratio * known);
        }
        let multipliers = self.serving_multipliers();
        self.replans += 1;
        out.push(Action::Reshape {
            trigger: "straggler re-plan",
            width: multipliers.len(),
            multipliers,
        });
        Ok(())
    }
}

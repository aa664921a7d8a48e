//! The elastic coordinator: membership transitions → pipeline actions.
//!
//! [`ElasticCoordinator`] sits between the chaos/ops layer (scripted or real
//! [`autopipe_exec::MembershipFault`] events, and the fail-stop losses
//! recovery names) and the session run loop. It owns the
//! [`ClusterMembership`] — the one record of which devices serve and how
//! slow each is — and keeps only its config, a cursor into the membership's
//! transition log and its own decision log beside it. Each training step it
//! feeds the step's membership events plus implicit heartbeats through the
//! state machine one event at a time, and translates each new transition
//! into an [`ElasticAction`] the caller executes against the pipeline,
//! naming the width the membership now serves:
//!
//! * a serving device entering `Quarantined`/`Evicted` (a scripted leave, a
//!   missed-heartbeat walk, or a fail-stop loss folded in as a leave by
//!   [`ElasticCoordinator::on_loss`]) → [`ElasticAction::Shrink`] — re-plan
//!   at the serving width and keep training degraded while the device
//!   proves itself;
//! * a device reaching `Readmitted` (or joining and proving itself) →
//!   [`ElasticAction::Grow`] — re-plan at the serving width and migrate
//!   state back through the repartition path;
//! * an observed slowdown → [`ElasticAction::Replan`] with the serving
//!   devices' multipliers, so the planner's balance objective charges the
//!   slow device honestly (heterogeneity-aware planning);
//! * the serving set dropping below the configured floor →
//!   [`ElasticAction::Halt`].
//!
//! The coordinator is deterministic: actions are a pure function of the
//! event history, and the per-step event order is canonicalised the way
//! [`ClusterMembership::apply_all`] orders a batch, so replaying a chaos script reproduces the same
//! grow/shrink sequence bit-for-bit on both executors.

use autopipe_core::ElasticConfig;
use autopipe_exec::{MembershipChange, MembershipFault};

use crate::membership::{sort_canonical, ClusterMembership, DeviceState, MemberEvent, TimedEvent};

/// What the run loop must do in response to membership churn, in the order
/// emitted.
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticAction {
    /// Re-plan onto `survivors` stages (the named device left the serving
    /// set) and hot-swap via the repartition migration path.
    Shrink {
        /// Pipeline width after the shrink.
        survivors: usize,
        /// Device that was quarantined/evicted.
        device: usize,
    },
    /// Re-plan onto `target` stages (the named device was readmitted) and
    /// migrate state back through the checkpoint-path repartition.
    Grow {
        /// Pipeline width after the grow.
        target: usize,
        /// Device that rejoined the serving set.
        device: usize,
    },
    /// Re-plan at the current width with these per-*stage* compute
    /// multipliers (serving devices only, pipeline order) folded into the
    /// cost database.
    Replan {
        /// Multiplier per serving device, in stage order.
        multipliers: Vec<f64>,
    },
    /// The serving set fell below `ElasticConfig::min_devices`.
    Halt {
        /// Human-readable cause for the error surfaced to the caller.
        reason: String,
    },
}

/// One coordinator decision, for reports and the chaos-campaign asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEvent {
    /// Training step the action fired on.
    pub step: u64,
    /// The action taken.
    pub action: ElasticAction,
}

/// Drives elastic membership for one pipeline. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ElasticCoordinator {
    cfg: ElasticConfig,
    membership: ClusterMembership,
    /// Transitions already translated into actions.
    cursor: usize,
    log: Vec<ElasticEvent>,
}

impl ElasticCoordinator {
    /// A coordinator for a cluster of `n` devices, all serving.
    pub fn new(n: usize, cfg: ElasticConfig) -> ElasticCoordinator {
        ElasticCoordinator {
            membership: ClusterMembership::new(n, cfg.membership),
            cfg,
            cursor: 0,
            log: Vec::new(),
        }
    }

    /// Devices currently serving stages, in stage order.
    pub fn serving(&self) -> Vec<usize> {
        self.membership.serving_devices()
    }

    /// Current multiplier of each *serving* device, in stage order — what a
    /// heterogeneity-aware re-plan should fold into the cost database.
    pub fn serving_multipliers(&self) -> Vec<f64> {
        self.membership.serving_multipliers()
    }

    /// Every action taken so far.
    pub fn log(&self) -> &[ElasticEvent] {
        &self.log
    }

    /// Feed one training step's membership faults (from the chaos script or
    /// a real health checker) and return the actions to execute, in order.
    /// Devices without an explicit event heartbeat implicitly — a
    /// quarantined device proves itself simply by staying healthy.
    pub fn on_step(&mut self, step: u64, faults: &[MembershipFault]) -> Vec<ElasticAction> {
        let mut events: Vec<TimedEvent> = Vec::new();
        let at = |device, event| TimedEvent {
            at: step,
            device,
            event,
        };
        let mut slowdown = false;
        for f in faults {
            match f.change {
                MembershipChange::Leave => events.push(at(f.device, MemberEvent::Leave)),
                MembershipChange::Join => events.push(at(f.device, MemberEvent::Join)),
                MembershipChange::Flap { beats } => {
                    // A flap is `beats` silent heartbeat periods followed by
                    // the device coming back — all observed within this
                    // step's health-check window.
                    for _ in 0..beats {
                        events.push(at(f.device, MemberEvent::Missed));
                    }
                    events.push(at(f.device, MemberEvent::Heartbeat));
                }
                MembershipChange::Slowdown { factor } => {
                    self.membership
                        .set_multiplier(f.device, factor.max(f64::MIN_POSITIVE));
                    slowdown = true;
                }
            }
        }
        // Implicit heartbeats for everyone else still on the roster.
        for d in 0..self.membership.len() {
            if self.membership.state(d) != DeviceState::Evicted
                && !events.iter().any(|e| e.device == d)
            {
                events.push(at(d, MemberEvent::Heartbeat));
            }
        }
        // Flap misses and the recovery beat must fold in script order for
        // one device, which the canonical (at, device, rank) sort preserves
        // (Missed ranks before Heartbeat). Each event's transition is
        // translated before the next event folds, so every action names the
        // width serving at that moment.
        sort_canonical(&mut events);
        let mut actions = Vec::new();
        for e in events {
            self.membership.observe(e.at, e.device, e.event);
            self.translate(step, &mut actions);
        }
        if slowdown {
            // Only re-plan when the serving set is actually skewed — an
            // all-baseline update is a no-op.
            let multipliers = self.serving_multipliers();
            if multipliers.iter().any(|&m| m != 1.0) {
                actions.push(ElasticAction::Replan { multipliers });
            }
        }
        self.record(step, actions)
    }

    /// Fold a fail-stop loss into the membership as a graceful `Leave` of
    /// the device serving pipeline position `position` (the crashed stage's
    /// device index), and return what it calls for: a shrink to the width
    /// still serving, or a halt below the floor.
    ///
    /// # Panics
    ///
    /// When `position` is not below the serving count — the pipeline is
    /// always as wide as the membership's serving set.
    pub fn on_loss(&mut self, step: u64, position: usize) -> Vec<ElasticAction> {
        let device = self.serving()[position];
        self.membership.observe(step, device, MemberEvent::Leave);
        let mut actions = Vec::new();
        self.translate(step, &mut actions);
        self.record(step, actions)
    }

    /// Translate the transitions the membership logged since the last call.
    fn translate(&mut self, step: u64, actions: &mut Vec<ElasticAction>) {
        while let Some(&t) = self.membership.log().get(self.cursor) {
            self.cursor += 1;
            if t.from.serves() && !t.to.serves() {
                let survivors = self.membership.serving();
                actions.push(if survivors < self.cfg.min_devices {
                    ElasticAction::Halt {
                        reason: format!(
                            "device {} {} left {survivors} serving devices, below the \
                             elastic floor of {}",
                            t.device,
                            if t.to == DeviceState::Evicted {
                                "evicted"
                            } else {
                                "quarantined"
                            },
                            self.cfg.min_devices
                        ),
                    }
                } else {
                    ElasticAction::Shrink {
                        survivors,
                        device: t.device,
                    }
                });
            } else if t.to == DeviceState::Readmitted {
                self.membership.mark_grown(step, t.device);
                actions.push(ElasticAction::Grow {
                    target: self.membership.serving(),
                    device: t.device,
                });
            }
        }
    }

    fn record(&mut self, step: u64, actions: Vec<ElasticAction>) -> Vec<ElasticAction> {
        self.log.extend(actions.iter().map(|a| ElasticEvent {
            step,
            action: a.clone(),
        }));
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_core::MembershipConfig;

    fn cfg() -> ElasticConfig {
        ElasticConfig::default()
    }

    fn fault(device: usize, at_step: u64, change: MembershipChange) -> MembershipFault {
        MembershipFault {
            device,
            at_step,
            change,
        }
    }

    #[test]
    fn leave_shrinks_and_rejoin_grows_back() {
        let mut c = ElasticCoordinator::new(4, cfg());
        let a = c.on_step(1, &[fault(2, 1, MembershipChange::Leave)]);
        assert_eq!(
            a,
            vec![ElasticAction::Shrink {
                survivors: 3,
                device: 2
            }]
        );
        assert_eq!(c.serving(), &[0, 1, 3]);
        // Rejoin: quarantined, then proves itself over the cooldown.
        let a = c.on_step(2, &[fault(2, 2, MembershipChange::Join)]);
        assert!(a.is_empty(), "{a:?}");
        let cooldown = cfg().membership.quarantine_cooldown as u64;
        let mut grown = Vec::new();
        for s in 0..cooldown {
            grown = c.on_step(3 + s, &[]);
        }
        assert_eq!(
            grown,
            vec![ElasticAction::Grow {
                target: 4,
                device: 2
            }]
        );
        assert_eq!(c.serving(), &[0, 1, 2, 3]);
        assert_eq!(c.log().len(), 2);
    }

    #[test]
    fn a_loss_is_a_leave_of_the_device_serving_that_position() {
        let mut ec = cfg();
        ec.min_devices = 2;
        let mut c = ElasticCoordinator::new(4, ec);
        let _ = c.on_step(1, &[fault(1, 1, MembershipChange::Leave)]);
        // Position 1 of the degraded pipeline [0, 2, 3] is device 2.
        assert_eq!(
            c.on_loss(2, 1),
            vec![ElasticAction::Shrink {
                survivors: 2,
                device: 2
            }]
        );
        assert_eq!(c.serving(), &[0, 3]);
        // The lost device rejoins like any other departed one.
        let _ = c.on_step(3, &[fault(2, 3, MembershipChange::Join)]);
        let cooldown = cfg().membership.quarantine_cooldown as u64;
        let grown: Vec<_> = (0..cooldown).flat_map(|s| c.on_step(4 + s, &[])).collect();
        assert_eq!(
            grown,
            vec![ElasticAction::Grow {
                target: 3,
                device: 2
            }]
        );
        // A loss below the floor halts instead of shrinking.
        let _ = c.on_loss(9, 0);
        let halt = c.on_loss(10, 0);
        assert!(
            matches!(halt.as_slice(), [ElasticAction::Halt { .. }]),
            "{halt:?}"
        );
    }

    #[test]
    fn deep_flap_quarantines_then_proves_itself() {
        let mc = MembershipConfig::default();
        let mut c = ElasticCoordinator::new(3, cfg());
        // One flap long enough to cross quarantine_after: shrink now, grow
        // after the cooldown.
        let a = c.on_step(
            1,
            &[fault(
                1,
                1,
                MembershipChange::Flap {
                    beats: mc.quarantine_after,
                },
            )],
        );
        assert_eq!(
            a,
            vec![ElasticAction::Shrink {
                survivors: 2,
                device: 1
            }]
        );
        let mut last = Vec::new();
        for s in 0..mc.quarantine_cooldown as u64 + 1 {
            last = c.on_step(2 + s, &[]);
            if !last.is_empty() {
                break;
            }
        }
        assert_eq!(
            last,
            vec![ElasticAction::Grow {
                target: 3,
                device: 1
            }]
        );
    }

    #[test]
    fn shallow_flaps_trip_the_hysteresis_not_each_outage() {
        let mc = MembershipConfig::default();
        let mut c = ElasticCoordinator::new(3, cfg());
        // Each flap is below quarantine_after: no shrink per flap...
        let mut shrunk = None;
        for i in 0..mc.flap_threshold as u64 {
            let a = c.on_step(
                1 + i,
                &[fault(
                    0,
                    1 + i,
                    MembershipChange::Flap {
                        beats: mc.suspect_after,
                    },
                )],
            );
            if !a.is_empty() {
                shrunk = Some((i, a));
                break;
            }
        }
        // ...until the flap_threshold-th recovery parks it in quarantine.
        let (i, a) = shrunk.expect("flapping device was never quarantined");
        assert_eq!(i, mc.flap_threshold as u64 - 1);
        assert_eq!(
            a,
            vec![ElasticAction::Shrink {
                survivors: 2,
                device: 0
            }]
        );
    }

    #[test]
    fn slowdown_triggers_heterogeneity_replan_with_serving_multipliers() {
        let mut c = ElasticCoordinator::new(3, cfg());
        let a = c.on_step(
            1,
            &[fault(1, 1, MembershipChange::Slowdown { factor: 2.5 })],
        );
        assert_eq!(
            a,
            vec![ElasticAction::Replan {
                multipliers: vec![1.0, 2.5, 1.0]
            }]
        );
        // After device 1 leaves, its multiplier leaves the serving view too.
        let _ = c.on_step(2, &[fault(1, 2, MembershipChange::Leave)]);
        assert_eq!(c.serving_multipliers(), vec![1.0, 1.0]);
    }

    #[test]
    fn halting_below_the_floor() {
        let mut ec = cfg();
        ec.min_devices = 2;
        let mut c = ElasticCoordinator::new(2, ec);
        let a = c.on_step(1, &[fault(0, 1, MembershipChange::Leave)]);
        assert!(
            matches!(a.as_slice(), [ElasticAction::Halt { .. }]),
            "{a:?}"
        );
    }

    #[test]
    fn replaying_the_same_script_reproduces_the_same_decisions() {
        let script = [
            (1u64, fault(2, 1, MembershipChange::Leave)),
            (3, fault(0, 3, MembershipChange::Slowdown { factor: 2.0 })),
            (4, fault(2, 4, MembershipChange::Join)),
        ];
        let run = |steps: u64| {
            let mut c = ElasticCoordinator::new(4, cfg());
            for s in 1..=steps {
                let evs: Vec<MembershipFault> = script
                    .iter()
                    .filter(|(at, _)| *at == s)
                    .map(|(_, f)| *f)
                    .collect();
                let _ = c.on_step(s, &evs);
            }
            c.log().to_vec()
        };
        assert_eq!(run(12), run(12));
    }
}

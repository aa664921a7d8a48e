//! The elastic log: what the run controller decided under membership
//! churn.
//!
//! [`Controller`](crate::Controller) folds each step's membership events
//! (scripted leaves, joins, flaps and slowdowns, plus the implicit
//! heartbeats of everyone else) and the fail-stop losses recovery names
//! through the [`ClusterMembership`](crate::ClusterMembership) state
//! machine, and logs each decision as an [`ElasticEvent`]:
//!
//! * a serving device entering `Quarantined` / `Evicted` →
//!   [`ElasticAction::Shrink`], training on degraded while it proves itself;
//! * a device reaching `Readmitted` → [`ElasticAction::Grow`], state
//!   migrating back through the repartition path;
//! * a slowdown of a serving device → [`ElasticAction::Replan`] with the
//!   serving devices' multipliers;
//! * the serving set dropping below the configured floor →
//!   [`ElasticAction::Halt`].
//!
//! Decisions are a pure function of the event history: replaying a chaos
//! script reproduces the same log bit for bit.

/// One membership decision, in the order taken.
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
    /// Re-plan at the current width with these per-device compute
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

/// One logged decision, for reports and the chaos-campaign asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticEvent {
    /// Training step the action fired on.
    pub step: u64,
    /// The action taken.
    pub action: ElasticAction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Action, Controller, Outcome};
    use crate::watchdog::{CrashEvent, FaultReport};
    use autopipe_core::{ElasticConfig, MembershipConfig, RecoveryConfig};
    use autopipe_exec::{FailStopKind, MembershipChange, MembershipFault};

    fn cfg() -> ElasticConfig {
        ElasticConfig::default()
    }

    /// A controller for `n` devices under elastic membership, with recovery
    /// armed so losses can be folded.
    fn controller(n: usize, ec: ElasticConfig) -> Controller {
        let recovery = RecoveryConfig::new("unused");
        Controller::new(&vec![1.0; n], Some(&recovery), Some(&ec), None)
    }

    /// The membership decisions logged since `before`.
    fn logged_since(c: &Controller, before: usize) -> Vec<ElasticAction> {
        (c.elastic_log()[before..].iter())
            .map(|e| e.action.clone())
            .collect()
    }

    /// Fold a completed step with its scripted membership events.
    fn on_step(c: &mut Controller, step: u64, faults: &[MembershipFault]) -> Vec<ElasticAction> {
        let before = c.elastic_log().len();
        let step = Outcome::Completed {
            step,
            membership: faults,
            observed: None,
        };
        c.fold(step).unwrap();
        logged_since(c, before)
    }

    /// Fold the loss of the device serving pipeline `position`.
    fn on_loss(c: &mut Controller, step: u64, position: usize) -> Vec<ElasticAction> {
        let before = c.elastic_log().len();
        let report = FaultReport {
            crashed: vec![CrashEvent {
                device: position,
                at_op: 0,
                kind: FailStopKind::Lost,
                detail: None,
            }],
            aborted: true,
            ..FaultReport::default()
        };
        c.fold(Outcome::FailStop {
            step,
            report: &report,
        })
        .unwrap();
        c.restored(0, 0);
        logged_since(c, before)
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
        let mut c = controller(4, cfg());
        let a = on_step(&mut c, 1, &[fault(2, 1, MembershipChange::Leave)]);
        assert_eq!(
            a,
            vec![ElasticAction::Shrink {
                survivors: 3,
                device: 2
            }]
        );
        assert_eq!(c.serving(), &[0, 1, 3]);
        // Rejoin: quarantined, then proves itself over the cooldown.
        let a = on_step(&mut c, 2, &[fault(2, 2, MembershipChange::Join)]);
        assert!(a.is_empty(), "{a:?}");
        let cooldown = cfg().membership.quarantine_cooldown as u64;
        let mut grown = Vec::new();
        for s in 0..cooldown {
            grown = on_step(&mut c, 3 + s, &[]);
        }
        assert_eq!(
            grown,
            vec![ElasticAction::Grow {
                target: 4,
                device: 2
            }]
        );
        assert_eq!(c.serving(), &[0, 1, 2, 3]);
        assert_eq!(c.elastic_log().len(), 2);
    }

    #[test]
    fn a_loss_is_a_leave_of_the_device_serving_that_position() {
        let mut ec = cfg();
        ec.min_devices = 2;
        let mut c = controller(4, ec);
        let _ = on_step(&mut c, 1, &[fault(1, 1, MembershipChange::Leave)]);
        // Position 1 of the degraded pipeline [0, 2, 3] is device 2.
        assert_eq!(
            on_loss(&mut c, 2, 1),
            vec![ElasticAction::Shrink {
                survivors: 2,
                device: 2
            }]
        );
        assert_eq!(c.serving(), &[0, 3]);
        // The lost device rejoins like any other departed one.
        let _ = on_step(&mut c, 3, &[fault(2, 3, MembershipChange::Join)]);
        let cooldown = cfg().membership.quarantine_cooldown as u64;
        let grown: Vec<_> = (0..cooldown)
            .flat_map(|s| on_step(&mut c, 4 + s, &[]))
            .collect();
        assert_eq!(
            grown,
            vec![ElasticAction::Grow {
                target: 3,
                device: 2
            }]
        );
        // A loss below the floor halts instead of shrinking.
        let _ = on_loss(&mut c, 9, 0);
        let halt = on_loss(&mut c, 10, 0);
        assert!(
            matches!(halt.as_slice(), [ElasticAction::Halt { .. }]),
            "{halt:?}"
        );
    }

    #[test]
    fn deep_flap_quarantines_then_proves_itself() {
        let mc = MembershipConfig::default();
        let mut c = controller(3, cfg());
        // One flap long enough to cross quarantine_after: shrink now, grow
        // after the cooldown.
        let a = on_step(
            &mut c,
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
            last = on_step(&mut c, 2 + s, &[]);
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
        let mut c = controller(3, cfg());
        // Each flap is below quarantine_after: no shrink per flap...
        let mut shrunk = None;
        for i in 0..mc.flap_threshold as u64 {
            let a = on_step(
                &mut c,
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
        let mut c = controller(3, cfg());
        let a = on_step(
            &mut c,
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
        let _ = on_step(&mut c, 2, &[fault(1, 2, MembershipChange::Leave)]);
        assert_eq!(c.serving_multipliers(), vec![1.0, 1.0]);
    }

    #[test]
    fn halting_below_the_floor() {
        let mut ec = cfg();
        ec.min_devices = 2;
        let mut c = controller(2, ec);
        let a = on_step(&mut c, 1, &[fault(0, 1, MembershipChange::Leave)]);
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
            let mut c = controller(4, cfg());
            for s in 1..=steps {
                let evs: Vec<MembershipFault> = script
                    .iter()
                    .filter(|(at, _)| *at == s)
                    .map(|(_, f)| *f)
                    .collect();
                let _ = on_step(&mut c, s, &evs);
            }
            c.elastic_log().to_vec()
        };
        assert_eq!(run(12), run(12));
    }

    /// A fail-stop restored to an earlier generation replays the steps
    /// since, but the cluster does not relive them: each step's scripted
    /// events and implicit heartbeats fold once, so a replayed slowdown
    /// does not re-plan again and a quarantined device's cooldown does not
    /// count the replayed steps twice.
    #[test]
    fn a_replayed_step_folds_its_membership_once() {
        let slow = |factor| fault(2, 0, MembershipChange::Slowdown { factor });
        let script = |s: u64| match s {
            1 => vec![fault(1, 1, MembershipChange::Leave)],
            2 => vec![fault(1, 2, MembershipChange::Join)],
            3 => vec![slow(2.0)],
            4 => vec![slow(3.0)],
            _ => vec![],
        };
        let mut clean = controller(4, cfg());
        for s in 1..=8 {
            on_step(&mut clean, s, &script(s));
        }
        let mut replayed = controller(4, cfg());
        for s in 1..=4 {
            on_step(&mut replayed, s, &script(s));
        }
        // Step 5 dies in place; the newest generation is step 2's.
        let crash = FaultReport {
            crashed: vec![CrashEvent {
                device: 0,
                at_op: 0,
                kind: FailStopKind::Crash,
                detail: None,
            }],
            aborted: true,
            ..FaultReport::default()
        };
        let restore = Outcome::FailStop {
            step: 4,
            report: &crash,
        };
        assert_eq!(replayed.fold(restore).unwrap(), vec![Action::Restore]);
        replayed.restored(2, 1);
        for s in 3..=8 {
            on_step(&mut replayed, s, &script(s));
        }
        assert_eq!(replayed.elastic_log(), clean.elastic_log());
        let cooldown = cfg().membership.quarantine_cooldown as u64;
        let replan = |multipliers| ElasticAction::Replan { multipliers };
        assert_eq!(
            (clean.elastic_log().iter())
                .map(|e| (e.step, e.action.clone()))
                .collect::<Vec<_>>(),
            vec![
                (
                    1,
                    ElasticAction::Shrink {
                        survivors: 3,
                        device: 1
                    }
                ),
                (3, replan(vec![1.0, 2.0, 1.0])),
                (4, replan(vec![1.0, 3.0, 1.0])),
                (
                    2 + cooldown,
                    ElasticAction::Grow {
                        target: 4,
                        device: 1
                    }
                ),
            ]
        );
    }
}

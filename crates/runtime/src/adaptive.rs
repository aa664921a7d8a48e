//! What straggler detection measures: each chunk-stage's compute time in a
//! recorded [`Timeline`].
//!
//! The run [`Controller`](crate::Controller) calibrates these times on the
//! first step of every shape, compares later steps against them, and
//! re-plans once a stage stays slow for its window (see its module docs).

use autopipe_exec::Timeline;
use autopipe_schedule::Schedule;

/// Sum each chunk-stage's compute (Fwd + Bwd) durations over a timeline.
pub(crate) fn stage_compute_times(tl: &Timeline, sched: &Schedule) -> Vec<f64> {
    let mut times = vec![0.0; sched.n_stages()];
    for d in 0..tl.n_devices().min(sched.n_devices) {
        for e in tl.device(d) {
            if e.op.is_compute() {
                times[sched.stage_of(d, e.op.chunk())] += e.end - e.start;
            }
        }
    }
    times
}

#[cfg(test)]
mod tests {
    use crate::controller::{Action, Controller, Outcome};
    use crate::watchdog::{CrashEvent, FaultReport};
    use autopipe_core::{RecoveryConfig, StragglerConfig};
    use autopipe_exec::{FailStopKind, OpTimes, Recorder, Timeline, TraceSink};
    use autopipe_schedule::{one_f_one_b, Schedule};

    /// A timeline where every compute op on every device takes `per_op[d]`.
    fn synthetic_timeline(sched: &Schedule, per_op: &[f64]) -> Timeline {
        let mut rec = Recorder::for_programs(&sched.devices);
        for (d, ops) in sched.devices.iter().enumerate() {
            let mut t = 0.0;
            let times: Vec<OpTimes> = ops
                .iter()
                .map(|op| {
                    let dur = if op.is_compute() { per_op[d] } else { 0.01 };
                    let s = t;
                    t += dur;
                    OpTimes {
                        start: s,
                        ready: s,
                        end: t,
                    }
                })
                .collect();
            rec.record_run(d, &times);
        }
        rec.finish()
    }

    /// A straggler-aware controller on two devices charged `multipliers`.
    fn controller(multipliers: &[f64], cfg: StragglerConfig) -> Controller {
        Controller::new(multipliers, None, None, Some(cfg))
    }

    /// Fold step `step` of `sched` observed as `tl`.
    fn step(c: &mut Controller, step: u64, tl: &Timeline, sched: &Schedule) -> Vec<Action> {
        let observed = Some((tl, sched));
        c.fold(Outcome::Completed {
            step,
            membership: &[],
            observed,
        })
        .unwrap()
    }

    #[test]
    fn uniform_run_flags_nothing() {
        let sched = one_f_one_b(2, 4);
        let expected = synthetic_timeline(&sched, &[1.0, 1.0]);
        let mut c = controller(&[1.0, 1.0], StragglerConfig::default());
        for s in 1..=20 {
            assert!(step(&mut c, s, &expected, &sched).is_empty(), "step {s}");
        }
        assert_eq!(c.replans(), 0);
    }

    #[test]
    fn persistent_straggler_flags_after_the_window() {
        let sched = one_f_one_b(2, 4);
        let expected = synthetic_timeline(&sched, &[1.0, 1.0]);
        let slow = synthetic_timeline(&sched, &[1.0, 2.0]);
        let cfg = StragglerConfig {
            threshold: 1.5,
            window: 3,
        };
        // Device 1 is configured 1.5× slow; the run is calibrated on step 1.
        let mut c = controller(&[1.0, 1.5], cfg);
        assert!(step(&mut c, 1, &expected, &sched).is_empty());
        assert!(step(&mut c, 2, &slow, &sched).is_empty());
        assert!(step(&mut c, 3, &slow, &sched).is_empty());
        // Flags on exactly the window-th slow step, at the same width, with
        // the measured ratio on top of what the record knew.
        let actions = step(&mut c, 4, &slow, &sched);
        let [Action::Reshape {
            trigger,
            width,
            multipliers,
        }] = actions.as_slice()
        else {
            panic!("expected one re-shape, got {actions:?}");
        };
        assert_eq!((*trigger, *width), ("straggler re-plan", 2));
        assert_eq!(multipliers[0], 1.0);
        // Device 1's compute ratio: its ops ran 2× against the baseline, so
        // 2 × 1.5.
        let ratio = multipliers[1] / 1.5;
        assert!((ratio - 2.0).abs() < 1e-9, "{multipliers:?}");
        assert_eq!(c.serving_multipliers(), *multipliers);
        assert_eq!(c.replans(), 1);
    }

    #[test]
    fn transient_spikes_are_debounced() {
        let sched = one_f_one_b(2, 4);
        let expected = synthetic_timeline(&sched, &[1.0, 1.0]);
        let slow = synthetic_timeline(&sched, &[1.0, 3.0]);
        let cfg = StragglerConfig {
            threshold: 1.5,
            window: 2,
        };
        let mut c = controller(&[1.0, 1.0], cfg);
        assert!(step(&mut c, 1, &expected, &sched).is_empty());
        // slow, fast, slow, fast ... never two in a row.
        for s in 0..4 {
            assert!(step(&mut c, 2 + 2 * s, &slow, &sched).is_empty());
            assert!(step(&mut c, 3 + 2 * s, &expected, &sched).is_empty());
        }
    }

    #[test]
    fn invalid_monitor_configs_are_rejected() {
        // A stage that measured no compute cannot be a baseline.
        let sched = one_f_one_b(2, 4);
        let idle = synthetic_timeline(&sched, &[1.0, 0.0]);
        let mut c = controller(&[1.0, 1.0], StragglerConfig::default());
        let observed = Some((&idle, &sched));
        let err = c
            .fold(Outcome::Completed {
                step: 1,
                membership: &[],
                observed,
            })
            .unwrap_err();
        assert!(err.to_string().contains("straggler baseline"), "{err}");
        for bad in [
            StragglerConfig {
                threshold: 0.5,
                window: 3,
            },
            StragglerConfig {
                threshold: 2.0,
                window: 0,
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    /// After a re-shape or a restore the next step is the new baseline, not
    /// an observation: a run that stays 2× slow after the straggler re-plan
    /// (the new plan is calibrated on it) never re-plans again.
    #[test]
    fn the_baseline_recalibrates_after_a_reshape_or_a_restore() {
        let sched = one_f_one_b(2, 4);
        let fast = synthetic_timeline(&sched, &[1.0, 1.0]);
        let slow = synthetic_timeline(&sched, &[1.0, 2.0]);
        let cfg = StragglerConfig {
            threshold: 1.5,
            window: 1,
        };
        let recovery = RecoveryConfig {
            cadence: 100,
            ..RecoveryConfig::new("unused")
        };
        let mut c = Controller::new(&[1.0, 1.0], Some(&recovery), None, Some(cfg));
        assert!(step(&mut c, 1, &fast, &sched).is_empty());
        assert_eq!(step(&mut c, 2, &slow, &sched).len(), 1);
        for s in 3..6 {
            assert!(step(&mut c, s, &slow, &sched).is_empty(), "step {s}");
        }
        // A restore: the slow steps before it say nothing about the
        // restored pipeline, so a fast step after it calibrates afresh.
        let crash = FaultReport {
            crashed: vec![CrashEvent {
                device: 1,
                at_op: 0,
                kind: FailStopKind::Crash,
                detail: None,
            }],
            aborted: true,
            ..FaultReport::default()
        };
        let restore = Outcome::FailStop {
            step: 5,
            report: &crash,
        };
        assert_eq!(c.fold(restore).unwrap(), vec![Action::Restore]);
        c.restored(4, 1);
        assert!(step(&mut c, 5, &fast, &sched).is_empty());
        assert_eq!(step(&mut c, 6, &slow, &sched).len(), 1);
        assert_eq!(c.replans(), 2);
    }
}

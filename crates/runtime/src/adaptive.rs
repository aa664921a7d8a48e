//! Straggler detection for re-planning: compare each stage's *observed*
//! compute time (from the runtime's recorded [`Timeline`]) against its
//! *expected* time, and flag stages that stay slow for several consecutive
//! iterations.
//!
//! This is the detection half of straggler-aware re-planning; the response
//! half is the `Session` facade's re-planning path (the observed ratios go
//! in as device multipliers, like a membership slowdown) plus
//! [`Pipeline::repartition`](crate::Pipeline::repartition) (hot-swap the
//! stages with exact parameter migration).

use autopipe_core::StragglerConfig;
use autopipe_exec::Timeline;
use autopipe_schedule::Schedule;

use crate::watchdog::RuntimeError;

/// One iteration's verdict.
#[derive(Debug, Clone)]
pub struct StragglerObservation {
    /// Per-stage observed/expected compute-time ratios this iteration.
    pub ratios: Vec<f64>,
    /// Stages whose ratio has exceeded the threshold for `window`
    /// consecutive iterations — the re-plan trigger.
    pub flagged: Vec<usize>,
}

/// Tracks per-stage slowdown streaks across iterations.
#[derive(Debug, Clone)]
pub struct StragglerMonitor {
    cfg: StragglerConfig,
    /// Expected per-stage compute seconds (profiled or simulated).
    expected: Vec<f64>,
    /// Consecutive over-threshold iterations per stage.
    streaks: Vec<usize>,
}

impl StragglerMonitor {
    /// Build from expected per-stage compute times (one entry per
    /// chunk-stage, in stage order).
    pub(crate) fn new(
        expected: Vec<f64>,
        cfg: StragglerConfig,
    ) -> Result<StragglerMonitor, RuntimeError> {
        if expected.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "straggler monitor needs at least one stage".into(),
            ));
        }
        if expected.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
            return Err(RuntimeError::InvalidConfig(format!(
                "expected stage times must be finite and positive, got {expected:?}"
            )));
        }
        cfg.validate()
            .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        let streaks = vec![0; expected.len()];
        Ok(StragglerMonitor {
            cfg,
            expected,
            streaks,
        })
    }

    /// Build from an expected timeline (e.g. the event simulator's run of
    /// the same schedule): expected per-stage times are its compute sums.
    pub fn from_timeline(
        expected: &Timeline,
        sched: &Schedule,
        cfg: StragglerConfig,
    ) -> Result<StragglerMonitor, RuntimeError> {
        StragglerMonitor::new(stage_compute_times(expected, sched), cfg)
    }

    /// Feed one iteration's observed timeline. Returns per-stage ratios and
    /// any stages whose slow streak just reached the window.
    pub fn observe(&mut self, observed: &Timeline, sched: &Schedule) -> StragglerObservation {
        let times = stage_compute_times(observed, sched);
        let n = self.expected.len().min(times.len());
        let mut ratios = Vec::with_capacity(n);
        let mut flagged = Vec::new();
        for s in 0..n {
            let ratio = times[s] / self.expected[s];
            if ratio > self.cfg.threshold {
                self.streaks[s] += 1;
            } else {
                self.streaks[s] = 0;
            }
            if self.streaks[s] >= self.cfg.window {
                flagged.push(s);
            }
            ratios.push(ratio);
        }
        StragglerObservation { ratios, flagged }
    }
}

/// Sum each chunk-stage's compute (Fwd + Bwd) durations over a timeline —
/// the observation that drives straggler detection and the measurement that
/// re-profiles the cost model for re-planning.
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
    use super::*;
    use autopipe_exec::{OpTimes, Recorder, TraceSink};
    use autopipe_schedule::one_f_one_b;

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

    #[test]
    fn uniform_run_flags_nothing() {
        let sched = one_f_one_b(2, 4);
        let expected = synthetic_timeline(&sched, &[1.0, 1.0]);
        let mut mon =
            StragglerMonitor::from_timeline(&expected, &sched, StragglerConfig::default()).unwrap();
        for _ in 0..5 {
            let obs = mon.observe(&expected, &sched);
            assert!(obs.flagged.is_empty());
            assert!(obs.ratios.iter().all(|r| (r - 1.0).abs() < 1e-9));
        }
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
        let mut mon = StragglerMonitor::from_timeline(&expected, &sched, cfg).unwrap();
        assert!(mon.observe(&slow, &sched).flagged.is_empty());
        assert!(mon.observe(&slow, &sched).flagged.is_empty());
        let obs = mon.observe(&slow, &sched);
        assert_eq!(obs.flagged, vec![1], "stage 1 flags on the 3rd slow iter");
        assert!(obs.ratios[1] > 1.9);
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
        let mut mon = StragglerMonitor::from_timeline(&expected, &sched, cfg).unwrap();
        // slow, fast, slow, fast ... never two in a row.
        for _ in 0..4 {
            assert!(mon.observe(&slow, &sched).flagged.is_empty());
            assert!(mon.observe(&expected, &sched).flagged.is_empty());
        }
    }

    #[test]
    fn invalid_monitor_configs_are_rejected() {
        assert!(StragglerMonitor::new(vec![], StragglerConfig::default()).is_err());
        assert!(StragglerMonitor::new(vec![0.0], StragglerConfig::default()).is_err());
        assert!(StragglerMonitor::new(
            vec![1.0],
            StragglerConfig {
                threshold: 0.5,
                window: 3
            }
        )
        .is_err());
        assert!(StragglerMonitor::new(
            vec![1.0],
            StragglerConfig {
                threshold: 2.0,
                window: 0
            }
        )
        .is_err());
    }
}

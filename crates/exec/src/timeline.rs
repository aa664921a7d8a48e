//! The unified trace format both executors emit, and its derived metrics.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use autopipe_schedule::{Op, OpKind, Part};

/// One executed op: which device ran it, and when.
///
/// Times are seconds on the executor's clock — simulated time for the event
/// simulator, wall-clock seconds from iteration start for the threaded
/// runtime. For receive ops `ready` is the moment the message became
/// available (its arrival). For every other op `ready` is when the device
/// reached the op: it equals `start` unless a scripted stall, or in overlap
/// mode an input gate, held the op back (the shared interpreter,
/// [`Cursor`](crate::Cursor), records it for both executors).
///
/// The event carries no redundant fields: the pipeline *stage* behind the op
/// is `op.chunk() · n_devices + device`, and the micro-batch/part live inside
/// [`Op`]. This is the *view* type — [`Timeline`] stores ops and times in
/// separate lanes (see [`OpTimes`]) and materialises these on iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Device that executed the op.
    pub device: usize,
    /// The op executed.
    pub op: Op,
    /// When the op began (for receives: when the device reached it).
    pub start: f64,
    /// For receives: message arrival time. Otherwise when the device
    /// reached the op, `start` unless a stall or an input gate held it.
    pub ready: f64,
    /// When the op completed.
    pub end: f64,
}

impl TraceEvent {
    /// Time the op occupied the device.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The timing third of a [`TraceEvent`] — what a recording executor actually
/// has to write per op. The op identity is already in the schedule (devices
/// execute their programs in order), so hot-path recording stores only this
/// 24-byte struct and the full event is rebuilt on demand; see the
/// `trace_overhead` bench for why that matters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpTimes {
    /// When the op began (for receives: when the device reached it).
    pub start: f64,
    /// For receives: message arrival time. Otherwise when the device
    /// reached the op, `start` unless a stall or an input gate held it.
    pub ready: f64,
    /// When the op completed.
    pub end: f64,
}

/// Per-device time decomposition of one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceBreakdown {
    /// Device index.
    pub device: usize,
    /// Time spent in forward compute.
    pub fwd: f64,
    /// Time spent in backward compute.
    pub bwd: f64,
    /// Time spent blocked in receives (waiting on upstream/downstream).
    pub wait: f64,
    /// Residual idle time (`iteration − fwd − bwd − wait`).
    pub idle: f64,
}

/// Per-device op timelines — the one telemetry format shared by the event
/// simulator and the threaded runtime, so their executions can be compared
/// op for op and analysed by the same tooling.
///
/// Stored struct-of-arrays: the op sequences and the times sit in separate
/// lanes, so executors can record the cheap [`OpTimes`] third on the hot
/// path and hand the op lanes over as one block copy (ops are flattened
/// device-major to keep construction at two allocations). Iterate a
/// device's materialised [`TraceEvent`]s with [`device`](Timeline::device).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Every device's ops in execution order, device-major.
    ops: Vec<Op>,
    /// `ends[d]` is where device `d`'s ops end within `ops`.
    ends: Vec<usize>,
    /// `times[device][i]` times the i-th op of device `d`.
    times: Vec<Vec<OpTimes>>,
}

impl Timeline {
    /// Wrap per-device event lists (each in execution order).
    pub fn from_events(events: Vec<Vec<TraceEvent>>) -> Timeline {
        let mut ops = Vec::with_capacity(events.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(events.len());
        for lane in &events {
            ops.extend(lane.iter().map(|e| e.op));
            ends.push(ops.len());
        }
        let times = events
            .iter()
            .map(|lane| {
                lane.iter()
                    .map(|e| OpTimes {
                        start: e.start,
                        ready: e.ready,
                        end: e.end,
                    })
                    .collect()
            })
            .collect();
        Timeline { ops, ends, times }
    }

    /// Build from separated lanes: the device-major flattened op sequences
    /// (with per-device end offsets) and each device's times. Lane counts
    /// and per-device lengths must match.
    pub(crate) fn from_parts(ops: Vec<Op>, ends: Vec<usize>, times: Vec<Vec<OpTimes>>) -> Timeline {
        assert_eq!(ends.len(), times.len(), "device lane counts differ");
        assert_eq!(ends.last().copied().unwrap_or(0), ops.len());
        let mut prev = 0;
        for (d, (&e, t)) in ends.iter().zip(&times).enumerate() {
            assert_eq!(e - prev, t.len(), "device {d}: ops and times differ");
            prev = e;
        }
        Timeline { ops, ends, times }
    }

    fn ops_of(&self, d: usize) -> &[Op] {
        let lo = if d == 0 { 0 } else { self.ends[d - 1] };
        &self.ops[lo..self.ends[d]]
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.ends.len()
    }

    /// Number of ops device `d` executed.
    pub fn n_ops(&self, d: usize) -> usize {
        self.ops_of(d).len()
    }

    /// Device `d`'s events, materialised in execution order.
    pub fn device(&self, d: usize) -> impl Iterator<Item = TraceEvent> + '_ {
        self.ops_of(d)
            .iter()
            .zip(&self.times[d])
            .map(move |(op, t)| TraceEvent {
                device: d,
                op: *op,
                start: t.start,
                ready: t.ready,
                end: t.end,
            })
    }

    /// Iteration time: the latest `end` over all devices.
    pub fn iteration_time(&self) -> f64 {
        self.times
            .iter()
            .flatten()
            .map(|t| t.end)
            .fold(0.0, f64::max)
    }

    /// Per-device compute-busy time (forward + backward durations).
    pub fn device_busy(&self) -> Vec<f64> {
        (0..self.n_devices())
            .map(|d| {
                self.ops_of(d)
                    .iter()
                    .zip(&self.times[d])
                    .filter(|(op, _)| op.is_compute())
                    .map(|(_, t)| t.end - t.start)
                    .sum()
            })
            .collect()
    }

    /// Mean device utilisation (compute-busy / iteration).
    pub(crate) fn utilisation(&self) -> f64 {
        let iteration = self.iteration_time();
        let busy = self.device_busy();
        if iteration <= 0.0 || busy.is_empty() {
            return 0.0;
        }
        busy.iter().sum::<f64>() / busy.len() as f64 / iteration
    }

    /// Aggregate bubble fraction: 1 − mean utilisation.
    pub fn bubble_ratio(&self) -> f64 {
        (1.0 - self.utilisation()).max(0.0)
    }

    /// Startup overhead: arrival time of the first activation received by
    /// the last *device* (§II-B). Zero when the last device receives no
    /// activations (single-stage pipelines).
    pub fn startup_overhead(&self) -> f64 {
        if self.n_devices() == 0 {
            return 0.0;
        }
        let d = self.n_devices() - 1;
        self.ops_of(d)
            .iter()
            .zip(&self.times[d])
            .find(|(op, _)| matches!(op.kind, OpKind::RecvAct { .. }))
            .map(|(_, t)| t.ready)
            .unwrap_or(0.0)
    }

    /// Decompose every device's iteration into compute, wait and idle time.
    pub fn breakdown(&self) -> Vec<DeviceBreakdown> {
        let iteration = self.iteration_time();
        (0..self.n_devices())
            .map(|device| {
                let (ops, times) = (self.ops_of(device), &self.times[device]);
                let mut fwd = 0.0;
                let mut bwd = 0.0;
                let mut wait = 0.0;
                for (op, t) in ops.iter().zip(times) {
                    match op.kind {
                        OpKind::Fwd { .. } => fwd += t.end - t.start,
                        // Recompute is backward-phase work: it exists only to
                        // feed the following backward.
                        OpKind::Bwd { .. }
                        | OpKind::BwdInput { .. }
                        | OpKind::BwdWeight { .. }
                        | OpKind::Recompute { .. } => bwd += t.end - t.start,
                        OpKind::RecvAct { .. } | OpKind::RecvGrad { .. } => wait += t.end - t.start,
                        _ => {}
                    }
                }
                let idle = (iteration - fwd - bwd - wait).max(0.0);
                DeviceBreakdown {
                    device,
                    fwd,
                    bwd,
                    wait,
                    idle,
                }
            })
            .collect()
    }

    /// The sequence of ops device `d` executed, in order.
    pub fn op_order(&self, d: usize) -> Vec<Op> {
        self.ops_of(d).to_vec()
    }

    /// Compare per-device op orderings against another timeline — the
    /// consistency contract between the event simulator and the threaded
    /// runtime. Returns the first divergence as a structured
    /// [`TraceMismatch`].
    pub fn same_op_order(&self, other: &Timeline) -> Result<(), TraceMismatch> {
        if self.n_devices() != other.n_devices() {
            return Err(TraceMismatch::DeviceCount {
                left: self.n_devices(),
                right: other.n_devices(),
            });
        }
        for d in 0..self.n_devices() {
            let (a, b) = (self.ops_of(d), other.ops_of(d));
            if a.len() != b.len() {
                return Err(TraceMismatch::OpCount {
                    device: d,
                    left: a.len(),
                    right: b.len(),
                });
            }
            for (i, (oa, ob)) in a.iter().zip(b).enumerate() {
                if oa != ob {
                    return Err(TraceMismatch::OpDiverges {
                        device: d,
                        index: i,
                        left: *oa,
                        right: *ob,
                    });
                }
            }
        }
        Ok(())
    }

    /// Render as a Chrome-trace JSON document (`traceEvents` array of
    /// complete events, timestamps in microseconds) for Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self) -> Value {
        let mut events = Vec::new();
        for device in 0..self.n_devices() {
            for (op, t) in self.ops_of(device).iter().zip(&self.times[device]) {
                if t.end <= t.start {
                    continue; // zero-width enqueue ops clutter the view
                }
                let (name, cat) = describe(&op.kind);
                events.push(json!({
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": t.start * 1e6,
                    "dur": (t.end - t.start) * 1e6,
                    "pid": 0,
                    "tid": device,
                }));
            }
        }
        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
        })
    }
}

/// First divergence between two timelines' per-device op orderings — the
/// structured error of [`Timeline::same_op_order`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceMismatch {
    /// The two timelines cover a different number of devices.
    DeviceCount { left: usize, right: usize },
    /// One device executed a different number of ops.
    OpCount {
        device: usize,
        left: usize,
        right: usize,
    },
    /// One device's op sequences diverge at `index`.
    OpDiverges {
        device: usize,
        index: usize,
        left: Op,
        right: Op,
    },
}

impl std::fmt::Display for TraceMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceMismatch::DeviceCount { left, right } => {
                write!(f, "device counts differ: {left} vs {right}")
            }
            TraceMismatch::OpCount {
                device,
                left,
                right,
            } => {
                write!(f, "device {device}: op counts differ: {left} vs {right}")
            }
            TraceMismatch::OpDiverges {
                device,
                index,
                left,
                right,
            } => {
                write!(
                    f,
                    "device {device} op {index}: {:?} vs {:?}",
                    left.kind, right.kind
                )
            }
        }
    }
}

impl std::error::Error for TraceMismatch {}

fn describe(kind: &OpKind) -> (String, &'static str) {
    match kind {
        OpKind::Fwd { mb, part, .. } => (
            match part {
                Part::Full => format!("F{mb}"),
                Part::Half1 => format!("F{mb}a"),
                Part::Half2 => format!("F{mb}b"),
                Part::Both => format!("F{mb}ab"),
            },
            "fwd",
        ),
        OpKind::Bwd { mb, .. } => (format!("B{mb}"), "bwd"),
        OpKind::BwdInput { mb, .. } => (format!("Bi{mb}"), "bwd"),
        OpKind::BwdWeight { mb, .. } => (format!("Bw{mb}"), "bwd"),
        OpKind::Recompute { mb, .. } => (format!("R{mb}"), "bwd"),
        OpKind::RecvAct { mb, .. } => (format!("recv-act {mb}"), "wait"),
        OpKind::RecvGrad { mb, .. } => (format!("recv-grad {mb}"), "wait"),
        OpKind::SendAct { mb, .. } => (format!("send-act {mb}"), "comm"),
        OpKind::SendGrad { mb, .. } => (format!("send-grad {mb}"), "comm"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: usize, kind: OpKind, start: f64, ready: f64, end: f64) -> TraceEvent {
        TraceEvent {
            device,
            op: Op::new(kind),
            start,
            ready,
            end,
        }
    }

    fn fwd(mb: usize) -> OpKind {
        OpKind::Fwd {
            mb,
            chunk: 0,
            part: Part::Full,
        }
    }

    fn bwd(mb: usize) -> OpKind {
        OpKind::Bwd { mb, chunk: 0 }
    }

    /// Two devices, one micro-batch: F on 0, send/recv, F+B on 1, grad back,
    /// B on 0. Hand-written times with f=1, b=2, comm=0.5.
    fn tiny() -> Timeline {
        let recv_act = OpKind::RecvAct {
            mb: 0,
            chunk: 0,
            part: Part::Full,
            from: 0,
        };
        let recv_grad = OpKind::RecvGrad {
            mb: 0,
            chunk: 0,
            from: 1,
        };
        Timeline::from_events(vec![
            vec![
                ev(0, fwd(0), 0.0, 0.0, 1.0),
                ev(0, recv_grad, 1.0, 5.0, 5.0),
                ev(0, bwd(0), 5.0, 5.0, 7.0),
            ],
            vec![
                ev(1, recv_act, 0.0, 1.5, 1.5),
                ev(1, fwd(0), 1.5, 1.5, 2.5),
                ev(1, bwd(0), 2.5, 2.5, 4.5),
            ],
        ])
    }

    #[test]
    fn derived_metrics_from_hand_timeline() {
        let t = tiny();
        assert_eq!(t.n_devices(), 2);
        assert!((t.iteration_time() - 7.0).abs() < 1e-12);
        assert_eq!(t.device_busy(), vec![3.0, 3.0]);
        assert!((t.utilisation() - 3.0 / 7.0).abs() < 1e-12);
        assert!((t.bubble_ratio() - 4.0 / 7.0).abs() < 1e-12);
        assert!((t.startup_overhead() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn device_iteration_round_trips_events() {
        let t = tiny();
        assert_eq!(t.n_ops(0), 3);
        let lane: Vec<TraceEvent> = t.device(1).collect();
        assert_eq!(lane.len(), 3);
        assert!(lane.iter().all(|e| e.device == 1));
        assert_eq!(t.op_order(1), lane.iter().map(|e| e.op).collect::<Vec<_>>());
        // from_events ∘ device is the identity on a lane.
        let rebuilt = Timeline::from_events(vec![t.device(0).collect(), t.device(1).collect()]);
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn from_parts_matches_from_events() {
        let t = tiny();
        let mut ops = t.op_order(0);
        ops.extend(t.op_order(1));
        let ends = vec![t.n_ops(0), t.n_ops(0) + t.n_ops(1)];
        let times = (0..2)
            .map(|d| {
                t.device(d)
                    .map(|e| OpTimes {
                        start: e.start,
                        ready: e.ready,
                        end: e.end,
                    })
                    .collect()
            })
            .collect();
        assert_eq!(Timeline::from_parts(ops, ends, times), t);
    }

    #[test]
    fn breakdown_accounts_for_the_whole_iteration() {
        let t = tiny();
        for d in t.breakdown() {
            let total = d.fwd + d.bwd + d.wait + d.idle;
            assert!(
                (total - t.iteration_time()).abs() < 1e-12,
                "device {}",
                d.device
            );
        }
    }

    #[test]
    fn op_order_comparison_reports_first_divergence() {
        let a = tiny();
        assert!(a.same_op_order(&tiny()).is_ok());
        let mut b = tiny();
        // Device 1's lane starts at ends[0]; swap its ops 1 and 2.
        let lo = b.ends[0];
        b.ops.swap(lo + 1, lo + 2);
        let err = a.same_op_order(&b).unwrap_err();
        assert!(
            matches!(
                err,
                TraceMismatch::OpDiverges {
                    device: 1,
                    index: 1,
                    ..
                }
            ),
            "{err}"
        );
        b.ops.pop();
        b.ends[1] -= 1;
        b.times[1].pop();
        assert!(matches!(
            a.same_op_order(&b).unwrap_err(),
            TraceMismatch::OpCount { device: 1, .. }
        ));
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let v = tiny().chrome_trace();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 6); // all tiny() events have width
        for e in events {
            assert!(e["ts"].as_f64().unwrap() >= 0.0);
            assert!(e["dur"].as_f64().unwrap() > 0.0);
            assert!(e["tid"].as_u64().unwrap() < 2);
        }
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains("traceEvents"));
    }

    #[test]
    fn timeline_round_trips_through_serde() {
        let t = tiny();
        let text = serde_json::to_string(&serde_json::to_value(&t)).unwrap();
        let back = Timeline::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(t, back);
    }
}

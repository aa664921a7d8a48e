//! How executors emit trace events: a sink abstraction with a collecting
//! implementation, a zero-overhead discard, and a shared wall clock for
//! threaded executors.

use std::time::Instant;

use autopipe_schedule::Op;

use crate::timeline::{OpTimes, Timeline};

/// Where an executor puts the events it emits. Executors are written
/// generically over this, so the same sweep runs traced or untraced.
pub trait TraceSink {
    /// Emit a run of consecutive ops executed by one device, as their
    /// [`OpTimes`]. The op identities are implicit: a device emits times in
    /// program order, so these extend the device's lane. Batching lets the
    /// executor keep its times in a hot local buffer and lets the sink take
    /// them as one block copy (see the `trace_overhead` bench).
    fn record_run(&mut self, device: usize, times: &[OpTimes]);

    /// Whether events are retained. Hot paths may skip work (but not
    /// semantics) when this is false.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards every event — the untraced path for hot loops and benches.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn record_run(&mut self, _device: usize, _times: &[OpTimes]) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Collects events into a per-device [`Timeline`], given the programs the
/// devices execute.
///
/// A sequential executor emits each device's events in program order, so the
/// op identity of the k-th event on device `d` is already known: it's
/// `programs[d][k]`. The recorder exploits that — [`for_programs`] copies
/// the op lanes up front (one block copy per device) and [`record_run`]
/// stores only the 24-byte [`OpTimes`] third of each event, which is what
/// lets executors leave tracing on by default (see the `trace_overhead`
/// bench).
///
/// [`for_programs`]: Recorder::for_programs
/// [`record_run`]: TraceSink::record_run
#[derive(Debug, Clone)]
pub struct Recorder {
    ops: Vec<Op>,
    ends: Vec<usize>,
    times: Vec<Vec<OpTimes>>,
}

impl Recorder {
    /// A recorder for devices running `programs` (one op sequence per
    /// device, e.g. `&schedule.devices`). The op lanes are flattened into
    /// a single buffer up front and time lanes are pre-reserved to the
    /// program lengths, keeping recording off the allocator.
    pub fn for_programs(programs: &[Vec<Op>]) -> Recorder {
        let mut ops = Vec::with_capacity(programs.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(programs.len());
        for p in programs {
            ops.extend_from_slice(p);
            ends.push(ops.len());
        }
        Recorder {
            ops,
            ends,
            times: programs
                .iter()
                .map(|p| Vec::with_capacity(p.len()))
                .collect(),
        }
    }

    fn n_program_ops(&self, device: usize) -> usize {
        let lo = if device == 0 {
            0
        } else {
            self.ends[device - 1]
        };
        self.ends[device] - lo
    }

    /// Finish recording and hand over the timeline. Panics if any device
    /// recorded fewer or more events than its program has ops.
    pub fn finish(self) -> Timeline {
        Timeline::from_parts(self.ops, self.ends, self.times)
    }

    /// Finish a recording that legitimately stopped early — a fail-stop
    /// replay, where dead and starved devices executed only a prefix of
    /// their programs. Each device's op lane is truncated to the events it
    /// actually recorded.
    pub fn finish_partial(self) -> Timeline {
        let mut ops = Vec::with_capacity(self.times.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(self.ends.len());
        let mut lo = 0;
        for (d, t) in self.times.iter().enumerate() {
            ops.extend_from_slice(&self.ops[lo..lo + t.len()]);
            ends.push(ops.len());
            lo = self.ends[d];
        }
        Timeline::from_parts(ops, ends, self.times)
    }
}

impl TraceSink for Recorder {
    #[inline(always)]
    fn record_run(&mut self, device: usize, times: &[OpTimes]) {
        debug_assert!(
            self.times[device].len() + times.len() <= self.n_program_ops(device),
            "device {device} recorded more events than its program has ops"
        );
        self.times[device].extend_from_slice(times);
    }
}

/// A shared wall-clock origin for threaded executors: `Copy` it into every
/// device thread so all events timestamp against one iteration start.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    t0: Instant,
}

impl WallClock {
    /// Start the clock (iteration time zero).
    pub fn start() -> WallClock {
        WallClock { t0: Instant::now() }
    }

    /// Seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TraceEvent;
    use autopipe_schedule::{Op, OpKind, Part};

    fn op(mb: usize) -> Op {
        Op::new(OpKind::Fwd {
            mb,
            chunk: 0,
            part: Part::Full,
        })
    }

    fn at(start: f64) -> OpTimes {
        OpTimes {
            start,
            ready: start,
            end: start + 1.0,
        }
    }

    #[test]
    fn recorder_groups_by_device() {
        let programs = vec![vec![op(0)], vec![op(0), op(1)]];
        let mut r = Recorder::for_programs(&programs);
        r.record_run(1, &[at(0.0)]);
        r.record_run(0, &[at(0.5)]);
        r.record_run(1, &[at(2.0)]);
        assert!(r.enabled());
        let t = r.finish();
        assert_eq!(t.n_ops(0), 1);
        assert_eq!(t.n_ops(1), 2);
        assert_eq!(t.op_order(1), programs[1]);
        let lane: Vec<TraceEvent> = t.device(1).collect();
        assert_eq!(lane[1].start, 2.0);
    }

    #[test]
    fn no_trace_discards() {
        let mut sink = NoTrace;
        sink.record_run(0, &[at(0.0)]);
        assert!(!sink.enabled());
    }

    #[test]
    fn wall_clock_is_monotonic_and_shared() {
        let clock = WallClock::start();
        let copy = clock;
        let a = clock.now();
        let b = copy.now();
        assert!(a >= 0.0 && b >= a);
    }
}

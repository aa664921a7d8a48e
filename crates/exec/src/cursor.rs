//! The one op interpreter both executors run.
//!
//! A [`Cursor`] walks one device's program of a lowered [`Schedule`]. Each
//! [`step`](Cursor::step) decodes the next op, decides once what the
//! [`FaultPlan`] does to it — a fail-stop at this op, a stall before it, a
//! straggler factor on its compute, a link delay on its message — and hands
//! the decoded op to a [`Device`], which supplies only the clock, compute,
//! send and receive. The event simulator's device prices ops in virtual time;
//! the threaded runtime's runs tensor math in wall time. Neither decodes a
//! communication op or reads the fault script: that happens here, once.
//!
//! The cursor also records what both executors' timelines mean by an op's
//! times ([`OpTimes`]): `ready` is the device's clock when it reached the op,
//! except for a receive, whose `ready` is the message's arrival and whose
//! `start` is when the device reached it.

use autopipe_schedule::{Op, OpKind, Schedule};

use crate::fault::{FailStopKind, FaultPlan};
use crate::msg::MsgKey;
use crate::timeline::OpTimes;

/// What one [`Cursor::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// The op ran; its times on the device's clock.
    Ran(OpTimes),
    /// A receive whose message has not arrived. The cursor stays on the
    /// op; stepping again retries it (the stall before it is not doubled).
    Blocked(MsgKey),
    /// The program is finished.
    Done,
    /// The script kills the device before this op. The cursor stays on it.
    Failed(FailStopKind),
}

/// The op a device is entering, as the cursor hands it over.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Index of the op in the device's program.
    pub index: usize,
    /// The op.
    pub op: Op,
    /// Pipeline stage the op's chunk is on this device.
    pub stage: usize,
    /// The device's clock when it reached the op ([`Device::now`]).
    pub at: f64,
    /// Scripted freeze before the op runs, in the script's time unit
    /// (0 when none). A receive waits its message out after the freeze.
    pub stall: f64,
}

/// What an executor supplies to the interpreter: its clock, and how it
/// computes, sends and receives. Every method gets the op's [`Entry`] and
/// sits out `entry.stall` before the op begins.
///
/// Errors are the executor's own ([`Device::Abort`]): the event simulator's
/// device cannot fail, the runtime's aborts on a poisoned pipeline or a
/// broken invariant.
pub trait Device {
    /// Why an op could not run.
    type Abort;

    /// The device's clock: when it is free for its next op.
    fn now(&self) -> f64;

    /// Run a compute op, its duration stretched `factor`× (≥ 1) by a
    /// scripted straggler. Returns `(start, end)`.
    fn compute(&mut self, entry: &Entry, factor: f64) -> Result<(f64, f64), Self::Abort>;

    /// Hand message `key` to the link towards device `to`. It is delivered
    /// `delay` (≥ 0, the script's unit) later than the link alone would
    /// deliver it. Returns `(start, end)`.
    fn send(
        &mut self,
        entry: &Entry,
        to: usize,
        key: MsgKey,
        delay: f64,
    ) -> Result<(f64, f64), Self::Abort>;

    /// Take message `key`, sent by device `from`. Returns `(ready, end)`,
    /// `ready` being the message's arrival, or `None` when it has not
    /// arrived and the device does not wait for it.
    fn recv(
        &mut self,
        entry: &Entry,
        from: usize,
        key: MsgKey,
    ) -> Result<Option<(f64, f64)>, Self::Abort>;
}

/// How much of a fault script a cursor applies.
#[derive(Debug, Clone, Copy)]
pub enum Faults<'a> {
    /// No script.
    Clean,
    /// The delay families only: link delays, stragglers and stalls.
    /// Fail-stop events are ignored.
    Delays(&'a FaultPlan),
    /// The whole script, fail-stop events included.
    All(&'a FaultPlan),
}

/// A communication op, decoded: the message and the peer device.
enum Comm {
    Send { to: usize, key: MsgKey },
    Recv { from: usize, key: MsgKey },
}

/// The message a communication op on `stage` deposits or consumes; `None`
/// for compute ops. Messages are keyed by the stage that consumes them: an
/// activation feeds the stage above the sender's, a gradient the one below.
#[inline(always)]
fn decode(op: &Op, stage: usize) -> Option<Comm> {
    Some(match op.kind {
        OpKind::SendAct { mb, part, to, .. } => Comm::Send {
            to,
            key: MsgKey::act(mb, part, stage + 1),
        },
        OpKind::SendGrad { mb, to, .. } => Comm::Send {
            to,
            key: MsgKey::grad(mb, stage - 1),
        },
        OpKind::RecvAct { mb, part, from, .. } => Comm::Recv {
            from,
            key: MsgKey::act(mb, part, stage),
        },
        OpKind::RecvGrad { mb, from, .. } => Comm::Recv {
            from,
            key: MsgKey::grad(mb, stage),
        },
        _ => return None,
    })
}

/// One device's position in its program. Cheap to build, so an executor
/// that round-robins devices can keep only the program counter and build a
/// cursor each time it resumes one.
#[derive(Debug)]
pub struct Cursor<'a> {
    sched: &'a Schedule,
    program: &'a [Op],
    device: usize,
    pc: usize,
    faults: Faults<'a>,
}

impl<'a> Cursor<'a> {
    /// A cursor on `device`'s program, about to run op `pc`.
    pub fn new(sched: &'a Schedule, device: usize, pc: usize, faults: Faults<'a>) -> Cursor<'a> {
        Cursor {
            sched,
            program: &sched.devices[device],
            device,
            pc,
            faults,
        }
    }

    /// Ops run so far: the index of the next op.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Run the next op on `dev`. Inlined so each executor gets a copy
    /// specialised to its device and, when the script is a constant, with
    /// the fault probes folded away.
    #[inline(always)]
    pub fn step<D: Device>(&mut self, dev: &mut D) -> Result<Step, D::Abort> {
        let Some(&op) = self.program.get(self.pc) else {
            return Ok(Step::Done);
        };
        let (d, j) = (self.device, self.pc);
        let plan = match self.faults {
            Faults::Clean => None,
            Faults::Delays(plan) => Some(plan),
            Faults::All(plan) => {
                if let Some(kind) = plan.crash_at(d, j) {
                    return Ok(Step::Failed(kind));
                }
                Some(plan)
            }
        };
        let stage = self.sched.stage_of(d, op.chunk());
        let entry = Entry {
            index: j,
            op,
            stage,
            at: dev.now(),
            stall: plan.map_or(0.0, |p| p.stall_pause(d, j)),
        };
        let times = match decode(&op, stage) {
            None => {
                let factor = plan.map_or(1.0, |p| p.compute_factor(stage));
                let (start, end) = dev.compute(&entry, factor)?;
                OpTimes {
                    start,
                    ready: entry.at,
                    end,
                }
            }
            Some(Comm::Send { to, key }) => {
                let delay = plan.map_or(0.0, |p| p.link_delay(d, to, &key));
                let (start, end) = dev.send(&entry, to, key, delay)?;
                OpTimes {
                    start,
                    ready: entry.at,
                    end,
                }
            }
            Some(Comm::Recv { from, key }) => match dev.recv(&entry, from, key)? {
                Some((ready, end)) => OpTimes {
                    start: entry.at,
                    ready,
                    end,
                },
                None => return Ok(Step::Blocked(key)),
            },
        };
        self.pc += 1;
        Ok(Step::Ran(times))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LinkDegrade, StageCrash, StageStall, Straggler};
    use autopipe_schedule::generators::{interleaved, one_f_one_b};
    use std::collections::HashMap;
    use std::convert::Infallible;

    /// A device that logs what the cursor asks of it: unit-time compute,
    /// free messages that are always there.
    #[derive(Default)]
    struct Log {
        clock: f64,
        computed: Vec<(usize, f64)>,
        sent: Vec<(usize, MsgKey, f64)>,
        received: Vec<(usize, MsgKey)>,
        stalls: Vec<f64>,
    }

    impl Device for Log {
        type Abort = Infallible;

        fn now(&self) -> f64 {
            self.clock
        }

        fn compute(&mut self, e: &Entry, factor: f64) -> Result<(f64, f64), Infallible> {
            self.stalls.push(e.stall);
            self.computed.push((e.stage, factor));
            let start = e.at + e.stall;
            self.clock = start + factor;
            Ok((start, self.clock))
        }

        fn send(
            &mut self,
            e: &Entry,
            to: usize,
            key: MsgKey,
            delay: f64,
        ) -> Result<(f64, f64), Infallible> {
            self.stalls.push(e.stall);
            self.sent.push((to, key, delay));
            self.clock = e.at + e.stall;
            Ok((self.clock, self.clock))
        }

        fn recv(
            &mut self,
            e: &Entry,
            from: usize,
            key: MsgKey,
        ) -> Result<Option<(f64, f64)>, Infallible> {
            self.stalls.push(e.stall);
            self.received.push((from, key));
            self.clock = e.at + e.stall;
            Ok(Some((e.at, self.clock)))
        }
    }

    fn run(sched: &Schedule, d: usize, faults: Faults<'_>) -> (Log, Vec<OpTimes>, Step) {
        let mut dev = Log::default();
        let mut cursor = Cursor::new(sched, d, 0, faults);
        let mut times = Vec::new();
        loop {
            match cursor.step(&mut dev) {
                Ok(Step::Ran(t)) => times.push(t),
                Ok(last) => return (dev, times, last),
                Err(never) => match never {},
            }
        }
    }

    #[test]
    fn every_send_key_has_a_matching_recv_key() {
        // Pairing each send's key against the receiving device's recv keys
        // must balance out, and each message names its peer both ways.
        for sched in [one_f_one_b(4, 6), interleaved(4, 2, 8).unwrap()] {
            let mut balance: HashMap<(MsgKey, usize, usize), i64> = HashMap::new();
            for d in 0..sched.n_devices {
                let (log, times, last) = run(&sched, d, Faults::Clean);
                assert_eq!(last, Step::Done);
                assert_eq!(times.len(), sched.devices[d].len());
                for (to, key, _) in log.sent {
                    *balance.entry((key, d, to)).or_insert(0) += 1;
                }
                for (from, key) in log.received {
                    *balance.entry((key, from, d)).or_insert(0) -= 1;
                }
            }
            assert!(
                balance.values().all(|&n| n == 0),
                "unbalanced keys in {:?}",
                sched.kind
            );
        }
    }

    #[test]
    fn the_script_is_applied_once_per_op() {
        let sched = one_f_one_b(2, 2);
        let mut plan = FaultPlan::with_seed(4);
        plan.stragglers.push(Straggler {
            stage: 0,
            factor: 3.0,
        });
        plan.stalls.push(StageStall {
            device: 0,
            op_index: 1,
            pause: 0.5,
        });
        plan.links.push(LinkDegrade {
            from: 0,
            to: 1,
            extra: 0.25,
            jitter: 0.0,
            spike_prob: 0.0,
            spike: 0.0,
        });
        let (log, times, _) = run(&sched, 0, Faults::Delays(&plan));
        // One stall, on the op it was scripted before; `ready` keeps the
        // time the device reached it.
        let stalls: Vec<usize> = (log.stalls.iter().enumerate())
            .filter(|(_, &s)| s > 0.0)
            .map(|(j, _)| j)
            .collect();
        assert_eq!(stalls, vec![1]);
        assert_eq!(times[1].start - times[1].ready, 0.5);
        // Every compute of stage 0 runs 3× slower; every message on 0 → 1
        // carries the link's delay, handed over once per message.
        assert!(log.computed.iter().all(|&(s, f)| s == 0 && f == 3.0));
        assert_eq!(log.sent.len(), 2);
        assert!(log
            .sent
            .iter()
            .all(|&(to, _, delay)| to == 1 && delay == 0.25));
        // Everything else starts where it was reached.
        for (j, t) in times.iter().enumerate().filter(|(j, _)| *j != 1) {
            assert_eq!(t.start, t.ready, "op {j}");
        }
    }

    #[test]
    fn a_fail_stop_holds_the_cursor_only_when_applied() {
        let sched = one_f_one_b(2, 2);
        let mut plan = FaultPlan::with_seed(1);
        plan.crashes.push(StageCrash {
            device: 1,
            at_op: 3,
        });
        let (_, times, last) = run(&sched, 1, Faults::All(&plan));
        assert_eq!((times.len(), last), (3, Step::Failed(FailStopKind::Crash)));
        let (_, times, last) = run(&sched, 1, Faults::Delays(&plan));
        assert_eq!((times.len(), last), (sched.devices[1].len(), Step::Done));
    }
}

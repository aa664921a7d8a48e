//! Phase/lane programs: the composable layer beneath the generators.
//!
//! Every schedule family is expressed the same way: per device, a *lane* of
//! compute [`Slot`]s grouped into [`Phase`]s (Warmup → Steady → Cooldown →
//! Drain). Slots name only the compute intent — which micro-batch and chunk
//! runs forward, and whether backward is fused or split. `lower`
//! turns a lane into the executable [`Op`] program by attaching the
//! communication each slot implies: a forward on pipeline stage `s` receives
//! its activation when `s > 0` and ships its output when `s < n_stages − 1`,
//! a (fused or grad-input) backward mirrors that for gradients, and a
//! grad-weight slot is pure local compute. Neighbour devices are computed on
//! the chunk ring (`(d ± 1) mod p`), which degenerates to the linear chain
//! for `v = 1` and gives Megatron's wrap-around links for interleaving.
//!
//! Because communication placement is centralised here, coverage/deadlock
//! validation and the simulators stay family-agnostic: a new family is just
//! a new way of arranging slots into phases.
//!
//! Lowering also guarantees the *comm-lane adjacency* invariant the
//! overlapped comm engine depends on: every send op is emitted directly
//! after the compute op that produced its payload (recv–compute–send per
//! slot), so an eager chunked send always knows which compute span to
//! pipeline against ([`Lane`]; enforced by
//! [`crate::validate::validate`]).

use serde::Serialize;

use crate::op::{Op, OpKind, Part};

/// Scheduling phase a slot belongs to. Purely descriptive — lowering ignores
/// it — but it keeps generators honest about their structure and gives
/// tooling a shared vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Phase {
    /// Fill: forwards before the device's first backward.
    Warmup,
    /// The alternating steady state (1F1B or interleaved equivalent).
    Steady,
    /// Drain of remaining backwards.
    Cooldown,
    /// Deferred grad-weight tail (zero-bubble family only).
    Drain,
}

/// One compute intent in a device lane. Communication is implied, never
/// written by generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Slot {
    /// Forward of micro-batch `mb` through chunk `chunk`, whole. Slicing
    /// splits it afterwards ([`crate::slice`]).
    Fwd { mb: usize, chunk: usize },
    /// Fused backward (grad-input + grad-weight in one op).
    Bwd { mb: usize, chunk: usize },
    /// Grad-input half of a split backward; ships the gradient upstream.
    BwdInput { mb: usize, chunk: usize },
    /// Deferred grad-weight half; local compute only.
    BwdWeight { mb: usize, chunk: usize },
}

/// A device's lane: slots grouped into phases, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Device index this lane runs on.
    pub device: usize,
    /// `(phase, slot)` pairs in execution order.
    pub slots: Vec<(Phase, Slot)>,
}

impl Lane {
    /// Empty lane for `device`.
    pub(crate) fn new(device: usize) -> Self {
        Lane {
            device,
            slots: Vec::new(),
        }
    }

    /// Append a slot under `phase`.
    pub(crate) fn push(&mut self, phase: Phase, slot: Slot) {
        self.slots.push((phase, slot));
    }
}

/// Lower a lane to an executable op program for a `p`-device, `v`-chunk
/// pipeline (stage of chunk `c` on device `d` is `c·p + d`).
pub(crate) fn lower(lane: &Lane, p: usize, v: usize) -> Vec<Op> {
    let d = lane.device;
    let n_stages = p * v;
    let prev = |_c: usize| if d > 0 { d - 1 } else { p - 1 };
    let next = |_c: usize| if d < p - 1 { d + 1 } else { 0 };
    let mut ops = Vec::new();
    for &(_, slot) in &lane.slots {
        match slot {
            Slot::Fwd { mb, chunk } => {
                let part = Part::Full;
                let stage = chunk * p + d;
                if stage > 0 {
                    ops.push(Op::new(OpKind::RecvAct {
                        mb,
                        chunk,
                        part,
                        from: prev(chunk),
                    }));
                }
                ops.push(Op::new(OpKind::Fwd { mb, chunk, part }));
                if stage < n_stages - 1 {
                    ops.push(Op::new(OpKind::SendAct {
                        mb,
                        chunk,
                        part,
                        to: next(chunk),
                    }));
                }
            }
            Slot::Bwd { mb, chunk } | Slot::BwdInput { mb, chunk } => {
                let stage = chunk * p + d;
                if stage < n_stages - 1 {
                    ops.push(Op::new(OpKind::RecvGrad {
                        mb,
                        chunk,
                        from: next(chunk),
                    }));
                }
                ops.push(Op::new(match slot {
                    Slot::Bwd { .. } => OpKind::Bwd { mb, chunk },
                    _ => OpKind::BwdInput { mb, chunk },
                }));
                if stage > 0 {
                    ops.push(Op::new(OpKind::SendGrad {
                        mb,
                        chunk,
                        to: prev(chunk),
                    }));
                }
            }
            Slot::BwdWeight { mb, chunk } => {
                ops.push(Op::new(OpKind::BwdWeight { mb, chunk }));
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_attaches_linear_comm() {
        // Middle device of a 3-deep pipeline: recv, compute, send on both
        // directions.
        let mut lane = Lane::new(1);
        lane.push(Phase::Warmup, Slot::Fwd { mb: 0, chunk: 0 });
        lane.push(Phase::Cooldown, Slot::Bwd { mb: 0, chunk: 0 });
        let ops = lower(&lane, 3, 1);
        let kinds: Vec<_> = ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::RecvAct {
                    mb: 0,
                    chunk: 0,
                    part: Part::Full,
                    from: 0
                },
                OpKind::Fwd {
                    mb: 0,
                    chunk: 0,
                    part: Part::Full
                },
                OpKind::SendAct {
                    mb: 0,
                    chunk: 0,
                    part: Part::Full,
                    to: 2
                },
                OpKind::RecvGrad {
                    mb: 0,
                    chunk: 0,
                    from: 2
                },
                OpKind::Bwd { mb: 0, chunk: 0 },
                OpKind::SendGrad {
                    mb: 0,
                    chunk: 0,
                    to: 0
                },
            ]
        );
    }

    #[test]
    fn split_backward_lowers_to_input_send_then_bare_weight() {
        let mut lane = Lane::new(1);
        lane.push(Phase::Steady, Slot::BwdInput { mb: 3, chunk: 0 });
        lane.push(Phase::Steady, Slot::BwdWeight { mb: 3, chunk: 0 });
        let ops = lower(&lane, 4, 1);
        let kinds: Vec<_> = ops.iter().map(|o| o.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::RecvGrad {
                    mb: 3,
                    chunk: 0,
                    from: 2
                },
                OpKind::BwdInput { mb: 3, chunk: 0 },
                OpKind::SendGrad {
                    mb: 3,
                    chunk: 0,
                    to: 0
                },
                OpKind::BwdWeight { mb: 3, chunk: 0 },
            ]
        );
    }

    #[test]
    fn interleaved_chunks_use_ring_neighbours() {
        // Last device's chunk-0 forward wraps its send to device 0 (which
        // hosts chunk 1's first stage).
        let mut lane = Lane::new(1);
        lane.push(Phase::Warmup, Slot::Fwd { mb: 0, chunk: 0 });
        let ops = lower(&lane, 2, 2);
        assert_eq!(
            ops.last().unwrap().kind,
            OpKind::SendAct {
                mb: 0,
                chunk: 0,
                part: Part::Full,
                to: 0
            }
        );
    }
}

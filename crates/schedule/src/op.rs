//! Schedule operations.

use serde::Serialize;

/// Which portion of a micro-batch an op carries. The AutoPipe Slicer splits
/// a micro-batch "evenly into an appropriate number of pieces" — always two
/// halves in the paper — so the IR models exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Part {
    /// The whole micro-batch.
    Full,
    /// First half of a sliced micro-batch.
    Half1,
    /// Second half of a sliced micro-batch.
    Half2,
    /// Both halves shipped in one message — the aggregated communication for
    /// the last sliced micro-batch (§III-C: "we cancel the communication of
    /// first half and aggregate it with the communication of second half").
    /// Only ever appears on Send/Recv ops, never on compute ops.
    Both,
}

impl Part {
    /// Fraction of the full micro-batch this part represents, for scaling
    /// compute durations and message volumes.
    pub fn frac(self) -> f64 {
        match self {
            Part::Full | Part::Both => 1.0,
            Part::Half1 | Part::Half2 => 0.5,
        }
    }

    /// True if this is one of the two halves.
    pub fn is_half(self) -> bool {
        matches!(self, Part::Half1 | Part::Half2)
    }
}

/// One operation in a device program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OpKind {
    /// Forward pass of `part` of micro-batch `mb` through model chunk
    /// `chunk` on this device.
    Fwd { mb: usize, chunk: usize, part: Part },
    /// Fused backward pass of micro-batch `mb` through chunk `chunk`:
    /// grad-input and grad-weight in one op. Backwards are never sliced:
    /// slicing only reschedules Warmup-phase forwards. Semantically
    /// equivalent to `BwdInput` immediately followed by `BwdWeight`.
    Bwd { mb: usize, chunk: usize },
    /// Grad-input half of a split backward (2BP / zero-bubble style): computes
    /// the gradient w.r.t. the chunk's *input* so `SendGrad` can depart
    /// early, while the weight-gradient work is deferred to `BwdWeight`.
    BwdInput { mb: usize, chunk: usize },
    /// Grad-weight half of a split backward: accumulates weight gradients
    /// stashed by the matching `BwdInput`, releasing the micro-batch's
    /// activation checkpoints. Schedulable anywhere after its `BwdInput`.
    BwdWeight { mb: usize, chunk: usize },
    /// Replay the forward of micro-batch `mb` through chunk `chunk` from the
    /// stashed stage input, rebuilding the activation caches the following
    /// backward consumes. The only re-forward there is: global activation
    /// checkpointing and the per-stage recompute mask both lower to it
    /// ([`crate::recompute`]), before each backward whose own forward is not
    /// the device's previous compute op. Every simulator prices it at one
    /// stage forward.
    Recompute { mb: usize, chunk: usize },
    /// Ship the output activation of (`mb`, `chunk`, `part`) to device `to`.
    SendAct {
        mb: usize,
        chunk: usize,
        part: Part,
        to: usize,
    },
    /// Wait for the input activation of (`mb`, `chunk`, `part`) from device
    /// `from`. `chunk` names the *receiving* chunk.
    RecvAct {
        mb: usize,
        chunk: usize,
        part: Part,
        from: usize,
    },
    /// Ship the input gradient of (`mb`, `chunk`) to device `to`.
    SendGrad { mb: usize, chunk: usize, to: usize },
    /// Wait for the output gradient of (`mb`, `chunk`) from device `from`.
    RecvGrad {
        mb: usize,
        chunk: usize,
        from: usize,
    },
}

/// An op plus nothing else (a struct so the IR can grow metadata without
/// touching every consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Op {
    /// The operation.
    pub kind: OpKind,
}

impl Op {
    /// Construct from a kind.
    #[inline]
    pub fn new(kind: OpKind) -> Self {
        Op { kind }
    }

    /// Is this a compute op (forward or backward)?
    #[inline]
    pub fn is_compute(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Fwd { .. }
                | OpKind::Bwd { .. }
                | OpKind::BwdInput { .. }
                | OpKind::BwdWeight { .. }
                | OpKind::Recompute { .. }
        )
    }

    /// Model chunk this op concerns.
    #[inline]
    pub fn chunk(&self) -> usize {
        match self.kind {
            OpKind::Fwd { chunk, .. }
            | OpKind::Bwd { chunk, .. }
            | OpKind::BwdInput { chunk, .. }
            | OpKind::BwdWeight { chunk, .. }
            | OpKind::Recompute { chunk, .. }
            | OpKind::SendAct { chunk, .. }
            | OpKind::RecvAct { chunk, .. }
            | OpKind::SendGrad { chunk, .. }
            | OpKind::RecvGrad { chunk, .. } => chunk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_fractions() {
        assert_eq!(Part::Full.frac(), 1.0);
        assert_eq!(Part::Both.frac(), 1.0);
        assert_eq!(Part::Half1.frac(), 0.5);
        assert_eq!(Part::Half2.frac(), 0.5);
        assert!(Part::Half1.is_half());
        assert!(!Part::Both.is_half());
    }

    #[test]
    fn op_accessors() {
        let op = Op::new(OpKind::SendAct {
            mb: 3,
            chunk: 1,
            part: Part::Full,
            to: 2,
        });
        assert_eq!(op.chunk(), 1);
        assert!(!op.is_compute());
        let f = Op::new(OpKind::Fwd {
            mb: 0,
            chunk: 0,
            part: Part::Half1,
        });
        assert!(f.is_compute());
    }

    #[test]
    fn split_backward_ops_are_compute() {
        let bi = Op::new(OpKind::BwdInput { mb: 2, chunk: 1 });
        let bw = Op::new(OpKind::BwdWeight { mb: 2, chunk: 1 });
        assert!(bi.is_compute());
        assert!(bw.is_compute());
        assert_eq!(bi.chunk(), 1);
        assert_eq!(bw.chunk(), 1);
    }
}

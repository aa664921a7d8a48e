//! Pipeline schedule intermediate representation and generators.
//!
//! A [`Schedule`] is a per-device program of [`Op`]s: forward/backward
//! computations plus explicit activation/gradient sends and receives. The
//! discrete-event simulator executes schedules against a cost database; the
//! threaded runtime executes them against real tensors. Keeping the IR
//! explicit lets one code path cover every schedule the paper discusses:
//!
//! * [`generators::gpipe`] — all forwards then all backwards (GPipe);
//! * [`generators::one_f_one_b`] — the synchronous 1F1B schedule with
//!   Warmup / 1F1B / Cooldown phases (Fig. 5), used by Megatron-LM and by
//!   AutoPipe;
//! * [`generators::interleaved`] — Megatron-LM's interleaved schedule with
//!   `v` model chunks per device (the baseline in Fig. 14);
//! * [`generators::sliced_1f1b`] — 1F1B with the first `sliced` micro-batches
//!   split in half during Warmup, the AutoPipe Slicer's output (Fig. 8),
//!   including the aggregated-communication rule for the last sliced
//!   micro-batch (§III-C);
//! * [`generators::zero_bubble`] — 1F1B with every backward split into
//!   grad-input and grad-weight ops (2BP-style), grad-weights deferred out
//!   of the cooldown critical path.
//!
//! Generators are written as phase/lane programs over [`program::Slot`]s;
//! `program::lower` attaches the communication each slot implies.

pub mod generators;
pub mod op;
pub mod program;
pub mod recompute;
pub mod validate;

pub use generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble};
pub use op::{Op, OpKind, Part};
pub use recompute::{apply_recompute, recompute_mask};
pub use validate::{validate, ValidationError};

use serde::{Deserialize, Serialize};

/// Which generator produced a schedule (for reports and dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// GPipe: fill then drain.
    GPipe,
    /// Synchronous 1F1B.
    OneFOneB,
    /// Megatron-LM interleaved 1F1B with `v` chunks per device.
    Interleaved,
    /// 1F1B with AutoPipe micro-batch slicing in the Warmup phase.
    Sliced1F1B,
    /// 1F1B with split backwards: grad-weights deferred out of the cooldown
    /// critical path (the ZB-H1 memory profile).
    ZeroBubble,
}

/// A complete pipeline schedule: one op program per device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Generator that produced this schedule.
    pub kind: ScheduleKind,
    /// Number of pipeline devices.
    pub n_devices: usize,
    /// Model chunks per device (1 except for the interleaved schedule).
    pub n_chunks: usize,
    /// Micro-batches per iteration.
    pub n_microbatches: usize,
    /// How many leading micro-batches are sliced in half (Sliced1F1B only).
    pub n_sliced: usize,
    /// Per-device op programs, executed strictly in order on each device.
    pub devices: Vec<Vec<Op>>,
}

impl Schedule {
    /// Pipeline stage index implemented by `chunk` on `device`. With the
    /// interleaved schedule, chunk `c` of device `d` is stage `c·p + d`;
    /// otherwise stage = device.
    #[inline]
    pub fn stage_of(&self, device: usize, chunk: usize) -> usize {
        chunk * self.n_devices + device
    }

    /// Total number of pipeline stages (`devices × chunks`).
    #[inline]
    pub fn n_stages(&self) -> usize {
        self.n_devices * self.n_chunks
    }

    /// Total op count across all devices.
    pub fn total_ops(&self) -> usize {
        self.devices.iter().map(|d| d.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_of_layout_matches_megatron_interleaving() {
        let s = generators::interleaved(4, 2, 8).unwrap();
        // chunk 0 of devices 0..3 are stages 0..3; chunk 1 are stages 4..7.
        assert_eq!(s.stage_of(0, 0), 0);
        assert_eq!(s.stage_of(3, 0), 3);
        assert_eq!(s.stage_of(0, 1), 4);
        assert_eq!(s.stage_of(3, 1), 7);
        assert_eq!(s.n_stages(), 8);
    }
}

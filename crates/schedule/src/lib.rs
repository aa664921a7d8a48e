//! Pipeline schedule intermediate representation and generators.
//!
//! A [`Schedule`] is a per-device program of [`Op`]s: forward/backward
//! computations plus explicit activation/gradient sends and receives. The
//! discrete-event simulator executes schedules against a cost database; the
//! threaded runtime executes them against real tensors. Keeping the IR
//! explicit lets one code path cover every schedule the paper discusses.
//! Four generators build the families:
//!
//! * [`generators::gpipe`] — all forwards then all backwards (GPipe);
//! * [`generators::one_f_one_b`] — the synchronous 1F1B schedule with
//!   Warmup / 1F1B / Cooldown phases (Fig. 5), used by Megatron-LM and by
//!   AutoPipe;
//! * [`generators::interleaved`] — Megatron-LM's interleaved schedule with
//!   `v` model chunks per device (the baseline in Fig. 14);
//! * [`generators::zero_bubble`] — 1F1B with every backward split into
//!   grad-input and grad-weight ops (2BP-style), grad-weights deferred out
//!   of the cooldown critical path.
//!
//! Generators are written as phase/lane programs over [`program::Slot`]s;
//! `program::lower` attaches the communication each slot implies. Two
//! transforms then rewrite any lowered schedule:
//!
//! * [`slice()`] — the AutoPipe Slicer's output (Fig. 8): the forwards of the
//!   first `k` micro-batches split in half, the last sliced one's halves
//!   shipped in one message (§III-C). [`generators::sliced_1f1b`] is 1F1B
//!   sliced;
//! * [`apply_recompute`] and [`apply_checkpointing`] — activation
//!   recomputation, on the stages of a memory mask or on every stage: one
//!   `Recompute` op before each backward whose forward dropped its caches.

pub mod generators;
pub mod op;
pub mod program;
pub mod recompute;
pub mod slicing;
pub mod validate;

pub use generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble};
pub use op::{Op, OpKind, Part};
pub use recompute::{apply_checkpointing, apply_recompute, kept_forwards, recompute_mask};
pub use slicing::slice;
pub use validate::{validate, ValidationError};

use serde::{Deserialize, Serialize};

/// Which generator produced a schedule (for reports and dispatch). Slicing
/// keeps the kind and records itself in [`Schedule::n_sliced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// GPipe: fill then drain.
    GPipe,
    /// Synchronous 1F1B.
    OneFOneB,
    /// Megatron-LM interleaved 1F1B with `v` chunks per device.
    Interleaved,
    /// 1F1B with split backwards: grad-weights deferred out of the cooldown
    /// critical path (the ZB-H1 memory profile).
    ZeroBubble,
}

/// A complete pipeline schedule: one op program per device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Schedule {
    /// Generator that produced this schedule.
    pub kind: ScheduleKind,
    /// Number of pipeline devices.
    pub n_devices: usize,
    /// Model chunks per device (1 except for the interleaved schedule).
    pub n_chunks: usize,
    /// Micro-batches per iteration.
    pub n_microbatches: usize,
    /// How many leading micro-batches [`slice()`] split in half (0 = unsliced).
    pub n_sliced: usize,
    /// Per-stage recompute mask ([`apply_recompute`]): the stages that stash
    /// only their input per in-flight micro-batch, which the memory model
    /// charges. Global checkpointing ([`apply_checkpointing`]) adds the same
    /// ops without setting it.
    pub recompute: Vec<bool>,
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

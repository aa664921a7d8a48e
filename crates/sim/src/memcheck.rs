//! Static memory feasibility checks for (partition, schedule) pairs.
//!
//! Planners and the experiment harness need to know whether a configuration
//! OOMs *before* (or instead of) simulating it — exactly like the paper's
//! Table IV "OOM" entries and Fig. 14's OOM columns. The per-device formula
//! lives in [`autopipe_cost::memory`]; this module maps schedules onto it by
//! *replaying* each device's op program and tracking peak activation
//! liveness: a forward makes `part.frac()` of a micro-batch's checkpoints
//! live, and they stay live until the op that releases them — the fused
//! backward or, for split backwards, the grad-weight — retires. The replay
//! reproduces the familiar closed forms (`p − stage` in flight for
//! 1F1B-family schedules, all `m` for GPipe, Megatron's warmup count of
//! chunk-forwards for interleaving) while staying correct for any new
//! family expressed in the IR.

use autopipe_cost::{
    memory::{
        stage_memory_frac, working_set, ACT_FRAG_MULT, INTERLEAVED_FRAG_MULT, PARAM_STATE_BYTES,
    },
    CostDb, Hardware, MemoryBreakdown,
};
use autopipe_schedule::{OpKind, Schedule};

use crate::partition::Partition;

/// A device exceeded its memory budget.
///
/// Carries everything a caller needs to act on the failure: the itemised
/// [`MemoryBreakdown`] of the offending device, the budget it missed, and
/// whether rerunning the same (partition, schedule) with every stage
/// recomputing would have fit — the hint the memory-aware planner turns
/// into a recompute mask.
#[derive(Debug, Clone, PartialEq)]
pub struct OomError {
    /// Offending device.
    pub device: usize,
    /// Bytes the device would need.
    pub required: u64,
    /// Usable budget.
    pub budget: u64,
    /// Itemised usage.
    pub breakdown: MemoryBreakdown,
    /// Would this (partition, schedule) fit under the same budget with
    /// activation recomputation on every stage? `false` when the schedule
    /// already recomputes (no further headroom of this kind exists).
    pub fits_with_recompute: bool,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OOM on device {}: needs {:.2} GB, budget {:.2} GB \
             (params {:.2} + checkpoints {:.2} + working {:.2} + buffers {:.2} GB); {}",
            self.device,
            self.required as f64 / 1e9,
            self.budget as f64 / 1e9,
            self.breakdown.param_state as f64 / 1e9,
            self.breakdown.checkpoints as f64 / 1e9,
            self.breakdown.working as f64 / 1e9,
            self.breakdown.buffers as f64 / 1e9,
            if self.fits_with_recompute {
                "would fit with activation recomputation"
            } else {
                "does not fit even with full recomputation"
            }
        )
    }
}

impl std::error::Error for OomError {}

/// Peak number of chunk-forwards (in micro-batch-equivalents) whose
/// activation checkpoints are simultaneously live on `device`, found by
/// replaying the device's op program. A forward adds `part.frac()`; the
/// fused backward or the grad-weight of a split backward releases the
/// accumulated fraction; a grad-input releases nothing (zero-bubble
/// schedules keep the checkpoint until the deferred grad-weight retires).
pub fn peak_in_flight(sched: &Schedule, device: usize) -> f64 {
    // Live fraction per (micro-batch, chunk), at `mb · n_chunks + chunk`.
    let v = sched.n_chunks;
    let mut live = vec![0.0_f64; sched.n_microbatches * v];
    let mut total = 0.0_f64;
    let mut peak = 0.0_f64;
    for op in &sched.devices[device] {
        match op.kind {
            OpKind::Fwd { mb, chunk, part } => {
                live[mb * v + chunk] += part.frac();
                total += part.frac();
                peak = peak.max(total);
            }
            OpKind::Bwd { mb, chunk } | OpKind::BwdWeight { mb, chunk } => {
                total -= std::mem::take(&mut live[mb * v + chunk]);
            }
            _ => {}
        }
    }
    peak
}

/// Compute per-device memory for a partitioned model under `sched`.
/// `partition` must have exactly `sched.n_stages()` stages (for the
/// interleaved schedule: one partition stage per chunk-stage).
///
/// Recompute-aware: the stages of the schedule's recompute mask
/// ([`Schedule::recompute`]) stash only their input activation per
/// in-flight micro-batch; the full per-block checkpoint set is charged
/// once, to the working term, for the micro-batch whose backward the replay
/// is feeding. Every other stage is charged the per-block checkpoints of
/// global activation checkpointing, whether or not its program replays. The in-flight count itself comes from the generic
/// peak-liveness replay, fractional for sliced schedules (a live half
/// micro-batch is charged as a half, not rounded up — non-uniform slice
/// patterns are exact, and equal to the threaded runtime's measured peak).
pub fn device_memory(partition: &Partition, db: &CostDb, sched: &Schedule) -> Vec<MemoryBreakdown> {
    let p = sched.n_devices;
    let v = sched.n_chunks;
    assert_eq!(partition.n_stages(), sched.n_stages());
    let mask = &sched.recompute;
    (0..p)
        .map(|d| {
            let peak = peak_in_flight(sched, d).max(1.0);
            if v > 1 {
                // Merge the device's chunks into one virtual block list.
                let mut blocks = Vec::new();
                for c in 0..v {
                    blocks.extend_from_slice(&db.blocks[partition.range(sched.stage_of(d, c))]);
                }
                // stage_memory multiplies the *whole* checkpoint set by
                // in_flight; the replayed peak counts chunk-forwards, so we
                // hold peak/v stage-equivalents. Interleaving also doubles
                // the comm buffers (wrap-around links) and fragments worse.
                let equiv = ((peak / v as f64).ceil() as usize).max(1);
                if (0..v).all(|c| !mask[sched.stage_of(d, c)]) {
                    stage_memory_frac(
                        &blocks,
                        2 * db.comm_bytes,
                        equiv as f64,
                        INTERLEAVED_FRAG_MULT,
                        false,
                    )
                } else {
                    // Mixed per-chunk masks: the checkpoint unit is summed
                    // chunk by chunk (input activation for recomputing
                    // chunks, full set otherwise); only one backward runs at
                    // a time, so the rematerialised set is the largest
                    // recomputing chunk's.
                    let mut unit = 0u64;
                    let mut remat = 0u64;
                    for c in 0..v {
                        let r = partition.range(sched.stage_of(d, c));
                        let cb = &db.blocks[r];
                        let ckpt: u64 = cb.iter().map(|b| b.ckpt_act_bytes).sum();
                        if mask[sched.stage_of(d, c)] {
                            unit += cb.first().map(|b| b.ckpt_act_bytes).unwrap_or(0);
                            remat = remat.max(ckpt);
                        } else {
                            unit += ckpt;
                        }
                    }
                    let params: u64 = blocks.iter().map(|b| b.params).sum();
                    MemoryBreakdown {
                        param_state: params * PARAM_STATE_BYTES,
                        checkpoints: (equiv as f64 * unit as f64 * INTERLEAVED_FRAG_MULT) as u64,
                        working: ((working_set(&blocks) + remat) as f64 * INTERLEAVED_FRAG_MULT)
                            as u64,
                        buffers: 4 * (2 * db.comm_bytes),
                    }
                }
            } else {
                stage_memory_frac(
                    &db.blocks[partition.range(d)],
                    db.comm_bytes,
                    peak,
                    ACT_FRAG_MULT,
                    mask[d],
                )
            }
        })
        .collect()
}

/// Check that every device fits the hardware budget; returns the per-device
/// breakdowns.
pub fn check_memory(
    partition: &Partition,
    db: &CostDb,
    sched: &Schedule,
    hw: &Hardware,
) -> Result<Vec<MemoryBreakdown>, OomError> {
    check_memory_budget(partition, db, sched, hw.mem_budget())
}

/// [`check_memory`] against an explicit byte budget — the planner's
/// `Constraints { memory_budget }` end of the API. On failure the
/// [`OomError`] also answers "would a recompute mask have fixed this?" by
/// re-checking the same configuration with every stage recomputing.
pub fn check_memory_budget(
    partition: &Partition,
    db: &CostDb,
    sched: &Schedule,
    budget: u64,
) -> Result<Vec<MemoryBreakdown>, OomError> {
    let usage = device_memory(partition, db, sched);
    for (device, bd) in usage.iter().enumerate() {
        if bd.total() > budget {
            return Err(OomError {
                device,
                required: bd.total(),
                budget,
                breakdown: *bd,
                fits_with_recompute: fits_with_full_recompute(partition, db, sched, budget),
            });
        }
    }
    Ok(usage)
}

/// Would the configuration fit `budget` if every stage recomputed? `false`
/// when the schedule's mask already recomputes (the headroom is spent).
fn fits_with_full_recompute(
    partition: &Partition,
    db: &CostDb,
    sched: &Schedule,
    budget: u64,
) -> bool {
    if sched.recompute.iter().any(|&m| m) {
        return false;
    }
    // The memory model reads only the mask, so no ops need lowering.
    let all = Schedule {
        recompute: vec![true; sched.n_stages()],
        ..sched.clone()
    };
    device_memory(partition, db, &all)
        .iter()
        .all(|bd| bd.total() <= budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::{zoo, Granularity};
    use autopipe_schedule::apply_recompute;
    use autopipe_schedule::generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b};

    fn db(mbs: usize) -> CostDb {
        CostDb::build(
            &zoo::gpt2_345m(),
            &Hardware::rtx3090_cluster(),
            mbs,
            true,
            Granularity::SubLayer,
        )
    }

    #[test]
    fn gpipe_needs_more_memory_than_1f1b() {
        let d = db(8);
        let part = Partition::even(d.len(), 4);
        let g = device_memory(&part, &d, &gpipe(4, 8));
        let o = device_memory(&part, &d, &one_f_one_b(4, 8));
        // GPipe stashes all 8 micro-batches on every stage.
        for (gd, od) in g.iter().zip(&o) {
            assert!(gd.checkpoints >= od.checkpoints);
        }
        assert!(g[3].checkpoints > o[3].checkpoints);
        // A full recompute mask trades device 0's stash, the deepest, for
        // its stage-input activations.
        let mut rec = one_f_one_b(4, 8);
        apply_recompute(&mut rec, &[true; 4]);
        let r = device_memory(&part, &d, &rec);
        assert!(r[0].checkpoints < o[0].checkpoints);
    }

    #[test]
    fn the_mask_not_the_ops_sets_the_stash() {
        // Global checkpointing's replays leave the per-block stash charged;
        // the mask alone switches a stage to its input-only stash.
        use autopipe_schedule::apply_checkpointing;
        let d = db(8);
        let part = Partition::even(d.len(), 4);
        let plain = one_f_one_b(4, 8);
        let mut ckpt = plain.clone();
        apply_checkpointing(&mut ckpt);
        assert_eq!(
            device_memory(&part, &d, &ckpt),
            device_memory(&part, &d, &plain)
        );
        let mut masked = plain.clone();
        apply_recompute(&mut masked, &[true; 4]);
        let mut both = ckpt.clone();
        apply_recompute(&mut both, &[true; 4]);
        assert_eq!(
            device_memory(&part, &d, &both),
            device_memory(&part, &d, &masked)
        );
        assert_ne!(
            device_memory(&part, &d, &masked),
            device_memory(&part, &d, &plain)
        );
    }

    #[test]
    fn sliced_uses_no_extra_memory() {
        // The Slicer's selling point: startup halved "without affecting
        // pipeline balance or introducing additional memory consumption".
        let d = db(8);
        let part = Partition::even(d.len(), 4);
        let plain = device_memory(&part, &d, &one_f_one_b(4, 8));
        let sliced = device_memory(&part, &d, &sliced_1f1b(4, 8, 2));
        assert_eq!(plain, sliced);
    }

    #[test]
    fn interleaved_oom_at_mbs_32_but_not_plain() {
        // The Fig. 14a OOM column.
        let hw = Hardware::rtx3090_cluster();
        let d = db(32);
        let plain_part = Partition::even(d.len(), 4);
        assert!(check_memory(&plain_part, &d, &one_f_one_b(4, 8), &hw).is_ok());
        let int = interleaved(4, 2, 8).unwrap();
        let int_part = Partition::even(d.len(), 8);
        assert!(check_memory(&int_part, &d, &int, &hw).is_err());
    }

    #[test]
    fn interleaved_fits_at_small_mbs() {
        let hw = Hardware::rtx3090_cluster();
        let d = db(4);
        let int = interleaved(4, 2, 8).unwrap();
        let int_part = Partition::even(d.len(), 8);
        assert!(check_memory(&int_part, &d, &int, &hw).is_ok());
    }

    #[test]
    fn replay_reproduces_closed_form_in_flight_counts() {
        // The liveness replay must agree with the textbook closed forms the
        // old per-kind match hard-coded.
        use autopipe_cost::memory::{in_flight_1f1b, in_flight_interleaved_chunks};
        let (p, m) = (4, 8);
        for d in 0..p {
            let o = peak_in_flight(&one_f_one_b(p, m), d);
            assert_eq!(o, in_flight_1f1b(d, p, m) as f64, "1f1b device {d}");
            let g = peak_in_flight(&gpipe(p, m), d);
            assert_eq!(g, m as f64, "gpipe device {d}");
            let s = peak_in_flight(&sliced_1f1b(p, m, 2), d);
            assert_eq!(s, in_flight_1f1b(d, p, m) as f64, "sliced device {d}");
        }
        let v = 2;
        let int = interleaved(p, v, m).unwrap();
        for d in 0..p {
            let got = peak_in_flight(&int, d);
            let want = in_flight_interleaved_chunks(d, p, v, m) as f64;
            assert_eq!(got, want, "interleaved device {d}");
        }
    }

    #[test]
    fn zero_bubble_memory_matches_1f1b() {
        // ZB-H1's selling point: the zero-bubble arrangement keeps peak
        // activation memory at the 1F1B level because checkpoints are only
        // freed by the grad-weight, which retires in the same order as the
        // fused backward would.
        use autopipe_schedule::generators::zero_bubble;
        let d = db(8);
        let part = Partition::even(d.len(), 4);
        let plain = device_memory(&part, &d, &one_f_one_b(4, 8));
        let zb = device_memory(&part, &d, &zero_bubble(4, 8));
        assert_eq!(plain, zb);
    }

    #[test]
    fn oom_error_reports_device_and_sizes() {
        let hw = Hardware::rtx3090_cluster();
        let d = db(32);
        // Whole model on one device at mbs 32: OOM (Table IV precondition).
        let part = Partition::even(d.len(), 1);
        let err = check_memory(&part, &d, &one_f_one_b(1, 8), &hw).unwrap_err();
        assert!(err.required > err.budget);
        let msg = err.to_string();
        assert!(msg.contains("OOM"), "{msg}");
    }
}

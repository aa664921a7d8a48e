//! Dynamic memory tracking over an event-simulated timeline.
//!
//! The static model in [`crate::memcheck`] bounds per-device memory from
//! schedule-level in-flight formulas; this module *replays* the allocation
//! behaviour op by op — checkpoints appear when a micro-batch's forward
//! completes and disappear when its backward completes; the recompute
//! working set is live only while an op runs — and reports the true peak.
//! The static bound must dominate the dynamic peak (tested), which is what
//! makes it safe for planners to rely on.

use serde::{Deserialize, Serialize};

use autopipe_schedule::{recompute_mask, OpKind, Schedule};

use crate::event::EventResult;

/// Memory quanta of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageQuanta {
    /// Persistent parameter/optimiser state, bytes.
    pub param_state: u64,
    /// Stashed checkpoint bytes per in-flight micro-batch.
    pub ckpt_per_mb: u64,
    /// Stage *input* activation bytes — all a recomputing stage stashes per
    /// in-flight micro-batch (the first block's checkpoint).
    pub ckpt_input: u64,
    /// Transient working set while a compute op runs.
    pub working: u64,
}

/// Per-device dynamic peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DevicePeak {
    /// Device index.
    pub device: usize,
    /// Peak bytes observed over the timeline.
    pub peak: u64,
    /// Bytes at the end of the iteration (must equal the persistent state).
    pub residual: u64,
}

/// Replay allocations over a completed event simulation. Events are the
/// compute ops' start/end edges, processed in global time order (ties:
/// frees before allocations, so a back-to-back bwd→fwd pair doesn't
/// double-count).
pub fn dynamic_peaks(
    sched: &Schedule,
    result: &EventResult,
    quanta: &[StageQuanta],
) -> Vec<DevicePeak> {
    assert_eq!(quanta.len(), sched.n_stages());
    let p = sched.n_devices;
    // Stages flagged in the schedule stash only their input activation per
    // micro-batch; the Recompute op rematerialises the rest just before the
    // backward.
    let mask = recompute_mask(sched);
    let mut peaks = Vec::with_capacity(p);
    for d in 0..p {
        let persistent: u64 = (0..sched.n_chunks)
            .map(|c| quanta[sched.stage_of(d, c)].param_state)
            .sum();
        let mut edges: Vec<(f64, bool, i64)> = Vec::new();
        for r in result.timeline.device(d) {
            match r.op.kind {
                OpKind::Fwd { chunk, part, .. } => {
                    let stage = sched.stage_of(d, chunk);
                    let q = &quanta[stage];
                    // Working set lives for the op's duration.
                    edges.push((r.start, false, q.working as i64));
                    edges.push((r.end, true, -(q.working as i64)));
                    // The checkpoint materialises when the forward ends;
                    // halves stash half each. A recomputing stage stashes
                    // only its input activation.
                    let unit = if mask[stage] {
                        q.ckpt_input
                    } else {
                        q.ckpt_per_mb
                    };
                    let ckpt = (unit as f64 * part.frac()) as i64;
                    edges.push((r.end, false, ckpt));
                }
                OpKind::Recompute { chunk, .. } => {
                    let q = &quanta[sched.stage_of(d, chunk)];
                    edges.push((r.start, false, q.working as i64));
                    edges.push((r.end, true, -(q.working as i64)));
                    // The replay rematerialises the micro-batch's full
                    // checkpoint set on top of the stashed input; the
                    // following backward releases all of it.
                    edges.push((r.end, false, (q.ckpt_per_mb - q.ckpt_input) as i64));
                }
                OpKind::Bwd { chunk, .. } => {
                    let q = &quanta[sched.stage_of(d, chunk)];
                    edges.push((r.start, false, q.working as i64));
                    edges.push((r.end, true, -(q.working as i64)));
                    // Backward releases the micro-batch's checkpoint.
                    edges.push((r.end, true, -(q.ckpt_per_mb as i64)));
                }
                OpKind::BwdInput { chunk, .. } => {
                    // Grad-input needs the working set but keeps the
                    // checkpoint alive for the deferred grad-weight.
                    let q = &quanta[sched.stage_of(d, chunk)];
                    edges.push((r.start, false, q.working as i64));
                    edges.push((r.end, true, -(q.working as i64)));
                }
                OpKind::BwdWeight { chunk, .. } => {
                    let q = &quanta[sched.stage_of(d, chunk)];
                    edges.push((r.start, false, q.working as i64));
                    edges.push((r.end, true, -(q.working as i64)));
                    // The grad-weight is the last consumer of the stash.
                    edges.push((r.end, true, -(q.ckpt_per_mb as i64)));
                }
                _ => {}
            }
        }
        // Sort by time; frees before allocations at equal timestamps.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut cur = persistent as i64;
        let mut peak = cur;
        for (_, _, delta) in edges {
            cur += delta;
            peak = peak.max(cur);
        }
        peaks.push(DevicePeak {
            device: d,
            peak: peak.max(0) as u64,
            residual: cur.max(0) as u64,
        });
    }
    peaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{run_schedule, EventConfig, EventCosts};
    use crate::memcheck::device_memory;
    use crate::partition::Partition;
    use autopipe_cost::{CostDb, Hardware};
    use autopipe_model::{zoo, Granularity};
    use autopipe_schedule::{apply_recompute, gpipe, one_f_one_b, sliced_1f1b, zero_bubble};

    /// Compute per-stage memory quanta from a partition and cost database,
    /// using the same constants as the static model.
    fn stage_quanta(partition: &Partition, db: &CostDb) -> Vec<StageQuanta> {
        use autopipe_cost::memory::PARAM_STATE_BYTES;
        (0..partition.n_stages())
            .map(|s| {
                let blocks = &db.blocks[partition.range(s)];
                let params: u64 = blocks.iter().map(|b| b.params).sum();
                let ckpt: u64 = blocks.iter().map(|b| b.ckpt_act_bytes).sum();
                let max_body = blocks
                    .iter()
                    .filter(|c| c.kind.is_layer_body())
                    .map(|c| c.full_act_bytes)
                    .max()
                    .unwrap_or(0);
                let max_nonbody = blocks
                    .iter()
                    .filter(|c| !c.kind.is_layer_body())
                    .map(|c| c.full_act_bytes)
                    .max()
                    .unwrap_or(0);
                StageQuanta {
                    param_state: params * PARAM_STATE_BYTES,
                    ckpt_per_mb: ckpt,
                    ckpt_input: blocks.first().map(|b| b.ckpt_act_bytes).unwrap_or(0),
                    working: 2 * max_body + max_nonbody,
                }
            })
            .collect()
    }

    fn setup(p: usize, mbs: usize) -> (CostDb, Partition) {
        let hw = Hardware::rtx3090_cluster();
        let db = CostDb::build(&zoo::gpt2_345m(), &hw, mbs, true, Granularity::SubLayer);
        let part = Partition::even(db.len(), p);
        (db, part)
    }

    fn run(db: &CostDb, part: &Partition, sched: &Schedule) -> Vec<DevicePeak> {
        let sc = part.stage_costs(db);
        let ev = EventCosts::from_stage_costs(&sc, 30e-6);
        let result = run_schedule(sched, &ev, &EventConfig::default()).unwrap();
        dynamic_peaks(sched, &result, &stage_quanta(part, db))
    }

    #[test]
    fn residual_memory_is_persistent_state_only() {
        let (db, part) = setup(4, 8);
        let peaks = run(&db, &part, &one_f_one_b(4, 8));
        let quanta = stage_quanta(&part, &db);
        for pk in &peaks {
            assert_eq!(
                pk.residual, quanta[pk.device].param_state,
                "device {} leaked activations",
                pk.device
            );
        }
    }

    #[test]
    fn static_model_dominates_dynamic_peak() {
        // The planner's feasibility check may be conservative but never
        // optimistic: static estimate >= dynamic peak, for 1F1B, sliced and
        // GPipe schedules (the static model adds fragmentation headroom on
        // top, so the margin is comfortable).
        let (db, part) = setup(4, 8);
        for sched in [
            one_f_one_b(4, 8),
            sliced_1f1b(4, 8, 2),
            gpipe(4, 8),
            zero_bubble(4, 8),
        ] {
            let dynamic = run(&db, &part, &sched);
            let static_est = device_memory(&part, &db, &sched);
            for (dp, se) in dynamic.iter().zip(&static_est) {
                assert!(
                    se.total() >= dp.peak,
                    "{:?} device {}: static {} < dynamic {}",
                    sched.kind,
                    dp.device,
                    se.total(),
                    dp.peak
                );
            }
        }
    }

    #[test]
    fn earlier_stages_hold_more_checkpoints() {
        let (db, part) = setup(4, 8);
        let peaks = run(&db, &part, &one_f_one_b(4, 8));
        let quanta = stage_quanta(&part, &db);
        // Subtract persistent state and the (stage-specific) working set —
        // the last stage's LM-head logits dwarf everything — to compare
        // pure checkpoint pressure.
        let act =
            |pk: &DevicePeak| pk.peak - quanta[pk.device].param_state - quanta[pk.device].working;
        assert!(
            act(&peaks[0]) > act(&peaks[3]),
            "stage 0 should stash more than the last stage: {} vs {}",
            act(&peaks[0]),
            act(&peaks[3])
        );
    }

    #[test]
    fn gpipe_peaks_above_1f1b() {
        let (db, part) = setup(4, 8);
        let g = run(&db, &part, &gpipe(4, 8));
        let o = run(&db, &part, &one_f_one_b(4, 8));
        assert!(g[3].peak > o[3].peak, "{} vs {}", g[3].peak, o[3].peak);
    }

    #[test]
    fn recompute_cuts_the_peak_and_leaks_nothing() {
        let (db, part) = setup(4, 8);
        let plain = run(&db, &part, &one_f_one_b(4, 8));
        let mut sched = one_f_one_b(4, 8);
        apply_recompute(&mut sched, &[true; 4]);
        let rec = run(&db, &part, &sched);
        let quanta = stage_quanta(&part, &db);
        for pk in &rec {
            assert_eq!(
                pk.residual, quanta[pk.device].param_state,
                "device {} leaked activations under recompute",
                pk.device
            );
        }
        // Stage 0 stashes the most checkpoints, so trading them for a
        // single input stash must cut its dynamic peak.
        assert!(
            rec[0].peak < plain[0].peak,
            "recompute peak {} >= plain peak {}",
            rec[0].peak,
            plain[0].peak
        );
        // The static model must still dominate the dynamic replay.
        let static_est = device_memory(&part, &db, &sched);
        for (dp, se) in rec.iter().zip(&static_est) {
            assert!(
                se.total() >= dp.peak,
                "device {}: static {} < dynamic {}",
                dp.device,
                se.total(),
                dp.peak
            );
        }
    }

    #[test]
    fn slicing_does_not_raise_the_peak() {
        // "without introducing additional memory consumption" — dynamically
        // verified, not just via the static formula.
        let (db, part) = setup(4, 8);
        let plain = run(&db, &part, &one_f_one_b(4, 8));
        let sliced = run(&db, &part, &sliced_1f1b(4, 8, 2));
        for (a, b) in plain.iter().zip(&sliced) {
            assert!(
                b.peak <= a.peak,
                "device {}: sliced peak {} > plain {}",
                a.device,
                b.peak,
                a.peak
            );
        }
    }
}

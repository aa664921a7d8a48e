//! Device memory model.
//!
//! Every experiment in the paper runs with activation checkpointing "to
//! avoid Out-of-Memory (OOM) errors" (§IV-A), and several headline results
//! hinge on *which configurations OOM*: DAPPLE's 2-stage plan OOMs on GPT-2
//! 1.3B (Table IV), the interleaved schedule OOMs at large micro-batch sizes
//! (Fig. 14a), GPT-2 762M OOMs at micro-batch size 32 (Fig. 9), and at high
//! memory demand pure data parallelism is infeasible so every planner must
//! pipeline (Table IV). This module reproduces that OOM truth table with a
//! small set of calibrated constants; `tests::paper_oom_truth_table` locks
//! the behaviour.
//!
//! Per-device memory =
//!   `params · PARAM_STATE_BYTES`  (fp16 weight+grad, fp32 master + Adam m,v)
//! + `in_flight · Σ ckpt_act_bytes` (stashed checkpoints, §II-C)
//! + working set (largest layer-body recompute footprint + largest
//!   head/embedding footprint — logits dominate rear stages)
//! + boundary send/recv buffers,
//! with the activation terms inflated by a fragmentation multiplier
//! (allocator fragmentation + NCCL/workspace overhead).

use serde::Serialize;

use crate::costdb::BlockCost;
use crate::hardware::Hardware;

/// Bytes of persistent state per parameter under fp16 mixed-precision Adam:
/// fp16 weight (2) + fp32 main gradient (4) + fp32 master copy (4) + Adam
/// first and second moments (4+4).
pub const PARAM_STATE_BYTES: u64 = 18;

/// Fragmentation/overhead multiplier applied to activation memory for the
/// 1F1B schedule.
pub const ACT_FRAG_MULT: f64 = 1.35;

/// Fragmentation multiplier for the interleaved schedule: v× more chunk
/// allocations with interleaved lifetimes fragment the allocator harder and
/// keep v× boundary buffers alive. Calibrated so that the interleaved
/// schedule OOMs exactly where Fig. 14a reports it (GPT-2 345M, 4 stages,
/// micro-batch size 32) while plain 1F1B still fits.
pub const INTERLEAVED_FRAG_MULT: f64 = 1.8;

/// Itemised per-device memory usage in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MemoryBreakdown {
    /// Persistent parameter + optimiser state.
    pub param_state: u64,
    /// Stashed activation checkpoints for all in-flight micro-batches.
    pub checkpoints: u64,
    /// Transient recompute/backward working set.
    pub working: u64,
    /// Pipeline boundary send/recv buffers.
    pub buffers: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.param_state + self.checkpoints + self.working + self.buffers
    }

    /// Does this fit in the hardware's usable budget?
    pub fn fits(&self, hw: &Hardware) -> bool {
        self.total() <= hw.mem_budget()
    }
}

/// Number of micro-batches in flight (forward done, backward pending) at
/// `stage` of an `n_stages` 1F1B pipeline running `m` micro-batches.
/// Stage 0 holds up to `n_stages`, the last stage holds 1.
pub fn in_flight_1f1b(stage: usize, n_stages: usize, m: usize) -> usize {
    (n_stages - stage).min(m)
}

/// In-flight *chunk* forward passes on `device` of an interleaved pipeline
/// with `v` model chunks per device (Megatron-LM §IV): warmup issues
/// `2·(p−d−1) + (v−1)·p` chunk forwards before the first backward, plus the
/// chunk entering steady state.
pub fn in_flight_interleaved_chunks(device: usize, n_devices: usize, v: usize, m: usize) -> usize {
    let p = n_devices;
    let warmup = 2 * (p - device - 1) + (v - 1) * p + 1;
    warmup.min(m * v)
}

/// Memory used by a pipeline stage holding `costs` blocks, with `in_flight`
/// micro-batches stashed and `frag` fragmentation multiplier on activations.
/// `comm_bytes` is the boundary activation size (for send/recv buffers).
pub fn stage_memory(
    costs: &[BlockCost],
    comm_bytes: u64,
    in_flight: usize,
    frag: f64,
) -> MemoryBreakdown {
    stage_memory_frac(costs, comm_bytes, in_flight as f64, frag, false)
}

/// Transient recompute/backward working set of a stage: the layer-body
/// working set doubles for the gradient of the live activation during
/// recompute; the LM-head logits (B·s·V) get their gradient computed in
/// place by the fused softmax-cross-entropy, so the non-body term is
/// charged once.
pub fn working_set(costs: &[BlockCost]) -> u64 {
    let max_body = costs
        .iter()
        .filter(|c| c.kind.is_layer_body())
        .map(|c| c.full_act_bytes)
        .max()
        .unwrap_or(0);
    let max_nonbody = costs
        .iter()
        .filter(|c| !c.kind.is_layer_body())
        .map(|c| c.full_act_bytes)
        .max()
        .unwrap_or(0);
    2 * max_body + max_nonbody
}

/// The general stage-memory model behind [`stage_memory`]: fractional
/// in-flight counts (sliced schedules keep half micro-batches live, so the
/// peak-liveness replay can land on `n + ½`) and stage-level recomputation.
///
/// With `recompute`, the stage stashes only its *input* activation per
/// in-flight micro-batch (the schedule's `Recompute` op replays the forward
/// from it), but during one micro-batch's backward the replay has
/// rematerialised that micro-batch's full per-block checkpoint set — charged
/// to the working term. Exactly [`stage_memory`] when `recompute` is off and
/// `in_flight` is integral.
pub fn stage_memory_frac(
    costs: &[BlockCost],
    comm_bytes: u64,
    in_flight: f64,
    frag: f64,
    recompute: bool,
) -> MemoryBreakdown {
    let params: u64 = costs.iter().map(|c| c.params).sum();
    let ckpt_per_mb: u64 = costs.iter().map(|c| c.ckpt_act_bytes).sum();
    let (ckpt_unit, remat) = if recompute {
        // The stage input is the first block's input activation.
        let input = costs.first().map(|c| c.ckpt_act_bytes).unwrap_or(0);
        (input, ckpt_per_mb)
    } else {
        (ckpt_per_mb, 0)
    };
    let working = working_set(costs) + remat;
    MemoryBreakdown {
        param_state: params * PARAM_STATE_BYTES,
        checkpoints: (in_flight * ckpt_unit as f64 * frag) as u64,
        working: (working as f64 * frag) as u64,
        buffers: 4 * comm_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costdb::CostDb;
    use autopipe_model::{zoo, Granularity, ModelConfig};

    /// Split a cost DB's blocks into `n` contiguous stages balanced by work —
    /// a crude stand-in for the planner, good enough for memory checks.
    fn stages(db: &CostDb, n: usize) -> Vec<Vec<BlockCost>> {
        let total: f64 = db.blocks.iter().map(|b| b.work()).sum();
        let target = total / n as f64;
        let mut out: Vec<Vec<BlockCost>> = vec![Vec::new()];
        let mut acc = 0.0;
        for b in &db.blocks {
            if acc >= target && out.len() < n {
                out.push(Vec::new());
                acc = 0.0;
            }
            acc += b.work();
            out.last_mut().unwrap().push(b.clone());
        }
        while out.len() < n {
            out.push(Vec::new());
        }
        out
    }

    fn peak_stage_mem(cfg: &ModelConfig, mbs: usize, n_stages: usize, m: usize) -> u64 {
        let hw = Hardware::rtx3090_cluster();
        let db = CostDb::build(cfg, &hw, mbs, true, Granularity::SubLayer);
        stages(&db, n_stages)
            .iter()
            .enumerate()
            .map(|(k, s)| {
                stage_memory(
                    s,
                    db.comm_bytes,
                    in_flight_1f1b(k, n_stages, m),
                    ACT_FRAG_MULT,
                )
                .total()
            })
            .max()
            .unwrap()
    }

    /// Lock the paper's OOM truth table (see module docs).
    #[test]
    fn paper_oom_truth_table() {
        let hw = Hardware::rtx3090_cluster();
        let budget = hw.mem_budget();
        // Pure DP on GPT-2 345M: fits at mbs 4 (Table III), OOMs at mbs 32
        // (Table IV forces pipelining).
        assert!(peak_stage_mem(&zoo::gpt2_345m(), 4, 1, 8) <= budget);
        assert!(peak_stage_mem(&zoo::gpt2_345m(), 32, 1, 8) > budget);
        // GPT-2 345M mbs 32: 2-stage and 4-stage pipelines fit (Table IV,
        // Figs 9/14).
        assert!(peak_stage_mem(&zoo::gpt2_345m(), 32, 2, 8) <= budget);
        assert!(peak_stage_mem(&zoo::gpt2_345m(), 32, 4, 8) <= budget);
        // GPT-2 762M OOMs at mbs 32 on a 4-stage pipeline, fits at 24
        // (Fig. 9 caption).
        assert!(peak_stage_mem(&zoo::gpt2_762m(), 32, 4, 8) > budget);
        assert!(peak_stage_mem(&zoo::gpt2_762m(), 24, 4, 8) <= budget);
        // GPT-2 1.3B mbs 16: 2-stage (DAPPLE's choice) OOMs, 4-stage fits
        // (Table IV).
        assert!(peak_stage_mem(&zoo::gpt2_1_3b(), 16, 2, 8) > budget);
        assert!(peak_stage_mem(&zoo::gpt2_1_3b(), 16, 4, 8) <= budget);
        // BERT-large is comfortable at mbs 16 on 4 stages (Fig. 9).
        assert!(peak_stage_mem(&zoo::bert_large(), 16, 4, 8) <= budget);
    }

    #[test]
    fn in_flight_shrinks_toward_last_stage() {
        for n in 1..8 {
            for k in 1..n {
                assert!(in_flight_1f1b(k, n, 16) <= in_flight_1f1b(k - 1, n, 16));
            }
            assert_eq!(in_flight_1f1b(n - 1, n, 16), 1);
        }
    }

    #[test]
    fn interleaved_holds_more_than_1f1b() {
        // At equal depth, the interleaved schedule keeps more activation
        // state alive on every device (the paper's stated OOM cause).
        let p = 4;
        let v = 2;
        for d in 0..p {
            let chunks = in_flight_interleaved_chunks(d, p, v, 16);
            // chunk activations are 1/v of a stage's: compare stage-equivalents
            let stage_equiv = chunks as f64 / v as f64;
            assert!(stage_equiv >= in_flight_1f1b(d, p, 16) as f64);
        }
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let hw = Hardware::rtx3090_cluster();
        let db = CostDb::build(&zoo::gpt2_345m(), &hw, 8, true, Granularity::SubLayer);
        let bd = stage_memory(&db.blocks, db.comm_bytes, 2, ACT_FRAG_MULT);
        assert_eq!(
            bd.total(),
            bd.param_state + bd.checkpoints + bd.working + bd.buffers
        );
    }

    #[test]
    fn memory_monotone_in_in_flight() {
        let hw = Hardware::rtx3090_cluster();
        let db = CostDb::build(&zoo::gpt2_345m(), &hw, 8, true, Granularity::SubLayer);
        let mut prev = 0;
        for in_flight in 1..6 {
            let t = stage_memory(&db.blocks, db.comm_bytes, in_flight, ACT_FRAG_MULT).total();
            assert!(t > prev);
            prev = t;
        }
    }
}

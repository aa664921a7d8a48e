//! Per-block cost database — the "runtime statistics" half of the model
//! configs consumed by the Planner (Fig. 2).

use serde::Serialize;

use autopipe_model::{build_blocks, Block, BlockKind, Granularity, ModelConfig};

use crate::flops;
use crate::hardware::Hardware;

/// Everything the planner/simulator needs to know about one block.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BlockCost {
    /// Block kind (kept for memory modelling and reporting).
    pub kind: BlockKind,
    /// Forward time for one micro-batch, seconds.
    pub fwd: f64,
    /// Backward time for one micro-batch, seconds: the backward alone. A
    /// checkpointed stage's re-forward is the schedule's `Recompute` op.
    pub bwd: f64,
    /// Parameters held by the block.
    pub params: u64,
    /// Bytes stashed per in-flight micro-batch under activation
    /// checkpointing (the block's input activation).
    pub ckpt_act_bytes: u64,
    /// Bytes of *all* intermediate activations of the block for one
    /// micro-batch — the transient working set during (re)computation.
    pub full_act_bytes: u64,
    /// Transformer-layer-equivalents for Table-II-style reporting
    /// (1 for a whole layer, 0.5 for a sub-layer block, 0 otherwise).
    pub layer_weight: f64,
}

impl BlockCost {
    /// Combined forward+backward time — the weight Algorithm 1 partitions.
    pub fn work(&self) -> f64 {
        self.fwd + self.bwd
    }
}

/// Cost database for one (model, hardware, micro-batch size) combination.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostDb {
    /// Model name, for reports.
    pub model: String,
    /// Per-block costs, aligned with `autopipe_model::build_blocks` output.
    pub blocks: Vec<BlockCost>,
    /// Time to ship one stage-boundary activation (one direction), seconds.
    pub comm: f64,
    /// Size of a stage-boundary activation in bytes.
    pub comm_bytes: u64,
    /// Micro-batch size these costs were computed for.
    pub mbs: usize,
    /// Whether activation checkpointing is on (it is in every paper
    /// experiment, to avoid OOM). It changes no block cost: the planner
    /// lowers it to `Recompute` ops on every stage.
    pub checkpointing: bool,
    /// Planning granularity the block sequence was lowered at.
    pub granularity: Granularity,
    /// Prefix sums over `blocks` (entry `i` = sum over `blocks[..i]`,
    /// `len() + 1` entries each) so planners extract per-stage aggregates in
    /// O(1) per stage instead of rescanning blocks per candidate scheme.
    /// Derived data: anyone mutating `blocks` must call
    /// [`CostDb::recompute_prefixes`] afterwards.
    pub fwd_prefix: Vec<f64>,
    /// Prefix sums of `BlockCost::bwd`.
    pub bwd_prefix: Vec<f64>,
    /// Prefix sums of `BlockCost::params`.
    pub params_prefix: Vec<u64>,
    /// Prefix sums of `BlockCost::layer_weight`.
    pub layer_prefix: Vec<f64>,
    /// Per-device compute-time multipliers for heterogeneous clusters
    /// (entry `d` scales device `d`'s stage compute; empty = homogeneous).
    /// Stage→device mapping is round-robin (`stage % n_devices`), which is
    /// the identity for single-chunk schedule families. Consumed by the
    /// planner's balance objective and folded into `PlanService`
    /// fingerprints so heterogeneous requests never alias cached
    /// homogeneous plans.
    pub device_multipliers: Vec<f64>,
}

impl CostDb {
    /// Build the analytic cost database.
    pub fn build(
        cfg: &ModelConfig,
        hw: &Hardware,
        mbs: usize,
        checkpointing: bool,
        granularity: Granularity,
    ) -> CostDb {
        let blocks = build_blocks(cfg, granularity);
        let costs = blocks
            .iter()
            .map(|b| Self::block_cost(cfg, hw, b, mbs))
            .collect();
        let comm_bytes = cfg.boundary_activation_elems(mbs) * hw.elem_bytes;
        let mut db = CostDb {
            model: cfg.name.clone(),
            blocks: costs,
            comm: hw.transfer_time(comm_bytes),
            comm_bytes,
            mbs,
            checkpointing,
            granularity,
            fwd_prefix: Vec::new(),
            bwd_prefix: Vec::new(),
            params_prefix: Vec::new(),
            layer_prefix: Vec::new(),
            device_multipliers: Vec::new(),
        };
        db.recompute_prefixes();
        db
    }

    /// Attach per-device throughput multipliers: device `d`'s compute runs
    /// `multipliers[d]`× the modelled time (1.0 = baseline, 2.0 = half
    /// speed). An all-1.0 profile is normalised back to
    /// empty so a uniform heterogeneous request fingerprints identically to
    /// (and shares cached plans with) the plain homogeneous request.
    pub fn with_device_multipliers(mut self, multipliers: &[f64]) -> CostDb {
        if multipliers.iter().all(|&m| m == 1.0) {
            self.device_multipliers.clear();
        } else {
            self.device_multipliers = multipliers.to_vec();
        }
        self
    }

    /// Compute-time multiplier for `device` (1.0 when homogeneous). Devices
    /// beyond the profile wrap round-robin, matching the stage→device
    /// assignment of interleaved families.
    pub fn device_multiplier(&self, device: usize) -> f64 {
        if self.device_multipliers.is_empty() {
            1.0
        } else {
            self.device_multipliers[device % self.device_multipliers.len()]
        }
    }

    /// True when any device runs off-baseline — the planner's cue to charge
    /// stages device-aware costs.
    pub fn is_heterogeneous(&self) -> bool {
        !self.device_multipliers.is_empty()
    }

    /// Rebuild the prefix-sum tables from `blocks`. Must be called after any
    /// in-place mutation of the block costs (e.g. the synthetic profiler).
    pub fn recompute_prefixes(&mut self) {
        let k = self.blocks.len();
        self.fwd_prefix.clear();
        self.fwd_prefix.reserve(k + 1);
        self.bwd_prefix.clear();
        self.bwd_prefix.reserve(k + 1);
        self.params_prefix.clear();
        self.params_prefix.reserve(k + 1);
        self.layer_prefix.clear();
        self.layer_prefix.reserve(k + 1);
        let (mut f, mut b, mut p, mut l) = (0.0_f64, 0.0_f64, 0u64, 0.0_f64);
        self.fwd_prefix.push(f);
        self.bwd_prefix.push(b);
        self.params_prefix.push(p);
        self.layer_prefix.push(l);
        for c in &self.blocks {
            f += c.fwd;
            b += c.bwd;
            p += c.params;
            l += c.layer_weight;
            self.fwd_prefix.push(f);
            self.bwd_prefix.push(b);
            self.params_prefix.push(p);
            self.layer_prefix.push(l);
        }
    }

    fn block_cost(cfg: &ModelConfig, hw: &Hardware, block: &Block, mbs: usize) -> BlockCost {
        let fwd_flops = flops::block_fwd_flops(cfg, block, mbs);
        let fwd = hw.compute_time(fwd_flops);
        let bwd = fwd * flops::BWD_MULTIPLIER;
        let b = mbs as u64;
        let s = cfg.seq_len as u64;
        let h = cfg.hidden_size as u64;
        let nh = cfg.num_heads as u64;
        let v = cfg.vocab_size as u64;
        let m = cfg.ffn_mult as u64;
        let eb = hw.elem_bytes;
        let bsh = b * s * h;
        let (ckpt_elems, full_elems) = match block.kind {
            // Embedding input is token ids (4-byte ints), handled below.
            BlockKind::Embedding => (0, bsh),
            BlockKind::Attention => (bsh, 5 * bsh + 2 * b * nh * s * s),
            BlockKind::Ffn => (bsh, (2 * m + 1) * bsh),
            BlockKind::TransformerLayer => (bsh, (5 + 2 * m + 1) * bsh + 2 * b * nh * s * s),
            BlockKind::FinalLayerNorm => (bsh, bsh),
            BlockKind::LmHead => (bsh, b * s * v + bsh),
            BlockKind::Pooler => (bsh, b * h),
        };
        let ckpt_act_bytes = if block.kind == BlockKind::Embedding {
            b * s * 4 // token ids
        } else {
            ckpt_elems * eb
        };
        BlockCost {
            kind: block.kind,
            fwd,
            bwd,
            params: block.params,
            ckpt_act_bytes,
            full_act_bytes: full_elems * eb,
            layer_weight: block.layer_weight(),
        }
    }

    /// Forward time of one micro-batch through blocks `r`, O(1).
    #[inline]
    pub fn range_fwd(&self, r: std::ops::Range<usize>) -> f64 {
        debug_assert_eq!(
            self.fwd_prefix.len(),
            self.blocks.len() + 1,
            "stale prefixes"
        );
        self.fwd_prefix[r.end] - self.fwd_prefix[r.start]
    }

    /// Backward time of one micro-batch through blocks `r`, O(1).
    #[inline]
    pub fn range_bwd(&self, r: std::ops::Range<usize>) -> f64 {
        self.bwd_prefix[r.end] - self.bwd_prefix[r.start]
    }

    /// Parameters held by blocks `r`, O(1).
    #[inline]
    pub fn range_params(&self, r: std::ops::Range<usize>) -> u64 {
        self.params_prefix[r.end] - self.params_prefix[r.start]
    }

    /// Transformer-layer-equivalents of blocks `r`, O(1). Exact because
    /// layer weights are dyadic (0, 0.5 or 1).
    #[inline]
    pub fn range_layers(&self, r: std::ops::Range<usize>) -> f64 {
        self.layer_prefix[r.end] - self.layer_prefix[r.start]
    }

    /// Total forward time of one micro-batch through the whole model — the
    /// paper's estimate of the Warmup phase overhead (§III-B.1).
    pub fn total_fwd(&self) -> f64 {
        self.blocks.iter().map(|b| b.fwd).sum()
    }

    /// Total forward+backward time of one micro-batch through the model.
    pub fn total_work(&self) -> f64 {
        self.blocks.iter().map(|b| b.work()).sum()
    }

    /// Total parameters across all blocks.
    pub fn total_params(&self) -> u64 {
        self.blocks.iter().map(|b| b.params).sum()
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the database holds no blocks (never happens for real
    /// models; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::zoo;

    fn db(mbs: usize, ckpt: bool, g: Granularity) -> CostDb {
        CostDb::build(
            &zoo::gpt2_345m(),
            &Hardware::rtx3090_cluster(),
            mbs,
            ckpt,
            g,
        )
    }

    #[test]
    fn costs_align_with_block_sequence() {
        let cfg = zoo::gpt2_345m();
        let blocks = build_blocks(&cfg, Granularity::SubLayer);
        let d = db(4, true, Granularity::SubLayer);
        assert_eq!(d.len(), blocks.len());
        for (b, c) in blocks.iter().zip(&d.blocks) {
            assert_eq!(b.kind, c.kind);
            assert_eq!(b.params, c.params);
        }
    }

    #[test]
    fn checkpointing_changes_no_block_cost() {
        // The re-forward is a schedule op, not a backward surcharge.
        let with = db(4, true, Granularity::SubLayer);
        let without = db(4, false, Granularity::SubLayer);
        assert_eq!(with.blocks, without.blocks);
        for b in &with.blocks {
            assert_eq!(b.bwd, 2.0 * b.fwd);
        }
    }

    #[test]
    fn layer_granularity_totals_match_sublayer_totals() {
        let layer = db(4, true, Granularity::Layer);
        let sub = db(4, true, Granularity::SubLayer);
        assert!((layer.total_work() - sub.total_work()).abs() < 1e-9);
        assert_eq!(layer.total_params(), sub.total_params());
    }

    #[test]
    fn comm_is_small_relative_to_layer_compute() {
        // §II-B: boundary tensors are "too tiny to saturate the network";
        // a single transfer must be far cheaper than a layer's compute.
        let d = db(4, true, Granularity::SubLayer);
        let layer_work = d
            .blocks
            .iter()
            .find(|b| b.kind == BlockKind::Ffn)
            .unwrap()
            .work();
        assert!(d.comm < layer_work);
    }

    #[test]
    fn comm_bytes_scale_with_mbs() {
        assert_eq!(
            db(8, true, Granularity::SubLayer).comm_bytes,
            2 * db(4, true, Granularity::SubLayer).comm_bytes
        );
    }

    #[test]
    fn prefix_sums_match_block_scans() {
        let d = db(4, true, Granularity::SubLayer);
        assert_eq!(d.fwd_prefix.len(), d.len() + 1);
        for (lo, hi) in [(0, d.len()), (3, 17), (10, 11), (5, 5)] {
            let fwd: f64 = d.blocks[lo..hi].iter().map(|b| b.fwd).sum();
            let bwd: f64 = d.blocks[lo..hi].iter().map(|b| b.bwd).sum();
            let params: u64 = d.blocks[lo..hi].iter().map(|b| b.params).sum();
            assert!((d.range_fwd(lo..hi) - fwd).abs() < 1e-12);
            assert!((d.range_bwd(lo..hi) - bwd).abs() < 1e-12);
            assert_eq!(d.range_params(lo..hi), params);
        }
    }

    #[test]
    fn recompute_prefixes_tracks_mutation() {
        let mut d = db(4, true, Granularity::SubLayer);
        d.blocks[0].fwd += 1.0;
        d.recompute_prefixes();
        let fwd: f64 = d.blocks.iter().map(|b| b.fwd).sum();
        assert!((d.range_fwd(0..d.len()) - fwd).abs() < 1e-12);
    }

    #[test]
    fn warmup_estimate_is_total_forward() {
        let d = db(4, true, Granularity::SubLayer);
        let manual: f64 = d.blocks.iter().map(|b| b.fwd).sum();
        assert_eq!(d.total_fwd(), manual);
    }
}

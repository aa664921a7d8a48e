//! Analytic FLOP counts per block.
//!
//! Conventions: a matmul of `[m,k]×[k,n]` costs `2·m·k·n` FLOPs; backward
//! through a matmul costs twice the forward (one GEMM for the input gradient,
//! one for the weight gradient). `B` is the micro-batch size, `s` the
//! sequence length, `h` the hidden size, `V` the vocabulary, `nh` the number
//! of heads, `m` the FFN expansion factor.

use autopipe_model::{Block, BlockKind, ModelConfig};

/// Forward FLOPs of the attention sub-layer block for micro-batch size `mbs`:
/// QKV projection (`3·2Bsh²`), attention scores and context (`2·2Bs²h`),
/// output projection (`2Bsh²`), plus small layer-norm/residual terms.
pub(crate) fn attention_fwd_flops(cfg: &ModelConfig, mbs: usize) -> f64 {
    let b = mbs as f64;
    let s = cfg.seq_len as f64;
    let h = cfg.hidden_size as f64;
    8.0 * b * s * h * h + 4.0 * b * s * s * h + 10.0 * b * s * h
}

/// Forward FLOPs of the FFN sub-layer block: `h → m·h → h` projections plus
/// GELU and layer-norm/residual terms.
pub(crate) fn ffn_fwd_flops(cfg: &ModelConfig, mbs: usize) -> f64 {
    let b = mbs as f64;
    let s = cfg.seq_len as f64;
    let h = cfg.hidden_size as f64;
    let m = cfg.ffn_mult as f64;
    2.0 * 2.0 * m * b * s * h * h + (8.0 * m + 10.0) * b * s * h
}

/// Forward FLOPs of the embedding block: table lookup + positional add.
/// Parameter-heavy but compute-trivial — the paper's motivating imbalance.
pub(crate) fn embedding_fwd_flops(cfg: &ModelConfig, mbs: usize) -> f64 {
    let b = mbs as f64;
    let s = cfg.seq_len as f64;
    let h = cfg.hidden_size as f64;
    2.0 * b * s * h
}

/// Forward FLOPs of the LM head: logits projection (`2BshV`) plus fused
/// softmax/cross-entropy (`≈5BsV`). Compute-heavy — the rear imbalance.
pub(crate) fn lm_head_fwd_flops(cfg: &ModelConfig, mbs: usize) -> f64 {
    let b = mbs as f64;
    let s = cfg.seq_len as f64;
    let h = cfg.hidden_size as f64;
    let v = cfg.vocab_size as f64;
    2.0 * b * s * h * v + 5.0 * b * s * v
}

/// Forward FLOPs of a final layer-norm.
pub(crate) fn final_ln_fwd_flops(cfg: &ModelConfig, mbs: usize) -> f64 {
    let b = mbs as f64;
    8.0 * b * cfg.seq_len as f64 * cfg.hidden_size as f64
}

/// Forward FLOPs of the BERT pooler + NSP classifier (first-token dense).
pub(crate) fn pooler_fwd_flops(cfg: &ModelConfig, mbs: usize) -> f64 {
    let b = mbs as f64;
    let h = cfg.hidden_size as f64;
    2.0 * b * h * h
}

/// Forward FLOPs of any block kind.
pub(crate) fn block_fwd_flops(cfg: &ModelConfig, block: &Block, mbs: usize) -> f64 {
    match block.kind {
        BlockKind::Embedding => embedding_fwd_flops(cfg, mbs),
        BlockKind::Attention => attention_fwd_flops(cfg, mbs),
        BlockKind::Ffn => ffn_fwd_flops(cfg, mbs),
        BlockKind::TransformerLayer => attention_fwd_flops(cfg, mbs) + ffn_fwd_flops(cfg, mbs),
        BlockKind::FinalLayerNorm => final_ln_fwd_flops(cfg, mbs),
        BlockKind::LmHead => lm_head_fwd_flops(cfg, mbs),
        BlockKind::Pooler => pooler_fwd_flops(cfg, mbs),
    }
}

/// Backward-to-forward FLOP ratio of every block: backward through a chain
/// of matmuls is 2× forward. An activation-checkpointing re-forward is not
/// part of it; the schedule prices it as its own `Recompute` op.
pub(crate) const BWD_MULTIPLIER: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::zoo;

    #[test]
    fn ffn_is_heavier_than_attention_at_default_seq() {
        // For h=1024, s=1024: FFN 16Bsh^2 vs attention 8Bsh^2 + 4Bs^2h =
        // 12Bsh^2 equivalents. FFN wins; the two sub-layer halves are
        // intentionally unequal.
        let cfg = zoo::gpt2_345m();
        assert!(ffn_fwd_flops(&cfg, 4) > attention_fwd_flops(&cfg, 4));
    }

    #[test]
    fn lm_head_is_several_layers_worth() {
        let cfg = zoo::gpt2_345m();
        let layer = attention_fwd_flops(&cfg, 4) + ffn_fwd_flops(&cfg, 4);
        let head = lm_head_fwd_flops(&cfg, 4);
        let ratio = head / layer;
        assert!(
            (2.0..6.0).contains(&ratio),
            "LM head should cost a few transformer layers, got {ratio:.2}x"
        );
    }

    #[test]
    fn embedding_compute_is_negligible() {
        let cfg = zoo::gpt2_345m();
        let layer = attention_fwd_flops(&cfg, 4) + ffn_fwd_flops(&cfg, 4);
        assert!(embedding_fwd_flops(&cfg, 4) < layer / 100.0);
    }

    #[test]
    fn flops_scale_linearly_with_microbatch_size() {
        let cfg = zoo::gpt2_345m();
        for f in [
            attention_fwd_flops,
            ffn_fwd_flops,
            embedding_fwd_flops,
            lm_head_fwd_flops,
        ] {
            let one = f(&cfg, 1);
            let eight = f(&cfg, 8);
            assert!((eight / one - 8.0).abs() < 1e-9);
        }
    }
}

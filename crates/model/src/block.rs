//! The planning unit: blocks and block sequences.

use serde::Serialize;

use crate::config::{ModelConfig, ModelFamily};

/// Index of a block within a model's block sequence.
pub type BlockId = usize;

/// The granularity at which a model is lowered to blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Granularity {
    /// One block per transformer layer (what DAPPLE/Piper/Megatron plan on).
    Layer,
    /// Two blocks per transformer layer — `ResidualAttentionBlock` +
    /// `ResidualFFNBlock` (Fig. 3). Doubles the partition search space with
    /// zero extra communication volume.
    SubLayer,
}

/// What computation a block performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BlockKind {
    /// Token + positional embedding lookup. Parameter-heavy, compute-light —
    /// the canonical source of stage imbalance the paper motivates with.
    Embedding,
    /// A whole transformer layer (layer granularity only).
    TransformerLayer,
    /// `ResidualAttentionBlock`: layer-norm → self-attention → residual add.
    Attention,
    /// `ResidualFFNBlock`: layer-norm → FFN (h → 4h → h) → residual add.
    Ffn,
    /// Final layer-norm before the head (GPT-2).
    FinalLayerNorm,
    /// Vocabulary projection + loss. Compute-heavy (`2·B·s·h·V` FLOPs),
    /// parameter-light when weight-tied — the rear-stage imbalance source.
    LmHead,
    /// BERT pooler + NSP classifier. Tiny.
    Pooler,
}

impl BlockKind {
    /// True for blocks that belong to a transformer layer body (and thus
    /// exist in multiples of the layer count).
    pub fn is_layer_body(self) -> bool {
        matches!(
            self,
            BlockKind::TransformerLayer | BlockKind::Attention | BlockKind::Ffn
        )
    }
}

/// One schedulable block of a lowered model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Block {
    /// Position in the model's block sequence.
    pub id: BlockId,
    /// Computation kind.
    pub kind: BlockKind,
    /// For layer-body blocks, the index of the transformer layer they came
    /// from; `None` for embedding/head blocks.
    pub layer_index: Option<usize>,
    /// Number of parameters held by this block.
    pub params: u64,
}

impl Block {
    /// How many transformer-layer-equivalents this block counts as when a
    /// partition is reported in "number of layers per stage" (Table II uses
    /// `.5` for a lone sub-layer block). Non-layer blocks count 0.
    pub fn layer_weight(&self) -> f64 {
        match self.kind {
            BlockKind::TransformerLayer => 1.0,
            BlockKind::Attention | BlockKind::Ffn => 0.5,
            _ => 0.0,
        }
    }
}

/// Lower a [`ModelConfig`] to its block sequence at the given granularity.
///
/// The sequence is always: embedding, layer bodies in order, then the head
/// blocks (final layer-norm + LM head for GPT-2; LM head + pooler for BERT —
/// BERT's MLM head includes its own norm so no separate `FinalLayerNorm`).
pub fn build_blocks(cfg: &ModelConfig, granularity: Granularity) -> Vec<Block> {
    let mut blocks = Vec::with_capacity(2 * cfg.num_layers + 3);
    let push = |kind: BlockKind, layer_index: Option<usize>, params: u64, v: &mut Vec<Block>| {
        let id = v.len();
        v.push(Block {
            id,
            kind,
            layer_index,
            params,
        });
    };

    push(
        BlockKind::Embedding,
        None,
        cfg.embedding_params(),
        &mut blocks,
    );
    for layer in 0..cfg.num_layers {
        match granularity {
            Granularity::Layer => push(
                BlockKind::TransformerLayer,
                Some(layer),
                cfg.layer_params(),
                &mut blocks,
            ),
            Granularity::SubLayer => {
                push(
                    BlockKind::Attention,
                    Some(layer),
                    cfg.attn_params(),
                    &mut blocks,
                );
                push(BlockKind::Ffn, Some(layer), cfg.ffn_params(), &mut blocks);
            }
        }
    }
    match cfg.family {
        ModelFamily::Gpt2 => {
            push(
                BlockKind::FinalLayerNorm,
                None,
                cfg.head_params(),
                &mut blocks,
            );
            // GPT-2's LM head is weight-tied with the token embedding, so it
            // owns no parameters of its own — only compute.
            push(BlockKind::LmHead, None, 0, &mut blocks);
        }
        ModelFamily::Bert => {
            push(BlockKind::LmHead, None, cfg.head_params(), &mut blocks);
            push(
                BlockKind::Pooler,
                None,
                (cfg.hidden_size as u64) * (cfg.hidden_size as u64) + 2 * cfg.hidden_size as u64,
                &mut blocks,
            );
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn block_ids_are_sequential() {
        for cfg in zoo::benchmark_models() {
            for g in [Granularity::Layer, Granularity::SubLayer] {
                let blocks = build_blocks(&cfg, g);
                for (i, b) in blocks.iter().enumerate() {
                    assert_eq!(b.id, i);
                }
            }
        }
    }

    #[test]
    fn block_params_sum_to_model_total() {
        for cfg in zoo::benchmark_models() {
            for g in [Granularity::Layer, Granularity::SubLayer] {
                let blocks = build_blocks(&cfg, g);
                let sum: u64 = blocks.iter().map(|b| b.params).sum();
                // Pooler params exist only in the lowered form for BERT; the
                // config-level total ignores them, so allow that small delta.
                let pooler: u64 = blocks
                    .iter()
                    .filter(|b| b.kind == BlockKind::Pooler)
                    .map(|b| b.params)
                    .sum();
                assert_eq!(sum - pooler, cfg.total_params());
            }
        }
    }

    #[test]
    fn sublayer_blocks_alternate_attention_ffn() {
        let cfg = zoo::gpt2_345m();
        let blocks = build_blocks(&cfg, Granularity::SubLayer);
        let body: Vec<_> = blocks.iter().filter(|b| b.kind.is_layer_body()).collect();
        for (i, b) in body.iter().enumerate() {
            let want = if i % 2 == 0 {
                BlockKind::Attention
            } else {
                BlockKind::Ffn
            };
            assert_eq!(b.kind, want, "body block {i}");
            assert_eq!(b.layer_index, Some(i / 2));
        }
    }

    #[test]
    fn layer_weight_counts_whole_model() {
        let cfg = zoo::gpt2_345m();
        for g in [Granularity::Layer, Granularity::SubLayer] {
            let blocks = build_blocks(&cfg, g);
            let layers: f64 = blocks.iter().map(|b| b.layer_weight()).sum();
            assert_eq!(layers, cfg.num_layers as f64);
        }
    }

    #[test]
    fn gpt2_ends_with_lm_head_and_bert_with_pooler() {
        let g = build_blocks(&zoo::gpt2_345m(), Granularity::SubLayer);
        assert_eq!(g.last().unwrap().kind, BlockKind::LmHead);
        let b = build_blocks(&zoo::bert_large(), Granularity::SubLayer);
        assert_eq!(b.last().unwrap().kind, BlockKind::Pooler);
    }
}

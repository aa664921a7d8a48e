//! Architectural description of a benchmark model.

use serde::Serialize;

/// Which family of transformer the model belongs to. The two families differ
/// in their head blocks: GPT-2 ends in a final layer-norm plus a (weight-tied)
/// language-model head projecting to the vocabulary; BERT pre-training ends in
/// an MLM head (dense + layer-norm + vocab projection) and a small pooler for
/// the NSP objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ModelFamily {
    /// Decoder-only causal LM (GPT-2 variants in Table I).
    Gpt2,
    /// Encoder-only MLM+NSP pre-training (BERT-large in Table I).
    Bert,
}

/// Architectural hyper-parameters of a transformer benchmark model.
///
/// These are the "model configs" of Fig. 2: everything the Planner needs to
/// know about the network before profiling attaches runtime statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"GPT-2 345M"`.
    pub name: String,
    /// Model family (decides head blocks).
    pub family: ModelFamily,
    /// Number of transformer layers (Table I "# layers").
    pub num_layers: usize,
    /// Hidden dimension (Table I "Hidden size").
    pub hidden_size: usize,
    /// Number of attention heads. Only affects reshapes, not cost totals,
    /// but kept for completeness and for the runtime substrate.
    pub num_heads: usize,
    /// Sequence length used for training (1024 for GPT-2 in Megatron-LM's
    /// default recipe, 512 for BERT).
    pub seq_len: usize,
    /// Vocabulary size (50257 GPT-2 BPE, 30522 BERT WordPiece).
    pub vocab_size: usize,
    /// FFN expansion factor (4 for both families).
    pub ffn_mult: usize,
}

impl ModelConfig {
    /// Parameters of one transformer layer: QKV (`3h²+3h`), attention output
    /// projection (`h²+h`), two layer-norms (`4h`), FFN up (`h·4h + 4h`) and
    /// down (`4h·h + h`) projections.
    pub(crate) fn layer_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        let m = self.ffn_mult as u64;
        let attn = 4 * h * h + 4 * h + 2 * h;
        let ffn = 2 * m * h * h + (m + 1) * h + 2 * h;
        attn + ffn
    }

    /// Parameters of the attention sub-layer block (includes its leading
    /// layer-norm).
    pub(crate) fn attn_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        4 * h * h + 4 * h + 2 * h
    }

    /// Parameters of the FFN sub-layer block (includes its leading
    /// layer-norm).
    pub(crate) fn ffn_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        let m = self.ffn_mult as u64;
        2 * m * h * h + (m + 1) * h + 2 * h
    }

    /// Parameters of the embedding block: token embedding plus learned
    /// positional embedding.
    pub(crate) fn embedding_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        (self.vocab_size as u64) * h + (self.seq_len as u64) * h
    }

    /// Parameters of the head block. The GPT-2 LM head is weight-tied with
    /// the token embedding, so it contributes only the final layer-norm; the
    /// BERT MLM head adds a dense `h²` transform plus layer-norm (its vocab
    /// projection is also tied).
    pub(crate) fn head_params(&self) -> u64 {
        let h = self.hidden_size as u64;
        match self.family {
            ModelFamily::Gpt2 => 2 * h,
            ModelFamily::Bert => h * h + h + 2 * h + 2 * h,
        }
    }

    /// Total parameter count of the model.
    pub fn total_params(&self) -> u64 {
        self.embedding_params()
            + (self.num_layers as u64) * self.layer_params()
            + self.head_params()
    }

    /// Size in elements of the activation flowing between any two transformer
    /// blocks for a micro-batch of `mbs` samples: `[mbs, seq, hidden]`.
    ///
    /// This is the same at layer and sub-layer granularity — the property
    /// that makes sub-layer planning free of extra communication (§III-B).
    pub fn boundary_activation_elems(&self, mbs: usize) -> u64 {
        (mbs as u64) * (self.seq_len as u64) * (self.hidden_size as u64)
    }
}

#[cfg(test)]
mod tests {
    use crate::zoo;

    #[test]
    fn layer_params_is_sum_of_sublayer_params() {
        for cfg in zoo::benchmark_models() {
            assert_eq!(cfg.layer_params(), cfg.attn_params() + cfg.ffn_params());
        }
    }

    #[test]
    fn boundary_activation_scales_linearly_with_mbs() {
        let cfg = zoo::gpt2_345m();
        assert_eq!(
            cfg.boundary_activation_elems(8),
            2 * cfg.boundary_activation_elems(4)
        );
    }

    #[test]
    fn ffn_heavier_than_attention_in_params() {
        // FFN carries 8h^2 weights vs attention's 4h^2: the two sub-layer
        // blocks are deliberately *not* equal, which is exactly why sub-layer
        // planning still needs a search rather than a trivial even split.
        let cfg = zoo::gpt2_345m();
        assert!(cfg.ffn_params() > cfg.attn_params());
    }
}

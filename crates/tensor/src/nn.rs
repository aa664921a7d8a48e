//! Neural-network modules matching AutoPipe's planning blocks.
//!
//! Each module mirrors one `autopipe_model::BlockKind` (the mapping is
//! done by the runtime crate): `ResidualAttentionBlock`, `ResidualFFNBlock`,
//! embedding, final layer-norm, LM head. Modules are plain structs with
//! explicit `forward`/`backward` pairs; caches carry exactly what backward
//! needs, which is also what makes activation checkpointing trivial (drop
//! the cache, re-run forward from the stashed input).
//!
//! One deliberate deviation from GPT-2: the LM head here owns its own
//! projection instead of tying it to the token embedding — weight tying
//! across pipeline stages requires a dedicated gradient all-reduce between
//! first and last stage that adds nothing to the scheduling questions this
//! reproduction studies (noted in DESIGN.md).

use rand::Rng;

use crate::ops;
use crate::tensor::Tensor;

/// A hidden-state tensor `[batch·seq, hidden]`.
pub type Hidden = Tensor;

/// Residual attention block: `x + Proj(Attn(LN(x)))`.
#[derive(Debug, Clone)]
pub struct AttentionBlock {
    /// Layer-norm scale.
    pub ln_g: Tensor,
    /// Layer-norm shift.
    pub ln_b: Tensor,
    /// Fused QKV projection `[h, 3h]`.
    pub w_qkv: Tensor,
    /// QKV bias `[3h]`.
    pub b_qkv: Tensor,
    /// Output projection `[h, h]`.
    pub w_proj: Tensor,
    /// Output bias `[h]`.
    pub b_proj: Tensor,
    /// Heads.
    pub nh: usize,
    /// Causal masking (GPT) or not (BERT).
    pub causal: bool,
}

/// Cache for [`AttentionBlock::backward`].
#[derive(Debug, Clone)]
pub struct AttentionCache {
    ln: ops::LnCache,
    ln_out: Tensor,
    attn: ops::AttnCache,
    ctx: Tensor,
    batch: usize,
    seq: usize,
}

impl AttentionBlock {
    /// Random init.
    pub fn init<R: Rng>(h: usize, nh: usize, causal: bool, rng: &mut R) -> Self {
        let std = 0.02;
        AttentionBlock {
            ln_g: Tensor::from_vec(&[h], vec![1.0; h]),
            ln_b: Tensor::zeros(&[h]),
            w_qkv: Tensor::randn(&[h, 3 * h], std, rng),
            b_qkv: Tensor::zeros(&[3 * h]),
            w_proj: Tensor::randn(&[h, h], std, rng),
            b_proj: Tensor::zeros(&[h]),
            nh,
            causal,
        }
    }

    /// Forward for a `[batch·seq, h]` input.
    pub fn forward(&self, x: &Hidden, batch: usize, seq: usize) -> (Hidden, AttentionCache) {
        let h = *x.shape().last().unwrap();
        let (ln_out, ln) = ops::layernorm_fwd(x, &self.ln_g, &self.ln_b);
        let qkv = ops::linear_fwd(&ln_out, &self.w_qkv, &self.b_qkv);
        let (q, k, v) = split3(&qkv, h);
        let (ctx, attn) = ops::attention_fwd(&q, &k, &v, batch, seq, self.nh, self.causal);
        let proj = ops::linear_fwd(&ctx, &self.w_proj, &self.b_proj);
        let y = x.add(&proj);
        let _ = (q, k, v); // copies live on inside the attention cache
        (
            y,
            AttentionCache {
                ln,
                ln_out,
                attn,
                ctx,
                batch,
                seq,
            },
        )
    }

    /// Backward: returns `(dx, parameter gradients)` in [`Self::params`]
    /// order.
    pub fn backward(&self, cache: &AttentionCache, dy: &Hidden) -> (Hidden, Vec<Tensor>) {
        let h = *dy.shape().last().unwrap();
        let (dctx, dw_proj, db_proj) = ops::linear_bwd(&cache.ctx, &self.w_proj, dy);
        let (dq, dk, dv) = ops::attention_bwd(&cache.attn, &dctx, cache.batch, cache.seq, self.nh);
        let dqkv = concat3(&dq, &dk, &dv, h);
        let (dln_out, dw_qkv, db_qkv) = ops::linear_bwd(&cache.ln_out, &self.w_qkv, &dqkv);
        let (dx_ln, dg, db) = ops::layernorm_bwd(&cache.ln, &self.ln_g, &dln_out);
        let dx = dy.add(&dx_ln); // residual
        (dx, vec![dg, db, dw_qkv, db_qkv, dw_proj, db_proj])
    }

    /// Parameter references, in gradient order.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![
            &self.ln_g,
            &self.ln_b,
            &self.w_qkv,
            &self.b_qkv,
            &self.w_proj,
            &self.b_proj,
        ]
    }

    /// Mutable parameter references, in gradient order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.ln_g,
            &mut self.ln_b,
            &mut self.w_qkv,
            &mut self.b_qkv,
            &mut self.w_proj,
            &mut self.b_proj,
        ]
    }
}

/// Residual FFN block: `x + W₂(gelu(W₁·LN(x)))`.
#[derive(Debug, Clone)]
pub struct FfnBlock {
    /// Layer-norm scale.
    pub ln_g: Tensor,
    /// Layer-norm shift.
    pub ln_b: Tensor,
    /// Up projection `[h, m·h]`.
    pub w1: Tensor,
    /// Up bias.
    pub b1: Tensor,
    /// Down projection `[m·h, h]`.
    pub w2: Tensor,
    /// Down bias.
    pub b2: Tensor,
}

/// Cache for [`FfnBlock::backward`].
#[derive(Debug, Clone)]
pub struct FfnCache {
    ln: ops::LnCache,
    ln_out: Tensor,
    pre_gelu: Tensor,
    /// `tanh` inside the GELU; with `pre_gelu` it rebuilds the GELU output.
    gelu_tanh: Tensor,
}

impl FfnBlock {
    /// Random init.
    pub fn init<R: Rng>(h: usize, mult: usize, rng: &mut R) -> Self {
        let std = 0.02;
        FfnBlock {
            ln_g: Tensor::from_vec(&[h], vec![1.0; h]),
            ln_b: Tensor::zeros(&[h]),
            w1: Tensor::randn(&[h, mult * h], std, rng),
            b1: Tensor::zeros(&[mult * h]),
            w2: Tensor::randn(&[mult * h, h], std, rng),
            b2: Tensor::zeros(&[h]),
        }
    }

    /// Forward.
    pub fn forward(&self, x: &Hidden) -> (Hidden, FfnCache) {
        let (ln_out, ln) = ops::layernorm_fwd(x, &self.ln_g, &self.ln_b);
        let pre_gelu = ops::linear_fwd(&ln_out, &self.w1, &self.b1);
        let (gelu_out, gelu_tanh) = ops::gelu_fwd(&pre_gelu);
        let y = x.add(&ops::linear_fwd(&gelu_out, &self.w2, &self.b2));
        (
            y,
            FfnCache {
                ln,
                ln_out,
                pre_gelu,
                gelu_tanh,
            },
        )
    }

    /// Backward: `(dx, grads)`.
    pub fn backward(&self, cache: &FfnCache, dy: &Hidden) -> (Hidden, Vec<Tensor>) {
        let gelu_out = ops::gelu_from_tanh(&cache.pre_gelu, &cache.gelu_tanh);
        let (dgelu_out, dw2, db2) = ops::linear_bwd(&gelu_out, &self.w2, dy);
        let dpre = ops::gelu_bwd(&cache.pre_gelu, &cache.gelu_tanh, &dgelu_out);
        let (dln_out, dw1, db1) = ops::linear_bwd(&cache.ln_out, &self.w1, &dpre);
        let (dx_ln, dg, db) = ops::layernorm_bwd(&cache.ln, &self.ln_g, &dln_out);
        let dx = dy.add(&dx_ln);
        (dx, vec![dg, db, dw1, db1, dw2, db2])
    }

    /// Parameter references, in gradient order.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![
            &self.ln_g, &self.ln_b, &self.w1, &self.b1, &self.w2, &self.b2,
        ]
    }

    /// Mutable parameter references.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.ln_g,
            &mut self.ln_b,
            &mut self.w1,
            &mut self.b1,
            &mut self.w2,
            &mut self.b2,
        ]
    }
}

/// Token + positional embedding.
#[derive(Debug, Clone)]
pub struct EmbeddingBlock {
    /// Token table `[V, h]`.
    pub wte: Tensor,
    /// Positional table `[seq, h]`.
    pub wpe: Tensor,
    /// Sequence length.
    pub seq: usize,
}

impl EmbeddingBlock {
    /// Random init.
    pub fn init<R: Rng>(vocab: usize, seq: usize, h: usize, rng: &mut R) -> Self {
        EmbeddingBlock {
            wte: Tensor::randn(&[vocab, h], 0.02, rng),
            wpe: Tensor::randn(&[seq, h], 0.02, rng),
            seq,
        }
    }

    /// Forward: ids → hidden.
    pub fn forward(&self, ids: &[usize]) -> Hidden {
        ops::embedding_fwd(ids, self.seq, &self.wte, &self.wpe)
    }

    /// Backward: `(dwte, dwpe)`.
    pub fn backward(&self, ids: &[usize], dy: &Hidden) -> Vec<Tensor> {
        let (dwte, dwpe) = ops::embedding_bwd(ids, self.seq, self.wte.shape()[0], dy);
        vec![dwte, dwpe]
    }

    /// Parameter references.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.wte, &self.wpe]
    }

    /// Mutable parameter references.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.wte, &mut self.wpe]
    }
}

/// Final layer-norm (GPT-2's `ln_f`).
#[derive(Debug, Clone)]
pub struct FinalLn {
    /// Scale.
    pub g: Tensor,
    /// Shift.
    pub b: Tensor,
}

impl FinalLn {
    /// Unit init.
    pub fn init(h: usize) -> Self {
        FinalLn {
            g: Tensor::from_vec(&[h], vec![1.0; h]),
            b: Tensor::zeros(&[h]),
        }
    }

    /// Forward.
    pub fn forward(&self, x: &Hidden) -> (Hidden, ops::LnCache) {
        ops::layernorm_fwd(x, &self.g, &self.b)
    }

    /// Backward.
    pub fn backward(&self, cache: &ops::LnCache, dy: &Hidden) -> (Hidden, Vec<Tensor>) {
        let (dx, dg, db) = ops::layernorm_bwd(cache, &self.g, dy);
        (dx, vec![dg, db])
    }

    /// Parameter references.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.g, &self.b]
    }

    /// Mutable parameter references.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.g, &mut self.b]
    }
}

/// Language-model head: projection to the vocabulary plus fused
/// softmax-cross-entropy.
#[derive(Debug, Clone)]
pub struct LmHead {
    /// Projection `[h, V]`.
    pub w: Tensor,
}

impl LmHead {
    /// Random init.
    pub fn init<R: Rng>(h: usize, vocab: usize, rng: &mut R) -> Self {
        LmHead {
            w: Tensor::randn(&[h, vocab], 0.02, rng),
        }
    }

    /// Forward + loss: returns `(mean loss, dlogits)` for the backward.
    pub fn forward_loss(&self, x: &Hidden, targets: &[usize]) -> (f32, Tensor) {
        let logits = x.matmul(&self.w);
        ops::cross_entropy_logits(&logits, targets)
    }

    /// Backward from the stored `dlogits`: `(dx, grads)`.
    pub fn backward(&self, x: &Hidden, dlogits: &Tensor) -> (Hidden, Vec<Tensor>) {
        let dx = dlogits.matmul_t(&self.w);
        let dw = x.t_matmul(dlogits);
        (dx, vec![dw])
    }

    /// Parameter references.
    pub fn params(&self) -> Vec<&Tensor> {
        vec![&self.w]
    }

    /// Mutable parameter references.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w]
    }
}

fn split3(qkv: &Tensor, h: usize) -> (Tensor, Tensor, Tensor) {
    let rows = qkv.len() / (3 * h);
    let mut q = Tensor::zeros(&[rows, h]);
    let mut k = Tensor::zeros(&[rows, h]);
    let mut v = Tensor::zeros(&[rows, h]);
    for r in 0..rows {
        let src = &qkv.data()[r * 3 * h..(r + 1) * 3 * h];
        q.data_mut()[r * h..(r + 1) * h].copy_from_slice(&src[0..h]);
        k.data_mut()[r * h..(r + 1) * h].copy_from_slice(&src[h..2 * h]);
        v.data_mut()[r * h..(r + 1) * h].copy_from_slice(&src[2 * h..3 * h]);
    }
    (q, k, v)
}

fn concat3(q: &Tensor, k: &Tensor, v: &Tensor, h: usize) -> Tensor {
    let rows = q.len() / h;
    let mut out = Tensor::zeros(&[rows, 3 * h]);
    for r in 0..rows {
        let dst = &mut out.data_mut()[r * 3 * h..(r + 1) * 3 * h];
        dst[0..h].copy_from_slice(&q.data()[r * h..(r + 1) * h]);
        dst[h..2 * h].copy_from_slice(&k.data()[r * h..(r + 1) * h]);
        dst[2 * h..3 * h].copy_from_slice(&v.data()[r * h..(r + 1) * h]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn finite_diff_block(x: &Tensor, probe: &Tensor, f: &dyn Fn(&Tensor) -> Tensor) -> Tensor {
        let eps = 1e-2_f32;
        let mut g = Tensor::zeros(x.shape());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = f(&xp)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = f(&xm)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum();
            g.data_mut()[i] = (lp - lm) / (2.0 * eps);
        }
        g
    }

    #[test]
    fn attention_block_input_gradient_checks() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (batch, seq, h, nh) = (2, 3, 8, 2);
        let blk = AttentionBlock::init(h, nh, true, &mut rng);
        let x = Tensor::randn(&[batch * seq, h], 0.5, &mut rng);
        let probe = Tensor::randn(&[batch * seq, h], 1.0, &mut rng);
        let (_, cache) = blk.forward(&x, batch, seq);
        let (dx, grads) = blk.backward(&cache, &probe);
        assert_eq!(grads.len(), blk.params().len());
        let fd = finite_diff_block(&x, &probe, &|x| blk.forward(x, batch, seq).0);
        for (i, (a, b)) in dx.data().iter().zip(fd.data()).enumerate() {
            assert!(
                (a - b).abs() < 5e-2 * (1.0 + a.abs()),
                "dx[{i}]: {a} vs {b}"
            );
        }
    }

    #[test]
    fn ffn_block_input_gradient_checks() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let h = 6;
        let blk = FfnBlock::init(h, 4, &mut rng);
        let x = Tensor::randn(&[4, h], 0.5, &mut rng);
        let probe = Tensor::randn(&[4, h], 1.0, &mut rng);
        let (_, cache) = blk.forward(&x);
        let (dx, grads) = blk.backward(&cache, &probe);
        assert_eq!(grads.len(), 6);
        let fd = finite_diff_block(&x, &probe, &|x| blk.forward(x).0);
        for (a, b) in dx.data().iter().zip(fd.data()) {
            assert!((a - b).abs() < 5e-2 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn grad_shapes_match_param_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let (batch, seq, h, nh) = (1, 2, 4, 2);
        let attn = AttentionBlock::init(h, nh, false, &mut rng);
        let x = Tensor::randn(&[batch * seq, h], 0.5, &mut rng);
        let (y, cache) = attn.forward(&x, batch, seq);
        let (_, grads) = attn.backward(&cache, &y);
        for (p, g) in attn.params().iter().zip(&grads) {
            assert_eq!(p.shape(), g.shape());
        }
        let ffn = FfnBlock::init(h, 4, &mut rng);
        let (y2, c2) = ffn.forward(&x);
        let (_, g2) = ffn.backward(&c2, &y2);
        for (p, g) in ffn.params().iter().zip(&g2) {
            assert_eq!(p.shape(), g.shape());
        }
    }

    #[test]
    fn lm_head_loss_decreases_under_sgd() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let (h, vocab) = (6, 11);
        let mut head = LmHead::init(h, vocab, &mut rng);
        let x = Tensor::randn(&[8, h], 1.0, &mut rng);
        let targets: Vec<usize> = (0..8).map(|i| i % vocab).collect();
        let (loss0, _) = head.forward_loss(&x, &targets);
        for _ in 0..60 {
            let (_, dlogits) = head.forward_loss(&x, &targets);
            let (_, grads) = head.backward(&x, &dlogits);
            let mut ps = head.params_mut();
            ps[0].axpy(-0.5, &grads[0]);
        }
        let (loss1, _) = head.forward_loss(&x, &targets);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn split_concat_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let h = 4;
        let qkv = Tensor::randn(&[3, 3 * h], 1.0, &mut rng);
        let (q, k, v) = split3(&qkv, h);
        let back = concat3(&q, &k, &v, h);
        assert_eq!(qkv, back);
    }
}

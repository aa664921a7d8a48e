//! Forward/backward operation pairs.
//!
//! All activations are 2-D `[rows, features]` where `rows = batch × seq`.
//! Each forward returns whatever cache its backward needs; each backward
//! takes the upstream gradient and returns input/parameter gradients.

use crate::kernel::Kernel;
use crate::tanh::tanh;
use crate::tensor::Tensor;

// ---------------------------------------------------------------- linear

/// `y = x·W + b`, with `x: [r, in]`, `W: [in, out]`, `b: [out]`.
pub(crate) fn linear_fwd(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut y = x.matmul(w);
    let out = w.shape()[1];
    for row in y.data_mut().chunks_mut(out) {
        for (v, bv) in row.iter_mut().zip(b.data()) {
            *v += bv;
        }
    }
    y
}

/// Backward of [`linear_fwd`]: returns `(dx, dw, db)`.
pub(crate) fn linear_bwd(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    let dx = dy.matmul_t(w); // dy [r,out] · Wᵀ [out,in]
    let dw = x.t_matmul(dy); // xᵀ [in,r] · dy [r,out]
    let out = w.shape()[1];
    let mut db = Tensor::zeros(&[out]);
    for row in dy.data().chunks(out) {
        for (g, v) in db.data_mut().iter_mut().zip(row) {
            *g += v;
        }
    }
    (dx, dw, db)
}

// ---------------------------------------------------------------- gelu

/// GELU (tanh approximation), elementwise: returns `(y, t)` where `t` is
/// the `tanh` inside it, which [`gelu_bwd`] reuses instead of calling `tanh`
/// a second time per element. One pass on the widest kernel instance the
/// host runs.
pub(crate) fn gelu_fwd(x: &Tensor) -> (Tensor, Tensor) {
    let mut t = Tensor::zeros(x.shape());
    let mut y = Tensor::zeros(x.shape());
    Kernel::widest().gelu(x.data(), t.data_mut(), y.data_mut());
    (y, t)
}

/// [`gelu_fwd`]'s loop: `t = tanh(GELU_C·(v + 0.044715·v³))` and `y = 0.5·v·(1
/// + t)` per element, `tanh` being fdlibm's `tanhf` to the bit
/// ([`crate::tanh`]). `#[inline(always)]` so that each instance in
/// [`crate::kernel`] compiles it for its own instruction set.
#[inline(always)]
pub(crate) fn gelu(x: &[f32], t: &mut [f32], y: &mut [f32]) {
    for ((&v, t), y) in x.iter().zip(t.iter_mut()).zip(y.iter_mut()) {
        *t = tanh(GELU_C * (v + 0.044715 * v * v * v));
        *y = gelu_out(v, *t);
    }
}

/// The GELU output from its input `v` and the `tanh` inside it: the one
/// expression both [`gelu`] and [`gelu_from_tanh`] use, so they agree to the
/// bit.
#[inline(always)]
fn gelu_out(v: f32, t: f32) -> f32 {
    0.5 * v * (1.0 + t)
}

/// The GELU output from its input and [`gelu_fwd`]'s `t` — the forward's
/// own expression, so a cache can keep `t` and rebuild the output bit for
/// bit instead of storing both.
pub(crate) fn gelu_from_tanh(x: &Tensor, t: &Tensor) -> Tensor {
    let y = x
        .data()
        .iter()
        .zip(t.data())
        .map(|(&v, &t)| gelu_out(v, t))
        .collect();
    Tensor::from_vec(x.shape(), y)
}

/// Backward of [`gelu_fwd`], given the forward's input `x` and its `t`.
pub(crate) fn gelu_bwd(x: &Tensor, t: &Tensor, dy: &Tensor) -> Tensor {
    let dx = x
        .data()
        .iter()
        .zip(t.data())
        .zip(dy.data())
        .map(|((&v, &t), &g)| {
            let du = GELU_C * (1.0 + 3.0 * 0.044715 * v * v);
            g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du)
        })
        .collect();
    Tensor::from_vec(dy.shape(), dx)
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

// ---------------------------------------------------------------- layernorm

/// Cache for layer-norm backward.
#[derive(Debug, Clone)]
pub struct LnCache {
    /// Normalised activations (pre-γ/β).
    pub xhat: Tensor,
    /// Per-row 1/σ.
    pub inv_std: Vec<f32>,
}

/// Row-wise layer-norm with scale `gamma` and shift `beta`.
pub(crate) fn layernorm_fwd(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, LnCache) {
    let d = *x.shape().last().unwrap();
    let rows = x.len() / d;
    let mut y = Tensor::zeros(x.shape());
    let mut xhat = Tensor::zeros(x.shape());
    let mut inv_std = Vec::with_capacity(rows);
    for r in 0..rows {
        let xi = &x.data()[r * d..(r + 1) * d];
        let mean = xi.iter().sum::<f32>() / d as f32;
        let var = xi.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        inv_std.push(inv);
        for j in 0..d {
            let h = (xi[j] - mean) * inv;
            xhat.data_mut()[r * d + j] = h;
            y.data_mut()[r * d + j] = h * gamma.data()[j] + beta.data()[j];
        }
    }
    (y, LnCache { xhat, inv_std })
}

/// Backward of [`layernorm_fwd`]: returns `(dx, dgamma, dbeta)`.
pub(crate) fn layernorm_bwd(
    cache: &LnCache,
    gamma: &Tensor,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let d = *dy.shape().last().unwrap();
    let rows = dy.len() / d;
    let mut dx = Tensor::zeros(dy.shape());
    let mut dgamma = Tensor::zeros(&[d]);
    let mut dbeta = Tensor::zeros(&[d]);
    for r in 0..rows {
        let dyr = &dy.data()[r * d..(r + 1) * d];
        let xh = &cache.xhat.data()[r * d..(r + 1) * d];
        let inv = cache.inv_std[r];
        let mut sum_dyg = 0.0_f32;
        let mut sum_dyg_xh = 0.0_f32;
        for j in 0..d {
            let dyg = dyr[j] * gamma.data()[j];
            sum_dyg += dyg;
            sum_dyg_xh += dyg * xh[j];
            dgamma.data_mut()[j] += dyr[j] * xh[j];
            dbeta.data_mut()[j] += dyr[j];
        }
        let nd = d as f32;
        for j in 0..d {
            let dyg = dyr[j] * gamma.data()[j];
            dx.data_mut()[r * d + j] = inv * (dyg - sum_dyg / nd - xh[j] * sum_dyg_xh / nd);
        }
    }
    (dx, dgamma, dbeta)
}

// ---------------------------------------------------------------- softmax

/// Row-wise softmax.
pub(crate) fn softmax_fwd(x: &Tensor) -> Tensor {
    let d = *x.shape().last().unwrap();
    let mut y = x.clone();
    for row in y.data_mut().chunks_mut(d) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0_f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    y
}

/// Backward of [`softmax_fwd`] given its output `y`.
pub(crate) fn softmax_bwd(y: &Tensor, dy: &Tensor) -> Tensor {
    let d = *y.shape().last().unwrap();
    let mut dx = Tensor::zeros(y.shape());
    for ((dxr, yr), dyr) in dx
        .data_mut()
        .chunks_mut(d)
        .zip(y.data().chunks(d))
        .zip(dy.data().chunks(d))
    {
        let dot: f32 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
        for j in 0..d {
            dxr[j] = yr[j] * (dyr[j] - dot);
        }
    }
    dx
}

// ---------------------------------------------------------------- embedding

/// Token + positional embedding: `ids: [b·s]`, tables `wte: [V, h]`,
/// `wpe: [s, h]` → `[b·s, h]`.
pub(crate) fn embedding_fwd(ids: &[usize], seq: usize, wte: &Tensor, wpe: &Tensor) -> Tensor {
    let h = wte.shape()[1];
    let mut y = Tensor::zeros(&[ids.len(), h]);
    for (r, &id) in ids.iter().enumerate() {
        let pos = r % seq;
        let te = &wte.data()[id * h..(id + 1) * h];
        let pe = &wpe.data()[pos * h..(pos + 1) * h];
        let o = &mut y.data_mut()[r * h..(r + 1) * h];
        for j in 0..h {
            o[j] = te[j] + pe[j];
        }
    }
    y
}

/// Backward of [`embedding_fwd`]: returns `(dwte, dwpe)`.
pub(crate) fn embedding_bwd(
    ids: &[usize],
    seq: usize,
    vocab: usize,
    dy: &Tensor,
) -> (Tensor, Tensor) {
    let h = *dy.shape().last().unwrap();
    let mut dwte = Tensor::zeros(&[vocab, h]);
    let mut dwpe = Tensor::zeros(&[seq, h]);
    for (r, &id) in ids.iter().enumerate() {
        let pos = r % seq;
        let g = &dy.data()[r * h..(r + 1) * h];
        for j in 0..h {
            dwte.data_mut()[id * h + j] += g[j];
            dwpe.data_mut()[pos * h + j] += g[j];
        }
    }
    (dwte, dwpe)
}

// ------------------------------------------------- softmax cross-entropy

/// Fused softmax + cross-entropy over logits `[n, V]` with integer targets.
/// Returns `(mean loss, dlogits)` — the gradient already includes the `1/n`
/// mean factor.
pub(crate) fn cross_entropy_logits(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let v = *logits.shape().last().unwrap();
    let n = logits.len() / v;
    assert_eq!(n, targets.len());
    // One `[n, V]` buffer: the softmax output becomes the gradient in place.
    let mut dl = softmax_fwd(logits);
    let mut loss = 0.0_f64;
    let scale = 1.0 / n as f32;
    for (row, &t) in dl.data_mut().chunks_mut(v).zip(targets) {
        loss -= (row[t].max(1e-12) as f64).ln();
        row[t] -= 1.0;
        for g in row {
            *g *= scale;
        }
    }
    ((loss / n as f64) as f32, dl)
}

// ---------------------------------------------------------------- attention

/// Cache for multi-head attention backward.
#[derive(Debug, Clone)]
pub struct AttnCache {
    /// Softmaxed attention maps, one `[s, s]` tensor per (batch, head).
    pub probs: Vec<Tensor>,
    /// Q/K/V copies per (batch, head), each `[s, dh]`.
    pub qkv: Vec<(Tensor, Tensor, Tensor)>,
}

/// Multi-head scaled-dot-product attention over packed `q,k,v: [b·s, h]`
/// with `nh` heads; `causal` masks future positions. Returns the merged
/// context `[b·s, h]`.
pub(crate) fn attention_fwd(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    batch: usize,
    seq: usize,
    nh: usize,
    causal: bool,
) -> (Tensor, AttnCache) {
    let h = *q.shape().last().unwrap();
    assert_eq!(h % nh, 0);
    let dh = h / nh;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = Tensor::zeros(&[batch * seq, h]);
    let mut probs = Vec::with_capacity(batch * nh);
    let mut qkv = Vec::with_capacity(batch * nh);
    for b in 0..batch {
        for head in 0..nh {
            let qh = slice_head(q, b, head, seq, h, dh);
            let kh = slice_head(k, b, head, seq, h, dh);
            let vh = slice_head(v, b, head, seq, h, dh);
            let mut scores = qh.matmul_t(&kh);
            scores.data_mut().iter_mut().for_each(|x| *x *= scale);
            if causal {
                for i in 0..seq {
                    for j in (i + 1)..seq {
                        scores.data_mut()[i * seq + j] = f32::NEG_INFINITY;
                    }
                }
            }
            let a = softmax_fwd(&scores);
            let ctx = a.matmul(&vh); // [s, dh]
            write_head(&mut out, &ctx, b, head, seq, h, dh);
            probs.push(a);
            qkv.push((qh, kh, vh));
        }
    }
    (out, AttnCache { probs, qkv })
}

/// Backward of [`attention_fwd`]: returns `(dq, dk, dv)` packed `[b·s, h]`.
pub(crate) fn attention_bwd(
    cache: &AttnCache,
    dctx: &Tensor,
    batch: usize,
    seq: usize,
    nh: usize,
) -> (Tensor, Tensor, Tensor) {
    let h = *dctx.shape().last().unwrap();
    let dh = h / nh;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = Tensor::zeros(&[batch * seq, h]);
    let mut dk = Tensor::zeros(&[batch * seq, h]);
    let mut dv = Tensor::zeros(&[batch * seq, h]);
    for b in 0..batch {
        for head in 0..nh {
            let idx = b * nh + head;
            let a = &cache.probs[idx];
            let (qh, kh, vh) = &cache.qkv[idx];
            let dctx_h = slice_head(dctx, b, head, seq, h, dh);
            let dvh = a.t_matmul(&dctx_h); // Aᵀ·dctx
            let da = dctx_h.matmul_t(vh); // dctx·Vᵀ
            let mut dscores = softmax_bwd(a, &da);
            dscores.data_mut().iter_mut().for_each(|x| *x *= scale);
            let dqh = dscores.matmul(kh);
            let dkh = dscores.t_matmul(qh);
            write_head(&mut dq, &dqh, b, head, seq, h, dh);
            write_head(&mut dk, &dkh, b, head, seq, h, dh);
            write_head(&mut dv, &dvh, b, head, seq, h, dh);
        }
    }
    (dq, dk, dv)
}

fn slice_head(x: &Tensor, b: usize, head: usize, seq: usize, h: usize, dh: usize) -> Tensor {
    let mut out = Tensor::zeros(&[seq, dh]);
    for s in 0..seq {
        let src = &x.data()[(b * seq + s) * h + head * dh..(b * seq + s) * h + (head + 1) * dh];
        out.data_mut()[s * dh..(s + 1) * dh].copy_from_slice(src);
    }
    out
}

fn write_head(
    x: &mut Tensor,
    hslice: &Tensor,
    b: usize,
    head: usize,
    seq: usize,
    h: usize,
    dh: usize,
) {
    for s in 0..seq {
        let dst =
            &mut x.data_mut()[(b * seq + s) * h + head * dh..(b * seq + s) * h + (head + 1) * dh];
        dst.copy_from_slice(&hslice.data()[s * dh..(s + 1) * dh]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Central finite difference on a scalar loss `sum(f(x) * probe)`.
    fn finite_diff(x: &Tensor, probe: &Tensor, f: &dyn Fn(&Tensor) -> Tensor) -> Tensor {
        let eps = 1e-3_f32;
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

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = Tensor::randn(&[4, 5], 0.5, &mut rng);
        let w = Tensor::randn(&[5, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[3], 0.5, &mut rng);
        let probe = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let (dx, dw, db) = linear_bwd(&x, &w, &probe);
        let fd_dx = finite_diff(&x, &probe, &|x| linear_fwd(x, &w, &b));
        let fd_dw = finite_diff(&w, &probe, &|w| linear_fwd(&x, w, &b));
        let fd_db = finite_diff(&b, &probe, &|b| linear_fwd(&x, &w, b));
        assert_close(&dx, &fd_dx, 2e-2, "dx");
        assert_close(&dw, &fd_dw, 2e-2, "dw");
        assert_close(&db, &fd_db, 2e-2, "db");
    }

    #[test]
    fn gelu_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let probe = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let dx = gelu_bwd(&x, &gelu_fwd(&x).1, &probe);
        let fd = finite_diff(&x, &probe, &|x| gelu_fwd(x).0);
        assert_close(&dx, &fd, 2e-2, "gelu dx");
    }

    #[test]
    fn gelu_fwd_equals_the_libm_expression_bit_for_bit() {
        // The expression `gelu_fwd` had before its `tanh` was ported, on
        // activations from a seeded normal spread over four scales, plus
        // ±0, subnormals, values around every branch of `tanh`, ±inf and
        // NaN.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut data = Vec::new();
        for std in [1e-3, 1.0, 4.0, 30.0] {
            data.extend_from_slice(Tensor::randn(&[4096], std, &mut rng).data());
        }
        data.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            1e-20,
            -0.35,
            0.6,
            1.2,
            -1.3,
            14.0,
            -25.0,
            1e20,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]);
        let x = Tensor::from_vec(&[data.len()], data);
        let (y, t) = gelu_fwd(&x);
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let old_t: Vec<f32> = x
            .data()
            .iter()
            .map(|&v| (GELU_C * (v + 0.044715 * v * v * v)).tanh())
            .collect();
        let old_y: Vec<f32> = x
            .data()
            .iter()
            .zip(&old_t)
            .map(|(&v, &t)| 0.5 * v * (1.0 + t))
            .collect();
        assert_eq!(bits(t.data()), bits(&old_t));
        assert_eq!(bits(y.data()), bits(&old_y));
        assert_eq!(bits(gelu_from_tanh(&x, &t).data()), bits(y.data()));
    }

    #[test]
    fn layernorm_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x = Tensor::randn(&[3, 8], 1.0, &mut rng);
        let gamma = Tensor::randn(&[8], 0.5, &mut rng);
        let beta = Tensor::randn(&[8], 0.5, &mut rng);
        let probe = Tensor::randn(&[3, 8], 1.0, &mut rng);
        let (_, cache) = layernorm_fwd(&x, &gamma, &beta);
        let (dx, dgamma, dbeta) = layernorm_bwd(&cache, &gamma, &probe);
        let fd_dx = finite_diff(&x, &probe, &|x| layernorm_fwd(x, &gamma, &beta).0);
        let fd_dg = finite_diff(&gamma, &probe, &|g| layernorm_fwd(&x, g, &beta).0);
        let fd_db = finite_diff(&beta, &probe, &|b| layernorm_fwd(&x, &gamma, b).0);
        assert_close(&dx, &fd_dx, 3e-2, "ln dx");
        assert_close(&dgamma, &fd_dg, 3e-2, "ln dgamma");
        assert_close(&dbeta, &fd_db, 3e-2, "ln dbeta");
    }

    #[test]
    fn softmax_rows_sum_to_one_and_bwd_matches() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let y = softmax_fwd(&x);
        for row in y.data().chunks(5) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let probe = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let dx = softmax_bwd(&y, &probe);
        let fd = finite_diff(&x, &probe, &softmax_fwd);
        assert_close(&dx, &fd, 2e-2, "softmax dx");
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let logits = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let targets = [1usize, 0, 5, 3];
        let (_, dl) = cross_entropy_logits(&logits, &targets);
        let eps = 1e-3_f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let fp = cross_entropy_logits(&lp, &targets).0;
            let fm = cross_entropy_logits(&lm, &targets).0;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (dl.data()[i] - fd).abs() < 2e-2,
                "dlogits[{i}]: {} vs {fd}",
                dl.data()[i]
            );
        }
    }

    #[test]
    fn attention_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (batch, seq, nh, h) = (2, 3, 2, 4);
        let q = Tensor::randn(&[batch * seq, h], 0.5, &mut rng);
        let k = Tensor::randn(&[batch * seq, h], 0.5, &mut rng);
        let v = Tensor::randn(&[batch * seq, h], 0.5, &mut rng);
        let probe = Tensor::randn(&[batch * seq, h], 1.0, &mut rng);
        for causal in [false, true] {
            let (_, cache) = attention_fwd(&q, &k, &v, batch, seq, nh, causal);
            let (dq, dk, dv) = attention_bwd(&cache, &probe, batch, seq, nh);
            let fd_dq = finite_diff(&q, &probe, &|q| {
                attention_fwd(q, &k, &v, batch, seq, nh, causal).0
            });
            let fd_dk = finite_diff(&k, &probe, &|k| {
                attention_fwd(&q, k, &v, batch, seq, nh, causal).0
            });
            let fd_dv = finite_diff(&v, &probe, &|v| {
                attention_fwd(&q, &k, v, batch, seq, nh, causal).0
            });
            assert_close(&dq, &fd_dq, 3e-2, "dq");
            assert_close(&dk, &fd_dk, 3e-2, "dk");
            assert_close(&dv, &fd_dv, 3e-2, "dv");
        }
    }

    #[test]
    fn causal_attention_ignores_future_tokens() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (batch, seq, nh, h) = (1, 4, 1, 4);
        let q = Tensor::randn(&[seq, h], 0.5, &mut rng);
        let k = Tensor::randn(&[seq, h], 0.5, &mut rng);
        let mut v = Tensor::randn(&[seq, h], 0.5, &mut rng);
        let (y1, _) = attention_fwd(&q, &k, &v, batch, seq, nh, true);
        // Perturb the last token's value: outputs for earlier positions
        // must not change.
        for j in 0..h {
            v.data_mut()[(seq - 1) * h + j] += 10.0;
        }
        let (y2, _) = attention_fwd(&q, &k, &v, batch, seq, nh, true);
        for r in 0..seq - 1 {
            for j in 0..h {
                assert_eq!(y1.data()[r * h + j], y2.data()[r * h + j]);
            }
        }
    }

    #[test]
    fn embedding_roundtrip_and_gradients() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (vocab, seq, h) = (7, 3, 4);
        let wte = Tensor::randn(&[vocab, h], 0.5, &mut rng);
        let wpe = Tensor::randn(&[seq, h], 0.5, &mut rng);
        let ids = vec![2usize, 5, 1, 0, 6, 3]; // batch 2 × seq 3
        let y = embedding_fwd(&ids, seq, &wte, &wpe);
        assert_eq!(y.shape(), &[6, h]);
        // row 0 = wte[2] + wpe[0]
        for j in 0..h {
            assert_eq!(y.data()[j], wte.data()[2 * h + j] + wpe.data()[j]);
        }
        let dy = Tensor::randn(&[6, h], 1.0, &mut rng);
        let (dwte, dwpe) = embedding_bwd(&ids, seq, vocab, &dy);
        // token 4 never appears: zero gradient.
        for j in 0..h {
            assert_eq!(dwte.data()[4 * h + j], 0.0);
        }
        // total gradient mass is conserved.
        assert!((dwte.sum() - dy.sum()).abs() < 1e-3);
        assert!((dwpe.sum() - dy.sum()).abs() < 1e-3);
    }
}

//! Dense row-major f32 tensors.

use std::cell::Cell;

use rand::Rng;
use serde::Serialize;

use crate::kernel::Kernel;

/// A dense row-major f32 tensor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor from raw data; panics if sizes disagree.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {shape:?} incompatible with {} elements",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Gaussian init scaled by `std`.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Tensor {
        let n = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            // Box–Muller
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            data.push((-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * std);
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Elementwise sum; shapes must match.
    pub(crate) fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape);
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise scale.
    pub fn scale(&self, alpha: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }

    /// Sum of all elements (f64 accumulator).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Matrix multiply: `self [m,k] × other [k,n] → [m,n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = product_dims("matmul", self, 1, other, 0);
        self.product(other, (k, 1), false, (m, k, n))
    }

    /// `selfᵀ × other`: `[k,m]ᵀ·[k,n] → [m,n]` without materialising the
    /// transpose (weight-gradient shape).
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = product_dims("t_matmul", self, 0, other, 0);
        self.product(other, (1, m), false, (m, k, n))
    }

    /// `self × otherᵀ`: `[m,k]·[n,k]ᵀ → [m,n]` (input-gradient shape).
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = product_dims("matmul_t", self, 1, other, 1);
        self.product(other, (k, 1), true, (m, k, n))
    }

    /// `self · other` on the widest kernel instance the host runs; the
    /// layout arguments are [`Product`]'s.
    fn product(
        &self,
        other: &Tensor,
        a_strides: (usize, usize),
        b_transposed: bool,
        (m, k, n): (usize, usize, usize),
    ) -> Tensor {
        let product = Product {
            a: &self.data,
            a_strides,
            b: &other.data,
            b_transposed,
            m,
            k,
            n,
        };
        Tensor {
            shape: vec![m, n],
            data: Kernel::widest().gemm(product),
        }
    }
}

/// Both operands 2-D and the contracted axes (`lhs_k` of `lhs`, `rhs_k` of
/// `rhs`) equally long; returns `(m, k, n)` of the product.
fn product_dims(
    op: &str,
    lhs: &Tensor,
    lhs_k: usize,
    rhs: &Tensor,
    rhs_k: usize,
) -> (usize, usize, usize) {
    assert_eq!(lhs.shape.len(), 2, "{op} lhs must be 2-D");
    assert_eq!(rhs.shape.len(), 2, "{op} rhs must be 2-D");
    let (k, k2) = (lhs.shape[lhs_k], rhs.shape[rhs_k]);
    assert_eq!(k, k2, "{op} inner dims {k} vs {k2}");
    (lhs.shape[1 - lhs_k], k, rhs.shape[1 - rhs_k])
}

/// One product `A [m,k] · B [k,n] → [m,n]` for [`gemm`]. `A[i][kk]` is
/// `a[i * row_stride + kk * k_stride]` with `a_strides = (row_stride,
/// k_stride)`: `(k, 1)` for a row-major `A`, `(1, m)` for one stored
/// transposed. `b` is `B` row-major, or with `b_transposed` it is `Bᵀ
/// [n,k]` row-major (`matmul_t`'s right-hand side).
#[derive(Clone, Copy)]
pub(crate) struct Product<'a> {
    a: &'a [f32],
    a_strides: (usize, usize),
    b: &'a [f32],
    b_transposed: bool,
    pub(crate) m: usize,
    k: usize,
    pub(crate) n: usize,
}

/// Columns of every instance's accumulator tile and of the panel of B it
/// reads: two zmm, four ymm or eight xmm registers per tile row.
pub(crate) const NR: usize = 32;
/// The half-width panel, where every `[s, dh = 16]` attention-head product
/// lands.
const HALF: usize = NR / 2;
/// Depth of one k block: a full `[KC, NR]` panel is 32 KiB.
pub(crate) const KC: usize = 256;

thread_local! {
    /// The packed `[kc, NR]` panel of B that every row tile of a product
    /// reads: `KC × NR` floats, whatever the product's size, allocated on a
    /// thread's first product and reused.
    static PANEL: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// The one GEMM body: `out = A·B` into a zeroed `out`, with an `MR × NR`
/// accumulator tile. Every function it calls is `#[inline(always)]` and no
/// closure runs its loops, so each instance of [`crate::kernel`]'s dispatch
/// compiles the whole product for its own instruction set and its own `MR`.
///
/// Every output element is the one chain `acc = 0.0; acc += a·b` over
/// ascending `kk`, multiply and add rounded separately (never `mul_add`),
/// whatever the layout, tile shape, position or instruction set: float
/// addition is not associative, so this order is what makes all three
/// products bit-reproducible, and the kernel is fast by running `MR × NR`
/// such chains side by side (vector lanes across `j`), never by splitting
/// one. `k` is blocked by [`KC`] without splitting a chain: each block
/// reloads the tile from `out` and continues it, and storing and reloading
/// an f32 is exact (`out` starts at `+0.0`, the chain's own start).
///
/// There is no `a == 0.0` shortcut: for finite operands a skipped `+ ±0.0` is
/// unobservable (an accumulator that starts at `+0.0` never becomes `-0.0`,
/// and `x + ±0.0 == x` for every other `x`). The only infinities in this
/// crate, the causal mask's, pass through `softmax_fwd` before any product.
///
/// Single-threaded on purpose: a pipeline stage is one device and already
/// runs on its own thread.
#[inline(always)]
pub(crate) fn gemm<const MR: usize>(p: Product<'_>, out: &mut [f32]) {
    let mut panel = PANEL.take();
    panel.resize(KC * NR, 0.0);
    for j0 in (0..p.n).step_by(NR) {
        let nr = NR.min(p.n - j0);
        for k0 in (0..p.k).step_by(KC) {
            let kc = KC.min(p.k - k0);
            if nr <= HALF {
                panel_pass::<MR, HALF>(p, &mut panel[..kc * HALF], out, (j0, nr), k0);
            } else {
                panel_pass::<MR, NR>(p, &mut panel[..kc * NR], out, (j0, nr), k0);
            }
        }
    }
    PANEL.set(panel);
}

/// Packs B's rows `k0..k0 + kc` and columns `j0..j0 + nr` into `panel`
/// (`[kc, W]` row-major, zero past `nr`), then runs every row tile of `out`
/// over it. Bᵀ is packed straight from its rows, so `matmul_t` reads no
/// transposed copy.
#[inline(always)]
fn panel_pass<const MR: usize, const W: usize>(
    p: Product<'_>,
    panel: &mut [f32],
    out: &mut [f32],
    (j0, nr): (usize, usize),
    k0: usize,
) {
    let Product {
        a,
        a_strides,
        b,
        b_transposed,
        m,
        k,
        n,
    } = p;
    if nr < W {
        panel.fill(0.0); // the padding lanes compute on zeros, never on stale bits
    }
    if b_transposed {
        for c in 0..nr {
            let column = panel[c..].iter_mut().step_by(W);
            for (dst, &v) in column.zip(&b[(j0 + c) * k + k0..]) {
                *dst = v;
            }
        }
    } else {
        for (kk, row) in panel.chunks_exact_mut(W).enumerate() {
            let src = &b[(k0 + kk) * n + j0..];
            if nr == W {
                row.copy_from_slice(&src[..W]);
            } else {
                row[..nr].copy_from_slice(&src[..nr]);
            }
        }
    }
    for i0 in (0..m).step_by(MR) {
        let mr = MR.min(m - i0);
        let a = &a[i0 * a_strides.0 + k0 * a_strides.1..];
        let out = &mut out[i0 * n + j0..];
        // Constant bounds on full tiles, so their loads and stores unroll.
        if mr == MR && nr == W {
            tile::<MR, W>(a, a_strides, panel, out, n, (MR, W));
        } else {
            tile::<MR, W>(a, a_strides, panel, out, n, (mr, nr));
        }
    }
}

/// One `MR × W` tile over one packed panel: the first `mr` rows and `nr`
/// columns of `out` (row stride `n`) continue their chains through the
/// panel's `kc` rows. `a` starts at the tile's first row and the block's
/// first `kk`, and keeps A's strides. A short tile computes all `MR × W`
/// lanes, its missing rows repeating its last one and its missing columns
/// on the panel's zeros, and stores only its own.
#[inline(always)]
fn tile<const MR: usize, const W: usize>(
    a: &[f32],
    (row_stride, k_stride): (usize, usize),
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    (mr, nr): (usize, usize),
) {
    // Every row of A is one slice of the same length, so one bounds check
    // per `kk` covers all `MR` loads.
    let len = (panel.len() / W - 1) * k_stride + 1;
    let mut rows = [&a[..0]; MR];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &a[r.min(mr - 1) * row_stride..][..len];
    }
    // `acc` is indexed by constants only, so it stays in registers; the
    // run-time bounds of a short tile apply to `stage`.
    let mut stage = [[0.0_f32; W]; MR];
    for (r, row) in stage.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&out[r * n..][..nr]);
    }
    let mut acc = stage;
    for (kk, b_row) in panel.chunks_exact(W).enumerate() {
        let i = kk * k_stride;
        let mut av = [0.0_f32; MR];
        for (v, row) in av.iter_mut().zip(&rows) {
            *v = row[i];
        }
        // The row updates innermost, inside the column loop: left as the
        // outer loop, LLVM spills an 8-row tile.
        for (c, &bv) in b_row.iter().enumerate() {
            for (acc_row, &v) in acc.iter_mut().zip(&av) {
                acc_row[c] += v * bv;
            }
        }
    }
    stage = acc;
    for (r, row) in stage.iter().enumerate().take(mr) {
        out[r * n..][..nr].copy_from_slice(&row[..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Isa;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 3], 1.0, &mut rng);
        // aᵀ·b via t_matmul vs manual transpose.
        let at = {
            let mut t = Tensor::zeros(&[5, 4]);
            for i in 0..4 {
                for j in 0..5 {
                    t.data_mut()[j * 4 + i] = a.data()[i * 5 + j];
                }
            }
            t
        };
        assert_eq!(bits(at.matmul(&b).data()), bits(a.t_matmul(&b).data()));
        // a·cᵀ via matmul_t.
        let c = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let ct = {
            let mut t = Tensor::zeros(&[5, 7]);
            for i in 0..7 {
                for j in 0..5 {
                    t.data_mut()[j * 7 + i] = c.data()[i * 5 + j];
                }
            }
            t
        };
        assert_eq!(bits(a.matmul(&ct).data()), bits(a.matmul_t(&c).data()));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    // The three loop nests `gemm` replaced, kept as oracles: each computes
    // every element as `0.0 + a·b + a·b + …` over ascending `kk`.

    fn oracle_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k, n) = (a.shape[0], a.shape[1], b.shape[1]);
        let mut out = vec![0.0_f32; m * n];
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            let o = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.data[kk * n..(kk + 1) * n];
                for (oj, bj) in o.iter_mut().zip(b_row) {
                    *oj += av * bj;
                }
            }
        }
        out
    }

    fn oracle_t_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (k, m, n) = (a.shape[0], a.shape[1], b.shape[1]);
        let mut out = vec![0.0_f32; m * n];
        for kk in 0..k {
            let a_row = &a.data[kk * m..(kk + 1) * m];
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for i in 0..m {
                let av = a_row[i];
                if av == 0.0 {
                    continue;
                }
                let o = &mut out[i * n..(i + 1) * n];
                for (oj, bj) in o.iter_mut().zip(b_row) {
                    *oj += av * bj;
                }
            }
        }
        out
    }

    fn oracle_matmul_t(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k, n) = (a.shape[0], a.shape[1], b.shape[0]);
        let mut out = vec![0.0_f32; m * n];
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b.data[j * k..(j + 1) * k];
                let mut acc = 0.0_f32;
                for (av, bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Operand with exact `0.0` and `-0.0` entries; the rest are `±10^e`
    /// times a mantissa in [1, 10). With `wide`, `e` spans [-25, 15): products
    /// underflow to zero and to denormals but a sum of 512 of them stays
    /// finite. Otherwise `e` spans [-1, 1), so every add rounds.
    fn operand(shape: &[usize], wide: bool, rng: &mut ChaCha8Rng) -> Tensor {
        let (lo, hi) = if wide { (-25.0, 15.0) } else { (-1.0, 1.0) };
        let data = (0..shape.iter().product())
            .map(|_| match rng.gen_range(0..10_usize) {
                0 => 0.0,
                1 => -0.0,
                class => {
                    let sign = if class % 2 == 0 { 1.0 } else { -1.0 };
                    let mantissa: f32 = rng.gen_range(1.0..10.0);
                    sign * mantissa * 10.0_f32.powf(rng.gen_range(lo..hi))
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// `got` against `want` by `to_bits()`, then every instance the host
    /// runs on `product` against `want`.
    fn check_instances(
        what: &str,
        got: &Tensor,
        want: &[f32],
        product: Product<'_>,
    ) -> Result<(), String> {
        prop_assert_eq!(got.shape(), &[product.m, product.n]);
        prop_assert_eq!(bits(got.data()), bits(want), "{} (dispatched)", what);
        for kernel in Isa::ALL.into_iter().filter_map(Isa::kernel) {
            let got = bits(&kernel.gemm(product));
            prop_assert_eq!(&got, &bits(want), "{} ({:?})", what, kernel.isa);
        }
        Ok(())
    }

    /// All three products, dispatched and on every instance the host runs,
    /// against their oracles, bit for bit.
    fn check_products(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let wide = seed.is_multiple_of(2);
        let what = |op: &str| format!("{op} differs from its oracle at ({m},{k},{n}) seed {seed}");
        let product = |a, a_strides, b, b_transposed| Product {
            a,
            a_strides,
            b,
            b_transposed,
            m,
            k,
            n,
        };

        let a = operand(&[m, k], wide, &mut rng);
        let b = operand(&[k, n], wide, &mut rng);
        let got = a.matmul(&b);
        prop_assert!(got.data().iter().all(|v| v.is_finite()));
        check_instances(
            &what("matmul"),
            &got,
            &oracle_matmul(&a, &b),
            product(a.data(), (k, 1), b.data(), false),
        )?;

        let at = operand(&[k, m], wide, &mut rng);
        check_instances(
            &what("t_matmul"),
            &at.t_matmul(&b),
            &oracle_t_matmul(&at, &b),
            product(at.data(), (1, m), b.data(), false),
        )?;

        let bt = operand(&[n, k], wide, &mut rng);
        check_instances(
            &what("matmul_t"),
            &a.matmul_t(&bt),
            &oracle_matmul_t(&a, &bt),
            product(a.data(), (k, 1), bt.data(), true),
        )
    }

    #[test]
    fn products_match_the_old_kernels_bit_for_bit_on_fixed_shapes() {
        // The benchmark's linear layers; its attention heads (`dh = 16`, so
        // the context and the `dq`/`dk`/`dv` products land on the half
        // panel); `k` around one and two blocks, where a tile reloads its
        // chains from `out`; `n` at and one past the half panel; shapes
        // below, equal to and one past each instance's tile in `m`, and the
        // full tile in `n`; k = 0.
        let mut shapes = vec![
            (128, 128, 512),
            (128, 512, 128),
            (32, 16, 32),
            (32, 32, 16),
            (16, 16, 16),
            (1, 1, 1),
            (5, 0, 3),
            (9, KC - 1, 33),
            (9, KC, 33),
            (9, KC + 1, 17),
            (9, 2 * KC + 1, 33),
            (9, 7, NR / 2),
            (9, 7, NR / 2 + 1),
        ];
        for mr in Isa::ALL.map(Isa::mr) {
            shapes.extend([
                (mr + 1, 0, NR + 1),
                (mr - 1, 7, NR - 1),
                (mr, 7, NR),
                (mr + 1, 7, NR + 1),
                (2 * mr + 1, 33, 2 * NR + 1),
            ]);
        }
        for (i, (m, k, n)) in shapes.into_iter().enumerate() {
            // An even and an odd seed: wide and narrow magnitudes.
            for seed in [2 * i as u64, 2 * i as u64 + 1] {
                check_products(m, k, n, seed).unwrap();
            }
        }
    }

    #[test]
    fn the_pack_scratch_holds_one_panel_whatever_the_product() {
        // A scratch holding all of a transposed Bᵀ, kept at the largest
        // `k·n` a thread has seen, would hold 512 K floats after these two.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = Tensor::randn(&[4, 64], 1.0, &mut rng);
        a.matmul_t(&Tensor::randn(&[8192, 64], 1.0, &mut rng));
        a.matmul(&Tensor::randn(&[64, 8192], 1.0, &mut rng));
        let panel = PANEL.take();
        let held = panel.capacity();
        PANEL.set(panel);
        assert!(held <= KC * NR, "the pack scratch holds {held} floats");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn products_match_the_old_kernels_bit_for_bit(
            m in 0usize..=70,
            k in 0usize..=70,
            n in 0usize..=70,
            seed in 0usize..1_000_000,
        ) {
            check_products(m, k, n, seed as u64)?;
        }
    }

    /// The speed gate, a ratio that does not depend on how fast the host is
    /// at the moment: `matmul` at (128, 128, 512) on every instance the host
    /// runs, the dispatched one included, against `oracle_matmul`'s loop
    /// nest, interleaved in one process, median of 21 trials. A tile that
    /// spills its accumulators reads ≈ 0.3 ×. On a 2-core AVX-512 VM, six
    /// runs read 4.7–5.4 × for AVX-512, 3.3–3.5 × for AVX2 and 1.5–1.7 ×
    /// for portable, so the bound leaves ≥ 50 % slack on each. The earlier
    /// 4 × 32 kernel, with its row loop outside the column loop, read
    /// 2.4–2.6, 1.8–2.0 and 1.2–1.3 × there.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "times the release build")]
    fn every_instance_outruns_the_oracle_loop_nest() {
        const BOUND: f64 = 1.0;
        let (m, k, n) = (128, 128, 512);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let product = Product {
            a: a.data(),
            a_strides: (k, 1),
            b: b.data(),
            b_transposed: false,
            m,
            k,
            n,
        };
        let seconds = |f: &dyn Fn() -> Vec<f32>| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        };
        for kernel in Isa::ALL.into_iter().filter_map(Isa::kernel) {
            kernel.gemm(product); // the thread's first product allocates its panel
            let mut ratios: Vec<f64> = (0..21)
                .map(|_| seconds(&|| oracle_matmul(&a, &b)) / seconds(&|| kernel.gemm(product)))
                .collect();
            ratios.sort_by(f64::total_cmp);
            let median = ratios[ratios.len() / 2];
            assert!(
                median >= BOUND,
                "{:?} runs at {median:.2} × the oracle loop nest, under {BOUND}",
                kernel.isa
            );
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 4.0, 5.0]);
        assert_eq!(a.scale(0.5).data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(42);
        let mut r2 = ChaCha8Rng::seed_from_u64(42);
        assert_eq!(
            Tensor::randn(&[10], 0.02, &mut r1),
            Tensor::randn(&[10], 0.02, &mut r2)
        );
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn from_vec_checks_size() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }
}

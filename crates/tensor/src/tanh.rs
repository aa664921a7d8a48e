//! `tanh` for GELU: a branch-free transcription of fdlibm's `tanhf` and the
//! `expm1f` it calls — the code glibc's `tanhf` runs (checked against glibc
//! 2.36 on every f32) — so that it returns the C library's bits while the
//! compiler vectorises the loop that calls it, and so that those bits no
//! longer depend on which C library the host has.
//!
//! Every operation of the C source is kept, in its order and its
//! precision: separate f32 multiplies and adds (never `mul_add`), the
//! five-term `Q1..Q5` polynomial, no table. What changes is control flow
//! only. Each branch of the C code is computed and the result chosen with a
//! select or a bit mask, and every branch that `tanh` cannot reach is left
//! out (see [`expm1`]). Choosing never rounds, so the bits are the C code's.
//!
//! The C source carries this notice:
//!
//! > Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//! >
//! > Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//! >
//! > Developed at SunPro, a Sun Microsystems, Inc. business. Permission to
//! > use, copy, modify, and distribute this software is freely granted,
//! > provided that this notice is preserved.

/// `ln 2` split so that `k · LN2_HI` is exact for the `k` that occur.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// fdlibm's scaled expm1 coefficients.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `1.5 · 2²³`: adding it to an integral `|k| < 2²²` puts `k` in the low
/// mantissa bits, which is how `k` becomes an integer without a
/// float-to-int cast (a saturating `as i32` stops the loop vectorising).
const INT_SHIFT: f32 = 12_582_912.0;

/// `tanh(x)`, bit for bit fdlibm's `tanhf`: `±0`, subnormals and every
/// `|x| < 2⁻⁵⁵` return `x`, `|x| ≥ 22` and `±inf` return `±1`, and a NaN
/// returns itself quieted.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: 1 − 2/(t + 2) with t = expm1(2|x|); below: −t/(t + 2) with
    // t = expm1(−2|x|). `small` is all ones below 1, and it is built by a
    // shift and chooses by masking, not by a comparison and a select: from a
    // select the optimiser would split everything up to the divide into one
    // copy per side and compute both, where this way one `expm1` and one
    // divide serve both sides.
    let small = ((ix as i32).wrapping_sub(0x3f80_0000) >> 31) as u32;
    let a = f32::from_bits((2.0 * ax).to_bits() | (small & 0x8000_0000)); // ±2|x|
    let t = expm1(a);
    let numerator = f32::from_bits((small & (-t).to_bits()) | (!small & 2.0_f32.to_bits()));
    let q = numerator / (t + 2.0);
    let z = if small != 0 { q } else { 1.0 - q };
    // |x| ≥ 22 (±inf included): `1 − tiny`, which rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    // `(jx >= 0) ? z : -z`; every `z` above has its sign bit clear.
    let z = f32::from_bits(z.to_bits() ^ (jx & 0x8000_0000));
    // |x| < 2⁻⁵⁵, ±0 included: `x·(1 + x)`, which is `x`.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // NaN: the C code's `1/x ± 1` returns `x` quieted, as `x + x` does.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// `expm1(a)`, bit for bit fdlibm's `expm1f`, for the arguments [`tanh`]
/// passes: `a = 2|x| ∈ [2, 44)` or `a = −2|x| ∈ (−2, 0]`. So `k`, the
/// multiple of `ln 2` the reduction takes out, is `0`, `−1`, `−2`, `−3` or
/// in `[2, 64)`: the C code's overflow, `a < −27 ln 2` and `k = 1` branches
/// cannot be reached and are left out. Any other argument gives garbage,
/// never a panic.
#[inline(always)]
fn expm1(a: f32) -> f32 {
    let ia = a.to_bits() & 0x7fff_ffff;
    let neg = a < 0.0;
    // Argument reduction: a = k·ln2 + r, with c the rounding error of r.
    // `kf = 0` gives `hi = a`, `lo = 0`, `r = a`, `c = 0` exactly, and
    // `kf = ±1` the C code's `a ∓ ln2_hi`, `±ln2_lo`, so one formula serves
    // all three of its cases.
    let kf = if ia <= 0x3eb1_7218 {
        0.0 // |a| ≤ 0.5 ln2
    } else if ia < 0x3f85_1592 {
        if neg {
            -1.0 // |a| < 1.5 ln2
        } else {
            1.0
        }
    } else {
        (INVLN2 * a + if neg { -0.5 } else { 0.5 }).trunc()
    };
    let k = ((kf + INT_SHIFT).to_bits() as i32).wrapping_sub(INT_SHIFT.to_bits() as i32);
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    // expm1(r) on the primary range. With `c = 0` (k = 0) the correction
    // below is the C code's `r·e − hxs` exactly.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let e = (r * (e - c) - c) - hxs;

    // Reconstruct 2ᵏ·(1 + expm1(r)) − 1, choosing the C code's branch.
    // `2⁻ᵏ` is a normal float for every k that occurs, and `1 − 2⁻ᵏ` is exact
    // for k < 23.
    let two_to_minus_k = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let far = k <= -2 || k > 56;
    let y = if far || k < 23 {
        (if far { 1.0 } else { 1.0 - two_to_minus_k }) - (e - r)
    } else {
        (r - (e + two_to_minus_k)) + 1.0
    };
    let y = f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32)); // y·2ᵏ
    let y = if far { y - 1.0 } else { y };
    let y = if k == -1 { 0.5 * (r - e) - 0.5 } else { y };
    let y = if k == 0 { r - e } else { y };
    // |a| < 2⁻²⁵: a itself.
    if ia < 0x3300_0000 {
        a
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Isa, Kernel};

    /// fdlibm's `tanhf`, transcribed line for line with its branches: the
    /// oracle the branch-free [`tanh`] is held to.
    fn fdlibm_tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z;
        if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = fdlibm_expm1f(2.0 * x.abs());
                z = 1.0 - 2.0 / (t + 2.0);
            } else {
                let t = fdlibm_expm1f(-2.0 * x.abs());
                z = -t / (t + 2.0);
            }
        } else {
            z = 1.0 - 1.0e-30;
        }
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// fdlibm's `expm1f`, transcribed line for line with its branches.
    fn fdlibm_expm1f(x: f32) -> f32 {
        const HUGE: f32 = 1.0e30;
        const TINY: f32 = 1.0e-30;
        const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
        let mut x = x;
        let xsb = x.to_bits() & 0x8000_0000;
        let hx = x.to_bits() & 0x7fff_ffff;
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if xsb == 0 { x } else { -1.0 };
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE;
                }
            }
            if xsb != 0 {
                return TINY - 1.0;
            }
        }
        let (k, c): (i32, f32);
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                if xsb == 0 {
                    (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
                } else {
                    (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
                }
            } else {
                k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI;
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - (HUGE + x));
        } else {
            (k, c) = (0, 0.0);
        }
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 {
                -2.0 * (e - (x + 0.5))
            } else {
                1.0 + 2.0 * (x - e)
            };
        }
        let add_k = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
        if k <= -2 || k > 56 {
            return add_k(1.0 - (e - x)) - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
            add_k(t - (e - x))
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            add_k((x - (e + t)) + 1.0)
        }
    }

    /// Every instance of the kernels the host runs.
    fn instances() -> Vec<Kernel> {
        Isa::ALL.into_iter().filter_map(Isa::kernel).collect()
    }

    /// `xs` through the oracle, the inline [`tanh`] and every instance, by
    /// `to_bits()`.
    fn check(xs: &[f32]) {
        let want: Vec<u32> = xs.iter().map(|&x| fdlibm_tanhf(x).to_bits()).collect();
        let inline: Vec<u32> = xs.iter().map(|&x| tanh(x).to_bits()).collect();
        let first_diff = |got: &[u32]| {
            let i = (0..xs.len()).find(|&i| got[i] != want[i]).unwrap();
            format!(
                "x = {:e} ({:#010x}): {:#010x}, fdlibm {:#010x}",
                xs[i],
                xs[i].to_bits(),
                got[i],
                want[i]
            )
        };
        assert!(inline == want, "inline tanh: {}", first_diff(&inline));
        for kernel in instances() {
            let mut out = vec![0.0; xs.len()];
            kernel.tanh(xs, &mut out);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert!(got == want, "{:?} tanh: {}", kernel.isa, first_diff(&got));
        }
    }

    /// `x`, its 8 neighbours on each side and the negatives of all of them.
    fn around(x: f32) -> impl Iterator<Item = f32> {
        let b = x.to_bits();
        (b.saturating_sub(8)..=b.saturating_add(8))
            .map(f32::from_bits)
            .flat_map(|v| [v, -v])
    }

    #[test]
    fn tanh_matches_fdlibm_at_every_branch_boundary() {
        // `tanh` switches at |x| = 2⁻⁵⁵, 1 and 22; `expm1` at |a| = 2⁻²⁵,
        // 0.5 ln2 and 1.5 ln2 (a = −2|x|); its reconstruction at k = 23 and
        // 57 and `k` itself at every step, where a = 2|x| = (k − 0.5)·ln2.
        let mut xs: Vec<f32> = [
            f32::from_bits(0x2400_0000),
            f32::from_bits(0x3300_0000) / 2.0,
            f32::from_bits(0x3eb1_7218) / 2.0,
            f32::from_bits(0x3f85_1592) / 2.0,
            1.0,
            22.0,
            f32::MIN_POSITIVE,
            f32::MAX,
        ]
        .into_iter()
        .flat_map(around)
        .collect();
        for k in 2..=64 {
            let a = (k as f32 - 0.5) * std::f32::consts::LN_2;
            xs.extend(around(a / 2.0));
        }
        xs.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc0_1234),
        ]);
        check(&xs);
    }

    #[test]
    fn tanh_matches_fdlibm_on_a_dense_sweep() {
        // Every 4099th bit pattern (≈ 1.05 M inputs, both signs, NaNs
        // included) plus every float in [0.5, 0.5 + 2¹⁶ ulp): the range GELU
        // feeds it most.
        let mut xs: Vec<f32> = (0..=u32::MAX / 4099)
            .map(|i| f32::from_bits(i * 4099))
            .collect();
        let half = 0.5_f32.to_bits();
        xs.extend((half..half + (1 << 16)).map(f32::from_bits));
        check(&xs);
    }

    #[test]
    fn tanh_is_within_2_2_ulp_of_the_exact_value() {
        // Over every f32 in [0, 22) (tanh is odd; above, it returns 1) the
        // error is at most 2.189 ulp, at x = 0.23329562. This checks every
        // 257th of them and that point.
        let ulp = |v: f64| {
            let a = (v.abs() as f32).max(f32::MIN_POSITIVE);
            2.0_f64.powi((a.to_bits() >> 23) as i32 - 127 - 23)
        };
        let worst_known = 0.233_295_62_f32.to_bits();
        let (mut worst, mut at) = (0.0_f64, 0.0_f32);
        for b in (0..22.0_f32.to_bits()).step_by(257).chain([worst_known]) {
            let x = f32::from_bits(b);
            let exact = (x as f64).tanh();
            let err = (tanh(x) as f64 - exact).abs() / ulp(exact);
            if err > worst {
                (worst, at) = (err, x);
            }
        }
        assert!(worst < 2.2, "max error {worst} ulp at x = {at:e}");
        assert_eq!(
            at.to_bits(),
            worst_known,
            "max error {worst} ulp at x = {at:e}"
        );
    }

    #[test]
    #[ignore = "4.3·10⁹ calls of the host C library's tanhf and three instances: ≈ 100 s on two cores"]
    fn tanh_equals_the_host_libm_on_every_f32() {
        // Every instance the host runs against `f32::tanh`, i.e. the host C
        // library: the claim is about glibc's fdlibm `tanhf`, and this fails
        // against a library that computes tanh another way.
        let kernels = instances();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        const CHUNK: usize = 1 << 16;
        let chunks = (1_usize << 32) / CHUNK;
        let mismatches: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let kernels = &kernels;
                    s.spawn(move || {
                        let mut bad = vec![0; kernels.len()];
                        let mut out = vec![0.0; CHUNK];
                        for chunk in (w..chunks).step_by(threads) {
                            let xs: Vec<f32> = (0..CHUNK)
                                .map(|i| f32::from_bits((chunk * CHUNK + i) as u32))
                                .collect();
                            let want: Vec<u32> = xs.iter().map(|x| x.tanh().to_bits()).collect();
                            for (kernel, bad) in kernels.iter().zip(&mut bad) {
                                kernel.tanh(&xs, &mut out);
                                for ((x, got), want) in xs.iter().zip(&out).zip(&want) {
                                    if got.to_bits() != *want {
                                        if *bad < 4 {
                                            eprintln!(
                                                "{:?}: x = {:#010x} gives {:#010x}, libm {want:#010x}",
                                                kernel.isa,
                                                x.to_bits(),
                                                got.to_bits(),
                                            );
                                        }
                                        *bad += 1;
                                    }
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .reduce(|a, b| a.iter().zip(&b).map(|(a, b)| a + b).collect())
                .unwrap()
        });
        for (kernel, bad) in kernels.iter().zip(&mismatches) {
            eprintln!("{:?}: {bad} mismatches in 2^32 inputs", kernel.isa);
        }
        assert!(mismatches.iter().all(|&bad| bad == 0));
    }
}

//! Run-time instruction-set dispatch for the crate's two hot loops: the
//! GEMM behind every product and the GELU forward with its `tanh`.
//!
//! Both bodies are `#[inline(always)]` and reached through one function,
//! [`run`], which is compiled three times on `x86_64` — for AVX-512F, for
//! AVX2 and portable — each with its own GEMM tile ([`Isa::mr`]). The first
//! call picks the widest instance the host reports, once per process, for
//! both loops together. Neither body lets a vector lane change what it
//! rounds, so every instance gives the same bits.

use std::sync::OnceLock;

use crate::ops::gelu;
use crate::tensor::{gemm, Product};

/// The instruction sets [`run`] is compiled for, widest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Avx512,
    Avx2,
    Portable,
}

impl Isa {
    pub(crate) const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Portable];

    /// Rows of this instance's `MR × NR` GEMM tile (DESIGN §5h). AVX-512's
    /// 8 × 32 holds its accumulators in 16 of its 32 zmm registers. 8 × 32
    /// would need 32 ymm on AVX2 and 64 xmm on SSE2, which have 16; there
    /// 3 × 32 and 2 × 32 measured fastest.
    pub(crate) const fn mr(self) -> usize {
        match self {
            Isa::Avx512 => 8,
            Isa::Avx2 => 3,
            Isa::Portable => 2,
        }
    }

    /// This instruction set's instance of [`run`], if the host runs it.
    pub(crate) fn kernel(self) -> Option<Kernel> {
        let run: unsafe fn(Op<'_>) = match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if is_x86_feature_detected!("avx512f") => run_avx512,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 if is_x86_feature_detected!("avx2") => run_avx2,
            Isa::Portable => run_portable,
            _ => return None,
        };
        Some(Kernel { isa: self, run })
    }
}

/// One call into an instance of [`run`].
pub(crate) enum Op<'a> {
    /// `out = A·B`; `out` is `[m, n]` and zeroed.
    Gemm(Product<'a>, &'a mut [f32]),
    /// GELU of `x`, writing its `tanh` to `t` and its output to `y`.
    Gelu {
        x: &'a [f32],
        t: &'a mut [f32],
        y: &'a mut [f32],
    },
    /// `out = tanh(x)` elementwise: the tests' handle on one instance's
    /// `tanh`.
    #[cfg(test)]
    Tanh(&'a [f32], &'a mut [f32]),
}

/// An instance of [`run`] the host runs; only [`Isa::kernel`] builds one.
#[derive(Clone, Copy)]
pub(crate) struct Kernel {
    #[cfg_attr(not(test), allow(dead_code))] // read by the tests
    pub(crate) isa: Isa,
    run: unsafe fn(Op<'_>),
}

impl Kernel {
    /// The widest instance the host runs, chosen on first use.
    pub(crate) fn widest() -> Kernel {
        static WIDEST: OnceLock<Kernel> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            Isa::ALL
                .into_iter()
                .find_map(Isa::kernel)
                .expect("the portable instance runs anywhere")
        })
    }

    /// `A·B` on this instance.
    pub(crate) fn gemm(self, product: Product<'_>) -> Vec<f32> {
        let mut out = vec![0.0_f32; product.m * product.n];
        self.call(Op::Gemm(product, &mut out));
        out
    }

    /// GELU of `x` on this instance: `t` gets the `tanh` inside it, `y`
    /// the output. All three are equally long.
    pub(crate) fn gelu(self, x: &[f32], t: &mut [f32], y: &mut [f32]) {
        self.call(Op::Gelu { x, t, y });
    }

    /// `out = tanh(x)` on this instance.
    #[cfg(test)]
    pub(crate) fn tanh(self, x: &[f32], out: &mut [f32]) {
        self.call(Op::Tanh(x, out));
    }

    #[allow(unsafe_code)]
    fn call(self, op: Op<'_>) {
        // SAFETY: `Isa::kernel` hands out an instance compiled with target
        // features only after `is_x86_feature_detected!` reports them.
        unsafe { (self.run)(op) }
    }
}

/// The one entry to the crate's kernels, with an `MR`-row GEMM tile. Every
/// body it reaches is `#[inline(always)]` and no closure runs their loops,
/// so each wrapper below compiles all of them for its own instruction set.
#[inline(always)]
fn run<const MR: usize>(op: Op<'_>) {
    match op {
        Op::Gemm(product, out) => gemm::<MR>(product, out),
        Op::Gelu { x, t, y } => gelu(x, t, y),
        #[cfg(test)]
        Op::Tanh(x, out) => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = crate::tanh::tanh(v);
            }
        }
    }
}

/// [`run`] compiled for AVX-512F; equal to the others bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512(op: Op<'_>) {
    run::<{ Isa::Avx512.mr() }>(op)
}

/// [`run`] compiled for AVX2; equal to the others bit for bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(op: Op<'_>) {
    run::<{ Isa::Avx2.mr() }>(op)
}

/// [`run`] compiled for the target's baseline (SSE2 on `x86_64`).
fn run_portable(op: Op<'_>) {
    run::<{ Isa::Portable.mr() }>(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn products_run_on_the_widest_instance_the_host_runs() {
        // The GEMM and GELU `tanh` share one instance, so one check covers
        // both: the widest ISA the host reports, and that ISA's own
        // compilation of `run`, not a narrower one.
        #[cfg(target_arch = "x86_64")]
        let (widest, instance): (Isa, unsafe fn(Op<'_>)) = if is_x86_feature_detected!("avx512f") {
            (Isa::Avx512, run_avx512)
        } else if is_x86_feature_detected!("avx2") {
            (Isa::Avx2, run_avx2)
        } else {
            (Isa::Portable, run_portable)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (widest, instance): (Isa, unsafe fn(Op<'_>)) = (Isa::Portable, run_portable);
        let kernel = Kernel::widest();
        assert_eq!(kernel.isa, widest);
        assert!(
            std::ptr::fn_addr_eq(kernel.run, instance),
            "Kernel::widest() reports {widest:?} but calls another instance"
        );
    }
}

//! Minimal f32 tensor library with manual autograd, built for the AutoPipe
//! runtime substrate.
//!
//! The paper's training back-end is PyTorch + CUDA; this crate is the
//! laptop-scale stand-in: dense row-major f32 tensors, one register-tiled
//! single-threaded GEMM, and hand-written forward/backward pairs for every operation a
//! GPT-2/BERT block needs (linear, layer-norm, GELU, softmax, multi-head
//! attention, embedding lookup, fused softmax-cross-entropy). Every
//! backward is validated against finite differences in the test suite.
//!
//! The two hot loops, the GEMM and the GELU forward, are compiled three
//! times on `x86_64` — for AVX-512F, for AVX2 and portable — and run on the
//! widest instance the host reports, chosen once per process for both. GELU's
//! `tanh` is a branch-free transcription of fdlibm's `tanhf`, equal to
//! glibc's on every f32, so the compiler can vectorise it. No instance
//! changes what a lane rounds, so all three give the same bits, and those
//! bits do not depend on the host's C library for `tanh`.

mod kernel;
pub mod nn;
pub mod ops;
pub mod optim;
mod tanh;
pub mod tensor;

pub use tensor::Tensor;

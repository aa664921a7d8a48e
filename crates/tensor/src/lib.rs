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
//! The GEMM body is compiled three times on `x86_64` — for AVX-512F, for
//! AVX2 and portable — and every product runs on the widest instance the
//! host reports at run time. Vector lanes only ever run across output
//! columns, so all three instances give the same bits.

pub mod nn;
pub mod ops;
pub mod optim;
pub mod tensor;

pub use tensor::Tensor;

//! Cost, communication and memory models for AutoPipe planning.
//!
//! The AutoPipe Planner consumes "model configs ... both configurations and
//! runtime statistics of a given DNN model, which can be collected offline
//! within several minutes" (Fig. 2). On the paper's testbed those statistics
//! come from profiling real CUDA kernels on RTX-3090s; here they come from an
//! analytic FLOPs/bytes model calibrated to the paper's own tables (an
//! effective per-device throughput of ≈15.5 TFLOP/s makes Tables III–IV
//! internally consistent), optionally perturbed by a synthetic [`profiler`]
//! to emulate measurement noise.
//!
//! Everything downstream — the analytic simulator, the discrete-event
//! cluster simulator, all four planners and the slicer — speaks in the units
//! defined here: **seconds** for durations, **bytes** for sizes. A block's
//! backward is the backward alone: activation checkpointing changes no
//! block cost, because the schedule runs and prices its re-forward as a
//! `Recompute` op.

pub mod comm;
pub mod costdb;
pub mod flops;
pub mod hardware;
pub mod memory;
pub mod profiler;

pub use comm::CommModel;
pub use costdb::{BlockCost, CostDb};
pub use hardware::Hardware;
pub use memory::{stage_memory, MemoryBreakdown};

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::{zoo, Granularity};

    /// Calibration check against the paper's own numbers: GPT-2 345M, pure
    /// data parallelism, mbs 4, Gbs 128 on 4 GPUs takes ≈6.5 s per iteration
    /// (Table III). Each device computes 32 samples with activation
    /// checkpointing.
    #[test]
    fn calibration_matches_table_iii_magnitude() {
        let cfg = zoo::gpt2_345m();
        let hw = Hardware::rtx3090_cluster();
        let db = CostDb::build(&cfg, &hw, 4, true, Granularity::SubLayer);
        let per_microbatch: f64 = db.blocks.iter().map(|b| b.fwd + b.bwd).sum();
        // 32 samples per device = 8 micro-batches of 4.
        let iter = per_microbatch * 8.0;
        assert!(
            (4.0..10.0).contains(&iter),
            "expected ~6.5s per iteration, got {iter:.2}s"
        );
    }
}

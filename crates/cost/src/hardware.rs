//! Hardware profiles.

use serde::Serialize;

/// Description of one device class plus the interconnect between devices.
///
/// The paper's platform: 4 nodes × 4 NVIDIA RTX-3090 (24 GB), 100 Gbps
/// InfiniBand between nodes. We model the cluster as flat (the paper notes
/// §IV-D that intra- and inter-device communication speeds were "almost
/// identical" in their environment, which is why AutoPipe skips device
/// placement entirely).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Hardware {
    /// Profile name for reports.
    pub name: String,
    /// Effective sustained throughput per device in FLOP/s. Calibrated to
    /// ≈15.5 TFLOP/s, the value that makes the paper's Tables III–IV
    /// self-consistent for an RTX-3090 running fp16 Megatron kernels.
    pub effective_flops: f64,
    /// Point-to-point link bandwidth in bytes/s (100 Gbps ⇒ 12.5 GB/s).
    pub link_bandwidth: f64,
    /// Per-message link latency in seconds.
    pub link_latency: f64,
    /// Device memory capacity in bytes (24 GB).
    pub mem_capacity: u64,
    /// Fraction of capacity usable for training state (the rest is CUDA
    /// context, fragmentation, workspace).
    pub mem_headroom: f64,
    /// Fixed per-operation launch/dispatch overhead in seconds. The analytic
    /// simulator ignores it (that is part of its "somewhat biased" gap in
    /// Fig. 11); the high-fidelity event simulator charges it per op.
    pub kernel_overhead: f64,
    /// Bytes per element of activations/weights on the wire and in memory
    /// (2 = fp16 mixed precision).
    pub elem_bytes: u64,
}

impl Hardware {
    /// The paper's 16×RTX-3090 / 100 Gbps InfiniBand testbed.
    pub fn rtx3090_cluster() -> Self {
        Hardware {
            name: "4x4 RTX-3090, 100Gbps IB".into(),
            effective_flops: 1.55e13,
            link_bandwidth: 12.5e9,
            link_latency: 30e-6,
            mem_capacity: 24 * (1 << 30),
            // CUDA context + NCCL buffers + cuDNN workspace + allocator
            // reserve leave roughly 20 GB of a 24 GiB card for training
            // state; calibrated jointly with the memory model against the
            // paper's OOM truth table (see autopipe-cost::memory).
            mem_headroom: 0.792,
            kernel_overhead: 60e-6,
            elem_bytes: 2,
        }
    }

    /// A modern reference profile: 8× A100-80GB with NVLink-class
    /// interconnect. Not part of the paper's evaluation — used by the
    /// ablations and tests to check that the planner *adapts* to hardware
    /// (e.g., configurations that must pipeline on 24 GB cards can run pure
    /// data parallelism on 80 GB cards).
    pub fn a100_cluster() -> Self {
        Hardware {
            name: "8x A100-80GB, NVLink".into(),
            effective_flops: 1.2e14,
            link_bandwidth: 150e9,
            link_latency: 8e-6,
            mem_capacity: 80 * (1 << 30),
            mem_headroom: 0.85,
            kernel_overhead: 25e-6,
            elem_bytes: 2,
        }
    }

    /// Usable memory budget in bytes.
    pub fn mem_budget(&self) -> u64 {
        (self.mem_capacity as f64 * self.mem_headroom) as u64
    }

    /// Time to compute `flops` floating-point operations on one device.
    pub(crate) fn compute_time(&self, flops: f64) -> f64 {
        flops / self.effective_flops
    }

    /// Time to move `bytes` across one link (α + β model). The paper
    /// observes (§II-B) that uni- and bidirectional transfers cost the same
    /// because stage-boundary tensors never saturate the link, so the event
    /// simulator gives every device an independent full-duplex link.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.link_latency + bytes as f64 / self.link_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_has_latency_floor() {
        let hw = Hardware::rtx3090_cluster();
        assert!(hw.transfer_time(0) >= hw.link_latency);
        assert!(hw.transfer_time(1 << 20) > hw.transfer_time(0));
    }

    #[test]
    fn mem_budget_below_capacity() {
        let hw = Hardware::rtx3090_cluster();
        assert!(hw.mem_budget() < hw.mem_capacity);
    }
}

//! Communication model helpers shared by simulators and planners.

use serde::Serialize;

use crate::hardware::Hardware;

/// Communication cost model: α + bytes/β per point-to-point message, ring
/// all-reduce for gradient synchronisation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CommModel {
    /// Per-message latency (α), seconds.
    pub latency: f64,
    /// Link bandwidth (β), bytes/s.
    pub bandwidth: f64,
}

impl CommModel {
    /// Extract the communication parameters from a hardware profile.
    pub fn from_hardware(hw: &Hardware) -> Self {
        CommModel {
            latency: hw.link_latency,
            bandwidth: hw.link_bandwidth,
        }
    }

    /// Ring all-reduce over `group` devices for `bytes`.
    pub(crate) fn allreduce(&self, bytes: u64, group: usize) -> f64 {
        if group <= 1 {
            return 0.0;
        }
        let g = group as f64;
        2.0 * (g - 1.0) / g * bytes as f64 / self.bandwidth + 2.0 * (g - 1.0) * self.latency
    }

    /// Gradient synchronisation time for a pipeline stage holding
    /// `param_bytes` of gradients, replicated `dp` ways. In Megatron-style
    /// hybrid parallelism this happens once per iteration after Cooldown.
    pub fn grad_sync(&self, param_bytes: u64, dp: usize) -> f64 {
        self.allreduce(param_bytes, dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_single_device_is_free() {
        let c = CommModel::from_hardware(&Hardware::rtx3090_cluster());
        assert_eq!(c.allreduce(1 << 30, 1), 0.0);
        assert!(c.allreduce(1 << 30, 4) > 0.0);
    }

    #[test]
    fn allreduce_volume_term_saturates_with_group_size() {
        // The 2(g-1)/g factor approaches 2 from below: bigger groups should
        // not drastically increase the bandwidth term.
        let c = CommModel::from_hardware(&Hardware::rtx3090_cluster());
        let t4 = c.allreduce(1 << 30, 4);
        let t16 = c.allreduce(1 << 30, 16);
        assert!(t16 < t4 * 1.5);
    }
}

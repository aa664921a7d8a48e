//! Shared planner output types.

use std::time::Duration;

use autopipe_sim::Partition;

/// A hybrid data×pipeline parallel plan, as produced by the DAPPLE and Piper
/// baselines (per-stage data-parallel widths) and by the Megatron/AutoPipe
/// strategy layer (uniform width).
#[derive(Debug, Clone)]
pub struct HybridPlan {
    /// Which planner produced this plan.
    pub planner: &'static str,
    /// Number of pipeline stages.
    pub stages: usize,
    /// Data-parallel width per stage (length = `stages`).
    pub dp: Vec<usize>,
    /// Contiguous block partition (over the planning cost database's block
    /// sequence).
    pub partition: Partition,
    /// The planner's own estimate of the iteration time, seconds.
    pub est_iteration_time: f64,
    /// How many candidate configurations the search evaluated.
    pub schemes_explored: usize,
    /// Wall-clock search time.
    pub search_time: Duration,
}

impl HybridPlan {
    /// The runtime check that fails DAPPLE's 16-GPU plan in Table III: a
    /// stage's data-parallel width may not exceed the micro-batch size
    /// (each replica must receive at least one sample of every micro-batch).
    pub fn runtime_check(&self, mbs: usize) -> Result<(), PlanError> {
        for (j, &g) in self.dp.iter().enumerate() {
            if g > mbs {
                return Err(PlanError::RuntimeError(format!(
                    "stage {j} uses data parallelism {g} > micro-batch size {mbs}"
                )));
            }
        }
        Ok(())
    }
}

/// Planning / execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No feasible configuration exists.
    Infeasible(String),
    /// The plan fails when actually launched (Table III's "-" entries).
    RuntimeError(String),
    /// The plan exceeds device memory when actually launched (Table IV's
    /// "OOM" entries).
    Oom(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible(s) => write!(f, "infeasible: {s}"),
            PlanError::RuntimeError(s) => write!(f, "runtime error: {s}"),
            PlanError::Oom(s) => write!(f, "OOM: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(dp: Vec<usize>) -> HybridPlan {
        let stages = dp.len();
        HybridPlan {
            planner: "test",
            stages,
            dp,
            partition: Partition::even(10, stages),
            est_iteration_time: 1.0,
            schemes_explored: 1,
            search_time: Duration::ZERO,
        }
    }

    #[test]
    fn runtime_check_flags_oversized_dp() {
        assert!(plan(vec![1, 15]).runtime_check(4).is_err());
        assert!(plan(vec![1, 3]).runtime_check(4).is_ok());
    }
}

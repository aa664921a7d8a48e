//! Pipeline planners.
//!
//! The paper's contribution plus the three baselines it compares against:
//!
//! * [`balanced`] — **Algorithm 1**: the O(n²·p) dynamic program that
//!   min–max partitions the block work sequence `f_i + b_i` into `p`
//!   contiguous stages.
//! * [`autopipe`] — the **AutoPipe Planner** (§III-B.2): starts from
//!   Algorithm 1's scheme, simulates it, finds the master stage, removes the
//!   Cooldown bubble behind the master stage (Eq. 1), and shifts the master
//!   stage forward by moving boundary blocks (with and without re-balancing
//!   the prefix via Algorithm 1), keeping the scheme with the minimum
//!   simulated iteration time.
//! * [`baselines::megatron`] — Megatron-LM's uniform layer split (the
//!   overall-performance baseline of Figs 9–10) and the chunked split for
//!   its interleaved schedule.
//! * [`baselines::dapple`] — a DAPPLE-Planner-style search over (stage
//!   count ≥ 2, contiguous layer split, per-stage data-parallel width)
//!   minimising the per-device throughput bottleneck; reproduces the
//!   rear-heavy two-stage plans and the dp-15 runtime error of Table III.
//! * [`baselines::piper`] — a Piper-style two-level search minimising
//!   time-per-sample over a *sampled* split space; reproduces the deeper,
//!   less balanced pipelines of Tables III–IV and Fig. 13.

//! * [`replan`] — **straggler-aware re-planning**: fold observed per-stage
//!   slowdowns back into the cost database, for [`PlanService::replan`] to
//!   re-run the AutoPipe planner on.
//! * [`family`] — **cross-family schedule search**: enumerate every schedule
//!   family (1F1B plain and sliced, GPipe, zero-bubble, interleaved) over
//!   matching balanced partitions, gate on validation + memory, and pick the
//!   fastest by the event simulator's untraced sweep (`replay_schedule`).

pub mod autopipe;
pub mod balanced;
pub mod baselines;
pub mod family;
pub mod replan;
pub mod service;
pub mod types;

pub use autopipe::{
    device_stage_costs, plan as autopipe_plan, AutoPipeConfig, AutoPipeOutcome, RecomputePolicy,
};
pub use balanced::balanced_partition;
pub use family::{plan_families, plan_families_with, FamilyCandidate, FamilyConfig, FamilyOutcome};
pub use replan::observed_cost_db;
pub use service::{PlanService, Served, ServiceStats, Source};
pub use types::{HybridPlan, PlanError};

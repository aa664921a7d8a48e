//! Workspace-root crate for the AutoPipe reproduction.
//!
//! This crate carries the repository's runnable examples (`examples/`),
//! cross-crate integration tests (`tests/`), and the [`Session`] facade —
//! the one front door that chains profile → plan → slice → simulate → run
//! over the member crates. The rest of the surface re-exports those crates
//! so examples and tests can use one import root.

pub mod session;

pub use autopipe_core::{
    Constraints, ElasticConfig, Error, MembershipConfig, RecoveryConfig, SchedulePolicy,
    SessionConfig,
};
pub use autopipe_planner::{PlanService, RecomputePolicy, ServiceStats};
pub use autopipe_runtime::{ElasticAction, ElasticEvent, RecoveryAction, RecoveryRecord};
pub use session::{PlannedSession, RunReport, Session, SimReport};

pub use autopipe_core as core;
pub use autopipe_cost as cost;
pub use autopipe_model as model;
pub use autopipe_planner as planner;
pub use autopipe_runtime as runtime;
pub use autopipe_schedule as schedule;
pub use autopipe_sim as sim;
pub use autopipe_slicer as slicer;
pub use autopipe_tensor as tensor;

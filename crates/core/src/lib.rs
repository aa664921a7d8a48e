//! AutoPipe: the end-to-end facade (Fig. 2).
//!
//! `model configs → AutoPipe Planner → AutoPipe Slicer → distributed plan`.
//!
//! [`SessionConfig`] describes the training job (model, cluster, batch
//! geometry) and the run around it. [`AutoPipe::plan_with`], the one
//! planning pass, selects the data×pipeline strategy (§IV-D: "its
//! data-parallel size is the number of GPUs over the pipeline stages",
//! combined "in the way Megatron-LM uses") and runs the Planner for the
//! chosen depth through an `autopipe_planner::PlanService` (repeat passes
//! are cache hits). [`Plan::slice`], the one slicing step, feeds the
//! partition to the Slicer and keeps the recompute mask the search chose.
//! A [`Plan`] stores no estimate: [`Plan::price`] computes its time on the
//! stage costs the planner, the Slicer and the simulation all use.

pub mod config;
pub mod error;
pub mod plan;
pub mod strategy;
pub mod table2;

pub use config::{
    Constraints, ElasticConfig, MembershipConfig, RecoveryConfig, SchedulePolicy, SessionConfig,
    StragglerConfig, WatchdogConfig,
};
pub use error::Error;
pub use plan::{AutoPipe, Plan};
pub use strategy::{choose_strategy, StrategyChoice};

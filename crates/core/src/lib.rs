//! AutoPipe: the end-to-end facade (Fig. 2).
//!
//! `model configs → AutoPipe Planner → AutoPipe Slicer → distributed plan`.
//!
//! [`SessionConfig`] describes the training job (model, cluster, batch
//! geometry) and the run around it; [`AutoPipe::plan`] selects the
//! data×pipeline strategy (§IV-D: "its data-parallel size is the number of
//! GPUs over the pipeline stages", combined "in the way Megatron-LM uses"),
//! runs the Planner for the chosen depth, feeds the partition to the
//! Slicer, and returns an executable [`Plan`] with the sliced 1F1B schedule.
//!
//! There is one planning pass, [`AutoPipe::plan_with`]: every partition
//! search goes through an `autopipe_planner::PlanService` (one per
//! candidate depth, so repeat passes are cache hits). [`Plan::slice`], the
//! one slicing step, keeps the recompute mask the search chose.
//! [`AutoPipe::plan`] runs both on a fresh service in the config's search
//! settings.

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

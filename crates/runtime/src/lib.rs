//! Threaded pipeline-parallel training engine.
//!
//! The paper's back-end is Megatron-LM on a 16-GPU cluster; this crate is
//! the executable stand-in: **OS threads are devices, crossbeam channels are
//! NCCL links**, and every schedule the planner/slicer emits runs here on
//! real tensors from [`autopipe_tensor`]. It exists to prove three things
//! end-to-end:
//!
//! 1. generated schedules (1F1B and sliced-1F1B, any partition) are
//!    executable and deadlock-free on a real concurrent runtime;
//! 2. pipeline-parallel training is numerically equivalent to single-device
//!    training (the consistency property the paper's dependency rules exist
//!    to guarantee, Fig. 1) — including with activation checkpointing and
//!    with micro-batch slicing. A re-forward runs only as the schedule's
//!    `Recompute` op: global checkpointing is lowered into the running
//!    schedule, a forward drops its caches exactly when a later `Recompute`
//!    rebuilds them, and a backward never rebuilds caches itself;
//! 3. data×pipeline hybrid training with gradient all-reduce matches the
//!    same single-device reference.
//!
//! Scope: sub-layer-granularity GPT-family stages, under every schedule
//! family the planner emits, interleaved included.

//!
//! Each stage thread runs the shared op interpreter ([`autopipe_exec::Cursor`])
//! over its device's program, the same one the event simulator runs.
//!
//! Fault tolerance (see `DESIGN.md`): injected [`autopipe_exec::FaultPlan`]
//! scripts replay in wall time, every channel wait runs under a stall
//! [`watchdog`], and
//! [`Pipeline::repartition`](engine::Pipeline::repartition) hot-swaps plans
//! between iterations without perturbing training numerics. What a run does
//! between steps — checkpoint, restore and replay, shrink, grow, re-plan
//! around a slow device, or halt — is decided in one place, the pure
//! [`Controller`], which folds each step's outcome into ordered
//! [`controller::Action`]s and owns the [`ClusterMembership`] record of who
//! serves and how slow each device is; [`RecoveryStore`] is its checkpoint
//! I/O.

pub mod adaptive;
pub mod checkpoint;
pub mod controller;
pub mod data;
pub mod elastic;
pub mod engine;
pub mod membership;
pub mod recovery;
pub mod reference;
mod stage;
pub mod watchdog;

pub use autopipe_core::{StragglerConfig, WatchdogConfig};
pub use checkpoint::{
    restore_states, BackgroundCheckpointer, CheckpointError, CheckpointStore, FailPoint, Manifest,
    ModelShape, PipelineSnapshot, StagePayload, StageState, WriterStatus,
};
pub use controller::{Action, Controller, Outcome};
pub use data::BatchSet;
pub use elastic::{ElasticAction, ElasticEvent};
pub use engine::{IterationStats, Pipeline, PipelineConfig};
pub use membership::{ClusterMembership, DeviceState, MemberEvent, TimedEvent, Transition};
pub use recovery::{RecoveryAction, RecoveryRecord, RecoveryStore};
pub use reference::ReferenceModel;
pub use watchdog::{CrashEvent, FaultReport, RuntimeError, WatchdogEvent};

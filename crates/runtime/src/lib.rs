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
//!    with micro-batch slicing;
//! 3. data×pipeline hybrid training with gradient all-reduce matches the
//!    same single-device reference.
//!
//! Scope: sub-layer-granularity GPT-family stages (the interleaved schedule
//! is evaluated in the discrete-event simulator only).

//!
//! Each stage thread runs the shared op interpreter ([`autopipe_exec::Cursor`])
//! over its device's program, the same one the event simulator runs.
//!
//! Fault tolerance (see `DESIGN.md`): injected [`autopipe_exec::FaultPlan`]
//! scripts replay in wall time, every channel wait runs under a stall
//! [`watchdog`], persistent stragglers are detected by
//! [`adaptive::StragglerMonitor`], and
//! [`Pipeline::repartition`](engine::Pipeline::repartition) hot-swaps plans
//! between iterations without perturbing training numerics.

pub mod adaptive;
pub mod checkpoint;
pub mod data;
pub mod elastic;
pub mod engine;
pub mod membership;
pub mod recovery;
pub mod reference;
pub mod stage;
pub mod watchdog;

pub use adaptive::{StragglerMonitor, StragglerObservation};
pub use autopipe_core::{StragglerConfig, WatchdogConfig};
pub use checkpoint::{
    restore_states, BackgroundCheckpointer, CheckpointError, CheckpointStore, FailPoint, Manifest,
    ModelShape, PipelineSnapshot, StagePayload, StageState, WriterStatus,
};
pub use data::BatchSet;
pub use elastic::{ElasticAction, ElasticCoordinator, ElasticEvent};
pub use engine::{IterationStats, Pipeline, PipelineConfig};
pub use membership::{ClusterMembership, DeviceState, MemberEvent, TimedEvent, Transition};
pub use recovery::{RecoveryAction, RecoveryCoordinator, RecoveryRecord};
pub use reference::ReferenceModel;
pub use watchdog::{CrashEvent, FaultReport, RuntimeError, WatchdogEvent};

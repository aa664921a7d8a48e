//! The executor spine: everything the two schedule executors share.
//!
//! The workspace has two ways of *running* a [`autopipe_schedule::Schedule`]:
//! the discrete-event cluster simulator (`autopipe-sim`) and the threaded
//! training runtime (`autopipe-runtime`). Before this crate existed each kept
//! private copies of the same machinery — message keys, per-edge FIFO
//! bookkeeping, stash-based receives, ad-hoc timing structs. This crate hoists
//! that machinery into one place:
//!
//! * [`MsgKey`] / [`op_key`] — the message identity that pairs every send with
//!   its receive, including the chunk-disambiguation needed by interleaved
//!   schedules.
//! * [`Transport`] — how messages move between devices. Two implementations:
//!   [`VirtualTransport`] (simulated time: α+β link costs, per-directed-edge
//!   FIFO ordering, optional jitter/latency fault injection) and
//!   [`ChannelEndpoint`] (wall-clock time: one crossbeam channel per directed
//!   edge plus a stash, for the thread-per-device runtime).
//! * [`Timeline`] / [`TraceEvent`] — the one trace format both executors emit,
//!   with derived metrics (iteration time, bubble ratio, per-device
//!   utilisation and breakdowns, Warmup/1F1B/Cooldown phase times, startup
//!   overhead) and Chrome-trace export.
//! * [`TraceSink`] / [`Recorder`] / [`NoTrace`] — how executors emit events,
//!   including a zero-overhead untraced path for hot loops.
//!
//! Layering: this crate sits between `autopipe-schedule` (it consumes the op
//! IR) and the executors (which consume this crate); it knows nothing about
//! tensors, models or costs beyond the [`LinkCost`] abstraction.

pub mod fault;
pub mod msg;
pub mod recorder;
pub mod timeline;
pub mod transport;

pub use fault::{
    splitmix64, unit, DeviceLost, FailStopKind, FaultPlan, FaultSpec, LinkDegrade,
    MembershipChange, MembershipFault, MessageDrop, StageCrash, StageStall, Straggler,
};
pub use msg::{op_key, MsgKey};
pub use recorder::{NoTrace, Recorder, TraceSink, WallClock};
pub use timeline::{DeviceBreakdown, OpTimes, Timeline, TraceEvent, TraceMismatch};
pub use transport::{
    channel_mesh, schedule_edges, AlphaBeta, ChannelEndpoint, ChannelSender, ChunkPayload,
    CommConfig, LinkCost, LinkFault, LinkStorage, Transport, VirtualTransport,
};

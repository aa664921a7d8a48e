//! The executor spine: everything the two schedule executors share.
//!
//! The workspace has two ways of *running* a [`autopipe_schedule::Schedule`]:
//! the discrete-event cluster simulator (`autopipe-sim`) and the threaded
//! training runtime (`autopipe-runtime`). Before this crate existed each kept
//! private copies of the same machinery — message keys, per-edge FIFO
//! bookkeeping, stash-based receives, ad-hoc timing structs. This crate hoists
//! that machinery into one place:
//!
//! * [`Cursor`] / [`Device`] — the one op interpreter. A cursor walks one
//!   device's program, decodes each op, applies the [`FaultPlan`] to it once
//!   (fail-stop, stall, straggler factor, link delay) and hands it to a
//!   device that supplies only the clock, compute, send and receive: a cost
//!   lookup in virtual time for the simulator, tensor math in wall time for
//!   the runtime.
//! * [`MsgKey`] — the message identity that pairs every send with its
//!   receive, including the chunk-disambiguation needed by interleaved
//!   schedules.
//! * The transports the two devices move messages with:
//!   [`VirtualTransport`] (simulated time: α+β link costs, per-directed-edge
//!   FIFO ordering, the script's link delay per message, and the chunked
//!   overlapped send of [`CommConfig`]) and [`ChannelEndpoint`] (wall-clock
//!   time: one unbounded channel per directed edge plus a stash, for the
//!   thread-per-device runtime; a send never blocks, so the runtime has one
//!   send path and no comm thread).
//! * [`Timeline`] / [`TraceEvent`] — the one trace format both executors emit,
//!   with derived metrics (iteration time, bubble ratio, per-device
//!   utilisation and breakdowns, Warmup/1F1B/Cooldown phase times, startup
//!   overhead) and Chrome-trace export.
//! * [`TraceSink`] / [`Recorder`] / [`NoTrace`] — how executors emit events,
//!   including a zero-overhead untraced path for hot loops.
//!
//! Layering: this crate sits between `autopipe-schedule` (it consumes the op
//! IR) and the executors (which consume this crate); it knows nothing about
//! tensors, models or costs beyond the α+β link model ([`AlphaBeta`]).

pub mod cursor;
pub mod fault;
pub mod msg;
pub mod recorder;
pub mod timeline;
pub mod transport;

pub use cursor::{Cursor, Device, Entry, Faults, Step};
pub use fault::{
    splitmix64, unit, DeviceLost, FailStopKind, FaultPlan, FaultSpec, LinkDegrade,
    MembershipChange, MembershipFault, MessageDrop, StageCrash, StageStall, Straggler,
};
pub use msg::MsgKey;
pub use recorder::{NoTrace, Recorder, TraceSink, WallClock};
pub use timeline::{DeviceBreakdown, OpTimes, Timeline, TraceEvent, TraceMismatch};
pub use transport::{
    channel_mesh, schedule_edges, AlphaBeta, ChannelEndpoint, CommConfig, VirtualTransport,
};

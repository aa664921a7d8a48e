//! Pipeline simulators.
//!
//! Two simulators live here, mirroring the paper's methodology, each with
//! exactly one timing loop:
//!
//! * [`analytic`] — the **AutoPipe pipeline simulator** (§III-B.1). Given a
//!   partition scheme's per-stage forward/backward times and a communication
//!   cost, it computes the start time of every operation of the synchronous
//!   1F1B schedule, the iteration time, the **critical path** (unique, ties
//!   broken toward the last stage) and the **master stage**. One sweep over
//!   the 1F1B program, run over `L` candidates in lockstep with each lane
//!   bit-identical to a one-candidate run, serves `simulate_time_lanes`
//!   (scalars only, allocation-free over reusable [`SimScratch`] buffers —
//!   the planner scores [`LANES`] candidates per call), `simulate_time`
//!   (its one-lane instance) and `simulate_replay` (one lane, plus the op
//!   arena and critical path); a stage that recomputes pays `f` before each
//!   backward that does not follow its own forward, as the schedule's
//!   `Recompute` op does. The paper's closed-form `recurrence` (block-renumbered
//!   1F1B equations + reverse-renumbered Cooldown equations + Warmup
//!   estimated from one micro-batch's total forward time) is the independent
//!   oracle; it agrees up to the paper's own approximations.
//!
//! * [`event`] — a **discrete-event cluster simulator** that executes any
//!   [`autopipe_schedule::Schedule`] (1F1B, GPipe, interleaved, sliced)
//!   against a cost database, with per-device compute engines, per-edge
//!   FIFO links (α+β cost), optional per-op jitter and launch overhead, and
//!   static memory feasibility checks. This is the stand-in for the paper's
//!   16-GPU testbed: all "measured" numbers in the experiment harness come
//!   from here. It is one of the two devices the shared op interpreter
//!   ([`autopipe_exec::Cursor`]) drives. One sweep serves `run_schedule`
//!   (traced), `run_schedule_faulty` / `run_schedule_failstop` (scripted
//!   faults) and [`replay_schedule`] (no recorder, reusable scratch — what
//!   search loops score schedule families with).

pub mod analytic;
pub mod event;
pub mod memcheck;
pub mod metrics;
pub mod partition;

pub use analytic::{
    simulate_replay, simulate_replay_masked, simulate_time, simulate_time_lanes,
    simulate_time_masked, AnalyticResult, FastResult, OpClass, OpTime, OverlapModel, Phase,
    SimScratch, LANES,
};
pub use autopipe_exec::{CommConfig, FaultPlan};
pub use event::{
    replay_schedule, run_schedule, run_schedule_failstop, run_schedule_faulty, EventConfig,
    EventCosts, EventResult, EventSummary, FailStopResult, ReplayScratch, SimCrash, SimError,
};
pub use partition::{Partition, StageCosts};

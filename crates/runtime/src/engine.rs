//! The pipeline execution engine: one thread per device, channels as links.
//!
//! Every schedule kind the paper discusses executes here — GPipe, 1F1B,
//! AutoPipe's sliced 1F1B, and Megatron-LM's interleaved schedule (each
//! device hosting `v` model chunks, with wrap-around links between the last
//! and first devices).
//!
//! Message movement and telemetry ride the shared executor spine
//! ([`autopipe_exec`]): links are a [`ChannelEndpoint`] mesh (stash-based
//! keyed receive included), and every iteration emits the same [`Timeline`]
//! format the discrete-event simulator produces, so a real threaded run can
//! be compared op for op against a simulated one (see
//! [`Pipeline::last_timeline`]).
//!
//! Each stage thread is a [`Cursor`] over its device's program driving a
//! `Worker`, the runtime's [`Device`]: the cursor decodes every op and
//! applies the fault script once; the worker runs the op's
//! `StageModel` tensor math, sleeps the injected delays and receives
//! under the stall [`watchdog`](crate::watchdog), all in wall time.
//!
//! Fault tolerance: a seeded [`FaultPlan`] replays here in wall time (the
//! same script, through the same interpreter, that the event simulator
//! replays in virtual time), no channel wait blocks indefinitely, and
//! [`Pipeline::repartition`] hot-swaps the partition between iterations,
//! migrating parameters and Adam moments stage-to-stage through the
//! checkpoint path.

use std::time::{Duration, Instant};

use autopipe_exec::{
    channel_mesh, schedule_edges, ChannelEndpoint, Cursor, Device, Entry, FailStopKind, FaultPlan,
    Faults, MsgKey, OpTimes, Recorder, Step, Timeline, TraceSink, WallClock,
};
use autopipe_model::ModelConfig;
use autopipe_schedule::{OpKind, Part, Schedule};
use autopipe_sim::Partition;
use autopipe_tensor::{optim::Adam, Tensor};

use crate::checkpoint::{ModelShape, PipelineSnapshot};
use crate::data::BatchSet;
use crate::stage::{
    build_modules, concat_halves, split_halves, Module, StageInput, StageModel, StageOutput,
};
use crate::watchdog::{
    deadlines_from_timeline, CrashEvent, FaultReport, RuntimeError, Watchdog, WatchdogEvent,
};
use crate::WatchdogConfig;

use std::collections::HashMap;

/// Configuration of a pipeline runtime.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model architecture (use a laptop-scale config).
    pub model: ModelConfig,
    /// Partition over the model's sub-layer block sequence — one entry per
    /// *stage* (`devices × chunks` stages for interleaved schedules).
    pub partition: Partition,
    /// Schedule to execute.
    pub schedule: Schedule,
    /// Adam learning rate.
    pub lr: f32,
    /// Parameter-init seed (shared with [`crate::ReferenceModel`]).
    pub seed: u64,
    /// Activation checkpointing (§II-C).
    pub checkpointing: bool,
}

impl PipelineConfig {
    /// Lower a validated [`autopipe_core::SessionConfig`] plus the planned
    /// partition/schedule into the runtime's own config struct — the
    /// runtime-side half of the one-config story (the planner and simulator
    /// lowerings live in `autopipe-core` itself).
    pub fn from_session(
        cfg: &autopipe_core::SessionConfig,
        partition: Partition,
        schedule: Schedule,
    ) -> PipelineConfig {
        PipelineConfig {
            model: cfg.model.clone(),
            partition,
            schedule,
            lr: cfg.lr,
            seed: cfg.seed,
            checkpointing: cfg.checkpointing,
        }
    }
}

/// Result of one training iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterationStats {
    /// Mean loss over the iteration's micro-batches.
    pub loss: f32,
    /// Wall-clock time of the pipelined section (derived from the
    /// iteration's [`Timeline`]).
    pub wall: Duration,
}

/// A pipeline-parallel training run: per-device chunk stages plus the
/// schedule driving them.
pub struct Pipeline {
    /// `stages[device][chunk]`.
    stages: Vec<Vec<StageModel>>,
    schedule: Schedule,
    partition: Partition,
    model: ModelShape,
    checkpointing: bool,
    faults: Option<FaultPlan>,
    /// Wall seconds per virtual fault second.
    time_scale: f64,
    watchdog_cfg: WatchdogConfig,
    deadlines: Option<Vec<Vec<Duration>>>,
    last_timeline: Option<Timeline>,
    last_peak_in_flight: Option<Vec<f64>>,
    last_report: Option<FaultReport>,
}

/// Which stages run their forwards checkpointed: every stage under global
/// activation checkpointing, else the stages the schedule recomputes
/// (caches are dropped at `Fwd` and rebuilt by the `Recompute` op).
fn checkpointed_stages(checkpointing: bool, sched: &Schedule) -> Vec<bool> {
    autopipe_schedule::recompute_mask(sched)
        .into_iter()
        .map(|recompute| checkpointing || recompute)
        .collect()
}

impl Pipeline {
    /// Build stages from a deterministic full-model initialisation,
    /// validating the configuration instead of panicking on it.
    pub fn try_new(cfg: &PipelineConfig) -> Result<Pipeline, RuntimeError> {
        let p = cfg.schedule.n_devices;
        let v = cfg.schedule.n_chunks;
        if cfg.schedule.n_stages() != cfg.partition.n_stages() {
            return Err(RuntimeError::InvalidConfig(format!(
                "schedule has {} chunk-stages but partition has {}",
                cfg.schedule.n_stages(),
                cfg.partition.n_stages()
            )));
        }
        if !(cfg.lr.is_finite() && cfg.lr > 0.0) {
            return Err(RuntimeError::InvalidConfig(format!(
                "learning rate must be finite and positive, got {}",
                cfg.lr
            )));
        }
        let all = build_modules(&cfg.model, cfg.seed);
        if cfg.partition.n_blocks() != all.len() {
            return Err(RuntimeError::InvalidConfig(format!(
                "partition covers {} blocks but the model lowers to {}",
                cfg.partition.n_blocks(),
                all.len()
            )));
        }
        let ckpt = checkpointed_stages(cfg.checkpointing, &cfg.schedule);
        let stages = (0..p)
            .map(|d| {
                (0..v)
                    .map(|c| {
                        let stage = cfg.schedule.stage_of(d, c);
                        StageModel::new(
                            &all,
                            &cfg.partition,
                            stage,
                            cfg.model.seq_len,
                            cfg.lr,
                            ckpt[stage],
                        )
                    })
                    .collect()
            })
            .collect();
        Ok(Pipeline {
            stages,
            schedule: cfg.schedule.clone(),
            partition: cfg.partition.clone(),
            model: ModelShape::of(&cfg.model),
            checkpointing: cfg.checkpointing,
            faults: None,
            time_scale: 1.0,
            watchdog_cfg: WatchdogConfig::default(),
            deadlines: None,
            last_timeline: None,
            last_peak_in_flight: None,
            last_report: None,
        })
    }

    /// Install a fault script. All the script's delays are in virtual
    /// seconds; the runtime sleeps `time_scale` wall seconds per virtual
    /// second, so the same script the event simulator replays exactly can
    /// be replayed here at laptop-friendly speed.
    pub fn set_faults(&mut self, plan: FaultPlan, time_scale: f64) {
        self.faults = Some(plan);
        self.time_scale = time_scale.max(0.0);
    }

    /// Drop only the *fail-stop* events (crashes, device losses) from the
    /// installed fault script, keeping delays/stragglers/stalls. The
    /// recovery coordinator calls this after a crash has fired, so the
    /// respawned pipeline does not re-die at the same op forever.
    pub(crate) fn clear_failstop_events(&mut self) {
        if let Some(fp) = &mut self.faults {
            fp.crashes.clear();
            fp.lost.clear();
        }
    }

    /// Shape of the model this pipeline trains.
    pub fn model(&self) -> ModelShape {
        self.model
    }

    /// Export a durable snapshot of the full training state plus the plan
    /// geometry (see [`PipelineSnapshot::capture`]).
    pub fn snapshot(&mut self, step: u64, tag: &str) -> PipelineSnapshot {
        PipelineSnapshot::capture(self, step, tag)
    }

    /// Replace the watchdog configuration (a default watchdog is always
    /// active — no channel wait blocks indefinitely).
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog_cfg = cfg;
    }

    /// Derive per-op watchdog deadlines from an expected timeline —
    /// typically the event simulator's run of this same schedule. Each op's
    /// budget becomes `slack × time_scale × (expected gap to predecessor)`,
    /// floored by the watchdog's `base_timeout`. Call after
    /// [`set_watchdog`](Pipeline::set_watchdog) (the current slack is
    /// captured here).
    pub fn set_expected_timeline(&mut self, expected: &Timeline, time_scale: f64) {
        self.deadlines = Some(deadlines_from_timeline(
            expected,
            time_scale,
            self.watchdog_cfg.slack,
        ));
    }

    /// One full training iteration: pipelined forward/backward over every
    /// micro-batch, then an optimiser step on every stage.
    pub fn train_iteration(&mut self, batch: &BatchSet) -> Result<IterationStats, RuntimeError> {
        let stats = self.forward_backward(batch)?;
        self.step_all();
        Ok(stats)
    }

    /// Pipelined forward/backward without the optimiser step: gradients
    /// stay accumulated until [`step_all`](Pipeline::step_all).
    /// [`train_iteration`](Pipeline::train_iteration) is this plus the step;
    /// call it alone to time the pipelined section apart from the optimiser.
    ///
    /// Spawns one scoped thread per device, and nothing else: a send pushes
    /// onto an unbounded in-process channel and never blocks the stage
    /// thread, so there is no comm thread to hide it behind.
    ///
    /// Errors: [`RuntimeError::InvalidConfig`] when the batch disagrees with
    /// the schedule, [`RuntimeError::Stalled`] when the watchdog abandons a
    /// channel wait (the report says which device and op). After a stall the
    /// pipeline's parameters are unchanged but accumulated gradients are
    /// partial — step from a checkpoint, repartition, or discard.
    pub fn forward_backward(&mut self, batch: &BatchSet) -> Result<IterationStats, RuntimeError> {
        let m = batch.n_microbatches();
        if m != self.schedule.n_microbatches {
            return Err(RuntimeError::InvalidConfig(format!(
                "batch has {m} micro-batches, schedule expects {}",
                self.schedule.n_microbatches
            )));
        }
        if self.schedule.n_sliced > 0 && batch.mbs < 2 {
            return Err(RuntimeError::InvalidConfig(
                "slicing needs at least 2 samples per micro-batch".into(),
            ));
        }
        let p = self.schedule.n_devices;
        let seq = self.model.seq_len;
        let grad_scale = 1.0 / m as f32;

        // One channel per directed device pair used by the schedule.
        let endpoints = channel_mesh::<TimedMsg>(p, schedule_edges(&self.schedule));

        let schedule = &self.schedule;
        let watchdog = Watchdog::new(self.watchdog_cfg, self.deadlines.clone());
        let faults = match self.faults.as_ref().filter(|f| !f.is_empty()) {
            Some(plan) => Faults::All(plan),
            None => Faults::Clean,
        };
        let time_scale = self.time_scale;
        let clock = WallClock::start();
        let outcomes: Vec<DeviceOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            let mut endpoints = endpoints.into_iter();
            let watchdog = &watchdog;
            for (d, chunks) in self.stages.iter_mut().enumerate() {
                let ep = endpoints.next().unwrap();
                let worker = Worker {
                    device: d,
                    chunks,
                    batch,
                    seq,
                    grad_scale,
                    ep,
                    clock,
                    wd: watchdog,
                    time_scale,
                    inbox: HashMap::new(),
                    outbox: HashMap::new(),
                    loss: 0.0,
                    peak_in_flight: 0.0,
                    wd_events: Vec::new(),
                };
                handles.push(scope.spawn(move || run_device(schedule, faults, worker)));
            }
            // Reap every stage thread. A panicking stage must not panic the
            // coordinator: the payload becomes a structured `broken` outcome
            // and surfaces through the FaultReport path like any other
            // stage death.
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(o) => o,
                    Err(payload) => {
                        let detail = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "stage thread panicked".into());
                        DeviceOutcome {
                            loss: 0.0,
                            peak_in_flight: 0.0,
                            times: Vec::new(),
                            wd_events: Vec::new(),
                            completed: 0,
                            aborted: true,
                            crashed: None,
                            broken: Some(format!("panic: {detail}")),
                        }
                    }
                })
                .collect()
        });

        let mut report = FaultReport::default();
        let mut losses = Vec::with_capacity(p);
        let mut peaks = Vec::with_capacity(p);
        let mut recorder = Recorder::for_programs(&self.schedule.devices);
        // Scripted fail-stops are root causes; panics on other devices are
        // usually collateral (a send into the dead stage's dropped channel).
        // Order the report so `first_crash` names the root cause.
        let mut collateral = Vec::new();
        for (d, o) in outcomes.into_iter().enumerate() {
            report.aborted |= o.aborted;
            report.counters.push(o.completed);
            report.events.extend(o.wd_events);
            if let Some((at_op, kind)) = o.crashed {
                report.crashed.push(CrashEvent {
                    device: d,
                    at_op,
                    kind,
                    detail: None,
                });
            }
            if let Some(detail) = o.broken {
                collateral.push(CrashEvent {
                    device: d,
                    at_op: o.completed,
                    kind: FailStopKind::Crash,
                    detail: Some(detail),
                });
            }
            losses.push(o.loss);
            peaks.push(o.peak_in_flight);
            recorder.record_run(d, &o.times);
        }
        report.crashed.extend(collateral);
        if !report.aborted && report.crashed.is_empty() {
            // A valid program closes every stash record it opens.
            let leaked = |chunks: &Vec<StageModel>| chunks.iter().any(|s| s.in_flight() != 0.0);
            if let Some(device) = self.stages.iter().position(leaked) {
                report.crashed.push(CrashEvent {
                    device,
                    at_op: report.counters[device],
                    kind: FailStopKind::Crash,
                    detail: Some("stash records live at the end of the iteration".into()),
                });
            }
        }
        if report.aborted || !report.crashed.is_empty() {
            self.last_timeline = None;
            self.last_peak_in_flight = None;
            // The records of micro-batches the abort cut short.
            for s in self.stages.iter_mut().flatten() {
                s.clear_stash();
            }
        }
        if !report.crashed.is_empty() {
            // A dead stage outranks the stalls its death caused downstream.
            report.aborted = true;
            let stage = report.crashed[0].device;
            self.last_report = Some(report.clone());
            return Err(RuntimeError::StageDown { stage, report });
        }
        if report.aborted {
            self.last_report = Some(report.clone());
            return Err(RuntimeError::Stalled(report));
        }
        self.last_report = Some(report);
        let timeline = recorder.finish();
        let wall = Duration::from_secs_f64(timeline.iteration_time());
        self.last_timeline = Some(timeline);
        self.last_peak_in_flight = Some(peaks);
        Ok(IterationStats {
            loss: losses.iter().sum::<f32>() / m as f32,
            wall,
        })
    }

    /// The unified-format timeline of the most recent
    /// [`forward_backward`](Pipeline::forward_backward) — wall-clock seconds
    /// from the iteration's start, directly comparable (op orderings) with
    /// the event simulator's timeline for the same schedule.
    pub fn last_timeline(&self) -> Option<&Timeline> {
        self.last_timeline.as_ref()
    }

    /// Per device, the peak over the most recent successful
    /// [`forward_backward`](Pipeline::forward_backward) of the micro-batches'
    /// worth of stash records its chunk stages held at once — a forward's
    /// part opens a record of `part.frac()`, the fused backward or the
    /// grad-weight of a split backward closes it. In
    /// [`peak_in_flight`](autopipe_sim::memcheck::peak_in_flight)'s units,
    /// and equal to it. Cleared like [`last_timeline`](Pipeline::last_timeline).
    pub fn last_peak_in_flight(&self) -> Option<&[f64]> {
        self.last_peak_in_flight.as_deref()
    }

    /// The watchdog's report for the most recent iteration: every firing
    /// (resolved delays and unresolved stalls). Present after any completed
    /// or aborted iteration.
    pub fn last_fault_report(&self) -> Option<&FaultReport> {
        self.last_report.as_ref()
    }

    /// The partition currently executing.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The schedule currently executing.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Hot-swap the partition between iterations: parameters and Adam
    /// moments migrate stage-to-stage through the checkpoint path
    /// ([`StageState`](crate::StageState) export/import), so training continues bit-exactly —
    /// the payoff of straggler-aware re-planning is purely in iteration
    /// time, never in numerics.
    ///
    /// The new schedule must cover the same block sequence and micro-batch
    /// count; the device count may change.
    pub fn repartition(
        &mut self,
        partition: &Partition,
        schedule: Schedule,
    ) -> Result<(), RuntimeError> {
        if schedule.n_stages() != partition.n_stages() {
            return Err(RuntimeError::InvalidConfig(format!(
                "schedule has {} chunk-stages but partition has {}",
                schedule.n_stages(),
                partition.n_stages()
            )));
        }
        if partition.n_blocks() != self.partition.n_blocks() {
            return Err(RuntimeError::InvalidConfig(format!(
                "new partition covers {} blocks, model has {}",
                partition.n_blocks(),
                self.partition.n_blocks()
            )));
        }
        if schedule.n_microbatches != self.schedule.n_microbatches {
            return Err(RuntimeError::InvalidConfig(format!(
                "new schedule runs {} micro-batches, current runs {}",
                schedule.n_microbatches, self.schedule.n_microbatches
            )));
        }

        // 1. Collect the old stages in stage order (devices may interleave).
        let old_sched = std::mem::replace(&mut self.schedule, schedule);
        let n_old = old_sched.n_stages();
        let mut by_stage: Vec<Option<StageModel>> = (0..n_old).map(|_| None).collect();
        for (d, chunks) in std::mem::take(&mut self.stages).into_iter().enumerate() {
            for (c, s) in chunks.into_iter().enumerate() {
                by_stage[old_sched.stage_of(d, c)] = Some(s);
            }
        }

        // 2. Flatten through the checkpoint path: per-stage StageState
        // (params + Adam) concatenates into one global module/param/moment
        // sequence in block order.
        let mut modules: Vec<Module> = Vec::new();
        let mut params: Vec<Tensor> = Vec::new();
        let mut mom1: Vec<Tensor> = Vec::new();
        let mut mom2: Vec<Tensor> = Vec::new();
        let mut step_count: Option<u64> = None;
        let mut lr = 0.0f32;
        for s in by_stage {
            let mut s = s.expect("old schedule covers every stage");
            let state = s.export_state();
            lr = state.adam.lr;
            let (st, m, v) = state.adam.into_moments();
            let agreed = *step_count.get_or_insert(st);
            if agreed != st {
                return Err(RuntimeError::InvalidConfig(
                    "stages disagree on optimiser step count; step_all before repartitioning"
                        .into(),
                ));
            }
            params.extend(state.params);
            mom1.extend(m);
            mom2.extend(v);
            modules.extend(s.into_modules());
        }
        let step_count = step_count.unwrap_or(0);

        // 3. Re-split along the new boundaries and import the migrated
        // state into fresh stages.
        let mut built: Vec<Option<StageModel>> = (0..partition.n_stages()).map(|_| None).collect();
        let ckpt = checkpointed_stages(self.checkpointing, &self.schedule);
        let mut mod_iter = modules.into_iter();
        let mut par_iter = params.into_iter();
        let mut m_iter = mom1.into_iter();
        let mut v_iter = mom2.into_iter();
        for s in 0..partition.n_stages() {
            let len = partition.range(s).len();
            let mods: Vec<Module> = mod_iter.by_ref().take(len).collect();
            let nparams: usize = mods.iter().map(Module::param_count).sum();
            let stage_params: Vec<Tensor> = par_iter.by_ref().take(nparams).collect();
            let stage_m: Vec<Tensor> = m_iter.by_ref().take(nparams).collect();
            let stage_v: Vec<Tensor> = v_iter.by_ref().take(nparams).collect();
            let mut stage = StageModel::from_parts(mods, self.model.seq_len, lr, ckpt[s]);
            stage.import_state(
                &stage_params,
                Adam::from_moments(lr, step_count, stage_m, stage_v),
            );
            built[s] = Some(stage);
        }
        let p = self.schedule.n_devices;
        let v = self.schedule.n_chunks;
        self.stages = (0..p)
            .map(|d| {
                (0..v)
                    .map(|c| {
                        built[self.schedule.stage_of(d, c)]
                            .take()
                            .expect("new schedule visits every stage exactly once")
                    })
                    .collect()
            })
            .collect();
        self.partition = partition.clone();
        // Expected deadlines and telemetry were derived for the old plan.
        self.deadlines = None;
        self.last_timeline = None;
        self.last_peak_in_flight = None;
        self.last_report = None;
        Ok(())
    }

    /// Optimiser step on every stage.
    pub fn step_all(&mut self) {
        for dev in &mut self.stages {
            for s in dev {
                s.step();
            }
        }
    }

    /// Sum over all parameters of all stages (equality tests).
    pub fn param_checksum(&self) -> f64 {
        self.stages
            .iter()
            .flatten()
            .map(|s| s.param_checksum())
            .sum()
    }

    /// Flat mutable view of every stage, in (device, chunk) order
    /// (checkpoint capture and restore).
    pub(crate) fn stages_mut(&mut self) -> Vec<&mut StageModel> {
        self.stages.iter_mut().flatten().collect()
    }
}

/// What travels over a runtime channel: the tensor plus, under fault
/// injection, the wall instant before which the link "has not delivered"
/// it — the receiver holds the message until then, so an injected link
/// delay behaves like a genuinely slow wire (a receiver arriving later
/// than `due` pays nothing extra).
struct TimedMsg {
    tensor: Tensor,
    due: Option<Instant>,
}

struct DeviceOutcome {
    loss: f32,
    /// Peak of the device's summed stash in flight.
    peak_in_flight: f64,
    times: Vec<OpTimes>,
    wd_events: Vec<WatchdogEvent>,
    completed: usize,
    aborted: bool,
    /// Scripted fail-stop death: `(op index, kind)`.
    crashed: Option<(usize, FailStopKind)>,
    /// Unscripted death (broken pipeline invariant or reaped panic).
    broken: Option<String>,
}

/// Why a [`Worker`] stopped mid-op.
enum Halt {
    /// The pipeline was poisoned, or this device's wait was abandoned.
    Aborted,
    /// A broken pipeline invariant: this stage dies and poisons the rest,
    /// so peers abort promptly instead of waiting out their budgets.
    Broken(String),
}

/// One stage thread's [`Device`]: the device's chunk stages and its end of
/// the channel mesh, in wall time. Messages are stashed by [`MsgKey`] both
/// ways: `inbox` holds what arrived for this device's stages, `outbox` what
/// its stages produced for the next send (keyed by the consuming stage).
struct Worker<'a> {
    device: usize,
    chunks: &'a mut [StageModel],
    batch: &'a BatchSet,
    seq: usize,
    grad_scale: f32,
    ep: ChannelEndpoint<TimedMsg>,
    clock: WallClock,
    wd: &'a Watchdog,
    /// Wall seconds per virtual fault second.
    time_scale: f64,
    inbox: HashMap<MsgKey, Tensor>,
    outbox: HashMap<MsgKey, Tensor>,
    loss: f32,
    /// Peak of [`StageModel::in_flight`] summed over `chunks`.
    peak_in_flight: f64,
    wd_events: Vec<WatchdogEvent>,
}

/// Run one device's program to its end, its death or the pipeline's abort.
fn run_device(sched: &Schedule, faults: Faults<'_>, mut worker: Worker<'_>) -> DeviceOutcome {
    let mut cursor = Cursor::new(sched, worker.device, 0, faults);
    let mut times = Vec::with_capacity(sched.devices[worker.device].len());
    let (mut aborted, mut crashed, mut broken) = (false, None, None);
    loop {
        if worker.wd.poisoned() {
            aborted = true;
            break;
        }
        match cursor.step(&mut worker) {
            Ok(Step::Ran(t)) => times.push(t),
            Ok(Step::Done) => break,
            // Scripted fail-stop: the stage thread dies *silently* — no
            // poison, no farewell message, exactly like a killed process.
            // Returning drops the endpoint, so peers discover the death as a
            // hang-up on their next receive; the coordinator learns the
            // cause when it reaps this outcome.
            Ok(Step::Failed(kind)) => {
                crashed = Some((cursor.pc(), kind));
                aborted = true;
                break;
            }
            Ok(Step::Blocked(key)) => unreachable!("a worker waits for {key:?}"),
            Err(Halt::Aborted) => {
                aborted = true;
                break;
            }
            Err(Halt::Broken(detail)) => {
                worker.wd.poison();
                broken = Some(detail);
                aborted = true;
                break;
            }
        }
    }
    DeviceOutcome {
        loss: worker.loss,
        peak_in_flight: worker.peak_in_flight,
        times,
        wd_events: worker.wd_events,
        completed: cursor.pc(),
        aborted,
        crashed,
        broken,
    }
}

impl Worker<'_> {
    /// Sleep `virtual_secs` of injected delay, scaled into wall time. Errs
    /// if the pipeline is poisoned meanwhile.
    fn sleep(&self, virtual_secs: f64) -> Result<(), Halt> {
        self.pause(Duration::from_secs_f64(virtual_secs * self.time_scale))
    }

    fn pause(&self, dur: Duration) -> Result<(), Halt> {
        if self.wd.sleep(dur) {
            Ok(())
        } else {
            Err(Halt::Aborted)
        }
    }

    /// Sit out the op's scripted stall; the op starts when it ends.
    fn hold(&self, e: &Entry) -> Result<f64, Halt> {
        if e.stall > 0.0 {
            self.sleep(e.stall)?;
            return Ok(self.clock.now());
        }
        Ok(e.at)
    }

    fn broken(&self, e: &Entry, what: impl std::fmt::Display) -> Halt {
        Halt::Broken(format!(
            "device {} chunk {}: {what}",
            self.device,
            e.op.chunk()
        ))
    }
}

impl Device for Worker<'_> {
    type Abort = Halt;

    fn now(&self) -> f64 {
        self.clock.now()
    }

    fn compute(&mut self, e: &Entry, factor: f64) -> Result<(f64, f64), Halt> {
        let start = self.hold(e)?;
        let began = Instant::now();
        let stage = &mut self.chunks[e.op.chunk()];
        match e.op.kind {
            OpKind::Fwd { mb, part, .. } => {
                let input = if stage.has_embedding() {
                    let rows = self.batch.rows_of_part(part);
                    let ids = &self.batch.ids[mb][rows.start * self.seq..rows.end * self.seq];
                    StageInput::Tokens(ids.to_vec())
                } else {
                    match self.inbox.remove(&MsgKey::act(mb, part, e.stage)) {
                        Some(t) => StageInput::Hidden(t),
                        None => return Err(self.broken(e, format!("missing act {mb} {part:?}"))),
                    }
                };
                let targets = stage.has_head().then(|| {
                    let rows = self.batch.rows_of_part(part);
                    self.batch.targets[mb][rows.start * self.seq..rows.end * self.seq].to_vec()
                });
                match stage.forward(mb, part, input, targets) {
                    StageOutput::Hidden(t) => {
                        self.outbox.insert(MsgKey::act(mb, part, e.stage + 1), t);
                    }
                    StageOutput::Loss(l) => self.loss += l,
                }
                let live = self.chunks.iter().map(StageModel::in_flight).sum();
                self.peak_in_flight = self.peak_in_flight.max(live);
            }
            OpKind::Recompute { mb, .. } => {
                if !stage.recompute_microbatch(mb) {
                    return Err(self.broken(e, format!("recompute {mb} before its forward")));
                }
            }
            OpKind::Bwd { mb, .. } | OpKind::BwdInput { mb, .. } => {
                let d_out = self.inbox.remove(&MsgKey::grad(mb, e.stage));
                if !stage.has_head() && d_out.is_none() {
                    return Err(self.broken(e, format!("missing grad for mb {mb}")));
                }
                let dx = if matches!(e.op.kind, OpKind::Bwd { .. }) {
                    stage.backward_microbatch(mb, d_out.as_ref(), self.grad_scale)
                } else {
                    stage.backward_input_microbatch(mb, d_out.as_ref())
                };
                if let Some(dx) = dx {
                    self.outbox.insert(MsgKey::grad(mb, e.stage - 1), dx);
                }
            }
            OpKind::BwdWeight { mb, .. } => {
                if !stage.apply_weight_grads(mb, self.grad_scale) {
                    return Err(self.broken(e, format!("no stashed weight grads for mb {mb}")));
                }
            }
            _ => unreachable!("the cursor hands compute ops only to compute"),
        }
        // A scripted straggler stretches the op's real elapsed time, so the
        // slowdown self-scales to whatever the compute actually costs.
        if factor > 1.0 {
            self.pause(began.elapsed().mul_f64(factor - 1.0))?;
        }
        Ok((start, self.clock.now()))
    }

    fn send(&mut self, e: &Entry, to: usize, key: MsgKey, delay: f64) -> Result<(f64, f64), Halt> {
        let start = self.hold(e)?;
        let tensor = if key.part == Part::Both {
            // The aggregated last-sliced-micro-batch message (§III-C): both
            // halves the stage produced, in one message.
            let half = |part| MsgKey { part, ..key };
            match (
                self.outbox.remove(&half(Part::Half1)),
                self.outbox.remove(&half(Part::Half2)),
            ) {
                (Some(t1), Some(t2)) => concat_halves(&t1, &t2),
                _ => return Err(self.broken(e, format!("missing half out {}", key.mb))),
            }
        } else {
            match self.outbox.remove(&key) {
                Some(t) => t,
                None => return Err(self.broken(e, format!("nothing to send for {key:?}"))),
            }
        };
        // An injected link delay holds the message at the receiver until
        // `due`, like a genuinely slow wire.
        let due = (delay > 0.0)
            .then(|| Instant::now() + Duration::from_secs_f64(delay * self.time_scale));
        self.ep.send_to(to, key, TimedMsg { tensor, due });
        Ok((start, self.clock.now()))
    }

    fn recv(&mut self, e: &Entry, from: usize, key: MsgKey) -> Result<Option<(f64, f64)>, Halt> {
        self.hold(e)?;
        let msg = self
            .wd
            .recv(&mut self.ep, self.device, e, from, key, &mut self.wd_events)
            .map_err(|_| Halt::Aborted)?;
        if let Some(due) = msg.due {
            let now = Instant::now();
            if due > now {
                self.pause(due - now)?;
            }
        }
        let ready = self.clock.now();
        if key.part == Part::Both {
            // Unpack the aggregated message's two halves (§III-C).
            let (h1, h2) = split_halves(&msg.tensor);
            let half = |part| MsgKey { part, ..key };
            self.inbox.insert(half(Part::Half1), h1);
            self.inbox.insert(half(Part::Half2), h2);
        } else {
            self.inbox.insert(key, msg.tensor);
        }
        Ok(Some((ready, self.clock.now())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceModel;
    use autopipe_exec::FaultSpec;
    use autopipe_model::ModelFamily;
    use autopipe_schedule::{apply_recompute, gpipe, interleaved, one_f_one_b, sliced_1f1b, Op};

    fn tiny() -> ModelConfig {
        ModelConfig {
            name: "tiny".into(),
            family: ModelFamily::Gpt2,
            num_layers: 2,
            hidden_size: 16,
            num_heads: 2,
            seq_len: 8,
            vocab_size: 40,
            ffn_mult: 2,
        }
    }

    /// A 4-layer variant for interleaved tests (needs more chunk-stages).
    fn tiny4() -> ModelConfig {
        ModelConfig {
            num_layers: 4,
            ..tiny()
        }
    }

    /// Block layout of `tiny()` at sub-layer granularity:
    /// [emb][attn,ffn]×2[ln_f][head] = 7 blocks.
    fn partition2() -> Partition {
        Partition::new(vec![0, 3, 7])
    }

    fn cfg(schedule: Schedule, partition: Partition, ckpt: bool) -> PipelineConfig {
        PipelineConfig {
            model: tiny(),
            partition,
            schedule,
            lr: 1e-3,
            seed: 99,
            checkpointing: ckpt,
        }
    }

    fn close(a: f64, b: f64, tol: f64, what: &str) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn two_stage_pipeline_matches_reference() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(5, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        let mut reference = ReferenceModel::new(&model, 99, 1e-3, false);
        for it in 0..3 {
            let pl = pipe.train_iteration(&batch).unwrap().loss;
            let rl = reference.train_iteration(&batch);
            close(pl as f64, rl as f64, 1e-4, &format!("loss iter {it}"));
        }
        close(
            pipe.param_checksum(),
            reference.param_checksum(),
            1e-5,
            "params after 3 iterations",
        );
    }

    #[test]
    fn four_stage_pipeline_matches_reference() {
        let model = tiny();
        let m = 6;
        // 7 blocks into 4 stages.
        let part = Partition::new(vec![0, 2, 4, 6, 7]);
        let batch = BatchSet::synthetic(6, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(4, m), part, false)).unwrap();
        let mut reference = ReferenceModel::new(&model, 99, 1e-3, false);
        let pl = pipe.train_iteration(&batch).unwrap().loss;
        let rl = reference.train_iteration(&batch);
        close(pl as f64, rl as f64, 1e-4, "loss");
        close(
            pipe.param_checksum(),
            reference.param_checksum(),
            1e-5,
            "params",
        );
    }

    #[test]
    fn sliced_pipeline_matches_reference() {
        // The Slicer's correctness claim: slicing reschedules Warmup
        // forwards without changing the math.
        let model = tiny();
        let m = 6;
        let part = Partition::new(vec![0, 2, 4, 6, 7]);
        let batch = BatchSet::synthetic(7, m, 4, model.seq_len, model.vocab_size);
        for n_sliced in [1, 2, 3] {
            let mut pipe =
                Pipeline::try_new(&cfg(sliced_1f1b(4, m, n_sliced), part.clone(), false)).unwrap();
            let mut reference = ReferenceModel::new(&model, 99, 1e-3, false);
            let pl = pipe.train_iteration(&batch).unwrap().loss;
            let rl = reference.train_iteration(&batch);
            close(
                pl as f64,
                rl as f64,
                1e-4,
                &format!("loss sliced={n_sliced}"),
            );
            close(
                pipe.param_checksum(),
                reference.param_checksum(),
                1e-5,
                &format!("params sliced={n_sliced}"),
            );
        }
    }

    #[test]
    fn interleaved_pipeline_matches_reference() {
        // Megatron-LM's interleaved schedule on the real runtime: 2 devices
        // x 2 chunks = 4 chunk-stages over the 4-layer tiny model, checked
        // against single-device training.
        let model = tiny4();
        let p = 2;
        let v = 2;
        let m = 4;
        // Blocks: [emb][attn,ffn]x4[ln_f][head] = 11; 4 chunk-stages.
        let part = Partition::new(vec![0, 3, 5, 8, 11]);
        let sched = interleaved(p, v, m).unwrap();
        let pipe_cfg = PipelineConfig {
            model: model.clone(),
            partition: part,
            schedule: sched,
            lr: 1e-3,
            seed: 77,
            checkpointing: false,
        };
        let mut pipe = Pipeline::try_new(&pipe_cfg).unwrap();
        let mut reference = ReferenceModel::new(&model, 77, 1e-3, false);
        let batch = BatchSet::synthetic(8, m, 2, model.seq_len, model.vocab_size);
        for it in 0..2 {
            let pl = pipe.train_iteration(&batch).unwrap().loss;
            let rl = reference.train_iteration(&batch);
            close(
                pl as f64,
                rl as f64,
                1e-4,
                &format!("interleaved loss iter {it}"),
            );
        }
        close(
            pipe.param_checksum(),
            reference.param_checksum(),
            1e-5,
            "interleaved params",
        );
    }

    #[test]
    fn checkpointed_pipeline_matches_uncheckpointed() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(8, m, 2, model.seq_len, model.vocab_size);
        let mut plain = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        let mut ckpt = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), true)).unwrap();
        let lp = plain.train_iteration(&batch).unwrap().loss;
        let lc = ckpt.train_iteration(&batch).unwrap().loss;
        close(lp as f64, lc as f64, 1e-5, "loss");
        close(
            plain.param_checksum(),
            ckpt.param_checksum(),
            1e-6,
            "params",
        );
    }

    #[test]
    fn recompute_schedules_are_bit_identical_to_plain() {
        // The `Recompute` op replays a pure forward from the stashed stage
        // input, so a masked schedule must train bit-identically to the
        // plain one — full masks, partial masks, and sliced halves alike.
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(11, m, 2, model.seq_len, model.vocab_size);
        let masks: [&[bool]; 2] = [&[true, true], &[false, true]];
        for base in [one_f_one_b(2, m), sliced_1f1b(2, m, 2), gpipe(2, m)] {
            let mut plain = Pipeline::try_new(&cfg(base.clone(), partition2(), false)).unwrap();
            let pl = plain.train_iteration(&batch).unwrap().loss;
            let pc = plain.param_checksum();
            for mask in masks {
                let mut sched = base.clone();
                apply_recompute(&mut sched, mask);
                let mut pipe = Pipeline::try_new(&cfg(sched, partition2(), false)).unwrap();
                let rl = pipe.train_iteration(&batch).unwrap().loss;
                assert_eq!(
                    rl.to_bits(),
                    pl.to_bits(),
                    "loss {:?} mask {mask:?}",
                    base.kind
                );
                assert_eq!(
                    pipe.param_checksum().to_bits(),
                    pc.to_bits(),
                    "params {:?} mask {mask:?}",
                    base.kind
                );
            }
        }
    }

    #[test]
    fn recompute_interleaved_is_bit_identical_to_plain() {
        // Mixed per-chunk masks on the interleaved schedule: one device's
        // chunk-stages recompute while the other's keep caches.
        let model = tiny4();
        let m = 4;
        let part = Partition::new(vec![0, 3, 5, 8, 11]);
        let base = interleaved(2, 2, m).unwrap();
        let mk = |sched: Schedule| PipelineConfig {
            model: model.clone(),
            partition: part.clone(),
            schedule: sched,
            lr: 1e-3,
            seed: 77,
            checkpointing: false,
        };
        let batch = BatchSet::synthetic(12, m, 2, model.seq_len, model.vocab_size);
        let mut plain = Pipeline::try_new(&mk(base.clone())).unwrap();
        let pl = plain.train_iteration(&batch).unwrap().loss;
        let pc = plain.param_checksum();
        for mask in [[true, false, true, false], [true, true, true, true]] {
            let mut sched = base.clone();
            apply_recompute(&mut sched, &mask);
            let mut pipe = Pipeline::try_new(&mk(sched)).unwrap();
            let rl = pipe.train_iteration(&batch).unwrap().loss;
            assert_eq!(rl.to_bits(), pl.to_bits(), "interleaved loss mask {mask:?}");
            assert_eq!(
                pipe.param_checksum().to_bits(),
                pc.to_bits(),
                "interleaved params mask {mask:?}"
            );
        }
    }

    #[test]
    fn gpipe_schedule_also_executes() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(9, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(gpipe(2, m), partition2(), false)).unwrap();
        let mut reference = ReferenceModel::new(&model, 99, 1e-3, false);
        let pl = pipe.train_iteration(&batch).unwrap().loss;
        let rl = reference.train_iteration(&batch);
        close(pl as f64, rl as f64, 1e-4, "gpipe loss");
    }

    #[test]
    fn training_reduces_loss_through_the_pipeline() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(11, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&PipelineConfig {
            lr: 3e-3,
            ..cfg(sliced_1f1b(2, m, 1), partition2(), true)
        })
        .unwrap();
        let first = pipe.train_iteration(&batch).unwrap().loss;
        let mut last = first;
        for _ in 0..10 {
            last = pipe.train_iteration(&batch).unwrap().loss;
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn runtime_emits_a_wellformed_timeline() {
        let model = tiny();
        let m = 4;
        let sched = sliced_1f1b(2, m, 2);
        let batch = BatchSet::synthetic(12, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(sched.clone(), partition2(), false)).unwrap();
        assert!(pipe.last_timeline().is_none());
        assert!(pipe.last_peak_in_flight().is_none());
        let stats = pipe.forward_backward(&batch).unwrap();
        // 1F1B's `p − stage` in flight; slicing adds none.
        assert_eq!(pipe.last_peak_in_flight(), Some(&[2.0, 1.0][..]));
        let tl = pipe.last_timeline().expect("timeline after an iteration");
        // Every scheduled op appears, in program order, with sane times.
        assert_eq!(tl.n_devices(), 2);
        for (d, ops) in sched.devices.iter().enumerate() {
            assert_eq!(tl.op_order(d), *ops, "device {d} order");
            for e in tl.device(d) {
                assert!(e.start >= 0.0 && e.end >= e.start && e.ready >= e.start);
            }
        }
        // Wall time is derived from the same timeline.
        assert!(
            (stats.wall.as_secs_f64() - tl.iteration_time()).abs() < 1e-12,
            "wall {:?} vs timeline {}",
            stats.wall,
            tl.iteration_time()
        );
    }

    #[test]
    fn invalid_configs_are_reported_not_panicked() {
        // Stage-count mismatch between schedule and partition.
        let bad = PipelineConfig {
            partition: Partition::new(vec![0, 2, 4, 7]),
            ..cfg(one_f_one_b(2, 4), partition2(), false)
        };
        assert!(matches!(
            Pipeline::try_new(&bad),
            Err(RuntimeError::InvalidConfig(_))
        ));
        // Block-count mismatch with the lowered model.
        let bad = cfg(one_f_one_b(2, 4), Partition::new(vec![0, 3, 8]), false);
        assert!(matches!(
            Pipeline::try_new(&bad),
            Err(RuntimeError::InvalidConfig(_))
        ));
        // Bad learning rate.
        let bad = PipelineConfig {
            lr: f32::NAN,
            ..cfg(one_f_one_b(2, 4), partition2(), false)
        };
        assert!(matches!(
            Pipeline::try_new(&bad),
            Err(RuntimeError::InvalidConfig(_))
        ));
        // Batch / schedule micro-batch mismatch.
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, 4), partition2(), false)).unwrap();
        let model = tiny();
        let batch = BatchSet::synthetic(1, 3, 2, model.seq_len, model.vocab_size);
        assert!(matches!(
            pipe.forward_backward(&batch),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn injected_faults_change_timing_but_not_numerics() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(21, m, 2, model.seq_len, model.vocab_size);
        let run = |plan: Option<FaultPlan>| {
            let mut pipe =
                Pipeline::try_new(&cfg(sliced_1f1b(2, m, 1), partition2(), false)).unwrap();
            if let Some(p) = plan {
                // Tiny time scale: microseconds of real sleep per virtual
                // second, so the test stays fast.
                pipe.set_faults(p, 2e-5);
            }
            let mut losses = Vec::new();
            for _ in 0..2 {
                losses.push(pipe.train_iteration(&batch).unwrap().loss);
            }
            (losses, pipe.param_checksum())
        };
        let clean = run(None);
        for seed in [3u64, 17, 404] {
            let plan = FaultPlan::random(seed, &FaultSpec::new(2, 60, 1.0));
            let faulty = run(Some(plan));
            assert_eq!(
                clean.0, faulty.0,
                "losses drifted under faults (seed {seed})"
            );
            assert_eq!(
                clean.1.to_bits(),
                faulty.1.to_bits(),
                "params drifted under faults (seed {seed})"
            );
        }
    }

    #[test]
    fn watchdog_reports_an_injected_stall_and_recovers() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(22, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        // One long stage stall on device 0; generous retry budget so the
        // run completes, but a short base timeout so the watchdog fires.
        let plan = FaultPlan {
            stalls: vec![autopipe_exec::StageStall {
                device: 0,
                op_index: 2,
                pause: 1.0,
            }],
            ..FaultPlan::none()
        };
        pipe.set_faults(plan, 0.08); // stall sleeps ~80ms
        pipe.set_watchdog(WatchdogConfig {
            base_timeout: Duration::from_millis(10),
            slack: 4.0,
            backoff: 2.0,
            max_retries: 40,
            jitter_seed: 0,
        });
        let stats = pipe.train_iteration(&batch).unwrap();
        assert!(stats.loss.is_finite());
        let report = pipe.last_fault_report().expect("report after iteration");
        assert!(!report.aborted);
        assert!(
            report.events.iter().any(|e| e.resolved),
            "watchdog should log resolved waits opposite the stall: {report}"
        );
    }

    #[test]
    fn unresolvable_stall_aborts_with_a_structured_report() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(23, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        // A stall far longer than the whole watchdog budget: the retries
        // exhaust and the run aborts instead of deadlocking.
        let plan = FaultPlan {
            stalls: vec![autopipe_exec::StageStall {
                device: 0,
                op_index: 0,
                pause: 1.0,
            }],
            ..FaultPlan::none()
        };
        pipe.set_faults(plan, 10.0); // 10 s stall
        pipe.set_watchdog(WatchdogConfig {
            base_timeout: Duration::from_millis(5),
            slack: 4.0,
            backoff: 1.5,
            max_retries: 3,
            jitter_seed: 0,
        });
        let start = Instant::now();
        let err = pipe.train_iteration(&batch).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "abort should beat the stall"
        );
        match err {
            RuntimeError::Stalled(report) => {
                assert!(report.aborted);
                assert!(report.stalls() > 0, "report must carry the stall: {report}");
            }
            other => panic!("expected a stall report, got {other}"),
        }
        assert!(pipe.last_timeline().is_none(), "no timeline for an abort");
        assert!(pipe.last_peak_in_flight().is_none(), "no peak for an abort");
    }

    #[test]
    fn a_program_that_leaves_a_record_open_fails_the_iteration() {
        let model = tiny();
        let mut sched = one_f_one_b(1, 2);
        sched.devices[0].retain(|op| !matches!(op.kind, OpKind::Bwd { mb: 1, .. }));
        let batch = BatchSet::synthetic(4, 2, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(sched, Partition::new(vec![0, 7]), false)).unwrap();
        match pipe.forward_backward(&batch) {
            Err(RuntimeError::StageDown { report, .. }) => {
                let detail = report.crashed[0].detail.as_deref().unwrap_or("");
                assert!(detail.contains("stash records live"), "{detail}");
            }
            other => panic!("expected a leak to fail the iteration, got {other:?}"),
        }
        assert!(pipe.last_peak_in_flight().is_none());
    }

    #[test]
    fn waiting_on_a_finished_peer_stalls_at_once() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(44, m, 2, model.seq_len, model.vocab_size);
        // A schedule bug, not a fault: device 0 sends one activation and is
        // done; device 1 consumes it, then waits for a second that is never
        // sent (and never sends anything back to the finished device).
        let mut schedule = one_f_one_b(2, m);
        let sent = (schedule.devices[0].iter())
            .position(|op| matches!(op.kind, OpKind::SendAct { .. }))
            .unwrap();
        schedule.devices[0].truncate(sent + 1);
        let wanted = |op: &Op| match op.kind {
            OpKind::RecvAct { mb, .. } => mb < 2,
            OpKind::Fwd { mb, .. } => mb == 0,
            _ => false,
        };
        schedule.devices[1].retain(wanted);
        let mut pipe = Pipeline::try_new(&cfg(schedule, partition2(), false)).unwrap();
        pipe.set_watchdog(WatchdogConfig {
            base_timeout: Duration::from_secs(60),
            ..WatchdogConfig::default()
        });
        let start = Instant::now();
        let err = pipe.train_iteration(&batch).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a drained, closed link is not waited on"
        );
        match err {
            RuntimeError::Stalled(report) => {
                assert_eq!(report.stalls(), 1, "{report}");
                let stall = &report.events[0];
                assert_eq!((stall.device, stall.op_index, stall.timeouts), (1, 2, 0));
                assert_eq!(report.counters, vec![sent + 1, 2]);
            }
            other => panic!("expected a stall report, got {other}"),
        }
    }

    #[test]
    fn scripted_stage_crash_surfaces_as_stage_down_not_a_panic() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(41, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        let plan = FaultPlan {
            crashes: vec![autopipe_exec::StageCrash {
                device: 1,
                at_op: 3,
            }],
            ..FaultPlan::none()
        };
        pipe.set_faults(plan, 0.0);
        // Snappy watchdog so the survivors notice the death quickly.
        pipe.set_watchdog(WatchdogConfig {
            base_timeout: Duration::from_millis(5),
            slack: 4.0,
            backoff: 1.5,
            max_retries: 2,
            jitter_seed: 0,
        });
        let before = pipe.param_checksum();
        let err = pipe.train_iteration(&batch).unwrap_err();
        match err {
            RuntimeError::StageDown { stage, report } => {
                assert_eq!(stage, 1);
                assert!(report.aborted);
                let crash = report.first_crash().expect("crash event recorded");
                assert_eq!((crash.device, crash.at_op), (1, 3));
                assert_eq!(crash.kind, autopipe_exec::FailStopKind::Crash);
                assert!(crash.detail.is_none(), "scripted deaths carry no detail");
                // The dead device froze exactly at the scripted op.
                assert_eq!(report.counters[1], 3);
            }
            other => panic!("expected StageDown, got {other}"),
        }
        // Parameters never stepped: the pipeline can be restored and retried.
        assert_eq!(before.to_bits(), pipe.param_checksum().to_bits());

        // After clearing the fail-stop events the same pipeline completes
        // (restart-in-place relies on this).
        pipe.clear_failstop_events();
        for s in pipe.stages_mut() {
            s.reset_transient();
        }
        assert!(pipe.train_iteration(&batch).is_ok());
    }

    #[test]
    fn device_lost_is_reported_with_lost_kind() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(42, m, 2, model.seq_len, model.vocab_size);
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        let plan = FaultPlan {
            lost: vec![autopipe_exec::DeviceLost {
                device: 0,
                at_op: 1,
            }],
            ..FaultPlan::none()
        };
        pipe.set_faults(plan, 0.0);
        pipe.set_watchdog(WatchdogConfig {
            base_timeout: Duration::from_millis(5),
            slack: 4.0,
            backoff: 1.5,
            max_retries: 2,
            jitter_seed: 0,
        });
        match pipe.train_iteration(&batch).unwrap_err() {
            RuntimeError::StageDown { stage, report } => {
                assert_eq!(stage, 0);
                assert_eq!(
                    report.first_crash().unwrap().kind,
                    autopipe_exec::FailStopKind::Lost
                );
            }
            other => panic!("expected StageDown, got {other}"),
        }
    }

    #[test]
    fn repartition_hot_swap_preserves_training_exactly() {
        let model = tiny();
        let m = 4;
        let batch = BatchSet::synthetic(31, m, 2, model.seq_len, model.vocab_size);

        // Reference: train 4 iterations on the initial (unbalanced) split.
        let mut fixed = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        let mut ref_losses = Vec::new();
        for _ in 0..4 {
            ref_losses.push(fixed.train_iteration(&batch).unwrap().loss);
        }

        // Same model, but repartitioned after iteration 2 (2 stages -> 4).
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        let mut losses = Vec::new();
        for _ in 0..2 {
            losses.push(pipe.train_iteration(&batch).unwrap().loss);
        }
        pipe.repartition(&Partition::new(vec![0, 2, 4, 6, 7]), one_f_one_b(4, m))
            .unwrap();
        assert_eq!(pipe.partition().n_stages(), 4);
        for _ in 0..2 {
            losses.push(pipe.train_iteration(&batch).unwrap().loss);
        }
        assert_eq!(ref_losses, losses, "losses must be identical across swap");
        assert_eq!(
            fixed.param_checksum().to_bits(),
            pipe.param_checksum().to_bits(),
            "hot swap must not perturb parameters"
        );
    }

    #[test]
    fn repartition_keeps_the_recompute_mask() {
        // A hot swap onto a masked plan must checkpoint the masked stages
        // exactly as a fresh pipeline of that plan does; otherwise their
        // `Recompute` ops are no-ops over full caches.
        let mut masked = one_f_one_b(2, 4);
        apply_recompute(&mut masked, &[true, false]);
        let flags = |pipe: &Pipeline| -> Vec<bool> {
            pipe.stages
                .iter()
                .flatten()
                .map(|s| s.checkpointing())
                .collect()
        };
        let fresh = Pipeline::try_new(&cfg(masked.clone(), partition2(), false)).unwrap();
        assert_eq!(flags(&fresh), [true, false]);
        let mut swapped = Pipeline::try_new(&cfg(
            one_f_one_b(2, 4),
            Partition::new(vec![0, 4, 7]),
            false,
        ))
        .unwrap();
        swapped.repartition(&partition2(), masked).unwrap();
        assert_eq!(flags(&swapped), flags(&fresh));
    }

    #[test]
    fn repartition_rejects_incompatible_shapes() {
        let m = 4;
        let mut pipe = Pipeline::try_new(&cfg(one_f_one_b(2, m), partition2(), false)).unwrap();
        // Wrong block count.
        assert!(pipe
            .repartition(&Partition::new(vec![0, 3, 8]), one_f_one_b(2, m))
            .is_err());
        // Wrong micro-batch count.
        assert!(pipe
            .repartition(&partition2(), one_f_one_b(2, m + 2))
            .is_err());
        // Schedule / partition stage mismatch.
        assert!(pipe.repartition(&partition2(), one_f_one_b(4, m)).is_err());
        // Still trainable after the rejected swaps.
        let model = tiny();
        let batch = BatchSet::synthetic(32, m, 2, model.seq_len, model.vocab_size);
        assert!(pipe.train_iteration(&batch).is_ok());
    }
}

//! `autopipe::Session` — the one front door to the whole stack.
//!
//! The workspace's layers (cost model → planner → slicer → event simulator →
//! threaded runtime) each have their own entry points; before this module a
//! caller had to thread partitions, schedules and three config structs
//! between them by hand. `Session` is a builder that walks the pipeline in
//! the paper's order — profile → plan → slice → simulate → run — with one
//! [`SessionConfig`] and one [`Error`] type. The config holds every setting
//! of the session, the run's fault script, watchdog, straggler monitor and
//! iteration count included, and [`SessionConfig::validate`] checks all of
//! them before [`Session::plan`], [`Session::resume`] and
//! [`PlannedSession::run`] do any work:
//!
//! ```no_run
//! use autopipe::Session;
//! use autopipe::model::zoo;
//!
//! # fn main() -> Result<(), autopipe::Error> {
//! let report = Session::for_model(zoo::gpt2_tiny())
//!     .stages(2)
//!     .microbatches(4)
//!     .plan()?
//!     .slice()?
//!     .run()?;
//! println!("losses: {:?}", report.losses);
//! # Ok(())
//! # }
//! ```
//!
//! The fault-tolerance machinery rides on the same facade: seeded
//! [`FaultPlan`] scripts ([`Session::faults`]), the stall watchdog
//! ([`Session::watchdog`]), fail-stop recovery ([`Session::recovery`]),
//! elastic membership ([`Session::elastic`]) and straggler-aware re-planning
//! ([`Session::adaptive`]) are wired into the one training loop that
//! [`PlannedSession::run`] and [`Session::resume`] share.
//!
//! Every decision that loop takes between steps — checkpoint, restore and
//! replay, shrink, grow, re-plan around a slow device, halt — is the
//! runtime's pure [`Controller`]'s, in the precedence its docs give: the
//! loop steps the pipeline, folds the outcome and applies the returned
//! [`Action`]s in order. Every re-shape carries the serving devices'
//! multipliers and is planned by one private `replan` (the session's own
//! config at the new width through [`AutoPipe::plan_with`], validated and
//! checked against the memory budget before anything moves), then swapped
//! in at the loop's single [`Pipeline::repartition`] site, so a run
//! finishes on a plan that meets what its first plan was searched under,
//! or stops with an [`Error::Plan`] naming the trigger.

use std::path::PathBuf;
use std::sync::Arc;

use autopipe_core::{
    AutoPipe, ElasticConfig, Error, Plan, RecoveryConfig, SchedulePolicy, SessionConfig,
    StragglerConfig, WatchdogConfig,
};
use autopipe_cost::{profiler::ProfilerConfig, CostDb, Hardware};
use autopipe_exec::FaultPlan;
use autopipe_model::ModelConfig;
use autopipe_planner::{device_stage_costs, PlanError, PlanService, RecomputePolicy};
use autopipe_runtime::{
    restore_states, Action, BatchSet, CheckpointError, CheckpointStore, Controller, ElasticEvent,
    FaultReport, ModelShape, Outcome, Pipeline, PipelineConfig, RecoveryRecord, RecoveryStore,
    RuntimeError,
};
use autopipe_schedule::{validate, Schedule, ScheduleKind};
use autopipe_sim::event::{run_schedule_faulty, EventCosts, EventResult};
use autopipe_sim::memcheck::check_memory_budget;
use autopipe_sim::OverlapModel;
use autopipe_sim::Partition;

/// Builder for a training session. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Session {
    cfg: SessionConfig,
    /// Per-replica micro-batch count requested via [`Session::microbatches`]
    /// (resolved into `cfg.gbs` at plan time).
    microbatches: Option<usize>,
    devices_pinned: bool,
    /// Shared planner service; a per-session one is created at [`Session::plan`]
    /// time when none was injected via [`Session::plan_service`].
    service: Option<Arc<PlanService>>,
}

impl Session {
    /// Start a session for `model` with AutoPipe's defaults: one device,
    /// micro-batch 4, strategy search over the DP×PP space.
    pub fn for_model(model: ModelConfig) -> Session {
        let mut cfg = SessionConfig::new(model, 1, 4, 4);
        // The serving default: dominance pruning on. It is winner-preserving
        // and cuts every search the session's plans and re-plans run;
        // `.prune(false)` turns it off.
        cfg.constraints.prune = true;
        Session {
            cfg,
            microbatches: None,
            devices_pinned: false,
            service: None,
        }
    }

    /// Total number of devices in the cluster.
    pub fn devices(mut self, n: usize) -> Session {
        self.cfg.n_devices = n;
        self.devices_pinned = true;
        self
    }

    /// Pin the pipeline depth. Unless [`Session::devices`] was called, the
    /// cluster size follows the depth (one device per stage).
    pub fn stages(mut self, s: usize) -> Session {
        self.cfg.fixed_stages = Some(s);
        if !self.devices_pinned {
            self.cfg.n_devices = s;
        }
        self
    }

    /// Micro-batches per pipeline replica per iteration.
    pub fn microbatches(mut self, m: usize) -> Session {
        self.microbatches = Some(m);
        self
    }

    /// Micro-batch size in samples.
    pub fn microbatch_size(mut self, mbs: usize) -> Session {
        self.cfg.mbs = mbs;
        self
    }

    /// Global batch size in samples (alternative to [`Session::microbatches`]).
    pub fn global_batch(mut self, gbs: usize) -> Session {
        self.cfg.gbs = gbs;
        self.microbatches = None;
        self
    }

    /// Target cluster hardware.
    pub fn hardware(mut self, hw: Hardware) -> Session {
        self.cfg.hardware = hw;
        self
    }

    /// Plan on a noisy offline profile instead of analytic ground truth.
    pub fn profiled(mut self, p: ProfilerConfig) -> Session {
        self.cfg.profiler = Some(p);
        self
    }

    /// How the schedule family is chosen. [`SchedulePolicy::Auto`] replaces
    /// the fixed 1F1B/sliced pipeline with the planner's cross-family search
    /// (1F1B plain and sliced, GPipe, zero-bubble, interleaved), and
    /// [`PlannedSession::slice`] becomes a no-op — the search already scored
    /// the sliced candidates. [`SchedulePolicy::Plain`] keeps plain 1F1B,
    /// with `slice()` a no-op too.
    pub fn schedule_policy(mut self, policy: SchedulePolicy) -> Session {
        self.cfg.schedule_policy = policy;
        self
    }

    /// Hard per-device memory budget in bytes. The planner searches
    /// (partition × schedule family × recompute mask) jointly under it and
    /// errors with a structured OOM when nothing fits; pair with
    /// [`Session::recompute_policy`] to let the search spend recomputation.
    pub fn memory_budget(mut self, bytes: u64) -> Session {
        self.cfg.constraints.memory_budget = Some(bytes);
        self
    }

    /// How the planner may use activation recomputation to meet the memory
    /// budget ([`RecomputePolicy::Auto`] = minimal per-stage masks, scored
    /// with their forward-replay cost).
    pub fn recompute_policy(mut self, policy: RecomputePolicy) -> Session {
        self.cfg.constraints.recompute = policy;
        self
    }

    /// Plan and simulate under the overlapped comm engine: the planner and
    /// the family search score candidates with eager chunked sends
    /// (α = `latency`, `chunks` wire chunks per hand-off), and
    /// [`PlannedSession::simulate`] prices the plan with the matching
    /// [`CommConfig`](autopipe_exec::CommConfig). [`PlannedSession::run`]
    /// trains it like any other plan: the runtime's in-process sends never
    /// block, so it has no comm engine to switch.
    pub fn overlap_comm(mut self, latency: f64, chunks: usize) -> Session {
        self.cfg.constraints.overlap = Some(OverlapModel { latency, chunks });
        self
    }

    /// Toggle dominance pruning in the wave search (on by default for
    /// sessions built with [`Session::for_model`]).
    pub fn prune(mut self, on: bool) -> Session {
        self.cfg.constraints.prune = on;
        self
    }

    /// Adam learning rate for [`PlannedSession::run`].
    pub fn learning_rate(mut self, lr: f32) -> Session {
        self.cfg.lr = lr;
        self
    }

    /// Seed for parameter init, synthetic data and simulator jitter.
    pub fn seed(mut self, seed: u64) -> Session {
        self.cfg.seed = seed;
        self
    }

    /// Inject a deterministic fault script into simulation and execution.
    /// `time_scale` maps the script's virtual fault seconds onto wall-clock
    /// seconds in the threaded runtime (keep it small for tests).
    pub fn faults(mut self, plan: FaultPlan, time_scale: f64) -> Session {
        self.cfg.faults = Some((plan, time_scale));
        self
    }

    /// Arm the stall watchdog for [`PlannedSession::run`].
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Session {
        self.cfg.watchdog = Some(cfg);
        self
    }

    /// Enable straggler-aware re-planning: when a stage stays slow past the
    /// monitor's window, the session re-plans with the observed ratios as
    /// device multipliers and hot-swaps the partition between iterations.
    pub fn adaptive(mut self, cfg: StragglerConfig) -> Session {
        self.cfg.straggler = Some(cfg);
        self
    }

    /// Enable crash-consistent checkpointing and fail-stop recovery:
    /// [`PlannedSession::run`] snapshots the pipeline to `cfg.dir` at the
    /// configured step cadence, and when a stage dies mid-iteration the
    /// session restores the newest valid generation and replays from its
    /// step with exactly-once semantics. A crashed device restarts in
    /// place; a lost one is gone, so the session re-plans onto the
    /// surviving devices.
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Session {
        self.cfg.recovery = Some(cfg);
        self
    }

    /// Enable elastic membership: per-device health checks drive
    /// quarantine/eviction (shrink to degraded mode), readmission and joins
    /// (grow back, migrating state through the repartition path), and
    /// device-aware re-planning under observed slowdowns. Membership events come from the session's
    /// [`FaultPlan`] script ([`Session::faults`]); requires
    /// [`Session::recovery`].
    pub fn elastic(mut self, cfg: ElasticConfig) -> Session {
        self.cfg.elastic = Some(cfg);
        self
    }

    /// Plan (and re-plan) for a heterogeneous cluster: `multipliers[d]`
    /// scales device `d`'s compute time in the cost model (1.0 = baseline).
    /// The planner's balance objective then charges each stage the device
    /// that runs it, and the multipliers are part of the plan fingerprint,
    /// so skewed requests never alias cached homogeneous plans.
    pub fn device_multipliers(mut self, multipliers: Vec<f64>) -> Session {
        self.cfg.device_multipliers = multipliers;
        self
    }

    /// Training iterations [`PlannedSession::run`] executes (default 2).
    pub fn iterations(mut self, n: usize) -> Session {
        self.cfg.iterations = n;
        self
    }

    /// Serve this session's planner runs through `service`, sharing its
    /// content-addressed plan cache with every other session holding the
    /// same `Arc`. Without this, [`Session::plan`] creates a private
    /// service, which still caches across that session's own re-plans.
    pub fn plan_service(mut self, service: Arc<PlanService>) -> Session {
        self.service = Some(service);
        self
    }

    /// The planner service this session will plan through: the injected one,
    /// or a freshly created private service in the session's lowered search
    /// configuration.
    fn resolve_service(&self) -> Arc<PlanService> {
        match &self.service {
            Some(s) => Arc::clone(s),
            None => Arc::new(PlanService::with_config(self.cfg.planner())),
        }
    }

    /// Validate the configuration and run strategy selection + the AutoPipe
    /// Planner. Under the default [`SchedulePolicy::Slicer`] the returned
    /// [`PlannedSession`] carries an *unsliced* (plain 1F1B) schedule; chain
    /// [`PlannedSession::slice`] to apply Algorithm 2. Under
    /// [`SchedulePolicy::Auto`] it already carries the cross-family winner.
    pub fn plan(mut self) -> Result<PlannedSession, Error> {
        if let Some(m) = self.microbatches {
            if m < 1 {
                return Err(Error::Config("0 micro-batches requested".into()));
            }
            let dp = match self.cfg.fixed_stages {
                Some(s) if s >= 1 => self.cfg.n_devices / s.max(1),
                _ => 1,
            };
            self.cfg.gbs = m * self.cfg.mbs * dp.max(1);
        }
        self.cfg.validate()?;
        // Planning is always unsliced here; `slice()` is the explicit next
        // stage of the chain.
        let service = self.resolve_service();
        let db = AutoPipe::cost_db(&self.cfg);
        let plan = AutoPipe::plan_with(&self.cfg, &db, &service)?;
        Ok(PlannedSession {
            cfg: self.cfg,
            db,
            plan,
            service,
        })
    }

    /// Resume training from the newest valid checkpoint generation in `dir`.
    ///
    /// No planner run is needed: the generation's manifest carries the
    /// partition boundaries and schedule geometry (`n_sliced`,
    /// micro-batches) of the pipeline that wrote it, and this builder
    /// supplies everything the manifest does not store — the model, the
    /// learning rate, the data seed. The restored parameters are validated
    /// shape-by-shape against the rebuilt pipeline before training
    /// continues, so resuming with the wrong model fails with a typed
    /// error instead of corrupting state.
    ///
    /// Runs [`Session::iterations`] *additional* steps past the
    /// checkpointed step, through the same loop as [`PlannedSession::run`]:
    /// when [`Session::recovery`] is also configured, checkpointing (into
    /// the same directory) and fail-stop recovery stay armed, and
    /// [`Session::elastic`] / [`Session::adaptive`] are honoured, with steps
    /// numbered from the checkpointed one.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Result<RunReport, Error> {
        let dir = dir.into();
        let retain = self.cfg.recovery.as_ref().map(|r| r.retain).unwrap_or(3);
        let store = CheckpointStore::open(&dir, retain).map_err(Error::from)?;
        let (manifest, states) = store.load_latest().map_err(Error::from)?;
        drop(store);
        // A different model is rejected from the manifest alone, before a
        // pipeline of this session's model is built.
        let model = ModelShape::of(&self.cfg.model);
        if manifest.model != model {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint in {} holds a model of shape {:?}, this session's model \
                 ({}) is {model:?}",
                dir.display(),
                manifest.model,
                self.cfg.model.name
            ))
            .into());
        }

        let n_stages = manifest.boundaries.len().saturating_sub(1);
        if n_stages < 1 {
            return Err(Error::Config(format!(
                "checkpoint manifest in {} has no stages",
                dir.display()
            )));
        }
        // The manifest records chunk-stages; devices = stages / chunks.
        let v = manifest.n_chunks.max(1);
        if !n_stages.is_multiple_of(v) {
            return Err(Error::Config(format!(
                "checkpoint manifest in {} has {n_stages} stages, not divisible \
                 by its {v} chunks per device",
                dir.display()
            )));
        }
        let p = n_stages / v;
        let m = manifest.n_microbatches;
        let partition = Partition::new(manifest.boundaries.clone());
        let schedule = manifest.schedule().map_err(Error::from)?;
        // Validate the on-disk shape against what this session asked for
        // *before* touching the pipeline: a mismatch here used to surface as
        // an opaque failure deep inside repartition/restore.
        if self.devices_pinned && self.cfg.n_devices != p {
            return Err(Error::Config(format!(
                "checkpoint in {} was written by a {p}-device pipeline but this \
                 session requests {} devices; resume onto a matching cluster, or \
                 drop .devices()/.stages() to adopt the checkpoint's shape",
                dir.display(),
                self.cfg.n_devices
            )));
        }
        if let Some(s) = self.cfg.fixed_stages {
            if s != p {
                return Err(Error::Config(format!(
                    "checkpoint in {} holds a {p}-stage {:?} pipeline but this \
                     session pinned {s} stages; resume with .stages({p}) or unpinned",
                    dir.display(),
                    manifest.kind
                )));
            }
        }
        if let Some(req_m) = self.microbatches {
            if req_m != m {
                return Err(Error::Config(format!(
                    "checkpoint in {} was written with {m} micro-batches but this \
                     session requests {req_m}; the schedule geometry is part of the \
                     checkpoint — resume with .microbatches({m}) or leave it unset",
                    dir.display()
                )));
            }
        }
        if self.cfg.schedule_policy == SchedulePolicy::Auto
            && manifest.kind == ScheduleKind::Interleaved
            && v < 2
        {
            return Err(Error::Config(format!(
                "checkpoint in {} claims an interleaved schedule with {v} chunk(s) \
                 per device — the manifest is inconsistent",
                dir.display()
            )));
        }
        // The geometry is the manifest's; align the config with it so
        // validation and re-planning see a consistent single-replica
        // pipeline. New generations continue the sequence in `dir`.
        self.cfg.n_devices = p;
        self.cfg.fixed_stages = Some(p);
        self.cfg.gbs = m * self.cfg.mbs;
        if let Some(rc) = &mut self.cfg.recovery {
            rc.dir = dir;
        }
        self.cfg.validate()?;
        let db = AutoPipe::cost_db(&self.cfg);

        let run = Run {
            cfg: &self.cfg,
            db: &db,
            service: &self.resolve_service(),
            microbatches: m,
            sliced: manifest.n_sliced > 0,
        };
        let mut pipe = run.pipeline(partition, schedule)?;
        restore_states(&mut pipe, &states).map_err(Error::from)?;
        run.drive(pipe, Some(manifest.step))
    }
}

/// A planned session: the chosen strategy, partition and schedule, ready to
/// slice, simulate or execute.
#[derive(Debug, Clone)]
pub struct PlannedSession {
    cfg: SessionConfig,
    db: CostDb,
    plan: Plan,
    service: Arc<PlanService>,
}

/// What one simulated iteration looked like.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Fault-free simulation of the planned schedule.
    pub clean: EventResult,
    /// The same schedule under the session's fault script, if one is set.
    pub faulty: Option<EventResult>,
}

/// What a threaded-runtime run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Schedule family the run finished on (the planner's pick under
    /// [`SchedulePolicy::Auto`]; stays within the session's policy).
    pub family: ScheduleKind,
    /// Mean loss per iteration.
    pub losses: Vec<f32>,
    /// Wall-clock seconds per iteration.
    pub iteration_seconds: Vec<f64>,
    /// Watchdog/fault telemetry from the last iteration that had any.
    pub fault_report: Option<FaultReport>,
    /// How many times elastic or straggler-aware re-planning hot-swapped
    /// the partition (a fail-stop shrink without [`Session::elastic`]
    /// counts as a recovery, not here).
    pub replans: usize,
    /// How many fail-stop recoveries were executed ([`Session::recovery`]).
    pub recoveries: usize,
    /// What each recovery did: the crash that triggered it, the generation
    /// restored, and — for a shrink — the device that is gone.
    pub recovery_log: Vec<RecoveryRecord>,
    /// For [`Session::resume`] runs: the checkpointed step training
    /// continued from. `None` for fresh runs.
    pub resumed_from_step: Option<u64>,
    /// Every elastic decision taken ([`Session::elastic`]): shrinks into
    /// degraded mode (scripted departures and fail-stop losses alike),
    /// grows after readmission, heterogeneity re-plans. Empty when
    /// elasticity is off.
    pub elastic_log: Vec<ElasticEvent>,
    /// The partition the run finished on (differs from the plan's after a
    /// hot swap).
    pub final_partition: Partition,
    /// Checksum over every parameter, for bit-exactness comparisons.
    pub param_checksum: f64,
}

impl PlannedSession {
    /// The plan this session will execute.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Swap in a fault script after planning — a cloned [`PlannedSession`]
    /// can be re-armed per script without re-running the planner.
    pub fn faults(mut self, plan: FaultPlan, time_scale: f64) -> PlannedSession {
        self.cfg.faults = Some((plan, time_scale));
        self
    }

    /// Arm (or re-arm) the stall watchdog after planning.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> PlannedSession {
        self.cfg.watchdog = Some(cfg);
        self
    }

    /// Enable (or re-configure) checkpointing + fail-stop recovery after
    /// planning — a cloned [`PlannedSession`] can point each run at its own
    /// checkpoint directory without re-running the planner.
    pub fn recovery(mut self, cfg: RecoveryConfig) -> PlannedSession {
        self.cfg.recovery = Some(cfg);
        self
    }

    /// Training iterations [`PlannedSession::run`] executes.
    pub fn iterations(mut self, n: usize) -> PlannedSession {
        self.cfg.iterations = n;
        self
    }

    /// The cost database the plan was computed on.
    pub fn cost_db(&self) -> &CostDb {
        &self.db
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Apply the AutoPipe Slicer (Algorithm 2): slice the plain 1F1B
    /// schedule's Warmup through [`Plan::slice`], on the costs the plan is
    /// priced on, so the recompute mask the partition search chose is kept
    /// and each device is charged its multiplier. A no-op for single-stage
    /// plans and outside [`SchedulePolicy::Slicer`]: plain 1F1B stays plain, and
    /// under [`SchedulePolicy::Auto`] the family search already scored the
    /// sliced candidates — re-slicing would overwrite its pick.
    pub fn slice(mut self) -> Result<PlannedSession, Error> {
        if self.cfg.schedule_policy == SchedulePolicy::Slicer {
            self.plan.slice(&self.db);
        }
        Ok(self)
    }

    /// Run the planned schedule through the discrete-event simulator —
    /// fault-free ([`Plan::simulate`]), and additionally under the session's
    /// fault script when one is configured. The stage costs are the ones the
    /// family search scores with ([`device_stage_costs`]: times each device's
    /// multiplier; the schedule's `Recompute` ops run at `f`), so the clean
    /// run's iteration time is [`Plan::price`] bit for bit.
    pub fn simulate(&self) -> Result<SimReport, Error> {
        let latency = self.cfg.hardware.link_latency;
        let event_cfg = self.cfg.event();
        let clean = self.plan.simulate(&self.db, latency, &event_cfg)?;
        let faulty = match &self.cfg.faults {
            Some((fp, _)) => Some(run_schedule_faulty(
                &self.plan.schedule,
                &EventCosts::from_stage_costs(
                    &device_stage_costs(&self.plan.partition, &self.db),
                    latency,
                ),
                &event_cfg,
                fp,
            )?),
            None => None,
        };
        Ok(SimReport { clean, faulty })
    }

    /// Execute the plan on the threaded runtime with synthetic data: build
    /// the pipeline, arm the configured faults/watchdog, train the session's
    /// iterations, and hot-swap the partition whenever recovery, elastic
    /// membership or — when [`Session::adaptive`] is on — the straggler
    /// monitor calls for a re-plan. The settings changed since
    /// [`Session::plan`] are checked first.
    pub fn run(self) -> Result<RunReport, Error> {
        self.cfg.validate()?;
        let run = self.contract();
        let pipe = run.pipeline(self.plan.partition.clone(), self.plan.schedule.clone())?;
        run.drive(pipe, None)
    }

    fn contract(&self) -> Run<'_> {
        Run {
            cfg: &self.cfg,
            db: &self.db,
            service: &self.service,
            microbatches: self.plan.microbatches,
            sliced: self.plan.schedule.n_sliced > 0,
        }
    }
}

/// What stays fixed across a run however often the pipeline is re-shaped:
/// the session's half, and what every re-plan keeps of the starting plan.
struct Run<'a> {
    cfg: &'a SessionConfig,
    db: &'a CostDb,
    service: &'a PlanService,
    /// Micro-batches per iteration.
    microbatches: usize,
    /// The starting schedule was sliced (the plan `run()` was called on, or
    /// the manifest's `n_sliced` on `resume`) — not the schedule in force,
    /// or a grow after a width-1 spell would never re-slice.
    sliced: bool,
}

impl Run<'_> {
    /// Plan onto `width` devices, device `d` running `multipliers[d]` times
    /// slower than profiled: the session's own config at the new width
    /// through the entry point [`Session::plan`] uses, so the policy,
    /// recompute mask and planner knobs carry over, on the cost database
    /// charged the serving devices' multipliers. Outside
    /// [`SchedulePolicy::Auto`], whose family search scores the sliced
    /// candidates itself, a sliced start is sliced again and a plain one
    /// stays plain. The result is validated and checked against the
    /// session's memory budget here, before any stage is re-split; errors
    /// name `trigger`.
    fn replan(&self, trigger: &str, width: usize, multipliers: &[f64]) -> Result<Plan, Error> {
        let cfg = SessionConfig {
            n_devices: width,
            fixed_stages: Some(width),
            gbs: self.microbatches * self.cfg.mbs,
            ..self.cfg.clone()
        };
        let db = &self.db.clone().with_device_multipliers(multipliers);
        let budget = self.cfg.constraints.memory_budget;
        let under = budget.map_or(String::new(), |b| format!(" under a {b}-byte budget"));
        let named = |e: PlanError| {
            let tag = |msg: String| format!("{trigger} to width {width}{under}: {msg}");
            Error::Plan(match e {
                PlanError::Infeasible(msg) => PlanError::Infeasible(tag(msg)),
                PlanError::RuntimeError(msg) => PlanError::RuntimeError(tag(msg)),
                PlanError::Oom(msg) => PlanError::Oom(tag(msg)),
            })
        };
        let mut plan = AutoPipe::plan_with(&cfg, db, self.service).map_err(named)?;
        if self.sliced && cfg.schedule_policy != SchedulePolicy::Auto {
            plan.slice(db);
        }
        validate(&plan.schedule)
            .map_err(|e| named(PlanError::Infeasible(format!("invalid schedule: {e}"))))?;
        if let Some(budget) = budget {
            check_memory_budget(&plan.partition, db, &plan.schedule, budget)
                .map_err(|e| named(PlanError::Oom(e.to_string())))?;
        }
        Ok(plan)
    }

    /// A pipeline on `partition` and `schedule`, armed with the session's
    /// fault script and watchdog.
    fn pipeline(&self, partition: Partition, schedule: Schedule) -> Result<Pipeline, Error> {
        let mut pipe =
            Pipeline::try_new(&PipelineConfig::from_session(self.cfg, partition, schedule))?;
        if let Some((fp, time_scale)) = self.cfg.faults.clone() {
            pipe.set_faults(fp, time_scale);
        }
        if let Some(wd) = self.cfg.watchdog {
            // Thread the session seed into the retry jitter unless the
            // caller picked an explicit one — deterministic, and distinct
            // sessions de-synchronize naturally.
            let jitter_seed = match wd.jitter_seed {
                0 => self.cfg.seed,
                explicit => explicit,
            };
            pipe.set_watchdog(WatchdogConfig { jitter_seed, ..wd });
        }
        Ok(pipe)
    }

    /// The run's controller on `width` serving devices, each charged its
    /// configured multiplier.
    fn controller(&self, width: usize) -> Controller {
        let configured = |d| self.cfg.device_multipliers.get(d).copied().unwrap_or(1.0);
        let multipliers: Vec<f64> = (0..width).map(configured).collect();
        let (recovery, elastic) = (self.cfg.recovery.as_ref(), self.cfg.elastic.as_ref());
        Controller::new(&multipliers, recovery, elastic, self.cfg.straggler)
    }

    /// The training loop (see the module docs): `cfg.iterations` steps past
    /// `resumed_from`, each folded through the run's [`Controller`] and its
    /// actions applied in order; a fresh run starts at step 0 and primes a
    /// baseline checkpoint generation.
    fn drive(&self, mut pipe: Pipeline, resumed_from: Option<u64>) -> Result<RunReport, Error> {
        let (base, cfg) = (resumed_from.unwrap_or(0), self.cfg);
        let script = (cfg.faults.as_ref()).map_or_else(FaultPlan::none, |(fp, _)| fp.clone());
        let (m, mbs, model) = (self.microbatches, cfg.mbs, &cfg.model);
        let batch = BatchSet::synthetic(cfg.seed, m, mbs, model.seq_len, model.vocab_size);
        let mut store = cfg.recovery.as_ref().map(RecoveryStore::open).transpose()?;
        if let (Some(store), None) = (&mut store, resumed_from) {
            store.prime(&mut pipe)?;
        }
        let mut ctl = self.controller(pipe.schedule().n_devices);
        let (mut losses, mut iteration_seconds, mut fault_report) = (Vec::new(), Vec::new(), None);
        while losses.len() < cfg.iterations {
            let step = base + losses.len() as u64;
            let actions = match pipe.train_iteration(&batch) {
                Ok(stats) => {
                    losses.push(stats.loss);
                    iteration_seconds.push(stats.wall.as_secs_f64());
                    if let Some(r) = pipe.last_fault_report().filter(|r| !r.events.is_empty()) {
                        fault_report = Some(r.clone());
                    }
                    let membership = &script.membership_at(step + 1);
                    let observed = pipe.last_timeline().map(|tl| (tl, pipe.schedule()));
                    ctl.fold(Outcome::Completed {
                        step: step + 1,
                        membership,
                        observed,
                    })?
                }
                Err(RuntimeError::StageDown { report, .. }) if store.is_some() => {
                    let report = fault_report.insert(report);
                    ctl.fold(Outcome::FailStop { step, report })?
                }
                Err(other) => return Err(other.into()),
            };
            for action in actions {
                match (action, store.as_mut()) {
                    (Action::Checkpoint { step }, Some(store)) => store.save(&mut pipe, step)?,
                    (Action::Restore, Some(store)) => {
                        // Exactly-once: steps past the restored generation
                        // are discarded and re-earned on its parameters.
                        let manifest = store.restore_newest(&mut pipe)?;
                        ctl.restored(manifest.step, manifest.generation);
                        let from = manifest.step.saturating_sub(base) as usize;
                        losses.truncate(from);
                        iteration_seconds.truncate(from);
                    }
                    (
                        Action::Reshape {
                            trigger,
                            width,
                            multipliers,
                        },
                        _,
                    ) => {
                        // Params and optimizer state migrate bit for bit.
                        let plan = self.replan(trigger, width, &multipliers)?;
                        pipe.repartition(&plan.partition, plan.schedule)?;
                    }
                    (Action::Halt { reason }, _) => Err(RuntimeError::Elastic(reason))?,
                    (_, None) => unreachable!("checkpoint I/O is asked for only under recovery"),
                }
            }
        }
        Ok(RunReport {
            family: pipe.schedule().kind,
            losses,
            iteration_seconds,
            fault_report,
            replans: ctl.replans(),
            recoveries: ctl.recoveries(),
            recovery_log: ctl.recovery_log().to_vec(),
            resumed_from_step: resumed_from,
            final_partition: pipe.partition().clone(),
            param_checksum: pipe.param_checksum(),
            elastic_log: ctl.elastic_log().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_exec::{DeviceLost, FaultPlan, StageCrash};
    use autopipe_model::zoo;
    use autopipe_planner::AutoPipeConfig;
    use autopipe_runtime::{Manifest, RecoveryAction};
    use autopipe_schedule::{recompute_mask, zero_bubble};
    use proptest::prelude::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("autopipe_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn the_headline_chain_plans_slices_and_runs() {
        let report = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .seed(7)
            .iterations(2)
            .plan()
            .unwrap()
            .slice()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.losses.len(), 2);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        assert_eq!(report.replans, 0);
        assert!(report.param_checksum.is_finite());
    }

    #[test]
    fn auto_policy_plans_and_runs_the_family_winner() {
        let report = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .microbatch_size(2)
            .schedule_policy(SchedulePolicy::Auto)
            .seed(7)
            .iterations(2)
            .plan()
            .unwrap()
            .slice() // must be a no-op under Auto
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.losses.len(), 2);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        assert!(report.param_checksum.is_finite());
    }

    #[test]
    fn auto_policy_survives_slice_without_overwriting_the_winner() {
        let planned = Session::for_model(zoo::gpt2_345m())
            .stages(4)
            .microbatches(8)
            .microbatch_size(4)
            .schedule_policy(SchedulePolicy::Auto)
            .plan()
            .unwrap();
        let before = planned.plan().schedule.clone();
        let after = planned.slice().unwrap();
        assert_eq!(before, after.plan().schedule);
    }

    #[test]
    fn resume_rebuilds_the_checkpointed_family() {
        // A zero-bubble pipeline checkpointed mid-run must resume as
        // zero-bubble (the manifest's `kind`), not be guessed back to 1F1B,
        // and the stitched trajectory must match an uninterrupted run
        // bit-for-bit.
        let dir = temp_dir("session_resume_family");
        let base = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .microbatch_size(2)
            .seed(11);
        let cfg = base.clone().plan().unwrap().config().clone();
        let partition = base.clone().plan().unwrap().plan().partition.clone();
        let sched = zero_bubble(2, 4);
        let batch = BatchSet::synthetic(
            cfg.seed,
            4,
            cfg.mbs,
            cfg.model.seq_len,
            cfg.model.vocab_size,
        );

        let mk = || {
            Pipeline::try_new(&PipelineConfig::from_session(
                &cfg,
                partition.clone(),
                sched.clone(),
            ))
            .unwrap()
        };
        let mut full = mk();
        let mut full_losses = Vec::new();
        for _ in 0..4 {
            full_losses.push(full.train_iteration(&batch).unwrap().loss);
        }

        let mut first = mk();
        for _ in 0..2 {
            first.train_iteration(&batch).unwrap();
        }
        let mut store = CheckpointStore::open(&dir, 2).unwrap();
        store.save(&first.snapshot(2, "leg1")).unwrap();
        drop(store);

        let resumed = base.iterations(2).resume(&dir).unwrap();
        assert_eq!(resumed.family, ScheduleKind::ZeroBubble);
        assert_eq!(resumed.resumed_from_step, Some(2));
        assert_eq!(resumed.losses, full_losses[2..]);
        assert_eq!(
            resumed.param_checksum.to_bits(),
            full.param_checksum().to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planning_a_large_model_matches_the_facade() {
        // Session::plan on GPT-2 345M picks the same strategy as the
        // paper-facing AutoPipe facade (Table III: complete DP at mbs 4).
        let planned = Session::for_model(zoo::gpt2_345m())
            .devices(4)
            .microbatch_size(4)
            .global_batch(128)
            .plan()
            .unwrap();
        assert_eq!(planned.plan().stages, 1);
        assert_eq!(planned.plan().dp, 4);
    }

    #[test]
    fn slice_is_a_noop_below_two_stages() {
        let planned = Session::for_model(zoo::gpt2_345m())
            .devices(4)
            .microbatch_size(4)
            .global_batch(128)
            .plan()
            .unwrap()
            .slice()
            .unwrap();
        assert_eq!(planned.plan().schedule.n_sliced, 0);
    }

    #[test]
    fn simulate_reports_clean_and_faulty_runs() {
        use autopipe_exec::{FaultPlan, FaultSpec};
        let session = Session::for_model(zoo::gpt2_345m())
            .stages(4)
            .microbatches(8)
            .microbatch_size(4);
        let sched_len = |s: &Session| s.clone();
        let base = sched_len(&session).plan().unwrap().slice().unwrap();
        let clean = base.simulate().unwrap();
        assert!(clean.faulty.is_none());

        let spec = FaultSpec::new(4, base.plan().schedule.devices[0].len(), 0.05);
        let faulty = sched_len(&session)
            .faults(FaultPlan::random(11, &spec), 0.0)
            .plan()
            .unwrap()
            .slice()
            .unwrap()
            .simulate()
            .unwrap();
        let f = faulty.faulty.expect("fault script was configured");
        assert!(
            f.iteration_time >= clean.clean.iteration_time,
            "faults cannot speed the pipeline up"
        );
        // Same schedule, same per-device op order: faults shift time only.
        clean.clean.timeline.same_op_order(&f.timeline).unwrap();
    }

    #[test]
    fn simulate_prices_the_program_the_planner_scored() {
        // A budget that buys feasibility with a recompute mask: the family
        // search picks a masked winner, and `simulate()` must replay it on
        // the costs it was scored on — the masked rates, not the
        // checkpointed backward plus a replay, and each device's multiplier.
        let session = Session::for_model(zoo::gpt2_1_3b())
            .stages(2)
            .microbatches(16)
            .microbatch_size(4)
            .schedule_policy(SchedulePolicy::Auto)
            .recompute_policy(RecomputePolicy::Auto)
            .memory_budget(16_300_000_000);
        for multipliers in [vec![1.0, 1.0], vec![1.0, 2.0]] {
            let planned = session
                .clone()
                .device_multipliers(multipliers.clone())
                .plan()
                .unwrap();
            let plan = planned.plan();
            assert!(
                recompute_mask(&plan.schedule).contains(&true),
                "{multipliers:?}"
            );
            assert_eq!(
                planned.simulate().unwrap().clean.iteration_time.to_bits(),
                plan.price(planned.cost_db(), planned.config()).to_bits(),
                "{multipliers:?}"
            );
        }
    }

    #[test]
    fn facade_recovery_replays_bit_identically() {
        let dir = temp_dir("session_recover");
        let base = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .microbatch_size(2)
            .seed(9)
            .iterations(4);
        let clean = base.clone().plan().unwrap().run().unwrap();
        assert_eq!(clean.recoveries, 0);
        assert!(clean.resumed_from_step.is_none());

        let report = base
            .faults(
                FaultPlan {
                    crashes: vec![StageCrash {
                        device: 1,
                        at_op: 5,
                    }],
                    ..FaultPlan::none()
                },
                0.0,
            )
            .recovery(RecoveryConfig {
                background: false,
                ..RecoveryConfig::new(&dir)
            })
            .plan()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.recoveries, 1);
        assert!(matches!(
            report.recovery_log[0].action,
            RecoveryAction::Resumed { .. }
        ));
        assert_eq!(
            clean.losses, report.losses,
            "restart-in-place through the facade must replay the clean trajectory bit-for-bit"
        );
        assert_eq!(
            clean.param_checksum.to_bits(),
            report.param_checksum.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lost_device_shrinks_through_the_real_planner() {
        let dir = temp_dir("session_shrink");
        let report = Session::for_model(zoo::gpt2_tiny())
            .stages(3)
            .microbatches(4)
            .microbatch_size(2)
            .seed(13)
            .iterations(4)
            .faults(
                FaultPlan {
                    lost: vec![DeviceLost {
                        device: 1,
                        at_op: 3,
                    }],
                    ..FaultPlan::none()
                },
                0.0,
            )
            .recovery(RecoveryConfig {
                background: false,
                ..RecoveryConfig::new(&dir)
            })
            .plan()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.final_partition.n_stages(), 2);
        assert_eq!(report.losses.len(), 4);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        match &report.recovery_log[0].action {
            RecoveryAction::Shrunk {
                device, devices, ..
            } => assert_eq!((*device, *devices), (1, 2)),
            other => panic!("expected a shrink, got {other:?}"),
        }
        // Without elastic membership the shrink is a recovery only.
        assert!(report.elastic_log.is_empty());
        assert_eq!(report.replans, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_continues_the_uninterrupted_trajectory() {
        let dir = temp_dir("session_resume");
        let base = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .microbatch_size(2)
            .seed(11);
        let full = base.clone().iterations(6).plan().unwrap().run().unwrap();

        // First leg: 3 steps with synchronous checkpointing at every step.
        let first = base
            .clone()
            .iterations(3)
            .recovery(RecoveryConfig {
                background: false,
                ..RecoveryConfig::new(&dir)
            })
            .plan()
            .unwrap()
            .run()
            .unwrap();
        // Second leg: rebuilt purely from the manifest — no planner run.
        let resumed = base.iterations(3).resume(&dir).unwrap();

        assert_eq!(resumed.resumed_from_step, Some(3));
        let mut stitched = first.losses.clone();
        stitched.extend_from_slice(&resumed.losses);
        assert_eq!(
            full.losses, stitched,
            "resume must continue exactly where the first leg checkpointed"
        );
        assert_eq!(
            full.param_checksum.to_bits(),
            resumed.param_checksum.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_the_wrong_model_is_a_typed_error() {
        let dir = temp_dir("session_resume_wrong");
        Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .microbatch_size(2)
            .iterations(1)
            .recovery(RecoveryConfig {
                background: false,
                ..RecoveryConfig::new(&dir)
            })
            .plan()
            .unwrap()
            .run()
            .unwrap();
        // The manifest names its model, so a different one — deeper and
        // wider, or only wider — is rejected before a pipeline is built.
        let wider = ModelConfig {
            hidden_size: 2 * zoo::gpt2_tiny().hidden_size,
            ..zoo::gpt2_tiny()
        };
        for model in [zoo::gpt2_345m(), wider] {
            let err = Session::for_model(model)
                .microbatch_size(2)
                .iterations(1)
                .resume(&dir)
                .unwrap_err();
            assert!(
                matches!(&err, Error::Checkpoint(e)
                    if matches!(e.downcast_ref(), Some(CheckpointError::Mismatch(_)))),
                "model mismatch must surface as a typed error, got {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_sessions_error_instead_of_panicking() {
        assert!(matches!(
            Session::for_model(zoo::gpt2_tiny())
                .devices(0)
                .plan()
                .unwrap_err(),
            Error::Config(_)
        ));
        assert!(matches!(
            Session::for_model(zoo::gpt2_tiny())
                .stages(2)
                .microbatches(0)
                .plan()
                .unwrap_err(),
            Error::Config(_)
        ));
        assert!(matches!(
            Session::for_model(zoo::gpt2_tiny())
                .stages(2)
                .microbatches(4)
                .learning_rate(f32::NAN)
                .plan()
                .unwrap_err(),
            Error::Config(_)
        ));
        // Deeper-than-the-model pipelines surface as plan errors, not
        // asserts: tiny has 11 sub-layer blocks, so 16 stages cannot be
        // placed.
        assert!(matches!(
            Session::for_model(zoo::gpt2_tiny())
                .stages(16)
                .microbatches(8)
                .plan()
                .unwrap_err(),
            Error::Plan(_)
        ));
    }

    /// A two-stage `gpt2_tiny` session and a checkpoint directory holding
    /// one trained step of it.
    fn one_step_checkpoint(name: &str) -> (Session, PathBuf) {
        let dir = temp_dir(name);
        let base = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .microbatch_size(2);
        let recovery = RecoveryConfig {
            background: false,
            ..RecoveryConfig::new(&dir)
        };
        let first = base.clone().iterations(1).recovery(recovery);
        first.plan().unwrap().run().unwrap();
        (base, dir)
    }

    #[test]
    fn resuming_zero_iterations_is_a_config_error() {
        let (base, dir) = one_step_checkpoint("session_resume_zero");
        let err = base.iterations(0).resume(&dir).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resuming_under_a_nan_fault_time_scale_is_a_config_error() {
        let (base, dir) = one_step_checkpoint("session_resume_nan");
        let err = (base.faults(FaultPlan::none(), f64::NAN))
            .resume(&dir)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn running_a_planned_session_for_zero_iterations_is_a_config_error() {
        let planned = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .plan()
            .unwrap();
        let err = planned.iterations(0).run().unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn a_zero_straggler_window_is_a_config_error_at_plan_time() {
        let err = Session::for_model(zoo::gpt2_tiny())
            .stages(2)
            .microbatches(4)
            .adaptive(StragglerConfig {
                window: 0,
                ..StragglerConfig::default()
            })
            .plan()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    /// A four-stage `gpt2_tiny` session (m = 4, mbs = 2) — the shape the
    /// re-planning contract is checked on.
    fn four_stage() -> Session {
        Session::for_model(zoo::gpt2_tiny())
            .stages(4)
            .microbatches(4)
            .microbatch_size(2)
    }

    /// `None`, then budgets between the tightest four-stage plan and ample:
    /// at 1.85 MB one and two stages do not fit at all, and at 1.85, 2.10,
    /// 2.45 and 2.75 MB three stages fit only with a recompute mask.
    const BUDGETS: [Option<u64>; 6] = [
        None,
        Some(1_850_000),
        Some(2_100_000),
        Some(2_450_000),
        Some(2_750_000),
        Some(3_150_000),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the trigger asks for, `replan` returns either a plan that
        /// keeps the contract the run started under — executable, inside the
        /// session's memory budget, of a family the policy permits, carrying
        /// the recompute mask the partition search chose — or a typed plan
        /// error naming the width.
        #[test]
        fn every_replan_keeps_the_contract_or_names_the_width(
            width in 1usize..=4,
            slow in (0usize..5, 1.5f64..3.0),
            policy in 0usize..3,
            budget in 0usize..BUDGETS.len(),
        ) {
            let (auto, sliced) = (policy == 2, policy == 1);
            let mut session = four_stage().recompute_policy(RecomputePolicy::Auto);
            if auto {
                session = session.schedule_policy(SchedulePolicy::Auto);
            }
            if let Some(b) = BUDGETS[budget] {
                session = session.memory_budget(b);
            }
            let mut planned = session.plan().unwrap();
            if sliced {
                // Slicing keeps the starting plan's mask and its budget.
                let mask = recompute_mask(&planned.plan().schedule);
                planned = planned.slice().unwrap();
                let start = planned.plan();
                prop_assert_eq!(recompute_mask(&start.schedule), mask);
                if let Some(b) = BUDGETS[budget] {
                    prop_assert!(
                        check_memory_budget(&start.partition, planned.cost_db(), &start.schedule, b)
                            .is_ok()
                    );
                }
            }
            // Device 4 does not exist: no slowdown.
            let mut slowdown = vec![1.0; width];
            if let Some(x) = slowdown.get_mut(slow.0) {
                *x = slow.1;
            }
            let plan = match planned.contract().replan("test swap", width, &slowdown) {
                Ok(plan) => plan,
                Err(e) => {
                    prop_assert!(matches!(e, Error::Plan(_)), "not a plan error: {e}");
                    let named = format!("test swap to width {width}");
                    prop_assert!(e.to_string().contains(&named), "{e}");
                    return Ok(());
                }
            };
            prop_assert!(validate(&plan.schedule).is_ok());
            prop_assert_eq!(plan.schedule.n_stages(), plan.partition.n_stages());
            prop_assert_eq!(plan.schedule.n_devices, width);
            prop_assert_eq!(plan.schedule.n_microbatches, 4);
            let db = planned.cost_db().clone().with_device_multipliers(&slowdown);
            if let Some(b) = BUDGETS[budget] {
                prop_assert!(
                    check_memory_budget(&plan.partition, &db, &plan.schedule, b).is_ok()
                );
            }
            if !auto || width == 1 {
                prop_assert_eq!(plan.schedule.kind, ScheduleKind::OneFOneB);
                prop_assert_eq!(plan.schedule.n_sliced > 0, sliced && width >= 2);
                // Outside the family search the schedule carries exactly the
                // mask the partition search bought feasibility with.
                let cfg = planned.config().planner();
                let searched = planned.service.plan_cfg(&db, width, 4, &cfg).unwrap();
                let mask = &searched.outcome.recompute;
                if mask.iter().any(|&r| r) {
                    prop_assert_eq!(&recompute_mask(&plan.schedule), mask);
                }
            }
        }
    }

    const POLICIES: [SchedulePolicy; 3] = [
        SchedulePolicy::Slicer,
        SchedulePolicy::Auto,
        SchedulePolicy::Plain,
    ];

    /// `plan` priced on `db` under `planned`'s config, and the clean
    /// iteration time `simulate()` reads for it there, as bits.
    fn price_and_simulation(planned: &PlannedSession, db: &CostDb, plan: Plan) -> (u64, u64) {
        let session = PlannedSession {
            db: db.clone(),
            plan,
            ..planned.clone()
        };
        let simulated = session.simulate().unwrap().clean.iteration_time;
        let price = session.plan.price(&session.db, &session.cfg);
        (price.to_bits(), simulated.to_bits())
    }

    /// Peak per-device bytes of a planned session's schedule.
    fn peak_bytes(planned: &PlannedSession) -> u64 {
        let plan = planned.plan();
        check_memory_budget(&plan.partition, &planned.db, &plan.schedule, u64::MAX)
            .expect("an unlimited budget always fits")
            .iter()
            .map(|bd| bd.total())
            .max()
            .unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A plan's price is the clean iteration time `simulate()` reads,
        /// bit for bit, wherever the plan is read: as planned, as sliced,
        /// as re-planned after a shrink and after a slowdown, and as a
        /// checkpoint manifest rebuilds its schedule.
        #[test]
        fn a_plan_prices_to_its_simulation_wherever_it_is_read(
            model in 0usize..4,
            p in 1usize..=8,
            m in 1usize..=24,
            policy in 0usize..3,
            skew in (0usize..2, 0usize..8, 1.5f64..4.0),
            overlap in 0usize..2,
            budget in (0usize..2, 0.2f64..0.9),
        ) {
            let mut session = Session::for_model(zoo::benchmark_models()[model].clone())
                .stages(p)
                .microbatches(m)
                .microbatch_size(4)
                .schedule_policy(POLICIES[policy]);
            let mut configured = vec![1.0; p];
            if skew.0 == 1 {
                configured[skew.1 % p] = skew.2;
                session = session.device_multipliers(configured.clone());
            }
            if overlap == 1 {
                session = session.overlap_comm(Hardware::rtx3090_cluster().link_latency, 4);
            }
            if budget.0 == 1 {
                // Between the all-recompute floor and the plain peak, where
                // only a recompute mask makes the plan fit.
                let peak_under = |recompute| {
                    let s = session.clone().recompute_policy(recompute);
                    s.memory_budget(u64::MAX).plan().map(|s| peak_bytes(&s))
                };
                let floor = peak_under(RecomputePolicy::All);
                if let (Ok(floor), Ok(peak)) = (floor, peak_under(RecomputePolicy::Off)) {
                    let bytes = floor + (peak.saturating_sub(floor) as f64 * budget.1) as u64;
                    session = session.recompute_policy(RecomputePolicy::Auto);
                    session = session.memory_budget(bytes);
                }
            }
            let planned = match session.plan() {
                Ok(planned) => planned,
                Err(e) => {
                    prop_assert!(matches!(e, Error::Plan(_)), "{e}");
                    return Ok(());
                }
            };
            let (price, simulated) =
                price_and_simulation(&planned, &planned.db, planned.plan.clone());
            prop_assert_eq!(price, simulated, "planned");
            let planned = planned.slice().unwrap();
            let (price, simulated) =
                price_and_simulation(&planned, &planned.db, planned.plan.clone());
            prop_assert_eq!(price, simulated, "sliced");

            let mut shrunk = configured.clone();
            shrunk.remove(skew.1 % p);
            let mut slowed = configured;
            slowed[(skew.1 + 1) % p] *= 2.0;
            let run = planned.contract();
            for (trigger, multipliers) in [("shrink", shrunk), ("slowdown", slowed)] {
                if multipliers.is_empty() {
                    continue;
                }
                match run.replan(trigger, multipliers.len(), &multipliers) {
                    Ok(plan) => {
                        let db = planned.db.clone().with_device_multipliers(&multipliers);
                        let (price, simulated) = price_and_simulation(&planned, &db, plan);
                        prop_assert_eq!(price, simulated, "{}", trigger);
                    }
                    Err(e) => prop_assert!(matches!(e, Error::Plan(_)), "{e}"),
                }
            }

            let plan = planned.plan();
            let manifest = Manifest {
                format: 0,
                generation: 0,
                step: 0,
                tag: String::new(),
                model: ModelShape::of(&planned.cfg.model),
                boundaries: plan.partition.boundaries().to_vec(),
                kind: plan.schedule.kind,
                n_sliced: plan.schedule.n_sliced,
                n_chunks: plan.schedule.n_chunks,
                n_microbatches: plan.microbatches,
                recompute: recompute_mask(&plan.schedule),
                checkpointing: planned.cfg.checkpointing,
                stages: Vec::new(),
            };
            let rebuilt = Plan {
                schedule: manifest.schedule().unwrap(),
                ..plan.clone()
            };
            prop_assert_eq!(&rebuilt.schedule, &plan.schedule);
            let (price, simulated) = price_and_simulation(&planned, &planned.db, rebuilt);
            prop_assert_eq!(price, simulated, "rebuilt from a manifest");
        }
    }

    #[test]
    fn replan_uses_the_sessions_knobs_and_charges_a_slow_device() {
        // A shared service whose own config could plan nothing: the session's
        // knobs, not the service's, decide every re-plan.
        let shared = Arc::new(PlanService::with_config(AutoPipeConfig {
            memory_budget: Some(1),
            ..AutoPipeConfig::default()
        }));
        let planned = four_stage().plan_service(shared).plan().unwrap();
        let run = planned.contract();
        let even = run.replan("test swap", 4, &[]).unwrap();
        assert_eq!(even.partition, planned.plan().partition);
        // "Device 1 is 3× slower" goes in as a device multiplier and moves
        // blocks off that device.
        let skewed = run.replan("test swap", 4, &[1.0, 3.0, 1.0, 1.0]).unwrap();
        assert!(
            skewed.partition.range(1).len() < even.partition.range(1).len(),
            "{:?} vs {:?}",
            skewed.partition,
            even.partition
        );
    }
}

//! `autopipe::Session` — the one front door to the whole stack.
//!
//! The workspace's layers (cost model → planner → slicer → event simulator →
//! threaded runtime) each have their own entry points; before this module a
//! caller had to thread partitions, schedules and three config structs
//! between them by hand. `Session` is a builder that walks the pipeline in
//! the paper's order — profile → plan → slice → simulate → run — with one
//! validated [`SessionConfig`] and one [`Error`] type:
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
//! ([`Session::watchdog`]) and straggler-aware re-planning
//! ([`Session::adaptive`]) are all wired into [`PlannedSession::run`].

use std::path::PathBuf;
use std::sync::Arc;

use autopipe_core::{
    AutoPipe, Constraints, ElasticConfig, Error, Plan, RecoveryConfig, SchedulePolicy,
    SessionConfig,
};
use autopipe_cost::{profiler::ProfilerConfig, CostDb, Hardware};
use autopipe_exec::{CommConfig, FaultPlan};
use autopipe_model::ModelConfig;
use autopipe_planner::{AutoPipeConfig, FamilyConfig, PlanService, RecomputePolicy};
use autopipe_runtime::{
    BatchSet, CheckpointStore, ElasticAction, ElasticCoordinator, ElasticEvent, FaultReport,
    Pipeline, PipelineConfig, PipelineSnapshot, RecoveryCoordinator, RecoveryRecord, Replanner,
    RuntimeError, ShrinkPlan, StragglerConfig, StragglerMonitor, WatchdogConfig,
};
use autopipe_schedule::Schedule;
use autopipe_schedule::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble, ScheduleKind};
use autopipe_sim::event::{run_schedule, run_schedule_faulty, EventCosts, EventResult};
use autopipe_sim::OverlapModel;
use autopipe_sim::Partition;
use autopipe_slicer::{plan_slicing, validate_sliced_count};

/// Lower a session's [`Constraints`] into every layer's configuration in
/// one place: the planner's search knobs ([`AutoPipeConfig`]), the
/// cross-family search's knobs ([`FamilyConfig`]), and the executors' comm
/// engine ([`CommConfig`]). Overlap, pruning, the memory budget and the
/// recompute policy are each read from `cfg.constraints` exactly once —
/// every builder method and internal consumer (the plan request, the plan
/// service, the runtime pipeline) goes through these lowerings, so the
/// layers can never disagree about what was asked for.
pub fn lower_constraints(cfg: &SessionConfig) -> (AutoPipeConfig, FamilyConfig, CommConfig) {
    (cfg.planner(), cfg.family(), cfg.constraints.comm())
}

/// Builder for a training session. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Session {
    cfg: SessionConfig,
    /// Per-replica micro-batch count requested via [`Session::microbatches`]
    /// (resolved into `cfg.gbs` at plan time).
    microbatches: Option<usize>,
    devices_pinned: bool,
    tolerance: Tolerance,
    /// Shared planner service; a per-session one is created at [`Session::plan`]
    /// time when none was injected via [`Session::plan_service`].
    service: Option<Arc<PlanService>>,
}

/// Fault-tolerance knobs shared between the builder and the planned session.
#[derive(Debug, Clone, Default)]
struct Tolerance {
    faults: Option<FaultPlan>,
    /// Wall seconds per virtual fault second.
    time_scale: f64,
    watchdog: Option<WatchdogConfig>,
    straggler: Option<StragglerConfig>,
    iterations: usize,
}

impl Session {
    /// Start a session for `model` with AutoPipe's defaults: one device,
    /// micro-batch 4, strategy search over the DP×PP space.
    pub fn for_model(model: ModelConfig) -> Session {
        let mut cfg = SessionConfig::new(model, 1, 4, 4);
        // The serving default: dominance pruning on. It is winner-preserving
        // and warm-started re-plans rely on it; sessions built from an
        // explicit config keep whatever its constraints say.
        cfg.constraints.prune = true;
        Session {
            cfg,
            microbatches: None,
            devices_pinned: false,
            tolerance: Tolerance {
                iterations: 2,
                time_scale: 1.0,
                ..Tolerance::default()
            },
            service: None,
        }
    }

    /// Use an existing [`SessionConfig`] verbatim.
    pub fn from_config(cfg: SessionConfig) -> Session {
        Session {
            cfg,
            microbatches: None,
            devices_pinned: true,
            tolerance: Tolerance {
                iterations: 2,
                time_scale: 1.0,
                ..Tolerance::default()
            },
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
    /// (1F1B, sliced, GPipe, zero-bubble, interleaved), and
    /// [`PlannedSession::slice`] becomes a no-op — the search already scored
    /// the sliced candidates.
    pub fn schedule_policy(mut self, policy: SchedulePolicy) -> Session {
        self.cfg.schedule_policy = policy;
        self
    }

    /// Replace the whole constraint set in one call (see [`Constraints`]).
    /// The granular builder methods below are thin shims over this.
    pub fn constraints(mut self, c: Constraints) -> Session {
        self.cfg.constraints = c;
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

    /// Plan *and run* under the overlapped comm engine: the planner scores
    /// candidates with eager chunked sends (α = `latency`, `chunks` wire
    /// chunks per hand-off) and the runtime executes with the matching
    /// [`CommConfig`].
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

    /// Toggle activation checkpointing.
    pub fn checkpointing(mut self, on: bool) -> Session {
        self.cfg.checkpointing = on;
        self
    }

    /// Inject a deterministic fault script into simulation and execution.
    /// `time_scale` maps the script's virtual fault seconds onto wall-clock
    /// seconds in the threaded runtime (keep it small for tests).
    pub fn faults(mut self, plan: FaultPlan, time_scale: f64) -> Session {
        self.tolerance.faults = Some(plan);
        self.tolerance.time_scale = time_scale;
        self
    }

    /// Arm the stall watchdog for [`PlannedSession::run`].
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> Session {
        self.tolerance.watchdog = Some(cfg);
        self
    }

    /// Enable straggler-aware re-planning: when a stage stays slow past the
    /// monitor's window, the session re-profiles from the recorded timeline,
    /// re-plans, and hot-swaps the partition between iterations.
    pub fn adaptive(mut self, cfg: StragglerConfig) -> Session {
        self.tolerance.straggler = Some(cfg);
        self
    }

    /// Enable crash-consistent checkpointing and fail-stop recovery:
    /// [`PlannedSession::run`] snapshots the pipeline to `cfg.dir` at the
    /// configured step cadence, and when a stage dies mid-iteration the
    /// session restores the newest valid generation and replays from its
    /// step with exactly-once semantics (restart-in-place), or re-plans
    /// onto the surviving devices (shrink-and-replan / a lost device).
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Session {
        self.cfg.recovery = Some(cfg);
        self
    }

    /// Enable elastic membership: per-device health checks drive
    /// quarantine/eviction (shrink to degraded mode), readmission and joins
    /// (grow back, migrating state through the repartition path), and —
    /// when `heterogeneity_aware` is on — device-aware re-planning under
    /// observed slowdowns. Membership events come from the session's
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
        self.tolerance.iterations = n;
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

    /// Read access to the assembled configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The planner service this session will plan through: the injected one,
    /// or a freshly created private service in the session's lowered search
    /// configuration (pruning now comes from [`Constraints`], set by
    /// [`Session::for_model`], instead of being forced here).
    fn resolve_service(&self) -> Arc<PlanService> {
        match &self.service {
            Some(s) => Arc::clone(s),
            None => {
                let (planner_cfg, _, _) = lower_constraints(&self.cfg);
                Arc::new(PlanService::with_config(planner_cfg))
            }
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
        if self.tolerance.iterations < 1 {
            return Err(Error::Config("0 training iterations requested".into()));
        }
        if !(self.tolerance.time_scale.is_finite() && self.tolerance.time_scale >= 0.0) {
            return Err(Error::Config(format!(
                "bad fault time scale {}",
                self.tolerance.time_scale
            )));
        }
        self.cfg.validate()?;
        // Planning is always unsliced here; `slice()` is the explicit next
        // stage of the chain.
        let mut req = self.cfg.plan_request();
        req.enable_slicer = false;
        let service = self.resolve_service();
        let db = AutoPipe::cost_db(&req);
        let plan = AutoPipe::plan_with(&req, &db, &service)?;
        Ok(PlannedSession {
            cfg: self.cfg,
            db,
            plan,
            tolerance: self.tolerance,
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
    /// checkpointed step. When [`Session::recovery`] is also configured,
    /// checkpointing (into the same directory) and fail-stop recovery stay
    /// armed across the resumed run.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Result<RunReport, Error> {
        let dir = dir.into();
        let retain = self.cfg.recovery.as_ref().map(|r| r.retain).unwrap_or(3);
        let store = CheckpointStore::open(&dir, retain).map_err(Error::from)?;
        let (manifest, states) = store.load_latest().map_err(Error::from)?;
        drop(store);

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
        let schedule = match manifest.kind {
            ScheduleKind::OneFOneB => one_f_one_b(p, m),
            ScheduleKind::Sliced1F1B => sliced_1f1b(p, m, manifest.n_sliced),
            ScheduleKind::GPipe => gpipe(p, m),
            ScheduleKind::ZeroBubble => zero_bubble(p, m),
            ScheduleKind::Interleaved => {
                interleaved(p, v, m).map_err(|e| Error::Config(e.to_string()))?
            }
        };
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
        // validation and the replanner's cost model see a consistent
        // single-replica pipeline.
        self.cfg.n_devices = p;
        self.cfg.fixed_stages = Some(p);
        self.cfg.gbs = m * self.cfg.mbs;
        self.cfg.validate()?;
        let db = AutoPipe::cost_db(&self.cfg.plan_request());

        let mut pipe = Pipeline::try_new(&PipelineConfig::from_session(
            &self.cfg, partition, schedule,
        ))?;
        PipelineSnapshot {
            step: manifest.step,
            tag: manifest.tag.clone(),
            boundaries: manifest.boundaries.clone(),
            kind: manifest.kind,
            n_sliced: manifest.n_sliced,
            n_chunks: manifest.n_chunks,
            n_microbatches: m,
            stages: states,
        }
        .restore(&mut pipe)
        .map_err(Error::from)?;
        if let Some(fp) = self.tolerance.faults.clone() {
            pipe.set_faults(fp, self.tolerance.time_scale);
        }
        if let Some(wd) = self.tolerance.watchdog {
            let wd = if wd.jitter_seed == 0 {
                WatchdogConfig {
                    jitter_seed: self.cfg.seed,
                    ..wd
                }
            } else {
                wd
            };
            pipe.set_watchdog(wd);
        }
        let batch = BatchSet::synthetic(
            self.cfg.seed,
            m,
            self.cfg.mbs,
            self.cfg.model.seq_len,
            self.cfg.model.vocab_size,
        );

        let mut coordinator = match &self.cfg.recovery {
            // Same directory: new generations continue the sequence the
            // resumed run left behind. No re-priming — the generation we
            // just loaded *is* the baseline.
            Some(rc) => Some(RecoveryCoordinator::new(RecoveryConfig {
                dir: dir.clone(),
                ..rc.clone()
            })?),
            None => None,
        };
        let service = self.resolve_service();
        let mut replanner = SessionReplanner {
            db: &db,
            service: &service,
            planner_cfg: self.cfg.planner(),
            slice: self.cfg.enable_slicer,
        };

        let base = manifest.step;
        let mut losses: Vec<f32> = Vec::new();
        let mut iteration_seconds = Vec::new();
        let mut fault_report = None;
        while losses.len() < self.tolerance.iterations {
            match pipe.train_iteration(&batch) {
                Ok(stats) => {
                    losses.push(stats.loss);
                    iteration_seconds.push(stats.wall.as_secs_f64());
                    if let Some(coord) = &mut coordinator {
                        coord.maybe_checkpoint(&mut pipe, base + losses.len() as u64)?;
                    }
                }
                Err(RuntimeError::StageDown { report, .. }) if coordinator.is_some() => {
                    fault_report = Some(report.clone());
                    let coord = coordinator.as_mut().expect("guarded above");
                    let action = coord.recover(&mut pipe, &report, &mut replanner)?;
                    // Exactly-once, in the resumed run's local step space.
                    let from = action.from_step().saturating_sub(base) as usize;
                    losses.truncate(from);
                    iteration_seconds.truncate(from);
                }
                Err(other) => return Err(other.into()),
            }
        }
        let (recoveries, recovery_log) = match &coordinator {
            Some(c) => {
                c.drain();
                (c.recoveries(), c.log().to_vec())
            }
            None => (0, Vec::new()),
        };
        Ok(RunReport {
            family: pipe.schedule().kind,
            losses,
            iteration_seconds,
            fault_report,
            replans: 0,
            recoveries,
            recovery_log,
            resumed_from_step: Some(base),
            final_partition: pipe.partition().clone(),
            param_checksum: pipe.param_checksum(),
            elastic_log: Vec::new(),
        })
    }
}

/// [`Replanner`] backed by the real AutoPipe stack: after a shrink the
/// planner re-partitions the block sequence for the surviving device count
/// on the session's cost database, and — when slicing is enabled — the
/// Slicer re-solves the warmup for the new depth, with the result
/// re-validated by [`validate_sliced_count`] (a sliced count tuned for `p`
/// stages is not in general valid for `p − 1`). The partition search goes
/// through the session's [`PlanService`], so repeated shrinks to the same
/// survivor count answer from the plan cache.
struct SessionReplanner<'a> {
    db: &'a CostDb,
    service: &'a PlanService,
    planner_cfg: AutoPipeConfig,
    slice: bool,
}

impl Replanner for SessionReplanner<'_> {
    fn replan(
        &mut self,
        survivors: usize,
        _current: &Partition,
        n_microbatches: usize,
    ) -> Result<ShrinkPlan, Error> {
        let served =
            self.service
                .plan_cfg(self.db, survivors, n_microbatches, &self.planner_cfg)?;
        let outcome = &served.outcome;
        let costs = outcome.partition.stage_costs(self.db);
        let schedule = if self.slice && survivors >= 2 {
            let sp = plan_slicing(&costs, n_microbatches);
            validate_sliced_count(&costs, n_microbatches, sp.n_sliced).map_err(Error::Config)?;
            sp.schedule
        } else {
            one_f_one_b(survivors, n_microbatches)
        };
        Ok(ShrinkPlan {
            partition: outcome.partition.clone(),
            schedule,
            predicted_iteration: Some(outcome.analytic.iteration_time),
        })
    }
}

/// Re-plan for `width` stages through the plan service, optionally on a
/// heterogeneity-scaled cost database (any off-baseline multiplier attaches
/// a device profile, which the planner's balance objective and the service's
/// fingerprints both honour). Shared by the elastic grow, shrink and
/// slowdown-replan paths so every elastic transition plans identically.
fn elastic_plan(
    service: &PlanService,
    db: &CostDb,
    planner_cfg: &AutoPipeConfig,
    slice: bool,
    width: usize,
    m: usize,
    multipliers: &[f64],
) -> Result<(Partition, Schedule), Error> {
    let hetero;
    let db = if multipliers.iter().any(|&x| x != 1.0) {
        hetero = db.clone().with_device_multipliers(multipliers);
        &hetero
    } else {
        db
    };
    let served = service.plan_cfg(db, width, m, planner_cfg)?;
    let outcome = &served.outcome;
    let schedule = if slice && width >= 2 {
        let costs = outcome.partition.stage_costs(db);
        let sp = plan_slicing(&costs, m);
        validate_sliced_count(&costs, m, sp.n_sliced).map_err(Error::Config)?;
        sp.schedule
    } else {
        one_f_one_b(width, m)
    };
    Ok((outcome.partition.clone(), schedule))
}

///// A planned session: the chosen strategy, partition and schedule, ready to
/// slice, simulate or execute.
#[derive(Debug, Clone)]
pub struct PlannedSession {
    cfg: SessionConfig,
    db: CostDb,
    plan: Plan,
    tolerance: Tolerance,
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
    /// [`SchedulePolicy::Auto`]; may differ from the plan's after a shrink).
    pub family: ScheduleKind,
    /// Mean loss per iteration.
    pub losses: Vec<f32>,
    /// Wall-clock seconds per iteration.
    pub iteration_seconds: Vec<f64>,
    /// Watchdog/fault telemetry from the last iteration that had any.
    pub fault_report: Option<FaultReport>,
    /// How many times straggler-aware re-planning hot-swapped the partition.
    pub replans: usize,
    /// How many fail-stop recoveries were executed ([`Session::recovery`]).
    pub recoveries: usize,
    /// What each recovery did: the crash that triggered it and the
    /// restore/shrink action taken.
    pub recovery_log: Vec<RecoveryRecord>,
    /// For [`Session::resume`] runs: the checkpointed step training
    /// continued from. `None` for fresh runs.
    pub resumed_from_step: Option<u64>,
    /// Every elastic decision taken ([`Session::elastic`]): shrinks into
    /// degraded mode, grows after readmission, heterogeneity re-plans.
    /// Empty when elasticity is off.
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
        self.tolerance.faults = Some(plan);
        self.tolerance.time_scale = time_scale;
        self
    }

    /// Arm (or re-arm) the stall watchdog after planning.
    pub fn watchdog(mut self, cfg: WatchdogConfig) -> PlannedSession {
        self.tolerance.watchdog = Some(cfg);
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
        self.tolerance.iterations = n.max(1);
        self
    }

    /// The cost database the plan was computed on.
    pub fn cost_db(&self) -> &CostDb {
        &self.db
    }

    /// The planner service this session plans and re-plans through. Clone
    /// the `Arc` into [`Session::plan_service`] to share the plan cache
    /// with other sessions.
    pub fn plan_service(&self) -> &Arc<PlanService> {
        &self.service
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Apply the AutoPipe Slicer (Algorithm 2): replace the plain 1F1B
    /// schedule with the sliced-Warmup variant. A no-op for single-stage
    /// plans, when slicing is disabled in the config, or under
    /// [`SchedulePolicy::Auto`] (the family search already scored the
    /// sliced candidates — re-slicing would overwrite its pick).
    pub fn slice(mut self) -> Result<PlannedSession, Error> {
        if self.plan.stages < 2
            || !self.cfg.enable_slicer
            || self.cfg.schedule_policy == SchedulePolicy::Auto
        {
            return Ok(self);
        }
        let costs = self.plan.partition.stage_costs(&self.db);
        let sp = plan_slicing(&costs, self.plan.microbatches);
        self.plan.schedule = sp.schedule;
        self.plan.n_sliced = sp.n_sliced;
        Ok(self)
    }

    /// Run the planned schedule through the discrete-event simulator —
    /// fault-free, and additionally under the session's fault script when
    /// one is configured.
    pub fn simulate(&self) -> Result<SimReport, Error> {
        let costs = EventCosts::from_stage_costs(
            &self.plan.partition.stage_costs(&self.db),
            self.cfg.hardware.link_latency,
        );
        let event_cfg = self.cfg.event();
        let clean = run_schedule(&self.plan.schedule, &costs, &event_cfg)?;
        let faulty = match &self.tolerance.faults {
            Some(fp) => Some(run_schedule_faulty(
                &self.plan.schedule,
                &costs,
                &event_cfg,
                fp,
            )?),
            None => None,
        };
        Ok(SimReport { clean, faulty })
    }

    /// Execute the plan on the threaded runtime with synthetic data: build
    /// the pipeline, arm the configured faults/watchdog, train the session's
    /// iterations, and — when [`Session::adaptive`] is on — monitor for
    /// stragglers and hot-swap the partition the moment one is flagged.
    pub fn run(self) -> Result<RunReport, Error> {
        let m = self.plan.microbatches;
        let mut pipe = Pipeline::try_new(&PipelineConfig::from_session(
            &self.cfg,
            self.plan.partition.clone(),
            self.plan.schedule.clone(),
        ))?;
        if let Some(fp) = self.tolerance.faults.clone() {
            pipe.set_faults(fp, self.tolerance.time_scale);
        }
        if let Some(wd) = self.tolerance.watchdog {
            // Thread the session seed into the retry jitter unless the
            // caller picked an explicit one — deterministic, and distinct
            // sessions de-synchronize naturally.
            let wd = if wd.jitter_seed == 0 {
                WatchdogConfig {
                    jitter_seed: self.cfg.seed,
                    ..wd
                }
            } else {
                wd
            };
            pipe.set_watchdog(wd);
        }
        let batch = BatchSet::synthetic(
            self.cfg.seed,
            m,
            self.cfg.mbs,
            self.cfg.model.seq_len,
            self.cfg.model.vocab_size,
        );

        let mut coordinator = match &self.cfg.recovery {
            Some(rc) => {
                let mut c = RecoveryCoordinator::new(rc.clone())?;
                // Baseline generation: a crash in the very first iteration
                // must still have a valid state to restart from.
                c.prime(&mut pipe)?;
                Some(c)
            }
            None => None,
        };
        // Elastic membership: the chaos script's (or health checker's)
        // join/leave/flap/slowdown events drive the coordinator; its
        // grow/shrink/replan decisions execute between iterations through
        // the same repartition migration path recovery uses.
        let mut elastic = self
            .cfg
            .elastic
            .as_ref()
            .map(|ec| ElasticCoordinator::new(self.cfg.n_devices, ec.clone()));
        let membership_faults = self.tolerance.faults.clone().unwrap_or_default();
        let mut replanner = SessionReplanner {
            db: &self.db,
            service: &self.service,
            planner_cfg: self.cfg.planner(),
            slice: self.cfg.enable_slicer,
        };

        let mut losses: Vec<f32> = Vec::new();
        let mut iteration_seconds = Vec::new();
        let mut fault_report = None;
        let mut replans = 0usize;
        // The monitor self-calibrates: the first iteration's timeline is the
        // wall-clock expectation the following iterations are judged against
        // (simulated times are virtual seconds, so they cannot serve as the
        // wall-clock baseline directly).
        let mut monitor: Option<StragglerMonitor> = None;
        while losses.len() < self.tolerance.iterations {
            let stats = match pipe.train_iteration(&batch) {
                Ok(stats) => stats,
                Err(RuntimeError::StageDown { report, .. }) if coordinator.is_some() => {
                    // Fail-stop: restore the newest durable generation and
                    // replay from its step. Exactly-once — losses past the
                    // restored step are discarded and re-earned on the
                    // restored parameters, so the recorded trajectory holds
                    // each optimiser step exactly once.
                    fault_report = Some(report.clone());
                    let coord = coordinator.as_mut().expect("guarded above");
                    let action = coord.recover(&mut pipe, &report, &mut replanner)?;
                    let from = action.from_step() as usize;
                    losses.truncate(from);
                    iteration_seconds.truncate(from);
                    // The old wall-clock baseline is meaningless on the
                    // restored (possibly re-partitioned) pipeline.
                    monitor = None;
                    continue;
                }
                Err(other) => return Err(other.into()),
            };
            losses.push(stats.loss);
            iteration_seconds.push(stats.wall.as_secs_f64());
            if let Some(coord) = &mut coordinator {
                coord.maybe_checkpoint(&mut pipe, losses.len() as u64)?;
            }
            if let Some(el) = elastic.as_mut() {
                let step = losses.len() as u64;
                let events = membership_faults.membership_at(step);
                let hetero_aware = self
                    .cfg
                    .elastic
                    .as_ref()
                    .is_some_and(|e| e.heterogeneity_aware);
                for action in el.on_step(step, &events) {
                    let (width, mult) = match &action {
                        ElasticAction::Halt { reason } => {
                            return Err(RuntimeError::Elastic(reason.clone()).into());
                        }
                        ElasticAction::Shrink { survivors, .. } => (*survivors, None),
                        ElasticAction::Grow { target, .. } => (*target, None),
                        ElasticAction::Replan { multipliers } => {
                            (pipe.partition().n_stages(), Some(multipliers.clone()))
                        }
                    };
                    let mult = match mult {
                        Some(m) => m,
                        // Grow/shrink fold the live per-device multipliers
                        // too, so a shrink away from a slowed device plans
                        // on what the survivors can actually sustain.
                        None if hetero_aware => el.serving_multipliers(),
                        None => Vec::new(),
                    };
                    let (part, sched) = elastic_plan(
                        &self.service,
                        &self.db,
                        &self.cfg.planner(),
                        self.cfg.enable_slicer,
                        width,
                        m,
                        &mult,
                    )?;
                    // State migrates through the same checkpoint-path
                    // repartition recovery uses: bit-identical params and
                    // optimizer state on the new width.
                    pipe.repartition(&part, sched)?;
                    replans += 1;
                    monitor = None;
                }
            }
            if pipe
                .last_fault_report()
                .is_some_and(|r| !r.events.is_empty())
            {
                fault_report = pipe.last_fault_report().cloned();
            }
            let Some(scfg) = self.tolerance.straggler else {
                continue;
            };
            let Some(tl) = pipe.last_timeline().cloned() else {
                continue;
            };
            match monitor.as_mut() {
                None => {
                    monitor = Some(StragglerMonitor::from_timeline(&tl, pipe.schedule(), scfg)?);
                }
                Some(mon) => {
                    let obs = mon.observe(&tl, pipe.schedule());
                    if obs.flagged.is_empty() {
                        continue;
                    }
                    // Re-profile from the observation, re-plan, hot-swap.
                    // Ratios below 1 are clamped: a faster-than-expected
                    // stage is not evidence the cost model overcharges it.
                    let ratios: Vec<f64> = obs.ratios.iter().map(|&r| r.max(1.0)).collect();
                    // Served through the plan cache: the drifted request
                    // warm-starts from the running partition, and repeat
                    // observations of the same drift are pure cache hits.
                    let r = self
                        .service
                        .replan(&self.db, pipe.partition(), &ratios, m)?;
                    let new_partition = &r.served.outcome.partition;
                    let schedule = if self.plan.n_sliced > 0 {
                        plan_slicing(&new_partition.stage_costs(&r.observed_db), m).schedule
                    } else {
                        one_f_one_b(new_partition.n_stages(), m)
                    };
                    pipe.repartition(new_partition, schedule)?;
                    replans += 1;
                    monitor = None; // re-calibrate against the new partition
                }
            }
        }
        let (recoveries, recovery_log) = match &coordinator {
            Some(c) => {
                c.drain();
                (c.recoveries(), c.log().to_vec())
            }
            None => (0, Vec::new()),
        };
        Ok(RunReport {
            family: pipe.schedule().kind,
            losses,
            iteration_seconds,
            fault_report,
            replans,
            recoveries,
            recovery_log,
            resumed_from_step: None,
            final_partition: pipe.partition().clone(),
            param_checksum: pipe.param_checksum(),
            elastic_log: elastic.map(|el| el.log().to_vec()).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_exec::{DeviceLost, FaultPlan, StageCrash};
    use autopipe_model::zoo;
    use autopipe_runtime::RecoveryAction;
    use std::time::Duration;

    /// Watchdog tuned for millisecond-scale crash tests (the default waits
    /// hundreds of milliseconds before giving a dead peer up).
    fn snappy() -> WatchdogConfig {
        WatchdogConfig {
            base_timeout: Duration::from_millis(100),
            slack: 4.0,
            backoff: 2.0,
            max_retries: 3,
            jitter_seed: 0,
        }
    }

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
        assert_eq!(planned.plan().n_sliced, 0);
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
            .watchdog(snappy())
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
            .watchdog(snappy())
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
                devices,
                predicted_iteration,
                ..
            } => {
                assert_eq!(*devices, 2);
                // The facade's replanner runs the real planner, which
                // always carries an analytic prediction for the new plan.
                assert!(predicted_iteration.expect("planner predicts") > 0.0);
            }
            other => panic!("expected a shrink, got {other:?}"),
        }
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
        let err = Session::for_model(zoo::gpt2_345m())
            .microbatch_size(2)
            .iterations(1)
            .resume(&dir)
            .unwrap_err();
        // Depending on how wrong the model is, the mismatch surfaces at
        // pipeline construction (partition covers a different block count)
        // or at restore (per-stage shape validation) — both typed.
        assert!(
            matches!(err, Error::Checkpoint(_) | Error::Runtime(_)),
            "model mismatch must surface as a typed error, got {err}"
        );
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
}

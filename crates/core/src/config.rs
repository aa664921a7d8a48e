//! One configuration for the whole stack.
//!
//! Before this module each layer had its own knob struct — the planner's
//! [`AutoPipeConfig`], the event simulator's [`EventConfig`], the runtime's
//! `PipelineConfig` — and callers had to keep them mutually consistent by
//! hand. [`SessionConfig`] is the single source of truth: it describes the
//! whole session — the job [`crate::AutoPipe::plan`] plans, and the faults,
//! watchdog, straggler monitor and iteration count a run uses — validates
//! every setting in one place ([`SessionConfig::validate`]) and *lowers*
//! into each crate's struct ([`SessionConfig::planner`],
//! [`SessionConfig::event`]; `autopipe-runtime` adds the `PipelineConfig`
//! lowering, since it sits above this crate). The per-crate structs remain
//! the lowering targets, so nothing below the facade changes.

use std::path::PathBuf;
use std::time::Duration;

use autopipe_cost::profiler::ProfilerConfig;
use autopipe_cost::Hardware;
use autopipe_model::{Granularity, ModelConfig};
use autopipe_planner::{AutoPipeConfig, RecomputePolicy};
use autopipe_sim::event::EventConfig;
use autopipe_sim::{CommConfig, FaultPlan, OverlapModel};

use crate::error::Error;

/// Planner-wide constraints, stated once and lowered everywhere.
///
/// Before this struct the same knobs were smeared across three configs: the
/// planner's `AutoPipeConfig { overlap, prune }`, the family search's
/// `FamilyConfig { comm }`, and the executors' `CommConfig` — and nothing
/// expressed a memory budget at all. `Constraints` is the single statement
/// of *what the plan must satisfy*; [`SessionConfig::planner`] (from which
/// the family search's `FamilyConfig::for_planner` derives) and
/// [`Constraints::comm`] are the only lowerings into the per-crate structs,
/// so overlap/prune/budget/recompute cannot drift apart between layers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Constraints {
    /// Hard per-device memory budget in bytes. `None` uses the hardware's
    /// budget for feasibility checks but does not gate the search.
    pub memory_budget: Option<u64>,
    /// Score and simulate under the overlapped comm engine with this cost
    /// model; `None` prices blocking sends. A modelled-wire setting: the
    /// threaded runtime runs the resulting plan through its one
    /// never-blocking send either way.
    pub overlap: Option<OverlapModel>,
    /// How the planner may spend activation recomputation to meet the
    /// budget (per-stage masks, jointly searched with the partition).
    pub recompute: RecomputePolicy,
    /// Dominance pruning in the wave search (winner-preserving).
    pub prune: bool,
}

impl Constraints {
    /// The comm engine the constraints imply for the event simulator
    /// ([`SessionConfig::event`]) and the family search: overlapped eager
    /// sends with the overlap model's chunk count, or the blocking default.
    pub fn comm(&self) -> CommConfig {
        match self.overlap {
            Some(o) => CommConfig::overlapped(o.chunks),
            None => CommConfig::default(),
        }
    }
}

/// How a session chooses the schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// The classic AutoPipe pipeline: plain 1F1B, upgraded to sliced 1F1B
    /// by the Slicer.
    #[default]
    Slicer,
    /// Plain 1F1B on the planned partition, the Slicer off.
    Plain,
    /// Cross-family search ([`autopipe_planner::family`]): score 1F1B,
    /// sliced 1F1B, GPipe, zero-bubble and interleaved candidates — each
    /// gated on validation and the static memory check — and run whichever
    /// simulates fastest.
    Auto,
}

/// What the runtime does when a stage suffers a *restartable* fail-stop
/// crash. (A lost device always forces [`RecoveryPolicy::ShrinkAndReplan`] —
/// there is nothing left to restart on.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Respawn the dead stage from the last durable checkpoint and replay
    /// micro-batches from the checkpointed step, with exactly-once step
    /// semantics: the post-recovery loss trajectory is bit-identical to an
    /// uninterrupted run.
    RestartInPlace,
    /// Give up the crashed device: recovery restores the newest checkpoint
    /// and names the device, and the `Session` re-plans the surviving p−1
    /// devices through its one re-planning path (the run's own policy,
    /// recompute mask and memory budget; sliced again if the run started
    /// sliced) and hot-swaps via the repartition migration path. Under
    /// elastic membership the loss is a departure like a scripted leave.
    ShrinkAndReplan,
}

/// Durable checkpointing and fail-stop recovery knobs, lowered into the
/// runtime's `RecoveryCoordinator` by the `Session` facade.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Directory holding the checkpoint generations.
    pub dir: PathBuf,
    /// Snapshot every `cadence` training steps (1 = every step).
    pub cadence: usize,
    /// How many valid generations to keep on disk (older ones are pruned).
    pub retain: usize,
    /// Policy applied to restartable stage crashes.
    pub policy: RecoveryPolicy,
    /// Give up (surface the runtime error) after this many recoveries in
    /// one run.
    pub max_recoveries: usize,
    /// Write snapshots on a background thread (double-buffered stage-state
    /// export; the 1F1B steady state never blocks on the disk).
    pub background: bool,
}

impl RecoveryConfig {
    /// Checkpoint into `dir` with snappy defaults: snapshot every step,
    /// keep 3 generations, restart crashed stages in place, tolerate up to
    /// 4 recoveries per run.
    pub fn new(dir: impl Into<PathBuf>) -> RecoveryConfig {
        RecoveryConfig {
            dir: dir.into(),
            cadence: 1,
            retain: 3,
            policy: RecoveryPolicy::RestartInPlace,
            max_recoveries: 4,
            background: true,
        }
    }

    /// Reject degenerate knobs with a structured [`Error::Config`].
    pub fn validate(&self) -> Result<(), Error> {
        if self.cadence < 1 {
            return Err(Error::Config(
                "checkpoint cadence must be at least 1".into(),
            ));
        }
        if self.retain < 1 {
            return Err(Error::Config(
                "checkpoint store must retain at least 1 generation".into(),
            ));
        }
        if self.max_recoveries < 1 {
            return Err(Error::Config("max_recoveries must be at least 1".into()));
        }
        Ok(())
    }
}

/// Health-check thresholds for the cluster membership state machine
/// (`autopipe-runtime::membership`). All counters are in heartbeat periods,
/// so the same config is exact on the event simulator (virtual time) and the
/// threaded runtime (wall time × time_scale).
///
/// The state machine is `Ready → Suspect → Quarantined → Evicted`, with
/// `Quarantined → Readmitted → Ready` on sustained recovery. Hysteresis is
/// two-sided: a device must *miss* `suspect_after ≤ quarantine_after ≤
/// evict_after` consecutive heartbeats to walk down, and must *deliver*
/// `quarantine_cooldown` consecutive heartbeats to walk back up — so a
/// flapping device (≥ `flap_threshold` Suspect→Ready recoveries inside
/// `flap_window` ticks) is parked in `Quarantined` instead of oscillating
/// the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Consecutive missed heartbeats before `Ready → Suspect`.
    pub suspect_after: u32,
    /// Consecutive missed heartbeats before `Suspect → Quarantined`.
    pub quarantine_after: u32,
    /// Consecutive missed heartbeats before `Quarantined → Evicted`.
    pub evict_after: u32,
    /// Consecutive *delivered* heartbeats a quarantined device needs before
    /// it is `Readmitted` (then `Ready`).
    pub quarantine_cooldown: u32,
    /// Number of `Suspect → Ready` recoveries inside `flap_window` that
    /// count as flapping and force quarantine.
    pub flap_threshold: u32,
    /// Width of the flap-detection window, in heartbeat ticks.
    pub flap_window: u64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            suspect_after: 2,
            quarantine_after: 4,
            evict_after: 8,
            quarantine_cooldown: 3,
            flap_threshold: 3,
            flap_window: 16,
        }
    }
}

impl MembershipConfig {
    /// Reject degenerate thresholds with a structured [`Error::Config`].
    pub(crate) fn validate(&self) -> Result<(), Error> {
        let fail = |msg: String| Err(Error::Config(msg));
        if self.suspect_after < 1 {
            return fail("suspect_after must be at least 1 missed heartbeat".into());
        }
        if self.quarantine_after < self.suspect_after {
            return fail(format!(
                "quarantine_after {} below suspect_after {}",
                self.quarantine_after, self.suspect_after
            ));
        }
        if self.evict_after < self.quarantine_after {
            return fail(format!(
                "evict_after {} below quarantine_after {}",
                self.evict_after, self.quarantine_after
            ));
        }
        if self.quarantine_cooldown < 1 {
            return fail("quarantine_cooldown must be at least 1 heartbeat".into());
        }
        if self.flap_threshold < 1 {
            return fail("flap_threshold must be at least 1".into());
        }
        if self.flap_window < 1 {
            return fail("flap_window must be at least 1 tick".into());
        }
        Ok(())
    }
}

/// Elastic membership: grow/shrink the pipeline as devices churn instead of
/// merely surviving one loss. Lowered into the runtime's
/// `ElasticCoordinator` by the `Session` facade (requires `recovery` — the
/// grow path migrates state through the checkpoint repartition).
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticConfig {
    /// Health-check state machine thresholds.
    pub membership: MembershipConfig,
    /// Accept joins/readmissions and grow the pipeline back toward the
    /// session's device count. Off = degraded mode only.
    pub grow: bool,
    /// Keep training while at least this many devices survive; below the
    /// floor the run surfaces a runtime error instead of degrading further.
    pub min_devices: usize,
    /// Fold per-device slowdown multipliers into re-planning (the
    /// heterogeneity-aware balance objective). Off = plan homogeneous.
    pub heterogeneity_aware: bool,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            membership: MembershipConfig::default(),
            grow: true,
            min_devices: 1,
            heterogeneity_aware: true,
        }
    }
}

impl ElasticConfig {
    /// Reject degenerate knobs with a structured [`Error::Config`].
    pub(crate) fn validate(&self) -> Result<(), Error> {
        self.membership.validate()?;
        if self.min_devices < 1 {
            return Err(Error::Config(
                "elastic min_devices must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Stall-watchdog knobs, lowered into the runtime's `Watchdog`: bounded
/// channel waits instead of indefinite blocking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Minimum wait budget per channel wait — the deadline floor.
    pub base_timeout: Duration,
    /// Multiplier on the expected (scaled) op gap when an expected timeline
    /// is installed.
    pub slack: f64,
    /// Budget multiplier applied on every retry. The effective per-retry
    /// multiplier is additionally jittered ±25 % (seeded by `jitter_seed`,
    /// keyed on device/op/attempt) so stages that started waiting together
    /// don't re-fire their deadlines in lockstep; the jittered multiplier
    /// never drops below 1, so budgets stay monotone.
    pub backoff: f64,
    /// Expired deadlines tolerated on one wait before the run is aborted.
    pub max_retries: u32,
    /// Seed for the deterministic retry jitter: the same seed replays the
    /// exact same deadline sequence on every wait.
    pub jitter_seed: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Generous for laptop-scale pipelines: healthy iterations complete
        // in milliseconds, so a 500 ms first deadline never fires on a
        // healthy run, while a true deadlock aborts within
        // 0.5·(1+2+4+8+16+32) ≈ 32 s instead of hanging forever.
        WatchdogConfig {
            base_timeout: Duration::from_millis(500),
            slack: 4.0,
            backoff: 2.0,
            max_retries: 5,
            jitter_seed: 0,
        }
    }
}

impl WatchdogConfig {
    /// Reject degenerate knobs with a structured [`Error::Config`].
    fn validate(&self) -> Result<(), Error> {
        if self.base_timeout.is_zero() {
            return Err(Error::Config("watchdog base_timeout of 0".into()));
        }
        if !(self.slack.is_finite() && self.slack > 0.0) {
            return Err(Error::Config(format!("bad watchdog slack {}", self.slack)));
        }
        if !(self.backoff.is_finite() && self.backoff >= 1.0) {
            return Err(Error::Config(format!(
                "watchdog backoff {} must be finite and ≥ 1",
                self.backoff
            )));
        }
        Ok(())
    }
}

/// When the runtime's straggler monitor calls a stage a straggler.
#[derive(Debug, Clone, Copy)]
pub struct StragglerConfig {
    /// Observed/expected compute-time ratio above which a stage counts as
    /// slow in a single iteration.
    pub threshold: f64,
    /// How many *consecutive* slow iterations flag the stage (debounces
    /// one-off jitter — the paper's fault model separates transient spikes
    /// from persistent degradation).
    pub window: usize,
}

impl Default for StragglerConfig {
    fn default() -> Self {
        StragglerConfig {
            threshold: 1.5,
            window: 3,
        }
    }
}

impl StragglerConfig {
    /// Reject degenerate knobs with a structured [`Error::Config`].
    pub fn validate(&self) -> Result<(), Error> {
        if self.window == 0 || !(self.threshold.is_finite() && self.threshold > 1.0) {
            return Err(Error::Config(format!(
                "straggler window must be ≥ 1 and threshold > 1, got window {} threshold {}",
                self.window, self.threshold
            )));
        }
        Ok(())
    }
}

/// Everything a profile → plan → slice → simulate → run session needs, in
/// one validated place.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The model to train.
    pub model: ModelConfig,
    /// The cluster.
    pub hardware: Hardware,
    /// Total number of devices.
    pub n_devices: usize,
    /// Micro-batch size (samples).
    pub mbs: usize,
    /// Global batch size (samples per iteration).
    pub gbs: usize,
    /// Planning granularity; AutoPipe's default is sub-layer.
    pub granularity: Granularity,
    /// Pin the pipeline depth instead of searching the DP×PP space.
    pub fixed_stages: Option<usize>,
    /// How the schedule family is chosen (Slicer pipeline, plain 1F1B, or
    /// cross-family search).
    pub schedule_policy: SchedulePolicy,
    /// Simulate offline profiling noise on the cost database. `None` plans
    /// on analytic ground truth.
    pub profiler: Option<ProfilerConfig>,
    // -- planner knobs (lower into `AutoPipeConfig`) ----------------------
    /// Maximum number of schemes the planner simulates.
    pub max_schemes: usize,
    /// What the plan must satisfy: memory budget, comm overlap, recompute
    /// policy, pruning — lowered into every layer by [`Self::planner`] and
    /// [`Constraints::comm`].
    pub constraints: Constraints,
    // -- simulator knobs (lower into `EventConfig`) -----------------------
    /// Fixed overhead added to every simulated compute op.
    pub kernel_overhead: f64,
    /// Multiplicative jitter σ on simulated compute durations.
    pub jitter_sigma: f64,
    /// Efficiency penalty on half-micro-batch compute ops (1.0 = ideal).
    pub half_efficiency: f64,
    // -- runtime knobs (lower into `PipelineConfig`) ----------------------
    /// Adam learning rate.
    pub lr: f32,
    /// Seed for parameter init, synthetic data and simulator jitter.
    pub seed: u64,
    /// Recompute activations in the backward pass.
    pub checkpointing: bool,
    /// Durable checkpointing + fail-stop recovery. `None` = crash-fragile
    /// (a fail-stop fault surfaces as a runtime error).
    pub recovery: Option<RecoveryConfig>,
    /// Elastic membership: health-checked grow/shrink under churn. `None` =
    /// the pre-elastic behaviour (fail-stop recovery only). Requires
    /// `recovery` — growing migrates state through the checkpoint path.
    pub elastic: Option<ElasticConfig>,
    /// Per-device compute-time multipliers for a heterogeneous cluster
    /// (empty = homogeneous). Folded into the cost database so the
    /// planner's balance objective charges each stage the device that runs
    /// it; folded into plan fingerprints so cached homogeneous plans never
    /// alias.
    pub device_multipliers: Vec<f64>,
    /// Deterministic fault script injected into simulation and execution,
    /// with the wall seconds the threaded runtime spends per virtual fault
    /// second. `None` = fault-free.
    pub faults: Option<(FaultPlan, f64)>,
    /// Stall watchdog for training runs. `None` = the runtime's default.
    pub watchdog: Option<WatchdogConfig>,
    /// Straggler-aware re-planning. `None` = off.
    pub straggler: Option<StragglerConfig>,
    /// Training iterations a run executes.
    pub iterations: usize,
}

impl SessionConfig {
    /// A session with AutoPipe's defaults: the Slicer pipeline on an
    /// RTX-3090 cluster, analytic costs, two training iterations.
    pub fn new(model: ModelConfig, n_devices: usize, mbs: usize, gbs: usize) -> Self {
        let event = EventConfig::default();
        SessionConfig {
            model,
            hardware: Hardware::rtx3090_cluster(),
            n_devices,
            mbs,
            gbs,
            granularity: Granularity::SubLayer,
            fixed_stages: None,
            schedule_policy: SchedulePolicy::default(),
            profiler: None,
            max_schemes: AutoPipeConfig::default().max_schemes,
            constraints: Constraints::default(),
            kernel_overhead: event.kernel_overhead,
            jitter_sigma: event.jitter_sigma,
            half_efficiency: event.half_efficiency,
            lr: 1e-3,
            seed: 0,
            checkpointing: true,
            recovery: None,
            elastic: None,
            device_multipliers: Vec::new(),
            faults: None,
            watchdog: None,
            straggler: None,
            iterations: 2,
        }
    }

    /// Reject impossible geometry and non-finite knobs with a structured
    /// [`Error::Config`] instead of letting a deeper layer panic — the one
    /// check of every setting, made before planning, before resuming and
    /// before every run.
    pub fn validate(&self) -> Result<(), Error> {
        let fail = |msg: String| Err(Error::Config(msg));
        if self.n_devices < 1 {
            return fail("need at least one device".into());
        }
        if self.mbs < 1 {
            return fail("micro-batch size must be at least 1".into());
        }
        if self.gbs < self.mbs {
            return fail(format!(
                "global batch {} smaller than micro-batch {}",
                self.gbs, self.mbs
            ));
        }
        if let Some(s) = self.fixed_stages {
            if s < 1 {
                return fail("fixed_stages = 0 requested".into());
            }
            if !self.n_devices.is_multiple_of(s) {
                return fail(format!(
                    "fixed_stages {} does not divide the {} devices",
                    s, self.n_devices
                ));
            }
        }
        if self.max_schemes < 1 {
            return fail("planner needs a scheme budget of at least 1".into());
        }
        if self.constraints.memory_budget == Some(0) {
            return fail("memory budget of 0 bytes".into());
        }
        if let Some(o) = &self.constraints.overlap {
            if !(o.latency.is_finite() && o.latency >= 0.0) {
                return fail(format!("bad overlap latency {}", o.latency));
            }
            if o.chunks < 1 {
                return fail("overlapped comm needs at least 1 chunk".into());
            }
        }
        if !(self.kernel_overhead.is_finite() && self.kernel_overhead >= 0.0) {
            return fail(format!("bad kernel overhead {}", self.kernel_overhead));
        }
        if !(self.jitter_sigma.is_finite() && self.jitter_sigma >= 0.0) {
            return fail(format!("bad jitter sigma {}", self.jitter_sigma));
        }
        if !(self.half_efficiency.is_finite() && self.half_efficiency > 0.0) {
            return fail(format!("bad half efficiency {}", self.half_efficiency));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return fail(format!("bad learning rate {}", self.lr));
        }
        if let Some(r) = &self.recovery {
            r.validate()?;
        }
        if let Some(e) = &self.elastic {
            e.validate()?;
            if self.recovery.is_none() {
                return fail(
                    "elastic membership requires recovery (checkpointing) to be configured: \
                     growing the pipeline migrates state through the checkpoint path"
                        .into(),
                );
            }
            if e.min_devices > self.n_devices {
                return fail(format!(
                    "elastic min_devices {} exceeds the {} devices in the cluster",
                    e.min_devices, self.n_devices
                ));
            }
        }
        if !self.device_multipliers.is_empty() {
            if self.device_multipliers.len() != self.n_devices {
                return fail(format!(
                    "{} device multipliers for {} devices",
                    self.device_multipliers.len(),
                    self.n_devices
                ));
            }
            for (d, &mult) in self.device_multipliers.iter().enumerate() {
                if !(mult.is_finite() && mult > 0.0) {
                    return fail(format!(
                        "device {d} multiplier {mult} must be finite and > 0"
                    ));
                }
            }
        }
        if let Some((_, time_scale)) = &self.faults {
            if !(time_scale.is_finite() && *time_scale >= 0.0) {
                return fail(format!("bad fault time scale {time_scale}"));
            }
        }
        if let Some(w) = &self.watchdog {
            w.validate()?;
        }
        if let Some(s) = &self.straggler {
            s.validate()?;
        }
        if self.iterations < 1 {
            return fail("0 training iterations requested".into());
        }
        Ok(())
    }

    /// Lower into the planner's search knobs — the *only* place
    /// [`Constraints`] meet `AutoPipeConfig`.
    pub fn planner(&self) -> AutoPipeConfig {
        AutoPipeConfig {
            max_schemes: self.max_schemes,
            overlap: self.constraints.overlap,
            prune: self.constraints.prune,
            memory_budget: self.constraints.memory_budget,
            recompute: self.constraints.recompute,
        }
    }

    /// Lower into the event simulator's knobs, comm engine included, so a
    /// session's simulation prices the wire the planner scored it on.
    pub fn event(&self) -> EventConfig {
        EventConfig {
            kernel_overhead: self.kernel_overhead,
            jitter_sigma: self.jitter_sigma,
            seed: self.seed,
            half_efficiency: self.half_efficiency,
            comm: self.constraints.comm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::zoo;
    use autopipe_planner::FamilyConfig;

    fn cfg() -> SessionConfig {
        SessionConfig::new(zoo::gpt2_tiny(), 2, 4, 16)
    }

    #[test]
    fn default_session_validates_and_lowers_consistently() {
        let c = cfg();
        c.validate().unwrap();
        let p = c.planner();
        assert_eq!(p.max_schemes, AutoPipeConfig::default().max_schemes);
        let e = c.event();
        assert_eq!(e.seed, c.seed);
    }

    #[test]
    fn bad_geometry_is_a_config_error_not_a_panic() {
        for bad in [
            SessionConfig {
                n_devices: 0,
                ..cfg()
            },
            SessionConfig { mbs: 0, ..cfg() },
            SessionConfig { gbs: 2, ..cfg() },
            SessionConfig {
                fixed_stages: Some(3),
                ..cfg()
            },
            SessionConfig {
                lr: f32::NAN,
                ..cfg()
            },
            SessionConfig {
                half_efficiency: 0.0,
                ..cfg()
            },
            SessionConfig {
                iterations: 0,
                ..cfg()
            },
            SessionConfig {
                faults: Some((FaultPlan::default(), f64::NAN)),
                ..cfg()
            },
            SessionConfig {
                watchdog: Some(WatchdogConfig {
                    backoff: 0.5,
                    ..WatchdogConfig::default()
                }),
                ..cfg()
            },
            SessionConfig {
                straggler: Some(StragglerConfig {
                    window: 0,
                    ..StragglerConfig::default()
                }),
                ..cfg()
            },
        ] {
            let err = bad.validate().unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
    }

    #[test]
    fn constraints_lower_into_every_layer_from_one_place() {
        let mut c = cfg();
        c.constraints = Constraints {
            memory_budget: Some(10 << 30),
            overlap: Some(OverlapModel {
                latency: 25e-6,
                chunks: 4,
            }),
            recompute: RecomputePolicy::Auto,
            prune: true,
        };
        c.validate().unwrap();
        let p = c.planner();
        assert_eq!(p.memory_budget, Some(10 << 30));
        assert_eq!(p.recompute, RecomputePolicy::Auto);
        assert!(p.prune);
        assert_eq!(p.overlap.unwrap().chunks, 4);
        let family =
            |c: &SessionConfig| FamilyConfig::for_planner(c.planner(), c.hardware.link_latency);
        let f = family(&c);
        assert_eq!(f.autopipe.memory_budget, p.memory_budget);
        assert_eq!(f.autopipe.recompute, p.recompute);
        assert!(f.comm.overlap);
        assert_eq!(f.comm.chunks, 4);
        assert_eq!(f.latency, c.hardware.link_latency);
        assert_eq!(c.event().comm, c.constraints.comm());
        // Blocking constraints lower to the blocking comm engine.
        assert!(!family(&cfg()).comm.overlap);
        assert_eq!(cfg().constraints.comm(), CommConfig::default());
    }

    #[test]
    fn degenerate_constraints_are_config_errors() {
        let mut c = cfg();
        c.constraints.memory_budget = Some(0);
        assert!(matches!(c.validate().unwrap_err(), Error::Config(_)));
        let mut c = cfg();
        c.constraints.overlap = Some(OverlapModel {
            latency: f64::NAN,
            chunks: 2,
        });
        assert!(matches!(c.validate().unwrap_err(), Error::Config(_)));
        let mut c = cfg();
        c.constraints.overlap = Some(OverlapModel {
            latency: 25e-6,
            chunks: 0,
        });
        assert!(matches!(c.validate().unwrap_err(), Error::Config(_)));
    }

    #[test]
    fn recovery_knobs_validate() {
        let mut c = cfg();
        c.recovery = Some(RecoveryConfig::new("/tmp/ckpt"));
        c.validate().unwrap();
        for bad in [
            RecoveryConfig {
                cadence: 0,
                ..RecoveryConfig::new("/tmp/ckpt")
            },
            RecoveryConfig {
                retain: 0,
                ..RecoveryConfig::new("/tmp/ckpt")
            },
            RecoveryConfig {
                max_recoveries: 0,
                ..RecoveryConfig::new("/tmp/ckpt")
            },
        ] {
            c.recovery = Some(bad);
            let err = c.validate().unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
    }
}

//! Elastic membership, end to end.
//!
//! Four layers of evidence:
//!
//! 1. a **property suite** over the membership state machine — no device is
//!    evicted without a graceful leave or the full missed-heartbeat
//!    threshold, no device is readmitted before serving the quarantine
//!    cooldown, any permutation of a timed event set folds to the same
//!    terminal membership, and random fail-stops, membership scripts and
//!    straggler timelines folded through the run controller keep its
//!    width, step, halt and budget accounting;
//! 2. **session-level elasticity** — scripted leaves shrink the pipeline
//!    into degraded mode, rejoins grow it back through the checkpoint-path
//!    repartition, slowdowns trigger heterogeneity-aware re-plans, a
//!    fail-stop loss is one more departure every later decision sees, every
//!    re-shape charges the serving devices their configured multipliers, a
//!    restartable crash restarts in place without leaving, every
//!    swap keeps the policy and memory budget the run was planned under
//!    (also on a resumed run), and the whole run stays deterministic under
//!    replay, also over seeded random membership scripts;
//! 3. **the price of degraded mode and of heterogeneity** — what serving at
//!    p − 1 costs, and what a plan that knows the device speeds wins;
//! 4. **config validation** — elastic sessions without recovery, bad
//!    multipliers and bad thresholds are rejected up front with actionable
//!    errors.

use std::time::Duration;

use proptest::prelude::*;

use autopipe::{
    ElasticAction, ElasticConfig, Error, MembershipConfig, RecomputePolicy, RecoveryAction,
    RecoveryConfig, SchedulePolicy, Session,
};
use autopipe_cost::{CostDb, Hardware};
use autopipe_exec::{
    splitmix64, DeviceLost, FailStopKind, FaultPlan, MembershipChange, MembershipFault, OpTimes,
    Recorder, StageCrash, Timeline, TraceSink,
};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::{autopipe_plan, device_stage_costs, AutoPipeConfig, PlanError};
use autopipe_runtime::{
    Action, ClusterMembership, Controller, CrashEvent, DeviceState, FaultReport, MemberEvent,
    Outcome, RuntimeError, StragglerConfig, TimedEvent, WatchdogConfig,
};
use autopipe_schedule::{one_f_one_b, recompute_mask, Schedule};
use autopipe_sim::memcheck::check_memory_budget;
use autopipe_sim::{simulate_replay_masked, Partition, SimScratch};

// ---------------------------------------------------------------------------
// 1. Property suite over the membership state machine.
// ---------------------------------------------------------------------------

const DEVICES: usize = 4;

/// 0 → Leave, 1 → Join, 2-5 → Missed, 6-9 → Heartbeat: misses and
/// heartbeats weighted up so walks actually go somewhere.
fn decode(kind: usize) -> MemberEvent {
    match kind {
        0 => MemberEvent::Leave,
        1 => MemberEvent::Join,
        2..=5 => MemberEvent::Missed,
        _ => MemberEvent::Heartbeat,
    }
}

/// Random timed event sets: 4 devices, ticks 0..40, all four event kinds.
fn events_strategy() -> impl Strategy<Value = Vec<TimedEvent>> {
    proptest::collection::vec((0usize..40, 0usize..DEVICES, 0usize..10), 0..80).prop_map(|raw| {
        raw.into_iter()
            .map(|(at, device, kind)| TimedEvent {
                at: at as u64,
                device,
                event: decode(kind),
            })
            .collect()
    })
}

/// Deterministic Fisher–Yates driven by splitmix64 (the shim has no
/// `prop_shuffle`).
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..v.len()).rev() {
        s = splitmix64(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No device reaches `Evicted` without either a graceful `Leave` or at
    /// least `evict_after` missed heartbeats on record — an eviction can
    /// never be fabricated from heartbeats and joins alone.
    #[test]
    fn eviction_requires_a_leave_or_the_full_missed_threshold(
        events in events_strategy(),
    ) {
        let cfg = MembershipConfig::default();
        let mut m = ClusterMembership::new(DEVICES, cfg);
        m.apply_all(&events);
        for d in 0..DEVICES {
            if m.state(d) != DeviceState::Evicted {
                continue;
            }
            let left = events
                .iter()
                .any(|e| e.device == d && e.event == MemberEvent::Leave);
            let missed = events
                .iter()
                .filter(|e| e.device == d && e.event == MemberEvent::Missed)
                .count() as u32;
            prop_assert!(
                left || missed >= cfg.evict_after,
                "device {d} evicted with no leave and only {missed} misses \
                 (threshold {})",
                cfg.evict_after
            );
        }
    }

    /// No device reaches `Readmitted` without first being quarantined and
    /// then delivering at least `quarantine_cooldown` heartbeats — the
    /// hysteresis can't be skipped.
    #[test]
    fn readmission_requires_quarantine_and_the_cooldown(
        events in events_strategy(),
    ) {
        let cfg = MembershipConfig::default();
        let mut m = ClusterMembership::new(DEVICES, cfg);
        m.apply_all(&events);
        for t in m.log().iter().filter(|t| t.to == DeviceState::Readmitted) {
            prop_assert_eq!(
                t.from,
                DeviceState::Quarantined,
                "device {} readmitted from {:?}",
                t.device,
                t.from
            );
            let beats = events
                .iter()
                .filter(|e| e.device == t.device && e.event == MemberEvent::Heartbeat)
                .count() as u32;
            prop_assert!(
                beats >= cfg.quarantine_cooldown,
                "device {} readmitted on {beats} heartbeats (cooldown {})",
                t.device,
                cfg.quarantine_cooldown
            );
        }
    }

    /// `apply_all` is a pure function of the event *set*: any permutation
    /// of the same timed events folds to the same terminal states and the
    /// same transition log.
    #[test]
    fn any_permutation_folds_to_the_same_terminal_membership(
        events in events_strategy(),
        seed in 0usize..1_000_000,
    ) {
        let cfg = MembershipConfig::default();
        let mut fwd = ClusterMembership::new(DEVICES, cfg);
        fwd.apply_all(&events);

        let mut shuffled = events.clone();
        shuffle(&mut shuffled, seed as u64);
        let mut alt = ClusterMembership::new(DEVICES, cfg);
        alt.apply_all(&shuffled);

        prop_assert_eq!(fwd.states(), alt.states());
        prop_assert_eq!(fwd.log(), alt.log());
    }

    /// Serving capacity only moves through explicit transitions: every
    /// device is in exactly one state, and the serving count equals the
    /// Ready+Suspect population.
    #[test]
    fn serving_count_matches_the_state_census(events in events_strategy()) {
        let cfg = MembershipConfig::default();
        let mut m = ClusterMembership::new(DEVICES, cfg);
        m.apply_all(&events);
        let census = m
            .states()
            .iter()
            .filter(|s| matches!(s, DeviceState::Ready | DeviceState::Suspect))
            .count();
        prop_assert_eq!(m.serving(), census);
    }

    /// Random fail-stop reports (restartable crashes and device losses),
    /// membership scripts and straggler timelines, folded through the run
    /// controller the way a run folds them, with the pipeline and the
    /// checkpoint store reduced to the steps they hold:
    ///
    /// * after every step the serving width is the starting width minus the
    ///   shrinks plus the grows on the log, and every re-shape charges
    ///   exactly the serving devices;
    /// * a checkpoint snapshots the step just trained, a restore replays
    ///   from the newest one, and the run ends having kept every step once;
    /// * a replayed step folds no membership decision, and a straggler
    ///   re-plan never shares a step with another re-shape;
    /// * the run halts iff a departure would take the serving set below
    ///   `min_devices`;
    /// * a fail-stop errors iff `max_recoveries` are spent (or it takes the
    ///   only device).
    #[test]
    fn every_fold_accounts_for_width_steps_and_budget(
        seed in 0usize..1_000_000,
        min_devices in 1usize..=3,
        max_recoveries in 1usize..=4,
    ) {
        const STEPS: u64 = 24;
        let seed = seed as u64;
        let script = FaultPlan::random_membership(seed, DEVICES, STEPS, 0.6, 1);
        let elastic = ElasticConfig { membership: fast_membership(), min_devices };
        let recovery = RecoveryConfig {
            cadence: 3,
            max_recoveries,
            ..RecoveryConfig::new("unused")
        };
        let straggler = StragglerConfig { threshold: 1.5, window: 2 };
        let mut ctl =
            Controller::new(&[1.0; DEVICES], Some(&recovery), Some(&elastic), Some(straggler));
        let mut rng = splitmix64(seed ^ 0x1055);
        let (mut width, mut kept, mut newest, mut furthest) = (DEVICES, 0u64, 0u64, 0u64);
        let mut failstops = 0usize;
        while kept < STEPS {
            rng = splitmix64(rng);
            let logged = ctl.elastic_log().len();
            let actions = if rng % 12 == 0 {
                let kind = if (rng >> 8) % 2 == 0 { FailStopKind::Crash } else { FailStopKind::Lost };
                let report = down((rng >> 16) as usize % width, kind);
                failstops += 1;
                match ctl.fold(Outcome::FailStop { step: kept, report: &report }) {
                    Ok(actions) => {
                        prop_assert!(failstops <= max_recoveries);
                        actions
                    }
                    Err(e) => {
                        let only = kind == FailStopKind::Lost && width == 1;
                        prop_assert!(failstops > max_recoveries || only, "{e}");
                        return Ok(());
                    }
                }
            } else {
                kept += 1;
                let sched = one_f_one_b(width, 4);
                let slow = |d: usize| rng % 3 == 0 && (rng >> (20 + d)) & 1 == 1;
                let per_op: Vec<f64> =
                    (0..width).map(|d| if slow(d) { 2.0 } else { 1.0 }).collect();
                let tl = timeline(&sched, &per_op);
                let replayed = kept <= furthest;
                furthest = furthest.max(kept);
                let actions = ctl
                    .fold(Outcome::Completed {
                        step: kept,
                        membership: &script.membership_at(kept),
                        observed: Some((&tl, &sched)),
                    })
                    .unwrap();
                if replayed {
                    prop_assert_eq!(ctl.elastic_log().len(), logged, "step {} replayed", kept);
                }
                actions
            };
            let reshapes = actions.iter().filter(|a| matches!(a, Action::Reshape { .. }));
            let straggler = reshapes.clone().any(
                |a| matches!(a, Action::Reshape { trigger: "straggler re-plan", .. }),
            );
            prop_assert!(!straggler || reshapes.count() == 1, "{:?}", actions);
            for action in actions {
                match action {
                    Action::Checkpoint { step } => {
                        prop_assert_eq!(step, kept);
                        newest = step;
                    }
                    Action::Restore => {
                        ctl.restored(newest, newest);
                        kept = newest;
                    }
                    Action::Reshape { width: w, multipliers, .. } => {
                        prop_assert_eq!(multipliers.len(), w);
                        prop_assert!(w >= min_devices);
                        width = w;
                    }
                    Action::Halt { .. } => {
                        // In place of the shrink a departure would have
                        // called for.
                        prop_assert!(width - 1 < min_devices);
                        return Ok(());
                    }
                }
            }
            let count = |want: fn(&ElasticAction) -> bool| {
                ctl.elastic_log().iter().filter(|e| want(&e.action)).count()
            };
            let shrinks = count(|a| matches!(a, ElasticAction::Shrink { .. }));
            let grows = count(|a| matches!(a, ElasticAction::Grow { .. }));
            prop_assert_eq!(width, DEVICES + grows - shrinks, "{:?}", ctl.elastic_log());
            prop_assert_eq!(ctl.serving().len(), width);
            prop_assert!(width >= min_devices);
        }
        prop_assert_eq!(ctl.recoveries(), failstops);
    }

    /// A clean run — no fail-stop, no membership event, every step's
    /// timeline within the straggler threshold of the first — never
    /// re-shapes.
    #[test]
    fn a_clean_fold_never_reshapes(seed in 0usize..1_000_000) {
        let recovery = RecoveryConfig::new("unused");
        let elastic = ElasticConfig { membership: fast_membership(), min_devices: 1 };
        let straggler = StragglerConfig { threshold: 1.5, window: 1 };
        let mut ctl =
            Controller::new(&[1.0; DEVICES], Some(&recovery), Some(&elastic), Some(straggler));
        let sched = one_f_one_b(DEVICES, 4);
        let mut rng = seed as u64;
        for step in 1..=24 {
            rng = splitmix64(rng);
            let jitter = |d: usize| 1.0 + ((rng >> (8 * d)) & 0xFF) as f64 / 1024.0;
            let tl = timeline(&sched, &(0..DEVICES).map(jitter).collect::<Vec<_>>());
            let actions = ctl
                .fold(Outcome::Completed { step, membership: &[], observed: Some((&tl, &sched)) })
                .unwrap();
            prop_assert_eq!(actions, vec![Action::Checkpoint { step }]);
        }
        prop_assert_eq!(ctl.replans(), 0);
    }
}

/// A fail-stop report with one event of `kind` at pipeline position
/// `device`.
fn down(device: usize, kind: FailStopKind) -> FaultReport {
    FaultReport {
        crashed: vec![CrashEvent {
            device,
            at_op: 0,
            kind,
            detail: None,
        }],
        aborted: true,
        ..FaultReport::default()
    }
}

/// A timeline of `sched` in which every compute op on device `d` takes
/// `per_op[d]` seconds.
fn timeline(sched: &Schedule, per_op: &[f64]) -> Timeline {
    let mut rec = Recorder::for_programs(&sched.devices);
    for (d, ops) in sched.devices.iter().enumerate() {
        let mut t = 0.0;
        let times: Vec<OpTimes> = (ops.iter())
            .map(|op| {
                let start = t;
                t += if op.is_compute() { per_op[d] } else { 0.01 };
                OpTimes {
                    start,
                    ready: start,
                    end: t,
                }
            })
            .collect();
        rec.record_run(d, &times);
    }
    rec.finish()
}

// ---------------------------------------------------------------------------
// 2. Session-level elasticity.
// ---------------------------------------------------------------------------

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
    let dir = std::env::temp_dir().join(format!("autopipe_elastic_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Membership machine tuned so a scripted flap/leave resolves within a
/// handful of training steps.
fn fast_membership() -> MembershipConfig {
    MembershipConfig {
        suspect_after: 1,
        quarantine_after: 2,
        evict_after: 4,
        quarantine_cooldown: 1,
        ..MembershipConfig::default()
    }
}

fn elastic_session(
    name: &str,
    faults: FaultPlan,
    iterations: usize,
) -> (Session, std::path::PathBuf) {
    let dir = temp_dir(name);
    let s = Session::for_model(zoo::gpt2_tiny())
        .stages(2)
        .microbatches(4)
        .microbatch_size(2)
        .seed(7)
        .iterations(iterations)
        .watchdog(snappy())
        .faults(faults, 0.0)
        .recovery(RecoveryConfig {
            background: false,
            ..RecoveryConfig::new(&dir)
        })
        .elastic(ElasticConfig {
            membership: fast_membership(),
            ..ElasticConfig::default()
        });
    (s, dir)
}

/// A graceful leave shrinks the pipeline into degraded mode (p − 1
/// stages), the run completes, and the decision is on the elastic log.
#[test]
fn a_scripted_leave_shrinks_into_degraded_mode() {
    let mut faults = FaultPlan::default();
    faults.membership.push(MembershipFault {
        device: 1,
        at_step: 2,
        change: MembershipChange::Leave,
    });
    let (session, dir) = elastic_session("leave", faults, 4);
    let report = session.plan().unwrap().run().unwrap();
    assert_eq!(report.losses.len(), 4);
    assert!(report.losses.iter().all(|l| l.is_finite()));
    assert_eq!(
        report.final_partition.n_stages(),
        1,
        "pipeline should be serving degraded at p − 1"
    );
    assert!(
        report.elastic_log.iter().any(|e| matches!(
            e.action,
            ElasticAction::Shrink {
                survivors: 1,
                device: 1
            }
        )),
        "missing shrink decision: {:?}",
        report.elastic_log
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Leave then rejoin: the pipeline shrinks to p − 1, the returning device
/// proves itself through quarantine, and the controller grows back to p —
/// parameters migrating through the same repartition path both ways. Back
/// at the starting width the run is on the starting plan again (same costs,
/// deterministic search): a run that never called `.slice()` is on plain
/// 1F1B, not silently sliced, and an `Auto` run is on the family search's
/// winner, not on whatever a swap hard-codes.
#[test]
fn a_rejoining_device_grows_the_pipeline_back() {
    // The grow lands on step 3; the `Auto` pass stops one step after it.
    for (policy, iterations) in [(SchedulePolicy::Slicer, 6), (SchedulePolicy::Auto, 4)] {
        let mut faults = FaultPlan::default();
        faults.membership.push(MembershipFault {
            device: 1,
            at_step: 1,
            change: MembershipChange::Leave,
        });
        faults.membership.push(MembershipFault {
            device: 1,
            at_step: 2,
            change: MembershipChange::Join,
        });
        let (session, dir) = elastic_session("rejoin", faults, iterations);
        let planned = session.schedule_policy(policy).plan().unwrap();
        let start = planned.plan().clone();
        let report = planned.run().unwrap();
        assert_eq!(report.losses.len(), iterations);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        let shrinks = report
            .elastic_log
            .iter()
            .filter(|e| matches!(e.action, ElasticAction::Shrink { .. }))
            .count();
        let grows = report
            .elastic_log
            .iter()
            .filter(|e| matches!(e.action, ElasticAction::Grow { target: 2, .. }))
            .count();
        assert_eq!(shrinks, 1, "log: {:?}", report.elastic_log);
        assert_eq!(grows, 1, "log: {:?}", report.elastic_log);
        assert_eq!(
            report.final_partition, start.partition,
            "{policy:?}: pipeline should be back on the starting partition"
        );
        assert_eq!(
            report.family, start.schedule.kind,
            "{policy:?}: the grow left the family the run started on"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A memory-budgeted `Auto` run that loses a device ends on what the
/// session's own budgeted plan for the narrower pipeline is — at this budget
/// a family-search winner whose partition only fits with a recompute mask,
/// carried by the schedule — or stops with the typed OOM naming the width;
/// it never finishes on an unbudgeted plain or sliced 1F1B.
#[test]
fn a_budgeted_auto_run_keeps_its_budget_across_a_shrink() {
    const BUDGET: u64 = 2_450_000;
    let mut faults = FaultPlan::default();
    faults.membership.push(MembershipFault {
        device: 3,
        at_step: 1,
        change: MembershipChange::Leave,
    });
    let (session, dir) = elastic_session("budget", faults, 2);
    let session = session
        .schedule_policy(SchedulePolicy::Auto)
        .memory_budget(BUDGET)
        .recompute_policy(RecomputePolicy::Auto);
    // What the session plans for three devices under the same constraints.
    let narrow = session.clone().stages(3).plan().unwrap();
    let (expect, db) = (narrow.plan(), narrow.cost_db());
    assert!(
        recompute_mask(&expect.schedule).iter().any(|&r| r),
        "the budget no longer forces a mask at width 3; pick another budget"
    );
    check_memory_budget(&expect.partition, db, &expect.schedule, BUDGET).unwrap();
    match session.stages(4).plan().unwrap().run() {
        Ok(report) => {
            assert_eq!(report.final_partition, expect.partition);
            assert_eq!(report.family, expect.schedule.kind);
        }
        Err(Error::Plan(PlanError::Oom(msg))) => assert!(msg.contains("width 3"), "{msg}"),
        Err(other) => panic!("expected the run to finish or a typed OOM, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed run goes through the same loop as a fresh one: a leave scripted
/// past the checkpointed step shrinks the resumed pipeline, and the decision
/// is logged at the step counted from the manifest.
#[test]
fn a_resumed_run_honours_a_scripted_leave() {
    let mut faults = FaultPlan::default();
    faults.membership.push(MembershipFault {
        device: 1,
        at_step: 2,
        change: MembershipChange::Leave,
    });
    let (session, dir) = elastic_session("resume", faults, 2);
    let first = session.clone().iterations(1).plan().unwrap().run().unwrap();
    assert!(first.elastic_log.is_empty(), "{:?}", first.elastic_log);
    let resumed = session.resume(&dir).unwrap();
    assert_eq!(resumed.resumed_from_step, Some(1));
    assert_eq!(resumed.losses.len(), 2);
    assert_eq!(resumed.final_partition.n_stages(), 1);
    assert_eq!(resumed.replans, 1);
    assert_eq!(resumed.elastic_log.len(), 1, "{:?}", resumed.elastic_log);
    assert_eq!(resumed.elastic_log[0].step, 2);
    assert!(matches!(
        resumed.elastic_log[0].action,
        ElasticAction::Shrink {
            survivors: 1,
            device: 1
        }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A three-stage elastic session (seed 13) whose device 1 is lost in the
/// first iteration, with `membership` scripted on top.
fn losing_device_1(
    name: &str,
    membership: Vec<MembershipFault>,
    iterations: usize,
) -> (Session, std::path::PathBuf) {
    let faults = FaultPlan {
        lost: vec![DeviceLost {
            device: 1,
            at_op: 3,
        }],
        membership,
        ..FaultPlan::none()
    };
    let (session, dir) = elastic_session(name, faults, iterations);
    (session.stages(3).seed(13), dir)
}

/// A restartable crash under elastic membership restarts in place: the
/// device is still there, so nothing leaves the serving set, the run ends on
/// the partition it was planned on, and the replay earns a clean run's
/// losses.
#[test]
fn a_crashed_device_under_elastic_membership_restarts_in_place() {
    let crash = FaultPlan {
        crashes: vec![StageCrash {
            device: 1,
            at_op: 3,
        }],
        ..FaultPlan::none()
    };
    let (session, dir) = elastic_session("crash", crash, 3);
    let planned = session.stages(3).seed(13).plan().unwrap();
    let start = planned.plan().partition.clone();
    let report = planned.run().unwrap();
    let (clean, clean_dir) = elastic_session("crash_clean", FaultPlan::none(), 3);
    let clean = clean.stages(3).seed(13).plan().unwrap().run().unwrap();
    assert_eq!(report.recoveries, 1);
    assert!(
        !(report.elastic_log.iter()).any(|e| matches!(e.action, ElasticAction::Shrink { .. })),
        "a crashed device must not shrink the pipeline: {:?}",
        report.elastic_log
    );
    assert_eq!(report.final_partition, start);
    assert_eq!(report.losses, clean.losses);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

fn actions(report: &autopipe::RunReport) -> Vec<ElasticAction> {
    report
        .elastic_log
        .iter()
        .map(|e| e.action.clone())
        .collect()
}

/// A device lost to a fail-stop leaves the membership, so when it joins
/// again it proves itself and the pipeline grows back to full width.
#[test]
fn a_lost_device_that_rejoins_grows_the_pipeline_back() {
    let join = MembershipFault {
        device: 1,
        at_step: 2,
        change: MembershipChange::Join,
    };
    let (session, dir) = losing_device_1("loss_rejoin", vec![join], 4);
    let report = session.plan().unwrap().run().unwrap();
    assert_eq!(report.losses.len(), 4);
    assert!(matches!(
        report.recovery_log[0].action,
        RecoveryAction::Shrunk { device: 1, .. }
    ));
    assert_eq!(
        actions(&report),
        vec![
            ElasticAction::Shrink {
                survivors: 2,
                device: 1
            },
            ElasticAction::Grow {
                target: 3,
                device: 1
            }
        ]
    );
    assert_eq!(report.final_partition.n_stages(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A leave after a loss shrinks from the width the loss left, and a loss
/// that would take the run below the elastic floor halts it like a
/// scripted leave would.
#[test]
fn a_leave_after_a_loss_shrinks_what_is_left() {
    let leave = MembershipFault {
        device: 2,
        at_step: 2,
        change: MembershipChange::Leave,
    };
    let (session, dir) = losing_device_1("loss_leave", vec![leave], 3);
    let report = session.clone().plan().unwrap().run().unwrap();
    assert_eq!(report.losses.len(), 3);
    assert_eq!(
        actions(&report).last(),
        Some(&ElasticAction::Shrink {
            survivors: 1,
            device: 2
        })
    );
    assert_eq!(report.final_partition.n_stages(), 1);

    let floored = session.elastic(ElasticConfig {
        membership: fast_membership(),
        min_devices: 3,
    });
    let err = floored.plan().unwrap().run().unwrap_err();
    assert!(
        matches!(&err, Error::Runtime(e) if matches!(
            e.downcast_ref::<RuntimeError>(),
            Some(RuntimeError::Elastic(_))
        )),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A slowdown after a loss is charged to the devices that still serve: the
/// re-plan carries one multiplier per survivor and lands on what a
/// two-device session with those speeds plans.
#[test]
fn a_slowdown_after_a_loss_replans_for_the_survivors() {
    let slow = MembershipFault {
        device: 2,
        at_step: 1,
        change: MembershipChange::Slowdown { factor: 3.0 },
    };
    let (session, dir) = losing_device_1("loss_slowdown", vec![slow], 2);
    let report = session.plan().unwrap().run().unwrap();
    assert!(
        actions(&report).contains(&ElasticAction::Replan {
            multipliers: vec![1.0, 3.0]
        }),
        "{:?}",
        report.elastic_log
    );
    let skewed = Session::for_model(zoo::gpt2_tiny())
        .stages(2)
        .microbatches(4)
        .microbatch_size(2)
        .seed(13)
        .device_multipliers(vec![1.0, 3.0])
        .plan()
        .unwrap();
    assert_eq!(report.final_partition, skewed.plan().partition);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent slowdown triggers a heterogeneity-aware re-plan carrying
/// the observed per-device multipliers.
#[test]
fn a_slowdown_triggers_a_heterogeneity_replan() {
    let mut faults = FaultPlan::default();
    faults.membership.push(MembershipFault {
        device: 1,
        at_step: 2,
        change: MembershipChange::Slowdown { factor: 3.0 },
    });
    let (session, dir) = elastic_session("slowdown", faults, 4);
    let report = session.plan().unwrap().run().unwrap();
    assert_eq!(report.losses.len(), 4);
    let replan = report
        .elastic_log
        .iter()
        .find_map(|e| match &e.action {
            ElasticAction::Replan { multipliers } => Some(multipliers.clone()),
            _ => None,
        })
        .expect("no heterogeneity replan on the log");
    assert_eq!(replan, vec![1.0, 3.0]);
    assert_eq!(report.final_partition.n_stages(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a `gpt2_tiny` session at m = 4, mbs = 2, seed 7 plans on devices
/// with these multipliers.
fn planned_partition(multipliers: Vec<f64>) -> Partition {
    let stages = multipliers.len();
    (Session::for_model(zoo::gpt2_tiny()).stages(stages))
        .microbatches(4)
        .microbatch_size(2)
        .seed(7)
        .device_multipliers(multipliers)
        .plan()
        .unwrap()
        .plan()
        .partition
        .clone()
}

/// A configured multiplier belongs to its device: when device 0 of a
/// `[1, 3, 1]` cluster leaves, the survivors are charged `[3, 1]`, not the
/// first two entries of the configured list.
#[test]
fn a_shrink_charges_the_survivors_their_configured_multipliers() {
    let mut faults = FaultPlan::default();
    faults.membership.push(MembershipFault {
        device: 0,
        at_step: 1,
        change: MembershipChange::Leave,
    });
    let (session, dir) = elastic_session("configured_shrink", faults, 2);
    let report = (session.stages(3).device_multipliers(vec![1.0, 3.0, 1.0]))
        .plan()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        report.final_partition,
        planned_partition(vec![3.0, 1.0]),
        "{:?}",
        report.elastic_log
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A slowdown scripted on a configured heterogeneous cluster keeps the
/// other devices' multipliers: `[1, 5]` with device 0 at 2× re-plans for
/// `[2, 5]`, not for `[2, 1]`.
#[test]
fn a_slowdown_keeps_the_other_devices_configured_multipliers() {
    let mut faults = FaultPlan::default();
    faults.membership.push(MembershipFault {
        device: 0,
        at_step: 1,
        change: MembershipChange::Slowdown { factor: 2.0 },
    });
    let (session, dir) = elastic_session("configured_slowdown", faults, 2);
    let report = (session.device_multipliers(vec![1.0, 5.0]))
        .plan()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        actions(&report),
        vec![ElasticAction::Replan {
            multipliers: vec![2.0, 5.0]
        }]
    );
    assert_eq!(report.final_partition, planned_partition(vec![2.0, 5.0]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same elastic script replayed from scratch reproduces the identical
/// loss trajectory, elastic decisions and final parameters — elasticity
/// never spends the determinism the executors guarantee.
#[test]
fn elastic_runs_replay_bit_identically() {
    let script = || {
        let mut faults = FaultPlan::default();
        faults.membership.push(MembershipFault {
            device: 1,
            at_step: 1,
            change: MembershipChange::Leave,
        });
        faults.membership.push(MembershipFault {
            device: 1,
            at_step: 3,
            change: MembershipChange::Join,
        });
        faults
    };
    let (a, dir_a) = elastic_session("replay_a", script(), 6);
    let (b, dir_b) = elastic_session("replay_b", script(), 6);
    let ra = a.plan().unwrap().run().unwrap();
    let rb = b.plan().unwrap().run().unwrap();
    assert_eq!(ra.losses, rb.losses);
    assert_eq!(ra.elastic_log, rb.elastic_log);
    assert_eq!(
        ra.param_checksum.to_bits(),
        rb.param_checksum.to_bits(),
        "params drifted across replay"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Seeded chaos: each `random_membership` script (joins, leaves, flaps and
/// slowdowns on a two-device session, eight steps) runs twice through
/// `Session`. No run deadlocks, and the two runs of a seed end the same way:
/// the same losses, elastic decisions and parameter bits, or the same halt.
/// Seeds 0..10 reach every decision: seed 0 shrinks, grows back and
/// re-plans, and seed 3 halts when its last serving device is quarantined.
#[test]
fn seeded_membership_scripts_replay_bit_identically() {
    const STEPS: usize = 8;
    let (mut shrinks, mut grows, mut replans, mut halts) = (0, 0, 0, 0);
    for seed in 0..10 {
        let run = |replay: &str| {
            let script = FaultPlan::random_membership(seed, 2, STEPS as u64, 0.5, 1);
            let (session, dir) = elastic_session(&format!("chaos_{seed}_{replay}"), script, STEPS);
            let ended = match session.plan().unwrap().run() {
                Ok(r) => {
                    let losses: Vec<u32> = r.losses.iter().map(|l| l.to_bits()).collect();
                    Ok((losses, r.elastic_log, r.param_checksum.to_bits()))
                }
                Err(e) => {
                    assert!(
                        matches!(&e, Error::Runtime(r) if matches!(
                            r.downcast_ref::<RuntimeError>(),
                            Some(RuntimeError::Elastic(_))
                        )),
                        "seed {seed}: {e}"
                    );
                    Err(e.to_string())
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            ended
        };
        let first = run("a");
        assert_eq!(first, run("b"), "seed {seed}: the replay ended differently");
        let Ok((_, log, _)) = first else {
            halts += 1;
            continue;
        };
        for e in &log {
            match e.action {
                ElasticAction::Shrink { .. } => shrinks += 1,
                ElasticAction::Grow { .. } => grows += 1,
                ElasticAction::Replan { .. } => replans += 1,
                ElasticAction::Halt { .. } => {}
            }
        }
    }
    assert!(
        shrinks > 0 && grows > 0 && replans > 0 && halts > 0,
        "{shrinks} shrinks, {grows} grows, {replans} re-plans, {halts} halts"
    );
}

// ---------------------------------------------------------------------------
// 3. The price of degraded mode and of heterogeneity.
// ---------------------------------------------------------------------------

fn gpt2_345m_db() -> CostDb {
    let hw = Hardware::rtx3090_cluster();
    CostDb::build(&zoo::gpt2_345m(), &hw, 4, true, Granularity::SubLayer)
}

/// Degraded mode's price on GPT-2 345M at m = 8: the best three-stage plan,
/// what a four-device pipeline serves while one device is out, runs ×1.223
/// the best four-stage plan's iteration.
#[test]
fn serving_at_three_of_four_devices_costs_a_fifth_more() {
    let db = gpt2_345m_db();
    let cfg = AutoPipeConfig::default();
    let full = autopipe_plan(&db, 4, 8, &cfg).unwrap();
    let degraded = autopipe_plan(&db, 3, 8, &cfg).unwrap();
    let cost = degraded.analytic.iteration_time / full.analytic.iteration_time;
    assert!((cost - 1.223).abs() < 5e-4, "degraded cost ×{cost:.4}");
}

/// On a cluster whose device 2 runs 2.5× slow, the plan searched on the true
/// device speeds beats the homogeneous plan, both priced on those speeds
/// with every stage's re-forward: 2 290.16 vs 4 303.08 ms, ×1.879.
#[test]
fn the_heterogeneity_aware_plan_beats_the_homogeneous_one_on_a_skewed_cluster() {
    let (p, m) = (4, 8);
    let db = gpt2_345m_db();
    let skewed = db.clone().with_device_multipliers(&[1.0, 1.0, 2.5, 1.0]);
    let cfg = AutoPipeConfig::default();
    let homo = autopipe_plan(&db, p, m, &cfg).unwrap();
    let hetero = autopipe_plan(&skewed, p, m, &cfg).unwrap();
    let price = |part: &Partition| {
        let costs = device_stage_costs(part, &skewed);
        let replays = [skewed.checkpointing; 4];
        simulate_replay_masked(&costs, m, &mut SimScratch::new(), None, Some(&replays))
            .iteration_time
    };
    let (t_homo, t_hetero) = (price(&homo.partition), price(&hetero.partition));
    assert_eq!(t_hetero.to_bits(), hetero.analytic.iteration_time.to_bits());
    assert!((t_hetero * 1e3 - 2290.16).abs() < 0.01, "{t_hetero}");
    assert!((t_homo * 1e3 - 4303.08).abs() < 0.01, "{t_homo}");
    let win = t_homo / t_hetero;
    assert!((win - 1.879).abs() < 5e-4, "win ×{win:.4}");
}

// ---------------------------------------------------------------------------
// 4. Config validation.
// ---------------------------------------------------------------------------

/// Elastic membership without checkpointing configured is rejected up
/// front — growing migrates state through the checkpoint path, so there is
/// nothing correct the session could do later.
#[test]
fn elastic_without_recovery_is_rejected_upfront() {
    let err = Session::for_model(zoo::gpt2_tiny())
        .stages(2)
        .microbatches(4)
        .elastic(ElasticConfig::default())
        .plan()
        .unwrap_err();
    match err {
        Error::Config(msg) => assert!(msg.contains("recovery"), "unhelpful message: {msg}"),
        other => panic!("expected Config error, got {other}"),
    }
}

/// Device multipliers that don't match the cluster, or aren't finite and
/// positive, are rejected at plan time.
#[test]
fn bad_device_multipliers_are_rejected_upfront() {
    let wrong_len = Session::for_model(zoo::gpt2_tiny())
        .stages(2)
        .microbatches(4)
        .device_multipliers(vec![1.0, 2.0, 3.0])
        .plan()
        .unwrap_err();
    assert!(matches!(wrong_len, Error::Config(_)), "{wrong_len}");

    let non_positive = Session::for_model(zoo::gpt2_tiny())
        .stages(2)
        .microbatches(4)
        .device_multipliers(vec![1.0, 0.0])
        .plan()
        .unwrap_err();
    assert!(matches!(non_positive, Error::Config(_)), "{non_positive}");
}

/// Inverted membership thresholds are rejected by config validation.
#[test]
fn inverted_membership_thresholds_are_rejected() {
    let dir = temp_dir("bad_thresholds");
    let err = Session::for_model(zoo::gpt2_tiny())
        .stages(2)
        .microbatches(4)
        .recovery(RecoveryConfig::new(&dir))
        .elastic(ElasticConfig {
            membership: MembershipConfig {
                suspect_after: 5,
                quarantine_after: 2,
                ..MembershipConfig::default()
            },
            ..ElasticConfig::default()
        })
        .plan()
        .unwrap_err();
    assert!(matches!(err, Error::Config(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

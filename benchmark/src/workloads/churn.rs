//! `train_churn`: the runtime used *differently* — checkpoint writes beside
//! forward/backward, a fail-stop recovery, shrink/grow hot swaps and a
//! heterogeneity re-plan, all through `Session::run`'s own control loops.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use autopipe::model::zoo;
use autopipe::runtime::{BatchSet, Pipeline, PipelineConfig, WatchdogConfig};
use autopipe::schedule::one_f_one_b;
use autopipe::sim::Partition;
use autopipe::{
    ElasticAction, ElasticConfig, MembershipConfig, PlannedSession, RecoveryConfig, RunReport,
    Session,
};

use crate::env::Scratch;
use crate::gen::{churn_script, ChurnExpectation, CHURN_STEPS};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::train::{
    sample_plan_chain, set_harness_share, traced_segment, write_trace, TrainSpec,
    PLAN_SAMPLE_RATIO, PROBE_RESERVE_S,
};
use crate::{timed_setup, Args, Checks, Outcome, RepStats};

/// Checkpoint every other step, written by the background writer.
const CADENCE: usize = 2;

pub fn spec() -> TrainSpec {
    TrainSpec {
        model: zoo::gpt2_tiny(),
        microbatches: 8,
        mbs: 2,
        iters: CHURN_STEPS,
        warmup_iters: 3,
    }
}

/// Watchdog tuned so a dead peer is given up within a few hundred
/// milliseconds (the default waits half a second before its first retry).
fn snappy_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        base_timeout: Duration::from_millis(100),
        slack: 4.0,
        backoff: 2.0,
        max_retries: 3,
        jitter_seed: 0,
    }
}

/// Membership thresholds under which a scripted leave/join resolves within
/// a handful of steps (the settings `tests/elastic.rs` uses).
fn fast_membership() -> MembershipConfig {
    MembershipConfig {
        suspect_after: 1,
        quarantine_after: 2,
        evict_after: 4,
        quarantine_cooldown: 1,
        ..MembershipConfig::default()
    }
}

fn recovery(dir: PathBuf) -> RecoveryConfig {
    RecoveryConfig {
        cadence: CADENCE,
        retain: 3,
        background: true,
        ..RecoveryConfig::new(dir)
    }
}

fn churn_session(spec: &TrainSpec, seed: u64, dir: PathBuf) -> Session {
    spec.session(seed)
        .recovery(recovery(dir))
        .elastic(ElasticConfig {
            membership: fast_membership(),
            ..ElasticConfig::default()
        })
        .watchdog(snappy_watchdog())
        .faults(churn_script(seed).0, 0.0)
}

/// What the elastic log of a run adds up to.
struct Swaps {
    shrinks: usize,
    grows: usize,
    replans: usize,
    degraded_steps: usize,
}

fn swaps(report: &RunReport) -> Swaps {
    let step_of = |want: fn(&ElasticAction) -> bool| {
        report
            .elastic_log
            .iter()
            .find(|e| want(&e.action))
            .map(|e| e.step)
    };
    let count = |want: fn(&ElasticAction) -> bool| {
        report
            .elastic_log
            .iter()
            .filter(|e| want(&e.action))
            .count()
    };
    let is_shrink = |a: &ElasticAction| matches!(a, ElasticAction::Shrink { .. });
    let is_grow = |a: &ElasticAction| matches!(a, ElasticAction::Grow { .. });
    let is_replan = |a: &ElasticAction| matches!(a, ElasticAction::Replan { .. });
    let degraded_steps = match (step_of(is_shrink), step_of(is_grow)) {
        (Some(s), Some(g)) => g.saturating_sub(s) as usize,
        (Some(s), None) => CHURN_STEPS.saturating_sub(s as usize),
        _ => 0,
    };
    Swaps {
        shrinks: count(is_shrink),
        grows: count(is_grow),
        replans: count(is_replan),
        degraded_steps,
    }
}

/// The run trained every step exactly once, ended at full width, logged
/// exactly what the script prescribes, and replayed the first repetition
/// bit for bit.
fn verify(report: &RunReport, expect: &ChurnExpectation, first: &RunReport, checks: &mut Checks) {
    checks.check(
        report.losses.len() == CHURN_STEPS && report.losses.iter().all(|l| l.is_finite()),
        || {
            format!(
                "wanted {CHURN_STEPS} finite losses, got {:?}",
                report.losses
            )
        },
    );
    checks.check(report.final_partition.n_stages() == crate::STAGES, || {
        format!(
            "run ended at width {}, not full width",
            report.final_partition.n_stages()
        )
    });
    let s = swaps(report);
    checks.check(
        report.recoveries == expect.recoveries
            && s.shrinks == expect.shrinks
            && s.grows == expect.grows
            && s.replans == expect.replans
            && s.degraded_steps == expect.degraded_steps,
        || {
            format!(
                "logged {} recoveries / {} shrinks / {} grows / {} replans / {} degraded steps, \
                 script prescribes {expect:?}; log: {:?}",
                report.recoveries,
                s.shrinks,
                s.grows,
                s.replans,
                s.degraded_steps,
                report.elastic_log
            )
        },
    );
    checks.check(
        report.losses == first.losses
            && report.param_checksum.to_bits() == first.param_checksum.to_bits()
            && report.elastic_log == first.elastic_log,
        || "repetition did not replay the first bit-identically".to_string(),
    );
    checks.passed(CHURN_STEPS as u64);
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Outcome {
    let spec = spec();
    let mut checks = Checks::default();
    let scratch = Scratch::create().expect("scratch directory");
    let (_, expect) = churn_script(args.seed);
    let session = churn_session(&spec, args.seed, scratch.sub("unused"));
    let (planned, setup_s) = timed_setup(|| {
        let planned = session
            .clone()
            .plan()
            .and_then(PlannedSession::slice)
            .expect("set-up: plan chain");
        // Warm-up on the clean path: the churn path needs a checkpoint
        // directory per run and is what the timed repetitions measure.
        spec.session(args.seed)
            .iterations(spec.warmup_iters)
            .plan()
            .and_then(PlannedSession::slice)
            .and_then(PlannedSession::run)
            .expect("set-up: warm-up run");
        planned
    });

    let mut reps = RepStats::identical_batches();
    let mut first: Option<RunReport> = None;
    let t0 = Instant::now();
    let mut sample_s = 0.0;
    loop {
        // Dropping the previous repetition's generations first also drops
        // their dirty pages, so the kernel is not still writing them back
        // while the plan chains are timed.
        let dir = scratch.sub("checkpoints");
        sample_plan_chain(&session, sample_s, &mut reps, &mut checks);
        let armed = planned.clone().recovery(recovery(dir));
        let t = Instant::now();
        let result = armed.run();
        let wall = t.elapsed().as_secs_f64();
        sample_s = PLAN_SAMPLE_RATIO * wall;
        match result {
            Ok(report) => {
                let first = first.get_or_insert_with(|| report.clone());
                verify(&report, &expect, first, &mut checks);
                // Only exactly-once steps count as tokens.
                reps.add_work(CHURN_STEPS as f64 * spec.tokens_per_iter() / wall);
            }
            Err(e) => {
                checks.check(false, || format!("run(): {e}"));
                break;
            }
        }
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let metrics = reps.metrics("train_churn", setup_s);
    Outcome { checks, metrics }
}

fn traced(args: &Args) -> Outcome {
    let spec = spec();
    let mut checks = Checks::default();
    let scratch = Scratch::create().expect("scratch directory");
    let mut tr = Tracer::new(true);

    // One churn repetition and one clean repetition of the same steps.
    let (_, expect) = churn_script(args.seed);
    let planned = churn_session(&spec, args.seed, scratch.sub("checkpoints"))
        .plan()
        .and_then(PlannedSession::slice)
        .expect("plan chain");
    let t = Instant::now();
    let churn = tr.span("session.run_churn", 1, || planned.clone().run());
    let churn_wall = t.elapsed().as_secs_f64();
    let clean_planned = spec
        .session(args.seed)
        .plan()
        .and_then(PlannedSession::slice)
        .expect("plan chain");
    let t = Instant::now();
    let clean = tr.span("session.run_clean", 2, || clean_planned.clone().run());
    let clean_wall = t.elapsed().as_secs_f64();

    // Iteration time at the degraded width, for the gap account.
    let degraded_ms = degraded_iteration_ms(&clean_planned, &mut checks);

    // Stage / engine / checkpoint numbers on the same model, clean, in what
    // the two repetitions left of the window.
    let budget = (args.seconds - PROBE_RESERVE_S - churn_wall - clean_wall).max(1.0);
    let mut metrics = traced_segment(&spec, args.seed, budget, &mut tr, &mut checks, &scratch);

    match (&churn, &clean) {
        (Ok(churn), Ok(clean)) => {
            verify(churn, &expect, churn, &mut checks);
            let s = swaps(churn);
            metrics.set("recovery.count", churn.recoveries as f64);
            metrics.set("elastic.swaps", (s.shrinks + s.grows + s.replans) as f64);
            metrics.set("elastic.degraded_steps", s.degraded_steps as f64);
            metrics.set("churn.wall_vs_clean", churn_wall / clean_wall);
            checks.check(
                clean.losses.len() == CHURN_STEPS && clean.losses.iter().all(|l| l.is_finite()),
                || format!("clean run losses {:?}", clean.losses),
            );
            // Account for the gap from what the layers cost on their own:
            // checkpoints (capture stalls the trainer, the background save
            // takes one of the two cores), hot swaps, steps at the degraded
            // width, and the crashed iteration plus its restore.
            let ms = |name: &str| metrics.get(name).unwrap_or(0.0);
            let checkpoints = (CHURN_STEPS / CADENCE + 1) as f64;
            let iter_ms = ms("engine.iter_ms_p50");
            let explained_ms = checkpoints
                * (ms("checkpoint.capture_ms") + ms("checkpoint.save_ms"))
                + (s.shrinks + s.grows + s.replans) as f64 * ms("engine.repartition_ms")
                + s.degraded_steps as f64 * (degraded_ms - iter_ms).max(0.0)
                + churn.recoveries as f64 * (iter_ms + ms("checkpoint.load_ms"));
            let gap_ms = (churn_wall - clean_wall) * 1e3;
            metrics.set("churn.gap_explained_share", explained_ms / gap_ms);
        }
        (churn, clean) => {
            checks.check(churn.is_ok(), || {
                format!("churn run(): {}", churn.as_ref().err().unwrap())
            });
            checks.check(clean.is_ok(), || {
                format!("clean run(): {}", clean.as_ref().err().unwrap())
            });
        }
    }
    set_harness_share(&tr, &mut metrics);
    metrics.extend(probes::fixed_request_layers());
    write_trace(&tr, &args.workload, args.seed);
    Outcome { checks, metrics }
}

/// Median iteration time of the planned model on a single stage — the width
/// the pipeline trains at between the shrink and the grow.
fn degraded_iteration_ms(planned: &PlannedSession, checks: &mut Checks) -> f64 {
    let cfg = planned.config();
    let m = planned.plan().microbatches;
    let single = Partition::new(vec![0, planned.plan().partition.n_blocks()]);
    let mut pipe = Pipeline::try_new(&PipelineConfig::from_session(
        cfg,
        single,
        one_f_one_b(1, m),
    ))
    .expect("single-stage pipeline builds");
    let batch = BatchSet::synthetic(
        cfg.seed,
        m,
        cfg.mbs,
        cfg.model.seq_len,
        cfg.model.vocab_size,
    );
    let mut ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let ok = pipe.train_iteration(&batch).is_ok();
            checks.check(ok, || "degraded-width iteration failed".to_string());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

//! Cost of trace emission in the event simulator.
//!
//! The executor spine records per-op times via the `TraceSink` abstraction
//! (`autopipe_exec::Recorder` stores the 24-byte `OpTimes` third of each
//! event; the op lanes are block-copied from the schedule).
//! `replay_schedule` plugs in the no-op sink instead. This test measures
//! both on a large schedule and asserts the recording overhead stays below
//! 5% of the replay time, so full telemetry can stay on by default in the
//! experiment harness. It is a timing gate, so it runs in release only:
//! `cargo test --release -p autopipe-bench --test trace_overhead`.
//!
//! Measurement notes, learned the hard way on shared machines:
//!
//! * The two arms are timed in *paired, order-alternating* reps and the
//!   overhead is the median of per-rep differences. Timing the arms in
//!   separate blocks lets clock/frequency drift bias whichever runs later;
//!   min-of-N of each arm separately is not robust either, because the
//!   quietest moment each arm sees differs.
//! * An A/A null experiment (untraced vs untraced through the same
//!   estimator) measures the residual bias of the harness on this machine;
//!   the assertion allows for it. On a quiet machine the null is ~0 and the
//!   5% budget applies exactly.
//! * The assertion uses `EventConfig::actual_run`, the profile every
//!   harness experiment replays with (see `systems.rs` and `exps/`); the
//!   ideal-clock profile is printed for reference.
//! * Contention episodes inflate the traced arm more than the null detects
//!   (recording adds memory traffic, which is what a busy neighbour starves
//!   first). Noise only ever *adds* to the measured overhead, so the test
//!   takes the best of a few trials — the least-inflated upper bound on the
//!   true cost — and asserts on that.
//! * On a contended host the 5% figure itself can become unattainable: the
//!   irreducible act of *storing* the trace slows down with the machine.
//!   So each trial also calibrates that floor — the recorder driven
//!   directly with dummy times, same lifecycle, same burst stores, no
//!   simulator — and a trial alternatively passes if emission costs under
//!   2× the calibrated storage cost. On a quiet machine the 5% branch
//!   governs; the calibration branch only keeps contention from turning a
//!   memory-bandwidth shortage into a false regression signal.

use std::hint::black_box;
use std::time::Instant;

use autopipe_exec::{OpTimes, Recorder, TraceSink};
use autopipe_schedule::{sliced_1f1b, Schedule};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts, EventSummary};
use autopipe_sim::{replay_schedule, ReplayScratch};

/// The null side: the same sweep with no recorder. A fresh scratch per run,
/// so both sides pay for their transport and per-device state.
fn untraced(sched: &Schedule, costs: &EventCosts, cfg: &EventConfig) -> EventSummary {
    replay_schedule(sched, costs, cfg, &mut ReplayScratch::new()).unwrap()
}

fn big_case() -> (Schedule, EventCosts) {
    let p = 8;
    let sched = sliced_1f1b(p, 64, 4);
    let costs = EventCosts {
        f: (0..p).map(|s| 1.0 + 0.05 * s as f64).collect(),
        b: (0..p).map(|s| 2.0 + 0.1 * s as f64).collect(),
        latency: 0.001,
        volume: 0.03,
    };
    (sched, costs)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median paired difference `g − f` and median `f` time over `reps`
/// order-alternating reps.
fn paired_median<F: FnMut(), G: FnMut()>(reps: usize, mut f: F, mut g: G) -> (f64, f64) {
    let mut diffs = Vec::with_capacity(reps);
    let mut bases = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (tf, tg);
        if rep % 2 == 0 {
            let t = Instant::now();
            f();
            tf = t.elapsed().as_secs_f64();
            let t = Instant::now();
            g();
            tg = t.elapsed().as_secs_f64();
        } else {
            let t = Instant::now();
            g();
            tg = t.elapsed().as_secs_f64();
            let t = Instant::now();
            f();
            tf = t.elapsed().as_secs_f64();
        }
        diffs.push(tg - tf);
        bases.push(tf);
    }
    (median(diffs), median(bases))
}

/// Median cost of the recorder's raw memory work on this machine right
/// now: build it for the schedule's programs, push every op's times
/// through a short burst buffer (as the sweep does), finish into a
/// timeline, drop it. No simulator — this is the floor the machine sets
/// on storing the trace at all.
fn storage_floor(sched: &Schedule, reps: usize) -> f64 {
    let dummy = OpTimes {
        start: 0.0,
        ready: 1.0,
        end: 2.0,
    };
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut r = Recorder::for_programs(&sched.devices);
        let mut burst: Vec<OpTimes> = Vec::new();
        for (d, prog) in sched.devices.iter().enumerate() {
            burst.clear();
            for _ in 0..prog.len() {
                burst.push(dummy);
                if burst.len() == 4 {
                    r.record_run(d, &burst);
                    burst.clear();
                }
            }
            if !burst.is_empty() {
                r.record_run(d, &burst);
            }
        }
        black_box(r.finish());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(samples)
}

/// One full measurement trial: the A/A null (measurement bias allowance)
/// followed by the traced-vs-untraced overhead of both replay profiles.
/// Returns `(noise, overhead_margin)` where `overhead_margin` is the
/// actual_run overhead minus its `5% + noise` budget (negative = pass).
fn trial(sched: &Schedule, costs: &EventCosts, reps: usize, n_ops: usize) -> (f64, f64) {
    // A/A null: the same workload through both slots of the estimator.
    // Its magnitude is this machine's measurement bias, granted as an
    // allowance on top of the 5% budget below.
    let null_cfg = EventConfig::actual_run(1e-4, 1);
    untraced(sched, costs, &null_cfg);
    let (null_diff, null_base) = paired_median(
        reps / 2,
        || {
            untraced(sched, costs, &null_cfg);
        },
        || {
            untraced(sched, costs, &null_cfg);
        },
    );
    let noise = (null_diff / null_base).abs();
    let floor = storage_floor(sched, reps / 2);
    println!(
        "A/A null (measurement bias): {:+.2}%; storage floor {:.1}µs",
        noise * 100.0,
        floor * 1e6
    );

    let mut actual_run = (f64::INFINITY, f64::INFINITY);
    for (label, cfg) in [
        ("ideal", EventConfig::default()),
        ("actual_run", EventConfig::actual_run(1e-4, 1)),
    ] {
        // Warm up both paths once before timing.
        run_schedule(sched, costs, &cfg).unwrap();
        untraced(sched, costs, &cfg);
        let (diff, base) = paired_median(
            reps,
            || {
                untraced(sched, costs, &cfg);
            },
            || {
                run_schedule(sched, costs, &cfg).unwrap();
            },
        );
        let overhead = diff / base;
        println!(
            "trace emission [{label}]: untraced {:.1}µs, overhead {:+.1}µs over {} ops -> {:+.2}%",
            base * 1e6,
            diff * 1e6,
            n_ops,
            overhead * 100.0
        );
        if label == "actual_run" {
            actual_run = (diff, base);
        }
    }
    // Margin against the better of the two budgets: 5% of replay time
    // (plus measurement bias) or 2× the calibrated storage floor.
    let (diff, base) = actual_run;
    let margin = f64::min(diff / base - (0.05 + noise), (diff - 2.0 * floor) / base);
    (noise, margin)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn trace_emission_stays_within_budget() {
    let (sched, costs) = big_case();
    let n_ops: usize = sched.devices.iter().map(|d| d.len()).sum();

    let reps = 400;

    // The acceptance check, on the profile the harness replays with. Best
    // of up to five trials: contention inflates measured overhead, never
    // deflates it, so the smallest margin is the trustworthy one.
    let mut best = (f64::NAN, f64::INFINITY);
    for t in 1..=5 {
        let (noise, margin) = trial(&sched, &costs, reps, n_ops);
        if margin < best.1 {
            best = (noise, margin);
        }
        if best.1 < 0.0 {
            break;
        }
        println!("trial {t} over budget by {:+.2}%, retrying", margin * 100.0);
    }
    assert!(
        best.1 < 0.0,
        "trace emission exceeds every budget by {:.2}% of an actual_run \
         replay (budgets: 5% + {:.2}% measured machine bias, or 2x the \
         calibrated storage floor)",
        best.1 * 100.0,
        best.0 * 100.0
    );
}

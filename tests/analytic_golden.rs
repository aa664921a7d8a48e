//! The simulators' per-op output, pinned against a table captured before
//! the timing loops were merged.
//!
//! The fast scalars and the full replay come out of one sweep, and
//! `replay_schedule` is the event sweep, so the equivalence proptests can no
//! longer catch a change that moves both sides together. This table can:
//! `tests/data/analytic_golden.txt` holds, for 16 fixed
//! `(costs, m, overlap, mask)` points, one 64-bit fold per stage over every
//! op of the replay arena (identity, phase, start / end / intra-ready /
//! cross-ready bits, both predecessors, in arena order), then the critical
//! path, master stage, iteration time, startup overhead and per-stage busy
//! time in full; and, for three seeds × the five schedule families, one fold
//! per device over every `OpTimes` of a `run_schedule_faulty` timeline plus
//! the counters and crash times of a `run_schedule_failstop` replay. A
//! change that is *meant* to alter simulated times regenerates it with
//! `cargo test --release --test analytic_golden -- --ignored --nocapture`.

use std::fmt::Write;

use autopipe_exec::{splitmix64, FaultPlan, FaultSpec, Timeline};
use autopipe_schedule::generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble};
use autopipe_schedule::{Schedule, ScheduleKind};
use autopipe_sim::analytic::{simulate_replay_masked, OverlapModel, SimScratch};
use autopipe_sim::event::{run_schedule_failstop, run_schedule_faulty, EventConfig, EventCosts};
use autopipe_sim::{CommConfig, StageCosts};

type Point = (StageCosts, usize, Option<OverlapModel>, Option<Vec<bool>>);

/// The family label as the table was captured, when sliced 1F1B was a
/// family of its own rather than 1F1B with `n_sliced > 0`.
fn family_label(sched: &Schedule) -> String {
    match sched.kind {
        ScheduleKind::OneFOneB if sched.n_sliced > 0 => "Sliced1F1B".into(),
        kind => format!("{kind:?}"),
    }
}

/// Stage costs that differ per stage and are not round in binary.
fn ragged(n: usize, comm: f64) -> StageCosts {
    let f = (0..n).map(|x| 1.0 + 0.137 * ((x * 5) % 7) as f64).collect();
    let b = (0..n).map(|x| 2.0 + 0.291 * ((x * 3) % 5) as f64).collect();
    StageCosts::new(f, b, comm)
}

fn points() -> Vec<Point> {
    let ov = |chunks| {
        Some(OverlapModel {
            latency: 0.05,
            chunks,
        })
    };
    let alternating = |n: usize| Some((0..n).map(|x| x.is_multiple_of(2)).collect::<Vec<bool>>());
    vec![
        (StageCosts::new(vec![2.0], vec![4.0], 0.5), 5, None, None), // n = 1
        (ragged(4, 0.05), 2, None, None),                            // m < n
        (ragged(4, 0.05), 4, None, None),                            // m = n
        (ragged(8, 0.013), 16, None, None),
        (ragged(16, 0.007), 64, None, None),
        // Exact zeros: forwards, backwards, comm, everything.
        (
            StageCosts::new(vec![0.0; 3], vec![1.0, 0.5, 1.0], 0.01),
            6,
            None,
            None,
        ),
        (
            StageCosts::new(vec![1.0, 1.0], vec![0.0, 0.0], 0.0),
            3,
            None,
            None,
        ),
        (ragged(4, 0.0), 8, None, None),
        (
            StageCosts::new(vec![0.0; 3], vec![0.0; 3], 0.0),
            4,
            None,
            None,
        ),
        // All-equal stages: every tie rule fires.
        (
            StageCosts::new(vec![1.0; 4], vec![2.0; 4], 0.0),
            8,
            None,
            None,
        ),
        (ragged(4, 1.05), 10, ov(1), None),
        (ragged(4, 1.05), 10, ov(4), None),
        (
            ragged(4, 0.05),
            10,
            None,
            Some(vec![false, true, false, false]),
        ),
        (ragged(4, 0.05), 10, None, Some(vec![true; 4])),
        (ragged(4, 1.05), 10, ov(4), alternating(4)),
        (ragged(8, 0.4), 16, ov(4), alternating(8)),
    ]
}

fn bits(xs: &[f64]) -> String {
    let words: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    words.join(",")
}

/// Fold `words` into `h`; any changed word changes the result.
fn fold(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, &w| splitmix64(h ^ w))
}

fn timeline_rows(out: &mut String, tl: &Timeline) {
    for d in 0..tl.n_devices() {
        let h = tl.device(d).fold(0, |h, ev| {
            fold(h, &[ev.start, ev.ready, ev.end].map(f64::to_bits))
        });
        writeln!(out, "  device {d} ops={} fold={h:016x}", tl.n_ops(d)).unwrap();
    }
}

/// What the current simulators produce, in the golden file's format.
fn table() -> String {
    let mut out = String::new();
    for (idx, (costs, m, overlap, mask)) in points().iter().enumerate() {
        let r = simulate_replay_masked(
            costs,
            *m,
            &mut SimScratch::new(),
            overlap.as_ref(),
            mask.as_deref(),
        );
        writeln!(out, "analytic {idx} n={} m={m}", costs.n_stages()).unwrap();
        assert_eq!(r.ops.len(), costs.n_stages() * 2 * m);
        for (x, stage) in r.ops.chunks(2 * m).enumerate() {
            let h = stage.iter().fold(0, |h, o| {
                let pred = |i: Option<usize>| i.map_or(u64::MAX, |i| i as u64);
                fold(
                    h,
                    &[
                        o.stage as u64,
                        o.class as u64,
                        o.mb as u64,
                        o.phase as u64,
                        o.start.to_bits(),
                        o.end.to_bits(),
                        o.intra_ready.to_bits(),
                        o.cross_ready.to_bits(),
                        pred(o.intra_pred),
                        pred(o.cross_pred),
                    ],
                )
            });
            writeln!(out, "  stage {x} fold={h:016x}").unwrap();
        }
        let path: Vec<String> = r.critical_path.iter().map(|i| i.to_string()).collect();
        writeln!(out, "  path {}", path.join(",")).unwrap();
        writeln!(
            out,
            "  master={} time={} startup={} busy={}",
            r.master_stage,
            bits(&[r.iteration_time]),
            bits(&[r.startup_overhead]),
            bits(&r.stage_busy)
        )
        .unwrap();
    }

    let (p, m) = (4, 8);
    for seed in 0..3u64 {
        // One config per seed: exact, jittered with launch overhead, and
        // overlapped with the half-batch penalty.
        let cfg = match seed {
            0 => EventConfig::default(),
            1 => EventConfig {
                kernel_overhead: 0.01,
                jitter_sigma: 0.02,
                seed,
                ..EventConfig::default()
            },
            _ => EventConfig {
                half_efficiency: 1.25,
                comm: CommConfig::overlapped(4),
                ..EventConfig::default()
            },
        };
        let families = [
            one_f_one_b(p, m),
            sliced_1f1b(p, m, 2),
            interleaved(p, 2, m).expect("m is a multiple of p"),
            gpipe(p, m),
            zero_bubble(p, m),
        ];
        for sched in &families {
            let ec = EventCosts::from_stage_costs(&ragged(sched.n_stages(), 0.08), 0.003);
            let spec = FaultSpec::new(p, sched.devices[0].len(), 0.5);
            let faulty = run_schedule_faulty(sched, &ec, &cfg, &FaultPlan::random(seed, &spec))
                .expect("delay faults never stall a valid schedule");
            writeln!(out, "faulty seed={seed} {}", family_label(sched)).unwrap();
            timeline_rows(&mut out, &faulty.timeline);
            let halted = run_schedule_failstop(
                sched,
                &ec,
                &cfg,
                &FaultPlan::random_failstop(seed, &spec, 0.5),
            )
            .expect("a fail-stop halt is not an error");
            let crashes: Vec<String> = halted
                .crashed
                .iter()
                .map(|c| format!("{}@{}:{:?}:{}", c.device, c.at_op, c.kind, bits(&[c.time])))
                .collect();
            writeln!(
                out,
                "failstop seed={seed} {} counters={:?} halted_at={} crashed={}",
                family_label(sched),
                halted.counters,
                bits(&[halted.halted_at]),
                crashes.join(",")
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn simulated_times_match_the_golden_table() {
    let want = include_str!("data/analytic_golden.txt");
    let got = table();
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the committed table", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
#[ignore = "prints the table for tests/data/analytic_golden.txt"]
fn print_golden_table() {
    print!("{}", table());
}

//! The overlapped comm engine's contracts, end to end.
//!
//! Overlap is a property of the modelled wire, so every guarantee here is
//! about the simulators; the threaded runtime's in-process sends never
//! block and have nothing to overlap. Two layers:
//!
//! 1. **Transport laws** (property-tested): chunked eager sends on a
//!    [`VirtualTransport`] keep every directed edge FIFO — arrivals are
//!    non-decreasing in send order — and respect causality (no message
//!    arrives before the compute span that produced it ends), with or
//!    without a scripted link delay on the message. One chunk degenerates
//!    to the blocking send bit for bit.
//! 2. **The win**: on a comm-heavy pipeline (message volume ≥ compute per
//!    op), overlap buys ≥ 10% of simulated iteration time, and the event
//!    simulator and the analytic fast tier agree on the overlapped timeline
//!    bit for bit.

use proptest::prelude::*;

use autopipe_exec::{AlphaBeta, CommConfig, MsgKey, VirtualTransport};
use autopipe_schedule::{one_f_one_b, Part};
use autopipe_sim::analytic::{simulate_time_masked, OverlapModel, SimScratch};
use autopipe_sim::event::{EventConfig, EventCosts};
use autopipe_sim::{replay_schedule, ReplayScratch, StageCosts};

/// A stream of back-to-back messages on one directed edge: for each, the
/// producing compute span's duration and the gap before it starts, plus a
/// non-negative stall.
fn edge_stream() -> impl Strategy<Value = (Vec<(f64, f64, f64)>, usize, f64, f64)> {
    (
        proptest::collection::vec((1e-3f64..2.0, 0.0f64..0.5, 0.0f64..0.3), 1..24),
        1usize..=8,
        1e-6f64..0.05,
        0.0f64..1.5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FIFO + causality on a chunked edge, with link delays: arrivals are
    /// strictly ordered by send order, never precede the producing span's
    /// end, and the mailbox hands messages back in that same order.
    #[test]
    fn chunked_sends_stay_fifo_and_causal(
        (msgs, k, latency, volume) in edge_stream()
    ) {
        let costs = AlphaBeta { latency, volume };
        let mut vt = VirtualTransport::new(2, costs);
        let mut span_end = 0.0;
        let mut arrivals = Vec::new();
        for (i, &(dur, gap, stall)) in msgs.iter().enumerate() {
            span_end += gap + dur;
            let key = MsgKey::act(i, Part::Full, 1);
            // A scripted link delay on every 3rd message.
            let delay = if i % 3 == 0 { 0.21 } else { 0.0 };
            let a = vt.send_overlapped(0, 1, key, span_end, dur, stall, k, delay);
            // Causality: the final chunk departs no earlier than the span's
            // end plus the stall, and transfer time is positive.
            prop_assert!(a > span_end + stall, "arrival {a} vs span end {span_end}");
            arrivals.push(a);
        }
        // FIFO: the link serialises; arrivals are strictly increasing.
        for w in arrivals.windows(2) {
            prop_assert!(w[0] < w[1], "FIFO violated: {} then {}", w[0], w[1]);
        }
        // The mailbox drains in send order with the same arrival stamps.
        for (i, &want) in arrivals.iter().enumerate() {
            let key = MsgKey::act(i, Part::Full, 1);
            let got = vt.try_recv(1, key).expect("message delivered");
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// One chunk, eagerly overlapped, is the blocking send bit for bit:
    /// the lone chunk is ready exactly at `span_end + stall`, which is the
    /// blocking departure time.
    #[test]
    fn one_chunk_overlap_is_blocking_bitwise(
        (msgs, _k, latency, volume) in edge_stream()
    ) {
        let costs = AlphaBeta { latency, volume };
        let mut blocking = VirtualTransport::new(2, costs);
        let mut overlapped = VirtualTransport::new(2, costs);
        let mut span_end = 0.0;
        for (i, &(dur, gap, stall)) in msgs.iter().enumerate() {
            span_end += gap + dur;
            let key = MsgKey::act(i, Part::Full, 1);
            let a = blocking.send(0, 1, key, span_end + stall, 0.0);
            let b = overlapped.send_overlapped(0, 1, key, span_end, dur, stall, 1, 0.0);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "message {}", i);
        }
    }

    /// With zero per-chunk latency, more chunks never hurt: the transfer
    /// pipelines deeper into the producing span, so the final arrival is
    /// non-increasing in the chunk count.
    #[test]
    fn chunking_is_monotone_when_latency_is_free(
        (msgs, _k, _latency, volume) in edge_stream()
    ) {
        let costs = AlphaBeta { latency: 0.0, volume };
        let arrivals_at = |k: usize| {
            let mut vt = VirtualTransport::new(2, costs);
            let mut span_end = 0.0;
            let mut out = Vec::new();
            for (i, &(dur, gap, stall)) in msgs.iter().enumerate() {
                span_end += gap + dur;
                let key = MsgKey::act(i, Part::Full, 1);
                out.push(vt.send_overlapped(0, 1, key, span_end, dur, stall, k, 0.0));
            }
            out
        };
        let mut prev = arrivals_at(1);
        for k in [2usize, 4, 8] {
            let cur = arrivals_at(k);
            for (i, (&c, &p)) in cur.iter().zip(prev.iter()).enumerate() {
                prop_assert!(
                    c <= p + 1e-12,
                    "message {i}: k={k} arrival {c} vs coarser {p}"
                );
            }
            prev = cur;
        }
    }
}

/// Comm-heavy 1F1B (volume ≥ compute per op): overlap must buy ≥ 10% of
/// simulated iteration time, and the event simulator and the analytic fast
/// tier must agree on the overlapped schedule bit for bit.
#[test]
fn overlap_wins_ten_percent_on_comm_heavy_pipelines_across_engines() {
    let p = 4;
    let m = 8;
    let k = 4;
    let latency = 0.01;
    let sc = StageCosts::new(vec![1.0; p], vec![1.0; p], 2.0); // volume 2× compute
    let sched = one_f_one_b(p, m);
    let ec = EventCosts::from_stage_costs(&sc, latency);

    let mut replay = ReplayScratch::new();
    let blocking = replay_schedule(&sched, &ec, &EventConfig::default(), &mut replay).unwrap();
    let cfg = EventConfig {
        comm: CommConfig::overlapped(k),
        ..EventConfig::default()
    };
    let overlapped = replay_schedule(&sched, &ec, &cfg, &mut replay).unwrap();
    let gain = 1.0 - overlapped.iteration_time / blocking.iteration_time;
    assert!(
        gain >= 0.10,
        "overlap gain {gain:.3} below 10%: {} vs {}",
        overlapped.iteration_time,
        blocking.iteration_time
    );

    // Fast tier agrees with the event simulator on the overlapped time,
    // bit for bit.
    let ov = OverlapModel { latency, chunks: k };
    let mut scratch = SimScratch::new();
    let fast = simulate_time_masked(&sc, m, &mut scratch, Some(&ov), None);
    assert_eq!(
        fast.iteration_time.to_bits(),
        overlapped.iteration_time.to_bits(),
        "fast tier {} vs event sim {}",
        fast.iteration_time,
        overlapped.iteration_time
    );
}

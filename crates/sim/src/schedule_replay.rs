//! Scratch-reusing schedule scoring for *any* schedule family.
//!
//! [`replay_schedule`] is the event simulator's sweep ([`crate::event`])
//! without a recorder or a fault plan, over a transport built on the
//! caller-owned [`ReplayScratch`]'s storage. It returns the scalars
//! [`crate::event::run_schedule`] does, bit for bit, so planner search loops
//! can score thousands of candidates without growing a transport, a recorder
//! or per-device state each time.

use autopipe_exec::{LinkStorage, NoTrace, VirtualTransport};
use autopipe_schedule::Schedule;

use crate::event::{sweep, EventConfig, EventCosts, EventSummary, SimError, SweepState};

/// Caller-owned, reusable working memory for [`replay_schedule`]: the
/// sweep's per-device state and the transport's link and mailbox storage.
/// All buffers are retained between calls, so a search loop pays for growth
/// once per problem shape rather than once per candidate.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    state: SweepState,
    links: LinkStorage,
}

impl ReplayScratch {
    /// Empty scratch; buffers are sized lazily by the first replay.
    pub fn new() -> ReplayScratch {
        ReplayScratch::default()
    }
}

/// Run `sched` against `costs`, returning the same scalars — bit for bit —
/// as [`crate::event::run_schedule`] with the same config, and no timeline.
pub fn replay_schedule(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    scratch: &mut ReplayScratch,
) -> Result<EventSummary, SimError> {
    let links = std::mem::take(&mut scratch.links);
    let mut transport = VirtualTransport::with_storage(sched.n_devices, costs, links);
    let summary = sweep(
        sched,
        costs,
        cfg,
        None,
        false,
        &mut scratch.state,
        &mut transport,
        &mut NoTrace,
    );
    scratch.links = transport.into_storage();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::run_schedule;
    use autopipe_schedule::generators::{
        gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble,
    };

    fn costs(p: usize, f: f64, b: f64, latency: f64, volume: f64) -> EventCosts {
        EventCosts {
            f: vec![f; p],
            b: vec![b; p],
            latency,
            volume,
        }
    }

    #[test]
    fn replay_is_bit_identical_to_event_sim_for_every_family() {
        let (p, m) = (4, 8);
        let scheds = vec![
            one_f_one_b(p, m),
            sliced_1f1b(p, m, 2),
            gpipe(p, m),
            zero_bubble(p, m),
        ];
        let c = costs(p, 1.1, 2.3, 0.003, 0.07);
        let cfg = EventConfig {
            kernel_overhead: 0.01,
            ..Default::default()
        };
        let mut scratch = ReplayScratch::new();
        for sched in &scheds {
            let slow = run_schedule(sched, &c, &cfg).unwrap();
            let fast = replay_schedule(sched, &c, &cfg, &mut scratch).unwrap();
            assert_eq!(
                fast.iteration_time.to_bits(),
                slow.iteration_time.to_bits(),
                "{:?}",
                sched.kind
            );
            assert_eq!(
                fast.startup_overhead.to_bits(),
                slow.startup_overhead.to_bits()
            );
            assert_eq!(fast.device_busy, slow.device_busy);
        }
        // Interleaved needs per-chunk-stage costs.
        let int = interleaved(p, 2, m).unwrap();
        let ci = costs(p * 2, 0.55, 1.15, 0.003, 0.04);
        let slow = run_schedule(&int, &ci, &cfg).unwrap();
        let fast = replay_schedule(&int, &ci, &cfg, &mut scratch).unwrap();
        assert_eq!(fast.iteration_time.to_bits(), slow.iteration_time.to_bits());
        assert_eq!(fast.device_busy, slow.device_busy);
    }

    #[test]
    fn zero_bubble_beats_plain_1f1b_when_comm_is_light() {
        // The family's raison d'être: sending the gradient after only the
        // grad-input half lets upstream stages start sooner, shrinking the
        // cooldown bubble. On a communication-light pipeline the win must
        // show up in simulated iteration time.
        let (p, m) = (4, 8);
        let c = costs(p, 1.0, 2.0, 0.0005, 0.01);
        let mut scratch = ReplayScratch::new();
        let plain = replay_schedule(
            &one_f_one_b(p, m),
            &c,
            &EventConfig::default(),
            &mut scratch,
        )
        .unwrap();
        let zb = replay_schedule(
            &zero_bubble(p, m),
            &c,
            &EventConfig::default(),
            &mut scratch,
        )
        .unwrap();
        assert!(
            zb.iteration_time < plain.iteration_time,
            "zero-bubble {} vs 1f1b {}",
            zb.iteration_time,
            plain.iteration_time
        );
    }

    #[test]
    fn scratch_reuse_across_shapes_does_not_contaminate() {
        let cfg = EventConfig::default();
        let mut scratch = ReplayScratch::new();
        for (p, m) in [(4usize, 8usize), (2, 4), (6, 12), (1, 3), (4, 8)] {
            let c = costs(p, 1.0, 2.0, 0.001, 0.02);
            let sched = one_f_one_b(p, m);
            let slow = run_schedule(&sched, &c, &cfg).unwrap();
            let fast = replay_schedule(&sched, &c, &cfg, &mut scratch).unwrap();
            assert_eq!(
                fast.iteration_time.to_bits(),
                slow.iteration_time.to_bits(),
                "p={p} m={m}"
            );
        }
    }

    #[test]
    fn overlapped_replay_is_bit_identical_to_event_sim_for_every_family() {
        use autopipe_exec::CommConfig;
        let (p, m) = (4, 8);
        let scheds = vec![
            one_f_one_b(p, m),
            sliced_1f1b(p, m, 2),
            gpipe(p, m),
            zero_bubble(p, m),
        ];
        // Comm-heavy: volume on par with compute, so the chunk pipelining
        // actually reorders link traffic relative to blocking mode.
        let c = costs(p, 1.0, 2.0, 0.05, 1.5);
        let mut scratch = ReplayScratch::new();
        for k in [1usize, 2, 4, 8] {
            let cfg = EventConfig {
                comm: CommConfig::overlapped(k),
                ..Default::default()
            };
            for sched in &scheds {
                let slow = run_schedule(sched, &c, &cfg).unwrap();
                let fast = replay_schedule(sched, &c, &cfg, &mut scratch).unwrap();
                assert_eq!(
                    fast.iteration_time.to_bits(),
                    slow.iteration_time.to_bits(),
                    "{:?} k={k}",
                    sched.kind
                );
                assert_eq!(
                    fast.startup_overhead.to_bits(),
                    slow.startup_overhead.to_bits(),
                    "{:?} k={k}",
                    sched.kind
                );
                assert_eq!(fast.device_busy, slow.device_busy);
            }
        }
    }

    #[test]
    fn overlap_beats_blocking_on_a_comm_heavy_pipeline() {
        use autopipe_exec::CommConfig;
        // Volume ≥ per-op compute: the blocking baseline serializes a full
        // transfer into every hand-off, overlap hides most of it behind the
        // producing span. The ISSUE's acceptance bar is ≥ 10%.
        let (p, m) = (4, 8);
        let c = costs(p, 1.0, 1.0, 0.01, 2.0);
        let mut scratch = ReplayScratch::new();
        let sched = one_f_one_b(p, m);
        let blocking = replay_schedule(&sched, &c, &EventConfig::default(), &mut scratch).unwrap();
        let overlapped = replay_schedule(
            &sched,
            &c,
            &EventConfig {
                comm: CommConfig::overlapped(4),
                ..Default::default()
            },
            &mut scratch,
        )
        .unwrap();
        let gain = 1.0 - overlapped.iteration_time / blocking.iteration_time;
        assert!(
            gain >= 0.10,
            "overlap gain {:.3} (blocking {}, overlapped {})",
            gain,
            blocking.iteration_time,
            overlapped.iteration_time
        );
    }

    #[test]
    fn rejects_mismatched_costs() {
        let c = costs(3, 1.0, 2.0, 0.0, 0.0);
        let mut scratch = ReplayScratch::new();
        assert!(matches!(
            replay_schedule(
                &one_f_one_b(4, 4),
                &c,
                &EventConfig::default(),
                &mut scratch
            ),
            Err(SimError::BadSchedule(_))
        ));
    }
}

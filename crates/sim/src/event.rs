//! Discrete-event cluster simulator.
//!
//! Executes any [`Schedule`] against per-stage compute costs and an α+β link
//! model. Devices are sequential executors; sends are asynchronous (the
//! device enqueues at zero cost, a per-directed-edge FIFO link delivers);
//! receives block until the message has arrived. Compute ops may carry a
//! fixed launch overhead and multiplicative jitter, which is how the
//! "actual run" of Fig. 11 is synthesised.
//!
//! The simulator is one of the two devices the shared op interpreter
//! ([`autopipe_exec::Cursor`]) drives: the sweep round-robins one cursor per
//! device, and the device here prices each op the cursor hands it — a cost
//! lookup plus jitter for compute, the α+β [`VirtualTransport`] for
//! messages — in virtual time. The sweep is generic over the
//! [`TraceSink`], so search loops score schedules without materialising
//! events: [`replay_schedule`] is this sweep with no recorder, no fault
//! script and caller-owned scratch.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use std::convert::Infallible;

use autopipe_exec::{
    AlphaBeta, CommConfig, Cursor, Device, Entry, FailStopKind, FaultPlan, Faults, MsgKey, NoTrace,
    OpTimes, Recorder, Step, Timeline, TraceSink, VirtualTransport,
};
use autopipe_schedule::{OpKind, Schedule};

/// Compute and communication costs for an event-simulated pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCosts {
    /// Forward time per stage for one full micro-batch.
    pub f: Vec<f64>,
    /// Backward time per stage for one full micro-batch.
    pub b: Vec<f64>,
    /// Per-message latency (α).
    pub latency: f64,
    /// Full-micro-batch volume transfer time (bytes/β); halves pay half.
    pub volume: f64,
}

impl EventCosts {
    /// Build from a [`crate::partition::StageCosts`], splitting its flat
    /// `comm` into latency and volume given the hardware latency.
    pub fn from_stage_costs(sc: &crate::partition::StageCosts, latency: f64) -> EventCosts {
        EventCosts {
            f: sc.f.clone(),
            b: sc.b.clone(),
            latency: latency.min(sc.comm),
            volume: (sc.comm - latency).max(0.0),
        }
    }
}

/// Event simulator knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventConfig {
    /// Fixed overhead added to every compute op (kernel launch, dispatch).
    pub kernel_overhead: f64,
    /// Multiplicative log-free jitter σ on compute durations (0 = exact).
    pub jitter_sigma: f64,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Efficiency penalty on half-micro-batch compute ops: a half batch
    /// does not run at half time on a real accelerator (lower occupancy),
    /// so its duration is `f/2 × half_efficiency`. 1.0 = ideal. This is
    /// what makes micro-batch slicing "unsuitable for a shallow pipeline"
    /// (Fig. 10): at depth 2 the fill-time gain is too small to cover it.
    pub half_efficiency: f64,
    /// Comm-lane behaviour: blocking hand-offs (default) or chunked eager
    /// sends overlapped with compute.
    pub comm: CommConfig,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            kernel_overhead: 0.0,
            jitter_sigma: 0.0,
            seed: 0xE5E17,
            half_efficiency: 1.0,
            comm: CommConfig::default(),
        }
    }
}

impl EventConfig {
    /// The high-fidelity profile used as the "actual run" stand-in: per-op
    /// launch overhead, small run-to-run jitter, and realistic half-batch
    /// efficiency.
    pub fn actual_run(hw_kernel_overhead: f64, seed: u64) -> EventConfig {
        EventConfig {
            kernel_overhead: hw_kernel_overhead,
            jitter_sigma: 0.015,
            seed,
            half_efficiency: 1.25,
            comm: CommConfig::default(),
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Replay stalled (schedule deadlocks).
    Stalled { counters: Vec<usize> },
    /// Schedule inconsistent with the provided costs.
    BadSchedule(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { counters } => {
                write!(f, "event simulation stalled at counters {counters:?}")
            }
            SimError::BadSchedule(s) => write!(f, "bad schedule: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Output of an event simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventResult {
    /// Iteration time: max end over all devices.
    pub iteration_time: f64,
    /// Arrival time of the first activation at the last pipeline stage
    /// (the paper's startup overhead).
    pub startup_overhead: f64,
    /// Per-device compute-busy time.
    pub device_busy: Vec<f64>,
    /// Per-device op timeline — the unified format shared with the threaded
    /// runtime (`autopipe-runtime`).
    pub timeline: Timeline,
}

/// The scalar outputs of a simulation, without the per-op timeline (what
/// [`replay_schedule`] returns).
#[derive(Debug, Clone, PartialEq)]
pub struct EventSummary {
    /// Iteration time: max end over all devices.
    pub iteration_time: f64,
    /// Arrival time of the first activation at the last pipeline stage.
    pub startup_overhead: f64,
    /// Per-device compute-busy time.
    pub device_busy: Vec<f64>,
}

/// One device's fail-stop death as observed by the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCrash {
    /// The device that died.
    pub device: usize,
    /// Program index at which it died (this op never executed).
    pub at_op: usize,
    /// Crash (restartable) or lost (forces a shrink).
    pub kind: FailStopKind,
    /// Virtual time at which the device died.
    pub time: f64,
}

/// Outcome of a fail-stop replay ([`run_schedule_failstop`]): the pipeline
/// ran until the scripted deaths starved it, and this records exactly how
/// far every device got. Deterministic in the script — the same plan always
/// halts at the same counters — which is what lets the threaded runtime's
/// recovery path be validated against a pure simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FailStopResult {
    /// Per-device program counters at the halt (ops actually executed).
    pub counters: Vec<usize>,
    /// Devices that died, in device order.
    pub crashed: Vec<SimCrash>,
    /// Virtual time at which the sweep halted (max device-free time).
    pub halted_at: f64,
    /// True when every program ran to completion (no scripted death hit —
    /// e.g. the crash op was beyond the program's length).
    pub completed: bool,
    /// Timeline of the ops that did execute.
    pub timeline: Timeline,
}

/// Run `sched` against `costs`. `costs.f/b` must cover all
/// `sched.n_stages()` stages.
pub fn run_schedule(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
) -> Result<EventResult, SimError> {
    run_traced(sched, costs, cfg, Faults::Clean)
}

/// Replay a seeded [`FaultPlan`]'s delay families — link degradation and
/// drops, stragglers, stalls. The *same* script replays on the threaded
/// runtime (`autopipe-runtime`) through the same interpreter, so a
/// simulated faulty iteration can be compared op for op with a real one.
///
/// Fail-stop events in the plan are ignored (they change what executes,
/// not when — replay them with [`run_schedule_failstop`]).
pub fn run_schedule_faulty(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    plan: &FaultPlan,
) -> Result<EventResult, SimError> {
    run_traced(sched, costs, cfg, Faults::Delays(plan))
}

fn run_traced(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    faults: Faults<'_>,
) -> Result<EventResult, SimError> {
    let mut recorder = Recorder::for_programs(&sched.devices);
    let summary = sweep(
        sched,
        costs,
        cfg,
        faults,
        &mut ReplayScratch::default(),
        &mut recorder,
    )?;
    Ok(EventResult {
        iteration_time: summary.iteration_time,
        startup_overhead: summary.startup_overhead,
        device_busy: summary.device_busy,
        timeline: recorder.finish(),
    })
}

/// Replay a fail-stop script deterministically: scripted [`StageCrash`] /
/// [`DeviceLost`] events freeze the victim's program counter, the rest of
/// the pipeline runs until it starves on the dead device's messages, and
/// the partial state (program counters, death times, timeline of executed
/// ops) comes back as a [`FailStopResult`] instead of a deadlock error.
/// Delay families in the same plan apply as usual.
///
/// [`StageCrash`]: autopipe_exec::StageCrash
/// [`DeviceLost`]: autopipe_exec::DeviceLost
pub fn run_schedule_failstop(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    plan: &FaultPlan,
) -> Result<FailStopResult, SimError> {
    let mut recorder = Recorder::for_programs(&sched.devices);
    let mut state = ReplayScratch::default();
    let summary = sweep(
        sched,
        costs,
        cfg,
        Faults::All(plan),
        &mut state,
        &mut recorder,
    )?;
    let crashed: Vec<SimCrash> = state.dead.into_iter().flatten().collect();
    let completed = crashed.is_empty()
        && state
            .pc
            .iter()
            .zip(&sched.devices)
            .all(|(&pc, prog)| pc == prog.len());
    Ok(FailStopResult {
        counters: state.pc,
        crashed,
        halted_at: summary.iteration_time,
        completed,
        timeline: recorder.finish_partial(),
    })
}

/// Run `sched` against `costs`, returning the same scalars — bit for bit —
/// as [`run_schedule`] with the same config, and no timeline: the sweep
/// with no recorder and no fault script, over the caller's scratch, so
/// planner search loops can score thousands of candidates without growing
/// links, a recorder or per-device state each time.
pub fn replay_schedule(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    scratch: &mut ReplayScratch,
) -> Result<EventSummary, SimError> {
    sweep(sched, costs, cfg, Faults::Clean, scratch, &mut NoTrace)
}

/// One simulated device's clock and comm lane.
#[derive(Debug, Default, Clone, Copy)]
struct Lane {
    /// When the device is free for its next op.
    free: f64,
    /// Compute-busy time so far.
    busy: f64,
    /// Comm lane (overlap mode): the (end, duration) of the device's most
    /// recent compute op — the span an eager send pipelines against.
    span: (f64, f64),
    /// Comm lane (overlap mode): gates the device's *next* compute op on the
    /// arrivals its recvs have posted; recvs themselves do not block it.
    pending: f64,
}

/// Caller-owned working memory of the sweep: per-device state and the
/// virtual links. All buffers are retained between calls, so a search loop
/// ([`replay_schedule`]) pays for growth once per problem shape rather than
/// once per candidate. After a sweep it holds how far every device got and
/// who died.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// Program counters: ops each device has executed.
    pc: Vec<usize>,
    lanes: Vec<Lane>,
    links: VirtualTransport,
    /// Times for the current device's run of ops, flushed to the sink as one
    /// block when the device yields. The buffer stays hot across the sweep,
    /// which is what keeps tracing cheap (see the `trace_overhead` bench).
    burst: Vec<OpTimes>,
    /// A scripted death freezes the device's program counter for the rest
    /// of the sweep; this records the event once.
    dead: Vec<Option<SimCrash>>,
}

impl ReplayScratch {
    /// Empty scratch; buffers are sized lazily by the first replay.
    pub fn new() -> ReplayScratch {
        ReplayScratch::default()
    }

    fn reset(&mut self, p: usize, link: AlphaBeta) {
        self.pc.clear();
        self.pc.resize(p, 0);
        self.lanes.clear();
        self.lanes.resize(p, Lane::default());
        self.links.reset(p, link);
        self.dead.clear();
        self.dead.resize(p, None);
    }
}

/// The simulator's [`Device`]: prices the ops the cursor hands one device
/// in virtual time, against the costs, the jitter stream and the virtual
/// links every device shares.
struct Simulated<'a> {
    device: usize,
    lane: &'a mut Lane,
    /// The last device: its first activation's arrival is the startup
    /// overhead.
    last: bool,
    startup: &'a mut Option<f64>,
    links: &'a mut VirtualTransport,
    rng: &'a mut Option<ChaCha8Rng>,
    costs: &'a EventCosts,
    cfg: &'a EventConfig,
}

impl Device for Simulated<'_> {
    type Abort = Infallible;

    #[inline(always)]
    fn now(&self) -> f64 {
        self.lane.free
    }

    #[inline(always)]
    fn compute(&mut self, e: &Entry, factor: f64) -> Result<(f64, f64), Infallible> {
        let (costs, cfg, stage) = (self.costs, self.cfg, e.stage);
        let base = match e.op.kind {
            OpKind::Fwd { part, .. } => {
                let eff = if part.is_half() {
                    cfg.half_efficiency
                } else {
                    1.0
                };
                costs.f[stage] * part.frac() * eff
            }
            OpKind::Bwd { .. } => costs.b[stage],
            // Split backward: grad-input and grad-weight each take half the
            // fused backward's time (the two GEMMs of a linear layer's
            // backward are the same shape), chosen so the pair sums
            // bit-exactly to the fused cost.
            OpKind::BwdInput { .. } => costs.b[stage] * 0.5,
            OpKind::BwdWeight { .. } => costs.b[stage] - costs.b[stage] * 0.5,
            // Forward replay before a backward on a recomputing stage: costs
            // one full stage forward. Placed before the backward's RecvGrad
            // by the lowering, so in overlap mode it runs while the gradient
            // is still on the wire (no pending arrival gates it — the recv
            // has not posted yet). The cursor hands over no other kind.
            _ => costs.f[stage],
        };
        let dur = duration(base, cfg, self.rng) * factor;
        let lane = &mut *self.lane;
        let start = if cfg.comm.overlap {
            let s = (e.at + e.stall).max(lane.pending);
            lane.pending = 0.0;
            lane.span = (s + dur, dur);
            s
        } else {
            e.at + e.stall
        };
        lane.busy += dur;
        lane.free = start + dur;
        Ok((start, start + dur))
    }

    #[inline(always)]
    fn send(
        &mut self,
        e: &Entry,
        to: usize,
        key: MsgKey,
        delay: f64,
    ) -> Result<(f64, f64), Infallible> {
        // Sends are asynchronous: zero device time.
        let t = e.at + e.stall;
        if self.cfg.comm.overlap {
            // Eager chunked send: chunks depart while the producing compute
            // span is still running.
            let (span_end, span_dur) = self.lane.span;
            let chunks = self.cfg.comm.effective_chunks();
            self.links.send_overlapped(
                self.device,
                to,
                key,
                span_end,
                span_dur,
                e.stall,
                chunks,
                delay,
            );
        } else {
            self.links.send(self.device, to, key, t, delay);
        }
        self.lane.free = t;
        Ok((t, t))
    }

    #[inline(always)]
    fn recv(
        &mut self,
        e: &Entry,
        _from: usize,
        key: MsgKey,
    ) -> Result<Option<(f64, f64)>, Infallible> {
        let Some(arrival) = self.links.try_recv(self.device, key) else {
            return Ok(None);
        };
        // Startup overhead: when the last *device* first receives
        // activations (§II-B). With the interleaved schedule the last device
        // hosts an early chunk, which is exactly why interleaving shortens
        // startup.
        if !key.is_grad && self.last && self.startup.is_none() {
            *self.startup = Some(arrival);
        }
        let lane = &mut *self.lane;
        let end = if self.cfg.comm.overlap {
            // Prefetch semantics: the recv posts the arrival as an input
            // gate for the next compute op instead of blocking here.
            lane.pending = lane.pending.max(arrival);
            e.at + e.stall
        } else {
            (e.at + e.stall).max(arrival)
        };
        lane.free = end;
        Ok(Some((arrival, end)))
    }
}

/// The sweep: resume every device's cursor and run it as far as it can,
/// repeatedly, in device order, until all programs finish (or nothing can
/// advance: deadlock). Generic over the sink (whether a timeline is kept)
/// — the only loop that times a [`Schedule`].
///
/// Inlined into each caller so the loop is specialised to that caller's
/// constant `faults`: [`replay_schedule`]'s copy carries no fault probes
/// (≈ 1 ns per op at p = 8, m = 16 when they stay).
#[inline(always)]
fn sweep<S: TraceSink>(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    faults: Faults<'_>,
    state: &mut ReplayScratch,
    sink: &mut S,
) -> Result<EventSummary, SimError> {
    let n_stages = sched.n_stages();
    if costs.f.len() != n_stages || costs.b.len() != n_stages {
        return Err(SimError::BadSchedule(format!(
            "costs cover {} stages, schedule has {}",
            costs.f.len(),
            n_stages
        )));
    }
    let p = sched.n_devices;
    state.reset(
        p,
        AlphaBeta {
            latency: costs.latency,
            volume: costs.volume,
        },
    );
    let ReplayScratch {
        pc,
        lanes,
        links,
        burst,
        dead,
    } = state;
    // Jitter is drawn on use; the sweep order is deterministic and each op
    // executes exactly once, so a seed fully determines a run.
    let mut rng = (cfg.jitter_sigma > 0.0).then(|| ChaCha8Rng::seed_from_u64(cfg.seed));
    let mut startup: Option<f64> = None;
    let tracing = sink.enabled();

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for d in 0..p {
            if dead[d].is_some() {
                continue;
            }
            burst.clear();
            let mut cursor = Cursor::new(sched, d, pc[d], faults);
            let mut dev = Simulated {
                device: d,
                lane: &mut lanes[d],
                last: d == p - 1,
                startup: &mut startup,
                links,
                rng: &mut rng,
                costs,
                cfg,
            };
            loop {
                match cursor.step(&mut dev) {
                    Ok(Step::Ran(times)) => {
                        if tracing {
                            burst.push(times);
                        }
                        progressed = true;
                    }
                    Ok(Step::Blocked(_)) => {
                        all_done = false;
                        break;
                    }
                    Ok(Step::Done) => break,
                    Ok(Step::Failed(kind)) => {
                        dead[d] = Some(SimCrash {
                            device: d,
                            at_op: cursor.pc(),
                            kind,
                            time: dev.now(),
                        });
                        // Dying counts as progress: the rest of the pipeline
                        // still gets to drain before the halt is declared.
                        progressed = true;
                        break;
                    }
                    Err(never) => match never {},
                }
            }
            pc[d] = cursor.pc();
            if !burst.is_empty() {
                sink.record_run(d, burst);
            }
        }
        if all_done {
            break;
        }
        if !progressed {
            // Survivors starved on a dead device's messages: in fail-stop
            // mode that is the expected halt, not a schedule bug.
            if dead.iter().any(Option::is_some) {
                break;
            }
            return Err(SimError::Stalled {
                counters: pc.to_vec(),
            });
        }
    }

    let iteration_time = lanes
        .iter()
        .flat_map(|l| [l.free, l.pending])
        .fold(0.0, f64::max);
    Ok(EventSummary {
        iteration_time,
        startup_overhead: if n_stages == 1 {
            0.0
        } else {
            startup.unwrap_or(0.0)
        },
        device_busy: lanes.iter().map(|l| l.busy).collect(),
    })
}

fn duration(base: f64, cfg: &EventConfig, rng: &mut Option<ChaCha8Rng>) -> f64 {
    let jitter = match rng {
        Some(rng) => {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (1.0 + cfg.jitter_sigma * g).max(0.2)
        }
        None => 1.0,
    };
    base * jitter + cfg.kernel_overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::simulate_replay;
    use crate::partition::StageCosts;
    use autopipe_schedule::generators::{
        gpipe, interleaved, one_f_one_b, sliced_1f1b, zero_bubble,
    };

    fn costs(f: Vec<f64>, b: Vec<f64>, latency: f64, volume: f64) -> EventCosts {
        EventCosts {
            f,
            b,
            latency,
            volume,
        }
    }

    #[test]
    fn event_matches_analytic_replay_for_1f1b() {
        // Zero-latency comm: the event sim's explicit send/recv ops and the
        // analytic replay's implicit comm must agree exactly.
        let f = vec![1.0, 1.3, 0.9, 1.1];
        let b = vec![2.0, 2.6, 1.8, 2.2];
        for m in [4, 8, 12] {
            let sc = StageCosts::new(f.clone(), b.clone(), 0.05);
            let a = simulate_replay(&sc, m);
            let e = run_schedule(
                &one_f_one_b(4, m),
                &costs(f.clone(), b.clone(), 0.0, 0.05),
                &EventConfig::default(),
            )
            .unwrap();
            assert!(
                (a.iteration_time - e.iteration_time).abs() < 1e-9,
                "m={m}: analytic {} vs event {}",
                a.iteration_time,
                e.iteration_time
            );
            assert!(
                (a.startup_overhead - e.startup_overhead).abs() < 1e-9,
                "startup m={m}: {} vs {}",
                a.startup_overhead,
                e.startup_overhead
            );
        }
    }

    #[test]
    fn gpipe_matches_1f1b_time_for_balanced_stages() {
        // For balanced stages and free communication, GPipe and 1F1B have
        // identical iteration time — (p−1)(f+b) fill/drain plus m(f+b).
        // GPipe's real cost is memory (all m micro-batches stashed), which
        // the memcheck tests cover.
        let f = vec![1.0; 4];
        let b = vec![2.0; 4];
        let c = costs(f, b, 0.0, 0.0);
        let g = run_schedule(&gpipe(4, 8), &c, &EventConfig::default()).unwrap();
        let o = run_schedule(&one_f_one_b(4, 8), &c, &EventConfig::default()).unwrap();
        assert!((g.iteration_time - o.iteration_time).abs() < 1e-9);
        let want = 3.0 * 3.0 + 8.0 * 3.0;
        assert!((o.iteration_time - want).abs() < 1e-9);
    }

    #[test]
    fn slicing_halves_startup_overhead() {
        let f = vec![1.0; 4];
        let b = vec![2.0; 4];
        let c = costs(f, b, 0.0, 0.1);
        let plain = run_schedule(&one_f_one_b(4, 8), &c, &EventConfig::default()).unwrap();
        let sliced = run_schedule(&sliced_1f1b(4, 8, 2), &c, &EventConfig::default()).unwrap();
        // Startup = fill time; halves fill in half the compute time.
        assert!(
            sliced.startup_overhead < 0.62 * plain.startup_overhead,
            "sliced {} vs plain {}",
            sliced.startup_overhead,
            plain.startup_overhead
        );
    }

    #[test]
    fn slicing_does_not_slow_iteration_on_deep_pipelines() {
        let p = 8;
        let m = 16;
        let f = vec![1.0; p];
        let b = vec![2.0; p];
        let c = costs(f, b, 0.001, 0.02);
        let plain = run_schedule(&one_f_one_b(p, m), &c, &EventConfig::default()).unwrap();
        let sliced = run_schedule(&sliced_1f1b(p, m, 3), &c, &EventConfig::default()).unwrap();
        assert!(sliced.iteration_time <= plain.iteration_time + 1e-9);
    }

    #[test]
    fn interleaved_halves_startup_like_the_paper_says() {
        // v=2 chunks: the first activation reaches the last *stage* after
        // traversing chunk-sized (half-stage) hops — roughly half the fill.
        let p = 4;
        let v = 2;
        let m = 8;
        // 8 chunk-stages each half as heavy as the 4 full stages.
        let cf = vec![0.5; p * v];
        let cb = vec![1.0; p * v];
        let ci = costs(cf, cb, 0.0, 0.02);
        let int =
            run_schedule(&interleaved(p, v, m).unwrap(), &ci, &EventConfig::default()).unwrap();
        let cp = costs(vec![1.0; p], vec![2.0; p], 0.0, 0.02);
        let plain = run_schedule(&one_f_one_b(p, m), &cp, &EventConfig::default()).unwrap();
        assert!(
            int.startup_overhead < 0.7 * plain.startup_overhead,
            "interleaved {} vs plain {}",
            int.startup_overhead,
            plain.startup_overhead
        );
    }

    #[test]
    fn jitter_changes_times_but_stays_close() {
        let f = vec![1.0; 4];
        let b = vec![2.0; 4];
        let c = costs(f, b, 0.0, 0.01);
        let exact = run_schedule(&one_f_one_b(4, 8), &c, &EventConfig::default()).unwrap();
        let noisy = run_schedule(
            &one_f_one_b(4, 8),
            &c,
            &EventConfig {
                jitter_sigma: 0.02,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(exact.iteration_time, noisy.iteration_time);
        let rel = (exact.iteration_time - noisy.iteration_time).abs() / exact.iteration_time;
        assert!(rel < 0.1, "rel {rel}");
    }

    #[test]
    fn kernel_overhead_adds_per_op() {
        let f = vec![1.0];
        let b = vec![2.0];
        let c = costs(f, b, 0.0, 0.0);
        let m = 5;
        let r = run_schedule(
            &one_f_one_b(1, m),
            &c,
            &EventConfig {
                kernel_overhead: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        // 2 compute ops per micro-batch, each +0.1.
        assert!((r.iteration_time - (m as f64 * 3.0 + 2.0 * m as f64 * 0.1)).abs() < 1e-9);
    }

    #[test]
    fn utilisation_increases_with_microbatches() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let r4 = run_schedule(&one_f_one_b(4, 4), &c, &EventConfig::default()).unwrap();
        let r32 = run_schedule(&one_f_one_b(4, 32), &c, &EventConfig::default()).unwrap();
        assert!(r32.timeline.bubble_ratio() < r4.timeline.bubble_ratio());
    }

    #[test]
    fn rejects_mismatched_costs() {
        let c = costs(vec![1.0; 3], vec![2.0; 3], 0.0, 0.0);
        let sched = one_f_one_b(4, 4);
        let cfg = EventConfig::default();
        assert!(matches!(
            run_schedule(&sched, &c, &cfg),
            Err(SimError::BadSchedule(_))
        ));
        assert!(matches!(
            replay_schedule(&sched, &c, &cfg, &mut ReplayScratch::new()),
            Err(SimError::BadSchedule(_))
        ));
    }

    #[test]
    fn untraced_run_matches_traced_numbers() {
        let c = costs(
            vec![1.0, 1.4, 0.9, 1.2],
            vec![2.0, 2.8, 1.8, 2.4],
            0.001,
            0.03,
        );
        let sched = sliced_1f1b(4, 8, 2);
        let traced = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        let bare = replay_schedule(
            &sched,
            &c,
            &EventConfig::default(),
            &mut ReplayScratch::new(),
        )
        .unwrap();
        assert_eq!(traced.iteration_time, bare.iteration_time);
        assert_eq!(traced.startup_overhead, bare.startup_overhead);
        assert_eq!(traced.device_busy, bare.device_busy);
        // The timeline agrees with the scalar summary it travels with. Busy
        // time is re-derived from span widths (`end - start`), which can
        // differ from the sweep's direct `+= dur` accumulation by an ulp.
        assert!((traced.timeline.iteration_time() - bare.iteration_time).abs() < 1e-12);
        for (tl, sc) in traced.timeline.device_busy().iter().zip(&bare.device_busy) {
            assert!((tl - sc).abs() < 1e-9, "timeline busy {tl} vs sweep {sc}");
        }
        assert!((traced.timeline.startup_overhead() - bare.startup_overhead).abs() < 1e-12);
    }

    #[test]
    fn fault_injection_delays_the_iteration() {
        use autopipe_exec::LinkDegrade;
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let sched = one_f_one_b(4, 8);
        let clean = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        // Degrade the 1→2 link by a flat 0.5 per message.
        let mut plan = autopipe_exec::FaultPlan::with_seed(0);
        plan.links.push(LinkDegrade {
            from: 1,
            to: 2,
            extra: 0.5,
            jitter: 0.0,
            spike_prob: 0.0,
            spike: 0.0,
        });
        let degraded = run_schedule_faulty(&sched, &c, &EventConfig::default(), &plan).unwrap();
        assert!(
            degraded.iteration_time > clean.iteration_time + 0.4,
            "degraded {} vs clean {}",
            degraded.iteration_time,
            clean.iteration_time
        );
        // Op orderings are untouched by link faults.
        clean.timeline.same_op_order(&degraded.timeline).unwrap();
    }

    #[test]
    fn fault_plan_replay_is_deterministic_and_never_stalls() {
        use autopipe_exec::FaultSpec;
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.01, 0.02);
        let sched = sliced_1f1b(4, 8, 2);
        let clean = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        for seed in 0..30 {
            let plan = autopipe_exec::FaultPlan::random(seed, &FaultSpec::new(4, 60, 0.5));
            let a = run_schedule_faulty(&sched, &c, &EventConfig::default(), &plan).unwrap();
            let b = run_schedule_faulty(&sched, &c, &EventConfig::default(), &plan).unwrap();
            assert_eq!(
                a.iteration_time, b.iteration_time,
                "seed {seed}: replay must be deterministic"
            );
            assert!(
                a.iteration_time >= clean.iteration_time - 1e-9,
                "seed {seed}: faults cannot speed things up"
            );
            // Faults reschedule, never reorder or drop work.
            clean.timeline.same_op_order(&a.timeline).unwrap();
        }
    }

    #[test]
    fn straggler_fault_slows_the_iteration_proportionally() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let sched = one_f_one_b(4, 8);
        let clean = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        let mut plan = autopipe_exec::FaultPlan::with_seed(1);
        plan.stragglers.push(autopipe_exec::Straggler {
            stage: 1,
            factor: 2.0,
        });
        let slow = run_schedule_faulty(&sched, &c, &EventConfig::default(), &plan).unwrap();
        // Stage 1 does m·(f+b) = 8·3 of work at 2×: the iteration is
        // dominated by the straggler.
        assert!(
            slow.iteration_time > 1.5 * clean.iteration_time,
            "slow {} vs clean {}",
            slow.iteration_time,
            clean.iteration_time
        );
    }

    #[test]
    fn failstop_replay_halts_deterministically() {
        use autopipe_exec::{FaultSpec, StageCrash};
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.01, 0.02);
        let sched = one_f_one_b(4, 8);
        for seed in 0..30 {
            let plan =
                autopipe_exec::FaultPlan::random_failstop(seed, &FaultSpec::new(4, 60, 0.5), 0.5);
            let a = run_schedule_failstop(&sched, &c, &EventConfig::default(), &plan).unwrap();
            let b = run_schedule_failstop(&sched, &c, &EventConfig::default(), &plan).unwrap();
            assert_eq!(a.counters, b.counters, "seed {seed}: replay diverged");
            assert_eq!(a.crashed, b.crashed, "seed {seed}: crash record diverged");
            // The scripted victim died where the script said, or its program
            // was shorter than the crash op (then the run completed).
            if a.completed {
                assert!(a.crashed.is_empty());
                continue;
            }
            assert_eq!(a.crashed.len(), 1, "seed {seed}: exactly one death");
            let crash = &a.crashed[0];
            assert_eq!(
                a.counters[crash.device], crash.at_op,
                "seed {seed}: dead device's counter frozen at the crash op"
            );
        }
        // A crash on device 0's very first op: nothing downstream can start.
        let mut early = autopipe_exec::FaultPlan::with_seed(7);
        early.crashes.push(StageCrash {
            device: 0,
            at_op: 0,
        });
        let r = run_schedule_failstop(&sched, &c, &EventConfig::default(), &early).unwrap();
        assert!(!r.completed);
        assert_eq!(r.counters, vec![0; 4]);
    }

    #[test]
    fn failstop_survivors_drain_before_the_halt() {
        use autopipe_exec::StageCrash;
        // Crash the *last* device late: upstream devices keep running until
        // they starve on its gradient messages, so counters show real
        // partial progress rather than an immediate freeze.
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let sched = one_f_one_b(4, 8);
        let mut plan = autopipe_exec::FaultPlan::with_seed(3);
        plan.crashes.push(StageCrash {
            device: 3,
            at_op: 10,
        });
        let r = run_schedule_failstop(&sched, &c, &EventConfig::default(), &plan).unwrap();
        assert!(!r.completed);
        assert_eq!(r.counters[3], 10);
        for d in 0..3 {
            assert!(
                r.counters[d] > 10,
                "device {d} should outrun the dead stage (pc {})",
                r.counters[d]
            );
            assert!(
                r.counters[d] < sched.devices[d].len(),
                "device {d} cannot finish without stage 3's gradients"
            );
        }
        assert!(r.halted_at > 0.0);
    }

    #[test]
    fn failstop_with_empty_script_completes() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let sched = one_f_one_b(4, 8);
        let clean = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        let r = run_schedule_failstop(
            &sched,
            &c,
            &EventConfig::default(),
            &autopipe_exec::FaultPlan::none(),
        )
        .unwrap();
        assert!(r.completed && r.crashed.is_empty());
        assert_eq!(r.halted_at, clean.iteration_time);
        clean.timeline.same_op_order(&r.timeline).unwrap();
    }

    #[test]
    fn stall_fault_delays_without_deadlocking() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let sched = one_f_one_b(4, 8);
        let clean = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        let mut plan = autopipe_exec::FaultPlan::with_seed(2);
        plan.stalls.push(autopipe_exec::StageStall {
            device: 2,
            op_index: 5,
            pause: 10.0,
        });
        let stalled = run_schedule_faulty(&sched, &c, &EventConfig::default(), &plan).unwrap();
        assert!(
            stalled.iteration_time >= clean.iteration_time + 5.0,
            "stalled {} vs clean {}",
            stalled.iteration_time,
            clean.iteration_time
        );
        clean.timeline.same_op_order(&stalled.timeline).unwrap();
    }

    /// `p` stages of forward `f` and backward `b`.
    fn uniform(p: usize, f: f64, b: f64, latency: f64, volume: f64) -> EventCosts {
        costs(vec![f; p], vec![b; p], latency, volume)
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
        let c = uniform(p, 1.1, 2.3, 0.003, 0.07);
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
        let ci = uniform(p * 2, 0.55, 1.15, 0.003, 0.04);
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
        let c = uniform(p, 1.0, 2.0, 0.0005, 0.01);
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
            let c = uniform(p, 1.0, 2.0, 0.001, 0.02);
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
        let c = uniform(p, 1.0, 2.0, 0.05, 1.5);
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
        // producing span, by at least 10 %.
        let (p, m) = (4, 8);
        let c = uniform(p, 1.0, 1.0, 0.01, 2.0);
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

    // Timeline analysis of simulated iterations: the metrics live on the
    // shared `Timeline`; these check them against what the simulator ran.

    fn balanced(p: usize, m: usize) -> EventResult {
        let c = costs(vec![1.0; p], vec![2.0; p], 0.0, 0.01);
        run_schedule(&one_f_one_b(p, m), &c, &EventConfig::default()).unwrap()
    }

    #[test]
    fn decomposition_accounts_for_the_whole_iteration() {
        let r = balanced(4, 8);
        for d in r.timeline.breakdown() {
            let total = d.fwd + d.bwd + d.wait + d.idle;
            assert!(
                (total - r.iteration_time).abs() < 1e-9,
                "device {}: {} vs {}",
                d.device,
                total,
                r.iteration_time
            );
        }
    }

    #[test]
    fn compute_time_matches_schedule_math() {
        let m = 8;
        let r = balanced(4, m);
        for d in r.timeline.breakdown() {
            assert!((d.fwd - m as f64 * 1.0).abs() < 1e-9);
            assert!((d.bwd - m as f64 * 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bubble_fraction_shrinks_with_more_microbatches() {
        let b8 = balanced(4, 8).timeline.bubble_ratio();
        let b32 = balanced(4, 32).timeline.bubble_ratio();
        assert!(b32 < b8, "{b32} vs {b8}");
        assert!((0.0..1.0).contains(&b8));
    }

    #[test]
    fn single_device_has_no_bubbles() {
        let b = balanced(1, 4).timeline.bubble_ratio();
        assert!(b < 1e-9, "bubble {b}");
    }

    #[test]
    fn bubble_fraction_agrees_with_scalar_utilisation() {
        // The Timeline-derived bubble must match the sweep's own busy
        // accounting — one telemetry source, two views.
        let r = balanced(4, 8);
        let busy = r.device_busy.iter().sum::<f64>() / r.device_busy.len() as f64;
        assert!((r.timeline.bubble_ratio() - (1.0 - busy / r.iteration_time)).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let v = balanced(2, 4).timeline.chrome_trace();
        let events = v["traceEvents"].as_array().unwrap();
        // 2 devices x (4 F + 4 B) compute events at least, plus waits.
        assert!(events.len() >= 16);
        for e in events {
            assert!(e["ts"].as_f64().unwrap() >= 0.0);
            assert!(e["dur"].as_f64().unwrap() > 0.0);
            assert!(e["tid"].as_u64().unwrap() < 2);
        }
        // Serialises to valid JSON text.
        let text = serde_json::to_string(&v).unwrap();
        assert!(text.contains("traceEvents"));
    }
}

//! Discrete-event cluster simulator.
//!
//! Executes any [`Schedule`] against per-stage compute costs and an α+β link
//! model. Devices are sequential executors; sends are asynchronous (the
//! device enqueues at zero cost, a per-directed-edge FIFO link delivers);
//! receives block until the message has arrived. Compute ops may carry a
//! fixed launch overhead and multiplicative jitter, which is how the
//! "actual run" of Fig. 11 is synthesised.
//!
//! Message movement and trace emission live in the shared executor spine
//! ([`autopipe_exec`]): the one sweep here is generic over any
//! [`Transport`] carrying `()` payloads (so latency/jitter faults can be
//! injected via [`VirtualTransport::with_fault`]) and any
//! [`TraceSink`] (so search loops can score schedules without materialising
//! events — [`crate::replay_schedule`] is this sweep with [`NoTrace`]).
//!
//! [`VirtualTransport::with_fault`]: autopipe_exec::VirtualTransport::with_fault

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use autopipe_exec::{
    op_key, CommConfig, FailStopKind, FaultPlan, LinkCost, OpTimes, Recorder, Timeline, TraceSink,
    Transport, VirtualTransport,
};
use autopipe_schedule::{OpKind, Part, Schedule};

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

    /// Transfer time of a message carrying `part` of a micro-batch.
    pub(crate) fn transfer(&self, part: Part) -> f64 {
        self.latency + part.frac() * self.volume
    }

    /// Transfer time of one of `k` chunks of that message: full latency per
    /// chunk, `1/k` of the volume. `k = 1` equals [`EventCosts::transfer`]
    /// bit-for-bit.
    pub(crate) fn transfer_chunk(&self, part: Part, k: usize) -> f64 {
        self.latency + part.frac() * (self.volume / k.max(1) as f64)
    }
}

impl LinkCost for EventCosts {
    fn transfer(&self, _from: usize, _to: usize, part: Part) -> f64 {
        EventCosts::transfer(self, part)
    }

    fn transfer_chunk(&self, _from: usize, _to: usize, part: Part, k: usize) -> f64 {
        EventCosts::transfer_chunk(self, part, k)
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
/// [`crate::replay_schedule`] returns).
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
    run_traced(sched, costs, cfg, None)
}

/// Replay a seeded [`FaultPlan`] — link degradation/drops through the
/// transport fault hook, stragglers and stalls in the sweep itself. The
/// *same* script replays on the threaded runtime (`autopipe-runtime`), so a
/// simulated faulty iteration can be compared op for op with a real one.
///
/// Only the *delay* fault families replay here; fail-stop events in the
/// plan are ignored (they change what executes, not when — replay them with
/// [`run_schedule_failstop`]).
pub fn run_schedule_faulty(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    plan: &FaultPlan,
) -> Result<EventResult, SimError> {
    run_traced(sched, costs, cfg, Some(plan))
}

fn run_traced(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    faults: Option<&FaultPlan>,
) -> Result<EventResult, SimError> {
    let mut transport = faulted_transport(sched, costs, faults);
    let mut recorder = Recorder::for_programs(&sched.devices);
    let summary = sweep(
        sched,
        costs,
        cfg,
        faults,
        false,
        &mut SweepState::default(),
        &mut transport,
        &mut recorder,
    )?;
    Ok(EventResult {
        iteration_time: summary.iteration_time,
        startup_overhead: summary.startup_overhead,
        device_busy: summary.device_busy,
        timeline: recorder.finish(),
    })
}

/// A fresh transport over `costs`, with `faults`' link script hooked in.
fn faulted_transport<'c>(
    sched: &Schedule,
    costs: &'c EventCosts,
    faults: Option<&FaultPlan>,
) -> VirtualTransport<&'c EventCosts> {
    let transport = VirtualTransport::new(sched.n_devices, costs);
    match faults {
        Some(plan) => transport.with_boxed_fault(plan.link_fault_hook()),
        None => transport,
    }
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
    let mut transport = faulted_transport(sched, costs, Some(plan));
    let mut recorder = Recorder::for_programs(&sched.devices);
    let mut state = SweepState::default();
    let summary = sweep(
        sched,
        costs,
        cfg,
        Some(plan),
        true,
        &mut state,
        &mut transport,
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

/// Per-device state of one [`sweep`], owned by the caller so a search loop
/// keeps its capacity across candidates ([`crate::ReplayScratch`]). After a
/// sweep it holds how far every device got and who died.
#[derive(Debug, Default)]
pub(crate) struct SweepState {
    /// Program counters: ops each device has executed.
    pc: Vec<usize>,
    dev_free: Vec<f64>,
    device_busy: Vec<f64>,
    /// Comm lane (overlap mode): the (end, duration) of each device's most
    /// recent compute op — the span an eager send pipelines against.
    last_span: Vec<(f64, f64)>,
    /// Comm lane (overlap mode): gates the device's *next* compute op on the
    /// arrivals its recvs have posted; recvs themselves do not block it.
    pending: Vec<f64>,
    /// Times for the current device's run of ops, flushed to the sink as one
    /// block when the device yields. The buffer stays hot across the sweep,
    /// which is what keeps tracing cheap (see the `trace_overhead` bench).
    burst: Vec<OpTimes>,
    /// Fail-stop mode: a scripted death freezes the device's program counter
    /// for the rest of the sweep; this records the event once.
    dead: Vec<Option<SimCrash>>,
}

impl SweepState {
    fn reset(&mut self, p: usize) {
        self.pc.clear();
        self.pc.resize(p, 0);
        self.dev_free.clear();
        self.dev_free.resize(p, 0.0);
        self.device_busy.clear();
        self.device_busy.resize(p, 0.0);
        self.last_span.clear();
        self.last_span.resize(p, (0.0, 0.0));
        self.pending.clear();
        self.pending.resize(p, 0.0);
        self.dead.clear();
        self.dead.resize(p, None);
    }
}

/// The sweep: advance every device through its program as far as it can,
/// repeatedly, until all programs finish (or nothing can advance: deadlock).
/// Generic over the transport (how messages move) and the sink (whether a
/// timeline is kept) — the only loop that times a [`Schedule`].
///
/// Inlined into each caller so the loop is specialised to that caller's
/// constant `faults` / `failstop`: [`crate::replay_schedule`]'s copy carries
/// no fault probes (≈ 1 ns per op at p = 8, m = 16 when they stay).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn sweep<T: Transport<Payload = ()>, S: TraceSink>(
    sched: &Schedule,
    costs: &EventCosts,
    cfg: &EventConfig,
    faults: Option<&FaultPlan>,
    failstop: bool,
    state: &mut SweepState,
    transport: &mut T,
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
    state.reset(p);
    let SweepState {
        pc,
        dev_free,
        device_busy,
        last_span,
        pending,
        burst,
        dead,
    } = state;
    // Plain slices, so their pointers and lengths stay in registers across
    // the transport and sink calls.
    let (pc, dev_free, device_busy) = (&mut pc[..], &mut dev_free[..], &mut device_busy[..]);
    let (last_span, pending, dead) = (&mut last_span[..], &mut pending[..], &mut dead[..]);
    // Jitter is drawn on use; the sweep order is deterministic and each op
    // executes exactly once, so a seed fully determines a run.
    let mut rng = (cfg.jitter_sigma > 0.0).then(|| ChaCha8Rng::seed_from_u64(cfg.seed));
    let mut startup: Option<f64> = None;
    let overlap = cfg.comm.overlap;
    let chunks = cfg.comm.effective_chunks();
    let tracing = sink.enabled();

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for d in 0..p {
            if dead[d].is_some() {
                continue;
            }
            burst.clear();
            'run: while pc[d] < sched.devices[d].len() {
                if failstop {
                    if let Some(kind) = faults.and_then(|f| f.crash_at(d, pc[d])) {
                        dead[d] = Some(SimCrash {
                            device: d,
                            at_op: pc[d],
                            kind,
                            time: dev_free[d],
                        });
                        // Dying counts as progress: the rest of the pipeline
                        // still gets to drain before the halt is declared.
                        progressed = true;
                        break;
                    }
                }
                let op = sched.devices[d][pc[d]];
                let mut ready = dev_free[d];
                // An injected stall freezes the device before this op; it
                // only takes effect once the op actually executes (a recv
                // waiting on an absent message re-checks without stalling
                // twice).
                let stall = faults.map_or(0.0, |f| f.stall_pause(d, pc[d]));
                let (start, end) = 'timed: {
                    // A compute op's stage and base duration; comm ops are
                    // timed in their arms and leave the block early.
                    let stage = sched.stage_of(d, op.chunk());
                    let base = match op.kind {
                        OpKind::Fwd { part, .. } => {
                            let eff = if part.is_half() {
                                cfg.half_efficiency
                            } else {
                                1.0
                            };
                            costs.f[stage] * part.frac() * eff
                        }
                        OpKind::Bwd { .. } => costs.b[stage],
                        // Split backward: grad-input and grad-weight each
                        // take half the fused backward's time (the two GEMMs
                        // of a linear layer's backward are the same shape),
                        // chosen so the pair sums bit-exactly to the fused
                        // cost.
                        OpKind::BwdInput { .. } => costs.b[stage] * 0.5,
                        OpKind::BwdWeight { .. } => costs.b[stage] - costs.b[stage] * 0.5,
                        // Forward replay before a backward on a recomputing
                        // stage: costs one full stage forward. Placed before
                        // the backward's RecvGrad by the lowering, so in
                        // overlap mode it runs while the gradient is still
                        // on the wire (no pending arrival gates it — the
                        // recv has not posted yet).
                        OpKind::Recompute { .. } => costs.f[stage],
                        OpKind::SendAct { to, .. } | OpKind::SendGrad { to, .. } => {
                            let (key, _) = op_key(sched, d, &op).expect("send op has a key");
                            // Sends are asynchronous: zero device time.
                            let t = dev_free[d] + stall;
                            if overlap {
                                // Eager chunked send: chunks depart while the
                                // producing compute span is still running.
                                let (span_end, span_dur) = last_span[d];
                                transport.send_overlapped(
                                    d,
                                    to,
                                    key,
                                    (),
                                    span_end,
                                    span_dur,
                                    stall,
                                    chunks,
                                );
                            } else {
                                transport.send(d, to, key, (), t);
                            }
                            break 'timed (t, t);
                        }
                        OpKind::RecvAct { .. } | OpKind::RecvGrad { .. } => {
                            let (key, _) = op_key(sched, d, &op).expect("recv op has a key");
                            let Some(((), arrival)) = transport.try_recv(d, key) else {
                                break 'run;
                            };
                            ready = arrival;
                            // Startup overhead: when the last *device* first
                            // receives activations (§II-B). With the
                            // interleaved schedule the last device hosts an
                            // early chunk, which is exactly why interleaving
                            // shortens startup.
                            if !key.is_grad && d == p - 1 && startup.is_none() {
                                startup = Some(arrival);
                            }
                            let s = dev_free[d];
                            if overlap {
                                // Prefetch semantics: the recv posts the
                                // arrival as an input gate for the next
                                // compute op instead of blocking here.
                                pending[d] = pending[d].max(arrival);
                                break 'timed (s, s + stall);
                            }
                            break 'timed (s, (s + stall).max(arrival));
                        }
                    };
                    let mut dur = duration(base, cfg, &mut rng);
                    dur *= faults.map_or(1.0, |f| f.compute_factor(stage));
                    let s = if overlap {
                        let s = (dev_free[d] + stall).max(pending[d]);
                        pending[d] = 0.0;
                        last_span[d] = (s + dur, dur);
                        s
                    } else {
                        dev_free[d] + stall
                    };
                    device_busy[d] += dur;
                    (s, s + dur)
                };
                dev_free[d] = end;
                if tracing {
                    burst.push(OpTimes { start, ready, end });
                }
                pc[d] += 1;
                progressed = true;
            }
            if !burst.is_empty() {
                sink.record_run(d, burst);
            }
            if pc[d] < sched.devices[d].len() && dead[d].is_none() {
                all_done = false;
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

    let iteration_time = dev_free
        .iter()
        .chain(pending.iter())
        .copied()
        .fold(0.0, f64::max);
    Ok(EventSummary {
        iteration_time,
        startup_overhead: if n_stages == 1 {
            0.0
        } else {
            startup.unwrap_or(0.0)
        },
        device_busy: device_busy.to_vec(),
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
    use autopipe_schedule::generators::{gpipe, interleaved, one_f_one_b, sliced_1f1b};

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
        assert!(matches!(
            run_schedule(&one_f_one_b(4, 4), &c, &EventConfig::default()),
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
        let bare = crate::replay_schedule(
            &sched,
            &c,
            &EventConfig::default(),
            &mut crate::ReplayScratch::new(),
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
        use autopipe_exec::VirtualTransport;
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0, 0.01);
        let sched = one_f_one_b(4, 8);
        let clean = run_schedule(&sched, &c, &EventConfig::default()).unwrap();
        // Degrade the 1→2 link by a flat 0.5 per message.
        let mut slow_link = VirtualTransport::new(sched.n_devices, &c)
            .with_fault(|from, to, _key, _now| if (from, to) == (1, 2) { 0.5 } else { 0.0 });
        let mut recorder = Recorder::for_programs(&sched.devices);
        let degraded = sweep(
            &sched,
            &c,
            &EventConfig::default(),
            None,
            false,
            &mut SweepState::default(),
            &mut slow_link,
            &mut recorder,
        )
        .unwrap();
        assert!(
            degraded.iteration_time > clean.iteration_time + 0.4,
            "degraded {} vs clean {}",
            degraded.iteration_time,
            clean.iteration_time
        );
        // Op orderings are untouched by link faults.
        clean.timeline.same_op_order(&recorder.finish()).unwrap();
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

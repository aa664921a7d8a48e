//! The AutoPipe pipeline simulator (§III-B.1).
//!
//! Simulates the synchronous 1F1B schedule for a partition scheme described
//! by [`StageCosts`], producing the iteration time, per-op start times, the
//! unique critical path and the master stage.
//!
//! One replay, two things it can report:
//!
//! * The replay is a single sweep over the `(n, m)` 1F1B program: every
//!   forward and backward of every micro-batch on every stage is an op; an
//!   op starts at the max of its intra-stage predecessor's end and its
//!   cross-stage dependency's end plus `Comm`. The sweep keeps flat `f64`
//!   end-time arrays inside a caller-owned [`SimScratch`] and visits the ops
//!   in a dependency order that is decoded once per `(n, m)` and cached
//!   there — a search scores all its candidates at one `(n, m)` — then
//!   backtracks the critical path and counts the master stage.
//! * The sweep runs `L` candidates of one `(n, m)` in lockstep: every end
//!   time, device-free time and per-stage cost is an `[f64; L]`, and lane
//!   `l` executes exactly the float operations a one-candidate sweep of
//!   lane `l`'s costs executes, in the same order (IEEE add and
//!   `f64::max`, never fused or reassociated), so each lane's result is
//!   bit-identical to scoring that candidate alone. After the pass each
//!   lane runs its own anchor scan, backtrack and master-stage count.
//!   [`simulate_time_lanes`] is the entry point; the planner scores its
//!   waves [`LANES`] at a time.
//! * [`simulate_time`] reports only the scalars a search loop ranks by
//!   ([`FastResult`]); after the first call with a given problem size it
//!   performs zero heap allocations. [`simulate_replay`] reports the op
//!   arena, per-op readiness bookkeeping and the explicit critical path
//!   ([`AnalyticResult`]) from the *same* sweep, so the two agree bit for
//!   bit by construction (`tests/analytic_golden.rs` pins the bits). Both
//!   are the one-lane instance of the sweep.
//! * [`recurrence`] — the paper's closed-form equations: 1F1B blocks
//!   renumbered per stage (`max(0, m−n+k+1)` blocks at stage `k`), the
//!   `t(x,y,z)` recurrences with `Comm` added after the max (the paper's
//!   formulation), Cooldown renumbered in reverse, Warmup estimated from an
//!   unchoked fill. The independent oracle the tests compare the replay
//!   against, and the paper's exact arithmetic.

use std::array::from_fn;

use serde::{Deserialize, Serialize};

use crate::partition::StageCosts;

/// Overlap-aware comm model for the analytic tiers.
///
/// When passed to [`simulate_time_masked`] / [`simulate_replay_masked`], the flat
/// per-hop `comm` cost of [`StageCosts`] is split into a per-message latency
/// α (`latency.min(comm)`, the same split as
/// [`crate::event::EventCosts::from_stage_costs`]) and a volume term, and
/// every hand-off is sent as `chunks` eager chunks that pipeline against the
/// producing compute span over a per-directed-edge FIFO link — the exact
/// arithmetic of `VirtualTransport::send_overlapped`, so the fast tier stays
/// bit-identical to the event simulator with overlap on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapModel {
    /// Per-message (and per-chunk) latency α.
    pub latency: f64,
    /// Number of wire chunks per hand-off.
    pub chunks: usize,
}

impl OverlapModel {
    /// Split a flat per-hop comm cost into (α, per-chunk cost), mirroring
    /// `EventCosts::from_stage_costs` + `transfer_chunk` bit for bit.
    fn chunk_cost(&self, comm: f64) -> f64 {
        let alpha = self.latency.min(comm);
        let volume = (comm - self.latency).max(0.0);
        alpha + volume / self.chunks.max(1) as f64
    }

    /// Effective chunk count (≥ 1).
    fn k(&self) -> usize {
        self.chunks.max(1)
    }
}

/// One eager chunked send over a directed edge's FIFO link: chunk `j` of `k`
/// becomes ready once `j/k` of the producing span has run; each chunk pays
/// `chunk_cost`. Returns the last chunk's arrival — the consumer's gate.
/// Verbatim `VirtualTransport::send_overlapped` (stall-free).
#[inline]
fn eager_send(link_free: &mut f64, span_end: f64, span_dur: f64, chunk_cost: f64, k: usize) -> f64 {
    let mut arrival = 0.0;
    for j in 1..=k {
        let ready = span_end - span_dur * ((k - j) as f64 / k as f64);
        let depart = link_free.max(ready);
        arrival = depart + chunk_cost;
        *link_free = arrival;
    }
    arrival
}

/// Forward or backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpClass {
    /// Forward pass.
    Fwd,
    /// Backward pass.
    Bwd,
}

/// Which pipeline phase an op belongs to (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Leading forwards before the first backward.
    Warmup,
    /// Steady alternation of one forward and one backward.
    OneFOneB,
    /// Trailing backwards.
    Cooldown,
}

/// One simulated operation with its timing and dependency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpTime {
    /// Pipeline stage executing the op.
    pub stage: usize,
    /// Forward or backward.
    pub class: OpClass,
    /// Micro-batch index.
    pub mb: usize,
    /// Phase classification.
    pub phase: Phase,
    /// Start time, seconds from iteration start.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Earliest start permitted by the same stage's previous op.
    pub intra_ready: f64,
    /// Earliest start permitted by the cross-stage dependency (+Comm).
    pub cross_ready: f64,
    /// Index of the intra-stage predecessor in the op arena.
    pub intra_pred: Option<usize>,
    /// Index of the cross-stage dependency in the op arena.
    pub cross_pred: Option<usize>,
}

/// Output of the analytic simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticResult {
    /// End-to-end iteration time (start of first forward to end of last
    /// backward), seconds.
    pub iteration_time: f64,
    /// Startup overhead: when the last stage has received the activations
    /// of the first micro-batch (§II-B).
    pub startup_overhead: f64,
    /// The master stage: the stage the critical path traverses during the
    /// 1F1B phase — the heaviest stage, which drives the pipeline.
    pub master_stage: usize,
    /// Critical path as op-arena indices, from iteration start to end.
    pub critical_path: Vec<usize>,
    /// All simulated ops.
    pub ops: Vec<OpTime>,
    /// Per-stage total busy time (`m · (f_x + b_x)`).
    pub stage_busy: Vec<f64>,
}

impl AnalyticResult {
    /// Execution time per micro-batch — the quantity Fig. 11 plots.
    pub fn per_microbatch_time(&self, m: usize) -> f64 {
        self.iteration_time / m as f64
    }
}

/// Warmup forward count at `stage` of an `n`-stage pipeline with `m`
/// micro-batches.
fn warmup_count(stage: usize, n: usize, m: usize) -> usize {
    (n - 1 - stage).min(m)
}

/// 1F1B block count at `stage` — the paper's `max(0, m − n + k + 1)`.
pub fn block_count(stage: usize, n: usize, m: usize) -> usize {
    (m + stage + 1).saturating_sub(n)
}

/// Candidates the planner scores per sweep ([`simulate_time_lanes`]): four
/// independent dependency chains hide the latency of each op's max-then-add.
pub const LANES: usize = 4;

/// Scalar output of [`simulate_time`].
///
/// Carries exactly what a search loop ranks candidates by; the winning
/// scheme is run through [`simulate_replay_masked`] for the op arena,
/// critical path and trace hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FastResult {
    /// End-to-end iteration time, seconds. Bit-identical to
    /// [`AnalyticResult::iteration_time`].
    pub iteration_time: f64,
    /// Startup overhead (arrival of micro-batch 0 at the last stage).
    pub startup_overhead: f64,
    /// The master stage — equal to [`AnalyticResult::master_stage`].
    pub master_stage: usize,
}

/// One op of the cached 1F1B sweep order.
#[derive(Debug, Clone, Copy)]
struct ProgOp {
    /// `stage·m + mb`: the op's slot in the end-time and arrival arrays.
    slot: u32,
    stage: u16,
    bwd: bool,
}

/// One op of the cached 1F1B program in arena order (op `i` of stage `x`
/// at `x·2m + i`): what the critical-path backtrack reads about it.
#[derive(Debug, Clone, Copy)]
struct PathOp {
    /// `stage·m + mb`: the op's slot in the end-time and arrival arrays.
    slot: u32,
    /// Program position of its cross-stage dependency on the neighbouring
    /// stage (the previous one for a forward, the next for a backward).
    cross_pos: u32,
    bwd: bool,
    /// In the stage's 1F1B phase.
    steady: bool,
}

/// Caller-owned, reusable working memory for the 1F1B sweep.
///
/// All per-candidate state lives here as flat arrays of `2·n·m` entries
/// plus a few `n`-length vectors, one `f64` per lane each, next to the
/// `2·n·m`-entry sweep order of the last `(n, m)`; buffers only grow, so
/// after the first call at the largest problem size and lane count
/// [`simulate_time`] and [`simulate_time_lanes`] perform **zero** heap
/// allocations, re-keying to a smaller `(n, m)` or fewer lanes included
/// (asserted by `tests/fast_sim_alloc.rs`).
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Every op of the `(n, m)` 1F1B program in the sweep's visiting order.
    program: Vec<ProgOp>,
    /// The same ops in arena order, for the backtrack.
    path_ops: Vec<PathOp>,
    /// Per-stage forward time of every lane.
    f: Vec<f64>,
    /// Per-stage backward time of every lane.
    b: Vec<f64>,
    /// Per-stage recompute flag of every lane.
    masked: Vec<bool>,
    /// End time of the forward of micro-batch `mb` at stage `x`, at `x*m+mb`.
    fwd_end: Vec<f64>,
    /// End time of the backward, same layout.
    bwd_end: Vec<f64>,
    /// Per-stage device-free time (end of the stage's last executed op).
    dev_free: Vec<f64>,
    /// Per-stage count of 1F1B-phase ops on the critical path.
    path_count: Vec<usize>,
    /// Per-stage total busy time `m · (f_x + b_x)` of the last lane.
    stage_busy: Vec<f64>,
    /// Overlap mode: arrival of stage x's activation of `mb` at stage x+1.
    act_arr: Vec<f64>,
    /// Overlap mode: arrival of stage x's gradient of `mb` at stage x−1.
    grad_arr: Vec<f64>,
    /// Overlap mode: busy-until time of the activation edge x → x+1.
    act_link: Vec<f64>,
    /// Overlap mode: busy-until time of the gradient edge x → x−1.
    grad_link: Vec<f64>,
    /// Stage count of the last simulation (bounds [`Self::stage_busy`]);
    /// with `m`, the key `program` was built for.
    n: usize,
    /// Micro-batch count of the last simulation.
    m: usize,
}

impl SimScratch {
    /// Empty scratch; buffers are sized lazily by the first simulation.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Per-stage busy time of the last simulated candidate (the last lane
    /// of a [`simulate_time_lanes`] call).
    pub fn stage_busy(&self) -> &[f64] {
        &self.stage_busy[..self.n]
    }

    /// Make `program` the sweep order of the `(n, m)` 1F1B schedule and
    /// `path_ops` its arena-order table, reusing their capacity.
    ///
    /// For the 1F1B program the dependency of a forward at index `i` of
    /// stage `x` sits at index ≤ `i` of stage `x−1` (equality only while
    /// both are in Warmup), and the dependency of a backward sits at index
    /// ≤ `i` of stage `x+1` (equality in Cooldown and at the 1F1B/Cooldown
    /// seam). So visiting each index with forwards in ascending and
    /// backwards in descending stage order executes every op after its
    /// dependencies in ONE pass — no work-list retries — and the order
    /// depends on nothing but `(n, m)`.
    fn rekey(&mut self, n: usize, m: usize) {
        assert!(
            n <= usize::from(u16::MAX) && n * m <= u32::MAX as usize,
            "{n} stages x {m} micro-batches overflow the sweep table"
        );
        self.n = n;
        self.m = m;
        // One block of `n` ops per program index, each stage decoded once:
        // forwards fill the block front to back (ascending stage), backwards
        // back to front (descending stage, since stages are read ascending).
        // The same decode fills the op's arena-order entry.
        let len = 2 * n * m;
        self.program.clear();
        self.program.resize(
            len,
            ProgOp {
                slot: 0,
                stage: 0,
                bwd: false,
            },
        );
        self.path_ops.clear();
        self.path_ops.resize(
            len,
            PathOp {
                slot: 0,
                cross_pos: 0,
                bwd: false,
                steady: false,
            },
        );
        for (i, block) in self.program.chunks_exact_mut(n).enumerate() {
            let (mut lo, mut hi) = (0, n);
            for x in 0..n {
                let w = warmup_count(x, n, m);
                let (class, mb, phase) = decode_op(w, m - w, i);
                let bwd = class == OpClass::Bwd;
                let slot = (x * m + mb) as u32;
                let at = if bwd {
                    hi -= 1;
                    hi
                } else {
                    lo += 1;
                    lo - 1
                };
                block[at] = ProgOp {
                    slot,
                    stage: x as u16,
                    bwd,
                };
                let cross_pos = if !bwd && x > 0 {
                    fwd_pos(warmup_count(x - 1, n, m), mb)
                } else if bwd && x + 1 < n {
                    let ws = warmup_count(x + 1, n, m);
                    bwd_pos(ws, m - ws, mb)
                } else {
                    0
                };
                self.path_ops[x * 2 * m + i] = PathOp {
                    slot,
                    cross_pos: cross_pos as u32,
                    bwd,
                    steady: phase == Phase::OneFOneB,
                };
            }
        }
    }
}

/// Where the op at program position `i` of a stage with `w` warmup forwards
/// and `blocks` 1F1B blocks (of an `m`-micro-batch program) lands.
#[inline]
fn decode_op(w: usize, blocks: usize, i: usize) -> (OpClass, usize, Phase) {
    if i < w {
        (OpClass::Fwd, i, Phase::Warmup)
    } else if i < w + 2 * blocks {
        let j = i - w;
        if j.is_multiple_of(2) {
            (OpClass::Fwd, w + j / 2, Phase::OneFOneB)
        } else {
            (OpClass::Bwd, (j - 1) / 2, Phase::OneFOneB)
        }
    } else {
        (OpClass::Bwd, i - w - blocks, Phase::Cooldown)
    }
}

/// Program position of the forward of `mb` on a stage with `w` warmups.
#[inline]
fn fwd_pos(w: usize, mb: usize) -> usize {
    if mb < w {
        mb
    } else {
        w + 2 * (mb - w)
    }
}

/// Program position of the backward of `mb` on a stage with `w` warmups and
/// `blocks` 1F1B blocks.
#[inline]
fn bwd_pos(w: usize, blocks: usize, mb: usize) -> usize {
    if mb < blocks {
        w + 2 * mb + 1
    } else {
        w + blocks + mb
    }
}

/// What a [`sweep`] over `L` lanes reports beyond its scalars. The sweep is
/// the only code that walks the 1F1B program; a sink decides how much of
/// the walk is kept.
trait Sink<const L: usize> {
    /// An op's readiness and end time in every lane, as the sweep computes
    /// them.
    fn op(
        &mut self,
        x: usize,
        mb: usize,
        bwd: bool,
        intra_ready: [f64; L],
        cross_ready: [f64; L],
        end: [f64; L],
    );

    /// The op at program position `i` of stage `x` is on the critical path
    /// (called from the iteration's last op back to its first).
    fn visit(&mut self, x: usize, i: usize);
}

/// Keeps nothing: [`simulate_time_lanes`]' sink. Both methods inline to
/// nothing, so this instantiation of the sweep is the bare scalar loop.
struct Scalars;

impl<const L: usize> Sink<L> for Scalars {
    #[inline(always)]
    fn op(&mut self, _: usize, _: usize, _: bool, _: [f64; L], _: [f64; L], _: [f64; L]) {}

    #[inline(always)]
    fn visit(&mut self, _: usize, _: usize) {}
}

/// Keeps everything: fills the op arena (stage-major, program-minor — op
/// `i` of stage `x` at `x·2m + i`) and records the critical path.
struct Arena {
    n: usize,
    m: usize,
    ops: Vec<OpTime>,
    /// Critical path, last op first.
    path: Vec<usize>,
}

impl Arena {
    /// Arena index of the forward or backward of `mb` at stage `x`.
    fn index(&self, x: usize, bwd: bool, mb: usize) -> usize {
        let w = warmup_count(x, self.n, self.m);
        let pos = if bwd {
            bwd_pos(w, self.m - w, mb)
        } else {
            fwd_pos(w, mb)
        };
        x * 2 * self.m + pos
    }
}

impl Sink<1> for Arena {
    fn op(
        &mut self,
        x: usize,
        mb: usize,
        bwd: bool,
        [intra_ready]: [f64; 1],
        [cross_ready]: [f64; 1],
        [end]: [f64; 1],
    ) {
        let idx = self.index(x, bwd, mb);
        let pos = idx - x * 2 * self.m;
        let w = warmup_count(x, self.n, self.m);
        let (class, _, phase) = decode_op(w, self.m - w, pos);
        let cross_pred = match class {
            OpClass::Fwd if x > 0 => Some(self.index(x - 1, bwd, mb)),
            OpClass::Bwd if x < self.n - 1 => Some(self.index(x + 1, bwd, mb)),
            _ => None,
        };
        self.ops[idx] = OpTime {
            stage: x,
            class,
            mb,
            phase,
            start: intra_ready.max(cross_ready),
            end,
            intra_ready,
            cross_ready,
            intra_pred: (pos > 0).then(|| idx - 1),
            cross_pred,
        };
    }

    fn visit(&mut self, x: usize, i: usize) {
        self.path.push(x * 2 * self.m + i);
    }
}

/// Iteration time, startup overhead and master stage of the 1F1B schedule,
/// allocation-free once `scratch` has seen the problem size.
pub fn simulate_time(costs: &StageCosts, m: usize, scratch: &mut SimScratch) -> FastResult {
    simulate_time_masked(costs, m, scratch, None, None)
}

/// [`simulate_time`] with an optional overlap-aware comm model and an
/// optional per-stage recompute mask (see [`simulate_replay_masked`]): the
/// one-lane instance of [`simulate_time_lanes`].
pub fn simulate_time_masked(
    costs: &StageCosts,
    m: usize,
    scratch: &mut SimScratch,
    overlap: Option<&OverlapModel>,
    recompute: Option<&[bool]>,
) -> FastResult {
    let [r] = simulate_time_lanes([costs], m, scratch, overlap, [recompute]);
    r
}

/// Score `L ≥ 1` candidates of one `(n, m)` in one lockstep sweep — the
/// planner's call, at `L =` [`LANES`]. Lane `l` is bit for bit
/// [`simulate_time_masked`] of `costs[l]` under `recompute[l]`; `overlap`
/// applies to every lane, and every lane must have the same stage count.
pub fn simulate_time_lanes<const L: usize>(
    costs: [&StageCosts; L],
    m: usize,
    scratch: &mut SimScratch,
    overlap: Option<&OverlapModel>,
    recompute: [Option<&[bool]>; L],
) -> [FastResult; L] {
    sweep(costs, m, scratch, overlap, recompute, &mut Scalars)
}

/// Per-op replay of the 1F1B schedule for the given stage costs and
/// micro-batch count: [`simulate_time`]'s numbers plus the op arena and the
/// critical path.
pub fn simulate_replay(costs: &StageCosts, m: usize) -> AnalyticResult {
    simulate_replay_masked(costs, m, &mut SimScratch::new(), None, None)
}

/// [`simulate_replay`] with an optional overlap-aware comm model and an
/// optional per-stage recompute mask, over a caller-owned scratch — a search
/// passes the scratch it scored its candidates with, whose sweep order is
/// already decoded for this `(n, m)`.
///
/// With `overlap`, cross-stage gates are the arrivals of chunked eager sends
/// computed at the *sender* (stored in [`OpTime::cross_ready`]); without it,
/// the classic blocking `end + comm`.
///
/// A masked stage replays its forward (`f[x]`) before each backward — the
/// analytic image of the schedule IR's `Recompute` op, which the lowering
/// places *before* the gradient receive. The replay therefore starts as soon
/// as the device is free, and the backward starts at
/// `max(dev_free + f[x], grad_arrival)` — the same floats, in the same
/// order, as the event simulator's `Recompute` arm, keeping the two
/// bit-identical. Callers pass `b[x]` at the *non-checkpointed* rate for
/// masked stages ([`crate::partition::Partition::stage_costs_recompute`]).
pub fn simulate_replay_masked(
    costs: &StageCosts,
    m: usize,
    scratch: &mut SimScratch,
    overlap: Option<&OverlapModel>,
    recompute: Option<&[bool]>,
) -> AnalyticResult {
    let n = costs.n_stages();
    // Every arena slot is overwritten: the sweep executes each op once.
    let blank = OpTime {
        stage: 0,
        class: OpClass::Fwd,
        mb: 0,
        phase: Phase::Warmup,
        start: 0.0,
        end: 0.0,
        intra_ready: 0.0,
        cross_ready: 0.0,
        intra_pred: None,
        cross_pred: None,
    };
    let mut arena = Arena {
        n,
        m,
        ops: vec![blank; 2 * n * m],
        path: Vec::new(),
    };
    let [scalars] = sweep([costs], m, scratch, overlap, [recompute], &mut arena);
    arena.path.reverse();
    AnalyticResult {
        iteration_time: scalars.iteration_time,
        startup_overhead: scalars.startup_overhead,
        master_stage: scalars.master_stage,
        critical_path: arena.path,
        ops: arena.ops,
        stage_busy: scratch.stage_busy().to_vec(),
    }
}

/// View the front of `buf` as `len` entries of `L` lanes each, growing it
/// first when it is too short. It never shrinks, so a call with fewer lanes
/// or a smaller problem neither reallocates nor re-zeroes.
fn lanes<const L: usize, T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [[T; L]] {
    if buf.len() < len * L {
        buf.resize(len * L, T::default());
    }
    buf[..len * L].as_chunks_mut().0
}

/// The 1F1B replay of `L` candidates in lockstep: one dependency-ordered
/// pass over the cached program in which every value is an `[f64; L]` and
/// lane `l` performs the float operations of a one-lane sweep of
/// `costs[l]`, in the same order; then, per lane, the critical-path
/// backtrack and the master-stage count.
#[inline]
fn sweep<const L: usize, S: Sink<L>>(
    costs: [&StageCosts; L],
    m: usize,
    scratch: &mut SimScratch,
    overlap: Option<&OverlapModel>,
    recompute: [Option<&[bool]>; L],
    sink: &mut S,
) -> [FastResult; L] {
    const { assert!(L >= 1, "a sweep needs at least one lane") };
    let n = costs[0].n_stages();
    assert!(m >= 1, "need at least one micro-batch");
    for (c, r) in costs.iter().zip(recompute) {
        assert_eq!(c.n_stages(), n, "lanes of one sweep differ in stage count");
        if let Some(r) = r {
            assert_eq!(r.len(), n, "recompute mask/stage count mismatch");
        }
    }
    let comm: [f64; L] = from_fn(|l| costs[l].comm);
    let prog_len = 2 * m;
    let chunk_cost: [f64; L] = from_fn(|l| overlap.map_or(0.0, |ov| ov.chunk_cost(comm[l])));
    let k = overlap.map_or(1, OverlapModel::k);
    let overlapped = overlap.is_some();

    // A search scores every candidate at one `(n, m)`: the decode runs once
    // per search, and per candidate only this comparison does.
    if (scratch.n, scratch.m) != (n, m) {
        scratch.rekey(n, m);
    }
    let SimScratch {
        program,
        path_ops,
        f,
        b,
        masked,
        fwd_end,
        bwd_end,
        dev_free,
        path_count,
        stage_busy,
        act_arr,
        grad_arr,
        act_link,
        grad_link,
        ..
    } = scratch;
    // The lanes' stage costs side by side, one `[f64; L]` per stage.
    let f = lanes::<L, _>(f, n);
    let b = lanes::<L, _>(b, n);
    let masked = lanes::<L, _>(masked, n);
    for x in 0..n {
        f[x] = from_fn(|l| costs[l].f[x]);
        b[x] = from_fn(|l| costs[l].b[x]);
        masked[x] = from_fn(|l| recompute[l].is_some_and(|r| r[x]));
    }
    // Every end time and arrival is written by the sweep before anything
    // reads it, so these only need the right length, not zeroing.
    let fwd_end = lanes::<L, _>(fwd_end, n * m);
    let bwd_end = lanes::<L, _>(bwd_end, n * m);
    let arrivals = if overlapped { n * m } else { 0 };
    let act_arr = lanes::<L, _>(act_arr, arrivals);
    let grad_arr = lanes::<L, _>(grad_arr, arrivals);
    let dev_free = lanes::<L, _>(dev_free, n);
    dev_free.fill([0.0; L]);
    let act_link = lanes::<L, _>(act_link, n);
    act_link.fill([0.0; L]);
    let grad_link = lanes::<L, _>(grad_link, n);
    grad_link.fill([0.0; L]);
    // A masked stage pays one forward replay per backward on top of its work.
    let last = L - 1;
    stage_busy.clear();
    stage_busy.extend((0..n).map(|x| {
        m as f64 * (costs[last].work(x) + if masked[x][last] { f[x][last] } else { 0.0 })
    }));

    // Single-pass topological sweep in the cached order: an op starts at the
    // max of its intra-stage predecessor's end and its cross-stage gate, in
    // every lane.
    for op in program.iter() {
        let x = usize::from(op.stage);
        let slot = op.slot as usize;
        let free = dev_free[x];
        if !op.bwd {
            let cross_ready = if x > 0 {
                if overlapped {
                    act_arr[slot - m]
                } else {
                    let e = fwd_end[slot - m];
                    from_fn(|l| e[l] + comm[l])
                }
            } else {
                [0.0; L]
            };
            let fx = f[x];
            let e = from_fn(|l| free[l].max(cross_ready[l]) + fx[l]);
            sink.op(x, slot - x * m, false, free, cross_ready, e);
            fwd_end[slot] = e;
            dev_free[x] = e;
            if overlapped && x < n - 1 {
                // Sender-side eager send right after the producing span.
                let link = &mut act_link[x];
                act_arr[slot] =
                    from_fn(|l| eager_send(&mut link[l], e[l], fx[l], chunk_cost[l], k));
            }
        } else {
            let cross_ready = if x < n - 1 {
                if overlapped {
                    grad_arr[slot + m]
                } else {
                    let e = bwd_end[slot + m];
                    from_fn(|l| e[l] + comm[l])
                }
            } else {
                [0.0; L]
            };
            // Masked stages replay the forward while the gradient is on the
            // wire; the backward cannot start before that finishes.
            let (fx, bx, mx) = (f[x], b[x], masked[x]);
            let intra_ready = from_fn(|l| if mx[l] { free[l] + fx[l] } else { free[l] });
            let e = from_fn(|l| intra_ready[l].max(cross_ready[l]) + bx[l]);
            sink.op(x, slot - x * m, true, intra_ready, cross_ready, e);
            bwd_end[slot] = e;
            dev_free[x] = e;
            if overlapped && x > 0 {
                let link = &mut grad_link[x];
                grad_arr[slot] =
                    from_fn(|l| eager_send(&mut link[l], e[l], bx[l], chunk_cost[l], k));
            }
        }
    }

    let mut out = [FastResult::default(); L];
    for (l, out) in out.iter_mut().enumerate() {
        // Iteration end and the backtrack anchor: the *last* op, in arena
        // order (stage-major, program-minor), with the maximal end.
        // Durations are non-negative and an op starts no earlier than its
        // device frees, so end times never decrease along one stage's
        // program: each stage's maximum, and its last maximal op, is its
        // final op, whose end is what the sweep left in `dev_free`. Scanning
        // those `n` values, later stages winning ties, picks that anchor
        // without touching the other `2·n·m − n` ends.
        let mut iteration_time = 0.0_f64;
        let (mut cx, mut ci) = (0usize, prog_len - 1);
        let mut anchor_end = f64::NEG_INFINITY;
        for (x, e) in dev_free.iter().enumerate() {
            let e = e[l];
            iteration_time = iteration_time.max(e);
            if e.total_cmp(&anchor_end) != std::cmp::Ordering::Less {
                anchor_end = e;
                cx = x;
            }
        }

        // Backtrack the unique critical path, counting 1F1B-phase visits
        // per stage. A predecessor is on the path when its readiness equals
        // the start (no slack) — `start = max(intra_ready, cross_ready)`
        // makes the equality exact — and among zero-slack predecessors the
        // one at the higher stage wins: the paper's tie rule ("the one
        // closest to the last pipeline stage in the 1F1B phase", Fig. 4).
        path_count.clear();
        path_count.resize(n, 0);
        loop {
            sink.visit(cx, ci);
            let row = &path_ops[cx * prog_len..][..prog_len];
            let op = row[ci];
            if op.steady {
                path_count[cx] += 1;
            }
            // (cross stage, cross readiness) of this op, if it has a cross
            // dep. A neighbour's op of the same micro-batch sits `m` slots
            // away.
            let slot = op.slot as usize;
            let cross = if !op.bwd {
                (cx > 0).then(|| {
                    let ready = if overlapped {
                        act_arr[slot - m][l]
                    } else {
                        fwd_end[slot - m][l] + comm[l]
                    };
                    (cx - 1, ready)
                })
            } else {
                (cx < n - 1).then(|| {
                    let ready = if overlapped {
                        grad_arr[slot + m][l]
                    } else {
                        bwd_end[slot + m][l] + comm[l]
                    };
                    (cx + 1, ready)
                })
            };
            let intra_ready = if ci > 0 {
                let prev = row[ci - 1];
                let ends = if prev.bwd { &*bwd_end } else { &*fwd_end };
                let e = ends[prev.slot as usize][l];
                if op.bwd && masked[cx][l] {
                    e + f[cx][l]
                } else {
                    e
                }
            } else {
                0.0
            };
            let cross_ready = cross.map_or(0.0, |(_, r)| r);
            let start = intra_ready.max(cross_ready);

            let mut follow_cross = cross.is_some() && cross_ready == start;
            let mut follow_intra = false;
            if ci > 0 && intra_ready == start {
                match cross {
                    Some((cs, _)) if follow_cross && cs >= cx => {} // cross wins the tie
                    _ => {
                        follow_cross = false;
                        follow_intra = true;
                    }
                }
            }
            if follow_cross {
                cx = cross.unwrap().0;
                ci = op.cross_pos as usize;
            } else if follow_intra {
                ci -= 1;
            } else {
                break;
            }
        }

        // The master stage: the stage the critical path traverses
        // horizontally in the 1F1B phase (§III-B, "the stage that the
        // critical path passes in 1F1B phase ... it has the heaviest load
        // and dominates the pipeline"). Highest count wins; ties go to the
        // stage closest to the end of the pipeline (the paper's uniqueness
        // rule). Degenerate pipelines (m < n can leave no 1F1B ops on the
        // path) fall back to the heaviest stage.
        let mut master = None;
        let mut best = 0usize;
        for (x, &c) in path_count.iter().enumerate() {
            if c >= best && c > 0 {
                best = c;
                master = Some(x);
            }
        }
        let costs = costs[l];
        let master_stage = master.unwrap_or_else(|| {
            (0..n)
                .max_by(|&a, &b| costs.work(a).total_cmp(&costs.work(b)))
                .unwrap()
        });

        let startup_overhead = if n == 1 {
            0.0
        } else if overlapped {
            act_arr[(n - 2) * m][l]
        } else {
            fwd_end[(n - 2) * m][l] + comm[l]
        };

        *out = FastResult {
            iteration_time,
            startup_overhead,
            master_stage,
        };
    }
    out
}

/// The paper's closed-form recurrence engine.
pub mod recurrence {
    use super::*;

    /// Result of the closed-form evaluation.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct RecurrenceResult {
        /// Iteration time from the recurrences.
        pub iteration_time: f64,
        /// The paper's Warmup estimate: total forward time of one
        /// micro-batch.
        pub warmup_estimate: f64,
    }

    /// Evaluate the paper's `t(x, y, z)` 1F1B recurrences plus the reverse-
    /// renumbered Cooldown recurrence. Requires `m ≥ n` (the paper always
    /// runs at least as many micro-batches as stages).
    pub fn simulate(costs: &StageCosts, m: usize) -> RecurrenceResult {
        let n = costs.n_stages();
        assert!(
            m >= n,
            "recurrence engine requires m >= n (got m={m}, n={n})"
        );
        let f = &costs.f;
        let b = &costs.b;
        let comm = costs.comm;

        // Unchoked warmup fill: arrival of micro-batch 0 at stage x, then
        // back-to-back warmup forwards ("Processing of the first micro-batch
        // in the pipeline is hardly choked due to the balanced partition").
        let mut arrive = vec![0.0_f64; n];
        for x in 1..n {
            arrive[x] = arrive[x - 1] + f[x - 1] + comm;
        }
        let w_end: Vec<f64> = (0..n)
            .map(|x| arrive[x] + warmup_count(x, n, m) as f64 * f[x])
            .collect();

        // t[x][y][z]: start of the z-th op (0 = FP, 1 = BP) of block y at
        // stage x. Stage x owns `block_count(x, n, m)` blocks.
        let blocks: Vec<usize> = (0..n).map(|x| block_count(x, n, m)).collect();
        let mut tf: Vec<Vec<f64>> = (0..n).map(|x| vec![0.0; blocks[x]]).collect();
        let mut tb: Vec<Vec<f64>> = (0..n).map(|x| vec![0.0; blocks[x]]).collect();

        let max_blocks = blocks[n - 1];
        for y in 0..max_blocks {
            // Forwards, increasing stage.
            for x in 0..n {
                if y >= blocks[x] {
                    continue;
                }
                if y == 0 {
                    tf[x][0] = if x == 0 {
                        w_end[0]
                    } else {
                        w_end[x].max(w_end[x - 1] + comm)
                    };
                } else {
                    let from_prev_stage = if x > 0 {
                        tf[x - 1][y - 1] + f[x - 1]
                    } else {
                        0.0
                    };
                    let from_own_bwd = tb[x][y - 1] + b[x];
                    let mut t = from_prev_stage.max(from_own_bwd);
                    if x != 0 {
                        t += comm; // the paper adds Comm after the max
                    }
                    tf[x][y] = t;
                }
            }
            // Backwards, decreasing stage.
            for x in (0..n).rev() {
                if y >= blocks[x] {
                    continue;
                }
                let from_next_stage = if x < n - 1 {
                    tb[x + 1][y] + b[x + 1]
                } else {
                    0.0
                };
                let from_own_fwd = tf[x][y] + f[x];
                let mut t = from_next_stage.max(from_own_fwd);
                if x != n - 1 {
                    t += comm;
                }
                tb[x][y] = t;
            }
        }

        // Cooldown, renumbered in reverse: ct[x][y] is the start of the BP
        // of micro-batch m−1−y at stage x. Stage x has m − blocks[x]
        // cooldown backwards; the last stage has none.
        let cool: Vec<usize> = (0..n).map(|x| m - blocks[x]).collect();
        let mut ct: Vec<Vec<f64>> = (0..n).map(|x| vec![0.0; cool[x]]).collect();
        // Start of the BP of micro-batch `mb` at stage x, wherever it lives.
        let bwd_start = |ct: &[Vec<f64>], x: usize, mb: usize| -> f64 {
            if mb < blocks[x] {
                tb[x][mb]
            } else {
                ct[x][m - 1 - mb]
            }
        };
        for x in (0..n).rev() {
            for y in (0..cool[x]).rev() {
                let mb = m - 1 - y;
                let same = bwd_start(&ct, x, mb - 1) + b[x];
                let below = bwd_start(&ct, x + 1, mb) + b[x + 1];
                ct[x][y] = same.max(below) + comm;
            }
        }

        let iteration_time = if cool[0] > 0 {
            ct[0][0] + b[0]
        } else {
            tb[0][m - 1] + b[0]
        };
        RecurrenceResult {
            iteration_time,
            warmup_estimate: f.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(f: Vec<f64>, b: Vec<f64>, comm: f64) -> StageCosts {
        StageCosts::new(f, b, comm)
    }

    #[test]
    fn single_stage_is_back_to_back() {
        let c = costs(vec![2.0], vec![4.0], 0.5);
        let r = simulate_replay(&c, 5);
        assert_eq!(r.iteration_time, 5.0 * 6.0);
        assert_eq!(r.startup_overhead, 0.0);
        assert_eq!(r.master_stage, 0);
    }

    #[test]
    fn balanced_pipeline_iteration_time() {
        // n balanced stages, m micro-batches, zero comm: the classic 1F1B
        // bound T = (n-1)·f + m·(f+b) + (n-1)·b.
        let n = 4;
        let m = 8;
        let f = 1.0;
        let b = 2.0;
        let c = costs(vec![f; n], vec![b; n], 0.0);
        let r = simulate_replay(&c, m);
        let want = (n as f64 - 1.0) * f + m as f64 * (f + b) + (n as f64 - 1.0) * b;
        assert!(
            (r.iteration_time - want).abs() < 1e-9,
            "{} vs {}",
            r.iteration_time,
            want
        );
    }

    #[test]
    fn startup_overhead_is_fill_time() {
        let c = costs(vec![1.0, 1.5, 2.0, 1.0], vec![2.0; 4], 0.25);
        let r = simulate_replay(&c, 8);
        // arrival at last stage = f0 + f1 + f2 + 3 comm
        let want = 1.0 + 1.5 + 2.0 + 3.0 * 0.25;
        assert!((r.startup_overhead - want).abs() < 1e-9);
    }

    #[test]
    fn heavy_stage_becomes_master() {
        for heavy in 0..4 {
            let mut f = vec![1.0; 4];
            let mut b = vec![2.0; 4];
            f[heavy] = 1.6;
            b[heavy] = 3.2;
            let c = costs(f, b, 0.01);
            let r = simulate_replay(&c, 12);
            assert_eq!(r.master_stage, heavy, "heavy stage {heavy}");
        }
    }

    #[test]
    fn balanced_master_is_last_stage() {
        // With perfectly equal stages, every stage's 1F1B run ties; the
        // uniqueness rule picks the one closest to the end.
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0);
        let r = simulate_replay(&c, 8);
        assert_eq!(r.master_stage, 3);
    }

    #[test]
    fn critical_path_is_contiguous_and_zero_slack() {
        let c = costs(vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 0.05);
        let r = simulate_replay(&c, 10);
        assert!(!r.critical_path.is_empty());
        // Path ends at the op with the global max end.
        let last = *r.critical_path.last().unwrap();
        assert_eq!(r.ops[last].end, r.iteration_time);
        for w in r.critical_path.windows(2) {
            let (a, b) = (&r.ops[w[0]], &r.ops[w[1]]);
            // Adjacent path ops are on the same or neighbouring stages.
            assert!(a.stage.abs_diff(b.stage) <= 1);
            // No slack: successor starts exactly when the predecessor
            // (plus comm if crossing stages) allows.
            let ready = if a.stage == b.stage {
                a.end
            } else {
                a.end + c.comm
            };
            assert!(
                (b.start - ready).abs() < 1e-12 || b.start == b.intra_ready.max(b.cross_ready),
                "slack on path: {a:?} -> {b:?}"
            );
        }
    }

    #[test]
    fn iteration_dominated_by_heaviest_stage() {
        // With a clearly heaviest stage k, iteration ≈ fill + m * work(k).
        let c = costs(vec![1.0, 2.0, 1.0], vec![2.0, 4.0, 2.0], 0.0);
        let m = 16;
        let r = simulate_replay(&c, m);
        assert!(r.iteration_time >= m as f64 * 6.0);
        assert!(r.iteration_time <= m as f64 * 6.0 + 3.0 * 9.0);
    }

    #[test]
    fn recurrence_matches_replay_zero_comm_balanced() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0);
        for m in [4, 8, 16] {
            let r = simulate_replay(&c, m);
            let q = recurrence::simulate(&c, m);
            assert!(
                (r.iteration_time - q.iteration_time).abs() < 1e-9,
                "m={m}: replay {} vs recurrence {}",
                r.iteration_time,
                q.iteration_time
            );
        }
    }

    #[test]
    fn recurrence_close_to_replay_with_comm() {
        // The paper adds Comm after the max (over-charging intra-stage
        // paths) and estimates warmup without choke; the gap stays bounded
        // by a few comm units per pipeline wave.
        let c = costs(vec![1.0, 1.2, 0.9, 1.1], vec![2.1, 2.4, 1.8, 2.2], 0.02);
        for m in [4, 8, 16] {
            let r = simulate_replay(&c, m);
            let q = recurrence::simulate(&c, m);
            // The paper adds Comm after the max, over-charging the
            // intra-stage chain twice per 1F1B block in the worst case.
            let tol = (2.0 * m as f64 + 2.0 * 4.0) * c.comm + 1e-9;
            assert!(
                (r.iteration_time - q.iteration_time).abs() <= tol,
                "m={m}: replay {} vs recurrence {} tol {}",
                r.iteration_time,
                q.iteration_time,
                tol
            );
            let rel = (r.iteration_time - q.iteration_time).abs() / r.iteration_time;
            assert!(rel < 0.05, "relative gap {rel}");
        }
    }

    #[test]
    fn more_microbatches_amortise_bubbles() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.01);
        let r8 = simulate_replay(&c, 8);
        let r32 = simulate_replay(&c, 32);
        let eff = |r: &AnalyticResult, m: f64| (m * 3.0) / r.iteration_time;
        assert!(eff(&r32, 32.0) > eff(&r8, 8.0));
    }

    #[test]
    fn handles_fewer_microbatches_than_stages() {
        let c = costs(vec![1.0; 4], vec![2.0; 4], 0.0);
        let r = simulate_replay(&c, 2);
        // fill 3 fwd + 2 per-stage... just sanity: finite, larger than the
        // serial time of one micro-batch, smaller than fully serial.
        assert!(r.iteration_time > 3.0 + 3.0);
        assert!(r.iteration_time <= 2.0 * 4.0 * 3.0);
    }

    #[test]
    fn fast_tier_matches_replay_bit_for_bit() {
        let cases = [
            (vec![2.0], vec![4.0], 0.5, 5),
            (vec![1.0; 4], vec![2.0; 4], 0.0, 8),
            (vec![1.0, 1.5, 2.0, 1.0], vec![2.0; 4], 0.25, 8),
            (vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 0.05, 10),
            (vec![1.0; 4], vec![2.0; 4], 0.0, 2), // m < n
            (vec![0.0, 1.0, 0.0], vec![0.0, 2.0, 0.0], 0.01, 6), // degenerate
            // Zero-duration backwards tie the iteration end within a stage
            // and, with free comm, across stages: the anchor must be the
            // last maximal op in stage-major order.
            (vec![1.0, 1.0], vec![0.0, 0.0], 0.0, 3),
            (vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 1.0], 0.0, 4),
            (vec![0.0; 3], vec![0.0; 3], 0.0, 4),
        ];
        let mut scratch = SimScratch::new();
        for (f, b, comm, m) in cases {
            let c = costs(f, b, comm);
            let full = simulate_replay(&c, m);
            let fast = simulate_time(&c, m, &mut scratch);
            assert_eq!(fast.iteration_time, full.iteration_time);
            assert_eq!(fast.startup_overhead, full.startup_overhead);
            assert_eq!(fast.master_stage, full.master_stage);
            assert_eq!(scratch.stage_busy(), &full.stage_busy[..]);
        }
    }

    #[test]
    fn fast_tier_scratch_survives_shrinking_and_growing_problems() {
        let mut scratch = SimScratch::new();
        for (n, m) in [(4usize, 16usize), (2, 4), (8, 32), (1, 1), (6, 12)] {
            let c = costs(vec![1.0; n], vec![2.0; n], 0.01);
            let full = simulate_replay(&c, m);
            let fast = simulate_time(&c, m, &mut scratch);
            assert_eq!(fast.iteration_time, full.iteration_time, "n={n} m={m}");
            assert_eq!(fast.master_stage, full.master_stage, "n={n} m={m}");
            assert_eq!(scratch.stage_busy().len(), n);
        }
    }

    #[test]
    fn fast_tier_heavy_stage_becomes_master() {
        let mut scratch = SimScratch::new();
        for heavy in 0..4 {
            let mut f = vec![1.0; 4];
            let mut b = vec![2.0; 4];
            f[heavy] = 1.6;
            b[heavy] = 3.2;
            let c = costs(f, b, 0.01);
            let r = simulate_time(&c, 12, &mut scratch);
            assert_eq!(r.master_stage, heavy, "heavy stage {heavy}");
        }
    }

    #[test]
    fn overlapped_fast_tier_matches_overlapped_replay_bit_for_bit() {
        let cases = [
            (vec![2.0], vec![4.0], 0.5, 5),
            (vec![1.0; 4], vec![2.0; 4], 0.0, 8),
            (vec![1.0, 1.5, 2.0, 1.0], vec![2.0; 4], 0.25, 8),
            (vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 1.05, 10),
            (vec![1.0; 4], vec![2.0; 4], 3.0, 2), // comm-dominated, m < n
            (vec![0.0, 1.0, 0.0], vec![0.0, 2.0, 0.0], 0.01, 6),
        ];
        let mut scratch = SimScratch::new();
        for k in [1usize, 2, 4, 8] {
            for (f, b, comm, m) in cases.clone() {
                let ov = OverlapModel {
                    latency: 0.01,
                    chunks: k,
                };
                let c = costs(f, b, comm);
                let full = simulate_replay_masked(&c, m, &mut SimScratch::new(), Some(&ov), None);
                let fast = simulate_time_masked(&c, m, &mut scratch, Some(&ov), None);
                assert_eq!(fast.iteration_time, full.iteration_time, "k={k}");
                assert_eq!(fast.startup_overhead, full.startup_overhead, "k={k}");
                assert_eq!(fast.master_stage, full.master_stage, "k={k}");
            }
        }
    }

    #[test]
    fn overlapped_analytic_matches_overlapped_event_sim_bit_for_bit() {
        use crate::event::{EventConfig, EventCosts};
        use crate::{replay_schedule, ReplayScratch};
        use autopipe_exec::CommConfig;
        use autopipe_schedule::generators::one_f_one_b;
        // Comm-heavy enough that the eager chunks actually queue on links.
        let c = costs(vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 1.5);
        let latency = 0.05;
        let mut scratch = SimScratch::new();
        for k in [1usize, 2, 4, 8] {
            for m in [4, 8, 12] {
                let ov = OverlapModel { latency, chunks: k };
                let a = simulate_time_masked(&c, m, &mut scratch, Some(&ov), None);
                let e = replay_schedule(
                    &one_f_one_b(4, m),
                    &EventCosts::from_stage_costs(&c, latency),
                    &EventConfig {
                        comm: CommConfig::overlapped(k),
                        ..Default::default()
                    },
                    &mut ReplayScratch::new(),
                )
                .unwrap();
                assert_eq!(
                    a.iteration_time.to_bits(),
                    e.iteration_time.to_bits(),
                    "k={k} m={m}: analytic {} vs event {}",
                    a.iteration_time,
                    e.iteration_time
                );
                assert_eq!(
                    a.startup_overhead.to_bits(),
                    e.startup_overhead.to_bits(),
                    "k={k} m={m}"
                );
            }
        }
    }

    #[test]
    fn masked_fast_tier_matches_masked_replay_bit_for_bit() {
        let masks: [Vec<bool>; 3] = [
            vec![true; 4],
            vec![true, false, true, false],
            vec![false, false, false, true],
        ];
        let mut scratch = SimScratch::new();
        for mask in &masks {
            for overlap in [
                None,
                Some(OverlapModel {
                    latency: 0.05,
                    chunks: 4,
                }),
            ] {
                let c = costs(vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 1.05);
                let full = simulate_replay_masked(
                    &c,
                    10,
                    &mut SimScratch::new(),
                    overlap.as_ref(),
                    Some(mask),
                );
                let fast = simulate_time_masked(&c, 10, &mut scratch, overlap.as_ref(), Some(mask));
                assert_eq!(fast.iteration_time, full.iteration_time, "mask {mask:?}");
                assert_eq!(
                    fast.startup_overhead, full.startup_overhead,
                    "mask {mask:?}"
                );
                assert_eq!(fast.master_stage, full.master_stage, "mask {mask:?}");
                assert_eq!(scratch.stage_busy(), &full.stage_busy[..], "mask {mask:?}");
            }
        }
    }

    #[test]
    fn masked_overlapped_analytic_matches_event_sim_bit_for_bit() {
        use crate::event::{EventConfig, EventCosts};
        use crate::{replay_schedule, ReplayScratch};
        use autopipe_exec::CommConfig;
        use autopipe_schedule::{apply_recompute, generators::one_f_one_b};
        let c = costs(vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 1.5);
        let latency = 0.05;
        let masks: [Vec<bool>; 3] = [
            vec![true; 4],
            vec![true, true, false, false],
            vec![false, true, false, true],
        ];
        let mut scratch = SimScratch::new();
        for mask in &masks {
            for k in [1usize, 4] {
                for m in [4, 8] {
                    let ov = OverlapModel { latency, chunks: k };
                    let a = simulate_time_masked(&c, m, &mut scratch, Some(&ov), Some(mask));
                    let mut sched = one_f_one_b(4, m);
                    apply_recompute(&mut sched, mask);
                    let e = replay_schedule(
                        &sched,
                        &EventCosts::from_stage_costs(&c, latency),
                        &EventConfig {
                            comm: CommConfig::overlapped(k),
                            ..Default::default()
                        },
                        &mut ReplayScratch::new(),
                    )
                    .unwrap();
                    assert_eq!(
                        a.iteration_time.to_bits(),
                        e.iteration_time.to_bits(),
                        "mask {mask:?} k={k} m={m}: analytic {} vs event {}",
                        a.iteration_time,
                        e.iteration_time
                    );
                }
            }
        }
    }

    #[test]
    fn recompute_mask_never_speeds_up_equal_costs() {
        // With b held fixed, masking a stage adds one forward replay per
        // backward — iteration time must not drop.
        let c = costs(vec![1.0, 1.3, 0.9, 1.1], vec![2.0, 2.6, 1.8, 2.2], 0.05);
        let plain = simulate_replay(&c, 8);
        for s in 0..4 {
            let mut mask = vec![false; 4];
            mask[s] = true;
            let rec = simulate_replay_masked(&c, 8, &mut SimScratch::new(), None, Some(&mask));
            assert!(
                rec.iteration_time >= plain.iteration_time,
                "stage {s}: {} < {}",
                rec.iteration_time,
                plain.iteration_time
            );
        }
    }

    #[test]
    fn overlap_shrinks_iteration_time_on_comm_heavy_costs() {
        let c = costs(vec![1.0; 4], vec![1.0; 4], 2.0);
        let mut scratch = SimScratch::new();
        let blocking = simulate_time(&c, 8, &mut scratch);
        let ov = OverlapModel {
            latency: 0.01,
            chunks: 4,
        };
        let overlapped = simulate_time_masked(&c, 8, &mut scratch, Some(&ov), None);
        let gain = 1.0 - overlapped.iteration_time / blocking.iteration_time;
        assert!(
            gain >= 0.10,
            "gain {gain:.3} (blocking {}, overlapped {})",
            blocking.iteration_time,
            overlapped.iteration_time
        );
    }

    #[test]
    fn per_microbatch_time_divides_iteration() {
        let c = costs(vec![1.0; 2], vec![2.0; 2], 0.0);
        let r = simulate_replay(&c, 10);
        assert!((r.per_microbatch_time(10) - r.iteration_time / 10.0).abs() < 1e-12);
    }
}

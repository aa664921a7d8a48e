//! `train_compute` and `train_small_ops`: the same `Session` chain on two
//! models that put the time in opposite places (big GEMMs vs. everything
//! around small ones). Also home of the traced pipeline segment that every
//! traced run uses to time the engine and stage layers.

use std::time::Instant;

use autopipe::model::{ModelConfig, ModelFamily};
use autopipe::runtime::ReferenceModel;
use autopipe::runtime::{BatchSet, CheckpointStore, Pipeline, PipelineConfig, PipelineSnapshot};
use autopipe::schedule::{one_f_one_b, OpKind, Schedule};
use autopipe::sim::Partition;
use autopipe::{PlannedSession, RunReport, Session};
use autopipe_exec::Timeline;

use crate::env::{dir_bytes, Scratch};
use crate::probes;
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::trace::{layer_self_ns, Tracer};
use crate::{rel_close, timed_setup, Args, Checks, Outcome, RepStats, STAGES};

/// Micro-batch counts the timed planning operations cycle through: a cold
/// `plan()?.slice()?` of the workload's model and stages at each, as a user
/// choosing the micro-batch count would run them. One chain at the trained
/// `m = 8` takes ~14 µs and ~6 % of them run 1.5–3× longer (allocator slow
/// paths, timer ticks), so the p95 of that one chain sits on the knee of its
/// distribution and read 14–21 µs from batch to batch. Planning time grows
/// with `m`, so over seven counts the median lies inside the `m = 16` chains
/// and the p95 inside the `m = 128` chains: both are set by the operation
/// mix, as on `plan_sweep`, not by the machine's noise tail.
pub const PLAN_SWEEP_M: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];
/// Cycles through [`PLAN_SWEEP_M`] per latency batch (2 100 samples, 105 of
/// them beyond the batch's p95; 60–80 ms).
pub const PLAN_BATCH_SWEEPS: usize = 300;
/// Planning-latency sampling time as a share of the `run()` wall before it
/// (an eighth of a training run's measuring time, 30–50 batches in 20 s).
pub const PLAN_SAMPLE_RATIO: f64 = 0.15;

/// Seconds of a traced run reserved for the probes that follow the segment.
pub const PROBE_RESERVE_S: f64 = 5.0;

/// A training workload: model, batch geometry and repetition size.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub model: ModelConfig,
    pub microbatches: usize,
    pub mbs: usize,
    /// Iterations one `run()` repetition trains.
    pub iters: usize,
    /// Iterations of the warm-up pass in set-up (≈5 % of the timed work).
    pub warmup_iters: usize,
}

/// Leading steps compared with the single-threaded reference. The two
/// trainers sum in different orders, and training amplifies the rounding
/// difference step over step: 1e-4 relative holds for the first few dozen
/// steps, not for hundreds.
const REFERENCE_STEPS: usize = 20;

fn gpt(
    name: &str,
    layers: usize,
    hidden: usize,
    heads: usize,
    seq: usize,
    vocab: usize,
) -> ModelConfig {
    ModelConfig {
        name: name.into(),
        family: ModelFamily::Gpt2,
        num_layers: layers,
        hidden_size: hidden,
        num_heads: heads,
        seq_len: seq,
        vocab_size: vocab,
        ffn_mult: 4,
    }
}

/// Big-GEMM regime: every linear layer is above `gemm`'s 2¹⁸ work threshold
/// (`mbs·seq = 128` rows × `h = 128`), so the threaded GEMM path and the
/// scalar `matmul_t`/`t_matmul` loops do almost all the work.
pub fn compute_spec() -> TrainSpec {
    TrainSpec {
        model: gpt("GPT bench-compute", 4, 128, 8, 32, 512),
        microbatches: 8,
        mbs: 4,
        iters: 2,
        warmup_iters: 1,
    }
}

/// Small-op regime: every GEMM is below the threading threshold, so time
/// goes to allocation, elementwise ops, channel hops, timeline assembly and
/// the per-iteration thread spawn/join.
pub fn small_ops_spec() -> TrainSpec {
    TrainSpec {
        model: gpt("GPT bench-small-ops", 2, 32, 2, 16, 128),
        microbatches: 8,
        mbs: 2,
        iters: 100,
        warmup_iters: 60,
    }
}

impl TrainSpec {
    pub fn tokens_per_iter(&self) -> f64 {
        (self.microbatches * self.mbs * self.model.seq_len) as f64
    }

    /// The session every repetition starts from.
    pub fn session(&self, seed: u64) -> Session {
        Session::for_model(self.model.clone())
            .stages(STAGES)
            .microbatches(self.microbatches)
            .microbatch_size(self.mbs)
            .seed(seed)
            .iterations(self.iters)
    }
}

/// Time latency batches for `budget_s` seconds (at least one batch): each
/// batch is [`PLAN_BATCH_SWEEPS`] cycles through [`PLAN_SWEEP_M`], one sample
/// per cold `plan()?.slice()?` chain of `session` at that micro-batch count
/// (a fresh session with its private, empty `PlanService`).
pub fn sample_plan_chain(
    session: &Session,
    budget_s: f64,
    reps: &mut RepStats,
    checks: &mut Checks,
) {
    let sessions = PLAN_SWEEP_M.map(|m| session.clone().microbatches(m));
    let t0 = Instant::now();
    loop {
        let mut us = Vec::with_capacity(PLAN_BATCH_SWEEPS * sessions.len());
        for _ in 0..PLAN_BATCH_SWEEPS {
            for session in &sessions {
                let t = Instant::now();
                let planned = session.clone().plan().and_then(PlannedSession::slice);
                us.push(t.elapsed().as_secs_f64() * 1e6);
                checks.check(planned.is_ok(), || {
                    format!("plan chain: {}", planned.as_ref().err().unwrap())
                });
            }
        }
        reps.add_latencies(&mut us);
        if t0.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
}

/// Losses present and finite; trajectory and final parameters bit-identical
/// to the first repetition's.
fn verify_report(report: &RunReport, iters: usize, first: &RunReport, checks: &mut Checks) {
    checks.check(report.losses.len() == iters, || {
        format!(
            "run returned {} losses, wanted {iters}",
            report.losses.len()
        )
    });
    checks.check(report.losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite loss in {:?}", report.losses)
    });
    checks.check(
        report.losses == first.losses
            && report.param_checksum.to_bits() == first.param_checksum.to_bits(),
        || "repetition is not bit-identical to the first".to_string(),
    );
    checks.passed(iters as u64);
}

/// Step the single-threaded reference trainer beside `losses` (a run's
/// trajectory from step 0) and require agreement within 1e-4 relative at
/// every step, and on the parameter checksum after the last one when the
/// caller has it. Returns the reference's seconds per iteration.
///
/// This is the check a kernel that reorders float reductions keeps: the
/// bit-identity checks compare the program with itself, never with a
/// committed bit pattern.
fn check_against_reference(
    planned: &PlannedSession,
    losses: &[f32],
    param_checksum: Option<f64>,
    checks: &mut Checks,
) -> f64 {
    let cfg = planned.config();
    let batch = BatchSet::synthetic(
        cfg.seed,
        planned.plan().microbatches,
        cfg.mbs,
        cfg.model.seq_len,
        cfg.model.vocab_size,
    );
    let mut reference = ReferenceModel::new(&cfg.model, cfg.seed, cfg.lr, cfg.checkpointing);
    let t = Instant::now();
    for (step, &loss) in losses.iter().enumerate() {
        let want = reference.train_iteration(&batch);
        checks.check(rel_close(want as f64, loss as f64, 1e-4), || {
            format!("step {step}: pipeline loss {loss} vs reference {want}")
        });
    }
    let secs = t.elapsed().as_secs_f64() / losses.len().max(1) as f64;
    if let Some(got) = param_checksum {
        let want = reference.param_checksum();
        checks.check(rel_close(want, got, 1e-4), || {
            format!("param checksum {got} vs reference {want}")
        });
    }
    secs
}

pub fn run(spec: &TrainSpec, args: &Args) -> Outcome {
    if args.trace {
        traced(spec, args)
    } else {
        untraced(spec, args)
    }
}

fn untraced(spec: &TrainSpec, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let session = spec.session(args.seed);
    let (planned, setup_s) = timed_setup(|| {
        let planned = session
            .clone()
            .plan()
            .and_then(PlannedSession::slice)
            .expect("set-up: plan chain");
        planned
            .clone()
            .iterations(spec.warmup_iters)
            .run()
            .expect("set-up: warm-up run");
        planned
    });

    let mut reps = RepStats::identical_batches();
    let mut first: Option<RunReport> = None;
    let t0 = Instant::now();
    let mut sample_s = 0.0;
    loop {
        sample_plan_chain(&session, sample_s, &mut reps, &mut checks);
        // The clock sits outside `run()`: pipeline construction, thread
        // spawns, the optimiser and timeline assembly all count.
        let t = Instant::now();
        let result = planned.clone().run();
        let wall = t.elapsed().as_secs_f64();
        sample_s = PLAN_SAMPLE_RATIO * wall;
        match result {
            Ok(report) => {
                let first = first.get_or_insert_with(|| report.clone());
                verify_report(&report, spec.iters, first, &mut checks);
                reps.add_work(spec.iters as f64 * spec.tokens_per_iter() / wall);
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
    if let Some(first) = &first {
        if spec.iters <= REFERENCE_STEPS {
            let checksum = Some(first.param_checksum);
            check_against_reference(&planned, &first.losses, checksum, &mut checks);
        } else {
            match planned.clone().iterations(REFERENCE_STEPS).run() {
                Ok(short) => {
                    checks.check(short.losses == first.losses[..REFERENCE_STEPS], || {
                        "a shorter run is not a prefix of the full one".to_string()
                    });
                    let checksum = Some(short.param_checksum);
                    check_against_reference(&planned, &short.losses, checksum, &mut checks);
                }
                Err(e) => checks.check(false, || format!("reference-length run(): {e}")),
            }
        }
    }

    let metrics = reps.metrics(&args.workload, setup_s);
    Outcome { checks, metrics }
}

fn traced(spec: &TrainSpec, args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let scratch = Scratch::create().expect("scratch directory");
    let mut tr = Tracer::new(true);
    let budget = (args.seconds - PROBE_RESERVE_S).max(1.0);
    let mut metrics = traced_segment(spec, args.seed, budget, &mut tr, &mut checks, &scratch);
    set_harness_share(&tr, &mut metrics);
    metrics.extend(probes::fixed_request_layers());
    write_trace(&tr, &args.workload, args.seed);
    Outcome { checks, metrics }
}

/// The tensor / stage / engine / transport / checkpoint metrics for a
/// workload that does not touch the runtime: a one-second
/// [`traced_segment`] on the small-op model, so every traced run reports
/// every layer.
pub fn engine_side_layers(seed: u64, checks: &mut Checks) -> Metrics {
    let scratch = Scratch::create().expect("scratch directory");
    let mut throwaway = Tracer::new(true);
    traced_segment(
        &small_ops_spec(),
        seed,
        1.0,
        &mut throwaway,
        checks,
        &scratch,
    )
}

/// Write the span file of a traced run to `benchmark/results/`.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64) {
    let dir = crate::env::bench_dir().join("results");
    let path = dir.join(format!("trace_{workload}.json"));
    let text = serde_json::to_string(&tr.to_json(workload, seed)).expect("span file renders");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Set `trace.harness_share`: the part of the traced wall that falls in no
/// layer's span (the benchmark's own bookkeeping). The layers' self times
/// sum to the traced wall by construction, so this is the whole error of
/// the attribution.
pub fn set_harness_share(tr: &Tracer, metrics: &mut Metrics) {
    let layers = layer_self_ns(tr.spans());
    let wall: u64 = layers.values().sum();
    let harness = layers.get("harness").copied().unwrap_or(0);
    metrics.set("trace.harness_share", harness as f64 / wall.max(1) as f64);
}

/// GEMM FLOPs of one micro-batch's forward+backward, split by kernel:
/// `[matmul, matmul_t, t_matmul]`. Linear layers forward through `matmul`
/// and backward through `matmul_t` (input gradient) + `t_matmul` (weight
/// gradient); attention adds its per-head products; a checkpointed stage
/// replays the forward once more.
fn gemm_flops(model: &ModelConfig, mbs: usize, checkpointing: bool) -> [f64; 3] {
    let t = (mbs * model.seq_len) as f64;
    let (l, h, s, v) = (
        model.num_layers as f64,
        model.hidden_size as f64,
        model.seq_len as f64,
        model.vocab_size as f64,
    );
    let linear = l * 2.0 * t * h * h * (4.0 + 2.0 * model.ffn_mult as f64) + 2.0 * t * h * v;
    let attn = l * 2.0 * t * s * h; // one per-head product summed over heads
    let fwd_passes = if checkpointing { 2.0 } else { 1.0 };
    [
        fwd_passes * (linear + attn) + attn,
        linear + fwd_passes * attn + attn,
        linear + 2.0 * attn,
    ]
}

/// Messages and payload bytes one iteration of `schedule` moves between
/// devices, from the schedule's send ops and the activation shape.
fn traffic_per_iter(schedule: &Schedule, model: &ModelConfig, mbs: usize) -> (f64, f64) {
    let full = (model.boundary_activation_elems(mbs) * 4) as f64;
    let mut msgs = 0.0;
    let mut bytes = 0.0;
    for op in schedule.devices.iter().flatten() {
        match op.kind {
            OpKind::SendAct { part, .. } => {
                msgs += 1.0;
                bytes += part.frac() * full;
            }
            OpKind::SendGrad { .. } => {
                msgs += 1.0;
                bytes += full;
            }
            _ => {}
        }
    }
    (msgs, bytes)
}

/// What the timelines of the traced iterations add up to.
#[derive(Default)]
struct StageSamples {
    fwd_us: Vec<f64>,
    bwd_us: Vec<f64>,
    busy_share: Vec<f64>,
    bubble_share: Vec<f64>,
    recv_wait_share: Vec<f64>,
    imbalance: Vec<f64>,
    busy_s_per_iter: Vec<f64>,
}

impl StageSamples {
    fn add(&mut self, tl: &Timeline) {
        let iteration = tl.iteration_time();
        let p = tl.n_devices() as f64;
        let busy = tl.device_busy();
        let total_busy: f64 = busy.iter().sum();
        let wait: f64 = tl.breakdown().iter().map(|b| b.wait).sum();
        self.busy_share.push(total_busy / (p * iteration));
        self.bubble_share.push(tl.bubble_ratio());
        self.recv_wait_share.push(wait / (p * iteration));
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        self.imbalance.push(max_busy / (total_busy / p));
        self.busy_s_per_iter.push(total_busy);
        for d in 0..tl.n_devices() {
            for ev in tl.device(d) {
                match ev.op.kind {
                    OpKind::Fwd { .. } => self.fwd_us.push(ev.duration() * 1e6),
                    OpKind::Bwd { .. } | OpKind::BwdInput { .. } | OpKind::BwdWeight { .. } => {
                        self.bwd_us.push(ev.duration() * 1e6)
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Turn one iteration's timeline into lane spans under `parent`.
fn lane_spans(tr: &mut Tracer, parent: crate::trace::Open, tl: &Timeline) {
    for d in 0..tl.n_devices() {
        for ev in tl.device(d) {
            let name = match ev.op.kind {
                OpKind::Fwd { .. } => "stage.fwd",
                OpKind::Bwd { .. }
                | OpKind::BwdInput { .. }
                | OpKind::BwdWeight { .. }
                | OpKind::Recompute { .. } => "stage.bwd",
                OpKind::RecvAct { .. } | OpKind::RecvGrad { .. } => "transport.recv_wait",
                OpKind::SendAct { .. } | OpKind::SendGrad { .. } => "transport.send",
            };
            tr.lane_span(parent, name, 1 + d as u32, ev.start, ev.end);
        }
    }
}

/// Drive `plan → slice → simulate → Pipeline::try_new → train_iteration`
/// under spans, iterating for about `budget_s` seconds (every other
/// iteration with no tracing work, for `trace.overhead_share`), then time
/// the calls that need a live pipeline: timeline assembly, checkpoint
/// capture/save/load, repartition, and the single-threaded reference.
/// Returns the tensor / stage / engine / transport / checkpoint / session
/// metrics for `spec`.
pub fn traced_segment(
    spec: &TrainSpec,
    seed: u64,
    budget_s: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
    scratch: &Scratch,
) -> Metrics {
    let mut metrics = Metrics::new();
    let root = tr.begin("harness.segment", 0);

    // -- the chain, one span per stage of it ------------------------------
    let session = spec.session(seed);
    let planned = tr
        .span("session.plan", 0, || session.clone().plan())
        .expect("plan");
    let planned = tr
        .span("session.slice", 0, || planned.slice())
        .expect("slice");
    let sim = tr.span("session.simulate", 0, || planned.simulate());
    checks.check(sim.is_ok(), || {
        format!("simulate: {}", sim.as_ref().err().unwrap())
    });
    let cfg = planned.config().clone();
    let plan = planned.plan().clone();
    let pipe_cfg =
        PipelineConfig::from_session(&cfg, plan.partition.clone(), plan.schedule.clone());
    let mut pipe = tr
        .span("engine.build", 0, || Pipeline::try_new(&pipe_cfg))
        .expect("pipeline builds");
    let batch = BatchSet::synthetic(
        cfg.seed,
        plan.microbatches,
        cfg.mbs,
        cfg.model.seq_len,
        cfg.model.vocab_size,
    );

    tr.end(root);

    // -- iterations: one traced, one with no tracing work, in turn ---------
    // (the machine's speed drifts over seconds, so the two halves of the
    // overhead comparison must interleave to see the same conditions).
    let mut stage = StageSamples::default();
    let (mut iter_ms, mut outside_us, mut outside_share) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_s, mut plain_s, mut step_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut losses = Vec::new();
    let t_loop = Instant::now();
    while losses.is_empty() || t_loop.elapsed().as_secs_f64() < budget_s {
        let round = traced_s.len() as u64;
        let t_round = Instant::now();
        let root = tr.begin("harness.round", round);
        let it = tr.begin("engine.train_iteration", round);
        let t = Instant::now();
        let stats = pipe.train_iteration(&batch);
        let wall = t.elapsed().as_secs_f64();
        tr.end(it);
        tr.count("engine.iterations", 1);
        let Ok(stats) = stats else {
            checks.check(false, || {
                format!("train_iteration: {}", stats.err().unwrap())
            });
            tr.end(root);
            break;
        };
        losses.push(stats.loss);
        let tl = pipe
            .last_timeline()
            .expect("a completed iteration has a timeline");
        let inside = tl.iteration_time();
        iter_ms.push(wall * 1e3);
        outside_us.push((wall - inside) * 1e6);
        outside_share.push((wall - inside) / wall);
        stage.add(tl);
        lane_spans(tr, it, tl);
        tr.end(root);
        traced_s.push(t_round.elapsed().as_secs_f64());

        // The plain turn is the same iteration split where the engine
        // splits it, which also times the optimiser step on its own.
        let t = Instant::now();
        match pipe.forward_backward(&batch) {
            Ok(stats) => losses.push(stats.loss),
            Err(e) => {
                checks.check(false, || format!("forward_backward: {e}"));
                break;
            }
        }
        let t_step = Instant::now();
        pipe.step_all();
        step_us.push(t_step.elapsed().as_secs_f64() * 1e6);
        plain_s.push(t.elapsed().as_secs_f64());
    }
    checks.check(losses.iter().all(|l| l.is_finite()), || {
        format!("non-finite loss in {losses:?}")
    });
    checks.passed(losses.len() as u64);
    let plain_iter_s = median(&mut plain_s);
    metrics.set(
        "trace.overhead_share",
        median(&mut traced_s) / plain_iter_s - 1.0,
    );

    // -- chain and engine metrics from the spans --------------------------
    metrics.set("session.plan_us", tr.mean_us("session.plan"));
    metrics.set("session.slice_us", tr.mean_us("session.slice"));
    metrics.set("session.simulate_us", tr.mean_us("session.simulate"));
    metrics.set("engine.build_ms", tr.mean_us("engine.build") / 1e3);
    metrics.set("engine.iter_ms_p50", percentile(&mut iter_ms, 0.50));
    metrics.set("engine.iter_ms_p90", percentile(&mut iter_ms, 0.90));
    metrics.set("engine.outside_timeline_us", median(&mut outside_us));
    metrics.set("engine.outside_timeline_share", median(&mut outside_share));
    metrics.set("engine.step_all_us", median(&mut step_us));
    metrics.set("stage.fwd_us_p50", median(&mut stage.fwd_us));
    metrics.set("stage.bwd_us_p50", median(&mut stage.bwd_us));
    metrics.set("stage.busy_share", median(&mut stage.busy_share));
    metrics.set("stage.bubble_share", median(&mut stage.bubble_share));
    metrics.set("stage.recv_wait_share", median(&mut stage.recv_wait_share));
    metrics.set("stage.imbalance", median(&mut stage.imbalance));
    let (msgs, bytes) = traffic_per_iter(&plan.schedule, &cfg.model, cfg.mbs);
    metrics.set("transport.msgs_per_iter", msgs);
    metrics.set("transport.bytes_per_iter", bytes);

    // -- calls that need the live pipeline --------------------------------
    let tl = pipe
        .last_timeline()
        .expect("timeline of the last iteration")
        .clone();
    let events: Vec<Vec<_>> = (0..tl.n_devices())
        .map(|d| tl.device(d).collect())
        .collect();
    metrics.set(
        "timeline.from_events_us",
        probes::median_us(20, || {
            std::hint::black_box(Timeline::from_events(std::hint::black_box(events.clone())));
        }),
    );

    checkpoint_probe(&mut pipe, scratch, &mut metrics, checks);
    repartition_probe(
        &mut pipe,
        &plan.partition,
        &plan.schedule,
        &mut metrics,
        checks,
    );

    // -- tensor layer at this model's shapes, and the reference baseline --
    let tensor = probes::tensor_layer(&cfg.model, cfg.mbs);
    let flops = gemm_flops(&cfg.model, cfg.mbs, cfg.checkpointing);
    let gemm_s = plan.microbatches as f64
        * (flops[0] / tensor.get("tensor.matmul_gflops").unwrap()
            + flops[1] / tensor.get("tensor.matmul_t_gflops").unwrap()
            + flops[2] / tensor.get("tensor.t_matmul_gflops").unwrap())
        / 1e9;
    metrics.set(
        "tensor.gemm_share_of_busy",
        gemm_s / median(&mut stage.busy_s_per_iter),
    );
    metrics.extend(tensor);
    metrics.extend(probes::transport_layer(&cfg.model, cfg.mbs));

    // The loop's iterations were this pipeline's first, so `losses` is the
    // trajectory from step 0; one reference step is enough when a step
    // takes a large part of a second.
    let ref_steps = if plain_iter_s > 0.25 {
        1
    } else {
        losses.len().min(5)
    };
    let ref_s = check_against_reference(&planned, &losses[..ref_steps], None, checks);
    metrics.set("engine.speedup_vs_reference", ref_s / plain_iter_s);

    metrics
}

/// `checkpoint.*`: capture is the training stall; save/load go through the
/// durable store in the scratch directory.
fn checkpoint_probe(
    pipe: &mut Pipeline,
    scratch: &Scratch,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let dir = scratch.sub("checkpoint-probe");
    let mut capture_ms = Vec::new();
    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut bytes = 0u64;
    let mut store = CheckpointStore::open(&dir, 1).expect("checkpoint store opens");
    let t_probe = Instant::now();
    for step in 0..3u64 {
        // A large model's generation takes seconds to write and read back.
        if step > 0 && t_probe.elapsed().as_secs_f64() > 1.0 {
            break;
        }
        let t = Instant::now();
        let snap = PipelineSnapshot::capture(pipe, step, "probe");
        capture_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let saved = store.save(&snap);
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checks.check(saved.is_ok(), || {
            format!("checkpoint save: {}", saved.as_ref().err().unwrap())
        });
        bytes = dir_bytes(&dir);
        let t = Instant::now();
        let loaded = store.load_latest();
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checks.check(loaded.as_ref().is_ok_and(|(m, _)| m.step == step), || {
            "checkpoint load_latest did not return the generation just saved".to_string()
        });
    }
    let save = median(&mut save_ms);
    metrics.set("checkpoint.capture_ms", median(&mut capture_ms));
    metrics.set("checkpoint.save_ms", save);
    metrics.set("checkpoint.save_mb_s", bytes as f64 / 1e6 / (save / 1e3));
    metrics.set("checkpoint.load_ms", median(&mut load_ms));
    metrics.set("checkpoint.bytes", bytes as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `engine.repartition_ms`: shrink to one stage and grow back, the two hot
/// swaps an elastic run performs.
fn repartition_probe(
    pipe: &mut Pipeline,
    partition: &Partition,
    schedule: &Schedule,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let single = Partition::new(vec![0, partition.n_blocks()]);
    let mut ms = Vec::new();
    for _ in 0..2 {
        for (part, sched) in [
            (&single, one_f_one_b(1, schedule.n_microbatches)),
            (partition, schedule.clone()),
        ] {
            let t = Instant::now();
            let swapped = pipe.repartition(part, sched);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            checks.check(swapped.is_ok(), || {
                format!("repartition: {}", swapped.as_ref().err().unwrap())
            });
        }
    }
    metrics.set("engine.repartition_ms", median(&mut ms));
}

//! `plan_serve`: one shared `PlanService` under a request stream that is
//! mostly repeats — the hit path, warm-started re-plans, eviction and
//! shared-state contention instead of cold search.
//!
//! Phase A serves the stream one request at a time and times each request;
//! phase B pushes the same requests through `plan_batch(workers = 2)` on a
//! second service warmed the same way, and gives the throughput.

use std::time::Instant;

use autopipe::cost::{CostDb, Hardware};
use autopipe::model::{zoo, Granularity};
use autopipe::planner::service::BatchRequest;
use autopipe::planner::{AutoPipeConfig, AutoPipeOutcome, PlanService, ServiceStats};
use autopipe::sim::Partition;

use crate::gen::{request_stream, variant_ratios, Request, VARIANT_POOL};
use crate::probes;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::train::{
    engine_side_layers, set_harness_share, write_trace, PROBE_RESERVE_S,
};
use crate::{timed_setup, Args, Checks, Outcome, RepStats, STAGES};

const MBS: usize = 4;
/// Requests per block; a block is the unit both phases repeat.
const BLOCK: usize = 5_000;
/// Entries per cache shard. Small enough that the stream's misses fill
/// shards and force wholesale flushes (eviction) within a run.
const SHARD_CAPACITY: usize = 64;
/// Never-seen requests draw from 16 synthetic depths × 8 micro-batch sizes
/// (distinct cost databases) × 2 pipeline depths × 16 micro-batch counts:
/// 4 096 distinct shapes whose search cost does not grow along the stream.
const FRESH_DEPTHS: std::ops::Range<usize> = 12..28;
const FRESH_MBS: std::ops::RangeInclusive<usize> = 1..=8;
/// Every `SAMPLE_EVERY`-th answer is checked against a cold plan.
const SAMPLE_EVERY: usize = 100;
/// How much worse than a cold plan a served plan's predicted iteration
/// time may be. Most served answers equal the cold partition or tie it to
/// the last bit; a warm-started search occasionally stops at a neighbour
/// (worst seen while writing this benchmark: 0.39 % slower).
const WARM_TOLERANCE: f64 = 0.02;

/// One hot-set shape.
struct Shape {
    db: usize,
    p: usize,
    m: usize,
    /// The plan a fresh service returns for this shape: what a straggler
    /// re-plan of the shape starts from.
    base: Partition,
}

struct Serve {
    cfg: AutoPipeConfig,
    /// Cost databases of the three hot models.
    dbs: Vec<CostDb>,
    shapes: Vec<Shape>,
    /// Cost databases behind `Request::Fresh`.
    fresh_dbs: Vec<CostDb>,
    /// Drift ratios of every pool variant.
    ratios: Vec<Vec<f64>>,
}

impl Serve {
    fn service(&self) -> PlanService {
        PlanService::with_capacity(self.cfg, SHARD_CAPACITY)
    }

    /// A service that has seen every hot shape once.
    fn warmed_service(&self) -> PlanService {
        let svc = self.service();
        for s in &self.shapes {
            svc.plan(&self.dbs[s.db], s.p, s.m)
                .expect("hot shape plans");
        }
        svc
    }

    /// `req` as a plain `plan` call sees it — what `plan_batch` and the cold
    /// comparison take. A re-plan becomes a plan on the drifted database
    /// phase A got back when it first served that variant.
    fn plain_request<'a>(
        &'a self,
        observed: &'a [Option<CostDb>],
        req: Request,
    ) -> (&'a CostDb, usize, usize) {
        match req {
            Request::Hot { shape } => {
                let s = &self.shapes[shape as usize];
                (&self.dbs[s.db], s.p, s.m)
            }
            Request::Replan { variant } => {
                let s = &self.shapes[variant as usize % self.shapes.len()];
                let db = observed[variant as usize]
                    .as_ref()
                    .expect("phase A served this variant and kept its database");
                (db, s.p, s.m)
            }
            Request::Fresh { nth } => self.fresh(nth),
        }
    }

    /// The `nth` never-seen request: a (model depth, mbs, p, m) nobody has
    /// asked this service for (the stream numbers them without repeats
    /// below 4 096).
    fn fresh(&self, nth: u32) -> (&CostDb, usize, usize) {
        let nth = nth as usize;
        let depths = FRESH_DEPTHS.len();
        let (depth, rest) = (nth % depths, nth / depths);
        let (p, rest) = ([4usize, 8][rest % 2], rest / 2);
        let (m, rest) = (8 + rest % 16, rest / 16);
        let mbs = rest % FRESH_MBS.count();
        (&self.fresh_dbs[mbs * depths + depth], p, m)
    }
}

fn build(seed: u64) -> Serve {
    let hw = Hardware::rtx3090_cluster();
    let db_at = |model, mbs| CostDb::build(&model, &hw, mbs, true, Granularity::SubLayer);
    let cfg = AutoPipeConfig {
        prune: true,
        ..AutoPipeConfig::default()
    };
    let dbs: Vec<CostDb> = [zoo::gpt2_345m(), zoo::gpt2_762m(), zoo::gpt2_1_3b()]
        .into_iter()
        .map(|model| db_at(model, MBS))
        .collect();
    let probe = PlanService::with_config(cfg);
    let mut shapes = Vec::new();
    for (db, cost_db) in dbs.iter().enumerate() {
        for p in [4usize, 8, 16] {
            for m in [16usize, 32] {
                let base = probe
                    .plan(cost_db, p, m)
                    .expect("hot shape plans")
                    .outcome
                    .partition
                    .clone();
                shapes.push(Shape { db, p, m, base });
            }
        }
    }
    let ratios = (0..VARIANT_POOL)
        .map(|v| variant_ratios(seed, v as u16, shapes[v % shapes.len()].p))
        .collect();
    Serve {
        cfg,
        fresh_dbs: FRESH_MBS
            .flat_map(|mbs| FRESH_DEPTHS.map(move |l| (l, mbs)))
            .map(|(l, mbs)| db_at(zoo::gpt2_depth(l), mbs))
            .collect(),
        dbs,
        shapes,
        ratios,
    }
}

/// What a sampled answer is judged on: the partition and its predicted
/// iteration time.
fn answer_of(outcome: &AutoPipeOutcome) -> (Vec<usize>, f64) {
    (
        outcome.partition.boundaries().to_vec(),
        outcome.analytic.iteration_time,
    )
}

/// A sampled answer, kept for the cold-plan comparison after the timing.
struct Sample {
    req: Request,
    boundaries: Vec<usize>,
    iteration_s: f64,
}

/// Phase A state: the service, the observed databases phase B re-uses, and
/// the per-request latencies.
struct PhaseA<'a> {
    serve: &'a Serve,
    svc: PlanService,
    /// `observed[v]`: the drifted database of pool variant `v`, once seen.
    observed: Vec<Option<CostDb>>,
    samples: Vec<Sample>,
    served: usize,
}

impl<'a> PhaseA<'a> {
    /// A phase over a freshly warmed service.
    fn new(serve: &'a Serve) -> PhaseA<'a> {
        PhaseA {
            serve,
            svc: serve.warmed_service(),
            observed: vec![None; VARIANT_POOL],
            samples: Vec::new(),
            served: 0,
        }
    }

    /// Serve one block, timing every request; returns the latencies (µs).
    fn block(&mut self, reqs: &[Request], tr: &mut Tracer, checks: &mut Checks) -> Vec<f64> {
        let serve = self.serve;
        let mut latency_us = Vec::with_capacity(reqs.len());
        for &req in reqs {
            let id = self.served as u64;
            let t = Instant::now();
            let answer = match req {
                Request::Hot { shape } => {
                    let s = &serve.shapes[shape as usize];
                    tr.span("service.plan", id, || {
                        self.svc.plan(&serve.dbs[s.db], s.p, s.m)
                    })
                    .map(|served| answer_of(&served.outcome))
                }
                Request::Replan { variant } => {
                    let v = variant as usize;
                    let s = &serve.shapes[v % serve.shapes.len()];
                    tr.span("service.replan", id, || {
                        self.svc
                            .replan(&serve.dbs[s.db], &s.base, &serve.ratios[v], s.m)
                    })
                    .map(|r| {
                        self.observed[v].get_or_insert(r.observed_db);
                        answer_of(&r.served.outcome)
                    })
                }
                Request::Fresh { nth } => {
                    let (db, p, m) = serve.fresh(nth);
                    tr.span("service.plan", id, || self.svc.plan(db, p, m))
                        .map(|served| answer_of(&served.outcome))
                }
            };
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            match answer {
                Ok((boundaries, iteration_s)) => {
                    checks.passed(1);
                    if self.served.is_multiple_of(SAMPLE_EVERY) {
                        self.samples.push(Sample {
                            req,
                            boundaries,
                            iteration_s,
                        });
                    }
                }
                Err(e) => checks.check(false, || format!("{req:?}: {e}")),
            }
            self.served += 1;
        }
        latency_us
    }

    /// Every sampled answer is as good as a cold search's: the same
    /// partition, or — a search warm-started from another winner of the
    /// shape can settle elsewhere — one whose predicted iteration time is
    /// within [`WARM_TOLERANCE`] of the cold plan's.
    fn check_samples(&self, checks: &mut Checks) {
        for s in &self.samples {
            let (db, p, m) = self.serve.plain_request(&self.observed, s.req);
            let cold = autopipe::planner::autopipe_plan(db, p, m, self.svc.config());
            checks.check(
                cold.as_ref().is_ok_and(|c| {
                    c.partition.boundaries() == s.boundaries
                        || s.iteration_s <= c.analytic.iteration_time * (1.0 + WARM_TOLERANCE)
                }),
                || {
                    format!(
                        "{:?}: served {:?} ({} s), cold plan {:?}",
                        s.req,
                        s.boundaries,
                        s.iteration_s,
                        cold.as_ref()
                            .map(|c| (c.partition.boundaries(), c.analytic.iteration_time))
                    )
                },
            );
        }
    }
}

/// Phase B: one block through `plan_batch`; returns requests per second.
fn batch_block(
    serve: &Serve,
    svc: &PlanService,
    observed: &[Option<CostDb>],
    reqs: &[Request],
    workers: usize,
    checks: &mut Checks,
) -> f64 {
    let batch: Vec<BatchRequest> = reqs
        .iter()
        .map(|&req| {
            let (db, p, m) = serve.plain_request(observed, req);
            BatchRequest { db, p, m }
        })
        .collect();
    let t = Instant::now();
    let served = svc.plan_batch(&batch, workers);
    let secs = t.elapsed().as_secs_f64();
    let failed = served.iter().filter(|r| r.is_err()).count();
    checks.check(failed == 0, || format!("{failed} batched requests failed"));
    checks.passed(batch.len() as u64);
    batch.len() as f64 / secs
}

fn shares(stats: ServiceStats, since: ServiceStats) -> (f64, f64, f64) {
    let (h, w, c) = (
        stats.hits - since.hits,
        stats.warm - since.warm,
        stats.cold - since.cold,
    );
    let total = (h + w + c).max(1) as f64;
    (h as f64 / total, w as f64 / total, c as f64 / total)
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();

    // Set-up: databases, hot-set plans, the drift pool, and a warm-up of
    // ≈5 % of the timed work (a quarter block through both phases' paths).
    let (serve, setup_s) = timed_setup(|| {
        let serve = build(args.seed);
        let mut warm = PhaseA::new(&serve);
        let reqs = request_stream(args.seed ^ 0xAA, BLOCK / 4, serve.shapes.len(), 0);
        warm.block(&reqs, &mut Tracer::new(false), &mut checks);
        let observed = std::mem::take(&mut warm.observed);
        batch_block(
            &serve,
            &serve.warmed_service(),
            &observed,
            &reqs,
            STAGES,
            &mut checks,
        );
        serve
    });

    let mut tr = Tracer::new(args.trace);
    let mut a = PhaseA::new(&serve);
    // A traced run serves every block twice — tracer on, then off on a
    // second service, in turn so both see the same machine conditions — and
    // leaves room for the probes.
    let mut plain = args.trace.then(|| PhaseA::new(&serve));
    let mut off = Tracer::new(false);
    let a_budget = if args.trace {
        (args.seconds - PROBE_RESERVE_S).max(1.0) * 0.7
    } else {
        args.seconds * 0.6
    };

    // Phase A, block by block.
    let mut blocks: Vec<Vec<Request>> = Vec::new();
    let mut reps = RepStats::varied_batches();
    let (mut block_wall, mut plain_wall) = (Vec::new(), Vec::new());
    let mut first_block_shares = (0.0, 0.0, 0.0);
    let mut fresh_seen = 0u32;
    let t0 = Instant::now();
    while blocks.is_empty() || t0.elapsed().as_secs_f64() < a_budget {
        let n = blocks.len();
        let reqs = request_stream(
            args.seed.wrapping_add(n as u64),
            BLOCK,
            serve.shapes.len(),
            fresh_seen,
        );
        fresh_seen += reqs
            .iter()
            .filter(|r| matches!(r, Request::Fresh { .. }))
            .count() as u32;
        let before = a.svc.stats();
        let root = tr.begin("harness.block", n as u64);
        let mut latency_us = a.block(&reqs, &mut tr, &mut checks);
        tr.end(root);
        block_wall.push(latency_us.iter().sum::<f64>() * 1e-6);
        reps.add_latencies(&mut latency_us);
        if n == 0 {
            first_block_shares = shares(a.svc.stats(), before);
        }
        if let Some(plain) = &mut plain {
            let latency_us = plain.block(&reqs, &mut off, &mut checks);
            plain_wall.push(latency_us.iter().sum::<f64>() * 1e-6);
        }
        blocks.push(reqs);
    }
    let a_wall: f64 = block_wall.iter().sum();

    // Phase B: the same blocks through plan_batch on a second service.
    let svc_b = serve.warmed_service();
    for reqs in &blocks {
        reps.add_work(batch_block(
            &serve,
            &svc_b,
            &a.observed,
            reqs,
            STAGES,
            &mut checks,
        ));
    }
    a.check_samples(&mut checks);

    eprintln!(
        "plan_serve: {} blocks x {BLOCK} requests, phase A {:.2} s, {} sampled answers, shares \
         of block 0 hit/warm/cold {:.4}/{:.4}/{:.4}",
        blocks.len(),
        a_wall,
        a.samples.len(),
        first_block_shares.0,
        first_block_shares.1,
        first_block_shares.2
    );
    if !args.trace {
        let metrics = reps.metrics("plan_serve", setup_s);
        return Outcome { checks, metrics };
    }
    let mut metrics = Metrics::new();
    metrics.set(
        "trace.overhead_share",
        median(&mut block_wall) / median(&mut plain_wall) - 1.0,
    );

    metrics.extend(engine_side_layers(args.seed, &mut checks));
    metrics.extend(probes::fixed_request_layers());

    // Shares are exact for block 0, which every run serves in full.
    metrics.set("service.hit_share", first_block_shares.0);
    metrics.set("service.warm_share", first_block_shares.1);
    metrics.set("service.cold_share", first_block_shares.2);
    // Every miss inserts one entry; what is no longer cached was evicted.
    let stats = a.svc.stats();
    let evicted = (stats.warm + stats.cold).saturating_sub(a.svc.len());
    metrics.set("service.evictions", evicted as f64 / blocks.len() as f64);
    let in_service: u64 = tr
        .totals()
        .iter()
        .filter(|(name, _)| name.starts_with("service."))
        .map(|(_, &(_, ns))| ns)
        .sum();
    metrics.set("service.wall_share", in_service as f64 / (a_wall * 1e9));
    set_harness_share(&tr, &mut metrics);
    write_trace(&tr, &args.workload, args.seed);
    Outcome { checks, metrics }
}

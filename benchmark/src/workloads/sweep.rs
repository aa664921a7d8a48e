//! `plan_sweep`: cold planning across the paper's models and cluster
//! shapes. Planner, simulators, slicer, schedule and cost model do all the
//! work; the runtime and the tensor layer do none.

use std::time::Instant;

use autopipe::cost::Hardware;
use autopipe::model::{zoo, ModelConfig};
use autopipe::schedule::validate;
use autopipe::sim::memcheck::{check_memory, check_memory_budget};
use autopipe::{PlannedSession, RecomputePolicy, SchedulePolicy, Session, SimReport};

use crate::gen::SplitMix;
use crate::probes;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::train::{
    engine_side_layers, set_harness_share, write_trace, PROBE_RESERVE_S,
};
use crate::{timed_setup, Args, Checks, Outcome, RepStats};

const DEPTHS: [usize; 5] = [2, 4, 8, 12, 16];
const MICROBATCHES: [usize; 4] = [8, 16, 32, 64];
const MBS: usize = 4;
/// Wire chunks per hand-off on the constrained points' overlapped comm.
const CHUNKS: usize = 4;
/// Compute-time multiplier of the slow device on the skewed points.
const SKEW: f64 = 2.5;

/// Σ of the simulated iteration time of the chosen plan over the 160 grid
/// points, as measured when this benchmark was committed. A search change
/// may lower it (better plans); raising it by more than 1e-9 relative is a
/// failure — that is a faster search finding worse plans.
const COMMITTED_PLAN_QUALITY_S: f64 = 1666.2078664959452;

/// One session of the sweep.
#[derive(Debug, Clone)]
struct Point {
    model: usize,
    p: usize,
    m: usize,
    policy: SchedulePolicy,
    /// Constrained slice only: the memory budget and whether one device is
    /// [`SKEW`]× slow.
    budget: Option<(u64, bool)>,
}

struct Sweep {
    models: Vec<ModelConfig>,
    hw: Hardware,
    points: Vec<Point>,
    /// How many leading points form the unconstrained grid.
    n_grid: usize,
}

impl Sweep {
    fn session(&self, pt: &Point) -> Session {
        let s = Session::for_model(self.models[pt.model].clone())
            .devices(pt.p)
            .stages(pt.p)
            .microbatches(pt.m)
            .microbatch_size(MBS)
            .schedule_policy(pt.policy);
        match pt.budget {
            None => s,
            Some((bytes, skewed)) => {
                let s = s
                    .overlap_comm(self.hw.link_latency, CHUNKS)
                    .recompute_policy(RecomputePolicy::Auto)
                    .memory_budget(bytes);
                if skewed {
                    s.device_multipliers(skew(pt.p))
                } else {
                    s
                }
            }
        }
    }
}

fn skew(p: usize) -> Vec<f64> {
    let mut mult = vec![1.0; p];
    mult[p / 2] = SKEW;
    mult
}

/// Peak per-device bytes of a planned session's schedule.
fn peak_bytes(planned: &PlannedSession) -> u64 {
    let plan = planned.plan();
    check_memory_budget(&plan.partition, planned.cost_db(), &plan.schedule, u64::MAX)
        .expect("an unlimited budget always fits")
        .iter()
        .map(|bd| bd.total())
        .max()
        .unwrap_or(0)
}

/// Build the 160-point grid plus the 16-point constrained slice. The
/// slice's budgets are interpolated between the all-recompute floor and the
/// plain peak of the same request, so they sit where only a recompute mask
/// makes the plan fit.
fn build() -> Sweep {
    let models = zoo::benchmark_models();
    let hw = Hardware::rtx3090_cluster();
    let mut points = Vec::new();
    for model in 0..models.len() {
        for p in DEPTHS {
            for m in MICROBATCHES {
                for policy in [SchedulePolicy::Slicer, SchedulePolicy::Auto] {
                    points.push(Point {
                        model,
                        p,
                        m,
                        policy,
                        budget: None,
                    });
                }
            }
        }
    }
    let n_grid = points.len();
    let big = models
        .iter()
        .position(|m| m.name == zoo::gpt2_1_3b().name)
        .expect("GPT-2 1.3B is a Table I model");
    for p in [2usize, 4] {
        for skewed in [false, true] {
            let peak_under = |policy: RecomputePolicy| {
                let s = Session::for_model(models[big].clone())
                    .devices(p)
                    .stages(p)
                    .microbatches(16)
                    .microbatch_size(MBS)
                    .schedule_policy(SchedulePolicy::Auto)
                    .overlap_comm(hw.link_latency, CHUNKS)
                    .recompute_policy(policy)
                    // The hardware's own budget would gate the search; the
                    // slice's budgets replace it, so measure without one.
                    .memory_budget(u64::MAX);
                let s = if skewed {
                    s.device_multipliers(skew(p))
                } else {
                    s
                };
                peak_bytes(&s.plan().expect("unbudgeted plan"))
            };
            let floor = peak_under(RecomputePolicy::All);
            let peak = peak_under(RecomputePolicy::Off);
            assert!(floor < peak, "recompute must lower the peak");
            for i in 1..=4u64 {
                points.push(Point {
                    model: big,
                    p,
                    m: 16,
                    policy: SchedulePolicy::Auto,
                    budget: Some((floor + (peak - floor) * i / 5, skewed)),
                });
            }
        }
    }
    Sweep {
        models,
        hw,
        points,
        n_grid,
    }
}

/// One timed session: fresh `Session` → `plan()?.slice()?.simulate()?`,
/// each with its private cold `PlanService`.
fn chain(
    sweep: &Sweep,
    idx: usize,
    tr: &mut Tracer,
) -> (f64, Result<(PlannedSession, SimReport), autopipe::Error>) {
    let session = sweep.session(&sweep.points[idx]);
    let id = idx as u64;
    let t = Instant::now();
    let open = tr.begin("session.chain", id);
    let result = (|| {
        let planned = tr.span("session.plan", id, || session.plan())?;
        let planned = tr.span("session.slice", id, || planned.slice())?;
        let sim = tr.span("session.simulate", id, || planned.simulate())?;
        Ok((planned, sim))
    })();
    tr.end(open);
    (t.elapsed().as_secs_f64() * 1e6, result)
}

/// One pass over every point in a seeded order. Returns the pass's session
/// latencies (µs) and its plan quality; `validate_plans` adds the schedule
/// and memory checks on every plan.
fn pass(
    sweep: &Sweep,
    rng: &mut SplitMix,
    tr: &mut Tracer,
    validate_plans: bool,
    checks: &mut Checks,
) -> (Vec<f64>, f64) {
    let mut order: Vec<usize> = (0..sweep.points.len()).collect();
    rng.shuffle(&mut order);
    let mut iteration_s = vec![0.0; sweep.n_grid];
    let mut plan_us = Vec::with_capacity(order.len());
    for idx in order {
        let (us, result) = chain(sweep, idx, tr);
        plan_us.push(us);
        let pt = &sweep.points[idx];
        // Every point of the committed set is feasible; an `Err` here is a
        // grid point whose feasibility changed.
        let Ok((planned, sim)) = result else {
            checks.check(false, || format!("{pt:?}: {}", result.err().unwrap()));
            continue;
        };
        checks.passed(1);
        if idx < sweep.n_grid {
            iteration_s[idx] = sim.clean.iteration_time;
        }
        if validate_plans {
            let plan = planned.plan();
            checks.check(validate(&plan.schedule).is_ok(), || {
                format!("{pt:?}: schedule fails validate")
            });
            let fits = match pt.budget {
                Some((bytes, _)) => {
                    check_memory_budget(&plan.partition, planned.cost_db(), &plan.schedule, bytes)
                }
                None => check_memory(
                    &plan.partition,
                    planned.cost_db(),
                    &plan.schedule,
                    &planned.config().hardware,
                ),
            };
            checks.check(fits.is_ok(), || {
                format!("{pt:?}: plan fails the memory check")
            });
        }
    }
    // Summed in grid order, so the total does not depend on the visiting order.
    (plan_us, iteration_s.iter().sum())
}

/// Quality repeats bit-exactly across passes and is no worse than the
/// committed value.
fn check_quality(qualities: &[f64], checks: &mut Checks) {
    let Some(&first) = qualities.first() else {
        return;
    };
    checks.check(
        qualities.iter().all(|q| q.to_bits() == first.to_bits()),
        || format!("plan quality differs between passes: {qualities:?}"),
    );
    checks.check(first <= COMMITTED_PLAN_QUALITY_S * (1.0 + 1e-9), || {
        format!("plan quality {first} s is worse than the committed {COMMITTED_PLAN_QUALITY_S} s")
    });
    eprintln!("plan_sweep: plan quality {first:?} simulated s over the grid");
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let mut qualities = Vec::new();
    let mut off = Tracer::new(false);

    // Set-up: build the grid and its budgets, then one validated warm-up
    // pass (a pass is ≈5 % of the timed work).
    let (sweep, setup_s) = timed_setup(|| {
        let sweep = build();
        let mut rng = SplitMix::new(args.seed);
        let (_, q) = pass(&sweep, &mut rng, &mut off, true, &mut checks);
        qualities.push(q);
        sweep
    });
    let mut rng = SplitMix::new(args.seed ^ 0x5EE9);
    // A pass's wall is the sum of its session latencies: the clock stops
    // while the benchmark checks a plan.
    let per_s = |plan_us: &[f64]| plan_us.len() as f64 / (plan_us.iter().sum::<f64>() * 1e-6);

    if !args.trace {
        let mut reps = RepStats::varied_batches();
        let t0 = Instant::now();
        while reps.repetitions() == 0 || t0.elapsed().as_secs_f64() < args.seconds {
            let (mut plan_us, q) = pass(&sweep, &mut rng, &mut off, false, &mut checks);
            reps.add_work(per_s(&plan_us));
            reps.add_latencies(&mut plan_us);
            qualities.push(q);
        }
        check_quality(&qualities, &mut checks);
        let metrics = reps.metrics("plan_sweep", setup_s);
        return Outcome { checks, metrics };
    }

    // Traced: a traced and an untraced pass in turn.
    let mut tr = Tracer::new(true);
    let mut metrics = Metrics::new();
    let budget = (args.seconds - PROBE_RESERVE_S).max(1.0) - 1.0;
    let (mut traced_per_s, mut plain_per_s) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced_per_s.is_empty() || t0.elapsed().as_secs_f64() < budget {
        let root = tr.begin("harness.pass", traced_per_s.len() as u64);
        let (plan_us, q) = pass(&sweep, &mut rng, &mut tr, false, &mut checks);
        tr.end(root);
        traced_per_s.push(per_s(&plan_us));
        qualities.push(q);
        let (plan_us, q) = pass(&sweep, &mut rng, &mut off, false, &mut checks);
        plain_per_s.push(per_s(&plan_us));
        qualities.push(q);
    }
    check_quality(&qualities, &mut checks);

    metrics.extend(engine_side_layers(args.seed, &mut checks));
    metrics.set("session.plan_us", tr.mean_us("session.plan"));
    metrics.set("session.slice_us", tr.mean_us("session.slice"));
    metrics.set("session.simulate_us", tr.mean_us("session.simulate"));
    metrics.set(
        "trace.overhead_share",
        median(&mut plain_per_s) / median(&mut traced_per_s) - 1.0,
    );
    set_harness_share(&tr, &mut metrics);
    metrics.set("planner.plan_quality", qualities[0]);
    metrics.extend(probes::fixed_request_layers());
    write_trace(&tr, &args.workload, args.seed);
    Outcome { checks, metrics }
}

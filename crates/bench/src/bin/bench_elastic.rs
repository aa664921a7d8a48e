//! Elastic-membership campaign: seeded chaos scripts (join/leave/flap/
//! slowdown) against the threaded runtime, every step folded through the
//! run controller, emitted as the machine-readable record
//! `results/BENCH_elastic.json`.
//!
//! Four sub-campaigns share the file:
//!
//! 1. **Chaos campaign** — `FaultPlan::random_membership` scripts drive
//!    grow/shrink/replan decisions on a live 2-stage pipeline. Every seed
//!    must complete (or halt deterministically when the script empties the
//!    cluster) with zero deadlocks, and a full replay of the same seed must
//!    reproduce the loss trajectory, the final parameter checksum and the
//!    controller's decision log **bit-for-bit**. Every pipeline width the
//!    campaign visits is additionally run through *both executors* (event
//!    simulator and threaded runtime) and the per-device op orderings must
//!    be identical.
//! 2. **Grow** — a scripted leave shrinks p → p−1 (degraded mode), the
//!    device rejoins, proves itself through quarantine, and the controller
//!    grows back to p through the checkpoint-path repartition. The whole
//!    elastic trajectory must be bit-identical to the uninterrupted p-stage
//!    run, and a *fresh* pipeline resumed from the pre-grow checkpoint
//!    generation must replay the post-grow steps bit-for-bit — growing
//!    leaves nothing behind that a restart could not reconstruct.
//! 3. **Degraded-mode cost** — the analytic price of running at p−1 while a
//!    quarantined device proves itself.
//! 4. **Heterogeneity** — on a skewed cluster (2.5× multiplier spread) the
//!    heterogeneity-aware plan must beat the homogeneous plan evaluated
//!    under the true per-device costs.
//!
//! `--smoke` shrinks the seed count so CI can validate the emitter.

use std::path::PathBuf;

use autopipe_bench::report::save_json;
use autopipe_bench::systems::cost_db;
use autopipe_core::{ElasticConfig, MembershipConfig};
use autopipe_cost::{CostDb, Hardware};
use autopipe_exec::{FaultPlan, MembershipChange, MembershipFault, Timeline};
use autopipe_model::zoo;
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_runtime::{
    Action, BatchSet, CheckpointStore, Controller, ElasticAction, ElasticEvent, Outcome, Pipeline,
    PipelineConfig,
};
use autopipe_schedule::{one_f_one_b, Schedule};
use autopipe_sim::analytic::simulate_replay;
use autopipe_sim::{run_schedule, EventConfig, EventCosts, Partition};
use serde_json::json;

const P: usize = 2;
const M: usize = 4;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("autopipe_bench_el_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_pipeline(schedule: Schedule, partition: Partition) -> Pipeline {
    Pipeline::try_new(&PipelineConfig {
        model: zoo::gpt2_tiny(),
        partition,
        schedule,
        lr: 1e-3,
        seed: 99,
        checkpointing: false,
    })
    .expect("tiny pipeline is valid")
}

/// Membership machine tuned so scripted events resolve within a handful of
/// training steps (defaults assume long-lived clusters).
fn fast_membership() -> MembershipConfig {
    MembershipConfig {
        suspect_after: 1,
        quarantine_after: 2,
        evict_after: 4,
        quarantine_cooldown: 1,
        ..MembershipConfig::default()
    }
}

/// Plan `width` stages on `db` charged the serving devices' `multipliers`
/// — the session facade's re-plan, restated on bench's own dependencies.
fn elastic_plan(
    db: &CostDb,
    cfg: &AutoPipeConfig,
    width: usize,
    multipliers: &[f64],
) -> (Partition, Schedule) {
    let db = db.clone().with_device_multipliers(multipliers);
    let out = plan(&db, width, M, cfg).expect("elastic width plans");
    (out.partition, one_f_one_b(width, M))
}

/// The campaign pipeline's controller under elastic `membership`.
fn elastic_controller(membership: MembershipConfig) -> Controller {
    let elastic = ElasticConfig {
        membership,
        ..ElasticConfig::default()
    };
    Controller::new(&[1.0; P], None, Some(&elastic), None)
}

/// Fold completed step `step` and its scripted membership events.
fn fold_step(ctl: &mut Controller, script: &FaultPlan, step: u64) -> Vec<Action> {
    let membership = &script.membership_at(step);
    let step = Outcome::Completed {
        step,
        membership,
        observed: None,
    };
    ctl.fold(step).expect("a membership step folds")
}

/// Outcome of one elastic run: either a completed trajectory or a
/// deterministic halt (the script emptied the cluster below the floor).
struct ElasticRun {
    losses: Vec<f32>,
    checksum: f64,
    log: Vec<ElasticEvent>,
    halted: Option<String>,
}

/// The session facade's loop at the runtime layer: train, fold the step and
/// its scripted membership events through the controller, execute its
/// re-shapes through `Pipeline::repartition`.
fn run_elastic(
    db: &CostDb,
    cfg: &AutoPipeConfig,
    script: &FaultPlan,
    membership: MembershipConfig,
    steps: usize,
) -> ElasticRun {
    let out = plan(db, P, M, cfg).expect("tiny plans at p=2");
    let mut pipe = tiny_pipeline(one_f_one_b(P, M), out.partition);
    let model = zoo::gpt2_tiny();
    let batch = BatchSet::synthetic(99, M, 2, model.seq_len, model.vocab_size);
    let mut ctl = elastic_controller(membership);
    let mut losses = Vec::new();
    let mut halted = None;
    'train: while losses.len() < steps {
        let stats = pipe.train_iteration(&batch).expect("no deadlock");
        losses.push(stats.loss);
        for action in fold_step(&mut ctl, script, losses.len() as u64) {
            match action {
                Action::Reshape {
                    width, multipliers, ..
                } => {
                    let (part, sched) = elastic_plan(db, cfg, width, &multipliers);
                    pipe.repartition(&part, sched).expect("migration succeeds");
                }
                Action::Halt { reason } => {
                    halted = Some(reason);
                    break 'train;
                }
                other => panic!("no recovery is armed, got {other:?}"),
            }
        }
    }
    ElasticRun {
        losses,
        checksum: pipe.param_checksum(),
        log: ctl.elastic_log().to_vec(),
        halted,
    }
}

/// Run `sched` through the threaded runtime and return its timeline.
fn runtime_timeline(sched: &Schedule, partition: &Partition) -> Timeline {
    let model = zoo::gpt2_tiny();
    let batch = BatchSet::synthetic(21, sched.n_microbatches, 2, model.seq_len, model.vocab_size);
    let mut pipe = tiny_pipeline(sched.clone(), partition.clone());
    pipe.forward_backward(&batch).expect("iteration completes");
    pipe.last_timeline().expect("timeline recorded").clone()
}

/// Run `sched` through the event simulator (uniform costs — op *order* is
/// what is compared) and return its timeline.
fn simulated_timeline(sched: &Schedule) -> Timeline {
    let n = sched.n_stages();
    let costs = EventCosts {
        f: vec![1.0; n],
        b: vec![2.0; n],
        latency: 0.001,
        volume: 0.05,
    };
    run_schedule(sched, &costs, &EventConfig::default())
        .unwrap()
        .timeline
}

/// Chaos campaign: every seeded membership script completes (or halts
/// deterministically) with zero deadlocks, replays bit-identically, and
/// every visited width runs with identical op orderings on both executors.
fn chaos_campaign(db: &CostDb, cfg: &AutoPipeConfig, n_seeds: u64) -> serde_json::Value {
    const STEPS: usize = 8;
    let mut halted = 0usize;
    let (mut shrinks, mut grows, mut replans) = (0usize, 0usize, 0usize);
    let mut widths: Vec<usize> = vec![P];
    for seed in 0..n_seeds {
        let script = FaultPlan::random_membership(seed, P, STEPS as u64, 0.5, 1);
        let a = run_elastic(db, cfg, &script, MembershipConfig::default(), STEPS);
        let b = run_elastic(db, cfg, &script, MembershipConfig::default(), STEPS);
        assert_eq!(a.losses, b.losses, "seed {seed}: trajectory drifted");
        assert_eq!(a.log, b.log, "seed {seed}: elastic decisions drifted");
        assert_eq!(
            a.checksum.to_bits(),
            b.checksum.to_bits(),
            "seed {seed}: params drifted"
        );
        assert_eq!(a.halted, b.halted, "seed {seed}: halt outcome drifted");
        if a.halted.is_some() {
            halted += 1;
        }
        for e in &a.log {
            match &e.action {
                ElasticAction::Shrink { survivors, .. } => {
                    shrinks += 1;
                    widths.push(*survivors);
                }
                ElasticAction::Grow { target, .. } => {
                    grows += 1;
                    widths.push(*target);
                }
                ElasticAction::Replan { .. } => replans += 1,
                ElasticAction::Halt { .. } => {}
            }
        }
    }
    widths.sort_unstable();
    widths.dedup();
    // Both executors agree on per-device op order at every width the
    // campaign visited.
    for &w in &widths {
        let out = plan(db, w, M, cfg).expect("visited width plans");
        let sched = one_f_one_b(w, M);
        let real = runtime_timeline(&sched, &out.partition);
        let sim = simulated_timeline(&sched);
        real.same_op_order(&sim)
            .unwrap_or_else(|e| panic!("width {w}: op order diverged across executors: {e:?}"));
    }
    println!(
        "chaos     : {n_seeds} seeds × 2 replays, {shrinks} shrinks, {grows} grows, \
         {replans} replans, {halted} deterministic halts, 0 deadlocks, bit-identical"
    );
    json!({
        "stages": P,
        "microbatches": M,
        "steps": STEPS,
        "seeds": n_seeds,
        "shrinks": shrinks,
        "grows": grows,
        "replans": replans,
        "deterministic_halts": halted,
        "deadlocks": 0,
        "bit_identical_replays": true,
        "widths_visited": widths,
        "op_order_consistent_across_executors": true,
    })
}

/// Grow campaign: leave → degraded p−1 → rejoin → grow back to p. The
/// elastic trajectory matches the uninterrupted run bit-for-bit, and a
/// fresh pipeline resumed from the pre-grow checkpoint generation replays
/// the post-grow steps identically.
fn grow_demo(db: &CostDb, cfg: &AutoPipeConfig) -> serde_json::Value {
    const STEPS: usize = 10;
    let model = zoo::gpt2_tiny();
    let batch = BatchSet::synthetic(99, M, 2, model.seq_len, model.vocab_size);
    let out = plan(db, P, M, cfg).expect("tiny plans at p=2");

    // The uninterrupted yardstick.
    let mut clean = tiny_pipeline(one_f_one_b(P, M), out.partition.clone());
    let mut clean_losses = Vec::new();
    for _ in 0..STEPS {
        clean_losses.push(clean.train_iteration(&batch).expect("clean step").loss);
    }
    let clean_sum = clean.param_checksum();

    // The elastic run: leave at step 3, rejoin at step 4, grow at step 5
    // (step 1 is warm-up — keeping a couple of healthy steps after it leaves
    // honest healthy-phase wall-clock samples for the throughput ratio).
    let mut script = FaultPlan::default();
    script.membership.push(MembershipFault {
        device: 1,
        at_step: 3,
        change: MembershipChange::Leave,
    });
    script.membership.push(MembershipFault {
        device: 1,
        at_step: 4,
        change: MembershipChange::Join,
    });
    let dir = temp_dir("grow");
    let mut store = CheckpointStore::open(&dir, 8).expect("store opens");
    let mut pipe = tiny_pipeline(one_f_one_b(P, M), out.partition.clone());
    let mut ctl = elastic_controller(fast_membership());
    let mut losses = Vec::new();
    let mut wall = Vec::new();
    let mut shrink_step = None;
    let mut grow_step = None;
    let mut pre_grow: Option<(Partition, Schedule)> = None;
    let mut grown: Option<(Partition, Schedule)> = None;
    while losses.len() < STEPS {
        let stats = pipe.train_iteration(&batch).expect("elastic step");
        losses.push(stats.loss);
        wall.push(stats.wall.as_secs_f64());
        let step = losses.len() as u64;
        for action in fold_step(&mut ctl, &script, step) {
            let Action::Reshape {
                width, multipliers, ..
            } = action
            else {
                panic!("unexpected action {action:?}");
            };
            let (part, sched) = elastic_plan(db, cfg, width, &multipliers);
            if width < pipe.schedule().n_devices {
                shrink_step = Some(step);
            } else {
                // The durable generation the grow resumes from: the
                // degraded pipeline's state at the grow boundary.
                store
                    .save(&pipe.snapshot(step, "pre-grow"))
                    .expect("pre-grow generation commits");
                pre_grow = Some((pipe.partition().clone(), pipe.schedule().clone()));
                grown = Some((part.clone(), sched.clone()));
                grow_step = Some(step);
            }
            pipe.repartition(&part, sched).expect("re-shape migrates");
        }
    }
    let shrink_step = shrink_step.expect("leave fired") as usize;
    let grow_step = grow_step.expect("grow fired") as usize;
    assert_eq!(
        clean_losses, losses,
        "elastic trajectory drifted from clean"
    );
    assert_eq!(
        clean_sum.to_bits(),
        pipe.param_checksum().to_bits(),
        "elastic params drifted from clean"
    );

    // A fresh p−1 pipeline resumed from the pre-grow generation, grown with
    // the same plan, replays the post-grow steps bit-for-bit.
    let (degraded_part, degraded_sched) = pre_grow.expect("grow recorded its source");
    let (grown_part, grown_sched) = grown.expect("grow recorded its target");
    let (manifest, states) = store.load_latest().expect("pre-grow generation loads");
    assert_eq!(manifest.step, grow_step as u64);
    let mut fresh = tiny_pipeline(degraded_sched, degraded_part);
    autopipe_runtime::restore_states(&mut fresh, &states).expect("pre-grow state restores");
    fresh
        .repartition(&grown_part, grown_sched)
        .expect("fresh grow migrates");
    for (i, expected) in losses.iter().enumerate().skip(grow_step) {
        let got = fresh.train_iteration(&batch).expect("resumed step").loss;
        assert_eq!(
            expected.to_bits(),
            got.to_bits(),
            "post-grow step {i} diverged on the fresh resume"
        );
    }
    assert_eq!(
        fresh.param_checksum().to_bits(),
        pipe.param_checksum().to_bits(),
        "fresh resume ended on different params"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    // Drop the first iteration from the healthy phase: it pays one-time
    // thread and cache warm-up and would flatter the recovered ratio.
    let healthy = mean(&wall[1.min(shrink_step - 1)..shrink_step]);
    let degraded = mean(&wall[shrink_step..grow_step]);
    let regrown = mean(&wall[grow_step..]);
    println!(
        "grow      : p {P}→{}→{P}, clean + fresh-resume bit-identical, \
         recovered throughput ×{:.2}",
        P - 1,
        healthy / regrown.max(1e-12)
    );
    json!({
        "stages": P,
        "steps": STEPS,
        "shrink_step": shrink_step,
        "grow_step": grow_step,
        "bit_identical_to_clean": true,
        "fresh_resume_bit_identical": true,
        "healthy_ms": healthy * 1e3,
        "degraded_ms": degraded * 1e3,
        "regrown_ms": regrown * 1e3,
        "recovered_throughput": healthy / regrown.max(1e-12),
    })
}

/// Degraded-mode cost: the analytic price of serving at p−1 while a
/// quarantined device proves itself. Uses a pipeline deep enough that the
/// lost stage actually cost something (the tiny 2-layer model gains nothing
/// from its second stage, which would make degraded mode look *faster*).
fn degraded_demo() -> serde_json::Value {
    let model = zoo::gpt2_345m();
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&model, &hw, 4);
    let cfg = AutoPipeConfig::default();
    let (p, m) = (4usize, 8usize);
    let full = plan(&db, p, m, &cfg).expect("plans at p");
    let degraded = plan(&db, p - 1, m, &cfg).expect("plans at p-1");
    let t_full = full.analytic.iteration_time;
    let t_degraded = degraded.analytic.iteration_time;
    println!(
        "degraded  : p={p} {:.2} ms → p={} {:.2} ms (×{:.2})",
        t_full * 1e3,
        p - 1,
        t_degraded * 1e3,
        t_degraded / t_full
    );
    json!({
        "model": model.name,
        "stages": p,
        "microbatches": m,
        "full_ms": t_full * 1e3,
        "degraded_ms": t_degraded * 1e3,
        "degraded_cost": t_degraded / t_full,
    })
}

/// Heterogeneity: on a skewed cluster the heterogeneity-aware plan beats
/// the homogeneous plan when both are evaluated under the *true* per-device
/// costs.
fn heterogeneity_demo() -> serde_json::Value {
    let model = zoo::gpt2_345m();
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&model, &hw, 4);
    let cfg = AutoPipeConfig::default();
    let (p, m) = (4usize, 8usize);
    // One device 2.5× slower than its peers: a 2.5× multiplier spread.
    let mult = vec![1.0, 1.0, 2.5, 1.0];

    let homo = plan(&db, p, m, &cfg).expect("homogeneous plan");
    let skewed_db = db.clone().with_device_multipliers(&mult);
    let hetero = plan(&skewed_db, p, m, &cfg).expect("heterogeneous plan");

    // Evaluate both partitions under the true skewed per-device costs.
    let eval = |part: &Partition| {
        let mut sc = part.stage_costs(&db);
        for s in 0..sc.f.len() {
            sc.f[s] *= mult[s];
            sc.b[s] *= mult[s];
        }
        simulate_replay(&sc, m).iteration_time
    };
    let t_homo = eval(&homo.partition);
    let t_hetero = eval(&hetero.partition);
    assert!(
        t_hetero < t_homo,
        "heterogeneity-aware plan must beat the homogeneous plan on a skewed \
         cluster ({t_hetero} vs {t_homo})"
    );
    println!(
        "hetero    : skew ×2.5 on device 2: homo {:.2} ms vs hetero {:.2} ms (win ×{:.2})",
        t_homo * 1e3,
        t_hetero * 1e3,
        t_homo / t_hetero
    );
    json!({
        "model": model.name,
        "stages": p,
        "microbatches": m,
        "multipliers": mult,
        "spread": 2.5,
        "homogeneous_ms": t_homo * 1e3,
        "heterogeneous_ms": t_hetero * 1e3,
        "win": t_homo / t_hetero,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_seeds = if smoke { 8 } else { 50 };

    let model = zoo::gpt2_tiny();
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&model, &hw, 2);
    let cfg = AutoPipeConfig::default();

    let chaos = chaos_campaign(&db, &cfg, n_seeds);
    let grow = grow_demo(&db, &cfg);
    let degraded = degraded_demo();
    let hetero = heterogeneity_demo();

    let record = json!({
        "bench": "elastic",
        "smoke": smoke,
        "chaos_campaign": chaos,
        "grow": grow,
        "degraded_mode": degraded,
        "heterogeneity": hetero,
    });
    save_json("BENCH_elastic", &record);
    println!("wrote results/BENCH_elastic.json");
}

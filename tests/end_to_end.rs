//! Cross-crate integration through the `autopipe::Session` facade:
//! plan → validate → slice → simulate → execute.

use std::sync::Arc;

use autopipe::{Error, PlanService, Session};
use autopipe_cost::profiler::ProfilerConfig;
use autopipe_cost::Hardware;
use autopipe_exec::CommConfig;
use autopipe_model::zoo;
use autopipe_runtime::{BatchSet, ReferenceModel};
use autopipe_schedule::validate;
use autopipe_sim::{run_schedule, EventConfig, EventCosts};

/// The full AutoPipe front-end output is executable on the event simulator,
/// and the event simulation lands near the planner's own estimate.
#[test]
fn planned_schedule_simulates() {
    let planned = Session::for_model(zoo::gpt2_345m())
        .devices(4)
        .stages(4)
        .microbatch_size(4)
        .global_batch(128)
        .plan()
        .unwrap()
        .slice()
        .unwrap();
    validate(&planned.plan().schedule).unwrap();
    let sim = planned.simulate().unwrap();
    assert!(sim.clean.iteration_time > 0.0);
    let est = planned.plan().est_pipeline_time;
    let rel = (sim.clean.iteration_time - est).abs() / est;
    assert!(rel < 0.05, "event vs planner estimate diverge by {rel}");
}

/// Sessions sharing one `PlanService` hit its content-addressed cache: the
/// second identical session plans without a single new search, and both
/// arrive at bit-identical plans (also bit-identical to an unshared plan).
#[test]
fn sessions_sharing_a_plan_service_hit_the_cache() {
    let service = Arc::new(PlanService::new());
    let build = || {
        Session::for_model(zoo::gpt2_345m())
            .devices(4)
            .stages(4)
            .microbatch_size(4)
            .global_batch(128)
    };

    let first = build().plan_service(Arc::clone(&service)).plan().unwrap();
    let after_first = service.stats();
    assert!(after_first.cold >= 1, "{after_first:?}");
    assert_eq!(after_first.hits, 0);

    let second = build().plan_service(Arc::clone(&service)).plan().unwrap();
    let after_second = service.stats();
    assert_eq!(
        after_second.cold + after_second.warm,
        after_first.cold + after_first.warm,
        "an identical session must not search again: {after_second:?}"
    );
    assert!(after_second.hits > 0);

    let unshared = build().plan().unwrap();
    for other in [&second, &unshared] {
        assert_eq!(first.plan().partition, other.plan().partition);
        assert_eq!(
            first.plan().est_pipeline_time.to_bits(),
            other.plan().est_pipeline_time.to_bits()
        );
        assert_eq!(first.plan().schedule, other.plan().schedule);
    }
}

/// Plan for every benchmark model at several depths; everything validates.
#[test]
fn plans_for_all_benchmark_models_validate() {
    for model in zoo::benchmark_models() {
        for p in [2usize, 4] {
            let planned = Session::for_model(model.clone())
                .devices(p)
                .stages(p)
                .microbatch_size(4)
                .global_batch(64)
                .plan()
                .unwrap_or_else(|e| panic!("{} p={p}: {e}", model.name));
            let plan = planned.plan();
            assert_eq!(plan.stages, p);
            validate(&plan.schedule).unwrap();
            let total_layers: f64 = plan.layer_counts.iter().sum();
            assert_eq!(total_layers, model.num_layers as f64);
        }
    }
}

/// A session planned by the real front-end drives the threaded runtime on a
/// tiny model, and the result matches single-device training.
#[test]
fn planned_tiny_model_trains_correctly() {
    let model = zoo::gpt2_tiny();
    let iterations = 2;
    let report = Session::for_model(model.clone())
        .stages(2)
        .microbatches(4)
        .seed(4)
        .iterations(iterations)
        .plan()
        .unwrap()
        .slice()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.losses.len(), iterations);

    // Single-device reference on the identical batch stream.
    let mut reference = ReferenceModel::new(&model, 4, 1e-3, true);
    let batch = BatchSet::synthetic(4, 4, 4, model.seq_len, model.vocab_size);
    for (i, &loss) in report.losses.iter().enumerate() {
        let r = reference.train_iteration(&batch);
        assert!(
            (loss - r).abs() < 1e-3,
            "iter {i}: session {loss} vs reference {r}"
        );
    }
}

/// Strategy selection reproduces Table III/IV behaviour end-to-end through
/// the session facade.
#[test]
fn facade_strategy_matches_paper_choices() {
    let plan_for = |model, mbs: usize, gbs: usize| {
        Session::for_model(model)
            .devices(4)
            .microbatch_size(mbs)
            .global_batch(gbs)
            .plan()
            .unwrap()
    };
    // Low memory: complete data parallelism.
    let low = plan_for(zoo::gpt2_345m(), 4, 128);
    assert_eq!(low.plan().stages, 1);
    assert_eq!(low.plan().dp, 4);
    // High memory: 2-stage pipeline for 345M at mbs 32.
    let high = plan_for(zoo::gpt2_345m(), 32, 512);
    assert_eq!(high.plan().stages, 2);
    // 1.3B at mbs 16: 4-stage.
    let big = plan_for(zoo::gpt2_1_3b(), 16, 512);
    assert_eq!(big.plan().stages, 4);
}

/// The facade rejects impossible jobs with structured errors end to end.
#[test]
fn impossible_jobs_error_cleanly() {
    // 1.3B at mbs 32 on one 24 GB device: every depth-1 plan OOMs.
    let err = Session::for_model(zoo::gpt2_1_3b())
        .devices(1)
        .microbatch_size(32)
        .global_batch(64)
        .plan()
        .unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "{err}");
    // And the source chain reaches the planner's own error.
    let src = std::error::Error::source(&err).expect("plan errors carry a source");
    assert!(!src.to_string().is_empty());
}

/// GPT-2 345M pinned to eight stages with 64 micro-batches of 4: a job whose
/// plan shows the cluster, the cost source and the search's pruning.
fn eight_stages() -> Session {
    Session::for_model(zoo::gpt2_345m())
        .stages(8)
        .microbatches(64)
}

/// `.hardware` reaches the cost model: the same job plans a faster iteration
/// on the A100 cluster than on the default RTX-3090 one.
#[test]
fn the_hardware_setting_reaches_the_plan() {
    let rtx = eight_stages().plan().unwrap();
    let a100 = eight_stages()
        .hardware(Hardware::a100_cluster())
        .plan()
        .unwrap();
    let (rtx, a100) = (rtx.plan(), a100.plan());
    assert!(
        a100.est_iteration_time() < rtx.est_iteration_time(),
        "A100 {} vs RTX-3090 {}",
        a100.est_iteration_time(),
        rtx.est_iteration_time()
    );
}

/// `.profiled` plans on the synthetic profiler's measurements, whose bias
/// and per-op overhead make every block dearer than analytic ground truth.
#[test]
fn the_profiled_setting_plans_on_measured_costs() {
    let truth = eight_stages().plan().unwrap();
    let measured = eight_stages()
        .profiled(ProfilerConfig::default())
        .plan()
        .unwrap();
    let (truth, measured) = (truth.plan(), measured.plan());
    assert!(
        measured.est_pipeline_time > truth.est_pipeline_time,
        "profiled {} vs analytic {}",
        measured.est_pipeline_time,
        truth.est_pipeline_time
    );
}

/// `.prune` toggles the wave search's dominance pruning (on by default):
/// the winner is the same either way, but without pruning the search
/// simulates more schemes.
#[test]
fn the_prune_setting_reaches_the_search() {
    let pruned = eight_stages().plan().unwrap();
    let full = eight_stages().prune(false).plan().unwrap();
    let (pruned, full) = (pruned.plan(), full.plan());
    assert_eq!(pruned.partition, full.partition);
    assert!(
        full.schemes_explored > pruned.schemes_explored,
        "unpruned {} vs pruned {}",
        full.schemes_explored,
        pruned.schemes_explored
    );
}

/// `.overlap_comm` reaches every layer that models the wire: on a link slow
/// enough that a hand-off costs more than a forward, the session's own
/// simulation prices the overlapped engine the planner scored — bit-equal
/// to the event simulator run under `CommConfig::overlapped(4)` and unlike
/// the blocking one — and the runtime trains the plan through its one send.
#[test]
fn the_overlap_setting_reaches_the_simulation_and_the_run() {
    let model = zoo::gpt2_tiny();
    let hardware = Hardware {
        link_bandwidth: 1e8,
        ..Hardware::rtx3090_cluster()
    };
    let planned = Session::for_model(model)
        .overlap_comm(hardware.link_latency, 4)
        .hardware(hardware)
        .stages(2)
        .microbatches(4)
        .seed(4)
        .plan()
        .unwrap()
        .slice()
        .unwrap();
    let cfg = planned.config();
    let costs = EventCosts::from_stage_costs(
        &planned.plan().partition.stage_costs(planned.cost_db()),
        cfg.hardware.link_latency,
    );
    assert!(
        costs.volume >= costs.f.iter().cloned().fold(0.0, f64::max),
        "the link must be comm-heavy: {costs:?}"
    );
    let schedule = &planned.plan().schedule;
    let overlapped = EventConfig {
        comm: CommConfig::overlapped(4),
        ..cfg.event()
    };
    let want = run_schedule(schedule, &costs, &overlapped).unwrap();
    let blocking = EventConfig {
        comm: CommConfig::default(),
        ..cfg.event()
    };
    let blocked = run_schedule(schedule, &costs, &blocking).unwrap();
    let got = planned.simulate().unwrap().clean.iteration_time;
    assert_eq!(got.to_bits(), want.iteration_time.to_bits());
    assert_ne!(got.to_bits(), blocked.iteration_time.to_bits());

    let report = planned.run().unwrap();
    assert_eq!(report.losses.len(), 2);
    assert!(report.losses.iter().all(|l| l.is_finite()), "{report:?}");
}

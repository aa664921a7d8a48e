//! Three-way consistency: the analytic replay, the paper's closed-form
//! recurrences, and the discrete-event simulator must tell the same story
//! on *real model* partitions — not just synthetic stage costs.

use autopipe_core::table2::table2_partitions;
use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{zoo, Granularity};
use autopipe_planner::autopipe::{plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_schedule::one_f_one_b;
use autopipe_sim::analytic::{recurrence, simulate_replay};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};

fn db(model: &autopipe_model::ModelConfig, mbs: usize) -> CostDb {
    CostDb::build(
        model,
        &Hardware::rtx3090_cluster(),
        mbs,
        true,
        Granularity::SubLayer,
    )
}

/// Replay vs event simulator: exact agreement on every Table II scheme.
#[test]
fn replay_equals_event_on_table2_schemes() {
    let d = db(&zoo::gpt2_345m(), 4);
    let m = 8;
    for (i, part) in table2_partitions(&d).iter().enumerate() {
        let sc = part.stage_costs(&d);
        let a = simulate_replay(&sc, m);
        let ev = EventCosts {
            f: sc.f.clone(),
            b: sc.b.clone(),
            latency: 0.0,
            volume: sc.comm,
        };
        let e = run_schedule(&one_f_one_b(4, m), &ev, &EventConfig::default()).unwrap();
        assert!(
            (a.iteration_time - e.iteration_time).abs() < 1e-9,
            "scheme {}: {} vs {}",
            i + 1,
            a.iteration_time,
            e.iteration_time
        );
    }
}

/// Recurrences vs replay: within a couple of percent on real partitions.
#[test]
fn recurrence_tracks_replay_on_real_models() {
    for model in zoo::benchmark_models() {
        let d = db(&model, 4);
        for p in [2usize, 4, 8] {
            let m = 2 * p;
            let part = plan(&d, p, m, &AutoPipeConfig::default())
                .unwrap()
                .partition;
            let sc = part.stage_costs(&d);
            let a = simulate_replay(&sc, m);
            let r = recurrence::simulate(&sc, m);
            let rel = (a.iteration_time - r.iteration_time).abs() / a.iteration_time;
            assert!(
                rel < 0.03,
                "{} p={p}: replay {} vs recurrence {} ({rel:.4})",
                model.name,
                a.iteration_time,
                r.iteration_time
            );
        }
    }
}

/// Master-stage semantics: on Megatron's uniform GPT-2 split the heaviest
/// stage (the LM-head stage) must be the master.
#[test]
fn master_stage_is_the_head_stage_for_uniform_gpt2() {
    let d = db(&zoo::gpt2_345m(), 4);
    for p in [2usize, 4, 8] {
        let part = megatron::uniform_partition(&d, p).unwrap();
        let sc = part.stage_costs(&d);
        let a = simulate_replay(&sc, 2 * p);
        assert_eq!(a.master_stage, p - 1, "p={p}");
    }
}

/// The planner's improvement shows up as reduced bubble time in the event
/// simulator's timeline decomposition.
#[test]
fn planner_reduces_bubble_fraction() {
    let d = db(&zoo::gpt2_345m(), 8);
    let p = 4;
    let m = 8;
    let run = |part: &autopipe_sim::Partition| {
        let sc = part.stage_costs(&d);
        let ev = EventCosts::from_stage_costs(&sc, 30e-6);
        run_schedule(&one_f_one_b(p, m), &ev, &EventConfig::default()).unwrap()
    };
    let mega = run(&megatron::uniform_partition(&d, p).unwrap());
    let auto = run(&plan(&d, p, m, &AutoPipeConfig::default())
        .unwrap()
        .partition);
    let bm = mega.timeline.bubble_ratio();
    let ba = auto.timeline.bubble_ratio();
    assert!(ba < bm, "autopipe bubbles {ba:.3} vs megatron {bm:.3}");
    // And the decomposition accounts for each device's whole iteration.
    for d in auto.timeline.breakdown() {
        let total = d.fwd + d.bwd + d.wait + d.idle;
        assert!((total - auto.iteration_time).abs() < 1e-9);
    }
}

/// Startup overhead measured by the analytic replay and the event simulator
/// agree on real partitions.
#[test]
fn startup_overhead_agrees_across_simulators() {
    let d = db(&zoo::bert_large(), 16);
    for p in [2usize, 4, 8] {
        let part = plan(&d, p, 2 * p, &AutoPipeConfig::default())
            .unwrap()
            .partition;
        let sc = part.stage_costs(&d);
        let a = simulate_replay(&sc, 2 * p);
        let ev = EventCosts {
            f: sc.f.clone(),
            b: sc.b.clone(),
            latency: 0.0,
            volume: sc.comm,
        };
        let e = run_schedule(&one_f_one_b(p, 2 * p), &ev, &EventConfig::default()).unwrap();
        assert!(
            (a.startup_overhead - e.startup_overhead).abs() < 1e-9,
            "p={p}: {} vs {}",
            a.startup_overhead,
            e.startup_overhead
        );
    }
}

//! Criterion benches for the three planners (the quantities behind Fig. 12).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use autopipe_bench::systems::cost_db;
use autopipe_cost::Hardware;
use autopipe_model::zoo;
use autopipe_planner::autopipe::{plan as autopipe_plan, AutoPipeConfig};
use autopipe_planner::balanced::balanced_partition;
use autopipe_planner::baselines::{dapple, piper};

fn bench_planners(c: &mut Criterion) {
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&zoo::gpt2_345m(), &hw, 32);
    let mut g = c.benchmark_group("planner-search");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("autopipe", "345M-p4"), |b| {
        b.iter(|| autopipe_plan(&db, 4, 16, &AutoPipeConfig::default()).unwrap())
    });
    // The reference workload: serial vs 4-thread waves on the same search
    // space.
    g.bench_function(BenchmarkId::new("autopipe-serial", "345M-p8"), |b| {
        b.iter(|| autopipe_plan(&db, 8, 16, &AutoPipeConfig::default()).unwrap())
    });
    g.bench_function(BenchmarkId::new("autopipe-wave4", "345M-p8"), |b| {
        b.iter(|| {
            autopipe_plan(
                &db,
                8,
                16,
                &AutoPipeConfig {
                    threads: 4,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    g.bench_function(BenchmarkId::new("piper", "345M-g8"), |b| {
        b.iter(|| piper::plan(&db, 8, 16, &hw))
    });
    g.bench_function(BenchmarkId::new("dapple", "345M-g8"), |b| {
        b.iter(|| dapple::plan(&db, 8, 16, &hw))
    });
    g.finish();
}

fn bench_algorithm1(c: &mut Criterion) {
    let hw = Hardware::rtx3090_cluster();
    let db = cost_db(&zoo::gpt2_762m(), &hw, 4);
    let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();
    c.bench_function("algorithm1-dp-762M-p8", |b| {
        b.iter(|| balanced_partition(&weights, 8))
    });
}

criterion_group!(benches, bench_planners, bench_algorithm1);
criterion_main!(benches);

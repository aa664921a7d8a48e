//! Per-layer probes: each times one public function of one crate, from
//! outside, on a fixed input. They run only in the traced run.
//!
//! The tensor and transport probes take the workload's model so they sit at
//! its dominant shape; the planner-side probes use one fixed request
//! (GPT-2 345M, p = 8, m = 16, mbs = 4 — the shape the repository's own
//! planner benches use) so their numbers compare across workloads.

use std::hint::black_box;
use std::time::Instant;

use autopipe::cost::{CostDb, Hardware};
use autopipe::model::{zoo, Granularity, ModelConfig};
use autopipe::planner::family::{plan_families, FamilyConfig};
use autopipe::planner::service::BatchRequest;
use autopipe::planner::{balanced_partition, AutoPipeConfig, PlanService, Source};
use autopipe::schedule::{one_f_one_b, sliced_1f1b, validate, Part};
use autopipe::sim::analytic::{simulate_time, SimScratch};
use autopipe::sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe::sim::memcheck::check_memory;
use autopipe::sim::{replay_schedule, ReplayScratch};
use autopipe::slicer::plan_slicing;
use autopipe::tensor::nn::{AttentionBlock, FfnBlock};
use autopipe::tensor::optim::Adam;
use autopipe::tensor::Tensor;
use autopipe_exec::{channel_mesh, MsgKey};

use crate::gen::SplitMix;
use crate::report::Metrics;
use crate::stats::median;

/// Fixed request of the planner-side probes.
const P: usize = 8;
const M: usize = 16;
const MBS: usize = 4;

/// Median microseconds of one call of `f` over `reps` calls.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

/// Median microseconds per call when one call is too short to time alone:
/// each sample times `inner` back-to-back calls.
fn median_us_batched(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    median_us(reps, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

/// Repetitions that keep a probe of `work` multiply-adds near 30 ms.
fn reps_for(work: f64) -> usize {
    ((3e7 / work) as usize).clamp(5, 2000)
}

/// `tensor.*`: the three GEMM kernels at `[mbs·seq, h] × [h, 4h]`, one
/// attention + FFN block forward and backward, and an Adam step over that
/// block's parameters.
pub fn tensor_layer(model: &ModelConfig, mbs: usize) -> Metrics {
    let mut rng = SplitMix::new(0x7E25_0A11);
    let (rows, h) = (mbs * model.seq_len, model.hidden_size);
    let wide = h * model.ffn_mult;
    let x = Tensor::randn(&[rows, h], 1.0, &mut rng);
    let w = Tensor::randn(&[h, wide], 0.02, &mut rng);
    let dy = Tensor::randn(&[rows, wide], 1.0, &mut rng);
    let flops = 2.0 * (rows * h * wide) as f64;
    let reps = reps_for(flops / 2.0);
    let gflops = |us: f64| flops / (us * 1e-6) / 1e9;

    let mut metrics = Metrics::new();
    metrics.set(
        "tensor.matmul_gflops",
        gflops(median_us(reps, || {
            black_box(black_box(&x).matmul(&w));
        })),
    );
    // Input-gradient shape: dy [rows, 4h] · Wᵀ.
    metrics.set(
        "tensor.matmul_t_gflops",
        gflops(median_us(reps, || {
            black_box(black_box(&dy).matmul_t(&w));
        })),
    );
    // Weight-gradient shape: xᵀ · dy.
    metrics.set(
        "tensor.t_matmul_gflops",
        gflops(median_us(reps, || {
            black_box(black_box(&x).t_matmul(&dy));
        })),
    );

    let mut attn = AttentionBlock::init(h, model.num_heads, true, &mut rng);
    let mut ffn = FfnBlock::init(h, model.ffn_mult, &mut rng);
    let reps = reps_for(12.0 * (rows * h * h) as f64);
    metrics.set(
        "tensor.block_fwd_us",
        median_us(reps, || {
            let (mid, _) = attn.forward(black_box(&x), mbs, model.seq_len);
            black_box(ffn.forward(&mid));
        }),
    );
    let (mid, attn_cache) = attn.forward(&x, mbs, model.seq_len);
    let (out, ffn_cache) = ffn.forward(&mid);
    metrics.set(
        "tensor.block_bwd_us",
        median_us(reps, || {
            let (dmid, _) = ffn.backward(&ffn_cache, black_box(&out));
            black_box(attn.backward(&attn_cache, &dmid));
        }),
    );
    let (dmid, ffn_grads) = ffn.backward(&ffn_cache, &out);
    let (_, attn_grads) = attn.backward(&attn_cache, &dmid);
    let grads: Vec<&Tensor> = attn_grads.iter().chain(&ffn_grads).collect();
    let mut adam = {
        let params: Vec<&Tensor> = attn.params().into_iter().chain(ffn.params()).collect();
        Adam::new(1e-3, &params)
    };
    metrics.set(
        "tensor.adam_step_us",
        median_us(reps.min(200), || {
            let mut params: Vec<&mut Tensor> = attn
                .params_mut()
                .into_iter()
                .chain(ffn.params_mut())
                .collect();
            adam.step(&mut params, &grads);
        }),
    );
    metrics
}

/// `transport.roundtrip_us`: an activation-sized payload sent 0 → 1 and
/// back over a `channel_mesh`, from one thread (the mesh is unbounded, so
/// no peer thread is needed and none is added).
pub fn transport_layer(model: &ModelConfig, mbs: usize) -> Metrics {
    let payload = vec![0.5f32; model.boundary_activation_elems(mbs) as usize];
    let mut mesh = channel_mesh::<Vec<f32>>(2, [(0, 1), (1, 0)]);
    let (mut b, mut a) = (mesh.pop().unwrap(), mesh.pop().unwrap());
    let mut slot = Some(payload);
    let mut mb = 0usize;
    let us = median_us_batched(50, 20, || {
        mb += 1;
        let there = MsgKey::act(mb, Part::Full, 1);
        a.send_to(1, there, slot.take().unwrap());
        let got = b.recv(there);
        let back = MsgKey::grad(mb, 0);
        b.send_to(0, back, got);
        slot = Some(a.recv(back));
    });
    let mut metrics = Metrics::new();
    metrics.set("transport.roundtrip_us", us);
    metrics
}

/// Every planner-side layer on the fixed request.
pub fn fixed_request_layers() -> Metrics {
    let mut metrics = planner_layer();
    metrics.extend(service_layer());
    metrics
}

/// `cost.*`, `planner.*`, `slicer.*`, `schedule.*` and `sim.*` on the fixed
/// request.
fn planner_layer() -> Metrics {
    let hw = Hardware::rtx3090_cluster();
    let model = zoo::gpt2_345m();
    let db = CostDb::build(&model, &hw, MBS, true, Granularity::SubLayer);
    let cfg = AutoPipeConfig {
        prune: true,
        ..AutoPipeConfig::default()
    };
    let mut metrics = Metrics::new();

    // `Session::plan` builds the cost database itself (twice: once inside
    // `plan_with_planner`, once after it); this is one such build.
    metrics.set(
        "cost.costdb_build_us",
        median_us(50, || {
            black_box(CostDb::build(
                black_box(&model),
                &hw,
                MBS,
                true,
                Granularity::SubLayer,
            ));
        }),
    );

    // The cold wave search, as `autopipe::planner::plan` runs it.
    let mut schemes = 0usize;
    let cold_us = median_us(15, || {
        let outcome =
            autopipe::planner::autopipe_plan(black_box(&db), P, M, &cfg).expect("cold plan");
        schemes = outcome.schemes_explored;
        black_box(outcome);
    });
    metrics.set("planner.cold_plan_us_p50", cold_us);
    metrics.set("planner.schemes_per_plan", schemes as f64);
    metrics.set("planner.schemes_per_s", schemes as f64 / (cold_us * 1e-6));

    let fam_cfg = FamilyConfig::for_planner(cfg, hw.link_latency);
    metrics.set(
        "planner.family_us_p50",
        median_us(7, || {
            black_box(plan_families(black_box(&db), &hw, P, M, &fam_cfg).expect("family search"));
        }),
    );
    let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();
    metrics.set(
        "planner.balanced_dp_us",
        median_us(50, || {
            black_box(balanced_partition(black_box(&weights), P));
        }),
    );

    let partition = autopipe::planner::autopipe_plan(&db, P, M, &cfg)
        .expect("cold plan")
        .partition;
    let costs = partition.stage_costs(&db);
    metrics.set(
        "slicer.plan_slicing_us",
        median_us(50, || {
            black_box(plan_slicing(black_box(&costs), M));
        }),
    );
    let n_sliced = plan_slicing(&costs, M).n_sliced;
    metrics.set(
        "schedule.generate_us",
        median_us(50, || {
            black_box(sliced_1f1b(P, M, black_box(n_sliced)));
            black_box(one_f_one_b(P, M));
        }) / 2.0,
    );
    let sched = sliced_1f1b(P, M, n_sliced);
    metrics.set(
        "schedule.validate_us",
        median_us(50, || {
            validate(black_box(&sched)).expect("generated schedule validates");
        }),
    );

    let mut scratch = SimScratch::new();
    metrics.set(
        "sim.fast_ns_per_candidate",
        median_us_batched(50, 200, || {
            black_box(simulate_time(black_box(&costs), M, &mut scratch));
        }) * 1e3,
    );
    let ec = EventCosts::from_stage_costs(&costs, hw.link_latency);
    let ev_cfg = EventConfig::default();
    let ops = sched.total_ops() as f64;
    let mut replay = ReplayScratch::new();
    metrics.set(
        "sim.replay_ns_per_op",
        median_us_batched(50, 20, || {
            black_box(
                replay_schedule(black_box(&sched), &ec, &ev_cfg, &mut replay).expect("replay"),
            );
        }) * 1e3
            / ops,
    );
    metrics.set(
        "sim.event_ns_per_op",
        median_us(50, || {
            black_box(run_schedule(black_box(&sched), &ec, &ev_cfg).expect("event run"));
        }) * 1e3
            / ops,
    );
    metrics.set(
        "sim.memcheck_us",
        median_us(50, || {
            black_box(check_memory(black_box(&partition), &db, &sched, &hw)).ok();
        }),
    );
    metrics
}

/// `service.*` latencies and batch scaling on the fixed request: a hit, a
/// warm re-plan (two stages drift), a cold plan on an empty service, and a
/// mostly-hits batch through `plan_batch` at one and two workers.
fn service_layer() -> Metrics {
    let hw = Hardware::rtx3090_cluster();
    let db = CostDb::build(&zoo::gpt2_345m(), &hw, MBS, true, Granularity::SubLayer);
    let mut metrics = Metrics::new();

    metrics.set(
        "service.cold_us",
        median_us(15, || {
            let svc = PlanService::new();
            black_box(svc.plan(black_box(&db), P, M).expect("cold serve"));
        }),
    );
    let svc = PlanService::new();
    let base = svc.plan(&db, P, M).expect("cold serve");
    metrics.set(
        "service.hit_ns",
        median_us_batched(50, 200, || {
            let served = svc.plan(black_box(&db), P, M).expect("hit");
            debug_assert_eq!(served.source, Source::Hit);
            black_box(served);
        }) * 1e3,
    );
    // Every sample drifts by a new amount, so none is answered from cache.
    let mut drift = 1.2;
    metrics.set(
        "service.warm_us",
        median_us(30, || {
            drift += 0.01;
            let mut ratios = vec![1.0; P];
            ratios[1] = drift;
            ratios[P - 2] = 1.0 + drift / 4.0;
            let r = svc
                .replan(&db, &base.outcome.partition, &ratios, M)
                .expect("warm re-plan");
            debug_assert_eq!(r.served.source, Source::Warm);
            black_box(r);
        }),
    );

    // 16 distinct requests (8 drifted databases × 2 depths) repeated 40
    // times: the steady state is cache hits, as in a fleet that re-plans
    // the same jobs.
    let dbs: Vec<CostDb> = (0..8)
        .map(|i| {
            let mut ratios = vec![1.0; P];
            ratios[i % P] = 1.0 + 0.1 * i as f64;
            svc.replan(&db, &base.outcome.partition, &ratios, M)
                .expect("drifted database")
                .observed_db
        })
        .collect();
    let requests: Vec<BatchRequest> = (0..40)
        .flat_map(|_| dbs.iter())
        .flat_map(|db| [4usize, 8].map(|p| BatchRequest { db, p, m: 2 * p }))
        .collect();
    let rate = |workers: usize| {
        let mut per_s: Vec<f64> = (0..5)
            .map(|_| {
                let svc = PlanService::new();
                let t = Instant::now();
                let served = svc.plan_batch(black_box(&requests), workers);
                let secs = t.elapsed().as_secs_f64();
                assert!(served.iter().all(Result::is_ok), "batch request failed");
                requests.len() as f64 / secs
            })
            .collect();
        median(&mut per_s)
    };
    let (w1, w2) = (rate(1), rate(2));
    metrics.set("service.batch_plans_per_s_w1", w1);
    metrics.set("service.batch_plans_per_s_w2", w2);
    metrics.set("service.batch_scaling", w2 / w1);
    metrics
}

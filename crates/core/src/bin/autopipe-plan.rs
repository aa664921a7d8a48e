//! Command-line planner: describe a training job, get an AutoPipe plan.
//!
//! ```text
//! cargo run --release -p autopipe-core --bin autopipe-plan -- \
//!     --model gpt2-345m --gpus 4 --mbs 4 --gbs 128
//! autopipe-plan --model gpt2-1.3b --gpus 8 --mbs 16 --gbs 512 --json
//! ```

use autopipe_core::{AutoPipe, SchedulePolicy, SessionConfig};
use autopipe_cost::Hardware;
use autopipe_model::{zoo, ModelConfig};
use autopipe_planner::PlanService;
use serde_json::Value;

struct Args {
    model: ModelConfig,
    hardware: Hardware,
    gpus: usize,
    mbs: usize,
    gbs: usize,
    stages: Option<usize>,
    policy: SchedulePolicy,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: autopipe-plan --model <name> --gpus N --mbs N --gbs N \
         [--stages N] [--no-slicer] [--hardware rtx3090|a100] [--json]\n\
         models: gpt2-345m gpt2-762m gpt2-1.3b bert-large gpt2-tiny"
    );
    std::process::exit(2);
}

fn model_by_name(name: &str) -> Option<ModelConfig> {
    match name.to_ascii_lowercase().as_str() {
        "gpt2-345m" | "345m" => Some(zoo::gpt2_345m()),
        "gpt2-762m" | "762m" => Some(zoo::gpt2_762m()),
        "gpt2-1.3b" | "1.3b" => Some(zoo::gpt2_1_3b()),
        "bert-large" | "bert" => Some(zoo::bert_large()),
        "gpt2-tiny" | "tiny" => Some(zoo::gpt2_tiny()),
        _ => None,
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        model: zoo::gpt2_345m(),
        hardware: Hardware::rtx3090_cluster(),
        gpus: 4,
        mbs: 4,
        gbs: 128,
        stages: None,
        policy: SchedulePolicy::Slicer,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| -> String {
            it.next().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--model" => {
                let name = value(&mut it);
                args.model = model_by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown model: {name}");
                    usage()
                });
            }
            "--hardware" => {
                args.hardware = match value(&mut it).as_str() {
                    "rtx3090" => Hardware::rtx3090_cluster(),
                    "a100" => Hardware::a100_cluster(),
                    other => {
                        eprintln!("unknown hardware: {other}");
                        usage()
                    }
                };
            }
            "--gpus" => args.gpus = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--mbs" => args.mbs = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--gbs" => args.gbs = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--stages" => args.stages = Some(value(&mut it).parse().unwrap_or_else(|_| usage())),
            "--no-slicer" => args.policy = SchedulePolicy::Plain,
            "--json" => args.json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = SessionConfig {
        hardware: args.hardware.clone(),
        fixed_stages: args.stages,
        schedule_policy: args.policy,
        ..SessionConfig::new(args.model.clone(), args.gpus, args.mbs, args.gbs)
    };
    // The steps a session's `plan()?.slice()?` runs, then the price.
    let db = AutoPipe::cost_db(&cfg);
    let service = PlanService::with_config(cfg.planner());
    match AutoPipe::plan_with(&cfg, &db, &service) {
        Ok(mut plan) => {
            if cfg.schedule_policy == SchedulePolicy::Slicer {
                plan.slice(&db);
            }
            let est_iteration_s = plan.price(&db, &cfg) + plan.grad_sync;
            if args.json {
                let mut json = serde_json::to_value(&plan);
                if let Value::Object(fields) = &mut json {
                    fields.push(("est_iteration_s".into(), Value::Num(est_iteration_s)));
                }
                println!("{}", serde_json::to_string_pretty(&json).unwrap());
            } else {
                println!("model           : {}", args.model.name);
                println!("hardware        : {}", args.hardware.name);
                println!(
                    "strategy        : {} stage(s) x dp {}",
                    plan.stages, plan.dp
                );
                println!("micro-batches   : {}", plan.microbatches);
                println!("layers per stage: {:?}", plan.layer_counts);
                println!(
                    "sliced warmup   : {} micro-batch(es)",
                    plan.schedule.n_sliced
                );
                println!("est. iteration  : {:.1} ms", est_iteration_s * 1e3);
            }
        }
        Err(e) => {
            eprintln!("planning failed: {e}");
            std::process::exit(1);
        }
    }
}

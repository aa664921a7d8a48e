//! `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Progress and failure reasons go to standard error. Exits
//! 1 when any check failed, 2 on a bad command line.

use autopipe_e2e_bench::report::{result_value, END_TO_END, PER_LAYER};
use autopipe_e2e_bench::{env, workloads, Args, DEFAULT_SEED, WORKLOADS};

fn usage() -> ! {
    eprintln!(
        "usage: e2e --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let seconds_ok = args.seconds.is_finite() && args.seconds > 0.0;
    if !(seconds_ok && WORKLOADS.contains(&args.workload.as_str())) {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    env::install_panic_hook();
    let outcome = workloads::run(&args).unwrap_or_else(|| usage());
    let (defs, require_all) = if args.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    let result = result_value(
        outcome.checks.attempted,
        outcome.checks.failed,
        defs,
        &outcome.metrics,
        require_all,
    );
    eprintln!(
        "{}: attempted {}, failed {}, collateral stage panics swallowed {}, cores {}",
        args.workload,
        outcome.checks.attempted,
        outcome.checks.failed,
        env::collateral_panics(),
        env::machine_cores()
    );
    println!(
        "{}",
        serde_json::to_string(&result).expect("result renders")
    );
    if outcome.checks.failed > 0 {
        std::process::exit(1);
    }
}

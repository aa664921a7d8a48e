//! The five workloads. Each module exposes `run(&Args) -> Outcome`, which
//! does the untraced or the traced run depending on `args.trace`.

pub mod churn;
pub mod serve;
pub mod sweep;
pub mod train;

use crate::{Args, Outcome};

/// Dispatch on the workload name; `None` for an unknown one.
pub fn run(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "train_compute" => train::run(&train::compute_spec(), args),
        "train_small_ops" => train::run(&train::small_ops_spec(), args),
        "train_churn" => churn::run(args),
        "plan_sweep" => sweep::run(args),
        "plan_serve" => serve::run(args),
        _ => return None,
    })
}

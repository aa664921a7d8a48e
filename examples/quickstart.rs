//! Quickstart: plan pipeline-parallel training for GPT-2 345M on 4 GPUs
//! through the [`autopipe::Session`] facade.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use autopipe::Session;
use autopipe_model::zoo;

fn main() -> Result<(), autopipe::Error> {
    // Describe the job — model, cluster size, micro-batch and global batch —
    // then walk the paper's chain: plan, slice, simulate.
    let planned = Session::for_model(zoo::gpt2_345m())
        .devices(4)
        .microbatch_size(4)
        .global_batch(128)
        .plan()?
        .slice()?;

    let plan = planned.plan();
    println!("model            : {}", planned.config().model.name);
    println!("devices          : {}", planned.config().n_devices);
    println!(
        "strategy         : {} pipeline stage(s) x {} data-parallel",
        plan.stages, plan.dp
    );
    println!(
        "micro-batches    : {} per replica per iteration",
        plan.microbatches
    );
    println!("layers per stage : {:?}", plan.layer_counts);
    println!("sliced warmup mbs: {}", plan.schedule.n_sliced);
    let price = plan.price(planned.cost_db(), planned.config());
    println!(
        "est. iteration   : {:.1} ms (pipeline {:.1} ms + grad sync {:.1} ms)",
        (price + plan.grad_sync) * 1e3,
        price * 1e3,
        plan.grad_sync * 1e3
    );
    println!(
        "planner explored : {} schemes in {:.2} ms",
        plan.schemes_explored,
        plan.search_seconds * 1e3
    );
    println!(
        "schedule         : {:?}, {} ops across {} devices",
        plan.schedule.kind,
        plan.schedule.total_ops(),
        plan.schedule.n_devices
    );

    // The same session drives the discrete-event simulator.
    let sim = planned.simulate()?;
    println!(
        "event simulation : {:.1} ms iteration, {:.2} ms startup",
        sim.clean.iteration_time * 1e3,
        sim.clean.startup_overhead * 1e3
    );
    Ok(())
}

//! Shared system-under-test evaluation: build the [`Plan`] a named system
//! runs and measure it on the discrete-event cluster simulator with the
//! "actual run" fidelity profile (per-op launch overhead, jitter,
//! half-batch efficiency).

use autopipe_core::Plan;
use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{Granularity, ModelConfig};
use autopipe_planner::autopipe::{plan as autopipe_plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_sim::event::EventConfig;
use autopipe_sim::memcheck::check_memory;

/// What the event simulator observed for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    /// Iteration time, seconds.
    pub iteration: f64,
    /// Startup overhead, seconds.
    pub startup: f64,
}

/// The four systems of Figs 9–10 plus the interleaved baseline of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Megatron-LM: uniform layer split, plain 1F1B.
    Megatron,
    /// Megatron-LM's interleaved schedule with `v` chunks per device.
    Interleaved(usize),
    /// Megatron partition + AutoPipe Slicer ("Slicer" series).
    SlicerOnly,
    /// AutoPipe Planner partition + plain 1F1B ("Planner" series).
    PlannerOnly,
    /// Planner + Slicer (full AutoPipe).
    AutoPipe,
}

/// Build the cost database all experiments share.
pub fn cost_db(model: &ModelConfig, hw: &Hardware, mbs: usize) -> CostDb {
    CostDb::build(model, hw, mbs, true, Granularity::SubLayer)
}

/// The "actual run" fidelity profile for `plan`, seeded by its shape.
pub(crate) fn actual_run(plan: &Plan, hw: &Hardware) -> EventConfig {
    let seed = 0xC0FFEE
        ^ (plan.schedule.n_devices as u64) << 32
        ^ (plan.schedule.n_microbatches as u64) << 8
        ^ plan.partition.n_blocks() as u64;
    EventConfig::actual_run(hw.kernel_overhead, seed)
}

/// Measure `system` on `p` devices running `m` micro-batches. `Err` carries
/// the paper's cell markers: `"OOM"` (memory), `"X"` (configuration
/// impossible), or a planning error message.
pub fn measure(
    system: System,
    db: &CostDb,
    hw: &Hardware,
    p: usize,
    m: usize,
) -> Result<Obs, String> {
    let plan_1f1b = |part| Plan::new(part, 1, m, 0, None, db).expect("1F1B generates");
    let sliced = |mut plan: Plan| {
        plan.slice(db);
        plan
    };
    let uniform = || megatron::uniform_partition(db, p).map_err(|e| format!("X ({e})"));
    let planned = || {
        autopipe_plan(db, p, m, &AutoPipeConfig::default())
            .map(|out| out.partition)
            .map_err(|e| e.to_string())
    };
    let plan = match system {
        System::Megatron => plan_1f1b(uniform()?),
        System::Interleaved(v) => megatron::interleaved_partition(db, p, v)
            .ok()
            .and_then(|part| Plan::new(part, v, m, 0, None, db).ok())
            .ok_or("X")?,
        System::SlicerOnly => sliced(plan_1f1b(uniform()?)),
        System::PlannerOnly => plan_1f1b(planned()?),
        System::AutoPipe => sliced(plan_1f1b(planned()?)),
    };
    check_memory(&plan.partition, db, &plan.schedule, hw).map_err(|_| "OOM".to_string())?;
    let r = plan
        .simulate(db, hw.link_latency, &actual_run(&plan, hw))
        .expect("a plan simulates");
    Ok(Obs {
        iteration: r.iteration_time,
        startup: r.startup_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::zoo;

    #[test]
    fn autopipe_beats_megatron_on_the_headline_config() {
        // The abstract's claim, in miniature: AutoPipe faster than
        // Megatron-LM on GPT-2 345M, 4 stages, 8 micro-batches.
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
        let mega = measure(System::Megatron, &db, &hw, 4, 8).unwrap();
        let auto = measure(System::AutoPipe, &db, &hw, 4, 8).unwrap();
        let speedup = mega.iteration / auto.iteration;
        assert!(
            speedup > 1.0,
            "AutoPipe {} vs Megatron {} (x{speedup:.3})",
            auto.iteration,
            mega.iteration
        );
    }

    #[test]
    fn slicer_halves_startup_roughly() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 4);
        let mega = measure(System::Megatron, &db, &hw, 4, 8).unwrap();
        let sliced = measure(System::SlicerOnly, &db, &hw, 4, 8).unwrap();
        let ratio = sliced.startup / mega.startup;
        assert!(
            (0.4..0.75).contains(&ratio),
            "startup ratio {ratio}: {} vs {}",
            sliced.startup,
            mega.startup
        );
    }

    #[test]
    fn interleaved_markers() {
        let hw = Hardware::rtx3090_cluster();
        // OOM at mbs 32 (Fig. 14a).
        let db32 = cost_db(&zoo::gpt2_345m(), &hw, 32);
        assert_eq!(
            measure(System::Interleaved(2), &db32, &hw, 4, 8).unwrap_err(),
            "OOM"
        );
        // X at depth 8 for a 24-layer model (Fig. 14b).
        let db4 = cost_db(&zoo::gpt2_345m(), &hw, 4);
        assert_eq!(
            measure(System::Interleaved(2), &db4, &hw, 8, 8).unwrap_err(),
            "X"
        );
        // Works at depth 4.
        assert!(measure(System::Interleaved(2), &db4, &hw, 4, 8).is_ok());
    }

    /// `measure`'s iteration and startup times, as bits, for every system
    /// on GPT-2 345M at p = 4, m = 8, mbs 8.
    #[test]
    fn measure_is_pinned_for_every_system() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_345m(), &hw, 8);
        for (system, iteration, startup) in [
            (System::Megatron, 0x4011a213b10daa0f, 0x3fd25b32e1b1cdd7),
            (
                System::Interleaved(2),
                0x40117ddc2c48271b,
                0x3fc286996648f1c9,
            ),
            (System::SlicerOnly, 0x40114e5ad582d685, 0x3fc705fd0d637da6),
            (System::PlannerOnly, 0x400feb53c459aaa9, 0x3fd3ca34556aebad),
            (System::AutoPipe, 0x400f58067f8e778b, 0x3fc8d2651bc93214),
        ] {
            let o = measure(system, &db, &hw, 4, 8).unwrap();
            assert_eq!(o.iteration.to_bits(), iteration, "{system:?}");
            assert_eq!(o.startup.to_bits(), startup, "{system:?}");
        }
    }

    #[test]
    fn megatron_rejects_non_divisor_depths() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_762m(), &hw, 4);
        assert!(measure(System::Megatron, &db, &hw, 8, 16).is_err());
        assert!(measure(System::Megatron, &db, &hw, 9, 18).is_ok());
    }
}

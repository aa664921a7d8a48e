//! Shared system-under-test evaluation: build a (partition, schedule) for a
//! named system and measure it on the discrete-event cluster simulator with
//! the "actual run" fidelity profile (per-op launch overhead, jitter,
//! half-batch efficiency).

use autopipe_cost::{CostDb, Hardware};
use autopipe_model::{Granularity, ModelConfig};
use autopipe_planner::autopipe::{plan as autopipe_plan, AutoPipeConfig};
use autopipe_planner::baselines::megatron;
use autopipe_schedule::{apply_checkpointing, interleaved, one_f_one_b, sliced_1f1b, Schedule};
use autopipe_sim::event::{run_schedule, EventConfig, EventCosts};
use autopipe_sim::memcheck::check_memory;
use autopipe_sim::Partition;
use autopipe_slicer::plan_slicing;

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
    let (partition, mut schedule): (Partition, Schedule) = match system {
        System::Megatron => {
            let part = megatron::uniform_partition(db, p).map_err(|e| format!("X ({e})"))?;
            (part, one_f_one_b(p, m))
        }
        System::Interleaved(v) => {
            let part = megatron::interleaved_partition(db, p, v).map_err(|_| "X".to_string())?;
            let sched = interleaved(p, v, m).map_err(|_| "X".to_string())?;
            (part, sched)
        }
        System::SlicerOnly => {
            let part = megatron::uniform_partition(db, p).map_err(|e| format!("X ({e})"))?;
            let sc = part.stage_costs(db);
            (part, sliced_1f1b(p, m, plan_slicing(&sc, m).n_sliced))
        }
        System::PlannerOnly => {
            let out =
                autopipe_plan(db, p, m, &AutoPipeConfig::default()).map_err(|e| e.to_string())?;
            (out.partition, one_f_one_b(p, m))
        }
        System::AutoPipe => {
            let out =
                autopipe_plan(db, p, m, &AutoPipeConfig::default()).map_err(|e| e.to_string())?;
            let sc = out.partition.stage_costs(db);
            (
                out.partition,
                sliced_1f1b(p, m, plan_slicing(&sc, m).n_sliced),
            )
        }
    };
    check_memory(&partition, db, &schedule, hw).map_err(|_| "OOM".to_string())?;
    if db.checkpointing {
        apply_checkpointing(&mut schedule);
    }
    Ok(run_measured(&partition, &schedule, db, hw))
}

/// Run a (partition, schedule) pair on the event simulator with the
/// actual-run fidelity profile. Deterministic seed derived from the shape.
pub(crate) fn run_measured(
    partition: &Partition,
    schedule: &Schedule,
    db: &CostDb,
    hw: &Hardware,
) -> Obs {
    let costs = EventCosts::from_stage_costs(&partition.stage_costs(db), hw.link_latency);
    let seed = 0xC0FFEE
        ^ (schedule.n_devices as u64) << 32
        ^ (schedule.n_microbatches as u64) << 8
        ^ partition.n_blocks() as u64;
    let cfg = EventConfig::actual_run(hw.kernel_overhead, seed);
    let r = run_schedule(schedule, &costs, &cfg).expect("schedule must simulate");
    Obs {
        iteration: r.iteration_time,
        startup: r.startup_overhead,
    }
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

    #[test]
    fn megatron_rejects_non_divisor_depths() {
        let hw = Hardware::rtx3090_cluster();
        let db = cost_db(&zoo::gpt2_762m(), &hw, 4);
        assert!(measure(System::Megatron, &db, &hw, 8, 16).is_err());
        assert!(measure(System::Megatron, &db, &hw, 9, 18).is_ok());
    }
}

//! The end-to-end AutoPipe pipeline: configs → Planner → Slicer → Plan.

use serde::Serialize;

use autopipe_cost::CostDb;
use autopipe_model::Granularity;
use autopipe_planner::device_stage_costs;
use autopipe_planner::family::{plan_families_with, FamilyConfig};
use autopipe_planner::service::PlanService;
use autopipe_planner::types::PlanError;
use autopipe_schedule::generators::GenerateError;
use autopipe_schedule::{
    apply_checkpointing, apply_recompute, interleaved, one_f_one_b, slice, Schedule,
};
use autopipe_sim::event::{EventConfig, EventCosts, EventResult};
use autopipe_sim::{replay_schedule, run_schedule, Partition, ReplayScratch, SimError};
use autopipe_slicer::{plan_slicing, solve_sliced_count};

use crate::config::{SchedulePolicy, SessionConfig};
use crate::strategy::choose_strategy;

/// A complete executable plan; [`Plan::price`] computes its time.
#[derive(Debug, Clone, Serialize)]
pub struct Plan {
    /// Pipeline depth.
    pub stages: usize,
    /// Uniform data-parallel width.
    pub dp: usize,
    /// Micro-batches per pipeline replica per iteration.
    pub microbatches: usize,
    /// The block partition.
    pub partition: Partition,
    /// The executable schedule. Its `n_sliced` counts the sliced
    /// micro-batches (0 when the Slicer is off or the pipeline has a single
    /// stage).
    pub schedule: Schedule,
    /// Per-stage transformer-layer counts (Table II convention).
    pub layer_counts: Vec<f64>,
    /// Gradient synchronisation time per iteration.
    pub grad_sync: f64,
    /// Schemes the planner simulated.
    pub schemes_explored: usize,
    /// Planner wall-clock, seconds.
    pub search_seconds: f64,
}

impl Plan {
    /// The plan that runs `partition` under 1F1B (`chunks` = 1) or
    /// Megatron-LM's interleaved schedule (`chunks` model chunks per device),
    /// `microbatches` per iteration, the first `sliced` of them sliced
    /// ([`Plan::slice`] solves Algorithm 2's count instead), lowered as
    /// [`AutoPipe::plan_with`] lowers its own. One replica, no gradient sync,
    /// no search: a baseline's plan, or a given partition's.
    pub fn new(
        partition: Partition,
        chunks: usize,
        microbatches: usize,
        sliced: usize,
        recompute: Option<&[bool]>,
        db: &CostDb,
    ) -> Result<Plan, GenerateError> {
        let p = partition.n_stages() / chunks.max(1);
        let mut schedule = match chunks {
            1 => one_f_one_b(p, microbatches),
            v => interleaved(p, v, microbatches)?,
        };
        slice(&mut schedule, sliced);
        let mask = recompute.unwrap_or(&[]);
        Ok(Plan::lowered(partition, schedule, mask, db))
    }

    /// The lowering every plan shares: the stages of `mask` (unless the
    /// schedule carries a mask already) and, under checkpointing, every
    /// stage replay their forwards as `Recompute` ops. Slicing commutes with
    /// them.
    fn lowered(partition: Partition, mut schedule: Schedule, mask: &[bool], db: &CostDb) -> Plan {
        if mask.iter().any(|&r| r) && !schedule.recompute.iter().any(|&r| r) {
            apply_recompute(&mut schedule, mask);
        }
        if db.checkpointing {
            apply_checkpointing(&mut schedule);
        }
        Plan {
            stages: schedule.n_devices,
            dp: 1,
            microbatches: schedule.n_microbatches,
            layer_counts: partition.layer_counts(db),
            partition,
            schedule,
            grad_sync: 0.0,
            schemes_explored: 0,
            search_seconds: 0.0,
        }
    }

    /// The event-simulator costs of this plan: each stage at its
    /// [`device_stage_costs`], each message split at `link_latency`.
    fn event_costs(&self, db: &CostDb, link_latency: f64) -> EventCosts {
        EventCosts::from_stage_costs(&device_stage_costs(&self.partition, db), link_latency)
    }

    /// Run the plan on the event simulator under `event`, with its per-op
    /// timeline: the session's `simulate()`, and under
    /// [`EventConfig::actual_run`] the experiments' "actual run".
    pub fn simulate(
        &self,
        db: &CostDb,
        link_latency: f64,
        event: &EventConfig,
    ) -> Result<EventResult, SimError> {
        run_schedule(&self.schedule, &self.event_costs(db, link_latency), event)
    }

    /// The plan's price, its only estimate: the pipeline time of one
    /// iteration, its schedule replayed without a timeline on the costs
    /// [`Plan::simulate`] runs at, under `cfg`'s event and link settings —
    /// the session's `simulate()` bit for bit. Add `grad_sync` for a full
    /// iteration.
    pub fn price(&self, db: &CostDb, cfg: &SessionConfig) -> f64 {
        replay_schedule(
            &self.schedule,
            &self.event_costs(db, cfg.hardware.link_latency),
            &cfg.event(),
            &mut ReplayScratch::new(),
        )
        .expect("a planned schedule replays")
        .iteration_time
    }

    /// Apply the AutoPipe Slicer (Algorithm 2) to this plan's schedule, in
    /// place. The sliced count is solved on the stage costs the plan is
    /// priced on ([`device_stage_costs`], each device's multiplier charged).
    /// Slicing commutes with the `Recompute` ops, so they stay as they are.
    /// A no-op below two stages (the count is 0) or on a schedule that is
    /// already sliced. This is the one slicing step: the session's `slice()`
    /// and its re-plans call it.
    pub fn slice(&mut self, db: &CostDb) {
        let costs = device_stage_costs(&self.partition, db);
        slice(
            &mut self.schedule,
            plan_slicing(&costs, self.microbatches).n_sliced,
        );
    }
}

/// The AutoPipe front-end.
#[derive(Debug, Default, Clone, Copy)]
pub struct AutoPipe;

impl AutoPipe {
    /// Plan a training job, unsliced: choose the DP×PP strategy and
    /// partition with the Planner, served through `service`. Every backing
    /// partition search (one per candidate depth) goes through the
    /// service's content-addressed cache, so re-planning a known job answers
    /// from cache instead of searching. The config's own search settings are
    /// the cache key's config component, so the result is bit-identical
    /// whichever service answers. `db` is [`Self::cost_db`] of `cfg`, built
    /// once by the caller, who needs it afterwards to slice and price the
    /// plan. Under [`SchedulePolicy::Auto`] the schedule is the cross-family
    /// winner; otherwise it is plain 1F1B, for [`Plan::slice`] to slice.
    pub fn plan_with(
        cfg: &SessionConfig,
        db: &CostDb,
        service: &PlanService,
    ) -> Result<Plan, PlanError> {
        let planner = cfg.planner();
        let choice = choose_strategy(
            db,
            &cfg.hardware,
            cfg.n_devices,
            cfg.gbs,
            cfg.mbs,
            cfg.fixed_stages,
            &planner,
            service,
        )?;
        // The partition search may have bought memory feasibility with a
        // recompute mask; the family search lowers its own winner.
        let mask = &choice.outcome.recompute;
        let plan = if cfg.schedule_policy == SchedulePolicy::Auto && choice.stages >= 2 {
            // Cross-family search: seed the sliced-count axis with the
            // Slicer's Algorithm 2 pick, on the costs the plan will be
            // priced on, so the classic AutoPipe schedule is always among
            // the candidates.
            let costs = device_stage_costs(&choice.outcome.partition, db);
            let mut fam_cfg = FamilyConfig::for_planner(planner, cfg.hardware.link_latency);
            let algo2 = solve_sliced_count(&costs);
            if algo2 >= 2 && !fam_cfg.sliced_counts.contains(&algo2) {
                fam_cfg.sliced_counts.insert(0, algo2);
            }
            // Strategy selection already planned this depth under the
            // same search config; its winner backs the single-chunk
            // families.
            let fam = plan_families_with(
                db,
                &cfg.hardware,
                choice.stages,
                choice.microbatches,
                &fam_cfg,
                choice.outcome.partition.clone(),
            )?;
            Plan::lowered(fam.partition, fam.schedule, mask, db)
        } else {
            let partition = choice.outcome.partition.clone();
            Plan::new(partition, 1, choice.microbatches, 0, Some(mask), db).expect("1F1B generates")
        };
        Ok(Plan {
            dp: choice.dp,
            grad_sync: choice.grad_sync,
            schemes_explored: choice.outcome.schemes_explored,
            search_seconds: choice.outcome.search_time.as_secs_f64(),
            ..plan
        })
    }

    /// The cost database a session plans against. Heterogeneity multipliers
    /// are attached *after* profiling so the profiler's per-block noise and
    /// the per-device skew compose instead of overwriting each other.
    pub fn cost_db(cfg: &SessionConfig) -> CostDb {
        let db = CostDb::build(
            &cfg.model,
            &cfg.hardware,
            cfg.mbs,
            true,
            Granularity::SubLayer,
        );
        let db = match &cfg.profiler {
            Some(p) => autopipe_cost::profiler::profile(&db, p),
            None => db,
        };
        if cfg.device_multipliers.is_empty() {
            db
        } else {
            db.with_device_multipliers(&cfg.device_multipliers)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_cost::profiler::ProfilerConfig;
    use autopipe_model::zoo;
    use autopipe_schedule::{one_f_one_b, validate};

    /// GPT-2 345M pinned to four stages on four devices, micro-batch 4,
    /// global batch 128.
    fn gpt2_345m_p4() -> SessionConfig {
        SessionConfig {
            fixed_stages: Some(4),
            ..SessionConfig::new(zoo::gpt2_345m(), 4, 4, 128)
        }
    }

    /// Plan `cfg` through a fresh service and slice it under
    /// [`SchedulePolicy::Slicer`], with the cost database to price it on.
    fn plan(cfg: &SessionConfig) -> (Plan, CostDb) {
        let db = AutoPipe::cost_db(cfg);
        let service = PlanService::with_config(cfg.planner());
        let mut plan = AutoPipe::plan_with(cfg, &db, &service).unwrap();
        if cfg.schedule_policy == SchedulePolicy::Slicer {
            plan.slice(&db);
        }
        (plan, db)
    }

    #[test]
    fn end_to_end_plan_is_executable() {
        let cfg = gpt2_345m_p4();
        let (plan, _) = plan(&cfg);
        assert_eq!(plan.stages, 4);
        assert_eq!(plan.microbatches, 32);
        assert!(plan.schedule.n_sliced >= 1);
        validate(&plan.schedule).expect("planned schedule must validate");
        let total_layers: f64 = plan.layer_counts.iter().sum();
        assert_eq!(total_layers, 24.0);
    }

    #[test]
    fn a_baseline_plan_is_lowered_as_the_planner_lowers_its_own() {
        // The Slicer's plan, rebuilt from its partition and sliced count:
        // the same program, price and simulated time.
        let cfg = gpt2_345m_p4();
        let (planned, db) = plan(&cfg);
        let (m, k) = (planned.microbatches, planned.schedule.n_sliced);
        let base = Plan::new(planned.partition.clone(), 1, m, k, None, &db).unwrap();
        assert_eq!(base.schedule, planned.schedule);
        assert_eq!(base.layer_counts, planned.layer_counts);
        assert_eq!((base.stages, base.dp, base.grad_sync), (4, 1, 0.0));
        let price = planned.price(&db, &cfg).to_bits();
        let sim = base.simulate(&db, cfg.hardware.link_latency, &cfg.event());
        assert_eq!(base.price(&db, &cfg).to_bits(), price);
        assert_eq!(sim.unwrap().iteration_time.to_bits(), price);
        // Interleaved: `chunks` model chunks per device.
        let part = autopipe_planner::baselines::megatron::interleaved_partition(&db, 4, 2);
        let inter = Plan::new(part.unwrap(), 2, m, 0, None, &db).unwrap();
        assert_eq!((inter.stages, inter.schedule.n_chunks), (4, 2));
        validate(&inter.schedule).unwrap();
        let odd = Plan::new(inter.partition, 2, 6, 0, None, &db);
        assert!(matches!(
            odd,
            Err(GenerateError::MicrobatchesNotMultipleOfDepth { .. })
        ));
    }

    #[test]
    fn slicer_can_be_disabled() {
        let cfg = SessionConfig {
            schedule_policy: SchedulePolicy::Plain,
            ..gpt2_345m_p4()
        };
        let (plan, _) = plan(&cfg);
        assert_eq!(plan.schedule.n_sliced, 0);
        validate(&plan.schedule).unwrap();
    }

    #[test]
    fn profiled_planning_still_yields_balanced_schemes() {
        // Planning on noisy measurements must not blow up the balance: the
        // max stage should stay within 30% of the mean.
        let cfg = SessionConfig {
            profiler: Some(ProfilerConfig::default()),
            ..gpt2_345m_p4()
        };
        let (plan, db) = plan(&cfg);
        let sc = plan.partition.stage_costs(&db);
        let mean: f64 = (0..4).map(|x| sc.work(x)).sum::<f64>() / 4.0;
        let max = (0..4).map(|x| sc.work(x)).fold(0.0, f64::max);
        assert!(max < 1.3 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn auto_policy_plans_across_families() {
        let cfg = SessionConfig {
            schedule_policy: SchedulePolicy::Auto,
            ..gpt2_345m_p4()
        };
        let (plan, db) = plan(&cfg);
        validate(&plan.schedule).expect("family winner must validate");
        assert_eq!(plan.partition.n_stages(), plan.schedule.n_stages());
        assert!(plan.price(&db, &cfg) > 0.0);
        let total_layers: f64 = plan.layer_counts.iter().sum();
        assert_eq!(total_layers, 24.0);
    }

    #[test]
    fn auto_policy_is_deterministic() {
        let cfg = SessionConfig {
            schedule_policy: SchedulePolicy::Auto,
            ..gpt2_345m_p4()
        };
        let (a, db) = plan(&cfg);
        let (b, _) = plan(&cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.price(&db, &cfg).to_bits(), b.price(&db, &cfg).to_bits());
    }

    #[test]
    fn slicing_solves_on_the_costs_the_plan_is_priced_on() {
        // GPT-2 345M, 4 stages, m = 8, mbs 4, one device 3× slower. On the
        // costs the plan runs at, Algorithm 2 slices `k` micro-batches; on
        // unmultiplied costs it sliced `old_k`, which prices no faster.
        for (multipliers, k, price, old_k, old_price) in [
            ([3.0, 1.0, 1.0, 1.0], 3, 4.7966, 1, 4.7966),
            ([1.0, 1.0, 1.0, 3.0], 1, 2.4327, 2, 2.4327),
        ] {
            let cfg = SessionConfig {
                fixed_stages: Some(4),
                device_multipliers: multipliers.to_vec(),
                ..SessionConfig::new(zoo::gpt2_345m(), 4, 4, 32)
            };
            let (plan, db) = plan(&cfg);
            assert_eq!(plan.schedule.n_sliced, k, "{multipliers:?}");
            let unmultiplied = plan.partition.stage_costs(&db);
            assert_eq!(plan_slicing(&unmultiplied, 8).n_sliced, old_k);
            let mut old = Plan {
                schedule: one_f_one_b(4, 8),
                ..plan.clone()
            };
            slice(&mut old.schedule, old_k);
            apply_checkpointing(&mut old.schedule);
            let (new, old) = (plan.price(&db, &cfg), old.price(&db, &cfg));
            assert!((new - price).abs() < 5e-5, "{multipliers:?}: {new}");
            assert!((old - old_price).abs() < 5e-5, "{multipliers:?}: {old}");
            assert!(new <= old, "{multipliers:?}: {new} vs {old}");
        }
    }

    #[test]
    fn plan_serialises() {
        let cfg = SessionConfig {
            fixed_stages: Some(2),
            ..SessionConfig::new(zoo::bert_large(), 2, 16, 128)
        };
        let (plan, _) = plan(&cfg);
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"stages\":2"));
    }
}

//! The declared metric names and the one-line result the driver reads.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a unit
//! test keeps the two lists equal.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// A declared metric: its exact name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("work_per_s", "1/s"),
    m("plan_us_p50", "us"),
    m("plan_us_p95", "us"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload does not exercise reports its counts and shares as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // autopipe-tensor, at the workload's dominant [mbs·seq, h] × [h, 4h] shape.
    m("tensor.matmul_gflops", "gflops"),
    m("tensor.matmul_t_gflops", "gflops"),
    m("tensor.t_matmul_gflops", "gflops"),
    m("tensor.block_fwd_us", "us"),
    m("tensor.block_bwd_us", "us"),
    m("tensor.adam_step_us", "us"),
    m("tensor.gemm_share_of_busy", "fraction"),
    // autopipe-runtime stages, from Pipeline::last_timeline().
    m("stage.fwd_us_p50", "us"),
    m("stage.bwd_us_p50", "us"),
    m("stage.busy_share", "fraction"),
    m("stage.bubble_share", "fraction"),
    m("stage.recv_wait_share", "fraction"),
    m("stage.imbalance", "ratio"),
    // autopipe-runtime engine.
    m("engine.iter_ms_p50", "ms"),
    m("engine.iter_ms_p90", "ms"),
    m("engine.outside_timeline_us", "us"),
    m("engine.outside_timeline_share", "fraction"),
    m("engine.step_all_us", "us"),
    m("engine.build_ms", "ms"),
    m("engine.repartition_ms", "ms"),
    m("engine.speedup_vs_reference", "ratio"),
    // autopipe-exec transport and timeline.
    m("transport.msgs_per_iter", "count"),
    m("transport.bytes_per_iter", "bytes"),
    m("transport.roundtrip_us", "us"),
    m("timeline.from_events_us", "us"),
    // autopipe-runtime checkpoint / recovery / elastic.
    m("checkpoint.capture_ms", "ms"),
    m("checkpoint.save_ms", "ms"),
    m("checkpoint.save_mb_s", "MB/s"),
    m("checkpoint.load_ms", "ms"),
    m("checkpoint.bytes", "bytes"),
    m("recovery.count", "count"),
    m("elastic.swaps", "count"),
    m("elastic.degraded_steps", "count"),
    m("churn.wall_vs_clean", "ratio"),
    m("churn.gap_explained_share", "fraction"),
    // root session facade and autopipe-cost.
    m("session.plan_us", "us"),
    m("session.slice_us", "us"),
    m("session.simulate_us", "us"),
    m("cost.costdb_build_us", "us"),
    // autopipe-planner search.
    m("planner.cold_plan_us_p50", "us"),
    m("planner.schemes_per_plan", "count"),
    m("planner.schemes_per_s", "1/s"),
    m("planner.family_us_p50", "us"),
    m("planner.balanced_dp_us", "us"),
    m("planner.plan_quality", "sim_s"),
    // autopipe-slicer, autopipe-schedule, autopipe-sim.
    m("slicer.plan_slicing_us", "us"),
    m("schedule.generate_us", "us"),
    m("schedule.validate_us", "us"),
    m("sim.fast_ns_per_candidate", "ns"),
    m("sim.replay_ns_per_op", "ns"),
    m("sim.event_ns_per_op", "ns"),
    m("sim.memcheck_us", "us"),
    // autopipe-planner PlanService.
    m("service.hit_ns", "ns"),
    m("service.warm_us", "us"),
    m("service.cold_us", "us"),
    m("service.hit_share", "fraction"),
    m("service.warm_share", "fraction"),
    m("service.cold_share", "fraction"),
    m("service.evictions", "1/block"),
    m("service.wall_share", "fraction"),
    m("service.batch_plans_per_s_w1", "1/s"),
    m("service.batch_plans_per_s_w2", "1/s"),
    m("service.batch_scaling", "ratio"),
    // the tracer itself.
    m("trace.overhead_share", "fraction"),
    m("trace.harness_share", "fraction"),
];

/// Metric values keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record `value` under `name`, which must be declared in one of the
    /// two lists — a typo fails here, not in the driver.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared in report.rs"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `defs` present. End-to-end metrics must all have
/// been measured; an unmeasured per-layer metric (a layer the workload does
/// not touch) is reported as 0.
pub fn result_value(
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    metrics: &Metrics,
    require_all: bool,
) -> Value {
    let rows: Vec<(String, Value)> = defs
        .iter()
        .map(|d| {
            let value = match metrics.get(d.name) {
                Some(v) => v,
                None if require_all => panic!("metric {} was not measured", d.name),
                None => 0.0,
            };
            (d.name.to_string(), json!({"value": value, "unit": d.unit}))
        })
        .collect();
    json!({
        "correct": failed == 0,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(rows),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "bad name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn the_emitter_round_trips_every_declared_metric() {
        for (defs, require_all) in [(END_TO_END, true), (PER_LAYER, false)] {
            let mut metrics = Metrics::new();
            for (i, d) in defs.iter().enumerate() {
                metrics.set(d.name, 1.5 + i as f64 / 7.0);
            }
            let line =
                serde_json::to_string(&result_value(12, 0, defs, &metrics, require_all)).unwrap();
            assert!(!line.contains('\n'));
            let back: Value = serde_json::from_str(&line).unwrap();
            let keys: Vec<&str> = back
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(back.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(back.get("attempted").unwrap().as_u64(), Some(12));
            let got = back.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(got.len(), defs.len());
            for ((name, row), (i, d)) in got.iter().zip(defs.iter().enumerate()) {
                assert_eq!(name, d.name);
                assert_eq!(row.get("unit").unwrap().as_str(), Some(d.unit));
                let v = row.get("value").unwrap().as_f64().unwrap();
                assert_eq!(v.to_bits(), (1.5 + i as f64 / 7.0).to_bits());
            }
        }
    }

    #[test]
    fn unmeasured_per_layer_metrics_read_zero_and_failures_flip_correct() {
        let v = result_value(3, 1, PER_LAYER, &Metrics::new(), false);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        let rows = v.get("metrics").unwrap().as_object().unwrap();
        assert!(rows
            .iter()
            .all(|(_, r)| r.get("value").unwrap().as_f64() == Some(0.0)));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let decl: Value = serde_json::from_str(&text).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = decl.get(key).unwrap().as_array().unwrap();
            let got: Vec<(&str, &str)> = rows
                .iter()
                .map(|r| {
                    (
                        r.get("name").unwrap().as_str().unwrap(),
                        r.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(got, want, "{key} differs from report.rs");
        }
        let workloads: Vec<&str> = decl
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}

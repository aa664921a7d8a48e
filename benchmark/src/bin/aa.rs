//! A/A self-check: run the whole benchmark twice on the same build — the
//! two sides take turns, seed by seed — and judge them against each other
//! with the acceptance driver's own rules (see `README.md`):
//!
//! * per side and per (workload, end-to-end metric): the median over the
//!   untraced runs (one seed each) and their spread — the distance between
//!   the first and third quartile as a share of the median — which must stay
//!   within the metric's bound (`setup_s` excepted);
//! * side B's median may not be worse than side A's by more than the bound;
//! * every run is correct, and every count agrees exactly between the sides.
//!
//! Prints the table, and writes side A (all metrics with quartiles and
//! sample counts) to `--out` as the committed baseline.
//!
//! `aa [--runs 10] [--traced-runs 3] [--seed <n>] [--out <file>]`

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use autopipe_e2e_bench::stats::{quartiles, spread};
use autopipe_e2e_bench::{env, DEFAULT_SEED};
use serde_json::{json, Value};

/// Per-layer metrics that do not depend on timing: counts fixed by the
/// seed, the schedule or the search.
const EXACT: [&str; 10] = [
    "transport.msgs_per_iter",
    "transport.bytes_per_iter",
    "recovery.count",
    "elastic.swaps",
    "elastic.degraded_steps",
    "planner.schemes_per_plan",
    "planner.plan_quality",
    "service.hit_share",
    "service.warm_share",
    "service.cold_share",
];

/// One declared end-to-end metric.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// `metric name → one value per run` for a workload.
type Series = BTreeMap<String, Vec<f64>>;

struct Side {
    /// Per workload: untraced (end-to-end) and traced (per-layer) series.
    end_to_end: BTreeMap<String, Series>,
    per_layer: BTreeMap<String, Series>,
    units: BTreeMap<String, String>,
    incorrect_runs: usize,
}

fn e2e_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.with_file_name(format!("e2e{}", std::env::consts::EXE_SUFFIX))
}

/// Run one workload once; returns the parsed result object.
fn run_once(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let out = Command::new(e2e_binary())
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("e2e binary runs (build it first: see aa.sh)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).unwrap_or_else(|e| {
        panic!(
            "{workload} seed {seed}: unreadable result ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

fn collect(result: &Value, series: &mut Series, units: &mut BTreeMap<String, String>) -> bool {
    for (name, row) in result.get("metrics").unwrap().as_object().unwrap() {
        let value = row.get("value").unwrap().as_f64().unwrap();
        series.entry(name.clone()).or_default().push(value);
        let unit = row.get("unit").unwrap().as_str().unwrap();
        units.insert(name.clone(), unit.to_string());
    }
    result.get("correct").and_then(Value::as_bool) == Some(true)
}

impl Side {
    fn new() -> Side {
        Side {
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            units: BTreeMap::new(),
            incorrect_runs: 0,
        }
    }
}

/// Run both sides, one seed at a time, alternating which side goes first:
/// the machine's speed drifts over minutes, and an A/A check must see the
/// benchmark's own noise, not the drift between two sittings.
fn run_sides(workloads: &[String], seeds: &[u64], traced_runs: usize, seconds: u64) -> [Side; 2] {
    let mut sides = [Side::new(), Side::new()];
    for w in workloads {
        for (trace, seeds) in [
            (false, seeds),
            (true, &seeds[..traced_runs.min(seeds.len())]),
        ] {
            for (i, &seed) in seeds.iter().enumerate() {
                for which in [i % 2, 1 - i % 2] {
                    eprintln!(
                        "side {}: {w} seed {seed} trace {}",
                        ["A", "B"][which],
                        trace as u8
                    );
                    let result = run_once(w, seed, seconds, trace);
                    let side = &mut sides[which];
                    let table = if trace {
                        &mut side.per_layer
                    } else {
                        &mut side.end_to_end
                    };
                    let series = table.entry(w.clone()).or_default();
                    if !collect(&result, series, &mut side.units) {
                        side.incorrect_runs += 1;
                    }
                }
            }
        }
    }
    sides
}

fn median_of(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    quartiles(values)[1]
}

fn summary(values: &[f64], unit: &str) -> Value {
    let (q, s) = if values.len() >= 2 {
        (quartiles(values), spread(values))
    } else {
        ([median_of(values); 3], 0.0)
    };
    json!({
        "median": q[1],
        "q1": q[0],
        "q3": q[2],
        "spread": s,
        "samples": values.len(),
        "unit": unit,
    })
}

fn side_json(side: &Side) -> Value {
    let table = |by_workload: &BTreeMap<String, Series>| {
        Value::Object(
            by_workload
                .iter()
                .map(|(w, series)| {
                    let rows = series
                        .iter()
                        .map(|(name, values)| (name.clone(), summary(values, &side.units[name])))
                        .collect();
                    (w.clone(), Value::Object(rows))
                })
                .collect(),
        )
    };
    json!({
        "end_to_end": table(&side.end_to_end),
        "per_layer": table(&side.per_layer),
    })
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env::bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let mut runs = 10usize;
    let mut traced_runs = 3usize;
    let mut seed = DEFAULT_SEED;
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().expect("every flag takes a value");
        match flag.as_str() {
            "--runs" => runs = value.parse().expect("--runs <n>"),
            "--traced-runs" => traced_runs = value.parse().expect("--traced-runs <n>"),
            "--seed" => seed = value.parse().expect("--seed <n>"),
            "--out" => out = Some(value.into()),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(runs >= 2, "quartiles need at least two runs");

    let decl_path = env::bench_dir().join("../BENCHMARK.json");
    let decl: Value = serde_json::from_str(
        &std::fs::read_to_string(&decl_path).expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses");
    let seconds = decl.get("run_seconds").unwrap().as_u64().unwrap();
    let workloads: Vec<String> = decl
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    let declared: Vec<Declared> = decl
        .get("end_to_end")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| Declared {
            name: m.get("name").unwrap().as_str().unwrap().to_string(),
            higher_is_better: m.get("better").unwrap().as_str() == Some("higher"),
            bound: m.get("bound").unwrap().as_f64().unwrap(),
        })
        .collect();

    // Both sides use the same seeds, one per run.
    let seeds: Vec<u64> = (0..runs as u64).map(|i| seed + i).collect();
    let [a, b] = run_sides(&workloads, &seeds, traced_runs, seconds);

    let mut failures = 0usize;
    println!(
        "A/A on commit {} — {} runs x {} s per (side, workload), seeds {}..{}, {} cores",
        git_commit(),
        runs,
        seconds,
        seeds[0],
        seeds[runs - 1],
        env::machine_cores()
    );
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for w in &workloads {
        for d in &declared {
            let (va, vb) = (&a.end_to_end[w][&d.name], &b.end_to_end[w][&d.name]);
            let (ma, mb) = (median_of(va), median_of(vb));
            // Positive = side B is worse.
            let worse = if d.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (spread(va), spread(vb));
            let steady = d.name == "setup_s" || (sa <= d.bound && sb <= d.bound);
            let ok = steady && worse <= d.bound;
            if !ok {
                failures += 1;
            }
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+7.2}% {:>8.2}% {:>8.2}% {:>5.0}%  {}",
                w,
                d.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * sa,
                100.0 * sb,
                100.0 * d.bound,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }

    // The same seed must give the same exact count on both sides.
    let mut count_mismatches = Vec::new();
    for w in &workloads {
        for name in EXACT {
            let (va, vb) = (&a.per_layer[w][name], &b.per_layer[w][name]);
            if va != vb {
                count_mismatches.push(format!("{w}/{name}: {va:?} vs {vb:?}"));
            }
        }
    }
    println!(
        "exact counts: {}",
        if count_mismatches.is_empty() {
            "all agree between the sides".to_string()
        } else {
            format!("MISMATCH {count_mismatches:?}")
        }
    );
    println!(
        "incorrect runs: {} (side A) + {} (side B)",
        a.incorrect_runs, b.incorrect_runs
    );
    failures += count_mismatches.len() + a.incorrect_runs + b.incorrect_runs;
    println!(
        "{}",
        if failures == 0 {
            "A/A PASS"
        } else {
            "A/A FAIL"
        }
    );

    if let Some(path) = out {
        let record = json!({
            "claim": Value::Null,
            "commit": git_commit(),
            "machine_cores": env::machine_cores(),
            "run_seconds": seconds,
            "seeds": seeds,
            "traced_runs": traced_runs,
            "baseline": side_json(&a),
        });
        let text = serde_json::to_string_pretty(&record).expect("baseline renders");
        std::fs::write(&path, text + "\n").expect("baseline written");
        eprintln!("wrote {}", path.display());
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

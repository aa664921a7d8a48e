//! Two churned training runs' reports, pinned field by field.
//!
//! `tests/data/run_golden.txt` holds one line per session, each shaped like
//! the benchmark's `train_churn` script: a restartable `StageCrash` in the
//! first iteration, a `Leave` → `Join` cycle on device 1, and a 2×
//! `Slowdown` on device 0 once the pipeline is back at full width, with
//! background checkpoints every other step. Each line records the family
//! the run finished on, the final partition, the recovery and re-plan
//! counts, the elastic and recovery logs, every step's loss and the final
//! `param_checksum` as bit patterns. A change to the run's control plane
//! must reproduce every field; a change that is *meant* to alter what a
//! churned run does regenerates the table with
//! `cargo test --release --test run_golden -- --ignored --nocapture`.

use std::time::Duration;

use autopipe::model::zoo;
use autopipe::runtime::WatchdogConfig;
use autopipe::{ElasticConfig, MembershipConfig, RecoveryConfig, SchedulePolicy, Session};
use autopipe_exec::{FaultPlan, MembershipChange, MembershipFault, StageCrash};

const ITERATIONS: usize = 12;

/// (label, stages, policy, crash op, leave step, slowdown step). Device 1
/// joins four steps after it leaves.
const SESSIONS: [(&str, usize, SchedulePolicy, usize, u64, u64); 2] = [
    ("p=2 policy=slicer", 2, SchedulePolicy::Slicer, 1, 2, 9),
    ("p=3 policy=auto", 3, SchedulePolicy::Auto, 2, 3, 10),
];

fn script(crash_op: usize, leave: u64, slow: u64) -> FaultPlan {
    let at = |device, at_step, change| MembershipFault {
        device,
        at_step,
        change,
    };
    FaultPlan {
        crashes: vec![StageCrash {
            device: 1,
            at_op: crash_op,
        }],
        membership: vec![
            at(1, leave, MembershipChange::Leave),
            at(1, leave + 4, MembershipChange::Join),
            at(0, slow, MembershipChange::Slowdown { factor: 2.0 }),
        ],
        ..FaultPlan::with_seed(7)
    }
}

/// The table the current build produces, in the golden file's format.
fn table() -> String {
    let mut out = String::new();
    for (label, stages, policy, crash_op, leave, slow) in SESSIONS {
        let dir = std::env::temp_dir().join(format!(
            "autopipe_run_golden_{stages}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let report = Session::for_model(zoo::gpt2_tiny())
            .stages(stages)
            .microbatches(4)
            .microbatch_size(2)
            .seed(11)
            .iterations(ITERATIONS)
            .schedule_policy(policy)
            .watchdog(WatchdogConfig {
                base_timeout: Duration::from_millis(100),
                slack: 4.0,
                backoff: 2.0,
                max_retries: 3,
                jitter_seed: 0,
            })
            .faults(script(crash_op, leave, slow), 0.0)
            .recovery(RecoveryConfig {
                cadence: 2,
                retain: 3,
                background: true,
                ..RecoveryConfig::new(&dir)
            })
            .elastic(ElasticConfig {
                membership: MembershipConfig {
                    suspect_after: 1,
                    quarantine_after: 2,
                    evict_after: 4,
                    quarantine_cooldown: 1,
                    ..MembershipConfig::default()
                },
                ..ElasticConfig::default()
            })
            .plan()
            .unwrap()
            .slice()
            .unwrap()
            .run()
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let losses: Vec<String> = (report.losses.iter())
            .map(|l| format!("{:08x}", l.to_bits()))
            .collect();
        out.push_str(&format!(
            "{label} family={:?} partition={:?} recoveries={} replans={} elastic_log={:?} \
             recovery_log={:?} loss_bits={} checksum_bits={:016x}\n",
            report.family,
            report.final_partition.boundaries(),
            report.recoveries,
            report.replans,
            report.elastic_log,
            report.recovery_log,
            losses.join(","),
            report.param_checksum.to_bits()
        ));
    }
    out
}

#[test]
fn churned_runs_match_the_golden_table() {
    let want = include_str!("data/run_golden.txt");
    let got = table();
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "churned run differs from the committed table");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
#[ignore = "prints the table for tests/data/run_golden.txt"]
fn print_golden_table() {
    print!("{}", table());
}

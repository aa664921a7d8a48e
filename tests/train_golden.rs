//! A short training run's losses and final parameters, pinned against bit
//! patterns captured before the tensor kernels were rewritten.
//!
//! `tests/data/train_golden.txt` holds one line per configuration of
//! `Session::for_model(zoo::gpt2_tiny())`, three iterations at a fixed seed:
//! the family the run finished on, whether the plan carried a recompute mask,
//! every step's loss and the final `param_checksum` as bit patterns. The
//! configurations cover fused backward (sliced 1F1B) and whatever family
//! `SchedulePolicy::Auto` picks (zero-bubble, so split backward) at two and
//! four stages, and a recompute mask forced by a memory budget. A kernel or
//! op change must reproduce every field exactly; a change that is *meant* to
//! alter the numerics regenerates the table with
//! `cargo test --release --test train_golden -- --ignored --nocapture`.

use autopipe::model::zoo;
use autopipe::schedule::ScheduleKind;
use autopipe::{RecomputePolicy, SchedulePolicy, Session};

const SEED: u64 = 20_220_906;
const ITERATIONS: usize = 3;
const MICROBATCHES: usize = 4;
const MBS: usize = 2;

/// A per-device byte budget under which four-stage `gpt2_tiny` at
/// [`MICROBATCHES`] × [`MBS`] only fits with a recompute mask: the plain peak
/// of the same request is 1 910 296 bytes and nothing fits below ≈ 1.45 MB
/// (weights and optimiser state dominate; at two stages no budget under the
/// peak is plannable at all).
const RECOMPUTE_STAGES: usize = 4;
const RECOMPUTE_BUDGET: u64 = 1_528_236;

fn base(p: usize) -> Session {
    Session::for_model(zoo::gpt2_tiny())
        .stages(p)
        .microbatches(MICROBATCHES)
        .microbatch_size(MBS)
        .seed(SEED)
        .iterations(ITERATIONS)
}

fn configurations() -> Vec<(String, Session)> {
    let mut out = Vec::new();
    for p in [2, 4] {
        out.push((format!("p={p} policy=slicer"), base(p)));
        out.push((
            format!("p={p} policy=auto"),
            base(p).schedule_policy(SchedulePolicy::Auto),
        ));
    }
    out.push((
        format!("p={RECOMPUTE_STAGES} policy=auto budget={RECOMPUTE_BUDGET}"),
        base(RECOMPUTE_STAGES)
            .schedule_policy(SchedulePolicy::Auto)
            .recompute_policy(RecomputePolicy::Auto)
            .memory_budget(RECOMPUTE_BUDGET),
    ));
    out
}

/// The family column as the table was captured, when sliced 1F1B was a
/// family of its own rather than 1F1B with `n_sliced > 0`.
fn family_label(kind: ScheduleKind, n_sliced: usize) -> String {
    match kind {
        ScheduleKind::OneFOneB if n_sliced > 0 => "Sliced1F1B".into(),
        _ => format!("{kind:?}"),
    }
}

/// The table the current build produces, in the golden file's format.
fn table() -> String {
    let mut out = String::new();
    for (name, session) in configurations() {
        let planned = session.plan().unwrap().slice().unwrap();
        // Checkpointing puts `Recompute` ops in every plan; the column is
        // the memory mask, which only the budget buys.
        let recompute = planned.plan().schedule.recompute.contains(&true);
        // No configuration re-plans, so the run finishes on the planned
        // schedule's slicing.
        let n_sliced = planned.plan().schedule.n_sliced;
        let report = planned.run().unwrap();
        let losses: Vec<String> = report
            .losses
            .iter()
            .map(|l| format!("{:08x}", l.to_bits()))
            .collect();
        out.push_str(&format!(
            "{name} family={} recompute={recompute} loss_bits={} checksum_bits={:016x}\n",
            family_label(report.family, n_sliced),
            losses.join(","),
            report.param_checksum.to_bits()
        ));
    }
    out
}

#[test]
fn training_runs_match_the_golden_table() {
    let want = include_str!("data/train_golden.txt");
    let got = table();
    assert!(
        got.contains("recompute=true"),
        "no configuration carried a recompute mask:\n{got}"
    );
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "training run differs from the committed table");
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
#[ignore = "prints the table for tests/data/train_golden.txt"]
fn print_golden_table() {
    print!("{}", table());
}

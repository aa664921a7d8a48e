//! Experiment harness: regenerates every table and figure of the AutoPipe
//! paper's evaluation (§IV) against the discrete-event cluster simulator.
//!
//! `cargo run -p autopipe-bench --release --bin exp -- <experiment>` where
//! `<experiment>` is one of `table1 table2 fig9 fig10 fig11 table3 table4
//! fig12 fig13 fig14a fig14b ablations scaling trace all`. Each experiment
//! prints the same rows or series the paper reports and overwrites
//! `results/<experiment>.json` with them (`trace` writes one
//! `results/trace_<system>.json` per system).

pub mod exps;
mod report;
pub mod systems;

//! Cross-family schedule search.
//!
//! The AutoPipe planner ([`crate::autopipe`]) optimises the *partition* for
//! a fixed 1F1B schedule. This module searches the orthogonal axis: given a
//! cost database and a device count, it enumerates every schedule family
//! the IR can generate — plain 1F1B, sliced 1F1B at several slice counts,
//! GPipe, zero-bubble, and Megatron-style interleaving at several chunk
//! depths — pairs each with an appropriate balanced partition, gates each
//! candidate on [`autopipe_schedule::validate()`] and the static memory check
//! ([`autopipe_sim::memcheck`]), and scores the survivors with the event
//! simulator's sweep, untraced ([`autopipe_sim::replay_schedule`]).
//!
//! The enumeration is **sequential and in a fixed order**, candidates are
//! ranked by strict `<` on simulated iteration time (ties keep the earlier
//! candidate), and the underlying partition search is itself deterministic
//! — so the family pick is fully deterministic.

use autopipe_cost::{CostDb, Hardware};
use autopipe_schedule::{apply_recompute, generators, validate, Schedule, ScheduleKind};
use autopipe_sim::event::{EventConfig, EventCosts};
use autopipe_sim::memcheck::{check_memory_budget, device_memory};
use autopipe_sim::{replay_schedule, CommConfig, Partition, ReplayScratch};

use crate::autopipe::{
    apply_device_multipliers, plan as autopipe_plan, AutoPipeConfig, RecomputePolicy,
};
use crate::balanced::balanced_partition;
use crate::types::PlanError;

/// Knobs for the cross-family search.
#[derive(Debug, Clone)]
pub struct FamilyConfig {
    /// Slice counts to try for the Sliced1F1B family (counts outside
    /// `2..=m` are skipped). Callers with a Slicer in hand can prepend
    /// Algorithm 2's pick; the search still scores every entry.
    pub sliced_counts: Vec<usize>,
    /// Chunks-per-device depths to try for the interleaved family.
    pub chunk_counts: Vec<usize>,
    /// Per-message latency (α) used to split stage comm costs when scoring.
    pub latency: f64,
    /// Comm engine the candidates are scored under: blocking sends
    /// (default) or the overlapped engine with eager chunked transfers.
    /// Matches the executors' [`CommConfig`] exactly, so the family ranking
    /// reflects how the plan will actually run.
    pub comm: CommConfig,
    /// Partition-search knobs for the backing AutoPipe planner run.
    pub autopipe: AutoPipeConfig,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            sliced_counts: vec![2, 3],
            chunk_counts: vec![2],
            latency: 30e-6,
            comm: CommConfig::default(),
            autopipe: AutoPipeConfig::default(),
        }
    }
}

impl FamilyConfig {
    /// The canonical lowering from planner knobs to family-search knobs:
    /// candidates are scored under the same comm engine the partition
    /// search models (`autopipe.overlap` ⇒ overlapped eager sends with the
    /// same chunk count, else blocking) and the same budget/recompute
    /// constraints, so the family ranking and the partition ranking never
    /// disagree about the cost model. Every caller that assembles a
    /// [`FamilyConfig`] from an [`AutoPipeConfig`] should go through here.
    pub fn for_planner(autopipe: AutoPipeConfig, latency: f64) -> FamilyConfig {
        FamilyConfig {
            latency,
            comm: match autopipe.overlap {
                Some(o) => CommConfig::overlapped(o.chunks),
                None => CommConfig::default(),
            },
            autopipe,
            ..FamilyConfig::default()
        }
    }
}

/// One evaluated (or skipped) candidate, for reports and benches.
#[derive(Debug, Clone)]
pub struct FamilyCandidate {
    /// Schedule family.
    pub kind: ScheduleKind,
    /// Slice count (Sliced1F1B only, else 0).
    pub n_sliced: usize,
    /// Chunks per device (1 except interleaved).
    pub n_chunks: usize,
    /// Per-stage recompute mask the candidate was scored under (empty when
    /// the candidate was skipped before the memory gate resolved one).
    pub recompute: Vec<bool>,
    /// Simulated iteration time; `None` when the candidate was skipped.
    pub iteration_time: Option<f64>,
    /// Why the candidate was skipped (generator guard, OOM, …).
    pub skipped: Option<String>,
}

/// Result of the cross-family search.
#[derive(Debug, Clone)]
pub struct FamilyOutcome {
    /// The winning schedule.
    pub schedule: Schedule,
    /// The partition paired with it (`schedule.n_stages()` stages).
    pub partition: Partition,
    /// Its simulated iteration time (`replay_schedule`).
    pub iteration_time: f64,
    /// Every candidate considered, in enumeration order.
    pub candidates: Vec<FamilyCandidate>,
    /// The winner's per-stage recompute mask (all-false when the budget was
    /// met without recomputation; the schedule already carries the matching
    /// `Recompute` ops).
    pub recompute: Vec<bool>,
}

/// Search across schedule families for the best (schedule, partition) pair
/// on `p` devices with `m` micro-batches.
///
/// The returned plan always passes `validate` and `check_memory`; if *no*
/// family fits the memory budget the search errors instead of returning an
/// OOM plan.
pub fn plan_families(
    db: &CostDb,
    hw: &Hardware,
    p: usize,
    m: usize,
    cfg: &FamilyConfig,
) -> Result<FamilyOutcome, PlanError> {
    let base = autopipe_plan(db, p, m, &cfg.autopipe)?.partition;
    plan_families_with(db, hw, p, m, cfg, base)
}

/// [`plan_families`] around a partition the caller already holds: `base`
/// must be the `p`-stage plan of `(db, p, m, cfg.autopipe)` — strategy
/// selection has just searched exactly that, cold or through a plan cache,
/// so the front-end hands its winner forward instead of searching (or
/// looking up and deep-cloning) it a second time. The family enumeration
/// and ranking are unchanged.
pub fn plan_families_with(
    db: &CostDb,
    hw: &Hardware,
    p: usize,
    m: usize,
    cfg: &FamilyConfig,
    base: Partition,
) -> Result<FamilyOutcome, PlanError> {
    // One optimised p-stage partition backs every single-chunk family.
    let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();

    // Fixed enumeration order; ties in the ranking keep the earlier entry.
    let mut entries: Vec<(Schedule, Partition)> = Vec::new();
    let mut candidates: Vec<FamilyCandidate> = Vec::new();
    let skip = |candidates: &mut Vec<FamilyCandidate>,
                kind: ScheduleKind,
                n_sliced: usize,
                n_chunks: usize,
                why: String| {
        candidates.push(FamilyCandidate {
            kind,
            n_sliced,
            n_chunks,
            recompute: Vec::new(),
            iteration_time: None,
            skipped: Some(why),
        });
    };

    entries.push((generators::one_f_one_b(p, m), base.clone()));
    for &s in &cfg.sliced_counts {
        if s < 2 || s > m {
            skip(
                &mut candidates,
                ScheduleKind::Sliced1F1B,
                s,
                1,
                format!("slice count {s} outside 2..={m}"),
            );
            continue;
        }
        entries.push((generators::sliced_1f1b(p, m, s), base.clone()));
    }
    entries.push((generators::gpipe(p, m), base.clone()));
    entries.push((generators::zero_bubble(p, m), base.clone()));
    for &v in &cfg.chunk_counts {
        if v < 2 {
            skip(
                &mut candidates,
                ScheduleKind::Interleaved,
                0,
                v,
                format!("chunk depth {v} < 2"),
            );
            continue;
        }
        if p * v > weights.len() {
            skip(
                &mut candidates,
                ScheduleKind::Interleaved,
                0,
                v,
                format!("{} chunk-stages but only {} blocks", p * v, weights.len()),
            );
            continue;
        }
        match generators::interleaved(p, v, m) {
            Ok(sched) => entries.push((sched, balanced_partition(&weights, p * v))),
            Err(e) => skip(
                &mut candidates,
                ScheduleKind::Interleaved,
                0,
                v,
                e.to_string(),
            ),
        }
    }

    // Gate and score sequentially; interleave the skip records so
    // `candidates` reflects enumeration order. The memory gate tries
    // recompute masks in a fixed order per candidate — none, then (under
    // `Auto`) the minimal mask covering the over-budget devices, then all
    // stages — so the family × recompute pick stays fully deterministic.
    let budget = cfg
        .autopipe
        .memory_budget
        .unwrap_or_else(|| hw.mem_budget());
    let policy = cfg.autopipe.recompute;
    let mut scratch = ReplayScratch::new();
    let mut best: Option<(usize, f64)> = None; // (entries index, time)
    let mut best_mask: Vec<bool> = Vec::new();
    for idx in 0..entries.len() {
        let (sched, partition) = &entries[idx];
        let mut cand = FamilyCandidate {
            kind: sched.kind,
            n_sliced: sched.n_sliced,
            n_chunks: sched.n_chunks,
            recompute: Vec::new(),
            iteration_time: None,
            skipped: None,
        };
        if let Err(e) = validate(sched) {
            cand.skipped = Some(format!("validate: {e}"));
            candidates.push(cand);
            continue;
        }
        let n_stages = sched.n_stages();
        let mut attempts: Vec<Vec<bool>> = Vec::new();
        match policy {
            RecomputePolicy::Off => attempts.push(vec![false; n_stages]),
            RecomputePolicy::All => attempts.push(vec![true; n_stages]),
            RecomputePolicy::Auto => {
                attempts.push(vec![false; n_stages]);
                // Minimal mask: recompute exactly on the stages of the
                // devices that blow the budget with full stashes.
                let usage = device_memory(partition, db, sched);
                let mut minimal = vec![false; n_stages];
                let mut any = false;
                for (dev, bd) in usage.iter().enumerate() {
                    if bd.total() > budget {
                        any = true;
                        for c in 0..sched.n_chunks {
                            minimal[sched.stage_of(dev, c)] = true;
                        }
                    }
                }
                if any {
                    let partial = !minimal.iter().all(|&r| r);
                    attempts.push(minimal);
                    if partial {
                        attempts.push(vec![true; n_stages]);
                    }
                }
            }
        }
        // The schedule is copied only when a mask actually rewrites it.
        let mut chosen: Option<(Option<Schedule>, Vec<bool>)> = None;
        let mut oom_note: Option<String> = None;
        for mask in attempts {
            let masked = mask.iter().any(|&r| r).then(|| {
                let mut masked = sched.clone();
                apply_recompute(&mut masked, &mask);
                masked
            });
            match check_memory_budget(partition, db, masked.as_ref().unwrap_or(sched), budget) {
                Ok(_) => {
                    chosen = Some((masked, mask));
                    break;
                }
                Err(e) => oom_note = Some(e.to_string()),
            }
        }
        let Some((masked_sched, mask)) = chosen else {
            cand.skipped = oom_note;
            candidates.push(cand);
            continue;
        };
        let mut sc = if mask.iter().any(|&r| r) {
            partition.stage_costs_recompute(db, &mask)
        } else {
            partition.stage_costs(db)
        };
        // Stage s of a v-chunk interleaved partition runs on device s % p;
        // `device_multiplier` wraps by profile length, which the coordinator
        // sizes to the device count.
        apply_device_multipliers(db, &mut sc);
        let costs = EventCosts::from_stage_costs(&sc, cfg.latency);
        let ev = EventConfig {
            comm: cfg.comm,
            ..EventConfig::default()
        };
        let scored = replay_schedule(
            masked_sched.as_ref().unwrap_or(sched),
            &costs,
            &ev,
            &mut scratch,
        );
        match scored {
            Ok(summary) => {
                cand.iteration_time = Some(summary.iteration_time);
                cand.recompute = mask;
                if let Some(masked_sched) = masked_sched {
                    entries[idx].0 = masked_sched;
                }
                if best.is_none_or(|(_, t)| summary.iteration_time < t) {
                    best = Some((idx, summary.iteration_time));
                    best_mask = cand.recompute.clone();
                }
            }
            Err(e) => cand.skipped = Some(e.to_string()),
        }
        candidates.push(cand);
    }

    let Some((idx, iteration_time)) = best else {
        return Err(PlanError::Infeasible(format!(
            "no schedule family fits on {p} devices with {m} micro-batches: {}",
            candidates
                .iter()
                .filter_map(|c| c.skipped.as_deref())
                .collect::<Vec<_>>()
                .join("; ")
        )));
    };
    let (schedule, partition) = entries.swap_remove(idx);
    Ok(FamilyOutcome {
        schedule,
        partition,
        iteration_time,
        candidates,
        recompute: best_mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::{zoo, Granularity};
    use autopipe_schedule::recompute_mask;
    use autopipe_sim::memcheck::check_memory;

    fn db(mbs: usize) -> CostDb {
        CostDb::build(
            &zoo::gpt2_345m(),
            &Hardware::rtx3090_cluster(),
            mbs,
            true,
            Granularity::SubLayer,
        )
    }

    #[test]
    fn search_considers_every_family() {
        let d = db(4);
        let hw = Hardware::rtx3090_cluster();
        let out = plan_families(&d, &hw, 4, 8, &FamilyConfig::default()).unwrap();
        let kinds: Vec<ScheduleKind> = out.candidates.iter().map(|c| c.kind).collect();
        for want in [
            ScheduleKind::OneFOneB,
            ScheduleKind::Sliced1F1B,
            ScheduleKind::GPipe,
            ScheduleKind::ZeroBubble,
            ScheduleKind::Interleaved,
        ] {
            assert!(kinds.contains(&want), "missing {want:?} in {kinds:?}");
        }
    }

    #[test]
    fn winner_validates_and_fits_memory() {
        let d = db(4);
        let hw = Hardware::rtx3090_cluster();
        let out = plan_families(&d, &hw, 4, 8, &FamilyConfig::default()).unwrap();
        validate(&out.schedule).unwrap();
        check_memory(&out.partition, &d, &out.schedule, &hw).unwrap();
        assert_eq!(out.partition.n_stages(), out.schedule.n_stages());
    }

    #[test]
    fn winner_is_at_least_as_fast_as_plain_1f1b() {
        let d = db(4);
        let hw = Hardware::rtx3090_cluster();
        let out = plan_families(&d, &hw, 4, 8, &FamilyConfig::default()).unwrap();
        let plain = out
            .candidates
            .iter()
            .find(|c| c.kind == ScheduleKind::OneFOneB)
            .and_then(|c| c.iteration_time)
            .expect("plain 1F1B must be scored");
        assert!(out.iteration_time <= plain);
    }

    #[test]
    fn memory_pressure_rules_out_hungry_families() {
        // At mbs 32 the interleaved family OOMs on the 3090 cluster (the
        // memcheck tests pin this); the search must simply skip it, and the
        // skip note must say OOM.
        let d = db(32);
        let hw = Hardware::rtx3090_cluster();
        let out = plan_families(&d, &hw, 4, 8, &FamilyConfig::default()).unwrap();
        let int = out
            .candidates
            .iter()
            .find(|c| c.kind == ScheduleKind::Interleaved)
            .unwrap();
        assert!(int.iteration_time.is_none());
        assert!(
            int.skipped.as_deref().unwrap().contains("OOM"),
            "{:?}",
            int.skipped
        );
        assert_ne!(out.schedule.kind, ScheduleKind::Interleaved);
    }

    #[test]
    fn default_search_never_recomputes() {
        // Policy `Off` (the default) must leave every scored candidate —
        // and the winning schedule — recompute-free, so existing callers
        // see exactly the pre-budget behaviour.
        let d = db(4);
        let hw = Hardware::rtx3090_cluster();
        let out = plan_families(&d, &hw, 4, 8, &FamilyConfig::default()).unwrap();
        for c in &out.candidates {
            if c.iteration_time.is_some() {
                assert!(c.recompute.iter().all(|&r| !r), "{:?}", c.kind);
            }
        }
        assert!(recompute_mask(&out.schedule).iter().all(|&r| !r));
    }

    #[test]
    fn auto_policy_recomputes_families_the_budget_rules_out() {
        // Pick a budget between GPipe's full-stash peak and its
        // full-recompute peak (and above plain 1F1B's peak so the backing
        // partition search is unaffected): `Off` must skip GPipe with an
        // OOM note, `Auto` must score it under a recompute mask.
        let d = db(16);
        let hw = Hardware::rtx3090_cluster();
        let (p, m) = (4, 8);
        let part = autopipe_plan(&d, p, m, &AutoPipeConfig::default())
            .unwrap()
            .partition;
        let peak = |sched: &Schedule| {
            device_memory(&part, &d, sched)
                .iter()
                .map(|b| b.total())
                .max()
                .unwrap()
        };
        let plain_1f1b = peak(&generators::one_f_one_b(p, m));
        let gp = generators::gpipe(p, m);
        let gp_plain = peak(&gp);
        let mut gp_rec = gp.clone();
        apply_recompute(&mut gp_rec, &vec![true; p]);
        let floor = plain_1f1b.max(peak(&gp_rec));
        assert!(floor < gp_plain, "no budget window: {floor} vs {gp_plain}");
        let budget = floor + (gp_plain - floor) / 2;
        let mk = |policy| FamilyConfig {
            autopipe: AutoPipeConfig {
                memory_budget: Some(budget),
                recompute: policy,
                ..Default::default()
            },
            ..Default::default()
        };
        let off = plan_families(&d, &hw, p, m, &mk(RecomputePolicy::Off)).unwrap();
        let off_gp = off
            .candidates
            .iter()
            .find(|c| c.kind == ScheduleKind::GPipe)
            .unwrap();
        assert!(off_gp.iteration_time.is_none());
        assert!(
            off_gp.skipped.as_deref().unwrap().contains("OOM"),
            "{:?}",
            off_gp.skipped
        );
        let auto = plan_families(&d, &hw, p, m, &mk(RecomputePolicy::Auto)).unwrap();
        let auto_gp = auto
            .candidates
            .iter()
            .find(|c| c.kind == ScheduleKind::GPipe)
            .unwrap();
        assert!(auto_gp.iteration_time.is_some(), "{:?}", auto_gp.skipped);
        assert!(auto_gp.recompute.iter().any(|&r| r));
        // Recompute-free families score identically under both policies.
        let off_plain = off
            .candidates
            .iter()
            .find(|c| c.kind == ScheduleKind::OneFOneB)
            .and_then(|c| c.iteration_time)
            .unwrap();
        let auto_plain = auto
            .candidates
            .iter()
            .find(|c| c.kind == ScheduleKind::OneFOneB)
            .and_then(|c| c.iteration_time)
            .unwrap();
        assert_eq!(off_plain.to_bits(), auto_plain.to_bits());
    }

    #[test]
    fn infeasible_slice_counts_are_recorded_not_fatal() {
        let d = db(4);
        let hw = Hardware::rtx3090_cluster();
        let cfg = FamilyConfig {
            sliced_counts: vec![1, 99],
            ..Default::default()
        };
        let out = plan_families(&d, &hw, 4, 8, &cfg).unwrap();
        let skips: Vec<&FamilyCandidate> = out
            .candidates
            .iter()
            .filter(|c| c.kind == ScheduleKind::Sliced1F1B)
            .collect();
        assert_eq!(skips.len(), 2);
        assert!(skips.iter().all(|c| c.skipped.is_some()));
    }
}

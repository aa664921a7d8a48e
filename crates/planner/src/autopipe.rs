//! The AutoPipe Planner: heuristic pipeline planning by master-stage
//! movement (§III-B.2).
//!
//! The search loop mirrors the paper's four steps:
//!
//! 1. Seed with Algorithm 1's relatively balanced scheme; simulate it to get
//!    the master stage `i` and iteration time.
//! 2. **Cooldown adjustment**: redistribute the blocks behind stage `i` so
//!    that for every `s > i`, `Σ_{j=i+1..s}(f_j + b_j) ≤ (s−i)·b_i` (Eq. 1)
//!    — then the master stage's Cooldown backwards run back-to-back with no
//!    bubble (Fig. 7c).
//! 3. **Master shifting**: move the master stage forward by moving its first
//!    block to stage `i−1` or its last block to stage `i+1`, each with and
//!    without re-balancing the prefix via Algorithm 1, and feed every new
//!    scheme back through the simulator.
//! 4. Return the scheme with the minimum simulated iteration time.
//!
//! A visited set plus a scheme budget bounds the search; in practice it
//! explores tens of schemes (the paper's point: the master stage range is
//! the pipeline depth, tiny compared to the cluster size).
//!
//! Candidates are ranked by `(iteration time, boundary vector)` — a *total*
//! order, so the winner is a pure function of the explored set: exact-tie
//! schemes resolve to the lexicographically smallest boundaries no matter
//! in which order the search happened to reach them. That is what lets a
//! warm-started search ([`plan_seeded`]) and a cold search agree bit-for-bit
//! even though they push through the frontier differently.
//!
//! # Wave evaluation
//!
//! The loop is organised as a *deterministic wave search*: the whole frontier
//! is drained into a batch, the batch is scored in groups of [`LANES`]
//! candidates per lockstep sweep (`simulate_time_lanes`; the last one to
//! three go through its one-lane instance), and the results are merged back
//! **in submission order**. Each lane is bit-identical to scoring its
//! candidate alone, and successor generation, visited-set updates and
//! best-scheme ranking all happen during the sequential merge, so the
//! explored set and the chosen plan are those of the serial FIFO search.
//! See DESIGN.md.
//!
//! # Serving-oriented hot path
//!
//! Four refinements keep the search fast when it runs as a service
//! ([`crate::service`]) handling many requests:
//!
//! * The visited set is keyed by 64-bit fingerprints instead of owned
//!   boundary vectors, so membership tests cost one hash of `p + 1` words
//!   and no allocation. Debug builds keep the full boundary vectors
//!   alongside and assert on fingerprint collisions.
//! * Algorithm 1 runs once per search: its `(n+1)×(p+1)` table seeds the
//!   search and answers every prefix re-balance of step 3 by an O(stages)
//!   backtrack (see [`crate::balanced`]). Successors are assembled in one
//!   reusable boundary buffer and only become an owned [`Partition`] once
//!   they pass the visited set and the dominance bound.
//! * All search state (visited set, frontier, wave buffers, simulator
//!   scratch, per-lane stage costs) lives in a [`PlannerScratch`] that can
//!   be reused across requests via [`plan_in`], making a steady-state plan
//!   request allocation-light.
//! * With [`AutoPipeConfig::prune`] on, candidates whose work balance alone
//!   already lower-bounds them above the incumbent (`m · max stage work ≥
//!   best iteration time`) are dropped at frontier-push time. The bound is
//!   sound for the 1F1B model (a device must run `m` forwards + `m`
//!   backwards back-to-back at best), and the check happens during the
//!   sequential merge, so pruning does not depend on how a wave is grouped.
//!
//! [`plan_seeded`] warm-starts the search with caller-supplied *incumbent*
//! schemes (e.g. a cached winner whose costs have since drifted): each is
//! scored before the first wave and enters the ranking — and, crucially, the
//! dominance bound — immediately, so the frontier is pruned against a strong
//! incumbent from wave 1 instead of only after the search stumbles on a good
//! scheme itself. The cold Algorithm-1 seed is still explored: it is the
//! only move that re-balances against the *drifted* weights (master shifting
//! only moves the master stage forward, so a stale partition whose new
//! bottleneck is stage 0 could never repair itself).

use std::array::from_fn;
#[cfg(debug_assertions)]
use std::collections::HashMap;
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use autopipe_cost::memory::{in_flight_1f1b, stage_memory_frac, ACT_FRAG_MULT};
use autopipe_cost::CostDb;
use autopipe_sim::analytic::{
    simulate_replay_masked, simulate_time_lanes, AnalyticResult, OverlapModel, SimScratch, LANES,
};
use autopipe_sim::partition::{Partition, StageCosts};

use crate::balanced::BalancedTable;
use crate::types::PlanError;

/// Per-stage activation recomputation policy for the planner.
///
/// Recomputation trades compute for memory: a recomputing stage stashes only
/// its input activation per in-flight micro-batch and replays its forward
/// (the schedule IR's `Recompute` op) before each backward. The policy says
/// how the search may use that trade under [`AutoPipeConfig::memory_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputePolicy {
    /// Never recompute: candidates must fit the budget with full stashes.
    #[default]
    Off,
    /// Recompute only on stages that would otherwise exceed the budget —
    /// the minimal mask, chosen per candidate partition.
    Auto,
    /// Recompute on every stage, budget or not.
    All,
}

/// Search knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoPipeConfig {
    /// Maximum number of schemes to simulate before stopping.
    pub max_schemes: usize,
    /// Score candidates under the overlapped comm engine instead of the
    /// blocking one: per-edge eager chunked sends pipelined against the
    /// producing compute span, exactly as the event simulator and the
    /// threaded runtime execute them. `None` keeps the blocking cost model.
    /// Changing this can change which partition wins — a comm-heavy stage
    /// stops being the bottleneck once its sends overlap.
    pub overlap: Option<OverlapModel>,
    /// Drop frontier candidates whose balance lower bound (`m ·` max stage
    /// work) already meets or exceeds the incumbent's iteration time. The
    /// bound is sound, so pruned schemes can never *win*; pruning does skip
    /// their successors, which in principle could reach a winner another
    /// way — `pruning_never_changes_the_winner` pins that it does not on
    /// the benchmark zoo. Off when bit-exact parity with the unpruned
    /// exploration sequence is required (e.g. baseline comparisons).
    pub prune: bool,
    /// Hard per-device memory budget in bytes. When set, every candidate is
    /// checked against the 1F1B static memory model
    /// ([`autopipe_cost::memory`]); infeasible candidates are still explored
    /// for successors but can never *win*, and the search errors with
    /// [`PlanError::Oom`] when no explored scheme fits. `None` disables the
    /// gate (the historical behaviour).
    pub memory_budget: Option<u64>,
    /// How the search may spend recomputation to fit the budget. With
    /// [`RecomputePolicy::Auto`], each candidate partition gets the minimal
    /// per-stage mask that fits and is *scored under that mask* (forward
    /// replays included), so partitioning and recomputation are optimised
    /// jointly.
    pub recompute: RecomputePolicy,
}

impl Default for AutoPipeConfig {
    fn default() -> Self {
        AutoPipeConfig {
            max_schemes: 512,
            overlap: None,
            prune: false,
            memory_budget: None,
            recompute: RecomputePolicy::Off,
        }
    }
}

/// Result of a planner run.
#[derive(Debug, Clone)]
pub struct AutoPipeOutcome {
    /// The best partition found.
    pub partition: Partition,
    /// Per-stage recompute mask the winner is scored (and must run) under.
    /// All-false unless a budget/policy made the search spend recomputation.
    pub recompute: Vec<bool>,
    /// Its simulation (iteration time, critical path, master stage, …).
    pub analytic: AnalyticResult,
    /// Number of schemes simulated.
    pub schemes_explored: usize,
    /// Number of generated schemes dropped by the dominance bound without
    /// being simulated ([`AutoPipeConfig::prune`]).
    pub schemes_pruned: usize,
    /// Wall-clock search time.
    pub search_time: Duration,
}

/// Partition-planner hook for the layers above the search (strategy
/// selection, the `AutoPipe` front-end): anything with [`plan`]'s signature.
/// A [`crate::service::PlanService`] caller routes this through the plan
/// cache; the default is the cold planner.
pub type PartitionPlanner<'a> = &'a (dyn Fn(&CostDb, usize, usize, &AutoPipeConfig) -> Result<AutoPipeOutcome, PlanError>
         + Sync);

/// 64-bit FNV-1a fingerprint of a boundary vector. Stable across runs and
/// platforms; used as the visited-set key so membership tests neither hash
/// nor allocate a `Vec<usize>` per candidate.
#[inline]
pub fn scheme_fingerprint(boundaries: &[usize]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in boundaries {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// Reusable search state: the visited set, the frontier, the wave and score
/// buffers, the successor boundary buffer, the simulator scratch and the
/// stage costs and recompute mask of each lane. A service handling many
/// plan requests keeps one of these per worker and calls [`plan_in`], so
/// steady-state requests reuse every allocation; [`plan`] creates a fresh
/// one per call.
#[derive(Default)]
pub struct PlannerScratch {
    visited: HashSet<u64>,
    /// Debug builds shadow the fingerprint set with the full boundary
    /// vectors and assert that equal fingerprints mean equal schemes.
    #[cfg(debug_assertions)]
    visited_schemes: HashMap<u64, Vec<usize>>,
    queue: VecDeque<Partition>,
    wave: Vec<Partition>,
    scores: Vec<Score>,
    sim: SimScratch,
    lanes: [(StageCosts, Vec<bool>); LANES],
    /// Boundaries of the successor currently being assembled.
    cand: Vec<usize>,
}

impl PlannerScratch {
    /// Empty scratch; buffers grow on first use and stick around.
    pub fn new() -> PlannerScratch {
        PlannerScratch::default()
    }

    /// Reset per-request state, keeping allocations.
    fn reset(&mut self) {
        self.visited.clear();
        #[cfg(debug_assertions)]
        self.visited_schemes.clear();
        self.queue.clear();
        self.wave.clear();
        self.scores.clear();
    }

    /// Insert a scheme into the visited set; `true` if it was new. In debug
    /// builds, panics if two distinct boundary vectors ever share a
    /// fingerprint (none do in practice; FNV-1a over short word sequences
    /// has no known colliding pairs in our search space).
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn visit(&mut self, fp: u64, boundaries: &[usize]) -> bool {
        #[cfg(debug_assertions)]
        {
            if let Some(prev) = self.visited_schemes.get(&fp) {
                assert_eq!(
                    prev.as_slice(),
                    boundaries,
                    "scheme fingerprint collision on {fp:#018x}"
                );
            } else {
                self.visited_schemes.insert(fp, boundaries.to_vec());
            }
        }
        self.visited.insert(fp)
    }
}

/// What the merge step needs to know about a scored candidate: the ranking
/// key, the master stage for successor generation, and `b_i` of that master
/// for Eq. 1's Cooldown budget.
#[derive(Debug, Clone, Copy, Default)]
struct Score {
    iteration_time: f64,
    master_stage: usize,
    b_master: f64,
    /// Fits the memory budget (always true when no budget is set).
    feasible: bool,
}

/// Fill `mask` with the per-stage recompute decisions for `part` under the
/// 1F1B static memory model and return whether the partition fits `budget`.
/// `Off` never recomputes, `All` always does, `Auto` masks exactly the
/// stages that do not fit with full stashes but do with recomputation.
/// On an infeasible partition the mask contents are unspecified.
fn recompute_mask_for(
    db: &CostDb,
    part: &Partition,
    m: usize,
    budget: u64,
    policy: RecomputePolicy,
    mask: &mut Vec<bool>,
) -> bool {
    let p = part.n_stages();
    mask.clear();
    for s in 0..p {
        let blocks = &db.blocks[part.range(s)];
        let in_flight = in_flight_1f1b(s, p, m) as f64;
        let fits = |rec: bool| {
            stage_memory_frac(blocks, db.comm_bytes, in_flight, ACT_FRAG_MULT, rec).total()
                <= budget
        };
        let rec = match policy {
            RecomputePolicy::Off => {
                if !fits(false) {
                    return false;
                }
                false
            }
            RecomputePolicy::All => {
                if !fits(true) {
                    return false;
                }
                true
            }
            RecomputePolicy::Auto => {
                if fits(false) {
                    false
                } else if fits(true) {
                    true
                } else {
                    return false;
                }
            }
        };
        mask.push(rec);
    }
    true
}

/// Resolve the (feasibility, mask) of a candidate under the config's budget
/// and policy. The mask buffer is left holding the stage mask whenever
/// `use_mask` comes back true.
fn resolve_mask(
    part: &Partition,
    db: &CostDb,
    m: usize,
    cfg: &AutoPipeConfig,
    mask: &mut Vec<bool>,
) -> (bool, bool) {
    match (cfg.memory_budget, cfg.recompute) {
        (None, RecomputePolicy::All) => {
            mask.clear();
            mask.resize(part.n_stages(), true);
            (true, true)
        }
        (None, _) => (true, false),
        (Some(budget), policy) => {
            if recompute_mask_for(db, part, m, budget, policy, mask) {
                let any = mask.iter().any(|&r| r);
                (true, any)
            } else {
                (false, false)
            }
        }
    }
}

/// Score `L ≤ LANES` candidates in one lockstep sweep, reusing the caller's
/// scratch buffers so the per-candidate cost is allocation-free. Candidates
/// that fit the budget only with recomputation are scored under their mask
/// (masked stage costs + forward replays); infeasible candidates are scored
/// plain — their time still drives successor generation, but the merge loop
/// never lets them win.
fn score<const L: usize>(
    parts: &[Partition; L],
    db: &CostDb,
    m: usize,
    cfg: &AutoPipeConfig,
    sim: &mut SimScratch,
    lanes: &mut [(StageCosts, Vec<bool>); LANES],
) -> [Score; L] {
    const { assert!(L <= LANES) };
    // Per lane: (fits the budget, scored under its recompute mask).
    let mut fit = [(false, false); L];
    for ((part, (sc, mask)), fit) in parts.iter().zip(lanes.iter_mut()).zip(&mut fit) {
        *fit = resolve_mask(part, db, m, cfg, mask);
        if fit.1 {
            part.stage_costs_recompute_into(db, mask, sc);
        } else {
            part.stage_costs_into(db, sc);
        }
        apply_device_multipliers(db, sc);
    }
    let r = simulate_time_lanes::<L>(
        from_fn(|l| &lanes[l].0),
        m,
        sim,
        cfg.overlap.as_ref(),
        from_fn(|l| fit[l].1.then_some(lanes[l].1.as_slice())),
    );
    from_fn(|l| Score {
        iteration_time: r[l].iteration_time,
        master_stage: r[l].master_stage,
        b_master: lanes[l].0.b[r[l].master_stage],
        feasible: fit[l].0,
    })
}

/// The heaviest stage's forward+backward work under the scheme with
/// boundaries `b`, via the cost database's prefix sums — O(p), no
/// allocation. `m ×` this is a sound lower bound on the scheme's 1F1B
/// iteration time: the heaviest device must run its `m` forwards and `m`
/// backwards back-to-back at best.
fn max_stage_work(db: &CostDb, b: &[usize]) -> f64 {
    let mut mx = 0.0_f64;
    for s in 0..b.len() - 1 {
        let w =
            (db.range_fwd(b[s]..b[s + 1]) + db.range_bwd(b[s]..b[s + 1])) * db.device_multiplier(s);
        if w > mx {
            mx = w;
        }
    }
    mx
}

/// Scale per-stage costs by the device multipliers of a heterogeneous
/// cluster (stage `s` runs on device `s` in single-chunk families). A no-op
/// on homogeneous databases, so the hot path pays one branch.
pub(crate) fn apply_device_multipliers(db: &CostDb, sc: &mut StageCosts) {
    if !db.is_heterogeneous() {
        return;
    }
    for s in 0..sc.f.len() {
        let mult = db.device_multiplier(s);
        sc.f[s] *= mult;
        sc.b[s] *= mult;
    }
}

/// Plan a `p`-stage pipeline for the model in `db` running `m` micro-batches
/// per iteration.
///
/// Errors with [`PlanError::Infeasible`] instead of panicking when the
/// request cannot be satisfied: zero stages or micro-batches, an empty cost
/// database, or more stages than blocks to place on them.
pub fn plan(
    db: &CostDb,
    p: usize,
    m: usize,
    cfg: &AutoPipeConfig,
) -> Result<AutoPipeOutcome, PlanError> {
    plan_in(db, p, m, cfg, &mut PlannerScratch::new())
}

/// [`plan`] with caller-owned scratch, for request-serving loops that want
/// to reuse the search buffers across many plans.
pub fn plan_in(
    db: &CostDb,
    p: usize,
    m: usize,
    cfg: &AutoPipeConfig,
    scratch: &mut PlannerScratch,
) -> Result<AutoPipeOutcome, PlanError> {
    search(db, p, m, cfg, None, scratch)
}

/// Warm-started plan: score `seeds` (e.g. a cached winner whose costs have
/// since drifted) as *incumbents* before the first wave. Incumbents enter
/// the `(time, boundaries)` ranking like any explored scheme, and with
/// [`AutoPipeConfig::prune`] on their iteration time bounds the frontier
/// from the start, so the search simulates at most the cold search's
/// schemes plus the seeds, in the cold search's order, and lands on the
/// same winner whenever the dominance bound is winner-preserving (it is
/// across the drift property tests; the bound itself is sound per scheme)
/// and the cold search does not exhaust `max_schemes` — the seeds' scoring
/// counts against that budget.
///
/// Every seed must partition exactly `db.len()` blocks into `p` stages.
/// Each seed costs one extra simulation (`schemes_explored` counts them).
pub fn plan_seeded(
    db: &CostDb,
    p: usize,
    m: usize,
    cfg: &AutoPipeConfig,
    seeds: &[Partition],
    scratch: &mut PlannerScratch,
) -> Result<AutoPipeOutcome, PlanError> {
    if seeds.is_empty() {
        return Err(PlanError::Infeasible(
            "warm start requested with no seed schemes".into(),
        ));
    }
    search(db, p, m, cfg, Some(seeds), scratch)
}

/// `(iteration time, boundaries)` total order: `cand` strictly better?
#[inline]
fn ranks_better(cand_time: f64, cand: &Partition, best_time: f64, best: &Partition) -> bool {
    cand_time < best_time || (cand_time == best_time && cand.boundaries() < best.boundaries())
}

/// The wave search. `seeds: None` is the cold path (Algorithm-1 seed only).
fn search(
    db: &CostDb,
    p: usize,
    m: usize,
    cfg: &AutoPipeConfig,
    seeds: Option<&[Partition]>,
    scratch: &mut PlannerScratch,
) -> Result<AutoPipeOutcome, PlanError> {
    let t0 = Instant::now();
    let weights: Vec<f64> = db.blocks.iter().map(|b| b.work()).collect();
    if p < 1 {
        return Err(PlanError::Infeasible("0-stage pipeline requested".into()));
    }
    if m < 1 {
        return Err(PlanError::Infeasible(
            "0 micro-batches per iteration".into(),
        ));
    }
    if p > weights.len() {
        return Err(PlanError::Infeasible(format!(
            "{p} stages requested but the cost database only has {} blocks",
            weights.len()
        )));
    }

    scratch.reset();

    let mut best: Option<(Partition, f64)> = None;
    let mut explored = 0usize;
    let mut pruned = 0usize;

    // Incumbents first: scored before the cold seed so their times bound
    // the frontier from wave 1. They are *not* marked visited — if the
    // cold search reaches one organically, its successors must still be
    // generated exactly as a cold run would.
    if let Some(list) = seeds {
        for seed in list {
            if seed.n_blocks() != weights.len() || seed.n_stages() != p {
                return Err(PlanError::Infeasible(format!(
                    "warm-start seed partitions {} blocks into {} stages, \
                     request wants {} blocks into {p}",
                    seed.n_blocks(),
                    seed.n_stages(),
                    weights.len()
                )));
            }
            let [s] = score(
                std::array::from_ref(seed),
                db,
                m,
                cfg,
                &mut scratch.sim,
                &mut scratch.lanes,
            );
            explored += 1;
            let better = s.feasible
                && match &best {
                    None => true,
                    Some((bp, bt)) => ranks_better(s.iteration_time, seed, *bt, bp),
                };
            if better {
                best = Some((seed.clone(), s.iteration_time));
            }
        }
    }

    // Algorithm 1, once: the table yields the seed here and every prefix
    // re-balance of step 3 below.
    let table = BalancedTable::build(&weights, p);
    let init = table.partition(weights.len(), p);
    let fp = scheme_fingerprint(init.boundaries());
    scratch.visit(fp, init.boundaries());
    scratch.queue.push_back(init);

    // Split borrows so the merge loop can drain `wave` while pushing to
    // `queue` and updating the visited set.
    let PlannerScratch {
        visited,
        #[cfg(debug_assertions)]
        visited_schemes,
        queue,
        wave,
        scores,
        sim,
        lanes,
        cand,
    } = scratch;

    while !queue.is_empty() && explored < cfg.max_schemes {
        // Drain the frontier — capped at the remaining scheme budget so the
        // explored set matches the serial search exactly.
        let take = (cfg.max_schemes - explored).min(queue.len());
        wave.clear();
        wave.extend(queue.drain(..take));
        scores.clear();
        scores.resize(wave.len(), Score::default());

        // Full groups of `LANES` share one sweep; the last one to three
        // candidates take the one-lane sweep. Either way each score is the
        // bits of scoring that candidate alone.
        let (groups, rest) = wave.as_chunks::<LANES>();
        let (group_scores, rest_scores) = scores.as_chunks_mut::<LANES>();
        for (group, out) in groups.iter().zip(group_scores) {
            *out = score(group, db, m, cfg, sim, lanes);
        }
        for (part, out) in rest.iter().zip(rest_scores) {
            [*out] = score(std::array::from_ref(part), db, m, cfg, sim, lanes);
        }

        // Merge in submission order. Successor generation and the visited
        // set evolve exactly as they would have under the FIFO pop loop, so
        // the frontier ordering does not depend on how the wave was scored;
        // the ranking itself is a total order, so the winner depends only
        // on the explored set.
        for (part, s) in wave.drain(..).zip(scores.drain(..)) {
            explored += 1;
            let i = s.master_stage;

            // Memory-infeasible candidates keep generating successors (the
            // search may have to cross an infeasible region to reach a
            // feasible one) but never enter the ranking.
            let better = s.feasible
                && match &best {
                    None => true,
                    Some((bp, bt)) => ranks_better(s.iteration_time, &part, *bt, bp),
                };
            if better {
                best = Some((part.clone(), s.iteration_time));
            }

            let best_time = best.as_ref().map(|(_, t)| *t);
            // A successor becomes an owned partition only once it is new
            // and survives the dominance bound.
            let mut push = |cand: &[usize]| {
                let fp = scheme_fingerprint(cand);
                #[cfg(debug_assertions)]
                {
                    if let Some(prev) = visited_schemes.get(&fp) {
                        assert_eq!(
                            prev.as_slice(),
                            cand,
                            "scheme fingerprint collision on {fp:#018x}"
                        );
                    } else {
                        visited_schemes.insert(fp, cand.to_vec());
                    }
                }
                if !visited.insert(fp) {
                    return;
                }
                if cfg.prune {
                    if let Some(bt) = best_time {
                        // Relative epsilon absorbs the different rounding of
                        // the prefix-sum bound vs the simulator's op-order
                        // accumulation.
                        if m as f64 * max_stage_work(db, cand) > bt * (1.0 + 1e-9) {
                            pruned += 1;
                            return;
                        }
                    }
                }
                queue.push_back(Partition::new(cand.to_vec()));
            };

            // Step 2: eliminate Cooldown bubbles behind the master stage.
            if i + 1 < p && cooldown_adjust(&part, s.b_master, &weights, i, cand) {
                push(cand);
            }
            // Step 3: shift the master stage forward.
            if i > 0 {
                shift_candidates(&part, &table, i, cand, &mut push);
            }
        }
    }

    let Some((partition, _)) = best else {
        // Every explored scheme blew the budget — only possible with the
        // memory gate on (without it the seed always ranks).
        let budget = cfg.memory_budget.unwrap_or(0);
        return Err(PlanError::Oom(format!(
            "no {p}-stage partition of {} blocks fits {budget} bytes per device \
             with {m} micro-batches (recompute policy {:?}, {explored} schemes tried)",
            weights.len(),
            cfg.recompute
        )));
    };
    // Re-derive the winner's mask (deterministic, same code path that scored
    // it) and run the full replay under it: the outcome carries the complete
    // per-op trace and critical path of the plan as it will run. The search's
    // own scratch already holds the sweep order for this `(p, m)`.
    let mut mask = Vec::new();
    let (_, use_mask) = resolve_mask(&partition, db, m, cfg, &mut mask);
    if !use_mask {
        mask.clear();
        mask.resize(partition.n_stages(), false);
    }
    let mut costs = if use_mask {
        partition.stage_costs_recompute(db, &mask)
    } else {
        partition.stage_costs(db)
    };
    apply_device_multipliers(db, &mut costs);
    let analytic = simulate_replay_masked(
        &costs,
        m,
        sim,
        cfg.overlap.as_ref(),
        use_mask.then_some(mask.as_slice()),
    );
    Ok(AutoPipeOutcome {
        partition,
        recompute: mask,
        analytic,
        schemes_explored: explored,
        schemes_pruned: pruned,
        search_time: t0.elapsed(),
    })
}

/// Redistribute the blocks behind master stage `i` so Eq. 1 holds: greedily
/// fill each stage `s > i` up to the cumulative budget `(s−i)·b_i` (where
/// `b_i` is the master stage's backward time), leaving the remainder to the
/// last stage. Writes the new boundaries into `out`; `false` if nothing
/// changed.
fn cooldown_adjust(
    part: &Partition,
    b_i: f64,
    weights: &[f64],
    i: usize,
    out: &mut Vec<usize>,
) -> bool {
    let p = part.n_stages();
    let n = part.n_blocks();
    let first = part.boundaries()[i + 1]; // first block behind the master
    let tail_blocks = n - first;
    let tail_stages = p - i - 1;
    if tail_blocks < tail_stages {
        return false;
    }

    out.clear();
    out.extend_from_slice(&part.boundaries()[..=i + 1]);
    let mut cursor = first;
    let mut cum = 0.0;
    for s in (i + 1)..(p - 1) {
        let budget = (s - i) as f64 * b_i;
        let stages_left_after = p - 1 - s; // stages s+1..p-1
                                           // Take at least one block; keep taking while under budget and while
                                           // enough blocks remain for the stages behind us.
        let mut taken = 0usize;
        while cursor < n - stages_left_after {
            let w = weights[cursor];
            if taken >= 1 && cum + w > budget {
                break;
            }
            cum += w;
            cursor += 1;
            taken += 1;
        }
        out.push(cursor);
    }
    out.push(n);
    out.as_slice() != part.boundaries()
}

/// The four master-shifting candidates of step 3, each assembled in `buf`
/// and handed to `emit` in the paper's order: first block of stage `i` to
/// stage `i−1`, the same with Algorithm 1 re-applied to the prefix ahead of
/// stage `i`, last block of stage `i` to stage `i+1`, the same with the
/// prefix through stage `i` re-balanced. Re-balances that reproduce `part`
/// are dropped.
fn shift_candidates(
    part: &Partition,
    table: &BalancedTable,
    i: usize,
    buf: &mut Vec<usize>,
    emit: &mut impl FnMut(&[usize]),
) {
    let b = part.boundaries();
    let p = part.n_stages();
    buf.clear();
    buf.extend_from_slice(b);

    // Move the first block of stage i to stage i−1 (stage i must keep one).
    if b[i] + 1 < b[i + 1] {
        buf[i] += 1;
        emit(buf);
        // With Algorithm 1 re-applied to the prefix ahead of stage i.
        if buf[i] >= i {
            table.prefix_into(buf[i], i, buf);
            if buf.as_slice() != b {
                emit(buf);
            }
            buf[..i].copy_from_slice(&b[..i]);
        }
        buf[i] = b[i];
    }
    // Move the last block of stage i to stage i+1.
    if i + 1 < p && b[i + 1] - 1 > b[i] {
        buf[i + 1] -= 1;
        emit(buf);
        // With Algorithm 1 re-applied to the prefix through stage i.
        if buf[i + 1] > i {
            table.prefix_into(buf[i + 1], i + 1, buf);
            if buf.as_slice() != b {
                emit(buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced::balanced_partition;
    use autopipe_cost::Hardware;
    use autopipe_model::{zoo, Granularity};
    use autopipe_sim::analytic::simulate_replay;
    use autopipe_sim::metrics::balance_stddev;

    fn db(g: Granularity) -> CostDb {
        CostDb::build(&zoo::gpt2_345m(), &Hardware::rtx3090_cluster(), 4, true, g)
    }

    #[test]
    fn beats_megatron_uniform_split() {
        let d = db(Granularity::SubLayer);
        let m = 8;
        let p = 4;
        let out = plan(&d, p, m, &AutoPipeConfig::default()).unwrap();
        // Megatron: 6 whole layers per stage, embedding with stage 0,
        // final-LN+head with stage 3.
        let mega = Partition::new(vec![0, 13, 25, 37, 51]);
        let mega_res = simulate_replay(&mega.stage_costs(&d), m);
        assert!(
            out.analytic.iteration_time < mega_res.iteration_time,
            "autopipe {} vs megatron {}",
            out.analytic.iteration_time,
            mega_res.iteration_time
        );
    }

    #[test]
    fn improves_balance_over_seed() {
        let d = db(Granularity::SubLayer);
        let m = 8;
        let out = plan(&d, 4, m, &AutoPipeConfig::default()).unwrap();
        let seed = balanced_partition(&d.blocks.iter().map(|b| b.work()).collect::<Vec<_>>(), 4);
        let seed_res = simulate_replay(&seed.stage_costs(&d), m);
        assert!(out.analytic.iteration_time <= seed_res.iteration_time + 1e-12);
        // Balance should be decent: within 20% of perfectly even.
        let sc = out.partition.stage_costs(&d);
        let even = d.total_work() / 4.0;
        let max_stage = (0..4).map(|x| sc.work(x)).fold(0.0, f64::max);
        assert!(
            max_stage < even * 1.25,
            "max stage {max_stage} vs even {even}"
        );
        let _ = balance_stddev(&sc, m);
    }

    #[test]
    fn sublayer_granularity_beats_layer_granularity() {
        // The paper's Fig. 3 claim: finer blocks allow better balance.
        let m = 8;
        let sub = plan(&db(Granularity::SubLayer), 4, m, &AutoPipeConfig::default()).unwrap();
        let layer = plan(&db(Granularity::Layer), 4, m, &AutoPipeConfig::default()).unwrap();
        assert!(sub.analytic.iteration_time <= layer.analytic.iteration_time + 1e-12);
    }

    #[test]
    fn explores_few_schemes() {
        // The paper's selling point: order-of-magnitude faster search. The
        // heuristic should stay in the tens of schemes for a 4-stage plan.
        let d = db(Granularity::SubLayer);
        let out = plan(&d, 4, 8, &AutoPipeConfig::default()).unwrap();
        assert!(out.schemes_explored >= 1);
        assert!(
            out.schemes_explored < 200,
            "explored {}",
            out.schemes_explored
        );
    }

    #[test]
    fn works_for_every_benchmark_model_and_depth() {
        let hw = Hardware::rtx3090_cluster();
        for cfg in zoo::benchmark_models() {
            let d = CostDb::build(&cfg, &hw, 4, true, Granularity::SubLayer);
            for p in [2, 4, 8] {
                let out = plan(&d, p, 2 * p, &AutoPipeConfig::default()).unwrap();
                assert_eq!(out.partition.n_stages(), p, "{} p={p}", cfg.name);
                assert!(out.analytic.iteration_time > 0.0);
            }
        }
    }

    #[test]
    fn single_stage_is_trivial() {
        let d = db(Granularity::SubLayer);
        let out = plan(&d, 1, 8, &AutoPipeConfig::default()).unwrap();
        assert_eq!(out.partition.n_stages(), 1);
        assert_eq!(out.schemes_explored, 1);
    }

    #[test]
    fn overlap_aware_search_scores_under_the_overlapped_model() {
        // With k = 1 an overlapped send is the blocking send minus the
        // device-blocking: same wire schedule, strictly no-later arrivals.
        // The overlap-aware winner therefore can't be slower than the
        // blocking winner re-scored under overlap, and its reported time is
        // exactly the overlapped replay of its partition.
        let d = db(Granularity::SubLayer);
        let m = 8;
        let p = 4;
        let ov = OverlapModel {
            latency: 30e-6,
            chunks: 1,
        };
        let blocking = plan(&d, p, m, &AutoPipeConfig::default()).unwrap();
        let overlapped = plan(
            &d,
            p,
            m,
            &AutoPipeConfig {
                overlap: Some(ov),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            overlapped.analytic.iteration_time <= blocking.analytic.iteration_time,
            "overlapped winner {} vs blocking winner {}",
            overlapped.analytic.iteration_time,
            blocking.analytic.iteration_time
        );
        let rescored = simulate_replay_masked(
            &overlapped.partition.stage_costs(&d),
            m,
            &mut SimScratch::new(),
            Some(&ov),
            None,
        );
        assert_eq!(
            overlapped.analytic.iteration_time.to_bits(),
            rescored.iteration_time.to_bits(),
            "outcome must carry the overlapped replay of its own partition"
        );
        let blocking_rescored = simulate_replay_masked(
            &blocking.partition.stage_costs(&d),
            m,
            &mut SimScratch::new(),
            Some(&ov),
            None,
        );
        assert!(
            overlapped.analytic.iteration_time <= blocking_rescored.iteration_time + 1e-12,
            "overlap-aware search must not lose to the blocking winner under its own model"
        );
    }

    #[test]
    fn fingerprints_separate_nearby_schemes() {
        // The shift moves that dominate the search differ from their parent
        // in exactly one boundary; the fingerprint must tell them apart.
        let base = vec![0usize, 13, 25, 37, 51];
        let mut seen = HashSet::new();
        assert!(seen.insert(scheme_fingerprint(&base)));
        for i in 1..=3 {
            for delta in [-1i64, 1] {
                let mut nb = base.clone();
                nb[i] = (nb[i] as i64 + delta) as usize;
                assert!(seen.insert(scheme_fingerprint(&nb)), "collision at {nb:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        // One scratch serving a mixed request stream (different models,
        // depths and micro-batch counts back-to-back) must produce exactly
        // what fresh per-request state does — in particular the simulator
        // scratch's cached sweep order must re-key with every new (p, m).
        let hw = Hardware::rtx3090_cluster();
        let cfg = AutoPipeConfig::default();
        let mut scratch = PlannerScratch::new();
        for model in [zoo::gpt2_345m(), zoo::bert_large()] {
            let d = CostDb::build(&model, &hw, 4, true, Granularity::SubLayer);
            for (p, m) in [(4, 8), (8, 16), (2, 4)] {
                let reused = plan_in(&d, p, m, &cfg, &mut scratch).unwrap();
                let fresh = plan(&d, p, m, &cfg).unwrap();
                assert_eq!(reused.partition, fresh.partition, "{} p={p}", model.name);
                assert_eq!(reused.schemes_explored, fresh.schemes_explored);
                assert_eq!(
                    reused.analytic.iteration_time.to_bits(),
                    fresh.analytic.iteration_time.to_bits()
                );
            }
        }
    }

    #[test]
    fn seeding_with_the_balanced_scheme_matches_the_cold_search() {
        // An incumbent equal to Algorithm 1's seed changes nothing but the
        // one extra simulation that scored it.
        let d = db(Granularity::SubLayer);
        let cfg = AutoPipeConfig::default();
        let weights: Vec<f64> = d.blocks.iter().map(|b| b.work()).collect();
        for (p, m) in [(4, 8), (8, 16)] {
            let cold = plan(&d, p, m, &cfg).unwrap();
            let seed = balanced_partition(&weights, p);
            let warm = plan_seeded(&d, p, m, &cfg, &[seed], &mut PlannerScratch::new()).unwrap();
            assert_eq!(warm.partition, cold.partition);
            assert_eq!(warm.schemes_explored, cold.schemes_explored + 1);
            assert_eq!(
                warm.analytic.iteration_time.to_bits(),
                cold.analytic.iteration_time.to_bits()
            );
        }
    }

    #[test]
    fn seeds_are_validated() {
        let d = db(Granularity::SubLayer);
        let cfg = AutoPipeConfig::default();
        let mut scratch = PlannerScratch::new();
        assert!(plan_seeded(&d, 4, 8, &cfg, &[], &mut scratch).is_err());
        // Wrong depth.
        let wrong = Partition::even(d.len(), 3);
        assert!(plan_seeded(&d, 4, 8, &cfg, &[wrong], &mut scratch).is_err());
        // Wrong block count.
        let wrong = Partition::even(d.len() - 1, 4);
        assert!(plan_seeded(&d, 4, 8, &cfg, &[wrong], &mut scratch).is_err());
    }

    #[test]
    fn loose_budget_changes_nothing() {
        // A budget everything fits under must not perturb the search: same
        // partition, same explored count, bit-identical time, all-false mask.
        let d = db(Granularity::SubLayer);
        let base = plan(&d, 4, 8, &AutoPipeConfig::default()).unwrap();
        let gated = plan(
            &d,
            4,
            8,
            &AutoPipeConfig {
                memory_budget: Some(u64::MAX),
                recompute: RecomputePolicy::Auto,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(gated.partition, base.partition);
        assert_eq!(gated.schemes_explored, base.schemes_explored);
        assert_eq!(
            gated.analytic.iteration_time.to_bits(),
            base.analytic.iteration_time.to_bits()
        );
        assert!(gated.recompute.iter().all(|&r| !r));
    }

    #[test]
    fn impossible_budget_errors_with_oom() {
        let d = db(Granularity::SubLayer);
        let err = plan(
            &d,
            4,
            8,
            &AutoPipeConfig {
                memory_budget: Some(1),
                recompute: RecomputePolicy::Auto,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::Oom(_)), "{err}");
    }

    #[test]
    fn auto_policy_unlocks_budgets_off_cannot_meet() {
        // Find a budget between the plain peak and the full-recompute peak
        // of the winning partition: Off must OOM, Auto must plan with a
        // non-empty mask and report a slower (never faster) iteration.
        let hw = Hardware::rtx3090_cluster();
        let d = CostDb::build(&zoo::gpt2_345m(), &hw, 16, true, Granularity::SubLayer);
        let p = 4;
        let m = 8;
        let base = plan(&d, p, m, &AutoPipeConfig::default()).unwrap();
        let peak = |part: &Partition, rec: bool| -> u64 {
            (0..p)
                .map(|s| {
                    stage_memory_frac(
                        &d.blocks[part.range(s)],
                        d.comm_bytes,
                        in_flight_1f1b(s, p, m) as f64,
                        ACT_FRAG_MULT,
                        rec,
                    )
                    .total()
                })
                .max()
                .unwrap()
        };
        let plain = peak(&base.partition, false);
        let recomputed = peak(&base.partition, true);
        assert!(recomputed < plain, "{recomputed} vs {plain}");
        let budget = (plain + recomputed) / 2;

        let off = plan(
            &d,
            p,
            m,
            &AutoPipeConfig {
                memory_budget: Some(budget),
                ..Default::default()
            },
        );
        let auto = plan(
            &d,
            p,
            m,
            &AutoPipeConfig {
                memory_budget: Some(budget),
                recompute: RecomputePolicy::Auto,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(auto.recompute.iter().any(|&r| r), "{:?}", auto.recompute);
        // The replayed forwards are real work: summed busy time strictly
        // exceeds the unmasked plan's (which is partition-independent —
        // every stage-busy sum is m·(F+B) over the whole block list). The
        // *iteration* time may go either way: a recompute issued before
        // RecvGrad hides inside the gradient-transit bubble.
        let busy = |r: &AnalyticResult| r.stage_busy.iter().sum::<f64>();
        assert!(busy(&auto.analytic) > busy(&base.analytic));
        // The reported analytic must be reproducible from the outcome alone.
        let costs = auto.partition.stage_costs_recompute(&d, &auto.recompute);
        let check = simulate_replay_masked(
            &costs,
            m,
            &mut SimScratch::new(),
            None,
            Some(&auto.recompute),
        );
        assert_eq!(
            check.iteration_time.to_bits(),
            auto.analytic.iteration_time.to_bits()
        );
        if let Ok(off) = off {
            // If Off found some other feasible partition it must have paid
            // for it in time; Auto never does worse than Off.
            assert!(auto.analytic.iteration_time <= off.analytic.iteration_time + 1e-12);
        }
    }

    #[test]
    fn all_policy_scores_the_replay_overhead() {
        // Forcing recompute everywhere adds one full forward of busy time
        // per stage per micro-batch beyond the checkpointed backward's
        // built-in body replays — the mask is not free, and the search must
        // score that overhead rather than reuse the unmasked costs. (The
        // *iteration* time may still drop when the replay hides inside a
        // gradient-transit bubble, so busy time is the invariant.)
        let d = db(Granularity::SubLayer);
        let base = plan(&d, 4, 8, &AutoPipeConfig::default()).unwrap();
        let all = plan(
            &d,
            4,
            8,
            &AutoPipeConfig {
                recompute: RecomputePolicy::All,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(all.recompute.iter().all(|&r| r));
        let busy = |r: &AnalyticResult| r.stage_busy.iter().sum::<f64>();
        assert!(
            busy(&all.analytic) > busy(&base.analytic),
            "all-recompute busy {} vs base busy {}",
            busy(&all.analytic),
            busy(&base.analytic)
        );
    }

    #[test]
    fn pruning_never_changes_the_winner() {
        // The dominance bound may only skip schemes that cannot win; across
        // the benchmark zoo the pruned search must return the identical
        // partition and iteration time while simulating no more schemes.
        let hw = Hardware::rtx3090_cluster();
        for model in zoo::benchmark_models() {
            let d = CostDb::build(&model, &hw, 4, true, Granularity::SubLayer);
            for p in [2, 4, 8] {
                let base = plan(&d, p, 2 * p, &AutoPipeConfig::default()).unwrap();
                let pruned = plan(
                    &d,
                    p,
                    2 * p,
                    &AutoPipeConfig {
                        prune: true,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(pruned.partition, base.partition, "{} p={p}", model.name);
                assert_eq!(
                    pruned.analytic.iteration_time.to_bits(),
                    base.analytic.iteration_time.to_bits()
                );
                assert!(pruned.schemes_explored <= base.schemes_explored);
                assert_eq!(base.schemes_pruned, 0);
            }
        }
    }
}

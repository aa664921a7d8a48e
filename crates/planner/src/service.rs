//! `pland` — the AutoPipe planner as a long-lived, concurrent service.
//!
//! A training fleet re-plans the same handful of (model, cluster, config)
//! combinations over and over: sessions restart, the straggler monitor
//! requests drifted re-plans, and sweeps fan the same cost database across
//! depths. This module keeps the planner hot across those requests:
//!
//! 1. **Content-addressed plan cache.** Every request is keyed by a stable
//!    64-bit fingerprint of the *contents* of the cost database (every cost
//!    bit), the pipeline shape (`p`, `m`), and the search configuration.
//!    Hits return the cached [`AutoPipeOutcome`] behind an `Arc` — the
//!    partition and analytic result are bit-identical to what a cold plan
//!    of the same request produces, at hash-map-lookup latency. The cache
//!    is sharded so concurrent readers on different requests never contend
//!    on one lock.
//! 2. **Cold search on a miss; `replan` warm-starts.** A `plan` /
//!    `plan_batch` request that misses the cache runs the cold search, so
//!    its answer is bit-identical to `autopipe_plan` on the same request.
//!    Only [`PlanService::replan`] seeds its search: with the partition that
//!    was running, as an incumbent ([`plan_seeded`]) whose time bounds the
//!    frontier from the first wave. It never simulates more than the cold
//!    search's schemes plus the seed (pinned by
//!    `drifted_replan_warm_starts_and_matches_the_cold_search`), and returns
//!    the cold search's plan unless the search exhausts its scheme budget,
//!    where the seed's simulation can cost the cold search's last scheme
//!    (`tests/warm_replan.rs` pins such a case).
//! 3. **Batched concurrent serving.** [`PlanService::plan_batch`] drains a
//!    slice of requests over a scoped thread pool with one
//!    [`PlannerScratch`] per worker. Each request is served exactly as in
//!    the serial path, so outputs are bit-identical at any worker count;
//!    only the `Cold`/`Hit` attribution can differ when identical requests
//!    race.
//!
//! The service is `Sync`: share one instance behind an `Arc` across every
//! session and planning thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use autopipe_cost::CostDb;
use autopipe_sim::analytic::{simulate_time, SimScratch};
use autopipe_sim::Partition;

use crate::autopipe::{
    plan_in, plan_seeded, AutoPipeConfig, AutoPipeOutcome, PlannerScratch, RecomputePolicy,
};
use crate::replan::observed_cost_db;
use crate::types::PlanError;

/// Cache shard count. A small power of two: enough that concurrent misses
/// on different requests rarely serialize on one write lock, small enough
/// that draining the shards for stats stays trivial.
const SHARDS: usize = 16;

/// Default per-shard entry cap (see [`PlanService::with_capacity`]).
const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// Streaming FNV-1a over 64-bit words — the same construction as
/// [`crate::autopipe::scheme_fingerprint`], reused for request keys.
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.word(bs.len() as u64);
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Fold the search knobs that change the plan.
fn fold_cfg(h: &mut Fnv, cfg: &AutoPipeConfig) {
    h.word(cfg.max_schemes as u64);
    match &cfg.overlap {
        None => h.word(0),
        Some(o) => {
            h.word(1);
            h.word(o.latency.to_bits());
            h.word(o.chunks as u64);
        }
    }
    h.word(cfg.prune as u64);
    // The memory constraint changes which candidates may win, and the
    // recompute policy changes how infeasible ones are rescued — both are
    // part of the request identity, so cached plans never alias across
    // distinct budgets or policies.
    match cfg.memory_budget {
        None => h.word(0),
        Some(b) => {
            h.word(1);
            h.word(b);
        }
    }
    h.word(match cfg.recompute {
        RecomputePolicy::Off => 0,
        RecomputePolicy::Auto => 1,
        RecomputePolicy::All => 2,
    });
}

/// Content fingerprint of a plan request: everything the search's result
/// depends on — the model identity, every block's kind, footprints and
/// `fwd`/`bwd` cost bits, the cluster-derived communication model, the
/// profiling configuration, `p`, `m` and the search knobs. Equal
/// fingerprints ⇒ the searches are the same computation ⇒ cached outcomes
/// are bit-exact stand-ins. (Prefix sums are derived from `blocks` and not
/// folded.)
pub(crate) fn plan_fingerprint(db: &CostDb, p: usize, m: usize, cfg: &AutoPipeConfig) -> u64 {
    let mut h = Fnv::new();
    h.bytes(db.model.as_bytes());
    h.word(db.blocks.len() as u64);
    for b in &db.blocks {
        h.word(b.kind as u64);
        h.word(b.params);
        h.word(b.ckpt_act_bytes);
        h.word(b.full_act_bytes);
        h.word(b.layer_weight.to_bits());
    }
    h.word(db.comm.to_bits());
    h.word(db.comm_bytes);
    h.word(db.mbs as u64);
    h.word(db.checkpointing as u64);
    h.word(db.granularity as u64);
    // Per-device throughput multipliers change which partition balances, so
    // a heterogeneous request must never alias a cached homogeneous plan
    // (empty = homogeneous folds as a bare zero length).
    h.word(db.device_multipliers.len() as u64);
    for &mult in &db.device_multipliers {
        h.word(mult.to_bits());
    }
    h.word(p as u64);
    h.word(m as u64);
    fold_cfg(&mut h, cfg);
    for b in &db.blocks {
        h.word(b.fwd.to_bits());
        h.word(b.bwd.to_bits());
    }
    h.finish()
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Full wave search from the Algorithm-1 seed.
    Cold,
    /// Content-cache hit — no search at all.
    Hit,
    /// [`PlanService::replan`] miss served by a search warm-started from
    /// the partition that was running.
    Warm,
}

/// A served plan: the outcome (shared, not cloned) plus provenance.
#[derive(Debug, Clone)]
pub struct Served {
    /// The plan. On a [`Source::Hit`] this is the cached producing run, so
    /// `search_time`/`schemes_explored` describe that run, not the lookup;
    /// `partition` and `analytic` are bit-identical either way.
    pub outcome: Arc<AutoPipeOutcome>,
    /// Cold search, cache hit, or warm-started search.
    pub source: Source,
    /// The request's content fingerprint (cache key).
    pub fingerprint: u64,
}

/// A re-plan served through the cache: [`Served`] plus the degraded
/// baseline it is judged against.
#[derive(Debug, Clone)]
pub struct ReplanServed {
    /// The new plan under the observed costs.
    pub served: Served,
    /// Simulated iteration time of the *old* partition under the observed
    /// costs — what the new plan is judged against.
    pub degraded_time: f64,
    /// The straggler-adjusted cost database the plan was computed on.
    pub observed_db: CostDb,
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Requests answered from the content cache.
    pub hits: usize,
    /// `replan` misses served by a warm-started search.
    pub warm: usize,
    /// Cache misses served by a full cold search.
    pub cold: usize,
}

impl ServiceStats {
    /// Total requests served.
    pub fn total(&self) -> usize {
        self.hits + self.warm + self.cold
    }
}

/// One plan request in a [`PlanService::plan_batch`] call.
#[derive(Clone, Copy)]
pub struct BatchRequest<'a> {
    /// Cost database to plan over.
    pub db: &'a CostDb,
    /// Pipeline stages.
    pub p: usize,
    /// Micro-batches per iteration.
    pub m: usize,
}

/// The planner service. See the module docs for the design; construction is
/// cheap, but the value of the service is keeping one alive across many
/// requests (`Arc<PlanService>`).
pub struct PlanService {
    cfg: AutoPipeConfig,
    shard_capacity: usize,
    shards: Vec<RwLock<HashMap<u64, Arc<AutoPipeOutcome>>>>,
    /// Reusable search state, one entry checked out per in-flight search.
    scratch: Mutex<Vec<PlannerScratch>>,
    hits: AtomicUsize,
    warm: AtomicUsize,
    cold: AtomicUsize,
}

impl Default for PlanService {
    fn default() -> Self {
        PlanService::new()
    }
}

impl std::fmt::Debug for PlanService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanService")
            .field("cfg", &self.cfg)
            .field("cached", &self.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PlanService {
    /// Service with the serving configuration: the default search knobs
    /// plus dominance pruning, which `replan`'s warm start relies on to cut
    /// the frontier (and which the property tests pin as winner-preserving).
    pub fn new() -> PlanService {
        PlanService::with_config(AutoPipeConfig {
            prune: true,
            ..AutoPipeConfig::default()
        })
    }

    /// Service with explicit search knobs. The service parallelizes
    /// *across* requests ([`Self::plan_batch`]); each search runs on the
    /// thread that serves it.
    pub fn with_config(cfg: AutoPipeConfig) -> PlanService {
        PlanService::with_capacity(cfg, DEFAULT_SHARD_CAPACITY)
    }

    /// [`Self::with_config`] with a per-shard entry cap. When an insert
    /// finds its shard full, the shard is flushed wholesale (epoch
    /// eviction): entries are content-addressed and cheap to recompute, and
    /// flushing keeps the write-lock hold time bounded instead of walking
    /// an LRU under the lock.
    pub fn with_capacity(cfg: AutoPipeConfig, shard_capacity: usize) -> PlanService {
        PlanService {
            cfg,
            shard_capacity: shard_capacity.max(1),
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            scratch: Mutex::new(Vec::new()),
            hits: AtomicUsize::new(0),
            warm: AtomicUsize::new(0),
            cold: AtomicUsize::new(0),
        }
    }

    /// The search configuration every request is served with.
    pub fn config(&self) -> &AutoPipeConfig {
        &self.cfg
    }

    /// Plan with the service configuration, through the cache.
    pub fn plan(&self, db: &CostDb, p: usize, m: usize) -> Result<Served, PlanError> {
        self.serve(db, p, m, &self.cfg, None)
    }

    /// Plan with explicit search knobs (fingerprinted, so differently
    /// configured requests never alias).
    pub fn plan_cfg(
        &self,
        db: &CostDb,
        p: usize,
        m: usize,
        cfg: &AutoPipeConfig,
    ) -> Result<Served, PlanError> {
        self.serve(db, p, m, cfg, None)
    }

    /// Straggler re-plan through the cache: scale `db` by the observed
    /// per-stage `ratios` under `partition`, then serve the adjusted
    /// request. Unit ratios reproduce `db` bit-for-bit, so a no-drift
    /// re-plan of a known request is a pure cache hit; drifted costs miss
    /// the content cache and warm-start from `partition`, the plan that was
    /// running (with pruning on; without it the miss searches cold).
    pub fn replan(
        &self,
        db: &CostDb,
        partition: &Partition,
        ratios: &[f64],
        m: usize,
    ) -> Result<ReplanServed, PlanError> {
        let observed_db = observed_cost_db(db, partition, ratios)?;
        // Only the time is needed: the scalar sweep, without the op arena.
        let degraded_time = simulate_time(
            &partition.stage_costs(&observed_db),
            m,
            &mut SimScratch::new(),
        )
        .iteration_time;
        let served = self.serve(
            &observed_db,
            partition.n_stages(),
            m,
            &self.cfg,
            Some(partition),
        )?;
        Ok(ReplanServed {
            served,
            degraded_time,
            observed_db,
        })
    }

    /// Serve a batch of requests over `workers` scoped threads (`0` = one
    /// per available core). Each worker owns one [`PlannerScratch`] and
    /// pulls requests off a shared counter, so a batch of mostly-hits
    /// drains at lookup speed while misses spread across cores. Results
    /// line up with `requests`; outputs are bit-identical to serving the
    /// same slice serially (only `source` attribution can differ when
    /// identical requests race on a cold cache).
    pub fn plan_batch(
        &self,
        requests: &[BatchRequest<'_>],
        workers: usize,
    ) -> Vec<Result<Served, PlanError>> {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        let workers = workers.min(requests.len()).max(1);

        if workers == 1 {
            return requests
                .iter()
                .map(|r| self.serve(r.db, r.p, r.m, &self.cfg, None))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<Served, PlanError>>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = requests.get(i) else { break };
                    let r = self.serve(req.db, req.p, req.m, &self.cfg, None);
                    *results[i].lock().unwrap() = Some(r);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("worker served every slot")
            })
            .collect()
    }

    /// Serving counters so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
        }
    }

    /// Cached plan count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, fp: u64) -> &RwLock<HashMap<u64, Arc<AutoPipeOutcome>>> {
        &self.shards[(fp % SHARDS as u64) as usize]
    }

    /// The one serving path: content-cache lookup, then a search on miss —
    /// cold, or seeded with `running` (the re-plan path's running
    /// partition) when it matches the request's block/stage counts.
    fn serve(
        &self,
        db: &CostDb,
        p: usize,
        m: usize,
        cfg: &AutoPipeConfig,
        running: Option<&Partition>,
    ) -> Result<Served, PlanError> {
        let fp = plan_fingerprint(db, p, m, cfg);
        if let Some(hit) = self.shard(fp).read().unwrap().get(&fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Served {
                outcome: Arc::clone(hit),
                source: Source::Hit,
                fingerprint: fp,
            });
        }

        // A warm start only pays off when the dominance bound is on: the
        // incumbent's time then prunes the frontier from wave one. Without
        // pruning a seed cannot cut anything — and could outrank the cold
        // search's winner, breaking hit/cold bit-parity — so unpruned
        // requests always search cold on a miss.
        let seed = running.filter(|s| cfg.prune && s.n_stages() == p && s.n_blocks() == db.len());

        let mut scratch = self.scratch.lock().unwrap().pop().unwrap_or_default();
        let result = match seed {
            Some(s) => plan_seeded(db, p, m, cfg, std::slice::from_ref(s), &mut scratch),
            None => plan_in(db, p, m, cfg, &mut scratch),
        };
        self.scratch.lock().unwrap().push(scratch);

        let outcome = Arc::new(result?);
        {
            let mut shard = self.shard(fp).write().unwrap();
            if !shard.contains_key(&fp) && shard.len() >= self.shard_capacity {
                shard.clear();
            }
            shard.insert(fp, Arc::clone(&outcome));
        }

        let source = if seed.is_some() {
            self.warm.fetch_add(1, Ordering::Relaxed);
            Source::Warm
        } else {
            self.cold.fetch_add(1, Ordering::Relaxed);
            Source::Cold
        };
        Ok(Served {
            outcome,
            source,
            fingerprint: fp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autopipe::plan;
    use autopipe_cost::Hardware;
    use autopipe_model::{zoo, Granularity};
    use autopipe_sim::analytic::simulate_replay;

    fn db() -> CostDb {
        CostDb::build(
            &zoo::gpt2_345m(),
            &Hardware::rtx3090_cluster(),
            4,
            true,
            Granularity::SubLayer,
        )
    }

    fn bits(o: &AutoPipeOutcome) -> (Vec<usize>, u64) {
        (
            o.partition.boundaries().to_vec(),
            o.analytic.iteration_time.to_bits(),
        )
    }

    #[test]
    fn repeat_requests_hit_the_cache_and_share_the_outcome() {
        let d = db();
        let svc = PlanService::new();
        let first = svc.plan(&d, 4, 8).unwrap();
        let second = svc.plan(&d, 4, 8).unwrap();
        assert_eq!(first.source, Source::Cold);
        assert_eq!(second.source, Source::Hit);
        assert!(Arc::ptr_eq(&first.outcome, &second.outcome));
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(
            svc.stats(),
            ServiceStats {
                hits: 1,
                warm: 0,
                cold: 1
            }
        );
        assert_eq!(svc.len(), 1);
    }

    #[test]
    fn hits_are_bit_identical_to_a_cold_plan() {
        let d = db();
        let svc = PlanService::new();
        let cold = plan(&d, 8, 16, svc.config()).unwrap();
        svc.plan(&d, 8, 16).unwrap();
        let hit = svc.plan(&d, 8, 16).unwrap();
        assert_eq!(hit.source, Source::Hit);
        assert_eq!(bits(&hit.outcome), bits(&cold));
    }

    #[test]
    fn fingerprints_separate_requests() {
        let d = db();
        let cfg = AutoPipeConfig::default();
        let base = plan_fingerprint(&d, 4, 8, &cfg);
        assert_ne!(base, plan_fingerprint(&d, 8, 8, &cfg));
        assert_ne!(base, plan_fingerprint(&d, 4, 16, &cfg));

        // One cost bit flips the content fingerprint.
        let mut drifted = d.clone();
        drifted.blocks[3].fwd *= 1.0 + 1e-12;
        drifted.recompute_prefixes();
        assert_ne!(base, plan_fingerprint(&drifted, 4, 8, &cfg));

        // The search knobs are part of the request identity.
        let pruned = AutoPipeConfig { prune: true, ..cfg };
        assert_ne!(base, plan_fingerprint(&d, 4, 8, &pruned));
        // The overlap cost model is part of the request identity: a cached
        // blocking-model winner is not a valid hit for an overlap-aware
        // request, and the model's parameters matter too.
        let ov = |latency, chunks| AutoPipeConfig {
            overlap: Some(autopipe_sim::OverlapModel { latency, chunks }),
            ..cfg
        };
        let overlapped = plan_fingerprint(&d, 4, 8, &ov(30e-6, 4));
        assert_ne!(base, overlapped);
        assert_ne!(overlapped, plan_fingerprint(&d, 4, 8, &ov(60e-6, 4)));
        assert_ne!(overlapped, plan_fingerprint(&d, 4, 8, &ov(30e-6, 2)));

        // Memory constraints are part of the request identity: a plan found
        // under one budget (or recompute policy) must never be served for
        // another — not even "no budget" vs an enormous explicit one.
        let budgeted = |memory_budget, recompute| AutoPipeConfig {
            memory_budget,
            recompute,
            ..cfg
        };
        let b24 = plan_fingerprint(&d, 4, 8, &budgeted(Some(24 << 30), RecomputePolicy::Off));
        assert_ne!(base, b24);
        assert_ne!(
            b24,
            plan_fingerprint(&d, 4, 8, &budgeted(Some(16 << 30), RecomputePolicy::Off))
        );
        assert_ne!(
            base,
            plan_fingerprint(&d, 4, 8, &budgeted(Some(u64::MAX), RecomputePolicy::Off))
        );
        assert_ne!(
            b24,
            plan_fingerprint(&d, 4, 8, &budgeted(Some(24 << 30), RecomputePolicy::Auto))
        );
        assert_ne!(
            plan_fingerprint(&d, 4, 8, &budgeted(None, RecomputePolicy::Auto)),
            plan_fingerprint(&d, 4, 8, &budgeted(None, RecomputePolicy::All))
        );
    }

    #[test]
    fn budgeted_requests_cache_separately() {
        // Same (db, p, m), different constraints: each policy/budget combo
        // is its own cache line, and repeats hit only their own line.
        let d = db();
        let svc = PlanService::new();
        let base = svc.plan(&d, 4, 8).unwrap();
        let auto_cfg = AutoPipeConfig {
            memory_budget: Some(u64::MAX),
            recompute: RecomputePolicy::Auto,
            ..*svc.config()
        };
        let auto1 = svc.plan_cfg(&d, 4, 8, &auto_cfg).unwrap();
        assert_eq!(auto1.source, Source::Cold);
        assert_ne!(auto1.fingerprint, base.fingerprint);
        let auto2 = svc.plan_cfg(&d, 4, 8, &auto_cfg).unwrap();
        assert_eq!(auto2.source, Source::Hit);
        assert!(Arc::ptr_eq(&auto1.outcome, &auto2.outcome));
        // A loose budget plans the same partition but stays its own entry.
        assert_eq!(
            auto1.outcome.partition.boundaries(),
            base.outcome.partition.boundaries()
        );
        assert_eq!(svc.len(), 2);
    }

    #[test]
    fn no_drift_replan_is_a_pure_cache_hit() {
        let d = db();
        let svc = PlanService::new();
        let base = svc.plan(&d, 4, 8).unwrap();
        let r = svc
            .replan(&d, &base.outcome.partition, &[1.0; 4], 8)
            .unwrap();
        assert_eq!(r.served.source, Source::Hit);
        assert!(Arc::ptr_eq(&r.served.outcome, &base.outcome));
    }

    #[test]
    fn drifted_replan_warm_starts_and_matches_the_cold_search() {
        let d = db();
        let svc = PlanService::new();
        let base = svc.plan(&d, 4, 8).unwrap();
        let ratios = [1.0, 2.0, 1.0, 1.0];
        let r = svc.replan(&d, &base.outcome.partition, &ratios, 8).unwrap();
        assert_eq!(r.served.source, Source::Warm);
        assert!(r.degraded_time > base.outcome.analytic.iteration_time);

        let cold = plan(&r.observed_db, 4, 8, svc.config()).unwrap();
        assert_eq!(bits(&r.served.outcome), bits(&cold));
        assert!(
            r.served.outcome.schemes_explored <= cold.schemes_explored + 1,
            "warm start must not widen the search: {} vs {}",
            r.served.outcome.schemes_explored,
            cold.schemes_explored
        );

        // Re-issuing the drifted request is now a content hit.
        let again = svc.replan(&d, &base.outcome.partition, &ratios, 8).unwrap();
        assert_eq!(again.served.source, Source::Hit);
    }

    #[test]
    fn replanning_a_2x_straggler_recovers_most_of_the_loss() {
        // The acceptance scenario: one of four stages persistently runs at
        // 2x its modelled cost. Re-planning must recover ≥ 30% of the lost
        // iteration time (analytically it recovers ~70%+: the planner
        // shrinks the slow stage until all four balance again).
        let d = db();
        let svc = PlanService::new();
        let m = 8;
        let base = svc.plan(&d, 4, m).unwrap();
        let healthy = base.outcome.analytic.iteration_time;
        let r = svc
            .replan(&d, &base.outcome.partition, &[1.0, 2.0, 1.0, 1.0], m)
            .unwrap();
        assert!(r.degraded_time > healthy * 1.3, "straggler must hurt");
        assert!(
            r.served.outcome.analytic.iteration_time < r.degraded_time,
            "replan must help"
        );
        // Fraction of the lost time the new plan wins back.
        let rec = (r.degraded_time - r.served.outcome.analytic.iteration_time)
            / (r.degraded_time - healthy);
        assert!(rec >= 0.3, "recovery {rec} below the 30% bar");
        // The new plan gives the degraded stage fewer blocks.
        let old_sizes = base.outcome.partition.sizes();
        let new_sizes = r.served.outcome.partition.sizes();
        assert!(
            new_sizes[1] < old_sizes[1],
            "straggler stage should shrink: {old_sizes:?} -> {new_sizes:?}"
        );
    }

    #[test]
    fn recovery_is_measured_against_the_degraded_simulation() {
        let d = db();
        let svc = PlanService::new();
        let m = 8;
        let base = svc.plan(&d, 4, m).unwrap();
        let part = &base.outcome.partition;
        let r = svc.replan(&d, part, &[1.0, 2.0, 1.0, 1.0], m).unwrap();
        let manual = simulate_replay(&part.stage_costs(&r.observed_db), m);
        assert_eq!(manual.iteration_time.to_bits(), r.degraded_time.to_bits());
    }

    #[test]
    fn a_drifted_plan_miss_searches_cold() {
        let d = db();
        let svc = PlanService::new();
        svc.plan(&d, 8, 16).unwrap();
        let mut drifted = d.clone();
        for b in &mut drifted.blocks[..10] {
            b.fwd *= 1.7;
            b.bwd *= 1.7;
        }
        drifted.recompute_prefixes();
        let served = svc.plan(&drifted, 8, 16).unwrap();
        assert_eq!(served.source, Source::Cold);
        let cold = plan(&drifted, 8, 16, svc.config()).unwrap();
        assert_eq!(bits(&served.outcome), bits(&cold));
        assert_eq!(served.outcome.schemes_explored, cold.schemes_explored);
    }

    #[test]
    fn batch_serving_is_bit_identical_at_every_worker_count() {
        let d4 = db();
        let mut drifted = d4.clone();
        drifted.blocks[0].bwd *= 2.0;
        drifted.recompute_prefixes();
        let reqs: Vec<BatchRequest> = [(4usize, 8usize), (8, 16), (4, 8), (6, 12), (8, 16)]
            .iter()
            .flat_map(|&(p, m)| {
                [
                    BatchRequest { db: &d4, p, m },
                    BatchRequest { db: &drifted, p, m },
                ]
            })
            .collect();

        // Serial reference on a fresh service (all cold).
        let reference = PlanService::new();
        let serial: Vec<_> = reqs
            .iter()
            .map(|r| reference.plan(r.db, r.p, r.m).unwrap())
            .collect();

        for workers in [1, 4] {
            let svc = PlanService::new();
            let batch = svc.plan_batch(&reqs, workers);
            for (b, s) in batch.iter().zip(&serial) {
                let b = b.as_ref().unwrap();
                assert_eq!(bits(&b.outcome), bits(&s.outcome), "workers={workers}");
            }
            assert_eq!(svc.stats().total(), reqs.len());
        }
    }

    #[test]
    fn capacity_eviction_flushes_and_refills() {
        let d = db();
        let svc = PlanService::with_capacity(
            AutoPipeConfig {
                prune: true,
                ..AutoPipeConfig::default()
            },
            1,
        );
        for p in [2usize, 3, 4, 5, 6] {
            svc.plan(&d, p, 2 * p).unwrap();
        }
        // Every shard holds at most one entry.
        assert!(svc.len() <= SHARDS);
        // Evicted or not, re-serving still answers correctly.
        let again = svc.plan(&d, 2, 4).unwrap();
        let cold = plan(&d, 2, 4, svc.config()).unwrap();
        assert_eq!(bits(&again.outcome), bits(&cold));
    }

    #[test]
    fn plan_errors_are_returned_and_never_cached() {
        let d = db();
        let svc = PlanService::new();
        assert!(svc.plan(&d, 0, 8).is_err());
        assert!(svc.plan(&d, d.len() + 1, 8).is_err());
        assert!(svc.is_empty());
        assert_eq!(svc.stats().total(), 0);
    }
}

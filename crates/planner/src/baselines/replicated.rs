//! Replay of a 1F1B pipeline whose stages may be replicated (per-stage data
//! parallelism), used to evaluate DAPPLE/Piper hybrid plans honestly.
//!
//! Stage `j` with width `g_j` assigns micro-batch `k` to replica
//! `k mod g_j`; each device runs a 1F1B-style program where the backward of
//! micro-batch `k` waits until every forward of micro-batch
//! `k' ≤ k + Σ_{j'>j} g_{j'}` owned by the device has issued. With uniform
//! width 1 that window is the standard `S−1−j` of plain 1F1B; a replicated
//! downstream stage holds `g` micro-batches in flight, so the window grows
//! accordingly (a larger window only adds warmup forwards, which keeps the
//! replay deadlock-free).

use crate::types::HybridPlan;
use autopipe_cost::CommModel;
use autopipe_sim::partition::StageCosts;

/// Result of replaying a replicated pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicatedResult {
    /// Iteration time (excluding gradient synchronisation).
    pub pipeline_time: f64,
    /// Gradient all-reduce time appended after Cooldown (max over stages).
    pub grad_sync: f64,
}

impl ReplicatedResult {
    /// Full iteration time.
    pub fn total(&self) -> f64 {
        self.pipeline_time + self.grad_sync
    }
}

/// Replay `m` micro-batches through a pipeline with per-stage widths `g`.
/// `costs` carries per-stage (unreplicated) forward/backward times and the
/// boundary comm cost. `stage_param_bytes` (per stage) and `comm_model`
/// price the post-iteration gradient all-reduce.
pub(crate) fn simulate(
    costs: &StageCosts,
    g: &[usize],
    m: usize,
    stage_param_bytes: &[u64],
    comm: &CommModel,
) -> ReplicatedResult {
    let s = costs.n_stages();
    assert_eq!(g.len(), s);
    assert!(m >= 1);
    assert!(g.iter().all(|&x| x >= 1));

    // Device table: device id for (stage, replica).
    let mut dev_of = Vec::with_capacity(s);
    let mut n_dev = 0usize;
    for &gj in g {
        dev_of.push((n_dev..n_dev + gj).collect::<Vec<usize>>());
        n_dev += gj;
    }

    // Per-device programs: (is_bwd, stage, mb) in execution order.
    #[derive(Clone, Copy)]
    struct POp {
        is_bwd: bool,
        stage: usize,
        mb: usize,
    }
    let mut programs: Vec<Vec<POp>> = vec![Vec::new(); n_dev];
    for j in 0..s {
        for r in 0..g[j] {
            let dev = dev_of[j][r];
            let my_mbs: Vec<usize> = (r..m).step_by(g[j]).collect();
            let window: usize = g[j + 1..].iter().sum();
            let mut fi = 0usize;
            let mut prog = Vec::with_capacity(2 * my_mbs.len());
            for &k in &my_mbs {
                // Issue every owned forward with mb ≤ k + window first.
                while fi < my_mbs.len() && my_mbs[fi] <= k + window {
                    prog.push(POp {
                        is_bwd: false,
                        stage: j,
                        mb: my_mbs[fi],
                    });
                    fi += 1;
                }
                prog.push(POp {
                    is_bwd: true,
                    stage: j,
                    mb: k,
                });
            }
            while fi < my_mbs.len() {
                prog.push(POp {
                    is_bwd: false,
                    stage: j,
                    mb: my_mbs[fi],
                });
                fi += 1;
            }
            programs[dev] = prog;
        }
    }

    // End times of forwards/backwards per (stage, mb).
    let mut fwd_end = vec![vec![f64::NAN; m]; s];
    let mut bwd_end = vec![vec![f64::NAN; m]; s];
    let mut pc = vec![0usize; n_dev];
    let mut free = vec![0.0_f64; n_dev];

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for j in 0..s {
            for &dev in &dev_of[j] {
                while pc[dev] < programs[dev].len() {
                    let op = programs[dev][pc[dev]];
                    let (ready, dur) = if op.is_bwd {
                        if op.stage < s - 1 {
                            let dep = bwd_end[op.stage + 1][op.mb];
                            if dep.is_nan() {
                                break;
                            }
                            (dep + costs.comm, costs.b[op.stage])
                        } else {
                            let dep = fwd_end[op.stage][op.mb];
                            if dep.is_nan() {
                                break;
                            }
                            (0.0, costs.b[op.stage])
                        }
                    } else if op.stage > 0 {
                        let dep = fwd_end[op.stage - 1][op.mb];
                        if dep.is_nan() {
                            break;
                        }
                        (dep + costs.comm, costs.f[op.stage])
                    } else {
                        (0.0, costs.f[op.stage])
                    };
                    let start = free[dev].max(ready);
                    let end = start + dur;
                    free[dev] = end;
                    if op.is_bwd {
                        bwd_end[op.stage][op.mb] = end;
                    } else {
                        fwd_end[op.stage][op.mb] = end;
                    }
                    pc[dev] += 1;
                    progressed = true;
                }
                if pc[dev] < programs[dev].len() {
                    all_done = false;
                }
            }
        }
        if all_done {
            break;
        }
        assert!(progressed, "replicated pipeline replay stalled");
    }

    let pipeline_time = free.iter().copied().fold(0.0, f64::max);
    let grad_sync = (0..s)
        .map(|j| comm.grad_sync(stage_param_bytes[j], g[j]))
        .fold(0.0, f64::max);
    ReplicatedResult {
        pipeline_time,
        grad_sync,
    }
}

/// Evaluate a [`HybridPlan`] against a cost database: replay the pipeline
/// with `m_total` micro-batches and add gradient synchronisation.
pub fn evaluate_plan(
    plan: &HybridPlan,
    db: &autopipe_cost::CostDb,
    m_total: usize,
    elem_bytes: u64,
    comm: &CommModel,
) -> ReplicatedResult {
    let costs = plan.partition.stage_costs(db);
    let params = plan.partition.stage_params(db);
    let param_bytes: Vec<u64> = params.iter().map(|p| p * elem_bytes).collect();
    simulate(&costs, &plan.dp, m_total, &param_bytes, comm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm0() -> CommModel {
        CommModel {
            latency: 0.0,
            bandwidth: 1e12,
        }
    }

    #[test]
    fn uniform_width_one_matches_plain_1f1b() {
        let costs = StageCosts::new(vec![1.0, 1.2, 0.8, 1.0], vec![2.0, 2.4, 1.6, 2.0], 0.03);
        let m = 8;
        let rep = simulate(&costs, &[1, 1, 1, 1], m, &[0, 0, 0, 0], &comm0());
        let plain = autopipe_sim::simulate_replay(&costs, m);
        assert!(
            (rep.pipeline_time - plain.iteration_time).abs() < 1e-9,
            "replicated {} vs plain {}",
            rep.pipeline_time,
            plain.iteration_time
        );
    }

    #[test]
    fn replication_speeds_up_the_bottleneck() {
        // Stage 1 is 3x heavier; giving it 3 replicas restores throughput.
        let costs = StageCosts::new(vec![1.0, 3.0], vec![2.0, 6.0], 0.0);
        let m = 12;
        let slow = simulate(&costs, &[1, 1], m, &[0, 0], &comm0());
        let fast = simulate(&costs, &[1, 3], m, &[0, 0], &comm0());
        assert!(
            fast.pipeline_time < 0.5 * slow.pipeline_time,
            "fast {} slow {}",
            fast.pipeline_time,
            slow.pipeline_time
        );
    }

    #[test]
    fn rear_heavy_plan_is_slower_than_balanced_at_equal_devices() {
        // 4 devices, balanced 2x2 vs DAPPLE-style (1,3) with a 3x-heavy rear
        // stage: same aggregate throughput, worse latency structure.
        let m = 16;
        let balanced = StageCosts::new(vec![2.0, 2.0], vec![4.0, 4.0], 0.01);
        let rear = StageCosts::new(vec![1.0, 3.0], vec![2.0, 6.0], 0.01);
        let b = simulate(&balanced, &[2, 2], m, &[0, 0], &comm0());
        let r = simulate(&rear, &[1, 3], m, &[0, 0], &comm0());
        assert!(
            r.pipeline_time > b.pipeline_time,
            "rear {} balanced {}",
            r.pipeline_time,
            b.pipeline_time
        );
    }

    #[test]
    fn grad_sync_counts_only_replicated_stages() {
        let costs = StageCosts::new(vec![1.0, 1.0], vec![2.0, 2.0], 0.0);
        let comm = CommModel {
            latency: 1e-5,
            bandwidth: 1e10,
        };
        let none = simulate(&costs, &[1, 1], 4, &[1 << 30, 1 << 30], &comm);
        assert_eq!(none.grad_sync, 0.0);
        let some = simulate(&costs, &[1, 2], 4, &[1 << 30, 1 << 30], &comm);
        assert!(some.grad_sync > 0.0);
    }

    #[test]
    fn handles_m_not_multiple_of_width() {
        let costs = StageCosts::new(vec![1.0, 1.0], vec![2.0, 2.0], 0.0);
        let r = simulate(&costs, &[1, 3], 7, &[0, 0], &comm0());
        assert!(r.pipeline_time.is_finite());
        assert!(r.pipeline_time >= 7.0 * 3.0 / 3.0);
    }
}

//! Pipeline quality metrics.

use crate::partition::StageCosts;

/// Balance criterion of Fig. 13: the standard deviation of per-stage running
/// times over one iteration (`m · (f_x + b_x)`). Lower is more balanced.
pub fn balance_stddev(costs: &StageCosts, m: usize) -> f64 {
    let times: Vec<f64> = (0..costs.n_stages())
        .map(|x| m as f64 * costs.work(x))
        .collect();
    stddev(&times)
}

/// Population standard deviation.
pub(crate) fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Per-stage per-micro-batch loads `f_x + b_x` — the works the balance
/// metrics summarise.
pub(crate) fn stage_works(costs: &StageCosts) -> Vec<f64> {
    (0..costs.n_stages()).map(|x| costs.work(x)).collect()
}

/// Max/mean stage-load imbalance: the heaviest stage's `f_x + b_x` over the
/// mean. 1.0 is perfectly balanced; the scaling and ablation experiments
/// report this per plan.
pub fn max_mean_imbalance(costs: &StageCosts) -> f64 {
    let works = stage_works(costs);
    let mean = works.iter().sum::<f64>() / works.len() as f64;
    let max = works.iter().copied().fold(0.0, f64::max);
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stddev_of_constant_is_zero() {
        assert_eq!(stddev(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
    }

    #[test]
    fn balance_prefers_even_partitions() {
        let even = StageCosts::new(vec![1.0; 4], vec![2.0; 4], 0.0);
        let skew = StageCosts::new(vec![0.5, 1.0, 1.0, 1.5], vec![1.0, 2.0, 2.0, 3.0], 0.0);
        assert!(balance_stddev(&even, 8) < balance_stddev(&skew, 8));
        assert_eq!(balance_stddev(&even, 8), 0.0);
    }

    #[test]
    fn imbalance_is_one_when_even_and_grows_with_skew() {
        let even = StageCosts::new(vec![1.0; 4], vec![2.0; 4], 0.0);
        assert!((max_mean_imbalance(&even) - 1.0).abs() < 1e-12);
        let skew = StageCosts::new(vec![0.5, 1.0, 1.0, 1.5], vec![1.0, 2.0, 2.0, 3.0], 0.0);
        assert!((max_mean_imbalance(&skew) - 4.5 / 3.0).abs() < 1e-12);
        assert_eq!(stage_works(&skew), vec![1.5, 3.0, 3.0, 4.5]);
    }
}

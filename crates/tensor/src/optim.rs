//! Optimisers over flat parameter lists.

use serde::Serialize;

use crate::tensor::Tensor;

/// Adam (Kingma & Ba) — the optimiser the paper trains with (§II-A).
#[derive(Debug, Clone, Serialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Build with standard hyper-parameters for the given parameter shapes.
    pub fn new(lr: f32, params: &[&Tensor]) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
            v: params.iter().map(|p| Tensor::zeros(p.shape())).collect(),
        }
    }

    /// Rebuild from migrated state: moments and step count carried over
    /// from another optimiser instance (stage-to-stage parameter migration
    /// when a pipeline is re-partitioned).
    pub fn from_moments(lr: f32, step: u64, m: Vec<Tensor>, v: Vec<Tensor>) -> Adam {
        assert_eq!(m.len(), v.len(), "moment list length mismatch");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step,
            m,
            v,
        }
    }

    /// Number of steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The first and second moment accumulators, in parameter order.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Decompose into `(step, m, v)` for migration.
    pub fn into_moments(self) -> (u64, Vec<Tensor>, Vec<Tensor>) {
        (self.step, self.m, self.v)
    }

    /// Apply one Adam step.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[&Tensor]) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.m.len());
        self.step += 1;
        let b1t = 1.0 - self.beta1.powi(self.step as i32);
        let b2t = 1.0 - self.beta2.powi(self.step as i32);
        for i in 0..params.len() {
            let g = grads[i].data();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let p = params[i].data_mut();
            for j in 0..g.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] * g[j];
                let mhat = m[j] / b1t;
                let vhat = v[j] / b2t;
                p[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_descends_a_quadratic() {
        let mut p = Tensor::from_vec(&[2], vec![3.0, -4.0]);
        let mut adam = Adam::new(0.1, &[&p]);
        for _ in 0..300 {
            let g = p.scale(2.0);
            adam.step(&mut [&mut p], &[&g]);
        }
        assert!(
            p.data().iter().all(|x| x.abs() < 1e-2),
            "p = {:?}",
            p.data()
        );
    }

    #[test]
    fn migrated_adam_continues_bit_identically() {
        // Split the optimiser state out and rebuild it: the continuation
        // must match an uninterrupted run exactly.
        let run = |migrate: bool| {
            let mut p = Tensor::from_vec(&[2], vec![3.0, -4.0]);
            let mut adam = Adam::new(0.05, &[&p]);
            for _ in 0..5 {
                let g = p.scale(2.0);
                adam.step(&mut [&mut p], &[&g]);
            }
            if migrate {
                let lr = adam.lr;
                let (step, m, v) = adam.into_moments();
                adam = Adam::from_moments(lr, step, m, v);
            }
            for _ in 0..5 {
                let g = p.scale(2.0);
                adam.step(&mut [&mut p], &[&g]);
            }
            (p.data().to_vec(), adam.step_count())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn adam_is_deterministic() {
        let run = || {
            let mut p = Tensor::from_vec(&[1], vec![1.0]);
            let mut adam = Adam::new(0.05, &[&p]);
            for _ in 0..10 {
                let g = p.scale(2.0);
                adam.step(&mut [&mut p], &[&g]);
            }
            p.data()[0]
        };
        assert_eq!(run(), run());
    }
}

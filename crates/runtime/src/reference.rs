//! Single-device reference trainer: the ground truth that pipeline runs
//! must match numerically (synchronous pipeline parallelism "does not
//! affect model convergence", §II-B — here we check the stronger property
//! of step-for-step equality).

use autopipe_model::ModelConfig;
use autopipe_schedule::Part;
use autopipe_sim::Partition;

use crate::data::BatchSet;
use crate::stage::{build_modules, StageInput, StageModel, StageOutput};

/// Whole model on one "device", trained with the same gradient-accumulation
/// semantics as the pipeline (per-micro-batch backward, mean-scaled).
pub struct ReferenceModel {
    stage: StageModel,
}

impl ReferenceModel {
    /// Build with the same seed as a [`crate::Pipeline`] for equality.
    /// `checkpointing` mirrors [`crate::PipelineConfig::checkpointing`] and
    /// changes no result: one device runs each backward right after its
    /// forward, so the lowering replays no forward and every forward keeps
    /// its caches.
    pub fn new(cfg: &ModelConfig, seed: u64, lr: f32, checkpointing: bool) -> ReferenceModel {
        let _ = checkpointing;
        let all = build_modules(cfg, seed);
        let part = Partition::new(vec![0, all.len()]);
        ReferenceModel {
            stage: StageModel::new(&all, &part, 0, cfg.seq_len, lr),
        }
    }

    /// One training iteration over all micro-batches; returns mean loss.
    pub fn train_iteration(&mut self, batch: &BatchSet) -> f32 {
        let loss = self.forward_backward(batch);
        self.stage.step();
        loss
    }

    /// Forward/backward accumulation without the optimiser step; each
    /// forward keeps its caches for the backward that follows it.
    pub(crate) fn forward_backward(&mut self, batch: &BatchSet) -> f32 {
        let m = batch.n_microbatches();
        let scale = 1.0 / m as f32;
        let mut loss_sum = 0.0_f32;
        for mb in 0..m {
            match self.stage.forward(
                mb,
                Part::Full,
                StageInput::Tokens(batch.ids[mb].clone()),
                Some(batch.targets[mb].clone()),
                true,
            ) {
                StageOutput::Loss(l) => loss_sum += l,
                StageOutput::Hidden(_) => panic!("reference model must end in a loss"),
            }
            self.stage.backward_microbatch(mb, None, scale);
        }
        loss_sum / m as f32
    }

    /// Parameter checksum for equality tests.
    pub fn param_checksum(&self) -> f64 {
        self.stage.param_checksum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::ModelFamily;

    fn tiny() -> ModelConfig {
        ModelConfig {
            name: "tiny".into(),
            family: ModelFamily::Gpt2,
            num_layers: 2,
            hidden_size: 16,
            num_heads: 2,
            seq_len: 8,
            vocab_size: 40,
            ffn_mult: 2,
        }
    }

    #[test]
    fn reference_loss_decreases_over_iterations() {
        let cfg = tiny();
        let mut model = ReferenceModel::new(&cfg, 42, 3e-3, false);
        let batch = BatchSet::synthetic(1, 4, 2, cfg.seq_len, cfg.vocab_size);
        let first = model.train_iteration(&batch);
        let mut last = first;
        for _ in 0..10 {
            last = model.train_iteration(&batch);
        }
        assert!(
            last < first,
            "loss should decrease on a fixed batch: {first} -> {last}"
        );
    }

    #[test]
    fn reference_is_deterministic() {
        let cfg = tiny();
        let run = || {
            let mut model = ReferenceModel::new(&cfg, 7, 1e-3, false);
            let batch = BatchSet::synthetic(2, 2, 2, cfg.seq_len, cfg.vocab_size);
            let l = model.train_iteration(&batch);
            (l, model.param_checksum())
        };
        assert_eq!(run(), run());
    }
}

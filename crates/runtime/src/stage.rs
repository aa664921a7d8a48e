//! Pipeline stage models: a contiguous run of blocks plus their gradients,
//! caches and optimiser state.

use std::collections::HashMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use autopipe_model::{build_blocks, BlockKind, Granularity, ModelConfig};
use autopipe_schedule::Part;
use autopipe_sim::Partition;
use autopipe_tensor::nn::{AttentionBlock, EmbeddingBlock, FfnBlock, FinalLn, LmHead};
use autopipe_tensor::{ops, optim::Adam, Tensor};

/// One executable block module.
#[derive(Debug, Clone)]
pub enum Module {
    /// Token + positional embedding (stage input is token ids).
    Embedding(EmbeddingBlock),
    /// Residual attention block.
    Attn(AttentionBlock),
    /// Residual FFN block.
    Ffn(FfnBlock),
    /// Final layer-norm.
    FinalLn(FinalLn),
    /// LM head + loss (consumes targets).
    Head(LmHead),
    /// Pass-through (BERT pooler stand-in; carries no parameters).
    Identity,
}

impl Module {
    fn params(&self) -> Vec<&Tensor> {
        match self {
            Module::Embedding(m) => m.params(),
            Module::Attn(m) => m.params(),
            Module::Ffn(m) => m.params(),
            Module::FinalLn(m) => m.params(),
            Module::Head(m) => m.params(),
            Module::Identity => vec![],
        }
    }

    /// Number of parameter tensors this module owns (partition migration
    /// needs it to re-split a flat parameter stream along new boundaries).
    pub(crate) fn param_count(&self) -> usize {
        self.params().len()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        match self {
            Module::Embedding(m) => m.params_mut(),
            Module::Attn(m) => m.params_mut(),
            Module::Ffn(m) => m.params_mut(),
            Module::FinalLn(m) => m.params_mut(),
            Module::Head(m) => m.params_mut(),
            Module::Identity => vec![],
        }
    }
}

/// Build the full module list for a model at sub-layer granularity with a
/// deterministic parameter initialisation shared by the pipeline engine and
/// the single-device reference.
pub(crate) fn build_modules(cfg: &ModelConfig, seed: u64) -> Vec<Module> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let causal = matches!(cfg.family, autopipe_model::ModelFamily::Gpt2);
    let blocks = build_blocks(cfg, Granularity::SubLayer);
    blocks
        .iter()
        .map(|b| match b.kind {
            BlockKind::Embedding => Module::Embedding(EmbeddingBlock::init(
                cfg.vocab_size,
                cfg.seq_len,
                cfg.hidden_size,
                &mut rng,
            )),
            BlockKind::Attention => Module::Attn(AttentionBlock::init(
                cfg.hidden_size,
                cfg.num_heads,
                causal,
                &mut rng,
            )),
            BlockKind::Ffn => Module::Ffn(FfnBlock::init(cfg.hidden_size, cfg.ffn_mult, &mut rng)),
            BlockKind::FinalLayerNorm => Module::FinalLn(FinalLn::init(cfg.hidden_size)),
            BlockKind::LmHead => {
                Module::Head(LmHead::init(cfg.hidden_size, cfg.vocab_size, &mut rng))
            }
            BlockKind::Pooler => Module::Identity,
            BlockKind::TransformerLayer => {
                unreachable!("sub-layer lowering never emits whole layers")
            }
        })
        .collect()
}

/// Stage input: tokens at stage 0, hidden states elsewhere.
#[derive(Debug, Clone)]
pub enum StageInput {
    /// Token ids (flattened `rows × seq`... rows of samples).
    Tokens(Vec<usize>),
    /// Hidden activations `[rows·seq, h]`.
    Hidden(Tensor),
}

/// Stage output: hidden states, or the loss at the last stage.
#[derive(Debug, Clone)]
pub enum StageOutput {
    /// Hidden activations to ship downstream.
    Hidden(Tensor),
    /// Weighted loss contribution of this (micro-batch, part).
    Loss(f32),
}

/// Split an aggregated `[rows, h]` activation back into its two halves —
/// the receiving side of the last sliced micro-batch's `Part::Both` message
/// (§III-C).
pub(crate) fn split_halves(t: &Tensor) -> (Tensor, Tensor) {
    let h = *t.shape().last().unwrap();
    let rows = t.len() / h;
    let half = rows / 2;
    (
        Tensor::from_vec(&[half, h], t.data()[..half * h].to_vec()),
        Tensor::from_vec(&[rows - half, h], t.data()[half * h..].to_vec()),
    )
}

/// Concatenate two half activations row-wise into one aggregated message —
/// the sending side of `Part::Both`.
pub(crate) fn concat_halves(t1: &Tensor, t2: &Tensor) -> Tensor {
    let h = *t1.shape().last().unwrap();
    let rows = t1.len() / h + t2.len() / h;
    let mut data = Vec::with_capacity(rows * h);
    data.extend_from_slice(t1.data());
    data.extend_from_slice(t2.data());
    Tensor::from_vec(&[rows, h], data)
}

#[derive(Debug, Clone)]
enum ModCache {
    Embedding(Vec<usize>),
    Attn(Box<autopipe_tensor::nn::AttentionCache>),
    Ffn(Box<autopipe_tensor::nn::FfnCache>),
    Ln(ops::LnCache),
    Head { x: Tensor, dlogits: Tensor },
    Identity,
}

/// What a stage holds for one (micro-batch, part) between the forward that
/// creates it and the op that releases it: the fused `Bwd`, or the
/// `BwdWeight` of a split backward — the op
/// `autopipe_sim::memcheck::peak_in_flight` releases it at.
enum Stash {
    /// Forwarded: the stage input, the head stage's targets, and the
    /// activation caches unless the forward dropped them for a `Recompute`.
    Forwarded {
        input: StageInput,
        targets: Option<Vec<usize>>,
        caches: Option<Vec<ModCache>>,
    },
    /// A grad-input backward ran: the weight gradients it computed, as
    /// `(grad offset, per-module grads)` in computation order, awaiting the
    /// `BwdWeight` that accumulates them.
    WeightGrads(Vec<(usize, Vec<Tensor>)>),
}

/// A pipeline stage: its modules, gradient accumulators, per-micro-batch
/// stash, and Adam state.
pub struct StageModel {
    modules: Vec<Module>,
    grads: Vec<Tensor>,
    adam: Adam,
    /// One record per live (micro-batch, part); compute parts are `Full`,
    /// `Half1` or `Half2`, never `Both`.
    stash: HashMap<(usize, Part), Stash>,
    /// Sum of the live records' [`Part::frac`], kept on insert and remove.
    in_flight: f64,
    /// Micro-batches' worth of activation caches alive now (each part's
    /// set weighs its [`Part::frac`]): kept in a record, or being consumed
    /// by a backward.
    caches_live: f64,
    /// Peak of `caches_live`, counting each set from the forward that
    /// builds it, since [`take_peak_caches`](StageModel::take_peak_caches).
    peak_caches: f64,
    seq: usize,
    /// Micro-batches' worth of forward passes run: forwards and recomputes.
    #[cfg(test)]
    forwards_run: f64,
}

impl StageModel {
    /// Build a stage from the model's full module list and a partition.
    pub(crate) fn new(
        all_modules: &[Module],
        partition: &Partition,
        stage: usize,
        seq: usize,
        lr: f32,
    ) -> StageModel {
        let modules = all_modules[partition.range(stage)].to_vec();
        StageModel::from_parts(modules, seq, lr)
    }

    /// Rebuild a stage around an already-built module run — the receiving
    /// side of a partition hot-swap. Parameters and optimiser moments are
    /// expected to follow via [`StageModel::import_state`]
    /// (the fresh Adam built here is placeholder state).
    pub(crate) fn from_parts(modules: Vec<Module>, seq: usize, lr: f32) -> StageModel {
        let grads: Vec<Tensor> = modules
            .iter()
            .flat_map(|m| m.params().into_iter().map(|p| Tensor::zeros(p.shape())))
            .collect();
        let param_refs: Vec<&Tensor> = modules.iter().flat_map(|m| m.params()).collect();
        let adam = Adam::new(lr, &param_refs);
        StageModel {
            modules,
            grads,
            adam,
            stash: HashMap::new(),
            in_flight: 0.0,
            caches_live: 0.0,
            peak_caches: 0.0,
            seq,
            #[cfg(test)]
            forwards_run: 0.0,
        }
    }

    /// Decompose into the owned module run, in block order — the sending
    /// side of a partition hot-swap.
    pub(crate) fn into_modules(self) -> Vec<Module> {
        self.modules
    }

    /// Forward `part` of micro-batch `mb`, opening its stash record.
    /// `targets` are the part's labels, on the stage holding the LM head.
    ///
    /// The record keeps the activation caches iff `keep`, the schedule's
    /// [`kept_forwards`](autopipe_schedule::kept_forwards) entry for this
    /// op: false when a later `Recompute` of this micro-batch rebuilds them.
    pub(crate) fn forward(
        &mut self,
        mb: usize,
        part: Part,
        input: StageInput,
        targets: Option<Vec<usize>>,
        keep: bool,
    ) -> StageOutput {
        let (out, caches) = self.run_forward(&input, targets.as_deref(), part);
        self.built_caches(part, keep);
        let record = Stash::Forwarded {
            input,
            targets,
            caches: keep.then_some(caches),
        };
        let stale = self.stash.insert((mb, part), record);
        assert!(
            stale.is_none(),
            "{part:?} of micro-batch {mb} forwarded twice"
        );
        self.in_flight += part.frac();
        out
    }

    /// Replay the forward of micro-batch `mb` from the stashed stage inputs,
    /// rebuilding the activation caches its forward dropped — the schedule
    /// IR's `Recompute` op. `run_forward` is pure, so the rebuilt caches are
    /// bit-identical to the ones the forward would have kept; parts whose
    /// caches are still live are left untouched. Returns `false` when no
    /// forward state of `mb` is live on this stage.
    pub(crate) fn recompute_microbatch(&mut self, mb: usize) -> bool {
        let mut forwarded = false;
        for part in [Part::Full, Part::Half1, Part::Half2] {
            let Some(Stash::Forwarded {
                input,
                targets,
                caches,
            }) = self.stash.get(&(mb, part))
            else {
                continue;
            };
            forwarded = true;
            if caches.is_some() {
                continue;
            }
            let rebuilt = self.run_forward(input, targets.as_deref(), part).1;
            self.built_caches(part, true);
            if let Some(Stash::Forwarded { caches, .. }) = self.stash.get_mut(&(mb, part)) {
                *caches = Some(rebuilt);
            }
        }
        forwarded
    }

    /// Micro-batches' worth of stash records live on this stage: the sum of
    /// their parts' [`Part::frac`].
    pub(crate) fn in_flight(&self) -> f64 {
        self.in_flight
    }

    /// Drop every stash record — what an aborted iteration leaves behind.
    pub(crate) fn clear_stash(&mut self) {
        self.stash.clear();
        self.in_flight = 0.0;
        self.caches_live = 0.0;
        self.peak_caches = 0.0;
    }

    /// Account for `part`'s cache set `run_forward` just built: it is live
    /// now, and stays live iff `stored` until the backward that consumes it.
    fn built_caches(&mut self, part: Part, stored: bool) {
        self.peak_caches = self.peak_caches.max(self.caches_live + part.frac());
        if stored {
            self.caches_live += part.frac();
        }
        #[cfg(test)]
        {
            self.forwards_run += part.frac();
        }
    }

    /// The most micro-batches' worth of activation caches this stage held
    /// at once since the last call, counting each part's set from the
    /// forward that built it; restarts the count from what is live now.
    pub(crate) fn take_peak_caches(&mut self) -> f64 {
        std::mem::replace(&mut self.peak_caches, self.caches_live)
    }

    fn run_forward(
        &self,
        input: &StageInput,
        targets: Option<&[usize]>,
        part: Part,
    ) -> (StageOutput, Vec<ModCache>) {
        let mut caches = Vec::with_capacity(self.modules.len());
        let (mut hidden, ids) = match input {
            StageInput::Hidden(t) => (Some(t.clone()), None),
            StageInput::Tokens(ids) => (None, Some(ids)),
        };
        let mut loss: Option<f32> = None;
        for m in &self.modules {
            match m {
                Module::Embedding(e) => {
                    let ids = ids.expect("embedding stage needs token input");
                    hidden = Some(e.forward(ids));
                    caches.push(ModCache::Embedding(ids.clone()));
                }
                Module::Attn(a) => {
                    let x = hidden.take().expect("attention needs hidden input");
                    let rows = x.len() / x.shape()[1];
                    let batch = rows / self.seq;
                    let (y, c) = a.forward(&x, batch, self.seq);
                    hidden = Some(y);
                    caches.push(ModCache::Attn(Box::new(c)));
                }
                Module::Ffn(f) => {
                    let x = hidden.take().expect("ffn needs hidden input");
                    let (y, c) = f.forward(&x);
                    hidden = Some(y);
                    caches.push(ModCache::Ffn(Box::new(c)));
                }
                Module::FinalLn(l) => {
                    let x = hidden.take().expect("final-ln needs hidden input");
                    let (y, c) = l.forward(&x);
                    hidden = Some(y);
                    caches.push(ModCache::Ln(c));
                }
                Module::Head(h) => {
                    let x = hidden.take().expect("head needs hidden input");
                    let targets = targets.expect("head stage needs targets");
                    let (l, dlogits) = h.forward_loss(&x, targets);
                    // Halves weigh half so the micro-batch loss/gradient is
                    // the full-batch mean.
                    let w = part.frac() as f32;
                    loss = Some(l * w);
                    caches.push(ModCache::Head {
                        x,
                        dlogits: dlogits.scale(w),
                    });
                }
                Module::Identity => caches.push(ModCache::Identity),
            }
        }
        let out = match loss {
            Some(l) => StageOutput::Loss(l),
            None => StageOutput::Hidden(hidden.expect("stage produced no output")),
        };
        (out, caches)
    }

    /// Shared reverse-module walk. `apply = Some(scale)` accumulates weight
    /// gradients immediately (fused backward) and closes the part's record;
    /// `None` leaves them in the record for a deferred grad-weight op.
    fn backward_part(
        &mut self,
        mb: usize,
        part: Part,
        d_out: Option<&Tensor>,
        apply: Option<f32>,
    ) -> Option<Tensor> {
        let Some(Stash::Forwarded {
            caches: Some(caches),
            ..
        }) = self.stash.remove(&(mb, part))
        else {
            panic!("{part:?} of micro-batch {mb} has no forward caches on this stage");
        };

        let mut dy: Option<Tensor> = d_out.cloned();
        let mut grad_cursor = self.grads.len();
        let mut stash: Vec<(usize, Vec<Tensor>)> = Vec::new();
        // Walk modules in reverse, writing into the grad accumulators.
        for (m, cache) in self.modules.iter().zip(caches.iter()).rev() {
            let nparams = m.params().len();
            grad_cursor -= nparams;
            let (dx, grads) = match (m, cache) {
                (Module::Embedding(e), ModCache::Embedding(ids)) => {
                    let g = e.backward(ids, dy.as_ref().expect("embedding backward needs grad"));
                    (None, g)
                }
                (Module::Attn(a), ModCache::Attn(c)) => {
                    let (dx, g) = a.backward(c, dy.as_ref().unwrap());
                    (Some(dx), g)
                }
                (Module::Ffn(f), ModCache::Ffn(c)) => {
                    let (dx, g) = f.backward(c, dy.as_ref().unwrap());
                    (Some(dx), g)
                }
                (Module::FinalLn(l), ModCache::Ln(c)) => {
                    let (dx, g) = l.backward(c, dy.as_ref().unwrap());
                    (Some(dx), g)
                }
                (Module::Head(h), ModCache::Head { x, dlogits }) => {
                    let (dx, g) = h.backward(x, dlogits);
                    (Some(dx), g)
                }
                (Module::Identity, ModCache::Identity) => (dy.clone(), vec![]),
                _ => unreachable!("cache kind mismatch"),
            };
            match apply {
                Some(scale) => {
                    for (slot, g) in self.grads[grad_cursor..grad_cursor + nparams]
                        .iter_mut()
                        .zip(&grads)
                    {
                        slot.axpy(scale, g);
                    }
                }
                None => stash.push((grad_cursor, grads)),
            }
            dy = dx;
        }
        self.caches_live -= part.frac();
        match apply {
            Some(_) => self.in_flight -= part.frac(),
            None => {
                self.stash.insert((mb, part), Stash::WeightGrads(stash));
            }
        }
        dy
    }

    /// Grad-weight half of a split backward (`BwdWeight`): accumulate the
    /// weight gradients `mb`'s grad-input(s) left in its records, with the
    /// exact `axpy` sequence the fused backward would have used, and close
    /// the records. Returns `false` if no record of `mb` holds any.
    pub(crate) fn apply_weight_grads(&mut self, mb: usize, grad_scale: f32) -> bool {
        let mut applied = false;
        // The order the grad-inputs ran in: halves backward in reverse.
        for part in [Part::Full, Part::Half2, Part::Half1] {
            let Some(Stash::WeightGrads(_)) = self.stash.get(&(mb, part)) else {
                continue;
            };
            let Some(Stash::WeightGrads(stash)) = self.stash.remove(&(mb, part)) else {
                unreachable!("the record was just matched");
            };
            for (offset, grads) in &stash {
                for (slot, g) in self.grads[*offset..*offset + grads.len()]
                    .iter_mut()
                    .zip(grads)
                {
                    slot.axpy(grad_scale, g);
                }
            }
            self.in_flight -= part.frac();
            applied = true;
        }
        applied
    }

    /// Backward a whole micro-batch, dispatching on how it was forwarded:
    /// a Full forward gets one backward; a sliced forward (two halves) gets
    /// two half backwards whose input gradients are concatenated back into
    /// the full `[rows, h]` layout — the single `SendGrad` the schedule
    /// emits. `d_out` covers the full micro-batch's rows.
    pub(crate) fn backward_microbatch(
        &mut self,
        mb: usize,
        d_out: Option<&Tensor>,
        grad_scale: f32,
    ) -> Option<Tensor> {
        self.backward_microbatch_part(mb, d_out, Some(grad_scale))
    }

    /// [`backward_microbatch`](StageModel::backward_microbatch)'s grad-input
    /// counterpart: same slicing dispatch, weight gradients stashed instead
    /// of accumulated.
    pub(crate) fn backward_input_microbatch(
        &mut self,
        mb: usize,
        d_out: Option<&Tensor>,
    ) -> Option<Tensor> {
        self.backward_microbatch_part(mb, d_out, None)
    }

    fn backward_microbatch_part(
        &mut self,
        mb: usize,
        d_out: Option<&Tensor>,
        apply: Option<f32>,
    ) -> Option<Tensor> {
        if self.stash.contains_key(&(mb, Part::Full)) {
            return self.backward_part(mb, Part::Full, d_out, apply);
        }
        assert!(
            self.stash.contains_key(&(mb, Part::Half1))
                && self.stash.contains_key(&(mb, Part::Half2)),
            "micro-batch {mb} was never forwarded on this stage"
        );
        let (d1, d2) = match d_out.map(split_halves) {
            Some((a, b)) => (Some(a), Some(b)),
            None => (None, None),
        };
        // Reverse order of the forwards, like a real autograd tape.
        let dx2 = self.backward_part(mb, Part::Half2, d2.as_ref(), apply);
        let dx1 = self.backward_part(mb, Part::Half1, d1.as_ref(), apply);
        match (dx1, dx2) {
            (Some(a), Some(b)) => Some(concat_halves(&a, &b)),
            _ => None,
        }
    }

    /// Apply the accumulated gradients with Adam and reset them.
    pub(crate) fn step(&mut self) {
        let mut params: Vec<&mut Tensor> = self
            .modules
            .iter_mut()
            .flat_map(|m| m.params_mut())
            .collect();
        let grads: Vec<&Tensor> = self.grads.iter().collect();
        self.adam.step(&mut params, &grads);
        for g in &mut self.grads {
            for v in g.data_mut() {
                *v = 0.0;
            }
        }
    }

    /// Discard all per-iteration transient state: accumulated gradients
    /// and the stash. A crash-aborted iteration leaves partial gradients
    /// behind (the [`step`](StageModel::step) that normally zeroes them
    /// never ran), so a checkpoint import resets this before replaying.
    pub(crate) fn reset_transient(&mut self) {
        for g in &mut self.grads {
            for v in g.data_mut() {
                *v = 0.0;
            }
        }
        self.clear_stash();
    }

    /// Shape signature of every parameter, in module order (checkpoint
    /// compatibility checks).
    pub(crate) fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.modules
            .iter()
            .flat_map(|m| m.params())
            .map(|p| p.shape().to_vec())
            .collect()
    }

    /// Snapshot of all parameter tensors, in module order.
    pub(crate) fn param_snapshot(&self) -> Vec<Tensor> {
        self.modules
            .iter()
            .flat_map(|m| m.params())
            .cloned()
            .collect()
    }

    /// Overwrite all parameters from a snapshot (shapes must match).
    pub(crate) fn restore_params(&mut self, params: &[Tensor]) {
        let mut mine: Vec<&mut Tensor> = self
            .modules
            .iter_mut()
            .flat_map(|m| m.params_mut())
            .collect();
        assert_eq!(mine.len(), params.len(), "parameter count mismatch");
        for (dst, src) in mine.iter_mut().zip(params) {
            assert_eq!(dst.shape(), src.shape(), "parameter shape mismatch");
            dst.data_mut().copy_from_slice(src.data());
        }
    }

    /// Snapshot of the optimiser state.
    pub(crate) fn adam_snapshot(&self) -> Adam {
        self.adam.clone()
    }

    /// Restore the optimiser state.
    pub(crate) fn restore_adam(&mut self, adam: Adam) {
        self.adam = adam;
    }

    /// Checksum over all parameters (equality tests).
    pub(crate) fn param_checksum(&self) -> f64 {
        self.modules
            .iter()
            .flat_map(|m| m.params())
            .map(|p| p.sum())
            .sum()
    }

    /// Whether this stage ends in the LM head.
    pub(crate) fn has_head(&self) -> bool {
        self.modules.iter().any(|m| matches!(m, Module::Head(_)))
    }

    /// Whether this stage starts with the embedding.
    pub(crate) fn has_embedding(&self) -> bool {
        self.modules
            .iter()
            .any(|m| matches!(m, Module::Embedding(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_model::ModelFamily;

    impl StageModel {
        pub(crate) fn forwards_run(&self) -> f64 {
            self.forwards_run
        }
    }

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
    fn halves_round_trip_through_aggregation() {
        let t = Tensor::from_vec(&[5, 3], (0..15).map(|i| i as f32).collect());
        let (h1, h2) = split_halves(&t);
        assert_eq!(h1.shape(), &[2, 3]);
        assert_eq!(h2.shape(), &[3, 3]);
        let back = concat_halves(&h1, &h2);
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn module_list_matches_block_sequence() {
        let cfg = tiny();
        let mods = build_modules(&cfg, 7);
        // emb + 2*(attn+ffn) + final-ln + head
        assert_eq!(mods.len(), 1 + 4 + 2);
        assert!(matches!(mods[0], Module::Embedding(_)));
        assert!(matches!(mods.last(), Some(Module::Head(_))));
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let cfg = tiny();
        let a = build_modules(&cfg, 9);
        let b = build_modules(&cfg, 9);
        let sum = |mods: &[Module]| -> f64 {
            mods.iter().flat_map(|m| m.params()).map(|p| p.sum()).sum()
        };
        assert_eq!(sum(&a), sum(&b));
    }

    #[test]
    fn full_model_single_stage_fwd_bwd_runs() {
        let cfg = tiny();
        let mods = build_modules(&cfg, 1);
        let part = Partition::new(vec![0, mods.len()]);
        let mut stage = StageModel::new(&mods, &part, 0, cfg.seq_len, 1e-3);
        assert!(stage.has_embedding() && stage.has_head());
        let ids: Vec<usize> = (0..2 * cfg.seq_len).map(|i| i % cfg.vocab_size).collect();
        let targets: Vec<usize> = ids.iter().map(|&t| (t + 1) % cfg.vocab_size).collect();
        let out = stage.forward(0, Part::Full, StageInput::Tokens(ids), Some(targets), true);
        let loss = match out {
            StageOutput::Loss(l) => l,
            _ => panic!("single-stage model must produce a loss"),
        };
        assert!(loss > 0.0);
        let dx = stage.backward_part(0, Part::Full, None, Some(1.0));
        assert!(dx.is_none(), "embedding stage returns no input grad");
        stage.step();
    }

    #[test]
    fn checkpointing_matches_cached_backward() {
        let cfg = tiny();
        let mods = build_modules(&cfg, 3);
        let part = Partition::new(vec![0, mods.len()]);
        let run = |recompute: bool| -> f64 {
            let mut stage = StageModel::new(&mods, &part, 0, cfg.seq_len, 1e-3);
            let ids: Vec<usize> = (0..2 * cfg.seq_len)
                .map(|i| (i * 3) % cfg.vocab_size)
                .collect();
            let targets: Vec<usize> = ids.iter().map(|&t| (t + 1) % cfg.vocab_size).collect();
            stage.forward(
                0,
                Part::Full,
                StageInput::Tokens(ids),
                Some(targets),
                !recompute,
            );
            if recompute {
                assert!(stage.recompute_microbatch(0));
            }
            stage.backward_part(0, Part::Full, None, Some(1.0));
            assert_eq!(stage.forwards_run(), if recompute { 2.0 } else { 1.0 });
            stage.grads.iter().map(|g| g.sum()).sum()
        };
        assert_eq!(run(false).to_bits(), run(true).to_bits());
    }

    #[test]
    fn half_parts_sum_to_full_gradients() {
        let cfg = tiny();
        let mods = build_modules(&cfg, 5);
        let part = Partition::new(vec![0, mods.len()]);
        let mbs = 4;
        let ids: Vec<usize> = (0..mbs * cfg.seq_len)
            .map(|i| (i * 7) % cfg.vocab_size)
            .collect();
        let targets: Vec<usize> = ids.iter().map(|&t| (t + 1) % cfg.vocab_size).collect();

        // Full micro-batch.
        let mut full = StageModel::new(&mods, &part, 0, cfg.seq_len, 1e-3);
        full.forward(
            0,
            Part::Full,
            StageInput::Tokens(ids.clone()),
            Some(targets.clone()),
            true,
        );
        full.backward_part(0, Part::Full, None, Some(1.0));
        let gf: f64 = full.grads.iter().map(|g| g.sum()).sum();

        // Two halves (split along the batch dimension).
        let mut halves = StageModel::new(&mods, &part, 0, cfg.seq_len, 1e-3);
        let split = mbs / 2 * cfg.seq_len;
        halves.forward(
            0,
            Part::Half1,
            StageInput::Tokens(ids[..split].to_vec()),
            Some(targets[..split].to_vec()),
            true,
        );
        halves.forward(
            0,
            Part::Half2,
            StageInput::Tokens(ids[split..].to_vec()),
            Some(targets[split..].to_vec()),
            true,
        );
        halves.backward_part(0, Part::Half1, None, Some(1.0));
        halves.backward_part(0, Part::Half2, None, Some(1.0));
        let gh: f64 = halves.grads.iter().map(|g| g.sum()).sum();

        assert!(
            (gf - gh).abs() < 1e-5 * (1.0 + gf.abs()),
            "full {gf} vs halves {gh}"
        );
    }
}

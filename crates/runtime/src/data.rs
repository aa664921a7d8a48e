//! Synthetic language-modelling data.
//!
//! The paper trains on Wikipedia/BookCorpus/OpenWebText; none of that is
//! needed to exercise scheduling, so we generate deterministic random token
//! streams with next-token targets (the same shape a real LM batch has).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One iteration's worth of micro-batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSet {
    /// Per-micro-batch token ids, each `mbs × seq` flattened.
    pub ids: Vec<Vec<usize>>,
    /// Per-micro-batch next-token targets, same layout.
    pub targets: Vec<Vec<usize>>,
    /// Micro-batch size in samples.
    pub mbs: usize,
    /// Sequence length.
    pub seq: usize,
}

impl BatchSet {
    /// Deterministic synthetic batch: `m` micro-batches of `mbs` sequences
    /// of length `seq` over `vocab` tokens.
    pub fn synthetic(seed: u64, m: usize, mbs: usize, seq: usize, vocab: usize) -> BatchSet {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ids = Vec::with_capacity(m);
        let mut targets = Vec::with_capacity(m);
        for _ in 0..m {
            let tokens: Vec<usize> = (0..mbs * (seq + 1))
                .map(|_| rng.gen_range(0..vocab))
                .collect();
            // Next-token prediction: inputs are tokens[..seq], targets
            // tokens[1..] per sample.
            let mut in_ids = Vec::with_capacity(mbs * seq);
            let mut tg = Vec::with_capacity(mbs * seq);
            for s in 0..mbs {
                let row = &tokens[s * (seq + 1)..(s + 1) * (seq + 1)];
                in_ids.extend_from_slice(&row[..seq]);
                tg.extend_from_slice(&row[1..]);
            }
            ids.push(in_ids);
            targets.push(tg);
        }
        BatchSet {
            ids,
            targets,
            mbs,
            seq,
        }
    }

    /// Number of micro-batches.
    pub(crate) fn n_microbatches(&self) -> usize {
        self.ids.len()
    }

    /// Row range of `part` of a micro-batch (halves split the batch dim).
    pub(crate) fn rows_of_part(&self, part: autopipe_schedule::Part) -> std::ops::Range<usize> {
        use autopipe_schedule::Part;
        let half = self.mbs / 2;
        match part {
            Part::Full | Part::Both => 0..self.mbs,
            Part::Half1 => 0..half,
            Part::Half2 => half..self.mbs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = BatchSet::synthetic(1, 4, 2, 8, 50);
        let b = BatchSet::synthetic(1, 4, 2, 8, 50);
        assert_eq!(a, b);
        let c = BatchSet::synthetic(2, 4, 2, 8, 50);
        assert_ne!(a, c);
    }

    #[test]
    fn targets_are_shifted_inputs() {
        let b = BatchSet::synthetic(3, 1, 2, 8, 50);
        // Within a sample, targets[i] should equal ids[i+1].
        for s in 0..2 {
            for i in 0..7 {
                assert_eq!(b.targets[0][s * 8 + i], b.ids[0][s * 8 + i + 1]);
            }
        }
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let b = BatchSet::synthetic(4, 2, 2, 16, 10);
        for mb in &b.ids {
            assert!(mb.iter().all(|&t| t < 10));
        }
    }
}

//! The seven hand-listed partition schemes of Table II (GPT-2 345M, four
//! stages), used to validate the pipeline simulator in Fig. 11.
//!
//! The table reports layers per stage; `.5` entries are lone sub-layer
//! blocks ("the decimal part of data in the table may represent a
//! ResidualFFNBlock or a ResidualAttentionBlock"). We lower each row onto
//! the sub-layer block sequence: stage 0 additionally holds the embedding,
//! the last stage the final layer-norm and LM head.

use autopipe_cost::CostDb;
use autopipe_sim::Partition;

/// Layers per stage for the seven Table II schemes, in table order.
pub const TABLE2_LAYERS: [[f64; 4]; 7] = [
    [5.0, 7.0, 6.0, 6.0],
    [6.0, 6.5, 6.5, 5.0],
    [6.0, 7.0, 6.0, 5.0],
    [6.5, 6.5, 6.5, 4.5],
    [6.5, 6.5, 6.0, 5.0],
    [7.0, 5.5, 6.0, 5.5],
    [7.0, 6.5, 5.5, 5.0],
];

/// Lower a Table II row to a [`Partition`] over a sub-layer-granularity
/// GPT-2 345M cost database.
pub(crate) fn table2_partition(db: &CostDb, scheme: usize) -> Partition {
    assert!(scheme < TABLE2_LAYERS.len(), "Table II has 7 schemes");
    let layers = &TABLE2_LAYERS[scheme];
    // Block layout: [embedding][attn,ffn]×24[final-ln][lm-head].
    let n = db.len();
    let mut bounds = vec![0usize];
    let mut body_cursor = 1usize; // first body block index
    for &l in &layers[..3] {
        let blocks = (l * 2.0).round() as usize;
        body_cursor += blocks;
        bounds.push(body_cursor);
    }
    bounds.push(n);
    Partition::new(bounds)
}

/// All seven Table II partitions.
pub fn table2_partitions(db: &CostDb) -> Vec<Partition> {
    (0..TABLE2_LAYERS.len())
        .map(|s| table2_partition(db, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopipe_cost::Hardware;
    use autopipe_model::{zoo, Granularity};

    fn db() -> CostDb {
        CostDb::build(
            &zoo::gpt2_345m(),
            &Hardware::rtx3090_cluster(),
            4,
            true,
            Granularity::SubLayer,
        )
    }

    #[test]
    fn rows_sum_to_24_layers() {
        for (i, row) in TABLE2_LAYERS.iter().enumerate() {
            let s: f64 = row.iter().sum();
            assert_eq!(s, 24.0, "scheme {}", i + 1);
        }
    }

    #[test]
    fn partitions_reproduce_the_layer_counts() {
        let d = db();
        for (i, part) in table2_partitions(&d).iter().enumerate() {
            assert_eq!(part.n_stages(), 4);
            let got = part.layer_counts(&d);
            assert_eq!(got, TABLE2_LAYERS[i].to_vec(), "scheme {}", i + 1);
        }
    }

    #[test]
    fn half_layer_schemes_split_mid_layer() {
        let d = db();
        // Scheme 2 has 6.5-layer stages: its boundaries fall between the
        // attention and FFN blocks of a layer.
        let part = table2_partition(&d, 1);
        let sizes = part.sizes();
        // stage 1 holds 13 body blocks (6.5 layers), an odd count.
        assert_eq!(sizes[1] % 2, 1);
    }
}

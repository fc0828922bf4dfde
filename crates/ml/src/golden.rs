//! Golden bits for forest fits and incremental refits.
//!
//! Every node of every tree — `(feature, threshold, value, left,
//! right)`, floats by their bit patterns — is folded into a digest after
//! the initial fit and after each of 40 incremental refits. The
//! constants were captured from the per-node-sorting builder; a change
//! to split search, or to the row order that leaf means sum in, moves
//! them.

use crate::data::FeatureMatrix;
use crate::forest::{BootstrapScheme, ForestConfig, RandomForest, RefitWorkingSet};
use crate::tree::TreeConfig;

fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn unit(i: u64) -> f64 {
    (mix(i.wrapping_add(0x9e37_79b9_7f4a_7c15)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Rows of an 18 (log2 msg) × 6 (log2 nodes) × 6 (log2 ppn) × 3
/// (algorithm) P2 grid in a fixed shuffled order, followed by a tail of
/// repeated grid rows (same features, new target) and fractional
/// non-P2 message sizes. The log2-ranks column ties across many
/// (nodes, ppn) pairs.
fn dataset() -> (Vec<[f64; 5]>, Vec<f64>) {
    let target = |m: f64, n: f64, p: f64, a: f64, salt: u64| {
        let alpha = [0.9, 0.4, 0.6][a as usize] * (n + p + 1.0);
        let beta = [0.02, 0.08, 0.05][a as usize] * 2f64.powf(m * 0.5);
        (alpha + beta).ln() + 0.05 * (unit(salt) - 0.5)
    };
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for m in 0..18 {
        for n in 0..6 {
            for p in 0..6 {
                for a in 0..3 {
                    let r = [m as f64, n as f64, p as f64, (n + p) as f64, a as f64];
                    y.push(target(r[0], r[1], r[2], r[4], rows.len() as u64));
                    rows.push(r);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..rows.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(i as u64 ^ 0x51ed) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut rows: Vec<[f64; 5]> = order.iter().map(|&i| rows[i]).collect();
    let mut y: Vec<f64> = order.iter().map(|&i| y[i]).collect();
    let grid = rows.len();
    for k in 0..120u64 {
        let base = rows[(mix(k ^ 0xbeef) % grid as u64) as usize];
        let r = if k % 2 == 0 {
            base
        } else {
            [
                base[0] + 0.584_962_500_721_156_2,
                base[1],
                base[2],
                base[3],
                base[4],
            ]
        };
        y.push(target(r[0], r[1], r[2], r[4], 10_000 + k));
        rows.push(r);
    }
    (rows, y)
}

fn matrix(rows: &[[f64; 5]]) -> FeatureMatrix {
    let mut x = FeatureMatrix::new(5);
    for r in rows {
        x.push_row(r);
    }
    x
}

fn forest_digest(forest: &RandomForest) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tree in forest.trees() {
        for n in tree.raw_nodes() {
            for word in [
                n.feature as u64,
                n.threshold.to_bits(),
                n.value.to_bits(),
                n.left as u64,
                n.right as u64,
            ] {
                h = mix(h ^ word);
            }
        }
        h = mix(h ^ 0x7ee5);
    }
    h
}

/// Fit on the first `n0` rows, then refit 40 times with 1–3 appended
/// rows each; fold the digest of every state into one value. With
/// `keep_working_set` one [`RefitWorkingSet`] serves every refit;
/// otherwise each refit starts from a fresh one.
fn trajectory_digest(cfg: &ForestConfig, n0: usize, keep_working_set: bool) -> u64 {
    let (rows, y) = dataset();
    let mut n = n0;
    let mut forest = RandomForest::fit(cfg, &matrix(&rows[..n]), &y[..n]);
    let mut acc = forest_digest(&forest);
    let mut ws = RefitWorkingSet::default();
    for step in 0..40u64 {
        n += 1 + (mix(step ^ 0xadd) % 3) as usize;
        if !keep_working_set {
            ws = RefitWorkingSet::default();
        }
        forest.refit_incremental(cfg, &matrix(&rows[..n]), &y[..n], &mut ws);
        acc = mix(acc ^ forest_digest(&forest));
    }
    acc
}

#[test]
fn forest_fits_and_refits_match_golden_bits() {
    // Sixteen trees keep the debug build of this test short on the
    // 1,944-row grid; the two-row case runs the default 64.
    let base = ForestConfig {
        n_trees: 16,
        ..ForestConfig::default()
    };
    let cases: [(&str, ForestConfig, usize, u64); 5] = [
        ("default", base, 18 * 6 * 6 * 3, 0x8dbbf4b2dad625ad),
        (
            "max_features=2",
            ForestConfig {
                tree: TreeConfig {
                    max_features: Some(2),
                    ..TreeConfig::default()
                },
                ..base
            },
            18 * 6 * 6 * 3,
            0xf1b147f86b5d4aa4,
        ),
        (
            "no bootstrap",
            ForestConfig {
                bootstrap: false,
                ..base
            },
            18 * 6 * 6 * 3,
            0x6060b18e66ae5440,
        ),
        (
            "resample",
            ForestConfig {
                scheme: BootstrapScheme::Resample,
                ..base
            },
            18 * 6 * 6 * 3,
            0x6a6b31aca0fe2b12,
        ),
        // Two starting rows: several trees draw an empty resample and
        // train on everything until a new row hashes in.
        (
            "two-row start",
            ForestConfig::default(),
            2,
            0xafdd4076be6ad423,
        ),
    ];
    // The two-row case must exercise the empty-resample fallback.
    let seed = ForestConfig::default().seed;
    assert!((0..64).any(|t| (0..2).all(|i| crate::forest::bootstrap_weight(seed, t, i) == 0)));
    let mut failures = Vec::new();
    for (name, cfg, n0, want) in cases {
        // Classic resamples refit from scratch; no working set is used.
        let passes: &[bool] = if cfg.scheme == BootstrapScheme::Resample {
            &[true]
        } else {
            &[true, false]
        };
        for &keep in passes {
            let got = trajectory_digest(&cfg, n0, keep);
            if got != want {
                failures.push(format!(
                    "{name} (working set kept: {keep}): got {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests moved:\n{}",
        failures.join("\n")
    );
}

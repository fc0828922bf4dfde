//! Bagged random-forest regressor with per-tree prediction access.
//!
//! The paper's autotuners model collective performance with random
//! forests (one per collective, algorithm as a feature — Sec. V).
//! ACCLAiM's contributions need *ensemble internals*: the jackknife
//! variance of Sec. IV-A is computed over the individual trees'
//! predictions, which scikit-learn exposes and we therefore expose too.

use crate::data::FeatureMatrix;
use crate::tree::{insert_sorted, row_id, sorted_orders, DecisionTree, DirtyRegion, TreeConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How each tree's bootstrap resample is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BootstrapScheme {
    /// Classic resampling: `n` draws with replacement from an RNG whose
    /// stream depends on `n`. Appending one sample reshuffles every
    /// tree's resample, so refits are always from scratch.
    Resample,
    /// Online bagging (Oza & Russell): each `(tree, sample)` pair gets a
    /// Poisson(1)-distributed multiplicity derived by hashing
    /// `(seed, tree, sample)`. Membership is independent of the dataset
    /// size, so appending a sample leaves a tree's resample untouched
    /// unless the new sample actually lands in it (probability
    /// `1 − e⁻¹ ≈ 63%`) — the property [`RandomForest::refit_incremental`]
    /// exploits.
    #[default]
    Hashed,
}

/// Hyperparameters of the forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Ensemble size.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Draw bootstrap samples (with replacement) per tree.
    pub bootstrap: bool,
    /// How bootstrap resamples are derived (ignored when `bootstrap` is
    /// off).
    #[serde(default)]
    pub scheme: BootstrapScheme,
    /// Base RNG seed; tree `i` derives its own stream from it.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 64,
            tree: TreeConfig::default(),
            bootstrap: true,
            scheme: BootstrapScheme::default(),
            seed: 0x5eed,
        }
    }
}

impl ForestConfig {
    /// scikit-learn-flavored defaults. Modern scikit-learn regression
    /// forests consider *all* features at each split (`max_features =
    /// 1.0`) and rely on bootstrap sampling for ensemble diversity;
    /// with the autotuner's 3-4 features, per-split subsampling would
    /// cost far more accuracy than it buys in decorrelation.
    pub fn for_n_features(n_features: usize) -> Self {
        let _ = n_features;
        ForestConfig {
            tree: TreeConfig {
                max_features: None,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        }
    }
}

/// Deterministic Poisson(1) multiplicity of `sample` in `tree`'s
/// resample under [`BootstrapScheme::Hashed`]. Independent of how many
/// samples exist — the invariant incremental refits rely on.
pub fn bootstrap_weight(seed: u64, tree: usize, sample: usize) -> usize {
    let mut h = seed
        ^ (tree as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (sample as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    // Invert the Poisson(1) CDF on a uniform draw from the hash.
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut k = 0usize;
    let mut pmf = (-1.0f64).exp();
    let mut cdf = pmf;
    while u > cdf && k < 16 {
        k += 1;
        pmf /= k as f64;
        cdf += pmf;
    }
    k
}

/// One tree's change record from [`RandomForest::refit_incremental`]:
/// which tree was rebuilt, and the feature-space region in which its
/// predictions may differ from before. Outside `dirty` the tree
/// predicts bit-identically, so a per-tree prediction cache only needs
/// to re-evaluate rows inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeUpdate {
    /// Index of the rebuilt tree.
    pub tree: usize,
    /// Where its predictions may have changed.
    pub dirty: DirtyRegion,
}

impl TreeUpdate {
    /// The update set of a from-scratch fit: every tree changed,
    /// everywhere.
    pub fn full_refit(n_trees: usize) -> Vec<TreeUpdate> {
        (0..n_trees)
            .map(|tree| TreeUpdate {
                tree,
                dirty: DirtyRegion::whole(),
            })
            .collect()
    }
}

/// State that [`RandomForest::refit_incremental`] keeps between refits
/// of one forest so that no refit sorts: the rows stably sorted by each
/// feature (appended rows are inserted by binary search), and each
/// tree's row multiplicities. A refit expands a tree's builder inputs
/// from these in linear time.
///
/// The state belongs to whoever drives the refits and lives only as
/// long as they do; it is not part of the forest, so it is never
/// serialized, compared or cloned with it. A refit that finds the state
/// describing a different watermark or config starts it over (from one
/// column sort), so a fresh or mismatched state costs time, never
/// correctness. The owner must drop it when it replaces the forest with
/// one fitted on different rows.
#[derive(Debug, Default)]
pub struct RefitWorkingSet {
    /// Row count and config the state describes.
    n_samples: usize,
    config: Option<ForestConfig>,
    /// Rows `0..n_samples` stably sorted by each feature.
    columns: Vec<Vec<u32>>,
    /// Per tree, the multiplicity of each row in its multiset, filled
    /// in the first time the tree draws an appended row.
    weights: Vec<Vec<u8>>,
}

/// A tree's builder inputs over rows `0..weights.len()`: its multiset
/// (ascending rows, `weights[r]` copies of row `r`, copies adjacent) and
/// that multiset's per-feature stable sorts. `columns` stably sorts at
/// least those rows; later rows are skipped. Expanding each row of a
/// stable column sort in place into its copies yields the stable sort of
/// the ascending multiset: equal values stay in ascending row order and
/// copies stay adjacent.
fn expand(columns: &[Vec<u32>], weights: &[u8]) -> (Vec<u32>, Vec<Vec<u32>>) {
    let len = weights.iter().map(|&w| usize::from(w)).sum();
    let upto = row_id(weights.len());
    let multiset = repeat_rows(0..upto, weights, len);
    let orders = columns
        .iter()
        .map(|column| repeat_rows(column.iter().copied().filter(|&r| r < upto), weights, len))
        .collect();
    (multiset, orders)
}

/// `weights[r]` copies of each row `r` of `rows`, in order (`len` in
/// all).
fn repeat_rows(rows: impl Iterator<Item = u32>, weights: &[u8], len: usize) -> Vec<u32> {
    // Four slots are written per row whatever its multiplicity (most are
    // 0–2), which keeps the loop free of unpredictable branches.
    let mut out = vec![0; len + 4];
    let mut at = 0;
    for r in rows {
        let k = usize::from(weights[r as usize]);
        out[at..at + 4].fill(r);
        for slot in &mut out[at + 4.min(k)..at + k] {
            *slot = r;
        }
        at += k;
    }
    out.truncate(len);
    out
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    /// How many samples the forest was (re)fitted on; the watermark
    /// `refit_incremental` appends from.
    n_samples: usize,
}

impl RandomForest {
    /// Fit `config.n_trees` trees in parallel (rayon). Unless trees
    /// draw classic resamples, one stable sort per feature serves every
    /// tree.
    pub fn fit(config: &ForestConfig, x: &FeatureMatrix, y: &[f64]) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit a forest on zero samples");
        assert!(config.n_trees > 0, "need at least one tree");
        let n = x.len();
        let columns = if config.bootstrap && config.scheme == BootstrapScheme::Resample {
            Vec::new()
        } else {
            sorted_orders(x, &(0..row_id(n)).collect::<Vec<u32>>())
        };
        let trees: Vec<DecisionTree> = (0..config.n_trees)
            .into_par_iter()
            .map(|t| Self::fit_tree(config, x, y, t, &columns))
            .collect();
        RandomForest { trees, n_samples: n }
    }

    /// The seed tree `t` builds with (per-node streams derive from it).
    fn tree_seed(config: &ForestConfig, t: usize) -> u64 {
        config.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Multiplicity of `sample` in tree `t`'s multiset (1 without
    /// bootstrap; unused under [`BootstrapScheme::Resample`]).
    fn multiplicity(config: &ForestConfig, t: usize, sample: usize) -> u8 {
        if config.bootstrap {
            let w = bootstrap_weight(config.seed, t, sample);
            u8::try_from(w).expect("Poisson draws are capped at 16")
        } else {
            1
        }
    }

    /// Fit tree `t` from scratch on the first `x.len()` samples, given
    /// their stable column sort (empty under
    /// [`BootstrapScheme::Resample`]).
    fn fit_tree(
        config: &ForestConfig,
        x: &FeatureMatrix,
        y: &[f64],
        t: usize,
        columns: &[Vec<u32>],
    ) -> DecisionTree {
        let n = x.len();
        let seed = Self::tree_seed(config, t);
        if config.bootstrap && config.scheme == BootstrapScheme::Resample {
            // Independent, deterministic stream per tree.
            let mut rng = StdRng::seed_from_u64(seed);
            let indices: Vec<usize> = (0..n).map(|_| rng.random_range(0..n)).collect();
            return DecisionTree::fit(&config.tree, x, y, &indices, &mut rng);
        }
        let mut weights: Vec<u8> = (0..n).map(|i| Self::multiplicity(config, t, i)).collect();
        if weights.iter().all(|&w| w == 0) {
            // Every sample hashed out (likely only for tiny n): fall
            // back to training on everything.
            weights.fill(1);
        }
        let (indices, orders) = expand(columns, &weights);
        DecisionTree::fit_presorted(&config.tree, x, y, indices, orders, seed)
    }

    /// Refit after rows were appended to `(x, y)` (all rows before the
    /// previous fit's watermark must be unchanged). Only trees whose
    /// hashed resample actually draws one of the new samples are
    /// rebuilt — and those rebuilds recompute splits only along each new
    /// sample's path. The result is bit-for-bit identical to
    /// `RandomForest::fit` on the full data.
    ///
    /// `ws` carries the sorted columns and bootstrap multiplicities from
    /// one refit to the next (see [`RefitWorkingSet`]); pass the same
    /// one for every refit of this forest, or a fresh one at the cost of
    /// one column sort.
    ///
    /// Returns a [`TreeUpdate`] per rebuilt tree — its index plus the
    /// feature-space region its predictions may have changed in — so
    /// prediction caches can invalidate just those (column, row) cells.
    /// With [`BootstrapScheme::Resample`] (or when nothing was fitted
    /// yet) every resample depends on `n`, so this degrades to a full
    /// refit reporting every tree changed everywhere.
    pub fn refit_incremental(
        &mut self,
        config: &ForestConfig,
        x: &FeatureMatrix,
        y: &[f64],
        ws: &mut RefitWorkingSet,
    ) -> Vec<TreeUpdate> {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert_eq!(config.n_trees, self.trees.len(), "config/forest tree count mismatch");
        assert!(
            x.len() >= self.n_samples,
            "fewer samples ({}) than the previous fit ({})",
            x.len(),
            self.n_samples
        );
        let old_n = self.n_samples;
        let new_n = x.len();
        if new_n == old_n {
            return Vec::new();
        }
        if old_n == 0 || (config.bootstrap && config.scheme == BootstrapScheme::Resample) {
            *self = Self::fit(config, x, y);
            *ws = RefitWorkingSet::default();
            return TreeUpdate::full_refit(self.trees.len());
        }
        if ws.n_samples != old_n || ws.config != Some(*config) {
            *ws = RefitWorkingSet {
                n_samples: old_n,
                config: Some(*config),
                columns: sorted_orders(x, &(0..row_id(old_n)).collect::<Vec<u32>>()),
                weights: vec![Vec::new(); config.n_trees],
            };
        }
        // Each new row is the largest so far, so inserting it after every
        // equal value keeps the columns a stable sort.
        for s in old_n..new_n {
            for (f, order) in ws.columns.iter_mut().enumerate() {
                insert_sorted(x, order, f, row_id(s));
            }
        }

        let columns = &ws.columns;
        let slots: Vec<(usize, &mut Vec<u8>)> = ws.weights.iter_mut().enumerate().collect();
        let refitted: Vec<Option<(DecisionTree, DirtyRegion)>> = slots
            .into_par_iter()
            .map(|(t, weights)| self.refit_tree(config, x, y, t, old_n, new_n, columns, weights))
            .collect();
        let mut changed = Vec::new();
        for (t, refit) in refitted.into_iter().enumerate() {
            if let Some((tree, dirty)) = refit {
                self.trees[t] = tree;
                changed.push(TreeUpdate { tree: t, dirty });
            }
        }
        ws.n_samples = new_n;
        self.n_samples = new_n;
        changed
    }

    /// Apply samples `old_n..new_n` to tree `t`, one at a time; `None`
    /// when the tree's resample never draws any of them. The returned
    /// [`DirtyRegion`] is the union over appends, so it bounds where the
    /// final tree may disagree with the pre-refit tree. `columns` stably
    /// sorts rows `0..new_n`; `weights` caches the tree's multiplicities
    /// and is extended to `new_n` rows here.
    #[allow(clippy::too_many_arguments)]
    fn refit_tree(
        &self,
        config: &ForestConfig,
        x: &FeatureMatrix,
        y: &[f64],
        t: usize,
        old_n: usize,
        new_n: usize,
        columns: &[Vec<u32>],
        weights: &mut Vec<u8>,
    ) -> Option<(DecisionTree, DirtyRegion)> {
        let weight = |s: usize| Self::multiplicity(config, t, s);
        // A tree whose resample was empty was trained on ALL samples, so
        // it must track every append until a sample finally hashes in.
        let mut fallback = (0..old_n).all(|i| weight(i) == 0);
        if !fallback && (old_n..new_n).all(|s| weight(s) == 0) {
            return None;
        }
        let from = weights.len();
        weights.extend((from..new_n).map(weight));
        let seed = Self::tree_seed(config, t);
        let mut tree: Option<DecisionTree> = None;
        let mut dirty = DirtyRegion::none();
        for s in old_n..new_n {
            let rows = &weights[..=s];
            if fallback {
                fallback = weights[s] == 0;
                let (indices, orders) = if fallback {
                    expand(columns, &vec![1; s + 1])
                } else {
                    expand(columns, rows)
                };
                tree = Some(DecisionTree::fit_presorted(
                    &config.tree,
                    x,
                    y,
                    indices,
                    orders,
                    seed,
                ));
                dirty = DirtyRegion::whole();
            } else if weights[s] > 0 {
                let (indices, orders) = expand(columns, rows);
                let base = tree.as_ref().unwrap_or(&self.trees[t]);
                let (refit, region) =
                    base.refit_appended(&config.tree, x, y, indices, orders, seed, row_id(s));
                tree = Some(refit);
                dirty.merge(region);
            }
        }
        tree.map(|tree| (tree, dirty))
    }

    /// Ensemble prediction: the mean over trees.
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Per-tree predictions, written into `out` (cleared first). This is
    /// the input to the jackknife variance of Sec. IV-A.
    pub fn predict_per_tree(&self, row: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.trees.iter().map(|t| t.predict(row)));
    }

    /// Prediction of one tree (for incremental per-tree caches that
    /// update only refitted columns).
    pub fn tree_predict(&self, tree: usize, row: &[f64]) -> f64 {
        self.trees[tree].predict(row)
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of samples the forest was last (re)fitted on.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The fitted trees, for crate-internal consumers (the SoA
    /// [`crate::FlatForest`] flattener).
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset(n: usize) -> (FeatureMatrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 + (i % 5) as f64).collect();
        (FeatureMatrix::from_rows(&rows), y)
    }

    #[test]
    fn forest_fits_and_predicts_reasonably() {
        let (x, y) = linear_dataset(100);
        let f = RandomForest::fit(&ForestConfig::default(), &x, &y);
        // In-range point: within 10% of truth.
        let p = f.predict(&[50.0, 0.0]);
        assert!((p - 150.0).abs() < 15.0, "p={p}");
    }

    #[test]
    fn fitting_is_deterministic_for_a_seed() {
        let (x, y) = linear_dataset(60);
        let a = RandomForest::fit(&ForestConfig::default(), &x, &y);
        let b = RandomForest::fit(&ForestConfig::default(), &x, &y);
        assert_eq!(a, b, "same seed must give identical forests");
        let c = RandomForest::fit(
            &ForestConfig {
                seed: 1234,
                ..ForestConfig::default()
            },
            &x,
            &y,
        );
        assert_ne!(a, c, "different seed must change the ensemble");
    }

    #[test]
    fn per_tree_predictions_average_to_ensemble() {
        let (x, y) = linear_dataset(80);
        let f = RandomForest::fit(&ForestConfig::default(), &x, &y);
        let row = [33.0, 3.0];
        let mut per = Vec::new();
        f.predict_per_tree(&row, &mut per);
        assert_eq!(per.len(), f.n_trees());
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        assert!((mean - f.predict(&row)).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_trees_differ() {
        let (x, y) = linear_dataset(50);
        let f = RandomForest::fit(&ForestConfig::default(), &x, &y);
        let mut per = Vec::new();
        f.predict_per_tree(&[25.5, 2.0], &mut per);
        let first = per[0];
        assert!(
            per.iter().any(|&p| (p - first).abs() > 1e-12),
            "bootstrap must diversify trees"
        );
    }

    #[test]
    fn without_bootstrap_and_full_features_trees_agree() {
        let (x, y) = linear_dataset(50);
        let cfg = ForestConfig {
            bootstrap: false,
            n_trees: 8,
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&cfg, &x, &y);
        let mut per = Vec::new();
        f.predict_per_tree(&[25.0, 0.0], &mut per);
        assert!(
            per.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12),
            "identical training data + all features => identical trees"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn predictions_stay_within_target_range(
                ys in proptest::collection::vec(-500.0f64..500.0, 4..40),
            ) {
                let rows: Vec<Vec<f64>> =
                    (0..ys.len()).map(|i| vec![i as f64, (i % 3) as f64]).collect();
                let x = FeatureMatrix::from_rows(&rows);
                let cfg = ForestConfig { n_trees: 12, ..ForestConfig::default() };
                let f = RandomForest::fit(&cfg, &x, &ys);
                let (lo, hi) = ys
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
                for row in x.rows() {
                    let p = f.predict(row);
                    prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
                }
                // Extrapolation queries are also bounded by the ensemble.
                let p = f.predict(&[1e6, -1e6]);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }

            #[test]
            fn per_tree_mean_equals_ensemble_everywhere(
                ys in proptest::collection::vec(-100.0f64..100.0, 4..30),
                qx in -50.0f64..100.0,
            ) {
                let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
                let x = FeatureMatrix::from_rows(&rows);
                let cfg = ForestConfig { n_trees: 8, ..ForestConfig::default() };
                let f = RandomForest::fit(&cfg, &x, &ys);
                let mut per = Vec::new();
                f.predict_per_tree(&[qx], &mut per);
                let mean = per.iter().sum::<f64>() / per.len() as f64;
                prop_assert!((mean - f.predict(&[qx])).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hashed_weights_are_poisson_one_ish() {
        // Mean multiplicity ~1 and ~37% zeros over a large draw.
        let n = 20_000;
        let total: usize = (0..n).map(|i| bootstrap_weight(0x5eed, 0, i)).sum();
        let zeros = (0..n).filter(|&i| bootstrap_weight(0x5eed, 0, i) == 0).count();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean weight {mean}");
        let zero_frac = zeros as f64 / n as f64;
        assert!(
            (zero_frac - (-1.0f64).exp()).abs() < 0.02,
            "zero fraction {zero_frac}"
        );
    }

    #[test]
    fn incremental_refit_matches_scratch_fit_exactly() {
        let (x_full, y_full) = linear_dataset(80);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        // Fit on a prefix, then append the rest in a few batches.
        let prefix = 40;
        let x0 = FeatureMatrix::from_rows(
            &x_full.rows().take(prefix).map(<[f64]>::to_vec).collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..prefix]);
        let mut ws = RefitWorkingSet::default();
        for upto in [41, 50, 64, 80] {
            let x = FeatureMatrix::from_rows(
                &x_full.rows().take(upto).map(<[f64]>::to_vec).collect::<Vec<_>>(),
            );
            let changed = forest.refit_incremental(&cfg, &x, &y_full[..upto], &mut ws);
            let scratch = RandomForest::fit(&cfg, &x, &y_full[..upto]);
            assert_eq!(forest, scratch, "divergence at n={upto}");
            if upto == 41 {
                // Single append: ~e^-1 of trees draw weight 0 and must
                // be skipped. (Batch appends touch nearly every tree.)
                assert!(
                    changed.len() < cfg.n_trees,
                    "some trees should be untouched by a single append"
                );
            }
        }
    }

    #[test]
    fn incremental_refit_reports_exactly_the_changed_trees() {
        let (x_full, y_full) = linear_dataset(50);
        let cfg = ForestConfig {
            n_trees: 32,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full.rows().take(49).map(<[f64]>::to_vec).collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..49]);
        let before = forest.clone();
        let changed =
            forest.refit_incremental(&cfg, &x_full, &y_full, &mut RefitWorkingSet::default());
        // Reported set == trees whose hashed weight of sample 49 is > 0.
        let expected: Vec<usize> = (0..cfg.n_trees)
            .filter(|&t| bootstrap_weight(cfg.seed, t, 49) > 0)
            .collect();
        let reported: Vec<usize> = changed.iter().map(|u| u.tree).collect();
        assert_eq!(reported, expected);
        for t in 0..cfg.n_trees {
            let same = forest.trees[t] == before.trees[t];
            assert_eq!(
                same,
                !reported.contains(&t),
                "tree {t} change status disagrees with report"
            );
        }
    }

    #[test]
    fn dirty_regions_bound_prediction_changes() {
        let (x_full, y_full) = linear_dataset(60);
        let cfg = ForestConfig {
            n_trees: 24,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full.rows().take(55).map(<[f64]>::to_vec).collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..55]);
        let before = forest.clone();
        let changed =
            forest.refit_incremental(&cfg, &x_full, &y_full, &mut RefitWorkingSet::default());
        assert!(!changed.is_empty());
        // Probe a dense grid (including off-training coordinates): where
        // a tree's dirty region says "clean", its prediction must be
        // bit-identical to the pre-refit tree's.
        for fx in -10..140 {
            for f2 in -2..12 {
                let row = [fx as f64 * 0.5, f2 as f64 * 0.5];
                for u in &changed {
                    if !u.dirty.contains(&row) {
                        assert_eq!(
                            forest.tree_predict(u.tree, &row),
                            before.tree_predict(u.tree, &row),
                            "tree {} changed outside its dirty region at {row:?}",
                            u.tree
                        );
                    }
                }
            }
        }
        // And the regions must not be trivially "whole" for a single
        // append into an already-trained forest.
        assert!(
            changed.iter().any(|u| !u.dirty.is_whole()),
            "single-path refits should report bounded dirty regions"
        );
    }

    #[test]
    fn incremental_refit_without_bootstrap_matches_scratch() {
        let (x_full, y_full) = linear_dataset(30);
        let cfg = ForestConfig {
            n_trees: 4,
            bootstrap: false,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full.rows().take(20).map(<[f64]>::to_vec).collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..20]);
        let changed =
            forest.refit_incremental(&cfg, &x_full, &y_full, &mut RefitWorkingSet::default());
        let reported: Vec<usize> = changed.iter().map(|u| u.tree).collect();
        assert_eq!(reported, (0..4).collect::<Vec<_>>(), "all trees see all samples");
        assert_eq!(forest, RandomForest::fit(&cfg, &x_full, &y_full));
    }

    #[test]
    fn resample_scheme_degrades_to_full_refit() {
        let (x_full, y_full) = linear_dataset(30);
        let cfg = ForestConfig {
            n_trees: 8,
            scheme: BootstrapScheme::Resample,
            ..ForestConfig::default()
        };
        let x0 = FeatureMatrix::from_rows(
            &x_full.rows().take(20).map(<[f64]>::to_vec).collect::<Vec<_>>(),
        );
        let mut forest = RandomForest::fit(&cfg, &x0, &y_full[..20]);
        let changed =
            forest.refit_incremental(&cfg, &x_full, &y_full, &mut RefitWorkingSet::default());
        assert_eq!(changed.len(), 8, "resample scheme cannot refit in place");
        assert_eq!(forest, RandomForest::fit(&cfg, &x_full, &y_full));
    }

    #[test]
    fn noop_refit_reports_no_changes() {
        let (x, y) = linear_dataset(25);
        let cfg = ForestConfig::default();
        let mut forest = RandomForest::fit(&cfg, &x, &y);
        let before = forest.clone();
        let mut ws = RefitWorkingSet::default();
        assert!(forest.refit_incremental(&cfg, &x, &y, &mut ws).is_empty());
        assert_eq!(forest, before);
    }

    #[test]
    fn feature_subsampling_diversifies_trees() {
        let (x, y) = linear_dataset(50);
        let cfg = ForestConfig {
            bootstrap: false,
            n_trees: 16,
            tree: TreeConfig {
                max_features: Some(1),
                max_depth: 3,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&cfg, &x, &y);
        let mut per = Vec::new();
        f.predict_per_tree(&[25.5, 2.5], &mut per);
        let first = per[0];
        assert!(per.iter().any(|&p| (p - first).abs() > 1e-12));
    }
}

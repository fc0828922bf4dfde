//! CART regression tree with variance-reduction (MSE) splits.
//!
//! Built from scratch (the paper uses scikit-learn's
//! `RandomForestRegressor`; we need our own to expose per-tree ensemble
//! predictions for the jackknife). Splits minimize the summed squared
//! error of the two children; per-split feature subsampling supports the
//! random forest above it.
//!
//! Builds are a pure function of `(multiset of training rows, tree
//! seed)`: any randomness (per-split feature subsampling) is seeded from
//! the node's position in the tree, never from a shared stream consumed
//! in traversal order. That locality is what makes incremental refits
//! (`DecisionTree::refit_appended`) possible — rebuilding only the path
//! a newly appended sample takes while reusing every untouched subtree
//! bit-for-bit.
//!
//! Every build is presorted: the root's rows are stably sorted once per
//! feature (or handed in already sorted by the forest), and each split
//! stably partitions those orders into its children, so no node sorts.

use crate::data::FeatureMatrix;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Hyperparameters of a single regression tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Features examined per split (`None` = all).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 24,
            min_samples_leaf: 1,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Node {
    /// Split feature, or `usize::MAX` for leaves.
    pub(crate) feature: usize,
    /// Split threshold (`x[feature] <= threshold` goes left); unused for
    /// leaves.
    pub(crate) threshold: f64,
    /// Leaf prediction; unused for split nodes.
    pub(crate) value: f64,
    /// Child indices (left, right); unused for leaves.
    pub(crate) left: u32,
    pub(crate) right: u32,
}

pub(crate) const LEAF: usize = usize::MAX;

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fit a tree on the rows of `x` selected by `indices` (with
    /// repetitions allowed, supporting bootstrap samples). The `rng`
    /// only supplies the tree seed; see [`DecisionTree::fit_seeded`].
    pub fn fit<R: Rng + ?Sized>(
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        indices: &[usize],
        rng: &mut R,
    ) -> Self {
        Self::fit_seeded(config, x, y, indices, rng.next_u64())
    }

    /// Fit a tree deterministically: the result depends only on the
    /// multiset `indices` (in the given order), the config, and
    /// `tree_seed`. Per-split feature subsampling draws from an RNG
    /// seeded by `(tree_seed, node depth, node path)`, so identical
    /// subtree inputs always produce identical subtrees regardless of
    /// what the rest of the tree looks like.
    pub fn fit_seeded(
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        indices: &[usize],
        tree_seed: u64,
    ) -> Self {
        let indices: Vec<u32> = indices.iter().map(|&i| row_id(i)).collect();
        let orders = sorted_orders(x, &indices);
        Self::fit_presorted(config, x, y, indices, orders, tree_seed)
    }

    /// [`DecisionTree::fit_seeded`] on a multiset whose per-feature
    /// stable sorts the caller already has: `orders[f]` must be
    /// `indices` stably sorted by feature `f` (ties keep their order in
    /// `indices`). Nothing is sorted here; every node stably partitions
    /// its parent's orders.
    pub(crate) fn fit_presorted(
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        indices: Vec<u32>,
        orders: Vec<Vec<u32>>,
        tree_seed: u64,
    ) -> Self {
        let mut builder = Builder::new(config, x, y, tree_seed, indices, orders);
        builder.build(0, builder.indices.len(), 0, 0);
        DecisionTree {
            nodes: builder.nodes,
        }
    }

    /// Rebuild this tree after appending `new_sample` to its training
    /// multiset, producing exactly the tree [`DecisionTree::fit_seeded`]
    /// would on `indices` — but recomputing splits only along the path
    /// the new sample takes. Wherever the recomputed split partitions
    /// the old rows the way the old split did, the sibling subtree
    /// (whose multiset is unchanged) is copied verbatim instead of
    /// rebuilt.
    ///
    /// `indices` must be the *new* multiset: the multiset this tree was
    /// fitted on, with the copies of `new_sample` appended at the end
    /// (matching the canonical ascending order scratch fits use), and
    /// `orders` its per-feature stable sorts, as for
    /// [`DecisionTree::fit_presorted`].
    ///
    /// Also returns the [`DirtyRegion`] outside of which the new tree
    /// predicts bit-identically to `self`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn refit_appended(
        &self,
        config: &TreeConfig,
        x: &FeatureMatrix,
        y: &[f64],
        indices: Vec<u32>,
        orders: Vec<Vec<u32>>,
        tree_seed: u64,
        new_sample: u32,
    ) -> (Self, DirtyRegion) {
        let n = indices.len();
        let mut builder = Builder::new(config, x, y, tree_seed, indices, orders);
        builder.rebuild_path(&self.nodes, 0, 0, n, 0, 0, new_sample);
        (
            DecisionTree {
                nodes: builder.nodes,
            },
            DirtyRegion {
                regions: builder.dirty,
            },
        )
    }

    /// Predict the target for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut node = &self.nodes[0];
        while node.feature != LEAF {
            node = if row[node.feature] <= node.threshold {
                &self.nodes[node.left as usize]
            } else {
                &self.nodes[node.right as usize]
            };
        }
        node.value
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node arena, for crate-internal consumers (the SoA
    /// [`crate::FlatForest`] flattener).
    pub(crate) fn raw_nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            let n = &nodes[i];
            if n.feature == LEAF {
                0
            } else {
                1 + depth_of(nodes, n.left as usize).max(depth_of(nodes, n.right as usize))
            }
        }
        depth_of(&self.nodes, 0)
    }
}

/// One axis constraint of a dirty region: `lo < x[feature] <= hi`.
type Cond = (usize, f64, f64);

/// The part of feature space where a refit tree's predictions may
/// differ from the pre-refit tree's.
///
/// A union of axis-aligned boxes (conjunctions of `(feature, lo, hi)`
/// conditions), collected
/// while an incremental refit walks the new sample's path:
/// the box delimiting each rebuilt subtree, plus — when a reused split
/// kept its partition but moved its threshold — the band between the old
/// and new thresholds (rows in the band route differently even though
/// both subtrees were preserved). Everywhere outside the region the two
/// trees predict bit-identically, which is what lets a per-tree
/// prediction cache skip rows a refit could not have touched.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DirtyRegion {
    regions: Vec<Vec<Cond>>,
}

impl DirtyRegion {
    /// Nothing dirty (predictions unchanged everywhere).
    pub fn none() -> Self {
        DirtyRegion::default()
    }

    /// Everything dirty (a full rebuild).
    pub fn whole() -> Self {
        DirtyRegion {
            regions: vec![Vec::new()],
        }
    }

    /// True when no row is dirty.
    pub fn is_none(&self) -> bool {
        self.regions.is_empty()
    }

    /// True when every row is dirty.
    pub fn is_whole(&self) -> bool {
        self.regions.iter().any(Vec::is_empty)
    }

    /// Whether `row`'s prediction may have changed.
    pub fn contains(&self, row: &[f64]) -> bool {
        self.regions.iter().any(|conds| {
            conds
                .iter()
                .all(|&(f, lo, hi)| row[f] > lo && row[f] <= hi)
        })
    }

    /// Union with another region (e.g. a later append to the same tree).
    pub fn merge(&mut self, other: DirtyRegion) {
        if self.is_whole() {
            return;
        }
        if other.is_whole() {
            *self = DirtyRegion::whole();
            return;
        }
        self.regions.extend(other.regions);
    }
}

/// Mix a node's position into a per-node RNG seed (splitmix64-style
/// finalizer). A node is identified by its depth and the left/right
/// path bits taken from the root, so the seed is independent of how the
/// rest of the tree is built.
fn node_seed(tree_seed: u64, depth: usize, path: u64) -> u64 {
    let mut h = tree_seed
        ^ (depth as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ path.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A row index as the builder stores it.
pub(crate) fn row_id(i: usize) -> u32 {
    u32::try_from(i).expect("row index exceeds u32")
}

/// `indices` stably sorted by each feature in turn (`total_cmp`; ties
/// keep their order in `indices`).
pub(crate) fn sorted_orders(x: &FeatureMatrix, indices: &[u32]) -> Vec<Vec<u32>> {
    (0..x.n_features())
        .map(|f| {
            let mut order = indices.to_vec();
            order.sort_by(|&a, &b| x.get(a as usize, f).total_cmp(&x.get(b as usize, f)));
            order
        })
        .collect()
}

/// Insert `row` into `order`, a stable sort by feature `f`, after every
/// row with an equal value: where a fresh stable sort puts it when `row`
/// is larger than every row already in `order`.
pub(crate) fn insert_sorted(x: &FeatureMatrix, order: &mut Vec<u32>, f: usize, row: u32) {
    let v = x.get(row as usize, f);
    let pos = order.partition_point(|&r| x.get(r as usize, f).total_cmp(&v).is_le());
    order.insert(pos, row);
}

struct Builder<'a> {
    config: &'a TreeConfig,
    x: &'a FeatureMatrix,
    y: &'a [f64],
    tree_seed: u64,
    nodes: Vec<Node>,
    feature_pool: Vec<usize>,
    /// The training multiset. Every node owns a range `lo..hi` of it,
    /// holding its rows in canonical order: the root's input order,
    /// stably partitioned down the tree.
    indices: Vec<u32>,
    /// Per feature, the node's rows stably sorted by that feature, in
    /// the same range `lo..hi` as `indices`. Sorted once for the root
    /// and stably partitioned alongside `indices` at every split. A
    /// stable partition of a stable sort is the stable sort of the
    /// stably partitioned child, so each node sees exactly the order a
    /// fresh stable sort of its own rows would give — and the prefix
    /// scan in `best_split` sums floats in the same order.
    orders: Vec<Vec<u32>>,
    scratch: Vec<u32>,
    /// Conjunction of split decisions taken so far on the refit path
    /// (maintained by `rebuild_path` only).
    region_conds: Vec<Cond>,
    /// Accumulated dirty boxes (see [`DirtyRegion`]).
    dirty: Vec<Vec<Cond>>,
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    score: f64,
}

impl<'a> Builder<'a> {
    fn new(
        config: &'a TreeConfig,
        x: &'a FeatureMatrix,
        y: &'a [f64],
        tree_seed: u64,
        indices: Vec<u32>,
        orders: Vec<Vec<u32>>,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!indices.is_empty(), "cannot fit on zero samples");
        debug_assert_eq!(
            orders,
            sorted_orders(x, &indices),
            "root orders are not a stable sort"
        );
        Builder {
            config,
            x,
            y,
            tree_seed,
            nodes: Vec::new(),
            feature_pool: (0..x.n_features()).collect(),
            indices,
            orders,
            scratch: Vec::new(),
            region_conds: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Build the subtree over rows `lo..hi`; returns its node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize, path: u64) -> u32 {
        let sum = self.sum_y(lo, hi);
        let node_id = self.push_leaf(sum / (hi - lo) as f64);
        let Some(split) = self.try_split(lo, hi, sum, depth, path) else {
            return node_id;
        };
        let mid = self.partition(lo, hi, &split);
        let left = self.build(lo, mid, depth + 1, path.wrapping_shl(1));
        let right = self.build(mid, hi, depth + 1, path.wrapping_shl(1) | 1);
        self.finish_split(node_id, &split, left, right);
        node_id
    }

    /// Rebuild the subtree over rows `lo..hi` (the old subtree's
    /// multiset plus appended copies of `new_sample`), reusing subtrees
    /// whose multiset did not change. `old_i` is the corresponding node
    /// in the pre-append tree. Produces bit-for-bit what `build` would,
    /// and records in `self.dirty` the boxes where predictions may
    /// differ from the old subtree's.
    #[allow(clippy::too_many_arguments)]
    fn rebuild_path(
        &mut self,
        old: &[Node],
        old_i: u32,
        lo: usize,
        hi: usize,
        depth: usize,
        path: u64,
        new_sample: u32,
    ) -> u32 {
        let sum = self.sum_y(lo, hi);
        let node_id = self.push_leaf(sum / (hi - lo) as f64);
        let Some(split) = self.try_split(lo, hi, sum, depth, path) else {
            // Rebuilt leaf: its mean absorbed the appended copies.
            self.dirty.push(self.region_conds.clone());
            return node_id;
        };
        let old_node = old[old_i as usize];
        // The old subtree is reusable when the new split sends every old
        // row to the side the old split sent it to. Equal thresholds
        // trivially agree; otherwise (the threshold midpoint moved, e.g.
        // because the appended value sits next to the old boundary) scan
        // the old rows for a disagreement.
        let reusable = old_node.feature == split.feature
            && (old_node.threshold == split.threshold
                || self.indices[lo..hi].iter().all(|&i| {
                    let v = self.x.get(i as usize, split.feature);
                    i == new_sample || (v <= old_node.threshold) == (v <= split.threshold)
                }));
        let mid = self.partition(lo, hi, &split);
        let (left, right) = if reusable {
            // Every appended copy lands on one side, so the other side's
            // multiset — and therefore its entire subtree — is unchanged
            // and can be copied verbatim. If the threshold moved, rows
            // between the two thresholds route differently even though
            // both subtrees survive: mark that band dirty.
            if old_node.threshold != split.threshold {
                let (lo, hi) = if old_node.threshold < split.threshold {
                    (old_node.threshold, split.threshold)
                } else {
                    (split.threshold, old_node.threshold)
                };
                let mut band = self.region_conds.clone();
                band.push((split.feature, lo, hi));
                self.dirty.push(band);
            }
            if self.x.get(new_sample as usize, split.feature) <= split.threshold {
                self.region_conds
                    .push((split.feature, f64::NEG_INFINITY, split.threshold));
                let left = self.rebuild_path(
                    old,
                    old_node.left,
                    lo,
                    mid,
                    depth + 1,
                    path.wrapping_shl(1),
                    new_sample,
                );
                self.region_conds.pop();
                let right = copy_subtree(old, old_node.right, &mut self.nodes);
                (left, right)
            } else {
                let left = copy_subtree(old, old_node.left, &mut self.nodes);
                self.region_conds
                    .push((split.feature, split.threshold, f64::INFINITY));
                let right = self.rebuild_path(
                    old,
                    old_node.right,
                    mid,
                    hi,
                    depth + 1,
                    path.wrapping_shl(1) | 1,
                    new_sample,
                );
                self.region_conds.pop();
                (left, right)
            }
        } else {
            // The partition moved (or the old node was a leaf): rebuild
            // this whole subtree from scratch — all of it is dirty.
            self.dirty.push(self.region_conds.clone());
            let left = self.build(lo, mid, depth + 1, path.wrapping_shl(1));
            let right = self.build(mid, hi, depth + 1, path.wrapping_shl(1) | 1);
            (left, right)
        };
        self.finish_split(node_id, &split, left, right);
        node_id
    }

    /// Sum of the targets of rows `lo..hi`, in canonical order.
    fn sum_y(&self, lo: usize, hi: usize) -> f64 {
        self.indices[lo..hi]
            .iter()
            .map(|&i| self.y[i as usize])
            .sum()
    }

    /// Push a leaf predicting `mean`.
    fn push_leaf(&mut self, mean: f64) -> u32 {
        let node_id = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: LEAF,
            threshold: 0.0,
            value: mean,
            left: 0,
            right: 0,
        });
        node_id
    }

    /// The split for this node, if stopping criteria allow one and one
    /// improves on the parent.
    fn try_split(
        &mut self,
        lo: usize,
        hi: usize,
        sum: f64,
        depth: usize,
        path: u64,
    ) -> Option<BestSplit> {
        let n = hi - lo;
        if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || n < 2 * self.config.min_samples_leaf
        {
            return None;
        }
        self.best_split(lo, hi, sum, depth, path)
    }

    /// Turn the placeholder leaf `node_id` into a split node.
    fn finish_split(&mut self, node_id: u32, split: &BestSplit, left: u32, right: u32) {
        let node = &mut self.nodes[node_id as usize];
        node.feature = split.feature;
        node.threshold = split.threshold;
        node.left = left;
        node.right = right;
    }

    /// Stably partition rows `lo..hi` of `indices` and of every order so
    /// rows with `x[feature] <= threshold` come first; returns the
    /// boundary. The order sorted by the split feature is already
    /// partitioned.
    fn partition(&mut self, lo: usize, hi: usize, split: &BestSplit) -> usize {
        let x = self.x;
        let goes_left = |r: u32| x.get(r as usize, split.feature) <= split.threshold;
        let mid = lo + stable_partition(&mut self.indices[lo..hi], &mut self.scratch, goes_left);
        debug_assert!(mid > lo && mid < hi, "degenerate split survived");
        for (f, order) in self.orders.iter_mut().enumerate() {
            if f != split.feature {
                stable_partition(&mut order[lo..hi], &mut self.scratch, goes_left);
            }
            debug_assert!(order[lo..mid].iter().all(|&r| goes_left(r)));
        }
        mid
    }

    /// Exhaustive best split over the node's feature subset: minimize
    /// left/right summed squared error via a prefix scan over each
    /// feature's presorted order. With `max_features = None` every
    /// feature is scanned in natural order; with subsampling, the subset
    /// comes from an RNG seeded by the node's position.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        total_sum: f64,
        depth: usize,
        path: u64,
    ) -> Option<BestSplit> {
        let n_features = self.x.n_features();
        let k = self
            .config
            .max_features
            .unwrap_or(n_features)
            .clamp(1, n_features);
        let candidates: Vec<usize> = if k >= n_features {
            (0..n_features).collect()
        } else {
            let mut rng = StdRng::seed_from_u64(node_seed(self.tree_seed, depth, path));
            self.feature_pool.shuffle(&mut rng);
            self.feature_pool[..k].to_vec()
        };

        let y = self.y;
        let x = self.x;
        let indices = &self.indices[lo..hi];
        let total_sq: f64 = indices.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        let n = indices.len() as f64;
        let parent_score = total_sq - total_sum * total_sum / n;

        let mut best: Option<BestSplit> = None;
        for f in candidates {
            let order = &self.orders[f][lo..hi];
            let min_leaf = self.config.min_samples_leaf;
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut next_v = x.get(order[0] as usize, f);
            for (pos, &i) in order.iter().enumerate().take(order.len() - 1) {
                let yi = y[i as usize];
                left_sum += yi;
                left_sq += yi * yi;
                let this_v = next_v;
                next_v = x.get(order[pos + 1] as usize, f);
                let left_n = pos + 1;
                let right_n = order.len() - left_n;
                if left_n < min_leaf || right_n < min_leaf {
                    continue;
                }
                if this_v == next_v {
                    continue; // cannot split between equal values
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let score = (left_sq - left_sum * left_sum / left_n as f64)
                    + (right_sq - right_sum * right_sum / right_n as f64);
                if score + 1e-12 < best.as_ref().map_or(parent_score, |b| b.score) {
                    best = Some(BestSplit {
                        feature: f,
                        threshold: 0.5 * (this_v + next_v),
                        score,
                    });
                }
            }
        }
        best
    }
}

/// Partition `rows` in place so rows satisfying `goes_left` come first;
/// returns how many do. Stable on BOTH sides: each side keeps its rows
/// in their original relative order. Stability is what keeps incremental
/// refits bit-identical to scratch fits — an appended sample lands at
/// the end of one side and leaves the other side's ordering (and hence
/// its float summation order) untouched — and what keeps the presorted
/// orders sorted.
fn stable_partition(
    rows: &mut [u32],
    scratch: &mut Vec<u32>,
    goes_left: impl Fn(u32) -> bool,
) -> usize {
    // Branch-free: every row is written to both sides and only the
    // cursor of its own side advances (the left cursor never passes
    // the read position).
    scratch.resize(rows.len(), 0);
    let (mut mid, mut right) = (0, 0);
    for i in 0..rows.len() {
        let row = rows[i];
        let left = goes_left(row);
        rows[mid] = row;
        scratch[right] = row;
        mid += left as usize;
        right += !left as usize;
    }
    rows[mid..].copy_from_slice(&scratch[..right]);
    mid
}

/// Copy the subtree rooted at `old_i` into `out` in build order
/// (pre-order, left before right), remapping child indices; returns the
/// new root index. Reproduces exactly the layout a fresh build emits.
fn copy_subtree(old: &[Node], old_i: u32, out: &mut Vec<Node>) -> u32 {
    let node_id = out.len() as u32;
    out.push(old[old_i as usize]);
    if old[old_i as usize].feature != LEAF {
        let left = copy_subtree(old, old[old_i as usize].left, out);
        let right = copy_subtree(old, old[old_i as usize].right, out);
        let node = &mut out[node_id as usize];
        node.left = left;
        node.right = right;
    }
    node_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn fit(x: &FeatureMatrix, y: &[f64], config: &TreeConfig) -> DecisionTree {
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(42);
        DecisionTree::fit(config, x, y, &idx, &mut rng)
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![5.0; 3];
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[9.0]), 5.0);
    }

    #[test]
    fn step_function_is_learned_exactly() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 2.0 }).collect();
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.predict(&[3.0]), 1.0);
        assert_eq!(t.predict(&[15.0]), 2.0);
        assert_eq!(t.predict(&[9.4]), 1.0);
        assert_eq!(t.predict(&[9.6]), 2.0);
    }

    #[test]
    fn two_feature_interaction() {
        // y = 10 when (a > 0.5 and b > 0.5), else 0: needs two levels.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                rows.push(vec![a as f64 / 3.0, b as f64 / 3.0]);
                y.push(if a >= 2 && b >= 2 { 10.0 } else { 0.0 });
            }
        }
        let x = FeatureMatrix::from_rows(&rows);
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.predict(&[1.0, 1.0]), 10.0);
        assert_eq!(t.predict(&[1.0, 0.0]), 0.0);
        assert_eq!(t.predict(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn max_depth_limits_growth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let shallow = fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 2,
                ..TreeConfig::default()
            },
        );
        assert!(shallow.depth() <= 2);
        let deep = fit(&x, &y, &TreeConfig::default());
        assert!(deep.depth() > 2);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let t = fit(
            &x,
            &y,
            &TreeConfig {
                min_samples_leaf: 5,
                ..TreeConfig::default()
            },
        );
        // Only one split can satisfy two leaves of >= 5 samples.
        assert!(t.node_count() <= 3, "got {} nodes", t.node_count());
    }

    #[test]
    fn duplicate_feature_values_never_split_apart() {
        let x = FeatureMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0.0, 10.0, 0.0, 10.0];
        let t = fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.node_count(), 1, "identical rows cannot be separated");
        assert_eq!(t.predict(&[1.0]), 5.0);
    }

    proptest! {
        #[test]
        fn predictions_stay_within_target_range(
            ys in proptest::collection::vec(-1000.0f64..1000.0, 2..60),
        ) {
            let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64, (i * 7 % 13) as f64]).collect();
            let x = FeatureMatrix::from_rows(&rows);
            let t = fit(&x, &ys, &TreeConfig::default());
            let (lo, hi) = ys.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            for row in x.rows() {
                let p = t.predict(row);
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
            }
        }

        #[test]
        fn full_depth_tree_interpolates_training_data(
            ys in proptest::collection::vec(-100.0f64..100.0, 2..40),
        ) {
            // Distinct feature values + unlimited depth => zero training error.
            let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
            let x = FeatureMatrix::from_rows(&rows);
            let t = fit(&x, &ys, &TreeConfig { max_depth: 64, ..TreeConfig::default() });
            for (i, row) in x.rows().enumerate() {
                prop_assert!((t.predict(row) - ys[i]).abs() < 1e-9);
            }
        }
    }
}

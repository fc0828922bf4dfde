//! Flat-vs-pointer equivalence: the flat SoA inference engine
//! (`FlatForest` + the fused jackknife scan) must be *bit-identical*
//! to the pointer-chasing traversal everywhere it is wired in — the
//! one-shot `rank_by_variance_flat` scan, the cached scan inside the
//! learner, and the full active-learning loop for both the ACCLAiM
//! and FACT configurations. The flat engine is a pure layout
//! optimization; any divergence is a bug, which is why `flat: false`
//! still exists.

use acclaim::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A small but non-trivial simulated environment: 8-node Bebop-like
/// job, 3x2x7 grid -> 42 points, x3 Bcast algorithms = 126 candidates.
fn env() -> (BenchmarkDatabase, FeatureSpace) {
    let machine = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&machine.topology, 8);
    let db = BenchmarkDatabase::new(DatasetConfig {
        cluster: machine.with_allocation(alloc),
        bench: MicrobenchConfig::fast(),
        noise: NoiseModel::mild(),
        seed: 7,
    });
    let space = FeatureSpace::new(
        vec![2, 4, 8],
        vec![1, 2],
        (6..=12).map(|e| 1u64 << e).collect(),
    );
    (db, space)
}

/// A seed-shuffled training trajectory over the candidate space.
fn trajectory(db: &BenchmarkDatabase, space: &FeatureSpace, seed: u64) -> Vec<TrainingSample> {
    let mut cands = all_candidates(Collective::Bcast, space);
    let mut rng = StdRng::seed_from_u64(seed);
    cands.shuffle(&mut rng);
    cands
        .into_iter()
        .map(|c| TrainingSample {
            point: c.point,
            algorithm: c.algorithm,
            time_us: db.time(c.algorithm, c.point),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one-shot flat scan returns the identical `VarianceRanking`
    /// (same candidate order, bit-equal variances and cumulative sum)
    /// as the pointer-chasing scan, at arbitrary training set sizes.
    #[test]
    fn flat_scan_ranking_is_bit_identical(
        seed in 0u64..1_000,
        n in 5usize..60,
    ) {
        let (db, space) = env();
        let candidates = all_candidates(Collective::Bcast, &space);
        let samples = trajectory(&db, &space, seed);
        let config = ForestConfig {
            n_trees: 16,
            ..ForestConfig::for_n_features(5)
        };
        let model = PerfModel::fit(Collective::Bcast, &samples[..n], &config);
        let pointer = rank_by_variance(&model, &candidates);
        let flat = rank_by_variance_flat(&model, &candidates);
        prop_assert_eq!(&pointer, &flat, "rankings diverged at n={}", n);
    }

    /// The cached scan in flat mode tracks the pointer-engine cold scan
    /// exactly along an incremental-refit trajectory — flattening after
    /// every (partial) refit loses nothing.
    #[test]
    fn flat_cached_scan_equals_pointer_cold_scan(
        seed in 0u64..1_000,
        n0 in 5usize..30,
        appends in 1usize..6,
    ) {
        let (db, space) = env();
        let candidates = all_candidates(Collective::Bcast, &space);
        let samples = trajectory(&db, &space, seed);
        let config = ForestConfig {
            n_trees: 16,
            ..ForestConfig::for_n_features(5)
        };

        let mut model = PerfModel::fit(Collective::Bcast, &samples[..n0], &config);
        let mut ws = RefitWorkingSet::default();
        let mut cache = VarianceScanCache::new(candidates.clone()).with_flat(true);
        cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
        for n in n0 + 1..=n0 + appends {
            let changed = model.fit_incremental(&samples[..n], &config, &mut ws);
            cache.refresh(&model, &changed);
            let cached = cache.ranking();
            let cold = rank_by_variance(&model, &candidates);
            prop_assert_eq!(&cached, &cold, "flat cached scan diverged at n={}", n);
        }
    }
}

/// Run the full active learner twice — flat engine on vs off — and
/// require *decision identity*: the same samples collected in the same
/// order, bit-equal per-iteration cumulative variances, and the same
/// convergence stop.
fn assert_decision_identical(mut cfg: LearnerConfig, seed: u64) {
    let (db, space) = env();
    cfg.seed = seed;

    let mut on = cfg.clone();
    on.flat = true;
    let mut off = cfg;
    off.flat = false;

    let a = ActiveLearner::new(on).train(&db, Collective::Bcast, &space, None);
    let b = ActiveLearner::new(off).train(&db, Collective::Bcast, &space, None);

    assert_eq!(
        a.collected, b.collected,
        "seed {seed}: flat learner collected different samples"
    );
    assert_eq!(
        a.converged, b.converged,
        "seed {seed}: convergence decision diverged"
    );
    assert_eq!(a.log.len(), b.log.len(), "seed {seed}: iteration counts diverged");
    for (ra, rb) in a.log.iter().zip(&b.log) {
        assert_eq!(
            ra.cumulative_variance.to_bits(),
            rb.cumulative_variance.to_bits(),
            "seed {seed}: cumulative variance diverged at iteration {}",
            ra.iteration
        );
        assert_eq!(ra.samples, rb.samples);
    }
    // The final models agree on every selection the tuning file will make.
    for p in space.points() {
        assert_eq!(a.model.select(p), b.model.select(p), "seed {seed}: final model diverged");
    }
}

/// Decision-identical ACCLAiM runs for seeds 0-4 at the paper-default
/// configuration — which includes every-5th non-P2 injection, so the
/// flat engine also sees out-of-grid feature rows.
#[test]
fn acclaim_learner_is_decision_identical_flat_vs_pointer_seeds_0_to_4() {
    for seed in 0..5 {
        assert_decision_identical(LearnerConfig::acclaim(), seed);
    }
}

/// The FACT baseline routes its variance scans through a *surrogate*
/// forest; the flat engine must be invisible there too.
#[test]
fn fact_learner_is_decision_identical_flat_vs_pointer() {
    assert_decision_identical(LearnerConfig::fact(), 0);
}

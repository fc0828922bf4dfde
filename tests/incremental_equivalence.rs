//! Incremental-vs-scratch equivalence: the warm-started refit path
//! (`PerfModel::fit_incremental` + `VarianceScanCache`) must be
//! *decision-identical* to rebuilding everything from scratch — same
//! per-tree predictions, same jackknife variances, same `select()`
//! winners, same point-selection order, and the same convergence stop.
//! The incremental path is a pure optimization; any divergence is a bug.

use acclaim::core::NonP2Injector;
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

    /// After every batch append (2–8 rows per refit, so one refit
    /// inserts several rows into one tree's presorted orders), the
    /// incrementally refitted model is bit-identical to a scratch fit:
    /// per-tree predictions, jackknife variances, and the algorithm
    /// `select()` picks.
    #[test]
    fn refit_incremental_is_bit_identical_to_scratch(
        seed in 0u64..1_000,
        n0 in 5usize..30,
        appends in 1usize..6,
        batch in 2usize..9,
    ) {
        let (db, space) = env();
        let candidates = all_candidates(Collective::Bcast, &space);
        let samples = trajectory(&db, &space, seed);
        let config = ForestConfig {
            n_trees: 16,
            ..ForestConfig::for_n_features(5)
        };

        let mut warm = PerfModel::fit(Collective::Bcast, &samples[..n0], &config);
        let mut ws = RefitWorkingSet::default();
        let (mut inc, mut scr) = (Vec::new(), Vec::new());
        let mut scratch_buf = Vec::new();
        for n in (1..=appends).map(|k| n0 + k * batch) {
            warm.fit_incremental(&samples[..n], &config, &mut ws);
            let cold = PerfModel::fit(Collective::Bcast, &samples[..n], &config);
            for c in &candidates {
                warm.per_tree_log_predictions(c.point, c.algorithm, &mut inc);
                cold.per_tree_log_predictions(c.point, c.algorithm, &mut scr);
                prop_assert_eq!(&inc, &scr, "per-tree predictions diverged at n={}", n);
                let v_inc = warm.variance(c.point, c.algorithm, &mut scratch_buf);
                let v_scr = cold.variance(c.point, c.algorithm, &mut scratch_buf);
                prop_assert_eq!(v_inc.to_bits(), v_scr.to_bits(),
                    "jackknife variance diverged at n={}", n);
            }
            for p in space.points() {
                prop_assert_eq!(warm.select(p), cold.select(p),
                    "select() diverged at n={}", n);
            }
        }
    }

    /// The cached variance scan, patched per-append with only the
    /// refitted trees' dirty regions, equals a cold full-space rescan.
    #[test]
    fn cached_scan_equals_cold_scan_along_a_trajectory(
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
        let mut cache = VarianceScanCache::new(candidates.clone());
        cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
        for n in n0 + 1..=n0 + appends {
            let changed = model.fit_incremental(&samples[..n], &config, &mut ws);
            cache.refresh(&model, &changed);
            let cached = cache.ranking();
            let cold = rank_by_variance(&model, &candidates);
            prop_assert_eq!(&cached, &cold, "cached scan diverged at n={}", n);
        }
    }
}

/// Satellite (c): after N incremental updates the cached cumulative
/// variance equals a cold full-space recomputation within 1e-12 — the
/// cache never drifts, no matter how many patches it has absorbed.
#[test]
fn cached_cumulative_variance_never_drifts_over_many_updates() {
    let (db, space) = env();
    let candidates = all_candidates(Collective::Bcast, &space);
    let samples = trajectory(&db, &space, 42);
    let config = ForestConfig {
        n_trees: 24,
        ..ForestConfig::for_n_features(5)
    };

    let n0 = 10;
    let mut model = PerfModel::fit(Collective::Bcast, &samples[..n0], &config);
    let mut ws = RefitWorkingSet::default();
    let mut cache = VarianceScanCache::new(candidates.clone());
    cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
    for n in n0 + 1..=samples.len() {
        let changed = model.fit_incremental(&samples[..n], &config, &mut ws);
        cache.refresh(&model, &changed);
    }
    let cached = cache.ranking();
    let cold = rank_by_variance(&model, &candidates);
    assert!(
        (cached.cumulative - cold.cumulative).abs() <= 1e-12,
        "cumulative variance drifted after {} updates: cached {} vs cold {}",
        samples.len() - n0,
        cached.cumulative,
        cold.cumulative
    );
    assert_eq!(cached, cold, "full ranking must match, not just the sum");
}

/// Satellite (c), non-P2 flavor: every 5th collected sample is swapped
/// for a non-power-of-two message size (a point *outside* the candidate
/// grid, exactly what `nonp2_every: Some(5)` injects during training).
/// Out-of-grid appends exercise dirty regions that straddle candidate
/// cells without landing on one; the cache must still track exactly.
#[test]
fn cached_variance_stays_exact_with_every_5th_nonp2_injection() {
    let (db, space) = env();
    let candidates = all_candidates(Collective::Bcast, &space);
    let mut cands = candidates.clone();
    let mut rng = StdRng::seed_from_u64(9);
    cands.shuffle(&mut rng);

    let mut injector = NonP2Injector::new(5);
    let samples: Vec<TrainingSample> = cands
        .into_iter()
        .map(|c| {
            let c = injector.apply(c, &mut rng);
            TrainingSample {
                point: c.point,
                algorithm: c.algorithm,
                time_us: db.time(c.algorithm, c.point),
            }
        })
        .collect();
    assert!(
        samples.iter().any(|s| !s.point.msg_bytes.is_power_of_two()),
        "injector produced no non-P2 samples; test is vacuous"
    );

    let config = ForestConfig {
        n_trees: 16,
        ..ForestConfig::for_n_features(5)
    };
    let n0 = 8;
    let mut model = PerfModel::fit(Collective::Bcast, &samples[..n0], &config);
    let mut ws = RefitWorkingSet::default();
    let mut cache = VarianceScanCache::new(candidates.clone());
    cache.refresh(&model, &TreeUpdate::full_refit(config.n_trees));
    for n in n0 + 1..=samples.len() {
        let changed = model.fit_incremental(&samples[..n], &config, &mut ws);
        cache.refresh(&model, &changed);
        let cached = cache.ranking();
        let cold = rank_by_variance(&model, &candidates);
        assert!(
            (cached.cumulative - cold.cumulative).abs() <= 1e-12,
            "cumulative variance drifted at n={n} with non-P2 injection"
        );
        assert_eq!(cached, cold, "ranking diverged at n={n} with non-P2 injection");
    }
}

/// Run the full active learner twice — incremental refit on vs off —
/// and require *decision identity*: the same samples collected in the
/// same order, the same per-iteration cumulative variances, and the
/// same convergence stop.
fn assert_decision_identical(mut cfg: LearnerConfig, seed: u64) {
    let (db, space) = env();
    cfg.seed = seed;

    let mut on = cfg.clone();
    on.incremental = true;
    let mut off = cfg;
    off.incremental = false;

    let a = ActiveLearner::new(on).train(&db, Collective::Bcast, &space, None);
    let b = ActiveLearner::new(off).train(&db, Collective::Bcast, &space, None);

    assert_eq!(
        a.collected, b.collected,
        "seed {seed}: incremental learner collected different samples"
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

/// Satellite (b): decision-identical ACCLAiM runs for seeds 0-4 at the
/// paper-default learner configuration.
#[test]
fn acclaim_learner_is_decision_identical_for_seeds_0_to_4() {
    for seed in 0..5 {
        assert_decision_identical(LearnerConfig::acclaim(), seed);
    }
}

/// The FACT baseline threads the incremental refit through a *surrogate*
/// forest as well; its decisions must be unchanged too.
#[test]
fn fact_learner_is_decision_identical() {
    assert_decision_identical(LearnerConfig::fact(), 0);
}

//! Ablation: per-iteration model-update cost, incremental vs scratch.
//!
//! One active-learning iteration must (a) refit the forest on the
//! collection grown by one sample and (b) rescan the candidate space's
//! jackknife variances. The scratch path rebuilds every tree and every
//! per-tree prediction; the incremental path warm-starts the forest
//! (only trees whose hashed bootstrap drew the new sample refit — a
//! ~`1 − e⁻¹` fraction, each along a single presorted path) and
//! recomputes only the cells of the cached variance scan inside the
//! refitted trees' dirty regions. Both produce bit-identical rankings,
//! so the ratio of these benchmarks is pure overhead removed.
//!
//! Measured at the default `ForestConfig` on the 64-node Bebop-like
//! simulation space the paper's Sec. VI-B experiments use, at a
//! mid-to-late-training collection size (the regime the paper's Fig. 13
//! model-update blow-up argument is about — scratch refit cost grows
//! superlinearly with the collection while the incremental path tracks
//! only the new sample's paths).

use acclaim_bench::simulation_env;
use acclaim_collectives::Collective;
use acclaim_core::{all_candidates, rank_by_variance, PerfModel, TrainingSample, VarianceScanCache};
use acclaim_ml::{ForestConfig, RefitWorkingSet, TreeUpdate};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Samples for the first `n` candidates of the space, in a fixed
/// interleaved order approximating a training trajectory.
fn collect_samples(n: usize) -> Vec<TrainingSample> {
    let (db, space) = simulation_env();
    let collective = Collective::Bcast;
    let mut cands = all_candidates(collective, &space);
    // Interleave algorithms across the grid the way variance-driven
    // selection does, rather than sweeping one algorithm at a time.
    cands.sort_by_key(|c| {
        (
            c.point.msg_bytes % 7,
            c.point.nodes,
            c.algorithm.index_within_collective(),
            c.point.msg_bytes,
        )
    });
    cands
        .into_iter()
        .take(n)
        .map(|c| TrainingSample {
            point: c.point,
            algorithm: c.algorithm,
            time_us: db.time(c.algorithm, c.point),
        })
        .collect()
}

fn bench_model_update(c: &mut Criterion) {
    let collective = Collective::Bcast;
    let (_, space) = simulation_env();
    let candidates = all_candidates(collective, &space);
    let config = ForestConfig::default();

    // A training run mid-flight: N0 samples collected, the next APPENDS
    // arrive one at a time (one model update each).
    const N0: usize = 800;
    const APPENDS: usize = 8;
    let samples = collect_samples(N0 + APPENDS);

    let base_model = PerfModel::fit(collective, &samples[..N0], &config);
    let mut base_cache = VarianceScanCache::new(candidates.clone());
    base_cache.refresh(&base_model, &TreeUpdate::full_refit(config.n_trees));

    let mut group = c.benchmark_group("model_update");
    group.sample_size(10);

    // Scratch: what every prior iteration did — full forest fit plus a
    // cold variance scan, once per appended sample.
    group.bench_function("scratch", |b| {
        b.iter(|| {
            for n in N0 + 1..=N0 + APPENDS {
                let model = PerfModel::fit(collective, &samples[..n], &config);
                black_box(rank_by_variance(&model, &candidates));
            }
        })
    });

    // Incremental: warm-start the forest and patch only the refitted
    // trees' columns of the cached scan. The clone puts the run back at
    // N0, and the fresh working set costs one column sort; both are
    // amortized over the APPENDS updates.
    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut model = base_model.clone();
            let mut cache = base_cache.clone();
            let mut ws = RefitWorkingSet::default();
            for n in N0 + 1..=N0 + APPENDS {
                let changed = model.fit_incremental(&samples[..n], &config, &mut ws);
                cache.refresh(&model, &changed);
                black_box(cache.ranking());
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_model_update);
criterion_main!(benches);

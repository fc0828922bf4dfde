//! Ablation: flat SoA forest inference vs pointer-chasing traversal.
//!
//! The flat engine flattens every tree into contiguous
//! feature/threshold/child arrays, evaluates candidate blocks tree-major
//! (the whole tree stays hot in cache across a 256-row block), and fuses
//! the jackknife variance into the same pass so per-candidate prediction
//! vectors are never materialized. Both paths are bit-identical — see
//! `flat_engine_matches_pointer_engine_bit_for_bit` in acclaim-core and
//! the `flat_equivalence` workspace test — so the ratio is pure
//! overhead removed. Shape matches the PR's BENCH_pr6.json trajectory:
//! n≈800 samples, 64 trees, 1944 candidates.

use acclaim_bench::simulation_env;
use acclaim_collectives::Collective;
use acclaim_core::{
    all_candidates, rank_by_variance, rank_by_variance_flat, PerfModel, TrainingSample,
};
use acclaim_ml::ForestConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Samples for the first `n` candidates of the space, in the same
/// interleaved order as `jackknife_incremental_vs_scratch`.
fn collect_samples(n: usize) -> Vec<TrainingSample> {
    let (db, space) = simulation_env();
    let mut cands = all_candidates(Collective::Bcast, &space);
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

fn flat_vs_pointer_scan(c: &mut Criterion) {
    let (_, space) = simulation_env();
    let candidates = all_candidates(Collective::Bcast, &space);
    let samples = collect_samples(800);
    let model = PerfModel::fit(Collective::Bcast, &samples, &ForestConfig::default());

    let mut group = c.benchmark_group("variance_scan");
    group.sample_size(10);
    group.bench_function("pointer", |b| {
        b.iter(|| black_box(rank_by_variance(&model, &candidates)))
    });
    group.bench_function("flat", |b| {
        b.iter(|| black_box(rank_by_variance_flat(&model, &candidates)))
    });
    group.finish();
}

criterion_group!(benches, flat_vs_pointer_scan);
criterion_main!(benches);

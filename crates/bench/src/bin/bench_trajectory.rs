//! `bench_trajectory` — the PR's machine-readable perf trajectory.
//!
//! Times the workloads recent PRs optimized and emits `BENCH_pr<PR>.json`
//! at the repository root, numbered by [`PR`] (override with `--out
//! PATH`):
//!
//! * the candidate variance scan, pointer-chasing vs flat SoA engine,
//!   at the ablation shape (n≈800 samples, 64 trees, 1944 candidates);
//! * the flow-level DES on one collective trace;
//! * one end-to-end tune on the tiny grid (wall time, flat engine),
//!   paired telemetry-off vs telemetry-on — the `telemetry_overhead`
//!   ratio is the cost of the observability contract and should stay
//!   near 1.0;
//! * one warm rule query through the `acclaim-serve` service (cache
//!   hit against a pre-warmed serving model — the daemon's steady-state
//!   lookup path, expected well under a millisecond);
//! * the same query as the daemon serves it off the wire: one
//!   `loadgen::request_pool` `Query` line through `decode_request →
//!   handle_request → encode_response` — the codec is most of a served
//!   query, so this is the number that moves with the JSON scanner;
//! * one tiny tuned binary store entry read back through
//!   `TuningStore::get` — its JSON header parse is what the daemon pays
//!   per entry at open and prewarm;
//! * the analytic-priors cold-start comparison (`acclaim-analytic`):
//!   iterations-to-convergence and simulated benchmark cost of a cold
//!   tune with and without Hockney/LogGP priors, medians over seeds
//!   0–4 — deterministic simulator quantities, not host timings, so
//!   they reproduce exactly on any machine.
//!
//! `--compare BASELINE.json` re-reads a committed trajectory and prints
//! soft warnings for medians that regressed beyond a 25% band — a
//! regression never fails the process, so CI surfaces drift without
//! flaking on noisy runners. A baseline that cannot be read or parsed
//! does: it exits nonzero before any timing, so a typoed or stale path
//! cannot silently switch the comparison off.
//!
//! Timing is a hand-rolled warmup + median loop (the vendored criterion
//! subset has no machine-readable export): medians over a small odd
//! sample count are robust to scheduler noise, and every workload is
//! deterministic so spread comes only from the host.

use acclaim_bench::simulation_env;
use acclaim_collectives::{Algorithm, Collective};
use acclaim_core::{
    all_candidates, rank_by_variance, rank_by_variance_flat, Acclaim, AcclaimConfig,
    CriterionConfig, PerfModel, TrainingSample, VarianceConvergence,
};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace};
use acclaim_ml::ForestConfig;
use acclaim_netsim::{Allocation, Cluster, FlowSim};
use serde::Serialize;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The PR this trajectory records: the emitted `pr` field and the
/// default `BENCH_pr<PR>.json` output name.
const PR: u32 = 13;

/// Schema version of the emitted file; bump on layout changes.
/// v2 added the `analytic` block; v3 added the `serve_wire_query`
/// and `store_entry_parse` medians; v4 keeps a single DES median
/// (the DES has one event queue) and drops the DES speedup.
const BENCH_SCHEMA_VERSION: u32 = 4;

#[derive(Serialize)]
struct Shape {
    n_samples: usize,
    n_trees: usize,
    candidates: usize,
}

#[derive(Serialize)]
struct MediansUs {
    variance_scan_pointer: f64,
    variance_scan_flat: f64,
    des_binary_heap: f64,
    tune_e2e: f64,
    tune_e2e_obs: f64,
    serve_query_warm: f64,
    serve_wire_query: f64,
    store_entry_parse: f64,
}

#[derive(Serialize)]
struct Speedups {
    variance_scan: f64,
    /// Telemetry-on over telemetry-off e2e tune wall time (≈1.0 when
    /// the instrumentation keeps its behaviorally-inert promise cheap).
    telemetry_overhead: f64,
}

/// Cold-start cost with vs without analytical priors: medians over
/// seeds 0–4 of one bcast tune on the tiny grid. All four numbers are
/// simulated (deterministic) quantities.
#[derive(Serialize)]
struct AnalyticPriors {
    cold_iterations: f64,
    priors_iterations: f64,
    cold_bench_cost_us: f64,
    priors_bench_cost_us: f64,
    /// cold / priors — >1.0 means priors converge in fewer iterations.
    iterations_speedup: f64,
    /// cold / priors — >1.0 means priors collect cheaper.
    bench_cost_speedup: f64,
}

#[derive(Serialize)]
struct Trajectory {
    pr: u32,
    schema_version: u32,
    shape: Shape,
    medians_us: MediansUs,
    speedups: Speedups,
    analytic: AnalyticPriors,
}

/// Median wall time of `f` in µs after `warmup` discarded runs.
fn median_us(warmup: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Paired medians of two workloads, alternating `a` and `b` within
/// each rep so slow drift in host load (thermal, neighbors) hits both
/// sides equally instead of skewing their ratio.
fn paired_median_us(
    warmup: usize,
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    for _ in 0..warmup {
        a();
        b();
    }
    let (mut ta, mut tb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let start = Instant::now();
        a();
        ta.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        b();
        tb.push(start.elapsed().as_secs_f64() * 1e6);
    }
    ta.sort_by(f64::total_cmp);
    tb.sort_by(f64::total_cmp);
    (ta[reps / 2], tb[reps / 2])
}

/// Samples for the first `n` candidates of the space, interleaved the
/// same way as the `jackknife_incremental_vs_scratch` ablation.
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

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut compare: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().map(PathBuf::from),
            "--compare" => compare = args.next().map(PathBuf::from),
            other => {
                eprintln!("usage: bench_trajectory [--out PATH] [--compare BASELINE]");
                panic!("unknown argument {other}");
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_pr{PR}.json"))
    });
    // Read the baseline before timing anything, so a bad path fails
    // fast instead of after the whole run.
    let baseline = compare.map(|path| match read_baseline(&path) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    });

    // -- Variance scan, pointer vs flat, at the ablation shape. --------
    const N_SAMPLES: usize = 800;
    let (_, space) = simulation_env();
    let candidates = all_candidates(Collective::Bcast, &space);
    let config = ForestConfig::default();
    let samples = collect_samples(N_SAMPLES);
    let model = PerfModel::fit(Collective::Bcast, &samples, &config);
    eprintln!(
        "shape: {} samples, {} trees, {} candidates",
        N_SAMPLES,
        config.n_trees,
        candidates.len()
    );

    let (pointer, flat) = paired_median_us(
        2,
        15,
        || {
            black_box(rank_by_variance(&model, &candidates));
        },
        || {
            black_box(rank_by_variance_flat(&model, &candidates));
        },
    );
    eprintln!("variance_scan_pointer: {pointer:.1} µs");
    eprintln!("variance_scan_flat:    {flat:.1} µs");

    // -- Flow-level DES on one collective trace. -----------------------
    let base = Cluster::bebop_like();
    let alloc = Allocation::contiguous(&base.topology, 8);
    let cl = base.with_allocation(alloc);
    let sched = Algorithm::BcastScatterRingAllgather
        .schedule(16, 65_536)
        .materialize();
    let mut des_sim = FlowSim::new();
    let des = median_us(3, 15, || {
        black_box(des_sim.simulate(&cl, 2, &sched));
    });
    eprintln!("des_binary_heap: {des:.1} µs");

    // -- End-to-end tune on the tiny grid (flat engine), telemetry
    // off vs fully instrumented. Both sides keep their memoized
    // database across reps so the pairing isolates the recorder cost;
    // the shared recorder's span log grows across the handful of reps,
    // which is negligible next to a tune. -------------------------------
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    let obs = acclaim_obs::Obs::enabled();
    let db_obs = BenchmarkDatabase::new(DatasetConfig::tiny()).with_obs(&obs);
    let mut tune_cfg = AcclaimConfig::new(FeatureSpace::tiny());
    tune_cfg.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    let (tune, tune_obs) = paired_median_us(
        1,
        3,
        || {
            black_box(Acclaim::new(tune_cfg.clone()).tune(&db, &[Collective::Bcast]));
        },
        || {
            black_box(Acclaim::new(tune_cfg.clone()).tune_with_obs(
                &db_obs,
                &[Collective::Bcast],
                &obs,
            ));
        },
    );
    eprintln!("tune_e2e:     {tune:.1} µs");
    eprintln!("tune_e2e_obs: {tune_obs:.1} µs");

    // -- Warm rule query through the serving layer: in-process, off the
    // wire, and the binary store entry behind it. -----------------------
    let (serve_query, serve_wire, entry_parse) = {
        use acclaim_serve::protocol::{
            decode_request, encode_request, encode_response, handle_request, WireRequest,
        };
        use acclaim_serve::{JobStatus, QueryRequest, ServeConfig, TuneService};
        let dir = std::env::temp_dir().join("acclaim-bench-serve-latency");
        std::fs::remove_dir_all(&dir).ok();
        let service = TuneService::open(
            &dir,
            ServeConfig::default(),
            acclaim_obs::Obs::disabled(),
        )
        .expect("open serve store");
        let request = acclaim_serve::loadgen::request_pool(1, 7)[0].clone();
        let JobStatus::Done(tuned) = service.submit(request.clone()).wait() else {
            panic!("serve warmup tune failed");
        };
        let query = QueryRequest {
            dataset: request.dataset.clone(),
            config: request.config.clone(),
            collective: request.collectives[0],
            point: acclaim_dataset::Point::new(4, 2, 1024),
        };
        let median = median_us(200, 1001, || {
            black_box(service.query(&query));
        });
        let line = encode_request(&WireRequest::Query { request: query });
        let wire = median_us(50, 501, || {
            let request = decode_request(black_box(&line)).expect("query line decodes");
            black_box(encode_response(&handle_request(&service, request).0));
        });
        let store = service.shared().store();
        let key = &tuned.keys[0];
        let parse = median_us(5, 51, || {
            let entry = store.get(key).expect("entry readable");
            black_box(entry.expect("entry present"));
        });
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
        (median, wire, parse)
    };
    eprintln!("serve_query_warm: {serve_query:.1} µs");
    eprintln!("serve_wire_query: {serve_wire:.1} µs");
    eprintln!("store_entry_parse: {entry_parse:.1} µs");

    // -- Analytic-priors cold-start comparison (deterministic). --------
    let median_f64 = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut cold_iters, mut warm_iters) = (Vec::new(), Vec::new());
    let (mut cold_cost, mut warm_cost) = (Vec::new(), Vec::new());
    for seed in 0..5u64 {
        let mut cfg = tune_cfg.clone();
        cfg.learner.seed = seed;
        let cold = Acclaim::new(cfg.clone()).tune(&db, &[Collective::Bcast]);
        cfg.learner.analytic_priors.enabled = true;
        let warm = acclaim_analytic::tune_with_analytic(
            &cfg,
            &db,
            &[Collective::Bcast],
            &acclaim_obs::Obs::disabled(),
        );
        let (cold, warm) = (&cold.reports[0].1, &warm.reports[0].1);
        cold_iters.push(cold.log.len() as f64);
        warm_iters.push(warm.log.len() as f64);
        cold_cost.push(cold.stats.wall_us);
        warm_cost.push(warm.stats.wall_us);
    }
    let analytic = AnalyticPriors {
        cold_iterations: median_f64(cold_iters),
        priors_iterations: median_f64(warm_iters),
        cold_bench_cost_us: median_f64(cold_cost),
        priors_bench_cost_us: median_f64(warm_cost),
        iterations_speedup: 0.0,
        bench_cost_speedup: 0.0,
    };
    let analytic = AnalyticPriors {
        iterations_speedup: analytic.cold_iterations / analytic.priors_iterations,
        bench_cost_speedup: analytic.cold_bench_cost_us / analytic.priors_bench_cost_us,
        ..analytic
    };
    eprintln!(
        "analytic_priors: {} -> {} iterations, {:.0} -> {:.0} µs bench cost",
        analytic.cold_iterations,
        analytic.priors_iterations,
        analytic.cold_bench_cost_us,
        analytic.priors_bench_cost_us
    );

    let trajectory = Trajectory {
        pr: PR,
        schema_version: BENCH_SCHEMA_VERSION,
        shape: Shape {
            n_samples: N_SAMPLES,
            n_trees: config.n_trees,
            candidates: candidates.len(),
        },
        medians_us: MediansUs {
            variance_scan_pointer: pointer,
            variance_scan_flat: flat,
            des_binary_heap: des,
            tune_e2e: tune,
            tune_e2e_obs: tune_obs,
            serve_query_warm: serve_query,
            serve_wire_query: serve_wire,
            store_entry_parse: entry_parse,
        },
        speedups: Speedups {
            variance_scan: pointer / flat,
            telemetry_overhead: tune_obs / tune,
        },
        analytic,
    };
    let text =
        serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(&out, format!("{text}\n")).expect("write trajectory");
    println!("{text}");
    eprintln!("[saved {}]", out.display());

    // -- Soft regression check against a committed baseline. -----------
    if let Some(baseline) = baseline {
        compare_against(&baseline, &trajectory);
    }
}

/// Read a committed trajectory for `--compare`. Errors when the file
/// cannot be read, is not JSON, or has no `medians_us` object — any of
/// which would otherwise leave nothing to compare against.
fn read_baseline(path: &Path) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))?;
    if baseline.get("medians_us").and_then(|m| m.as_object()).is_none() {
        return Err(format!(
            "baseline {} has no medians_us object",
            path.display()
        ));
    }
    Ok(baseline)
}

/// Print soft warnings for medians that regressed >25% vs `old`.
/// Never exits nonzero: bench runners are noisy, and the trajectory is
/// a trend signal, not a gate.
fn compare_against(old: &serde_json::Value, current: &Trajectory) {
    let pairs = [
        ("variance_scan_pointer", current.medians_us.variance_scan_pointer),
        ("variance_scan_flat", current.medians_us.variance_scan_flat),
        ("des_binary_heap", current.medians_us.des_binary_heap),
        ("tune_e2e", current.medians_us.tune_e2e),
        ("tune_e2e_obs", current.medians_us.tune_e2e_obs),
        ("serve_query_warm", current.medians_us.serve_query_warm),
        ("serve_wire_query", current.medians_us.serve_wire_query),
        ("store_entry_parse", current.medians_us.store_entry_parse),
    ];
    let mut regressed = 0;
    for (name, now) in pairs {
        let Some(was) = old
            .get("medians_us")
            .and_then(|m| m.get(name))
            .and_then(|v| v.as_f64())
        else {
            eprintln!("warning: baseline is missing medians_us.{name}");
            continue;
        };
        if now > was * 1.25 {
            regressed += 1;
            eprintln!(
                "warning: {name} regressed {:.0}% ({was:.1} -> {now:.1} µs)",
                (now / was - 1.0) * 100.0
            );
        }
    }
    if regressed == 0 {
        eprintln!("baseline comparison: no median regressed beyond the 25% band");
    }
}

#[cfg(test)]
mod tests {
    use super::read_baseline;

    #[test]
    fn unreadable_or_unparsable_baselines_are_errors() {
        let dir = std::env::temp_dir().join(format!(
            "acclaim-bench-baseline-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("BENCH_missing.json");
        let err = read_baseline(&missing).unwrap_err();
        assert!(err.starts_with("cannot read baseline"), "{err}");

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "{\"medians_us\": {").unwrap();
        let err = read_baseline(&garbage).unwrap_err();
        assert!(err.starts_with("cannot parse baseline"), "{err}");

        let not_a_trajectory = dir.join("other.json");
        std::fs::write(&not_a_trajectory, "{\"pr\": 12}").unwrap();
        let err = read_baseline(&not_a_trajectory).unwrap_err();
        assert!(err.contains("no medians_us object"), "{err}");

        let good = dir.join("good.json");
        std::fs::write(&good, "{\"medians_us\": {\"des_binary_heap\": 1.5}}").unwrap();
        let baseline = read_baseline(&good).expect("well-formed baseline reads");
        let heap = baseline
            .get("medians_us")
            .and_then(|m| m.get("des_binary_heap"))
            .and_then(|v| v.as_f64());
        assert_eq!(heap, Some(1.5));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_baseline_reads() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../../BENCH_pr{}.json", super::PR));
        read_baseline(&path).expect("the committed trajectory is a valid baseline");
    }
}

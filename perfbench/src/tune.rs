//! `cold-tune` and `replay-tune`: sequential ACCLAiM tunes of a fixed
//! job set on the paper's 64-node simulated Dragonfly.
//!
//! The job set is one job per (collective, analytic priors off/on) for
//! bcast, reduce, allreduce and allgather — half the jobs run with
//! `analytic_priors.enabled`, as `tune --analytic-priors` does — at the
//! default `LearnerConfig::acclaim()` over `FeatureSpace::p2_simulation()`.
//! Each job's learning trajectory is chaotic in its seeds (the same job
//! took 15 to 250 iterations across learner seeds), so the jobs keep
//! the default learner and noise seeds and every run times the same
//! learning work. The workload seed picks the job order and the non-P2
//! test set the rule files are scored on.
//!
//! `cold-tune` gives every job a fresh `BenchmarkDatabase`, so every
//! sample is simulated. `replay-tune` gives every job a database
//! prefilled during setup with the P2 grid (the paper's precollected
//! dataset, `tune --db`), so only the non-P2 points the learner picks
//! are simulated.

use crate::stats::{self, median, Digest, Metrics, Outcome};
use crate::trace;
use acclaim_analytic::{tune_with_analytic, AnalyticPrior};
use acclaim_collectives::Collective;
use acclaim_core::{Acclaim, AcclaimConfig, JobTuning};
use acclaim_dataset::database::DatabaseSnapshot;
use acclaim_dataset::splits::nonp2_msg_test_set;
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace, Point};
use acclaim_obs::{Obs, TraceSnapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The collectives the job set tunes.
const COLLECTIVES: [Collective; 4] = [
    Collective::Bcast,
    Collective::Reduce,
    Collective::Allreduce,
    Collective::Allgather,
];
/// Times setup runs per measured run (`setup_s` is their median). Two,
/// not more: a setup takes 4–8 s on a 2-vCPU Xeon VM and every run must
/// fit the benchmark's time budget.
const SETUPS: usize = 2;
/// `--seconds` covered by one timed pass over the job set (a pass takes
/// 7–15 s on a 2-vCPU Xeon VM).
const SECONDS_PER_PASS: f64 = 8.0;
/// Timed passes every run makes at least, so each job's host time is a
/// median of several and the repeated-pass gate always runs.
const MIN_PASSES: usize = 2;

/// Which database each job tunes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A fresh, lazily simulated database per job.
    Cold,
    /// A per-job copy of the P2 grid prefilled during setup.
    Replay,
}

/// One tuning job.
#[derive(Debug, Clone)]
struct Job {
    collective: Collective,
    analytic: bool,
    config: AcclaimConfig,
}

/// The generated inputs of one run.
pub struct JobSet {
    dataset: DatasetConfig,
    space: FeatureSpace,
    jobs: Vec<Job>,
    nonp2: Vec<Point>,
}

impl JobSet {
    /// The job set for `seed`.
    pub fn new(seed: u64) -> JobSet {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7C0_1D7E);
        let space = FeatureSpace::p2_simulation();
        let mut jobs: Vec<Job> = COLLECTIVES
            .iter()
            .flat_map(|&collective| [false, true].map(|analytic| (collective, analytic)))
            .map(|(collective, analytic)| {
                let mut config = AcclaimConfig::new(space.clone());
                config.learner.analytic_priors.enabled = analytic;
                Job {
                    collective,
                    analytic,
                    config,
                }
            })
            .collect();
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.random_range(0..=i));
        }
        let nonp2 = nonp2_msg_test_set(&space, 2, &mut rng);
        JobSet {
            dataset: DatasetConfig::simulation(),
            space,
            jobs,
            nonp2,
        }
    }

    /// Digest of everything the run feeds the program.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.str(&serde_json::to_string(&self.dataset).expect("config serializes"));
        for j in &self.jobs {
            d.str(j.collective.name());
            d.str(&serde_json::to_string(&j.config).expect("config serializes"));
        }
        for p in &self.nonp2 {
            d.str(&p.to_string());
        }
        d.finish()
    }
}

/// The exhaustive oracle and the P2 snapshot replay jobs start from.
struct Prepared {
    oracle: BenchmarkDatabase,
    p2: DatabaseSnapshot,
}

/// Setup: benchmark every algorithm at every P2 grid point (the
/// precollected dataset and the slowdown oracle), then the non-P2 test
/// points (oracle only).
fn prepare(set: &JobSet) -> Prepared {
    let oracle = BenchmarkDatabase::new(set.dataset.clone());
    for c in COLLECTIVES {
        oracle.prefill(c, &set.space);
    }
    let p2 = oracle.snapshot();
    for c in COLLECTIVES {
        oracle.prefill_points(c, &set.nonp2);
    }
    Prepared { oracle, p2 }
}

/// What one job produced.
struct JobResult {
    host_s: f64,
    cpu_s: f64,
    tuning: JobTuning,
    rules: String,
}

/// Run one job through the public tuning entry points.
fn tune(job: &Job, db: &BenchmarkDatabase, obs: &Obs) -> JobTuning {
    let collectives = [job.collective];
    if job.analytic {
        tune_with_analytic(&job.config, db, &collectives, obs)
    } else {
        Acclaim::new(job.config.clone()).tune_with_obs(db, &collectives, obs)
    }
}

/// Run `jobs` in order. Each job's database is built just before the
/// job, outside its timed region, and dropped after it.
fn pass(set: &JobSet, jobs: &[usize], prep: &Prepared, mode: Mode, obs: &Obs) -> Vec<JobResult> {
    jobs.iter()
        .map(|&j| {
            let db = match mode {
                Mode::Cold => BenchmarkDatabase::new(set.dataset.clone()),
                Mode::Replay => BenchmarkDatabase::from_snapshot(prep.p2.clone()),
            }
            .with_obs(obs);
            let (started, cpu) = (Instant::now(), stats::process_cpu_s());
            let tuning = tune(&set.jobs[j], &db, obs);
            let host_s = started.elapsed().as_secs_f64();
            let cpu_s = stats::process_cpu_s() - cpu;
            let rules = serde_json::to_string(&tuning.tuning_file).expect("rules serialize");
            JobResult {
                host_s,
                cpu_s,
                tuning,
                rules,
            }
        })
        .collect()
}

/// Jobs whose rule files this mode's run re-derives in the other mode
/// and compares byte for byte. The two workloads split the job set so
/// every job is checked once per seed without doubling either run.
fn gate_jobs(set: &JobSet, mode: Mode) -> Vec<usize> {
    let first_half = |c: Collective| matches!(c, Collective::Bcast | Collective::Reduce);
    (0..set.jobs.len())
        .filter(|&j| first_half(set.jobs[j].collective) == (mode == Mode::Cold))
        .collect()
}

/// Per-layer metrics shared by every workload's traced run: self times
/// of the learner and simulator spans plus the crates' own counters.
/// `counts` holds (iterations, points) per tune; `prior_build_ms` is the
/// mean analytic prior construction time.
pub fn layer_metrics(snap: &TraceSnapshot, counts: &[(f64, f64)], prior_build_ms: f64) -> Metrics {
    let selfs = trace::self_ms(snap);
    let c = |name: &str| trace::counter(snap, name);
    let mut m = Metrics::default();
    m.put(
        "netsim.microbench.self_ms",
        trace::sum_self(&selfs, &["netsim/microbench"]),
        "ms",
    );
    m.put("netsim.roundsim.calls", c("netsim.roundsim.calls"), "count");
    m.put(
        "netsim.roundsim.messages",
        c("netsim.roundsim.messages"),
        "count",
    );
    m.put("dataset.benchmarks", c("dataset.benchmarks"), "count");
    m.put(
        "dataset.hit_ratio",
        trace::share(c("dataset.cache_hits"), c("dataset.benchmarks")),
        "ratio",
    );
    m.put(
        "ml.fit.self_ms",
        trace::sum_self(&selfs, &["learner/fit", "learner/final_fit"]),
        "ms",
    );
    m.put(
        "ml.trees_refit_ratio",
        trace::share(c("learner.trees_refitted"), c("learner.trees_reused")),
        "ratio",
    );
    m.put(
        "ml.flat_refreshes",
        c("learner.flat_scan_refreshes"),
        "count",
    );
    m.put(
        "core.variance_scan.self_ms",
        trace::sum_self(&selfs, &["learner/variance_scan"]),
        "ms",
    );
    m.put(
        "core.scan_reuse_ratio",
        trace::share(
            c("learner.scan_cells_reused"),
            c("learner.scan_cells_recomputed"),
        ),
        "ratio",
    );
    m.put(
        "core.select.self_ms",
        trace::sum_self(&selfs, &["learner/select"]),
        "ms",
    );
    m.put(
        "core.convergence.self_ms",
        trace::sum_self(&selfs, &["learner/convergence_check"]),
        "ms",
    );
    m.put(
        "core.collect.self_ms",
        trace::sum_self(&selfs, &["learner/collect", "learner/seed"]),
        "ms",
    );
    m.put(
        "core.rules.self_ms",
        trace::sum_self(&selfs, &["learner/generate_rules"]),
        "ms",
    );
    let iterations: Vec<f64> = counts.iter().map(|c| c.0).collect();
    let points: Vec<f64> = counts.iter().map(|c| c.1).collect();
    m.put("core.iterations.p50", median(&iterations), "count");
    m.put("core.points.p50", median(&points), "count");
    m.put("analytic.prior_build_ms", prior_build_ms, "ms");
    m.put(
        "analytic.priors_injected",
        c("analytic.priors_injected"),
        "count",
    );
    m.put(
        "analytic.candidates_pruned",
        c("analytic.candidates_pruned"),
        "count",
    );
    m
}

/// Run the workload. `trace` selects the per-layer run.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: Mode,
    trace: bool,
    obs_check: &Path,
    dir: &Path,
) -> Result<Outcome, String> {
    let set = JobSet::new(seed);
    let order: Vec<usize> = (0..set.jobs.len()).collect();
    println!(
        "# {} job set digest {:016x}: {} jobs, order {:?}",
        if mode == Mode::Cold {
            "cold-tune"
        } else {
            "replay-tune"
        },
        set.digest(),
        set.jobs.len(),
        set.jobs
            .iter()
            .map(|j| format!(
                "{}{}",
                j.collective.name(),
                if j.analytic { "+analytic" } else { "" }
            ))
            .collect::<Vec<_>>()
    );
    let mut setup_s = Vec::new();
    let mut prep = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        // The previous setup's data goes first, so it never sits beside
        // the next one in memory.
        drop(prep.take());
        let started = Instant::now();
        prep = Some(prepare(&set));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one setup");
    // From here on the peak RSS covers the tunes, not the setup.
    let rss_reset = stats::reset_peak_rss();

    // Timed passes over the whole job set, one per started
    // `SECONDS_PER_PASS` of `seconds` and at least `MIN_PASSES`, so the
    // amount of work a run does never depends on how fast the machine
    // happens to be; each job reports its median host and CPU time.
    let passes = ((seconds / SECONDS_PER_PASS).ceil() as usize).max(MIN_PASSES);
    let started = Instant::now();
    let results = pass(&set, &order, &prep, mode, &Obs::disabled());
    let mut host_s: Vec<Vec<f64>> = results.iter().map(|r| vec![r.host_s]).collect();
    let mut cpu_s: Vec<Vec<f64>> = results.iter().map(|r| vec![r.cpu_s]).collect();
    let mut unstable = 0;
    for _ in 1..passes {
        for (j, again) in pass(&set, &order, &prep, mode, &Obs::disabled())
            .iter()
            .enumerate()
        {
            host_s[j].push(again.host_s);
            cpu_s[j].push(again.cpu_s);
            unstable += usize::from(again.rules != results[j].rules);
        }
    }
    let pass_s = started.elapsed().as_secs_f64() / passes as f64;
    let peak_rss_mb = stats::peak_rss_mb(None);
    if !rss_reset {
        println!("# peak_rss_mb includes setup: the kernel refused to reset VmHWM");
    }

    // Correctness: every job converges, and the other mode reproduces
    // the rule files byte for byte.
    let other = if mode == Mode::Cold {
        Mode::Replay
    } else {
        Mode::Cold
    };
    let checked = gate_jobs(&set, mode);
    let again = pass(&set, &checked, &prep, other, &Obs::disabled());
    let differing = checked
        .iter()
        .zip(&again)
        .filter(|(&j, r)| r.rules != results[j].rules)
        .count();
    let failed = results
        .iter()
        .filter(|r| !r.tuning.reports.iter().all(|(_, o)| o.converged))
        .count();
    let mut o = Outcome {
        correct: failed == 0 && differing == 0 && unstable == 0,
        attempted: results.len() as u64,
        failed: failed as u64,
        metrics: Metrics::default(),
    };
    println!(
        "# gates: {failed} of {} jobs did not converge; {differing} of {} rule files differ between cold and replay; {unstable} differ between the {passes} timed passes",
        results.len(),
        checked.len()
    );

    let counts: Vec<(f64, f64)> = results
        .iter()
        .map(|r| {
            let o = &r.tuning.reports[0].1;
            (o.log.len() as f64, o.stats.points as f64)
        })
        .collect();
    let host_ms: Vec<f64> = host_s.iter().map(|h| median(h) * 1e3).collect();
    let cpu_ms: Vec<f64> = cpu_s.iter().map(|c| median(c) * 1e3).collect();
    let machine_s: Vec<f64> = results
        .iter()
        .map(|r| r.tuning.collection_wall_us() / 1e6)
        .collect();
    for (((r, j), ms), cpu) in results.iter().zip(&set.jobs).zip(&host_ms).zip(&cpu_ms) {
        let o = &r.tuning.reports[0].1;
        println!(
            "#   {:<9} analytic={:<5} host {:>8.1} ms  cpu {:>8.1} ms  {:>3} iterations  {:>3} points  machine {:>10.1} s",
            j.collective.name(),
            j.analytic,
            ms,
            cpu,
            o.log.len(),
            o.stats.points,
            r.tuning.collection_wall_us() / 1e6
        );
    }
    println!(
        "# tune_machine_s.p50 = {:.3} s (simulated; repeats exactly)",
        median(&machine_s)
    );

    if trace {
        // The same pass again with telemetry on; the untraced pass
        // above is the baseline for the tracing overhead.
        let obs = Obs::enabled();
        let mut prior_ms = Vec::new();
        for job in set.jobs.iter().filter(|j| j.analytic) {
            let started = Instant::now();
            let prior = AnalyticPrior::from_dataset(
                &set.dataset,
                job.config.learner.analytic_priors.clone(),
            );
            black_box(prior.warm_start(job.collective, &set.space, &Obs::disabled()));
            prior_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let started = Instant::now();
        pass(&set, &order, &prep, mode, &obs);
        let traced_s = started.elapsed().as_secs_f64();
        let snap = trace::write_and_check(&obs, dir, obs_check)?;
        let mut m = layer_metrics(
            &snap,
            &counts,
            prior_ms.iter().sum::<f64>() / prior_ms.len().max(1) as f64,
        );
        crate::serve::zero_serve_layers(&mut m);
        m.put("obs.trace_overhead", traced_s / pass_s, "ratio");
        m.put("loadgen.late_ms.p99", 0.0, "ms");
        o.metrics = m;
        return Ok(o);
    }

    // Quality of every job's rule file against the exhaustive oracle.
    let (mut p2, mut nonp2) = (Vec::new(), Vec::new());
    for (r, j) in results.iter().zip(&set.jobs) {
        let sel = r.tuning.selector();
        let c = j.collective;
        p2.push(
            prep.oracle
                .average_slowdown(c, &set.space.points(), |p| sel.select(c, p)),
        );
        nonp2.push(
            prep.oracle
                .average_slowdown(c, &set.nonp2, |p| sel.select(c, p)),
        );
    }
    println!("# {}", stats::describe("tune_ms", "ms", &host_ms));
    println!("# {}", stats::describe("tune_cpu_ms", "ms", &cpu_ms));
    println!(
        "# tune_host_s.p50 = {:.4} s, tunes_per_min = {:.2}, failed_share = {}",
        median(&host_ms) / 1e3,
        results.len() as f64 * 60.0 / pass_s,
        o.failed as f64 / o.attempted as f64
    );

    let m = &mut o.metrics;
    m.put("setup_s", median(&setup_s), "s");
    // The gated timings are CPU time: on a shared VM the hypervisor's
    // steal time moved the wall time of the same pass by up to 2x, and
    // the CPU time by a few percent. Wall time is on the `#` lines.
    m.put("request_ms.p50", median(&cpu_ms), "ms");
    m.put(
        "requests_per_s",
        results.len() as f64 / (cpu_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put(
        "slowdown_p2.mean",
        p2.iter().sum::<f64>() / p2.len() as f64,
        "ratio",
    );
    m.put(
        "slowdown_nonp2.mean",
        nonp2.iter().sum::<f64>() / nonp2.len() as f64,
        "ratio",
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put(
        "ok_share",
        1.0 - o.failed as f64 / o.attempted as f64,
        "ratio",
    );
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        assert_eq!(JobSet::new(1).digest(), JobSet::new(1).digest());
        assert_ne!(JobSet::new(1).digest(), JobSet::new(2).digest());
    }

    #[test]
    fn job_set_covers_every_collective_with_and_without_priors() {
        let set = JobSet::new(5);
        assert_eq!(set.jobs.len(), 8);
        for c in COLLECTIVES {
            for analytic in [false, true] {
                assert_eq!(
                    set.jobs
                        .iter()
                        .filter(|j| j.collective == c && j.analytic == analytic)
                        .count(),
                    1
                );
            }
        }
        assert!(set.nonp2.iter().all(|p| !p.is_p2()));
    }

    #[test]
    fn the_two_workloads_gate_every_job_once() {
        let set = JobSet::new(9);
        let mut all = gate_jobs(&set, Mode::Cold);
        all.extend(gate_jobs(&set, Mode::Replay));
        all.sort_unstable();
        assert_eq!(all, (0..set.jobs.len()).collect::<Vec<_>>());
    }
}

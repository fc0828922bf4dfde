//! Deterministic load generator for [`TuneService`].
//!
//! Virtual clients drive tune sessions (and follow-up rule queries)
//! against a service from multiple threads. Everything a test asserts
//! on is seed-determined, never wall-clock- or interleaving-determined:
//!
//! * The request pool is built from the seed alone, and its entries
//!   are **pairwise incompatible** (distinct dataset seeds force
//!   distinct environment fingerprints, so signatures never collide or
//!   near-match across pool slots). A session's training inputs are
//!   therefore independent of what other sessions did first.
//! * Session `i` always picks pool slot and priority from its own
//!   seeded RNG stream — thread assignment is round-robin by session
//!   index, so which thread runs a session never changes what the
//!   session asks for.
//! * The report's [`LoadReport::fingerprint`] hashes per-session
//!   outcomes in session order, *excluding* interleaving-dependent
//!   facts (who trained vs. who hit the cache, iteration counts):
//!   two runs with the same seed produce the same fingerprint no
//!   matter how the scheduler interleaved them.

use crate::queue::{JobStatus, Priority};
use crate::service::{QueryRequest, QuerySource, TuneRequest, TuneService};
use acclaim_core::{AcclaimConfig, TuningFile};
use acclaim_dataset::{BenchmarkDatabase, DatasetConfig, FeatureSpace, Point};
use acclaim_netsim::Fingerprint;
use acclaim_obs::{HistogramSnapshot, Obs};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Load-generator shape. Everything is deterministic given `seed`.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Total tune sessions to run.
    pub sessions: usize,
    /// Concurrent virtual clients (threads) driving them.
    pub clients: usize,
    /// Distinct request-pool slots sessions draw from.
    pub pool: usize,
    /// Master seed for pool construction and per-session draws.
    pub seed: u64,
    /// Rule queries each session issues after its tune completes.
    pub queries_per_session: usize,
    /// After each tuned query, feed the simulator's measurement back
    /// through [`TuneService::observe`] so the daemon's `drift.*`
    /// family sees traffic. Metrics-only; tuning outcomes and the
    /// report fingerprint are unaffected.
    pub observe: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            sessions: 64,
            clients: 8,
            pool: 16,
            seed: 0,
            queries_per_session: 2,
            observe: true,
        }
    }
}

/// What one session observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The session's index (0..sessions).
    pub session: usize,
    /// Which pool slot it drew.
    pub pool_index: usize,
    /// Whether the result came from cache (interleaving-dependent —
    /// excluded from the fingerprint).
    pub cached: bool,
    /// Whether the job reached [`JobStatus::Done`].
    pub ok: bool,
    /// Whether the result reports convergence.
    pub converged: bool,
    /// Digest of the tuning file the session received.
    pub rules_digest: u64,
    /// Store keys the job touched.
    pub keys: Vec<String>,
}

/// The aggregate outcome of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-session outcomes, in session order.
    pub outcomes: Vec<SessionOutcome>,
    /// Rule queries issued.
    pub queries: usize,
    /// Queries answered by the default heuristic instead of a tuned
    /// table (0 when every query targets a tuned signature).
    pub default_selections: usize,
    /// Drift observations that matched a served model (0 when
    /// [`LoadGenConfig::observe`] is off).
    pub observations: usize,
    /// Submit→terminal latency of every tune session (µs), aggregated
    /// in an obs histogram for bucketed quantiles.
    pub tune_latency: HistogramSnapshot,
    /// Rule-query latency (µs) as seen by the virtual clients.
    pub query_latency: HistogramSnapshot,
}

impl LoadReport {
    /// Every session completed successfully.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.ok)
    }

    /// Every session's result reports convergence.
    pub fn all_converged(&self) -> bool {
        self.outcomes.iter().all(|o| o.converged)
    }

    /// The distinct store keys touched across every session.
    pub fn distinct_keys(&self) -> BTreeSet<String> {
        self.outcomes
            .iter()
            .flat_map(|o| o.keys.iter().cloned())
            .collect()
    }

    /// Seed-determined digest of the run: per-session (index, pool
    /// slot, rules digest) in session order. Identical across reruns
    /// with the same seed regardless of thread interleaving.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        for o in &self.outcomes {
            f.write_u64(o.session as u64);
            f.write_u64(o.pool_index as u64);
            f.write_u64(o.rules_digest);
            f.write_u32(u32::from(o.ok));
        }
        f.finish()
    }
}

/// Stable digest of a tuning file (serialization-based; bit-identical
/// rules hash identically on every platform).
pub fn rules_digest(file: &TuningFile) -> u64 {
    let mut f = Fingerprint::new();
    f.write_str(&serde_json::to_string(file).unwrap_or_default());
    f.finish()
}

/// Build the deterministic request pool: `n` pairwise-incompatible
/// tiny tuning problems (distinct dataset seeds ⇒ distinct environment
/// fingerprints ⇒ no signature ever matches across slots).
pub fn request_pool(n: usize, seed: u64) -> Vec<TuneRequest> {
    use acclaim_collectives::Collective;
    (0..n)
        .map(|i| {
            let mut dataset = DatasetConfig::tiny();
            // An injective map keeps slot seeds pairwise distinct for
            // any master seed.
            dataset.seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xACC1;
            let mut config = AcclaimConfig::new(FeatureSpace::tiny());
            config.learner.max_iterations = 40;
            // A loose relative plateau so tiny sessions converge by
            // criterion well within the cap (the default absolute
            // threshold never fires before tiny spaces exhaust).
            config.learner.criterion = acclaim_core::CriterionConfig::CumulativeVariance(
                acclaim_core::VarianceConvergence::relative(4, 0.2),
            );
            TuneRequest {
                dataset,
                config,
                collectives: vec![Collective::ALL[i % Collective::ALL.len()]],
                priority: Priority::Normal,
            }
        })
        .collect()
}

/// Per-session RNG stream: independent of thread assignment.
fn session_rng(seed: u64, session: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (session as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Run the load against `service`, blocking until every session
/// finishes. Sessions are distributed round-robin over `clients`
/// threads; outcomes come back in session order.
pub fn run(service: &TuneService, config: &LoadGenConfig) -> LoadReport {
    let pool = request_pool(config.pool.max(1), config.seed);
    let clients = config.clients.max(1);
    // Client-side latency aggregation lives in a recorder local to
    // this run, so it never mixes with the service's own metrics.
    let recorder = Obs::metrics_only();
    let tune_latency = recorder.histogram("loadgen.tune_latency_us");
    let query_latency = recorder.histogram("loadgen.query_latency_us");
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let pool = &pool;
                let tune_latency = tune_latency.clone();
                let query_latency = query_latency.clone();
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    let mut queries = 0;
                    let mut defaults = 0;
                    let mut observations = 0;
                    let mut session = client;
                    while session < config.sessions {
                        let mut rng = session_rng(config.seed, session);
                        let pool_index = rng.random_range(0..pool.len());
                        let mut request = pool[pool_index].clone();
                        request.priority = match rng.random_range(0..3u32) {
                            0 => Priority::Low,
                            1 => Priority::Normal,
                            _ => Priority::High,
                        };
                        let tune_started = Instant::now();
                        let handle = service.submit(request.clone());
                        let outcome = match handle.wait() {
                            JobStatus::Done(r) => SessionOutcome {
                                session,
                                pool_index,
                                cached: r.cached,
                                ok: true,
                                converged: r.converged,
                                rules_digest: rules_digest(&r.tuning_file),
                                keys: r.keys.clone(),
                            },
                            _ => SessionOutcome {
                                session,
                                pool_index,
                                cached: false,
                                ok: false,
                                converged: false,
                                rules_digest: 0,
                                keys: Vec::new(),
                            },
                        };
                        tune_latency.record(tune_started.elapsed().as_secs_f64() * 1e6);
                        // Follow-up queries against the now-tuned
                        // signature, at seeded points.
                        let db = (config.observe && config.queries_per_session > 0)
                            .then(|| BenchmarkDatabase::new(request.dataset.clone()));
                        for _ in 0..config.queries_per_session {
                            let space = &request.config.space;
                            let point = Point::new(
                                space.nodes[rng.random_range(0..space.nodes.len())],
                                space.ppns[rng.random_range(0..space.ppns.len())],
                                space.msg_sizes[rng.random_range(0..space.msg_sizes.len())],
                            );
                            let query = QueryRequest {
                                dataset: request.dataset.clone(),
                                config: request.config.clone(),
                                collective: request.collectives[0],
                                point,
                            };
                            let query_started = Instant::now();
                            let response = service.query(&query);
                            query_latency.record(query_started.elapsed().as_secs_f64() * 1e6);
                            queries += 1;
                            if response.source == QuerySource::Default {
                                defaults += 1;
                            }
                            // Close the loop for drift measurement:
                            // "run" the selection in the simulator and
                            // report what it actually cost.
                            if let Some(db) = &db {
                                if let Some(algorithm) = query
                                    .collective
                                    .algorithms()
                                    .iter()
                                    .copied()
                                    .find(|a| a.name() == response.algorithm)
                                {
                                    let observed = db.time(algorithm, point);
                                    let sample =
                                        service.observe(&query, algorithm.name(), observed);
                                    if sample.matched {
                                        observations += 1;
                                    }
                                }
                            }
                        }
                        outcomes.push(outcome);
                        session += clients;
                    }
                    (outcomes, queries, defaults, observations)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect::<Vec<_>>()
    });

    let mut outcomes: Vec<SessionOutcome> =
        results.iter().flat_map(|(o, _, _, _)| o.clone()).collect();
    outcomes.sort_by_key(|o| o.session);
    LoadReport {
        outcomes,
        queries: results.iter().map(|(_, q, _, _)| q).sum(),
        default_selections: results.iter().map(|(_, _, d, _)| d).sum(),
        observations: results.iter().map(|(_, _, _, n)| n).sum(),
        tune_latency: tune_latency.snapshot(),
        query_latency: query_latency.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_obs::Obs;
    use acclaim_store::Compatibility;
    use crate::service::{ServeConfig, TuneService};

    #[test]
    fn pool_entries_are_pairwise_incompatible() {
        use acclaim_store::ClusterSignature;
        let pool = request_pool(12, 3);
        let sigs: Vec<ClusterSignature> = pool
            .iter()
            .map(|r| {
                ClusterSignature::new(
                    &r.dataset,
                    &r.config.space,
                    r.collectives[0],
                    &r.config.learner.collection,
                )
            })
            .collect();
        for (i, a) in sigs.iter().enumerate() {
            for (j, b) in sigs.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert_eq!(
                    a.compatibility(b),
                    Compatibility::Incompatible,
                    "pool slots {i} and {j} must not share tuning state"
                );
            }
        }
    }

    #[test]
    fn pool_and_session_draws_are_seed_deterministic() {
        let a = request_pool(8, 42);
        let b = request_pool(8, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.work_fingerprint(), y.work_fingerprint());
        }
        let c = request_pool(8, 43);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.work_fingerprint() != y.work_fingerprint()));
    }

    #[test]
    fn small_load_converges_and_counts_signatures() {
        let dir = std::env::temp_dir().join("acclaim-serve-loadgen-small");
        std::fs::remove_dir_all(&dir).ok();
        let service = TuneService::open(&dir, ServeConfig::default(), Obs::enabled()).unwrap();
        let config = LoadGenConfig {
            sessions: 12,
            clients: 4,
            pool: 4,
            seed: 9,
            queries_per_session: 1,
            observe: true,
        };
        let report = run(&service, &config);
        assert_eq!(report.outcomes.len(), 12);
        assert!(report.all_ok());
        assert!(report.all_converged());
        assert_eq!(report.queries, 12);
        assert_eq!(
            report.default_selections, 0,
            "every query targets a signature its own session tuned"
        );
        assert_eq!(
            report.observations, 12,
            "every tuned query feeds one matched drift observation"
        );
        assert_eq!(report.tune_latency.count, 12);
        assert_eq!(report.query_latency.count, 12);
        assert!(report.tune_latency.quantile(0.5) > 0.0);
        let drift = service
            .metrics()
            .counters
            .iter()
            .find(|(n, _)| n == "drift.observations")
            .map(|(_, v)| *v);
        assert_eq!(drift, Some(12));
        // Store entries == distinct signatures touched.
        assert_eq!(
            service.shared().len(),
            report.distinct_keys().len(),
            "one store entry per distinct signature"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

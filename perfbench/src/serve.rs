//! `serve-mixed`: the `acclaim serve` daemon under reads beside writes.
//!
//! Setup starts the daemon on a fresh store and pre-tunes a pool of
//! pairwise-incompatible tiny signatures from one fixed
//! `loadgen::request_pool` catalog (the seed shapes the traffic, not
//! what is trained). The traffic then follows the shape of the repo's
//! own load generator: sessions of one `Tune` followed by
//! `queries_per_session` `Query` lines, each followed by an `Observe` of
//! the served selection's simulated cost (`LoadGenConfig::default()`),
//! with signatures drawn uniformly from the pool, and one `Tune` in four
//! naming a fresh signature, as in the CI serve-smoke load (64 sessions
//! over a 16-slot pool: the first session on each slot trains).
//! Connection 2 carries the `Tune` lines, paced at the session rate;
//! connection 1 carries the sessions' reads as an open loop at their due
//! times. Two closed-loop phases, before and after it, send only
//! `Query`, pipelined on one connection, to measure capacity. The same
//! schedule is replayed
//! in-process through `protocol::decode_request → handle_request →
//! encode_response`, whose answers must equal the daemon's.

use crate::stats::{self, median, quantile, Digest, Metrics, Outcome};
use crate::trace;
use acclaim_dataset::splits::nonp2_msg_test_set;
use acclaim_dataset::{BenchmarkDatabase, FeatureSpace, Point};
use acclaim_obs::Obs;
use acclaim_serve::loadgen::{self, LoadGenConfig};
use acclaim_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, handle_request, WireRequest,
    WireResponse,
};
use acclaim_serve::{QueryRequest, QuerySource, ServeConfig, TuneRequest, TuneService};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pre-tuned signatures the sessions draw from: the pool of the CI
/// serve-smoke load (`client --load 64 --pool 16`).
const POOL: usize = 16;
/// Sessions of the CI serve-smoke load. Over `POOL` slots, the first
/// session on each slot trains and the rest are served from cache.
const CI_SESSIONS: usize = 64;
/// Every this many `Tune` lines, one names a signature nobody tuned
/// yet: the CI load's share of training sessions.
const FRESH_EVERY: usize = CI_SESSIONS / POOL;
/// Offered session (`Tune`) rate. This is a load level, not part of the
/// traffic's shape: a 2-vCPU host keeps up with the fresh tunes at this
/// rate. The write connection waits for each answer, so a daemon that
/// falls behind receives fewer.
const SESSION_RATE_HZ: f64 = 20.0;
/// In-process `Query` round trips timed per round of the gated serving
/// time; rounds cycle through the schedule's `Query` lines.
const ROUND_QUERIES: usize = 3000;
/// Rounds timed back to back at each of the five points of a run. The
/// host's speed wanders on a sub-second scale (back-to-back rounds of
/// the same queries differed by 40% in CPU time on a 2-vCPU VM), so the
/// gated figure is the median of many short rounds.
const ROUNDS_PER_POINT: usize = 6;
/// Requests the capacity-phase connection keeps in flight. One
/// connection, not two: on a 2-vCPU host the two-connection rate swung
/// twofold between runs of the same code as the scheduler placed the two
/// daemon threads, while one pipelined connection holds steady.
const CAPACITY_WINDOW: usize = 16;
/// Seed of the signature catalog (`loadgen::request_pool`): every run
/// trains the same signatures, so training work does not vary by seed.
const CATALOG_SEED: u64 = 0x00AC_C1A1;
/// Share of `--seconds` spent in the open-loop phase; the rest is split
/// between the two closed-loop capacity phases.
const OPEN_LOOP_SHARE: f64 = 0.7;
/// Non-P2 message sizes scored per (nodes, ppn) of the tiny grid.
const NONP2_PER_SHAPE: usize = 4;
/// Length of the windows whose medians the serve timings report, so a
/// host hiccup inside a run moves one window rather than the run.
const WINDOW_S: f64 = 0.5;
/// Times setup runs per measured run (`setup_s` is their median). A
/// setup takes a few tenths of a second, so host noise moves single
/// setups by half; the median of nine holds.
const SETUPS: usize = 9;
/// How long a connection may stay silent before the run gives up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One open-loop read: `Query` or `Observe` for a pool signature.
#[derive(Debug, Clone, Copy)]
struct Read {
    due_us: f64,
    slot: usize,
    point: Point,
    observe: bool,
}

/// The generated inputs of one run.
pub struct Schedule {
    requests: Vec<TuneRequest>,
    reads: Vec<Read>,
    /// `Tune` slots in sending order (`>= POOL` means fresh).
    tunes: Vec<usize>,
    /// Non-P2 points the served selections are scored at.
    nonp2: Vec<Point>,
    /// Offered rate of the read connection.
    read_rate_hz: f64,
    capacity_s: f64,
}

impl Schedule {
    /// The schedule for `seed` over a run of `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E2F_E11D);
        let shape = LoadGenConfig::default();
        let per_query = 1 + usize::from(shape.observe);
        let read_rate_hz = SESSION_RATE_HZ * (shape.queries_per_session * per_query) as f64;
        let sessions = (seconds * OPEN_LOOP_SHARE * SESSION_RATE_HZ) as usize;
        let points = FeatureSpace::tiny().points();
        let mut fresh = POOL;
        let mut tunes = Vec::with_capacity(sessions);
        let mut reads = Vec::new();
        for k in 0..sessions {
            // A session drawing a fresh signature reads a pool
            // signature instead: its own is not tuned before its reads
            // are due.
            let mut slot = rng.random_range(0..POOL);
            if k % FRESH_EVERY == FRESH_EVERY - 1 {
                tunes.push(fresh);
                fresh += 1;
            } else {
                tunes.push(slot);
            }
            if tunes[k] >= POOL {
                slot = rng.random_range(0..POOL);
            }
            for _ in 0..shape.queries_per_session {
                let point = points[rng.random_range(0..points.len())];
                for observe in [false, true].into_iter().take(per_query) {
                    reads.push(Read {
                        due_us: reads.len() as f64 * 1e6 / read_rate_hz,
                        slot,
                        point,
                        observe,
                    });
                }
            }
        }
        let nonp2 = nonp2_msg_test_set(&FeatureSpace::tiny(), NONP2_PER_SHAPE, &mut rng);
        Schedule {
            requests: loadgen::request_pool(fresh, CATALOG_SEED),
            nonp2,
            reads,
            tunes,
            read_rate_hz,
            capacity_s: seconds * (1.0 - OPEN_LOOP_SHARE),
        }
    }

    /// Digest of everything the schedule sends.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.requests {
            d.u64(r.work_fingerprint());
        }
        for r in &self.reads {
            d.u64(r.due_us.to_bits());
            d.u64(r.slot as u64);
            d.str(&r.point.to_string());
            d.u64(u64::from(r.observe));
        }
        for &t in &self.tunes {
            d.u64(t as u64);
        }
        for p in &self.nonp2 {
            d.str(&p.to_string());
        }
        d.u64(self.capacity_s.to_bits());
        d.finish()
    }

    fn query(&self, slot: usize, point: Point) -> QueryRequest {
        let r = &self.requests[slot];
        QueryRequest {
            dataset: r.dataset.clone(),
            config: r.config.clone(),
            collective: r.collectives[0],
            point,
        }
    }

    fn tune_line(&self, slot: usize) -> String {
        encode_request(&WireRequest::Tune {
            request: self.requests[slot].clone(),
        })
    }

    fn fresh_tunes(&self) -> usize {
        self.tunes.iter().filter(|&&t| t >= POOL).count()
    }
}

/// Every pool selection the daemon serves after setup, and the
/// simulated cost of running it: `(slot, point) → (algorithm, µs)`.
type Selections = HashMap<(usize, Point), (String, f64)>;

/// The wire lines of a run, rendered once setup knows the selections.
struct Lines {
    reads: Vec<String>,
    tunes: Vec<String>,
    /// Expected algorithm of each `Query` read (`None` for `Observe`).
    expect: Vec<Option<String>>,
}

fn render(s: &Schedule, selections: &Selections) -> Lines {
    let mut lines = Lines {
        reads: Vec::new(),
        tunes: s.tunes.iter().map(|&t| s.tune_line(t)).collect(),
        expect: Vec::new(),
    };
    for r in &s.reads {
        let request = s.query(r.slot, r.point);
        let (algorithm, cost_us) = selections[&(r.slot, r.point)].clone();
        if r.observe {
            lines.reads.push(encode_request(&WireRequest::Observe {
                request,
                algorithm,
                observed_us: cost_us,
            }));
            lines.expect.push(None);
        } else {
            lines
                .reads
                .push(encode_request(&WireRequest::Query { request }));
            lines.expect.push(Some(algorithm));
        }
    }
    lines
}

/// Whether a read's answer is a success: a tuned selection equal to
/// the one setup saw, or a matched drift observation.
fn read_ok(expect: Option<&str>, response: &str) -> bool {
    match (expect, decode_response(response)) {
        (Some(alg), Ok(WireResponse::Selected { response })) => {
            response.source == QuerySource::Tuned && response.algorithm == alg
        }
        (None, Ok(WireResponse::Drift { sample })) => sample.matched,
        _ => false,
    }
}

/// The fields of a `Tuned` answer that do not depend on job numbering.
fn tuned_fields(response: &str) -> Option<(bool, bool, u64, u64, Vec<String>)> {
    match decode_response(response) {
        Ok(WireResponse::Tuned {
            cached,
            converged,
            iterations,
            fresh_points,
            keys,
            ..
        }) => Some((cached, converged, iterations, fresh_points, keys)),
        _ => None,
    }
}

/// What a `Tune` answer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TuneAnswer {
    /// Served from a finished entry without training.
    Cached,
    /// Trained and converged by criterion.
    Converged,
    /// Trained without converging (a tiny two-algorithm space can run
    /// out of candidates before the variance plateau fires).
    Unconverged,
    /// Anything but a `Tuned` answer.
    Failed,
}

fn tune_answer(answer: &str) -> TuneAnswer {
    match tuned_fields(answer) {
        Some((true, ..)) => TuneAnswer::Cached,
        Some((false, true, ..)) => TuneAnswer::Converged,
        Some((false, false, ..)) => TuneAnswer::Unconverged,
        None => TuneAnswer::Failed,
    }
}

/// Whether a pool pre-tune trained; `Err` carries the answer if not.
fn pre_tuned(slot: usize, answer: &str) -> Result<TuneAnswer, String> {
    match tune_answer(answer) {
        a @ (TuneAnswer::Converged | TuneAnswer::Unconverged) => Ok(a),
        _ => Err(format!("pre-tuning pool slot {slot}: {answer}")),
    }
}

/// A line-at-a-time client connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end().to_string())
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.recv()
    }
}

/// A running `acclaim serve` process; killed on drop if still alive.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let log = std::fs::File::create(dir.join("daemon.log"))
            .map_err(|e| format!("creating daemon log: {e}"))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--socket")
            .arg(&socket)
            .arg("--quiet")
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + IO_TIMEOUT;
        while UnixStream::connect(&daemon.socket).is_err() {
            if Instant::now() > deadline || daemon.child.try_wait().ok().flatten().is_some() {
                return Err("daemon did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket).map_err(|e| format!("connecting to the daemon: {e}"))
    }

    /// Shut the daemon down over the socket and wait for it to exit.
    /// Returns its peak RSS (MB), read just before shutdown.
    fn stop(mut self) -> Result<f64, String> {
        let rss = stats::peak_rss_mb(Some(self.child.id()));
        let bye = self
            .connect()?
            .round_trip(&encode_request(&WireRequest::Shutdown));
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && bye.is_ok() => return Ok(rss),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not shut down".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Start a daemon, pre-tune the pool over two connections, and learn
/// the selection every pool query will get. Also returns how many pool
/// pre-tunes did not converge.
fn setup(bin: &Path, dir: &Path, s: &Schedule) -> Result<(Daemon, Selections, usize), String> {
    let daemon = Daemon::start(bin, dir)?;
    let halves: Vec<Vec<usize>> = vec![
        (0..POOL).step_by(2).collect(),
        (1..POOL).step_by(2).collect(),
    ];
    let unconverged = std::thread::scope(|scope| {
        let workers: Vec<_> = halves
            .iter()
            .map(|slots| {
                let daemon = &daemon;
                scope.spawn(move || -> Result<usize, String> {
                    let mut c = daemon.connect()?;
                    let mut unconverged = 0;
                    for &slot in slots {
                        let answer = c
                            .round_trip(&s.tune_line(slot))
                            .map_err(|e| e.to_string())?;
                        unconverged +=
                            usize::from(pre_tuned(slot, &answer)? == TuneAnswer::Unconverged);
                    }
                    Ok(unconverged)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("setup thread panicked"))
            .sum::<Result<usize, String>>()
    })?;
    let mut selections = Selections::new();
    let mut c = daemon.connect()?;
    for slot in 0..POOL {
        let db = BenchmarkDatabase::new(s.requests[slot].dataset.clone());
        for point in FeatureSpace::tiny()
            .points()
            .into_iter()
            .chain(s.nonp2.iter().copied())
        {
            let line = encode_request(&WireRequest::Query {
                request: s.query(slot, point),
            });
            let answer = c.round_trip(&line).map_err(|e| e.to_string())?;
            let Ok(WireResponse::Selected { response }) = decode_response(&answer) else {
                return Err(format!("setup query failed: {answer}"));
            };
            let algorithm = s.requests[slot].collectives[0]
                .algorithms()
                .iter()
                .copied()
                .find(|a| a.name() == response.algorithm)
                .ok_or_else(|| format!("unknown algorithm {}", response.algorithm))?;
            selections.insert(
                (slot, point),
                (response.algorithm, db.time(algorithm, point)),
            );
        }
    }
    Ok((daemon, selections, unconverged))
}

/// What the open-loop phase observed.
struct OpenLoop {
    /// Per read: (due, sent, received) in µs since the phase origin.
    times: Vec<(f64, f64, f64)>,
    answers: Vec<String>,
    /// Per tune sent: send time and latency (µs), and the answer.
    tunes: Vec<(f64, f64, String)>,
}

fn open_loop(daemon: &Daemon, s: &Schedule, lines: &Lines) -> Result<OpenLoop, String> {
    let mut reads = daemon.connect()?;
    let mut writes = daemon.connect()?;
    let mut read_tx = reads.writer.try_clone().map_err(|e| e.to_string())?;
    let wire: Vec<Vec<u8>> = lines
        .reads
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let reads_done = AtomicBool::new(false);
    let origin = Instant::now() + Duration::from_millis(20);
    let us = |t: Instant| (t - origin).as_secs_f64() * 1e6;
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(s.reads.len());
            for (r, line) in s.reads.iter().zip(&wire) {
                let due = origin + Duration::from_secs_f64(r.due_us / 1e6);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent.push(us(Instant::now()));
                if read_tx.write_all(line).is_err() {
                    break;
                }
            }
            reads_done.store(true, Ordering::Relaxed);
            sent
        });
        let receiver = scope.spawn(|| {
            let mut got = Vec::with_capacity(s.reads.len());
            for _ in 0..s.reads.len() {
                match reads.recv() {
                    Ok(answer) => got.push((us(Instant::now()), answer)),
                    Err(_) => break,
                }
            }
            got
        });
        // The write connection sends each `Tune` when it is due or, if
        // the previous answer came late, as soon as that answer arrives;
        // it stops when the reads end.
        let mut tunes = Vec::new();
        for (i, line) in lines.tunes.iter().enumerate() {
            let due = origin + Duration::from_secs_f64(i as f64 / SESSION_RATE_HZ);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if reads_done.load(Ordering::Relaxed) {
                break;
            }
            let start = Instant::now();
            match writes.round_trip(line) {
                Ok(answer) => tunes.push((us(start), start.elapsed().as_secs_f64() * 1e6, answer)),
                Err(_) => break,
            }
        }
        let sent = sender.join().expect("sender panicked");
        let got = receiver.join().expect("receiver panicked");
        let times = s
            .reads
            .iter()
            .zip(sent)
            .zip(&got)
            .map(|((r, sent), (recv, _))| (r.due_us, sent, *recv))
            .collect();
        Ok(OpenLoop {
            times,
            answers: got.into_iter().map(|(_, a)| a).collect(),
            tunes,
        })
    })
}

/// Closed-loop `Query` capacity of one connection that keeps a window
/// of requests in flight for `seconds`; returns (answered, wrong,
/// answers per second in each `WINDOW_S` window).
fn capacity(daemon: &Daemon, lines: &Lines, seconds: f64) -> Result<(u64, u64, Vec<f64>), String> {
    let queries: Vec<(Vec<u8>, &str)> = lines
        .reads
        .iter()
        .zip(&lines.expect)
        .filter_map(|(l, e)| e.as_deref().map(|e| (format!("{l}\n").into_bytes(), e)))
        .collect();
    let mut c = daemon.connect()?;
    let (mut done, mut wrong) = (0u64, 0u64);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut per_window = vec![0u64; (seconds / WINDOW_S).ceil() as usize];
    let mut next = 0;
    while Instant::now() < deadline {
        let batch: Vec<usize> = (next..next + CAPACITY_WINDOW)
            .map(|q| q % queries.len())
            .collect();
        next += CAPACITY_WINDOW;
        let bytes: Vec<u8> = batch
            .iter()
            .flat_map(|&q| queries[q].0.iter().copied())
            .collect();
        c.writer.write_all(&bytes).map_err(|e| e.to_string())?;
        for &q in &batch {
            let answer = c.recv().map_err(|e| e.to_string())?;
            done += 1;
            wrong += u64::from(!read_ok(Some(queries[q].1), &answer));
        }
        let window = (started.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if let Some(n) = per_window.get_mut(window) {
            *n += CAPACITY_WINDOW as u64;
        }
    }
    let rates = per_window.iter().map(|&n| n as f64 / WINDOW_S).collect();
    Ok((done, wrong, rates))
}

/// The in-process replay of a schedule.
struct Replay {
    reads: Vec<String>,
    tunes: Vec<String>,
    /// Per read: decode, handle, encode (µs).
    read_us: Vec<(f64, f64, f64)>,
}

/// An in-process `TuneService` configured like the daemon, with the
/// pool pre-tuned through the protocol.
fn replay_service(s: &Schedule, dir: &Path, obs: Obs) -> Result<TuneService, String> {
    let config = ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let service = TuneService::open(dir, config, obs).map_err(|e| format!("opening store: {e}"))?;
    for slot in 0..POOL {
        let (answer, _) = handle_line(&service, &s.tune_line(slot));
        pre_tuned(slot, &answer)?;
    }
    Ok(service)
}

/// One wire line through `decode_request → handle_request →
/// encode_response`; returns the answer and the three stage times (µs).
fn handle_line(service: &TuneService, line: &str) -> (String, (f64, f64, f64)) {
    let t0 = Instant::now();
    let request = decode_request(line);
    let t1 = Instant::now();
    let response = match request {
        Ok(request) => handle_request(service, request).0,
        Err(message) => WireResponse::Error { message },
    };
    let t2 = Instant::now();
    let line = encode_response(&response);
    let t3 = Instant::now();
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    (line, (us(t0, t1), us(t1, t2), us(t2, t3)))
}

/// Replays the reads and the `tune_sent` tunes the socket run sent
/// (by send time, µs since the phase origin), merged in time order.
fn replay(
    s: &Schedule,
    lines: &Lines,
    tune_sent: &[f64],
    dir: &Path,
    obs: Obs,
) -> Result<Replay, String> {
    let service = replay_service(s, dir, obs)?;
    let mut out = Replay {
        reads: Vec::with_capacity(s.reads.len()),
        tunes: Vec::with_capacity(tune_sent.len()),
        read_us: Vec::with_capacity(s.reads.len()),
    };
    let (mut r, mut t) = (0, 0);
    while r < s.reads.len() || t < tune_sent.len() {
        if t < tune_sent.len() && (r == s.reads.len() || tune_sent[t] <= s.reads[r].due_us) {
            out.tunes.push(handle_line(&service, &lines.tunes[t]).0);
            t += 1;
        } else {
            let (answer, us) = handle_line(&service, &lines.reads[r]);
            out.reads.push(answer);
            out.read_us.push(us);
            r += 1;
        }
    }
    service.shutdown();
    Ok(out)
}

/// `ROUNDS_PER_POINT` rounds, each the median in-process round trip
/// (µs of the thread's CPU time, which steal time does not inflate) of
/// `ROUND_QUERIES` of the schedule's `Query` lines, cycled in order,
/// through `service`.
fn query_rounds(service: &TuneService, s: &Schedule, lines: &Lines) -> Vec<f64> {
    (0..ROUNDS_PER_POINT)
        .map(|_| query_round(service, s, lines))
        .collect()
}

fn query_round(service: &TuneService, s: &Schedule, lines: &Lines) -> f64 {
    let us: Vec<f64> = s
        .reads
        .iter()
        .zip(&lines.reads)
        .filter(|(r, _)| !r.observe)
        .map(|(_, line)| line)
        .cycle()
        .take(ROUND_QUERIES)
        .map(|line| {
            let cpu = stats::thread_cpu_s();
            handle_line(service, line);
            (stats::thread_cpu_s() - cpu) * 1e6
        })
        .collect();
    median(&us)
}

/// Compare the daemon's answers with the in-process replay's; returns
/// the number of mismatching answers.
fn mismatches(open: &OpenLoop, rep: &Replay) -> u64 {
    let reads = open
        .answers
        .iter()
        .zip(&rep.reads)
        .filter(|(a, b)| a != b)
        .count();
    let tunes = open
        .tunes
        .iter()
        .zip(&rep.tunes)
        .filter(|((.., a), b)| tuned_fields(a).is_none() || tuned_fields(a) != tuned_fields(b))
        .count();
    (reads + tunes) as u64
}

/// Per-layer metrics of the serving path, zero for workloads that do
/// not run it.
pub fn zero_serve_layers(m: &mut Metrics) {
    for (name, unit) in SERVE_LAYERS {
        m.put(name, 0.0, unit);
    }
}

const SERVE_LAYERS: [(&str, &str); 19] = [
    ("serve.protocol.decode_us.p50", "us"),
    ("serve.protocol.encode_us.p50", "us"),
    ("serve.query_us.p50", "us"),
    ("serve.observe_us.p50", "us"),
    ("serve.transport_us.p50", "us"),
    ("cli.query_us.p50", "us"),
    ("cli.query_us.p99", "us"),
    ("cli.tune_ms.p50", "ms"),
    ("cli.tune_ms.p90", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.probe_ms", "ms"),
    ("serve.collect_ms", "ms"),
    ("serve.refit_ms", "ms"),
    ("store.write_back_ms", "ms"),
    ("serve.cache_served_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.attached", "count"),
    ("store.entries_written", "count"),
    ("store.exact_hits", "count"),
];

/// Mean over pool signatures of the average slowdown of the served
/// selections at `points`, against an exhaustive oracle per signature.
fn served_slowdown(s: &Schedule, selections: &Selections, points: &[Point]) -> f64 {
    let per_slot: Vec<f64> = (0..POOL)
        .map(|slot| {
            let request = &s.requests[slot];
            let c = request.collectives[0];
            let oracle = BenchmarkDatabase::new(request.dataset.clone());
            oracle.average_slowdown(c, points, |p| {
                let name = &selections[&(slot, p)].0;
                *c.algorithms()
                    .iter()
                    .find(|a| a.name() == name)
                    .expect("setup resolved every served algorithm")
            })
        })
        .collect();
    per_slot.iter().sum::<f64>() / per_slot.len() as f64
}

/// In-process round trips (decode, handle, encode; µs) of the replay's
/// `Query` lines.
fn in_process_queries(rep: &Replay, s: &Schedule) -> Vec<f64> {
    rep.read_us
        .iter()
        .zip(&s.reads)
        .filter(|(_, r)| !r.observe)
        .map(|(us, _)| us.0 + us.1 + us.2)
        .collect()
}

/// Median over `WINDOW_S` windows of due time of each window's median
/// `Query` latency (µs).
fn windowed_p50(open: &OpenLoop, lines: &Lines) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (&(due, _, recv), e) in open.times.iter().zip(&lines.expect) {
        if e.is_some() {
            let w = (due / 1e6 / WINDOW_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(recv - due);
        }
    }
    let p50s: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    median(&p50s)
}

/// Run the workload. `trace` selects the per-layer run.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon_bin: &Path,
    obs_check: &Path,
    dir: &Path,
) -> Result<Outcome, String> {
    let s = Schedule::new(seed, seconds);
    println!(
        "# serve-mixed schedule digest {:016x}: {} reads at {}/s, up to {} tunes at {SESSION_RATE_HZ}/s ({} fresh), pool {POOL}",
        s.digest(),
        s.reads.len(),
        s.read_rate_hz,
        s.tunes.len(),
        s.fresh_tunes()
    );
    let mut setup_s = Vec::new();
    let mut kept: Option<(Daemon, Selections, usize)> = None;
    for k in 0..if trace { 1 } else { SETUPS } {
        let started = Instant::now();
        let fresh = setup(daemon_bin, &dir.join(format!("daemon{k}")), &s)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((old, ..)) = kept.replace(fresh) {
            old.stop()?;
        }
    }
    let (daemon, selections, pool_unconverged) = kept.expect("at least one setup");
    let lines = render(&s, &selections);
    // The serving stack's own time per `Query`, measured in-process in
    // rounds spread over the run (before, between and after the socket
    // phases, and after the correctness replay) so a passing host
    // slowdown moves one round, not the run.
    // Capacity is measured in two halves, before and after the open
    // loop, for the same reason.
    let probe = replay_service(&s, &dir.join("probe"), Obs::disabled())?;
    let mut rounds = query_rounds(&probe, &s, &lines);
    let capacity_half = if trace { 0.0 } else { s.capacity_s / 2.0 };
    let (mut answered, mut wrong, mut rates) = capacity(&daemon, &lines, capacity_half)?;
    let open = open_loop(&daemon, &s, &lines)?;
    rounds.extend(query_rounds(&probe, &s, &lines));
    let (done, wrong_after, rates_after) = capacity(&daemon, &lines, capacity_half)?;
    answered += done;
    wrong += wrong_after;
    rates.extend(rates_after);
    let query_rps = median(&rates);
    rounds.extend(query_rounds(&probe, &s, &lines));
    let rss = daemon.stop()?;
    rounds.extend(query_rounds(&probe, &s, &lines));

    // Correctness: every read answered as setup predicted, pool
    // signatures' tunes served from cache, fresh ones trained, and the
    // in-process replay of the same schedule gives the same answers.
    // A trained tune that did not converge counts as failed, but its
    // rule file is still exact (it measured every candidate), so it
    // does not make the run incorrect.
    let read_failed = s.reads.len()
        - open
            .answers
            .iter()
            .zip(&lines.expect)
            .filter(|(a, e)| read_ok(e.as_deref(), a))
            .count();
    let answers: Vec<(TuneAnswer, bool)> = open
        .tunes
        .iter()
        .zip(&s.tunes)
        .map(|((.., a), &slot)| (tune_answer(a), slot < POOL))
        .collect();
    let tune_failed = answers
        .iter()
        .filter(|&&(a, pooled)| match a {
            TuneAnswer::Cached => !pooled,
            TuneAnswer::Converged | TuneAnswer::Unconverged => pooled,
            TuneAnswer::Failed => true,
        })
        .count();
    let unconverged = answers
        .iter()
        .filter(|&&(a, pooled)| !pooled && a == TuneAnswer::Unconverged)
        .count();
    let tune_sent: Vec<f64> = open.tunes.iter().map(|t| t.0).collect();
    let untraced = replay(&s, &lines, &tune_sent, &dir.join("replay"), Obs::disabled())?;
    rounds.extend(query_rounds(&probe, &s, &lines));
    probe.shutdown();
    let mismatch = mismatches(&open, &untraced);
    let mut o = Outcome {
        attempted: (POOL + s.reads.len() + open.tunes.len()) as u64 + answered,
        failed: (read_failed + tune_failed + pool_unconverged + unconverged) as u64 + wrong,
        ..Outcome::default()
    };
    o.correct = read_failed == 0 && tune_failed == 0 && wrong == 0 && mismatch == 0;
    println!(
        "# gates: {read_failed} failed reads, {tune_failed} failed tunes, {wrong} wrong capacity answers, {mismatch} answers differ from the in-process replay"
    );
    println!(
        "# gate fresh-tune-converged: {}: {pool_unconverged} of {POOL} pool pre-tunes and {unconverged} of {} fresh tunes trained without converging (counted in failed)",
        if pool_unconverged + unconverged == 0 { "pass" } else { "FAIL" },
        answers.iter().filter(|a| !a.1).count()
    );

    let query_us: Vec<f64> = open
        .times
        .iter()
        .zip(&lines.expect)
        .filter(|(_, e)| e.is_some())
        .map(|(&(due, _, recv), _)| recv - due)
        .collect();
    let tune_ms: Vec<f64> = open.tunes.iter().map(|t| t.1 / 1e3).collect();
    let split = |fresh: bool| -> Vec<f64> {
        open.tunes
            .iter()
            .zip(&s.tunes)
            .filter(|(_, &slot)| (slot >= POOL) == fresh)
            .map(|(t, _)| t.1 / 1e3)
            .collect()
    };
    // (iterations, fresh points) of every trained tune.
    let counts: Vec<(f64, f64)> = open
        .tunes
        .iter()
        .filter_map(|t| tuned_fields(&t.2))
        .filter(|f| !f.0)
        .map(|f| (f.2 as f64, f.3 as f64))
        .collect();
    println!("# {}", stats::describe("query_us", "us", &query_us));
    println!("# {}", stats::describe("tune_ms", "ms", &tune_ms));
    println!(
        "# {}",
        stats::describe("tune_ms.cached", "ms", &split(false))
    );
    println!("# {}", stats::describe("tune_ms.fresh", "ms", &split(true)));
    println!(
        "# tunes_per_min = {:.1} (tune answers per minute the write connection waited)",
        tune_ms.len() as f64 * 60e3 / tune_ms.iter().sum::<f64>()
    );

    if trace {
        // The same schedule in-process with telemetry on; the untraced
        // replay above is the baseline for the tracing overhead and for
        // the transport's share of socket latency.
        let obs = Obs::enabled();
        let traced = replay(
            &s,
            &lines,
            &tune_sent,
            &dir.join("replay-traced"),
            obs.clone(),
        )?;
        let snapshot = trace::write_and_check(&obs, dir, obs_check)?;
        let reads = |rep: &Replay, observe: bool, pick: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
            rep.read_us
                .iter()
                .zip(&s.reads)
                .filter(|(_, r)| r.observe == observe)
                .map(|(us, _)| pick(us))
                .collect()
        };
        let in_process = median(&in_process_queries(&untraced, &s));
        let mut m = crate::tune::layer_metrics(&snapshot, &counts, 0.0);
        let all = |pick: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> {
            traced.read_us.iter().map(pick).collect()
        };
        m.put("serve.protocol.decode_us.p50", median(&all(|u| u.0)), "us");
        m.put("serve.protocol.encode_us.p50", median(&all(|u| u.2)), "us");
        m.put(
            "serve.query_us.p50",
            median(&reads(&traced, false, |u| u.1)),
            "us",
        );
        m.put(
            "serve.observe_us.p50",
            median(&reads(&traced, true, |u| u.1)),
            "us",
        );
        m.put(
            "serve.transport_us.p50",
            median(&query_us) - in_process,
            "us",
        );
        for (metric, hist) in [
            ("serve.queue_wait_ms", "serve.phase.queue_wait_us"),
            ("serve.probe_ms", "serve.phase.probe_us"),
            ("serve.collect_ms", "serve.phase.collect_us"),
            ("serve.refit_ms", "serve.phase.refit_us"),
            ("store.write_back_ms", "serve.phase.write_back_us"),
        ] {
            m.put(metric, trace::hist_mean(&snapshot, hist) / 1e3, "ms");
        }
        let requests = trace::counter(&snapshot, "serve.tune_requests");
        m.put(
            "serve.cache_served_ratio",
            trace::counter(&snapshot, "serve.cache_served") / requests.max(1.0),
            "ratio",
        );
        for name in [
            "serve.coalesced",
            "serve.attached",
            "store.entries_written",
            "store.exact_hits",
        ] {
            m.put(name, trace::counter(&snapshot, name), "count");
        }
        m.put(
            "obs.trace_overhead",
            median(&in_process_queries(&traced, &s)) / in_process,
            "ratio",
        );
        let late_ms: Vec<f64> = open
            .times
            .iter()
            .map(|&(due, sent, _)| (sent - due) / 1e3)
            .collect();
        m.put("cli.query_us.p50", windowed_p50(&open, &lines), "us");
        m.put("cli.query_us.p99", quantile(&query_us, 0.99), "us");
        m.put("cli.tune_ms.p50", median(&tune_ms), "ms");
        m.put("cli.tune_ms.p90", quantile(&tune_ms, 0.9), "ms");
        m.put("loadgen.late_ms.p99", quantile(&late_ms, 0.99), "ms");
        o.metrics = m;
        return Ok(o);
    }

    println!(
        "# query_us.p50 over the socket = {:.1} (median of half-second windows), query_rps = {query_rps:.1}, failed_share = {}",
        windowed_p50(&open, &lines),
        o.failed as f64 / o.attempted as f64
    );
    let m = &mut o.metrics;
    m.put("setup_s", median(&setup_s), "s");
    println!(
        "# in-process Query rounds (us, thread CPU): {:?}",
        rounds.iter().map(|r| format!("{r:.2}")).collect::<Vec<_>>()
    );
    m.put("request_ms.p50", median(&rounds) / 1e3, "ms");
    m.put("requests_per_s", query_rps, "1/s");
    m.put(
        "slowdown_p2.mean",
        served_slowdown(&s, &selections, &FeatureSpace::tiny().points()),
        "ratio",
    );
    m.put(
        "slowdown_nonp2.mean",
        served_slowdown(&s, &selections, &s.nonp2),
        "ratio",
    );
    m.put("peak_rss_mb", rss, "MB");
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
        let a = Schedule::new(7, 10.0);
        assert_eq!(a.digest(), Schedule::new(7, 10.0).digest());
        assert_ne!(a.digest(), Schedule::new(8, 10.0).digest());
        assert_ne!(a.digest(), Schedule::new(7, 12.0).digest());
    }

    #[test]
    fn schedule_follows_the_load_generator_shape() {
        let s = Schedule::new(3, 10.0);
        let shape = LoadGenConfig::default();
        assert_eq!(s.tunes.len(), (7.0 * SESSION_RATE_HZ) as usize);
        let fresh = s.fresh_tunes();
        assert_eq!(fresh, s.tunes.len() / FRESH_EVERY);
        assert_eq!(s.requests.len(), POOL + fresh);
        // Per session: `queries_per_session` queries, each followed by
        // an observe of the same signature and point.
        assert!(shape.observe);
        assert_eq!(s.reads.len(), s.tunes.len() * shape.queries_per_session * 2);
        for pair in s.reads.chunks(2) {
            assert!(!pair[0].observe && pair[1].observe);
            assert_eq!((pair[0].slot, pair[0].point), (pair[1].slot, pair[1].point));
        }
        // A session reads the signature it tuned, unless that one is
        // fresh; every read targets the pool.
        let per_session = s.reads.len() / s.tunes.len();
        for (session, &slot) in s.tunes.iter().enumerate() {
            let read = &s.reads[session * per_session];
            assert!(read.slot < POOL);
            if slot < POOL {
                assert_eq!(read.slot, slot);
            }
        }
    }
}

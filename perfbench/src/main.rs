//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload cold-tune|replay-tune|serve-mixed --seed N
//!           --seconds S --trace 0|1 --daemon PATH --obs-check PATH
//!           --run-dir DIR
//! ```
//!
//! Runs one workload on inputs generated from `--seed`, checks the
//! outputs, and prints as its last stdout line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! separate traced run (`--trace 1`). Lines starting with `#` before it
//! report the input digest, sample counts and gate results. Use
//! `run.py`, which builds the binaries this needs.

mod serve;
mod stats;
mod trace;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    obs_check: PathBuf,
    run_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut get = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        get.insert(key, value);
    }
    let take = |k: &str| get.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<f64, String> { take(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    Ok(Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        daemon: take("daemon")?.into(),
        obs_check: take("obs-check")?.into(),
        run_dir: take("run-dir")?.into(),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: creating {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "cold-tune" | "replay-tune" => tune::run(
            args.seed,
            args.seconds,
            if args.workload == "cold-tune" {
                tune::Mode::Cold
            } else {
                tune::Mode::Replay
            },
            args.trace,
            &args.obs_check,
            &args.run_dir,
        ),
        "serve-mixed" => serve::run(
            args.seed,
            args.seconds,
            args.trace,
            &args.daemon,
            &args.obs_check,
            &args.run_dir,
        ),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

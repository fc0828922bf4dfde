//! Traced-run plumbing: per-span self times, counters, and writing the
//! span log out at exit for `obs-check` to validate.

use acclaim_obs::{Obs, Timeline, TraceSnapshot};
use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

/// Self time of every host span, keyed by `cat/name`, in ms: each
/// span's duration minus the part of its interval its children cover.
pub fn self_ms(snapshot: &TraceSnapshot) -> HashMap<String, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in &snapshot.spans {
        if let (Some(parent), Timeline::Host) = (s.parent, s.timeline) {
            children
                .entry(parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut out: HashMap<String, f64> = HashMap::new();
    for s in snapshot
        .spans
        .iter()
        .filter(|s| s.timeline == Timeline::Host)
    {
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |kids| covered_us(kids, s.start_us, s.end_us));
        *out.entry(format!("{}/{}", s.cat, s.name)).or_default() +=
            (s.duration_us() - covered).max(0.0) / 1e3;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut reach) = (0.0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Sum of the self times of the named spans (`cat/name`).
pub fn sum_self(self_ms: &HashMap<String, f64>, names: &[&str]) -> f64 {
    names.iter().filter_map(|n| self_ms.get(*n)).sum::<f64>() + 0.0
}

/// A counter's value in the snapshot (0 when never bumped).
pub fn counter(snapshot: &TraceSnapshot, name: &str) -> f64 {
    snapshot
        .metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// Mean of a histogram in the snapshot (0 when empty).
pub fn hist_mean(snapshot: &TraceSnapshot, name: &str) -> f64 {
    snapshot
        .metrics
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| if h.count == 0 { 0.0 } else { h.mean() })
}

/// `num / (num + other)`, 0 when both are 0.
pub fn share(num: f64, other: f64) -> f64 {
    if num + other > 0.0 {
        num / (num + other)
    } else {
        0.0
    }
}

/// Write the recorder's spans and metrics as JSONL under `dir` and
/// validate the file with the `obs-check` binary. Returns an error
/// message when the file cannot be written or does not validate.
pub fn write_and_check(obs: &Obs, dir: &Path, obs_check: &Path) -> Result<TraceSnapshot, String> {
    let snapshot = obs.snapshot();
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, acclaim_obs::export::to_jsonl(&snapshot))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let out = Command::new(obs_check)
        .arg(&path)
        .output()
        .map_err(|e| format!("running {}: {e}", obs_check.display()))?;
    if !out.status.success() {
        return Err(format!(
            "obs-check rejected the trace: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    println!(
        "# trace: {} spans written to {}, obs-check: {}",
        snapshot.spans.len(),
        path.display(),
        String::from_utf8_lossy(&out.stdout).trim()
    );
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acclaim_obs::ManualClock;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let clock = ManualClock::new();
        let obs = Obs::with_clock(Box::new(clock.clone()));
        {
            let _outer = obs.span("learner", "collect");
            clock.advance_us(1_000.0);
            {
                let _inner = obs.span("netsim", "microbench");
                clock.advance_us(3_000.0);
            }
            clock.advance_us(2_000.0);
        }
        let s = self_ms(&obs.snapshot());
        assert!((s["learner/collect"] - 3.0).abs() < 1e-9);
        assert!((s["netsim/microbench"] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut v = vec![(0.0, 5.0), (3.0, 8.0), (20.0, 30.0)];
        assert_eq!(covered_us(&mut v, 0.0, 25.0), 13.0);
    }
}

//! Order statistics, input digests and the result line.

use std::fmt::Write;

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
/// Empty samples read as 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, as a fraction (0.5 when none does).
pub fn highest_supported_percentile(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// One-line description of a timing sample: count, median and the
/// highest percentile the count supports.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let p = highest_supported_percentile(values.len());
    let tail = if p > 0.5 {
        format!(" p{}={:.4}", p * 100.0, quantile(values, p))
    } else {
        String::new()
    };
    format!(
        "{name}: n={} p50={:.4}{tail} {unit}",
        values.len(),
        median(values)
    )
}

/// FNV-1a digest over the generated inputs, so two runs can be shown
/// to measure the same thing.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Everything the last stdout line reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                m,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                serde_json::to_string(name).expect("string serializes"),
                serde_json::to_string(&value).expect("finite float serializes"),
                serde_json::to_string(unit).expect("string serializes"),
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set size (VmHWM) of a process, in MB. `pid` of `None`
/// reads the current process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, over all its threads (exited
/// ones included), in seconds. Time the hypervisor steals from the
/// guest is not charged to it, so it stays steady where wall time does
/// not.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3) // CLOCK_THREAD_CPUTIME_ID
}

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // 64-bit Linux) through the valid pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    if rc == 0 {
        t.sec as f64 + t.nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Reset this process's VmHWM to its current resident set size, so
/// `peak_rss_mb(None)` afterwards covers only what runs from here on.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(before > 0.0 && x > 0);
        assert!(thread_cpu_s() > 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(20_000), 0.999);
    }

    #[test]
    fn result_line_is_valid_json() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Metrics::default(),
        };
        o.metrics.put("setup_s", 1.25, "s");
        o.metrics.put("ok_share", 1.0, "ratio");
        let v: serde_json::Value = serde_json::from_str(&o.to_json()).unwrap();
        let metric = |name: &str, field: &str| v.get("metrics")?.get(name)?.get(field).cloned();
        assert_eq!(
            metric("setup_s", "value").and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            metric("ok_share", "unit").and_then(|x| x.as_str().map(String::from)),
            Some("ratio".into())
        );
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
    }
}

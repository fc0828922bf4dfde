//! Observability wiring shared by the subcommands: `--trace-out PATH`,
//! `--metrics-out PATH`, and `--trace-format jsonl|chrome`.
//!
//! Recording is opt-in: spans are kept (wall clock) only when
//! `--trace-out` is given; `--metrics-out` alone gets a metrics-only
//! recorder whose span calls are no-ops; with neither, untraced runs
//! keep the disabled-handle fast path everywhere.

use crate::args::Args;
use acclaim_obs::{export, Obs, TraceSnapshot};

/// Parsed trace/metrics output options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceOutputs {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    chrome: bool,
}

impl TraceOutputs {
    /// Parse the shared tracing options and build the recorder for the
    /// command: span-recording iff `--trace-out` was given, metrics-only
    /// for `--metrics-out` alone, disabled otherwise.
    pub fn from_args(args: &Args) -> Result<(Obs, TraceOutputs), String> {
        let trace_out = args.get("trace-out").map(str::to_string);
        let metrics_out = args.get("metrics-out").map(str::to_string);
        let chrome = match args.get_or("trace-format", "jsonl") {
            "jsonl" => false,
            "chrome" => true,
            other => {
                return Err(format!(
                    "unknown --trace-format '{other}' (jsonl | chrome)"
                ))
            }
        };
        let obs = if trace_out.is_some() {
            Obs::enabled()
        } else if metrics_out.is_some() {
            Obs::metrics_only()
        } else {
            Obs::disabled()
        };
        Ok((
            obs,
            TraceOutputs {
                trace_out,
                metrics_out,
                chrome,
            },
        ))
    }

    /// Write the requested files from a snapshot of `obs` and return
    /// one report line per file. Call after every span has closed.
    pub fn write(&self, obs: &Obs) -> Result<Vec<String>, String> {
        let mut written = Vec::new();
        if self.trace_out.is_none() && self.metrics_out.is_none() {
            return Ok(written);
        }
        let snap = obs.snapshot();
        if let Some(path) = &self.trace_out {
            let (body, format) = if self.chrome {
                (export::to_chrome(&snap), "chrome")
            } else {
                (export::to_jsonl(&snap), "jsonl")
            };
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
            written.push(format!("trace ({format}) written to {path}"));
        }
        if let Some(path) = &self.metrics_out {
            // Metrics-only JSONL: same schema, no span lines.
            let metrics_only = TraceSnapshot {
                clock: snap.clock,
                spans: Vec::new(),
                metrics: snap.metrics.clone(),
            };
            std::fs::write(path, export::to_jsonl(&metrics_only))
                .map_err(|e| format!("writing {path}: {e}"))?;
            written.push(format!("metrics written to {path}"));
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn no_output_options_mean_a_disabled_recorder() {
        let (obs, outs) = TraceOutputs::from_args(&args(&["tune"])).unwrap();
        assert!(!obs.is_enabled());
        assert_eq!(outs.write(&obs).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn trace_out_enables_recording_and_writes_valid_jsonl() {
        let path = std::env::temp_dir().join("acclaim-cli-trace-test.jsonl");
        let a = args(&["tune", "--trace-out", path.to_str().unwrap()]);
        let (obs, outs) = TraceOutputs::from_args(&a).unwrap();
        assert!(obs.records_spans());
        {
            let _span = obs.span("cli", "test");
        }
        let lines = outs.write(&obs).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("jsonl"));
        let text = std::fs::read_to_string(&path).unwrap();
        acclaim_obs::schema::validate_trace(&text).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_trace_format_is_rejected() {
        let e = TraceOutputs::from_args(&args(&["tune", "--trace-format", "svg"])).unwrap_err();
        assert!(e.contains("svg"));
    }

    #[test]
    fn metrics_out_writes_metrics_without_spans() {
        let path = std::env::temp_dir().join("acclaim-cli-metrics-test.jsonl");
        let a = args(&["tune", "--metrics-out", path.to_str().unwrap()]);
        let (obs, outs) = TraceOutputs::from_args(&a).unwrap();
        assert!(obs.is_enabled() && !obs.records_spans());
        obs.incr_counter("cli.test", 3);
        {
            let _span = obs.span("cli", "not-in-metrics");
        }
        outs.write(&obs).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        acclaim_obs::schema::validate_trace(&text).unwrap();
        assert!(text.contains("cli.test"));
        assert!(!text.contains("not-in-metrics"));
        std::fs::remove_file(&path).ok();
    }
}

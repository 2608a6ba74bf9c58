//! What one run prints: provenance, every metric by name with its unit,
//! the correctness checks, and — as the last line of standard output — the
//! one JSON object the benchmark driver reads.

use std::process::Command;

use dynamast::common::metrics::json_escape;

use crate::checks::Check;
use crate::metrics::Metric;
use crate::run::Phases;
use crate::scenario::{Scenario, CHECKPOINT_EVERY, CLIENTS, NUM_SITES, RPC_WORKERS};

/// Where, on what, and with which settings a run was taken.
pub struct Provenance {
    fields: Vec<(&'static str, String)>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory (the
/// driver's checkout is not a repository; then this is "unknown").
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

impl Provenance {
    /// Collects host facts, toolchain, seed and the full echoed
    /// configuration.
    pub fn collect(
        traced: bool,
        seed: u64,
        scenario: &Scenario,
        phases: Phases,
        setups: usize,
    ) -> Provenance {
        let cpus = std::thread::available_parallelism().map_or(0, usize::from);
        let fields = vec![
            ("workload", scenario.name.to_string()),
            ("seed", seed.to_string()),
            ("traced", traced.to_string()),
            ("host.cpus", cpus.to_string()),
            ("host.undersized", (cpus < CLIENTS).to_string()),
            ("host.os", std::env::consts::OS.to_string()),
            ("host.arch", std::env::consts::ARCH.to_string()),
            ("git.commit", git_commit()),
            ("rustc", command_line("rustc", &["-V"])),
            ("clients", format!("{CLIENTS} closed-loop")),
            ("sites", NUM_SITES.to_string()),
            ("rpc_workers_per_site", RPC_WORKERS.to_string()),
            ("setups_timed", setups.to_string()),
            ("warmup_s", phases.warmup.as_secs_f64().to_string()),
            (
                "reference_s",
                format!(
                    "{} before and after the measured window",
                    phases.reference.as_secs_f64()
                ),
            ),
            ("measure_s", phases.measure.as_secs_f64().to_string()),
            (
                "checkpoint_every_s",
                if scenario.durable() {
                    CHECKPOINT_EVERY.as_secs_f64().to_string()
                } else {
                    "none".into()
                },
            ),
            ("workload_config", scenario.workload_config.clone()),
            ("system_config", format!("{:?}", scenario.system)),
        ];
        Provenance { fields }
    }

    /// The provenance as one JSON object of strings.
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect();
        format!("{{{}}}", members.join(","))
    }
}

/// Everything one run reports.
pub struct RunReport {
    pub provenance: Provenance,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub failed_whole_run: usize,
    pub update_samples: usize,
    pub read_samples: usize,
    pub slices: Vec<u64>,
    pub setup_secs: Vec<f64>,
    pub rows_loaded: u64,
    pub window_secs: f64,
    pub committed_updates: u64,
    pub remaster_ops: u64,
    /// Measured over the same windows and printed, but not part of the
    /// result line: `(per-layer metric name, value in us)`.
    pub ungated: Vec<(&'static str, f64)>,
}

/// A metric read back from a result line: `(name, value, unit)`.
pub type ParsedMetric = (String, f64, String);

/// Parses a result line back into `(correct, metrics)`; the inverse of
/// [`RunReport::result_json`], used by `--repeat`.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<ParsedMetric>)> {
    let correct = line.contains("\"correct\":true");
    let mut rest = line.split_once("\"metrics\":{")?.1;
    let mut metrics = Vec::new();
    while let Some(after_quote) = rest.strip_prefix('"') {
        let (name, tail) = after_quote.split_once("\":{\"value\":")?;
        let (value, tail) = tail.split_once(",\"unit\":\"")?;
        let (unit, tail) = tail.split_once("\"}")?;
        metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
        rest = tail.strip_prefix(',').unwrap_or(tail);
    }
    Some((correct, metrics))
}

/// JSON number for a measured value: all its digits, and never NaN or
/// infinity (neither is JSON).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

impl RunReport {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The driver's result line.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Prints the human-readable report, then the result line.
    pub fn print(&self) {
        println!("== provenance");
        for (key, value) in &self.provenance.fields {
            println!("{key:<22} {value}");
        }
        println!("== run");
        println!("rows loaded per replica   {}", self.rows_loaded);
        println!(
            "set-up times (s)          {}",
            self.setup_secs
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!("measured window (s)       {:.4}", self.window_secs);
        println!(
            "attempted / failed        {} / {} ({} failed over the whole run, warm-up included)",
            self.attempted, self.failed, self.failed_whole_run
        );
        println!(
            "latency samples           {} update, {} read",
            self.update_samples, self.read_samples
        );
        println!("committed per 1 s slice   {:?}", self.slices);
        println!(
            "site-side in window       {} committed updates, {} remaster ops",
            self.committed_updates, self.remaster_ops
        );
        for (name, value) in &self.ungated {
            println!("{name:<25} {value:.4} us (not gated)");
        }
        println!("== metrics");
        for m in &self.metrics {
            println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("== checks");
        for check in &self.checks {
            println!(
                "{} {:<34} {}",
                if check.ok { "ok    " } else { "FAILED" },
                check.name,
                check.detail
            );
        }
        println!("{}", self.result_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let report = RunReport {
            provenance: Provenance { fields: Vec::new() },
            metrics: vec![
                Metric {
                    name: "throughput_tps",
                    value: 5714.5,
                    unit: "1/s",
                },
                Metric {
                    name: "setup_s",
                    value: 0.197909066,
                    unit: "s",
                },
            ],
            checks: Vec::new(),
            attempted: 10,
            failed: 0,
            failed_whole_run: 0,
            update_samples: 0,
            read_samples: 0,
            slices: Vec::new(),
            setup_secs: Vec::new(),
            rows_loaded: 0,
            window_secs: 0.0,
            committed_updates: 0,
            remaster_ops: 0,
            ungated: Vec::new(),
        };
        let line = report.result_json();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        let (correct, metrics) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!(
            metrics,
            vec![
                ("throughput_tps".to_string(), 5714.5, "1/s".to_string()),
                ("setup_s".to_string(), 0.197909066, "s".to_string())
            ]
        );
        assert_eq!(json_number(f64::NAN), "0");
    }
}

//! The repository's benchmark: one adaptive DynaMast deployment, four
//! workloads, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced one. See README.md beside this crate and `BENCHMARK.json`
//! at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload ycsb_write --seed 1 [--seconds 15] [--trace 1]
//! ```

mod checks;
mod metrics;
mod probes;
mod report;
mod run;
mod scenario;
mod stats;
mod tracing;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamast::common::codec::Encode;
use dynamast::core::dynamast::DynaMastSystem;
use dynamast::replication::record::LogRecord;
use dynamast::site::system::{ReplicatedSystem, SystemStats};

use checks::{check_live, check_recovered, quiesce, site_digests, Check, ClientTotals};
use metrics::{Metric, TracedInputs, WindowSamples, END_TO_END, UNGATED};
use report::{Provenance, RunReport};
use run::{deploy, drive, Phases};
use scenario::{Scenario, WORKLOADS};

/// Command-line options.
#[derive(Clone, Debug)]
struct Options {
    workload: String,
    seed: u64,
    /// Measured window.
    seconds: f64,
    /// Traced variant (per-layer metrics) or untraced (end-to-end metrics).
    trace: bool,
    /// Short windows and a single set-up: checks that everything runs and
    /// reports, not how fast.
    smoke: bool,
    /// Run the workload this many times and summarise the spread.
    repeat: usize,
}

/// Warm-up before the first window: DynaMast places its initially unplaced
/// partitions here.
const WARMUP_SECS: f64 = 2.0;
/// Warm-up and measured window of a `--smoke` run.
const SMOKE_SECS: (f64, f64) = (1.0, 2.0);
/// Set-ups an untraced run times; `setup_s` is their median. The last one
/// is the deployment the run measures, the others are torn down at once.
const SETUPS: usize = 5;
/// Traced runs: length of each of the two untraced reference windows, one
/// before and one after the traced window on the same deployment.
const REFERENCE_SECS: f64 = 3.0;

const USAGE: &str =
    "usage: benchmark --workload <ycsb_write|ycsb_scan|smallbank_remaster|tpcc_durable> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--repeat <n>] [--smoke]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{arg} needs a value"))?;
        let bad = || format!("{arg}: bad value {value}");
        match arg.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--repeat" => opts.repeat = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        return Err(format!("unknown or missing --workload {:?}", opts.workload));
    }
    if !(opts.seconds >= 1.0 && opts.repeat >= 1) {
        return Err("--seconds and --repeat must be at least 1".into());
    }
    if opts.smoke {
        opts.seconds = SMOKE_SECS.1;
    }
    Ok(opts)
}

/// Where the benchmark writes (durable log, span files): under cargo's
/// target directory, which the repository ignores.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Encoded bytes, user payload bytes and count of the commit records each
/// site appended between two log-length snapshots. Records a checkpoint
/// already truncated away are skipped; all three sums cover the same
/// records, so their ratios are unaffected.
fn log_window_bytes(system: &DynaMastSystem, from: &[u64], to: &[u64]) -> (u64, u64, u64) {
    let (mut log_bytes, mut user_bytes, mut commits) = (0u64, 0u64, 0u64);
    for ((log, &from), &to) in system.logs().logs().iter().zip(from).zip(to) {
        let start = from.max(log.base());
        let Ok((records, _)) = log.read_from(start) else {
            continue;
        };
        for record in records.iter().take(to.saturating_sub(start) as usize) {
            if let LogRecord::Commit { writes, .. } = record {
                log_bytes += record.encoded_len() as u64;
                user_bytes += writes
                    .iter()
                    .map(|w| w.row.payload_size() as u64)
                    .sum::<u64>();
                commits += 1;
            }
        }
    }
    (log_bytes, user_bytes, commits)
}

/// Shuts the live deployment down and restarts it from disk alone, timing
/// `DynaMastSystem::recover`; returns the recovered system's digests.
fn recover(scenario: &Scenario, live: Arc<DynaMastSystem>) -> (f64, Vec<checks::SiteDigest>) {
    live.shutdown();
    drop(live);
    let t0 = Instant::now();
    let recovered =
        DynaMastSystem::recover(scenario.dynamast_config(), scenario.workload.executor())
            .expect("recover from the durable log");
    let secs = t0.elapsed().as_secs_f64();
    let digests = site_digests(&recovered);
    recovered.shutdown();
    (secs, digests)
}

/// What the measured deployment left behind besides the run itself.
struct Measured {
    run: run::RunOutput,
    setup_secs: f64,
    visible_user_bytes: u64,
    rows_loaded: u64,
    checks: Vec<Check>,
    end_stats: SystemStats,
    versions: u64,
    records: u64,
    log_bytes: u64,
    log_user_bytes: u64,
    log_commits: u64,
    metrics_json: String,
    disk_bytes: u64,
    recover_secs: f64,
}

/// Sets up a fresh deployment, drives it through the run's phases and
/// checks what it left behind; the durable scenario is then restarted from
/// disk alone and compared with the live system.
fn measure(scenario: &Scenario, seed: u64, phases: Phases) -> Measured {
    let deployment = deploy(scenario).expect("build and populate the deployment");
    let system = deployment.system;
    let run = drive(scenario, &system, seed, phases);

    let quiesced = quiesce(&system);
    let totals = ClientTotals {
        updates_ok: run.clients.iter().map(|c| c.updates_ok).sum(),
        deposited: run.clients.iter().map(|c| c.deposited).sum(),
    };
    let (mut checks, live_digests) = check_live(scenario, &system, quiesced, &totals);
    let end_stats = system.stats();
    let (versions, records) = system.sites().iter().fold((0u64, 0u64), |(v, r), s| {
        (
            v + s.store().version_count() as u64,
            r + s.store().record_count() as u64,
        )
    });
    let (log_bytes, log_user_bytes, log_commits) = if phases.traced {
        log_window_bytes(&system, &run.at_start.log_lens, &run.at_end.log_lens)
    } else {
        (0, 0, 0)
    };
    let metrics_json = system.metrics().snapshot_json();
    let disk_bytes = scenario.log_dir.as_deref().map_or(0, dir_bytes);
    let mut recover_secs = 0.0;
    if scenario.durable() {
        let (secs, recovered) = recover(scenario, system);
        recover_secs = secs;
        checks.push(check_recovered(&live_digests, &recovered));
    } else {
        system.shutdown();
    }
    Measured {
        run,
        setup_secs: deployment.setup.as_secs_f64(),
        visible_user_bytes: live_digests.iter().map(|d| d.payload_bytes).sum(),
        rows_loaded: deployment.rows_loaded,
        checks,
        end_stats,
        versions,
        records,
        log_bytes,
        log_user_bytes,
        log_commits,
        metrics_json,
        disk_bytes,
        recover_secs,
    }
}

/// One run of one workload: `SETUPS` timed set-ups (one when traced or
/// smoke), then warm-up and the measured window on the last of them, on
/// one deployment, so that a window of `--seconds` sees the deployment age
/// that long (checkpoints on `tpcc_durable` lengthen as its tables grow).
fn run_once(opts: &Options) -> RunReport {
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create benchmark output directory");
    let seed = opts.seed;
    let scenario = Scenario::named(&opts.workload, seed, &out).expect("workload validated");
    if opts.trace {
        // The traced run drains the recorder every 20 ms; rings large
        // enough not to wrap in between keep the joins complete. The
        // untraced run leaves the recorder at its production default.
        std::env::set_var("TRACE_RING", "16384");
    } else {
        std::env::remove_var("TRACE_RING");
    }
    let phases = Phases {
        warmup: Duration::from_secs_f64(if opts.smoke {
            SMOKE_SECS.0
        } else {
            WARMUP_SECS
        }),
        reference: Duration::from_secs_f64(if opts.trace {
            REFERENCE_SECS.min(opts.seconds)
        } else {
            0.0
        }),
        measure: Duration::from_secs_f64(opts.seconds),
        traced: opts.trace,
    };
    let extra_setups = if opts.trace || opts.smoke {
        0
    } else {
        SETUPS - 1
    };
    let mut setup_secs: Vec<f64> = (0..extra_setups)
        .map(|_| {
            let deployment = deploy(&scenario).expect("build and populate the deployment");
            deployment.system.shutdown();
            deployment.setup.as_secs_f64()
        })
        .collect();
    let mut measured = measure(&scenario, seed, phases);
    setup_secs.push(measured.setup_secs);

    let run = &measured.run;
    let window = WindowSamples::collect(&run.clients, run.at_start.at_us, run.at_end.at_us);
    let counters = run.at_start.delta_to(&run.at_end);
    let failed_whole_run = run
        .clients
        .iter()
        .flat_map(|c| &c.samples)
        .filter(|s| !s.ok)
        .count();
    let mut checks = std::mem::take(&mut measured.checks);
    checks.push(Check {
        name: "no_failed_transactions",
        ok: window.failed == 0,
        detail: format!(
            "{} of {} attempted transactions returned Err",
            window.failed, window.attempted
        ),
    });

    let provenance = Provenance::collect(opts.trace, seed, &scenario, phases, setup_secs.len());
    let metrics: Vec<Metric> = if opts.trace {
        let probes = probes::run(&scenario, seed, &out);
        let recorder = measured
            .run
            .recorder
            .take()
            .expect("traced run drains the recorder");
        let joins = tracing::join_recorder(recorder.events);
        let layer = metrics::per_layer(&TracedInputs {
            run: &measured.run,
            traced: &window,
            joins: &joins,
            recorder_wrapped: recorder.wrapped,
            probes: &probes,
            visible_user_bytes: measured.visible_user_bytes,
            resident_bytes: measured.end_stats.resident_bytes,
            versions: measured.versions,
            records: measured.records,
            masters_per_site: &measured.end_stats.masters_per_site,
            log_bytes: measured.log_bytes,
            log_user_bytes: measured.log_user_bytes,
            log_commits: measured.log_commits,
            recover_secs: measured.recover_secs,
            disk_bytes: measured.disk_bytes,
            peak_rss_mb: peak_rss_mb(),
        });
        let span_file = out.join(format!("trace-{}.json", scenario.name));
        let logs: Vec<&tracing::SpanLog> = measured.run.clients.iter().map(|c| &c.spans).collect();
        let extra = format!(
            "\"provenance\":{},\"metrics_registry\":{}",
            provenance.to_json(),
            measured.metrics_json.trim()
        );
        match tracing::write_span_file(&span_file, &logs, &extra) {
            Ok(()) => println!("spans written to {}", span_file.display()),
            Err(e) => checks.push(Check {
                name: "span_file_written",
                ok: false,
                detail: format!("{}: {e}", span_file.display()),
            }),
        }
        let coverage = layer
            .iter()
            .find(|m| m.name == "budget.coverage")
            .map_or(0.0, |m| m.value);
        checks.push(Check {
            name: "budget_coverage_within_5pct",
            ok: (0.95..=1.05).contains(&coverage),
            detail: format!("child spans cover {coverage:.4} of client.txn time"),
        });
        layer
    } else {
        metrics::end_to_end(&setup_secs, &window)
    };

    RunReport {
        provenance,
        metrics,
        checks,
        attempted: window.attempted,
        failed: window.failed,
        failed_whole_run,
        update_samples: window.update_ns.len(),
        read_samples: window.read_ns.len(),
        slices: window.slices.clone(),
        setup_secs,
        rows_loaded: measured.rows_loaded,
        window_secs: counters.secs,
        committed_updates: counters.committed_updates,
        remaster_ops: counters.remaster_ops,
        ungated: UNGATED
            .into_iter()
            .zip(window.ungated_latencies())
            .chain([(
                "process.cpu_us_per_txn",
                stats::ratio(counters.cpu_secs * 1e6, window.committed() as f64),
            )])
            .collect(),
    }
}

/// `--repeat N`: runs the workload N times, each in a fresh process as the
/// benchmark driver does, with seeds `seed, seed+1, …`, and prints each
/// metric's median, quartiles and spread (interquartile range over median)
/// against its bound.
fn repeat(opts: &Options) -> bool {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut all_ok = true;
    let mut by_metric: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..opts.repeat {
        let seed = opts.seed + i as u64;
        let output = std::process::Command::new(&exe)
            .args(["--workload", &opts.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(opts.smoke.then_some("--smoke"))
            .output()
            .expect("run the benchmark in a child process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().and_then(report::parse_result_line);
        let Some((correct, metrics)) = parsed else {
            println!(
                "run {}/{} seed {seed}: no result line (exit {:?})",
                i + 1,
                opts.repeat,
                output.status.code()
            );
            all_ok = false;
            continue;
        };
        all_ok &= correct && output.status.success();
        println!(
            "run {}/{} seed {seed}: correct={correct} {}",
            i + 1,
            opts.repeat,
            metrics
                .iter()
                .take(END_TO_END.len())
                .map(|(n, v, _)| format!("{n}={v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        if !correct {
            for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
                println!("  {line}");
            }
        }
        // The ungated lines an untraced run prints: `<name> <value> us (not gated)`.
        let ungated = stdout
            .lines()
            .filter(|l| l.ends_with("(not gated)"))
            .filter_map(|l| {
                let mut words = l.split_whitespace();
                let (name, value, unit) = (words.next()?, words.next()?, words.next()?);
                Some((name.to_string(), value.parse().ok()?, unit.to_string()))
            });
        let all: Vec<report::ParsedMetric> = metrics.into_iter().chain(ungated).collect();
        for (slot, (name, value, unit)) in all.into_iter().enumerate() {
            if by_metric.len() <= slot {
                by_metric.push((name, unit, Vec::new()));
            }
            by_metric[slot].2.push(value);
        }
    }
    println!(
        "\n{:<44} {:>6} {:>14} {:>14} {:>14} {:>8} {:>7} {:>13}",
        "metric", "unit", "q1", "median", "q3", "spread", "bound", "spread/bound"
    );
    for (name, unit, values) in &by_metric {
        let [q1, q2, q3] = stats::quartiles(values);
        let spread = stats::spread(values);
        let bound = END_TO_END
            .iter()
            .find(|m| m.0 == name.as_str())
            .map(|m| m.3);
        println!(
            "{name:<44} {unit:>6} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {:>7} {:>13}",
            bound.map_or("-".into(), |b| format!("{b:.2}")),
            bound.map_or("-".into(), |b| format!("{:.2}", spread / b)),
        );
    }
    all_ok
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.repeat > 1 {
        return if repeat(&opts) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let report = run_once(&opts);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

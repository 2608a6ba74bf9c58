//! Benchmark harness: drives closed-loop clients against a deployment and
//! reports the numbers each paper figure needs.
//!
//! Each figure builds the architectures it compares through
//! `dynamast_baselines::build`, the one factory from a `SystemKind` and a
//! workload to a populated deployment, with [`SITE_WORKERS`] workers per
//! site for every kind. Every figure of the paper's evaluation has a bench
//! target in `benches/` (see DESIGN.md's experiment index); each target
//! prints the same rows/series the paper reports. Scales are reduced — the
//! goal is the *shape* of each result (who wins, by roughly what factor,
//! where crossovers fall), not the authors' absolute testbed numbers.
//!
//! Environment knobs (all optional):
//!
//! * `DYNA_MEASURE_SECS` — measured window per configuration (default 3).
//! * `DYNA_WARMUP_SECS` — warmup per configuration (default 3).
//! * `DYNA_CLIENTS` — overrides the default client count where a bench does
//!   not sweep clients.

pub mod driver;
pub mod report;

pub use driver::{run, RunConfig, RunResult};
pub use report::{fmt_duration, fmt_throughput, print_header, print_row};

use std::time::Duration;

/// Measured-window length from `DYNA_MEASURE_SECS` (default 3 s).
pub fn measure_secs() -> Duration {
    env_secs("DYNA_MEASURE_SECS", 3.0)
}

/// Warmup length from `DYNA_WARMUP_SECS` (default 3 s; placement of an
/// unseeded DynaMast deployment happens here).
pub fn warmup_secs() -> Duration {
    env_secs("DYNA_WARMUP_SECS", 3.0)
}

/// Default client count from `DYNA_CLIENTS` (default 32).
pub fn default_clients() -> usize {
    std::env::var("DYNA_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

fn env_secs(name: &str, default: f64) -> Duration {
    let secs = std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default);
    Duration::from_secs_f64(secs.max(0.1))
}

/// RPC workers per data site: the site's simulated CPU capacity. The
/// paper's machines have 12 cores; this reproduction scales the whole
/// deployment down (fewer clients, smaller data, and — crucially — a
/// host-bound ceiling on total transaction rate), so sites get a small
/// pool whose saturation point sits *below* that ceiling. Service times
/// (SystemConfig::service_base) occupy these workers, which is what makes
/// a single-master site bottleneck while DynaMast spreads the same load
/// over every site's pool.
pub const SITE_WORKERS: usize = 4;

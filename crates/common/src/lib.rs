//! Shared foundation types for the DynaMast reproduction.
//!
//! This crate contains the vocabulary used by every other crate in the
//! workspace:
//!
//! * [`vv::VersionVector`] — the m-dimensional vectors the dynamic mastering
//!   protocol uses as site state (`svv`), transaction begin/commit timestamps
//!   (`tvv`), and client session state (`cvv`) (paper §III-A).
//! * [`ids`] — strongly typed identifiers for sites, clients, tables,
//!   partitions and records.
//! * [`value`] — cell values and rows stored by the in-memory engine.
//! * [`config`] — system-wide configuration, including the site-selector
//!   strategy weights of paper Eq. 8 / Appendix H.
//! * [`metrics`] — latency histograms and counters used by the benchmark
//!   harness to report the paper's figures, unified under the
//!   [`metrics::MetricsRegistry`].
//! * [`trace`] — the flight recorder: a bounded per-thread event ring that
//!   records every transaction's causal path through the system.
//! * [`audit`] — the invariant audit plane: streaming conservation and
//!   ownership checkers over the flight recorder, with black-box repro
//!   bundles on violation.
//! * [`hash`] — the multiply-and-fold hasher for maps keyed by [`ids`] types.
//! * [`dist`] — workload distributions (Zipfian, Bernoulli-neighbour) shared
//!   by the YCSB/TPC-C/SmallBank generators.
//! * [`codec`] — the byte codec for log records, checkpoints and RPC
//!   payloads, and [`wire!`], which declares each message type once.

pub mod audit;
pub mod codec;
pub mod config;
pub mod dist;
pub mod error;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod trace;
pub mod value;
pub mod vv;

pub use config::{DurabilityConfig, FsyncMode, RetryPolicy, StrategyWeights, SystemConfig};
pub use error::{DynaError, Result};
pub use ids::{ClientId, Key, PartitionId, RecordId, SiteId, TableId};
pub use metrics::MetricsRegistry;
pub use trace::{FlightRecorder, TraceEvent, TraceKind, TracePayload, TraceSite};
pub use value::{Row, Value};
pub use vv::VersionVector;

//! Durable logs and lazy update propagation (paper §V-A2, §V-C).
//!
//! The paper uses Apache Kafka with one topic per data site: a site's
//! replication manager serializes every committed transaction's updates (and
//! every grant/release operation) into its own log, and every other site
//! subscribes, applying the updates as *refresh transactions* in the order
//! allowed by the update application rule (Eq. 1). The same log doubles as a
//! persistent redo log for recovery.
//!
//! This crate substitutes Kafka with [`DurableLog`]: an append-only,
//! offset-addressed record log whose feeder wakes on every publish — exactly the two
//! properties the paper relies on (per-origin FIFO ordered delivery and
//! replayable persistence). Opened persistently, a log is backed by a
//! directory of CRC-checksummed [`segment`] files with group fsync riding
//! the group-commit publish; opened volatile, it is purely in-memory (the
//! bench configuration).
//!
//! * [`record::LogRecord`] — commit / release / grant / noop records.
//! * [`log::DurableLog`], [`log::LogSet`] — the logs themselves.
//! * [`segment`] — the on-disk segment format (framing, CRC, torn-tail
//!   truncation, retention).
//! * [`checkpoint`] — durable site checkpoints (svv cut + store image +
//!   per-origin offsets) bounding replay to a segment suffix.
//! * [`propagate::Propagator`] — a site's subscriptions to its peers' logs,
//!   served by one feeder thread per origin log that decodes each published
//!   run once and hands it to every subscriber's refresh applier.
//! * [`recovery`] — mastership-map reconstruction from grant/release
//!   records (replaying the logs' data is the site's refresh applier's job:
//!   `dynamast_site::pipeline::replay`).

pub mod checkpoint;
pub mod log;
pub mod propagate;
pub mod record;
pub mod recovery;
pub mod segment;

pub use checkpoint::Checkpoint;
pub use log::{DurableLog, LogSet};
pub use propagate::{Propagator, RefreshApplier, Wake};
pub use record::LogRecord;

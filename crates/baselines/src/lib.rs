//! The paper's comparator systems (§VI-A1), implemented inside the same
//! framework as DynaMast — same storage engine, same MVCC scheme, same
//! isolation level, same network substrate — so that performance differences
//! are attributable to the architectures alone:
//!
//! * [`mod@single_master`] — all writes at one site, lazily maintained read
//!   replicas everywhere (expressed as a pinned DynaMast deployment, exactly
//!   as the paper does: "we leveraged DynaMast's adaptability to design a
//!   single-master system").
//! * [`static_system`] — the statically partitioned systems:
//!   **multi-master** (lazy replication, 2PC for multi-site write sets,
//!   reads at any replica) and **partition-store** (no replication, 2PC,
//!   remote reads with straggler-bound multi-site scans).
//! * [`leap`] — LEAP: partitioned, unreplicated, single-site execution via
//!   *data shipping*: every transaction localizes the partitions it touches
//!   (reads included) to one site, moving the records themselves.
//!
//! [`build`] is the one way to get any of the five, DynaMast included, as a
//! populated [`Deployment`] of a [`SystemKind`] over a workload.

pub mod client_coord;
mod deployment;
pub mod leap;
pub mod single_master;
mod sites;
pub mod static_system;

pub use deployment::{build, Deployment, SystemKind};
pub use leap::LeapSystem;
pub use single_master::single_master;
pub use static_system::{StaticKind, StaticSystem};

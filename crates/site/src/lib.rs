//! Data sites (paper §V-A): site manager + database + replication manager.
//!
//! A [`DataSite`] integrates the three per-site components the paper
//! describes into one object, "avoiding concurrency control redundancy
//! between the site manager and the database system":
//!
//! * the **site manager** — version-vector maintenance ([`clock::SiteClock`]),
//!   session-freshness waits, and partition mastership and writer draining
//!   ([`ownership::Ownership`]);
//! * the **database system** — the MVCC row store from `dynamast-storage`,
//!   executing stored procedures ([`proc::ProcExecutor`]) against a snapshot
//!   or latest-read transaction context;
//! * the **replication manager** — appends commit (and release/grant)
//!   records to the site's durable log and applies peers' records as refresh
//!   transactions under the update application rule — live, and again at
//!   recovery ([`pipeline::replay`]), through one applier.
//!
//! The [`DataSite`] core is what every architecture runs: begin, execute,
//! commit, refresh apply, checkpoint and the RPC dispatch. What only some
//! architectures need lives in role modules that own their state, reached
//! through the site: [`remaster`] (release, grant, selector fence),
//! [`participant`] (2PC, remote reads, LEAP shipping) and [`hosting`]
//! (partial replication). Requests a site must answer once share one
//! bounded claim/settle table.
//!
//! The multi-master and partition-store baselines coordinate their 2PC at
//! the client (`dynamast-baselines`); a data site is only ever a 2PC
//! participant. The paper implements every comparator inside the same
//! framework, and so do we: the crate also provides the
//! [`system::ReplicatedSystem`] trait all five systems implement for the
//! benchmark harness.

mod claims;
pub mod clock;
pub mod data_site;
pub mod hosting;
pub mod messages;
pub mod ownership;
pub mod participant;
pub mod pipeline;
pub mod proc;
pub mod remaster;
pub mod system;

#[doc(hidden)]
pub mod tests_support;

pub use clock::SiteClock;
pub use data_site::{DataSite, DataSiteConfig};
pub use messages::{SiteRequest, SiteResponse};
pub use ownership::{Ownership, WriterGuard};
pub use pipeline::{apply_refresh_batch, apply_refresh_batch_with, CommitPipeline, CommitTicket};
pub use proc::{LocalCtx, ProcCall, ProcExecutor, ReadMode, ScanRange, TxnCtx};
pub use system::{ClientSession, ReplicatedSystem, SystemStats};

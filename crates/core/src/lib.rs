//! DynaMast: the dynamic mastering protocol and adaptive site selector —
//! the paper's primary contribution (§III–§V).
//!
//! * [`partition_map`] — the selector's partition-information table:
//!   per-partition master location guarded by a readers–writer lock
//!   (shared-mode for routing, exclusive-mode during remastering, §V-B).
//! * [`stats`] — workload statistics: per-partition write frequencies,
//!   intra-/inter-transaction co-access counts, and the expiring transaction
//!   history queue that adapts the model to workload change (§V-B).
//! * [`strategy`] — the remastering benefit model: write-load balance
//!   (Eqs. 2–4), refresh-delay estimation (Eq. 5), intra-/inter-transaction
//!   localization (Eqs. 6–7) combined by the weighted linear model (Eq. 8).
//! * [`selector`] — the site selector: write routing with remastering
//!   (Algorithm 1: parallel release/grant RPCs, element-wise-max begin
//!   vector) and freshness-aware randomized read routing (§IV-B).
//! * [`replica_map`] — the partition→replica-set table for partial
//!   replication: which sites hold a copy, maintained by the provisioning
//!   planner and consulted by read routing and remastering.
//! * [`dynamast`] — the assembled [`DynaMastSystem`]: data sites +
//!   replication + selector behind the
//!   [`dynamast_site::system::ReplicatedSystem`] client API.
//! * [`recovery`] — selector and site recovery from the durable logs (§V-C).

pub mod dynamast;
pub mod freshness;
pub mod partition_map;
pub mod recovery;
pub mod replica_map;
pub mod selector;
pub mod stats;
pub mod strategy;

pub use dynamast::{DynaMastConfig, DynaMastSystem};
pub use freshness::FreshnessCache;
pub use partition_map::PartitionMap;
pub use replica_map::ReplicaMap;
pub use selector::{RouteDecision, SelectorMode, SiteSelector};
pub use stats::AccessStats;
pub use strategy::{score_sites, CoAccess, ScoreInputs};

//! The single-master baseline (§VI-A1).
//!
//! "We leveraged DynaMast's adaptability to design a single-master system in
//! which all write transactions execute at a single (master) site while
//! lazily maintaining read-only replicas at other sites."
//!
//! Implementation: a [`DynaMastSystem`] whose selector is pinned to site 0.
//! Every partition is placed at site 0 on first touch and never moves, so
//! every update routes to the master while reads spread over the replicas —
//! which is "superior to using a centralized system" exactly as the paper
//! argues.

use std::sync::Arc;

use dynamast_common::ids::SiteId;
use dynamast_common::SystemConfig;
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_core::selector::SelectorMode;
use dynamast_site::proc::ProcExecutor;
use dynamast_storage::Catalog;

/// The site hosting every master copy.
pub const MASTER_SITE: SiteId = SiteId::new(0);

/// Builds a running single-master deployment with `rpc_workers` RPC
/// workers per site: the pool is the site's simulated capacity, so a
/// comparison gives every architecture the same pool size.
pub fn single_master(
    system: SystemConfig,
    catalog: Catalog,
    executor: Arc<dyn ProcExecutor>,
    rpc_workers: usize,
) -> Arc<DynaMastSystem> {
    let mut cfg = DynaMastConfig::adaptive(system, catalog);
    cfg.mode = SelectorMode::Pinned(Arc::new(|_| MASTER_SITE));
    cfg.rpc_workers = rpc_workers;
    DynaMastSystem::build_named("single-master", cfg, executor)
}

//! One way to build any of the five evaluated architectures over a workload
//! (§VI-A1: "all systems share the same site manager, storage engine, MVCC
//! scheme, and isolation level"), populated and running.

use std::sync::Arc;

use dynamast_common::{Result, SystemConfig};
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_network::Network;
use dynamast_site::system::ReplicatedSystem;
use dynamast_workloads::Workload;

use crate::leap::LeapSystem;
use crate::single_master::single_master;
use crate::static_system::{StaticKind, StaticSystem};

/// Which of the five architectures to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// The paper's contribution.
    DynaMast,
    /// All masters at one site; reads at replicas.
    SingleMaster,
    /// Static partitioning + lazy replication + 2PC.
    MultiMaster,
    /// Static partitioning, no replication, 2PC + remote reads.
    PartitionStore,
    /// Data-shipping localization, no replication.
    Leap,
}

impl SystemKind {
    /// The five, in the paper's presentation order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::DynaMast,
        SystemKind::SingleMaster,
        SystemKind::MultiMaster,
        SystemKind::PartitionStore,
        SystemKind::Leap,
    ];

    /// Report name, the built system's [`ReplicatedSystem::name`].
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::DynaMast => "dynamast",
            SystemKind::SingleMaster => "single-master",
            SystemKind::MultiMaster => "multi-master",
            SystemKind::PartitionStore => "partition-store",
            SystemKind::Leap => "leap",
        }
    }
}

/// A built, populated, running deployment.
pub struct Deployment {
    /// The client API.
    pub system: Arc<dyn ReplicatedSystem>,
    /// The deployment's fabric (traffic accounting).
    pub network: Arc<Network>,
}

/// Builds `kind` with `workers` RPC workers per site (the site's simulated
/// capacity, the same for every kind) and loads `workload`'s database into
/// it. DynaMast starts unplaced; the static systems and LEAP take the
/// workload's static partitioning.
pub fn build(
    kind: SystemKind,
    config: SystemConfig,
    workload: &dyn Workload,
    workers: usize,
) -> Result<Deployment> {
    let catalog = workload.catalog();
    let executor = workload.executor();
    let owner = workload.static_owner(config.num_sites);
    let (network, system): (_, Arc<dyn ReplicatedSystem>) = match kind {
        SystemKind::DynaMast | SystemKind::SingleMaster => {
            let system = if kind == SystemKind::DynaMast {
                let mut cfg = DynaMastConfig::adaptive(config, catalog);
                cfg.rpc_workers = workers;
                DynaMastSystem::build(cfg, executor)
            } else {
                single_master(config, catalog, executor, workers)
            };
            workload.populate(&mut |key, row| system.load_row(key, row))?;
            (Arc::clone(system.network()), system)
        }
        SystemKind::MultiMaster | SystemKind::PartitionStore => {
            let static_kind = if kind == SystemKind::MultiMaster {
                StaticKind::MultiMaster
            } else {
                StaticKind::PartitionStore
            };
            let system = StaticSystem::build(
                static_kind,
                config,
                catalog,
                owner,
                workload.static_tables(),
                executor,
                workers,
            );
            workload.populate(&mut |key, row| system.load_row(key, row))?;
            (Arc::clone(system.network()), system)
        }
        SystemKind::Leap => {
            let system = LeapSystem::build(
                config,
                catalog,
                owner,
                workload.static_tables(),
                executor,
                workers,
            );
            workload.populate(&mut |key, row| system.load_row(key, row))?;
            (Arc::clone(system.network()), system)
        }
    };
    Ok(Deployment { system, network })
}

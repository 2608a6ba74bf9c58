//! Replica provisioning for the site selector (partial replication, DESIGN
//! §15): copy install (create-then-grant, NotReplica repair), copy retire
//! (frozen-mode copy-follow, planner shrink) and the adaptive planner that
//! widens hot partitions and shrinks cold ones on the svv-probe cadence.

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_network::{EndpointId, TrafficCategory};
use dynamast_site::messages::{expect_ok, SiteRequest, SiteResponse};

use super::SiteSelector;

/// Replica-provisioning planner thresholds (partial replication only): a
/// partition hotter than `PROVISION_HOT_FACTOR ×` the mean partition load
/// gains one copy per pass (widening toward all sites); one colder than
/// `PROVISION_COLD_FACTOR ×` the mean sheds its most expensive copy
/// (shrinking toward the floor). At most `PROVISION_MAX_OPS` installs/drops
/// per pass bound the background data-shipping burst, and nothing moves until
/// `PROVISION_MIN_TOTAL` accesses have been attributed overall.
const PROVISION_HOT_FACTOR: f64 = 2.0;
const PROVISION_COLD_FACTOR: f64 = 0.5;
const PROVISION_MIN_TOTAL: f64 = 64.0;
const PROVISION_MAX_OPS: usize = 4;

impl SiteSelector {
    /// Guarantees `dest` holds a copy of `partition`, shipping one from an
    /// existing replica if the map says it is missing. No-op under full
    /// replication. This is the create-then-grant building block: Eq. 8 may
    /// choose a destination with no copy, in which case the copy is created
    /// first and the grant proceeds as usual.
    pub fn ensure_replica(&self, dest: SiteId, partition: PartitionId) -> Result<()> {
        if !self.replica_map.is_partial() || self.replica_map.hosts(partition, dest) {
            return Ok(());
        }
        self.install_replica(dest, partition)
    }

    /// Unconditionally (re-)ships a copy of `partition` to `dest`, even when
    /// the map already claims one exists. The NotReplica repair path: the
    /// site is authoritative about what it hosts, so a rejection from a site
    /// the map believes is a replica (e.g. after an unclean restart whose
    /// checkpoint predated the copy) is healed by installing again —
    /// idempotent at the site if the copy does exist.
    pub fn repair_replica(&self, dest: SiteId, partition: PartitionId) -> Result<()> {
        if !self.replica_map.is_partial() {
            return Ok(());
        }
        self.install_replica(dest, partition)
    }

    /// LEAP-style copy install: snapshot RPC against a serving replica, then
    /// an `AddReplica` RPC shipping the snapshot plus its cut svv to `dest`,
    /// which catches the partition up from its own logs and refresh buffer
    /// before marking it hosted. Serialized under the provisioning lock.
    ///
    /// When no reachable site actually serves the partition — every mapped
    /// replica answers NotReplica, which happens for partitions born after
    /// seeding (nobody ever loaded rows) — falls back to an empty snapshot at
    /// svv zero: the destination then replays the partition's entire history
    /// from its retained logs, which is complete because records are only
    /// truncated once every site (including `dest`) has consumed them.
    fn install_replica(&self, dest: SiteId, partition: PartitionId) -> Result<()> {
        let _serial = self.provision_lock.lock();
        let retry = self.network.config().retry;
        let snap_req = Bytes::from(encode_to_vec(&SiteRequest::ReplicaSnapshot { partition }));
        let mut snapshot: Option<(Vec<_>, VersionVector)> = None;
        let mut unreachable_source = false;
        for src in self.replica_map.replicas(partition) {
            if src == dest || !self.network.site_reachable(src.raw()) {
                unreachable_source |= src != dest;
                continue;
            }
            let reply = self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(src.raw()),
                TrafficCategory::DataShip,
                snap_req.clone(),
            );
            match reply.and_then(|r| match expect_ok(&r)? {
                SiteResponse::ReplicaSnapshotted { records, src_svv } => Ok((records, src_svv)),
                _ => Err(DynaError::Internal("unexpected replica snapshot response")),
            }) {
                Ok(cut) => {
                    snapshot = Some(cut);
                    break;
                }
                Err(DynaError::NotReplica { .. }) => continue,
                Err(_) => unreachable_source = true,
            }
        }
        let (records, src_svv) = match snapshot {
            Some(cut) => cut,
            // A copy may exist only on an unreachable site: do NOT fall back
            // to log replay (its rows could predate log truncation floors).
            None if unreachable_source => {
                return Err(DynaError::Network("no reachable replica to copy from"))
            }
            None => (Vec::new(), VersionVector::zero(self.config.num_sites)),
        };
        let add = SiteRequest::AddReplica {
            partition,
            records,
            src_svv,
            generation: self.generation,
        };
        let reply = self.network.rpc_with_retry(
            &retry,
            None,
            EndpointId::Site(dest.raw()),
            TrafficCategory::DataShip,
            Bytes::from(encode_to_vec(&add)),
        )?;
        match expect_ok(&reply)? {
            SiteResponse::ReplicaAdded { svv } => {
                self.observe_site_vv(dest, &svv);
                self.replica_map.add(partition, dest);
                self.replica_adds.inc();
                Ok(())
            }
            _ => Err(DynaError::Internal("unexpected add-replica response")),
        }
    }

    /// Drops `site`'s copy of `partition` (planner shrink). The map bit is
    /// cleared first — no new reads route there while the RPC is in flight —
    /// then the fenced `DropReplica` executes; a refusal (the site was just
    /// granted mastership, or is unreachable with its copy intact) restores
    /// the bit. Returns whether the copy was actually dropped.
    fn retire_replica(&self, site: SiteId, partition: PartitionId) -> bool {
        let _serial = self.provision_lock.lock();
        if self
            .map
            .entries_for_existing(partition)
            .and_then(|e| e.master_relaxed())
            == Some(site)
        {
            return false;
        }
        if !self.replica_map.remove(partition, site) {
            return false; // already at the replication floor
        }
        let req = SiteRequest::DropReplica {
            partition,
            generation: self.generation,
        };
        let reply = self.network.rpc_with_retry(
            &self.network.config().retry,
            None,
            EndpointId::Site(site.raw()),
            TrafficCategory::DataShip,
            Bytes::from(encode_to_vec(&req)),
        );
        match reply.and_then(|r| match expect_ok(&r)? {
            SiteResponse::ReplicaDropped { .. } => Ok(()),
            _ => Err(DynaError::Internal("unexpected drop-replica response")),
        }) {
            Ok(()) => {
                self.replica_drops.inc();
                true
            }
            Err(_) => {
                self.replica_map.add(partition, site);
                false
            }
        }
    }

    /// With frozen replica sets, a create-then-grant *moves* the copy rather
    /// than widening the set: once mastership has landed at the grantee, the
    /// releaser's copy is retired so the copy budget stays pinned at the
    /// floor deployment the operator asked for. Under adaptive provisioning
    /// this is a no-op — the planner owns shrink decisions and widening after
    /// a grant is exactly the Eq. 8 has-copy signal working as intended.
    /// `retire_replica` refuses masters and floor breaches, so a partition
    /// whose grantee already hosted a copy (count unchanged) is left alone.
    pub(super) fn retire_followed(&self, follow: &[(PartitionId, SiteId)]) {
        if follow.is_empty() || !self.replica_map.is_partial() || self.config.replica_provisioning {
            return;
        }
        let floor = self.replica_map.floor();
        for &(partition, old_master) in follow {
            // Converge the touched partition all the way back to its floor
            // set, not just by the one copy this grant added: a prior grant
            // whose retire was refused (or whose install was orphaned by a
            // failed grant) left surplus copies that would otherwise linger
            // forever in frozen mode. Old master first, then any other
            // non-master surplus; stop when a pass sheds nothing.
            let mut victims = vec![old_master];
            victims.extend(
                self.replica_map
                    .replicas(partition)
                    .into_iter()
                    .filter(|&s| s != old_master),
            );
            for victim in victims {
                if self.replica_map.replicas(partition).len() <= floor {
                    break;
                }
                self.retire_replica(victim, partition);
            }
        }
    }

    /// One pass of the adaptive replica-provisioning planner: re-uses the
    /// access tracker's per-partition load features (the same features Eq. 8
    /// consumes) to widen hot partitions toward all sites and shrink cold
    /// ones back toward the floor. Runs on the svv-probe cadence; public so
    /// tests and benches can force a pass deterministically. Returns the
    /// number of copy installs/drops performed.
    pub fn provision_now(&self) -> usize {
        if !self.replica_map.is_partial() || !self.config.replica_provisioning {
            return 0;
        }
        let m = self.config.num_sites;
        let mut partitions: Vec<PartitionId> =
            self.map.placements().into_iter().map(|(p, _)| p).collect();
        partitions.extend(self.replica_map.tracked().into_iter().map(|(p, _)| p));
        partitions.sort_unstable();
        partitions.dedup();
        if partitions.is_empty() {
            return 0;
        }
        let (snaps, site_load) = self.stats.snapshot(&partitions);
        let total: f64 = snaps.iter().map(|s| s.load).sum();
        if total < PROVISION_MIN_TOTAL {
            return 0;
        }
        let mean = total / partitions.len() as f64;
        let mut ops = 0usize;
        for (i, &p) in partitions.iter().enumerate() {
            if ops >= PROVISION_MAX_OPS {
                break;
            }
            let load = snaps[i].load;
            let replicas = self.replica_map.replicas(p);
            if load > PROVISION_HOT_FACTOR * mean && replicas.len() < m {
                // Widen: one copy per pass, at the least-loaded reachable
                // site that lacks one.
                let dest = (0..m)
                    .filter(|&s| {
                        !replicas.contains(&SiteId::new(s)) && self.network.site_reachable(s as u32)
                    })
                    .min_by(|&a, &b| site_load[a].total_cmp(&site_load[b]));
                if let Some(d) = dest {
                    if self.ensure_replica(SiteId::new(d), p).is_ok() {
                        ops += 1;
                    }
                }
            } else if load < PROVISION_COLD_FACTOR * mean
                && replicas.len() > self.replica_map.floor()
            {
                // Shrink: drop the copy on the most loaded site (the master
                // and the floor are refused inside `retire_replica`, so the
                // sort order just expresses preference).
                let mut victims = replicas;
                victims.sort_by(|a, b| site_load[b.as_usize()].total_cmp(&site_load[a.as_usize()]));
                if victims.into_iter().any(|v| self.retire_replica(v, p)) {
                    ops += 1;
                }
            }
        }
        ops
    }
}

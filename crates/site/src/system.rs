//! The `ReplicatedSystem` interface all five evaluated systems implement.
//!
//! The paper's evaluation drives DynaMast, single-master, multi-master,
//! partition-store, and LEAP through the same client API; this trait is that
//! API. Clients are sessions carrying a `cvv` (strong-session snapshot
//! isolation, §III-A); every call returns the procedure result plus a
//! latency [`Breakdown`] matching the paper's Figure 7 categories.

use std::time::{Duration, Instant};

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{ClientId, SiteId};
use dynamast_common::{Result, VersionVector};
use dynamast_network::{EndpointId, Network, TrafficCategory};

use crate::messages::{expect_ok, ExecTimings, SiteRequest, SiteResponse};
use crate::proc::{ProcCall, ReadMode};

/// A client session: identity, SSSI session vector, and the site that
/// answered it last.
#[derive(Clone, Debug)]
pub struct ClientSession {
    /// Client identity.
    pub id: ClientId,
    /// Session version vector (`cvv`): the freshest state this client has
    /// observed; transactions must execute on state at least this fresh.
    pub cvv: VersionVector,
    /// The site whose successful reply last advanced `cvv`, set by
    /// [`exec_update_at`] and [`exec_read_at`]. Its svv covers `cvv` — a
    /// read's reply carries its begin svv, an update's its commit vector,
    /// which the site publishes with the commit's log fill — so the client
    /// names it on its next routing request and the selector can route a
    /// read to a site that needs no freshness wait (§IV-B).
    pub last_site: Option<SiteId>,
}

impl ClientSession {
    /// Creates a fresh session in an `m`-site system.
    pub fn new(id: ClientId, num_sites: usize) -> Self {
        ClientSession {
            id,
            cvv: VersionVector::zero(num_sites),
            last_site: None,
        }
    }

    /// Merges an observed site state into the session vector ("after the
    /// client accesses the site, it updates its version vector", §III-A).
    /// Forgets `last_site`, whose svv need not cover the merged vector.
    pub fn observe(&mut self, vv: &VersionVector) {
        self.cvv.merge_max(vv);
        self.last_site = None;
    }
}

/// Per-transaction latency breakdown (paper Fig. 7 categories).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Site-selector partition lock + master-location lookup.
    pub lookup: Duration,
    /// Routing decision including remastering.
    pub routing: Duration,
    /// Network transit (total minus all measured components).
    pub network: Duration,
    /// Stored-procedure execution.
    pub execution: Duration,
    /// Begin: write-set lock acquisition + session-freshness wait.
    pub begin: Duration,
    /// Commit processing.
    pub commit: Duration,
}

impl Breakdown {
    /// Builds a breakdown from selector-side times, site-side
    /// [`ExecTimings`], and the client-observed total.
    pub fn from_parts(
        lookup: Duration,
        routing: Duration,
        timings: ExecTimings,
        total: Duration,
    ) -> Self {
        let execution = Duration::from_micros(u64::from(timings.exec_us));
        let begin = Duration::from_micros(u64::from(timings.begin_us));
        let commit = Duration::from_micros(u64::from(timings.commit_us));
        let accounted = lookup + routing + execution + begin + commit;
        Breakdown {
            lookup,
            routing,
            network: total.saturating_sub(accounted),
            execution,
            begin,
            commit,
        }
    }

    /// Total across all categories.
    pub fn total(&self) -> Duration {
        self.lookup + self.routing + self.network + self.execution + self.begin + self.commit
    }
}

/// Result of one transaction.
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    /// Procedure result payload.
    pub result: Bytes,
    /// Latency breakdown.
    pub breakdown: Breakdown,
}

/// Point-in-time system statistics for reports.
#[derive(Clone, Debug, Default)]
pub struct SystemStats {
    /// Committed update transactions.
    pub committed_updates: u64,
    /// Transaction aborts (2PC no-votes and exhausted retries).
    pub aborts: u64,
    /// Remastering operations performed (transactions that required any).
    pub remaster_ops: u64,
    /// Individual partitions whose mastership moved.
    pub partitions_moved: u64,
    /// Partitions mastered per site right now.
    pub masters_per_site: Vec<u64>,
    /// Update transactions routed per site (write-routing distribution,
    /// Fig. 5a).
    pub updates_routed_per_site: Vec<u64>,
    /// Retained version payload bytes summed across every site's store —
    /// the replication footprint: full replication pays `num_sites` copies
    /// of the database, partial replication only the per-partition replica
    /// sets.
    pub resident_bytes: u64,
}

/// The uniform client API of the five evaluated systems.
pub trait ReplicatedSystem: Send + Sync {
    /// System name for reports ("dynamast", "single-master", ...).
    fn name(&self) -> &'static str;

    /// Executes an update transaction on behalf of `session`.
    fn update(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome>;

    /// Executes a read-only transaction on behalf of `session`.
    fn read(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome>;

    /// Current statistics.
    fn stats(&self) -> SystemStats;
}

/// Issues a client → site request under the network's retry policy.
///
/// Transport faults (lost request or reply, delay spikes past the attempt
/// timeout) are retried with backoff. Retransmission gives *at-least-once*
/// execution: a lost reply re-executes the procedure, so workloads driven
/// under fault injection must use operations whose invariants tolerate
/// re-execution (chaos tests use SmallBank transfers, which conserve the
/// global balance however many times they apply).
fn client_rpc(network: &Network, site: SiteId, req: &SiteRequest) -> Result<Bytes> {
    network.rpc_with_retry(
        &network.config().retry,
        None,
        EndpointId::Site(site.raw()),
        TrafficCategory::ClientSite,
        Bytes::from(encode_to_vec(req)),
    )
}

/// Sends an `ExecUpdate` to a site and folds the response into the session.
///
/// Shared by DynaMast, single-master and LEAP (their update paths differ in
/// routing, not in the final execution RPC).
pub fn exec_update_at(
    network: &Network,
    site: SiteId,
    txn_id: u64,
    session: &mut ClientSession,
    min_vv: &VersionVector,
    proc: &ProcCall,
    check_mastery: bool,
) -> Result<(Bytes, ExecTimings)> {
    let req = SiteRequest::ExecUpdate {
        txn_id,
        min_vv: min_vv.max_with(&session.cvv),
        proc: proc.clone(),
        check_mastery,
    };
    let reply = client_rpc(network, site, &req)?;
    match expect_ok(&reply)? {
        SiteResponse::Executed {
            result,
            commit_vv,
            timings,
        } => {
            session.observe(&commit_vv);
            session.last_site = Some(site);
            Ok((result, timings))
        }
        _ => Err(dynamast_common::DynaError::Internal(
            "unexpected exec response",
        )),
    }
}

/// Sends an `ExecRead` to a site and folds the response into the session.
pub fn exec_read_at(
    network: &Network,
    site: SiteId,
    txn_id: u64,
    session: &mut ClientSession,
    proc: &ProcCall,
    mode: ReadMode,
) -> Result<(Bytes, ExecTimings)> {
    let req = SiteRequest::ExecRead {
        txn_id,
        min_vv: session.cvv.clone(),
        proc: proc.clone(),
        mode,
    };
    let reply = client_rpc(network, site, &req)?;
    match expect_ok(&reply)? {
        SiteResponse::ReadDone {
            result,
            site_vv,
            timings,
        } => {
            session.observe(&site_vv);
            session.last_site = Some(site);
            Ok((result, timings))
        }
        _ => Err(dynamast_common::DynaError::Internal(
            "unexpected read response",
        )),
    }
}

/// Measures a closure and returns its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_observe_merges_monotonically() {
        let mut s = ClientSession::new(ClientId::new(1), 3);
        s.observe(&VersionVector::from_counts(vec![1, 0, 2]));
        s.observe(&VersionVector::from_counts(vec![0, 5, 1]));
        assert_eq!(s.cvv.as_slice(), &[1, 5, 2]);
    }

    #[test]
    fn breakdown_attributes_residual_to_network() {
        let timings = ExecTimings {
            begin_us: 10,
            exec_us: 100,
            commit_us: 20,
        };
        let b = Breakdown::from_parts(
            Duration::from_micros(5),
            Duration::from_micros(15),
            timings,
            Duration::from_micros(400),
        );
        assert_eq!(b.network, Duration::from_micros(250));
        assert_eq!(b.total(), Duration::from_micros(400));
    }

    #[test]
    fn breakdown_saturates_when_clock_skew_inverts_total() {
        let timings = ExecTimings {
            begin_us: 300,
            exec_us: 300,
            commit_us: 300,
        };
        let b = Breakdown::from_parts(
            Duration::ZERO,
            Duration::ZERO,
            timings,
            Duration::from_micros(500),
        );
        assert_eq!(b.network, Duration::ZERO);
    }
}

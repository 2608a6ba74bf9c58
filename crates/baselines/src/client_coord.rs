//! Client-side transaction coordination for the statically partitioned
//! systems (multi-master, partition-store).
//!
//! The flow is the classic distributed-transaction shape the paper charges
//! against these architectures:
//!
//! 1. **Fetch** — the client reads every declared key/range from the owning
//!    sites (partition-store) or one replica (multi-master), in parallel
//!    per site; multi-site fetches finish at the slowest responder
//!    (straggler effect).
//! 2. **Execute** — transaction logic runs against the fetched rows.
//! 3. **2PC** — a prepare round (participants lock their fragments and
//!    validate the fetched read versions under those locks) and a decide
//!    round. Locks held between the rounds are the *uncertainty window*
//!    that blocks concurrent transactions. A no-vote aborts everywhere and
//!    the caller retries with a fresh fetch.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{Key, RecordId, SiteId, TableId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_network::{EndpointId, Network, TrafficCategory};
use dynamast_replication::record::WriteEntry;
use dynamast_site::messages::{expect_ok, ExpectedVersion, SiteRequest, SiteResponse};
use dynamast_site::proc::{ScanRange, TxnCtx};
use dynamast_storage::VersionStamp;

/// What to fetch from one site.
#[derive(Clone, Debug, Default)]
pub struct FetchPlan {
    /// Point reads.
    pub keys: Vec<Key>,
    /// Range scans.
    pub ranges: Vec<ScanRange>,
}

impl FetchPlan {
    /// `true` when nothing needs fetching.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.ranges.is_empty()
    }
}

/// Rows the client fetched before executing.
#[derive(Default)]
pub struct FetchedData {
    rows: HashMap<Key, Option<(Row, VersionStamp)>>,
    scan_rows: HashMap<TableId, BTreeMap<RecordId, Row>>,
}

/// Fetches all plans in parallel (one `RemoteRead` per site); the call
/// completes when the slowest site responds.
pub fn fetch(network: &Network, plans: Vec<(SiteId, FetchPlan)>) -> Result<FetchedData> {
    let mut pending = Vec::with_capacity(plans.len());
    for (site, plan) in plans {
        if plan.is_empty() {
            continue;
        }
        let req = SiteRequest::RemoteRead {
            keys: plan.keys.clone(),
            ranges: plan.ranges.clone(),
        };
        let reply = network.rpc_async(
            EndpointId::Site(site.raw()),
            TrafficCategory::ClientSite,
            Bytes::from(encode_to_vec(&req)),
        )?;
        pending.push((plan, reply));
    }
    let mut data = FetchedData::default();
    for (plan, reply) in pending {
        match expect_ok(&reply.wait()?)? {
            SiteResponse::Rows { keys, scans } => {
                for (key, entry) in keys {
                    data.rows.insert(key, entry);
                }
                for (range, rows) in plan.ranges.iter().zip(scans) {
                    let table = data.scan_rows.entry(range.table).or_default();
                    for (record, row) in rows {
                        table.insert(record, row);
                    }
                }
            }
            _ => return Err(DynaError::Internal("unexpected remote read response")),
        }
    }
    Ok(data)
}

/// Buffered writes plus the observed read stamps, produced when a
/// transaction finishes executing.
pub type WritesAndStamps = (Vec<(Key, Row)>, HashMap<Key, Option<VersionStamp>>);

/// The client-side transaction context over fetched data.
pub struct ClientCtx {
    fetched: FetchedData,
    write_set: Vec<Key>,
    writes: Vec<(Key, Row)>,
    /// Stamps observed for fetched keys (first-committer-wins validation).
    pub read_stamps: HashMap<Key, Option<VersionStamp>>,
}

impl ClientCtx {
    /// Wraps fetched data for execution.
    pub fn new(fetched: FetchedData, write_set: Vec<Key>) -> Self {
        ClientCtx {
            fetched,
            write_set,
            writes: Vec::new(),
            read_stamps: HashMap::new(),
        }
    }

    /// Buffered after-images in write order.
    pub fn writes(&self) -> &[(Key, Row)] {
        &self.writes
    }

    /// Consumes the buffered writes.
    pub fn into_writes(self) -> WritesAndStamps {
        (self.writes, self.read_stamps)
    }
}

impl TxnCtx for ClientCtx {
    fn read(&mut self, key: Key) -> Result<Option<Row>> {
        if let Some((_, row)) = self.writes.iter().rev().find(|(k, _)| *k == key) {
            return Ok(Some(row.clone()));
        }
        let entry = self
            .fetched
            .rows
            .get(&key)
            .ok_or(DynaError::Internal("read of a key that was not fetched"))?;
        self.read_stamps
            .entry(key)
            .or_insert_with(|| entry.as_ref().map(|(_, s)| *s));
        Ok(entry.as_ref().map(|(row, _)| row.clone()))
    }

    fn scan(&mut self, range: ScanRange, visit: &mut dyn FnMut(RecordId, &Row)) -> Result<()> {
        if let Some(table) = self.fetched.scan_rows.get(&range.table) {
            for (record, row) in table.range(range.start..range.end) {
                visit(*record, row);
            }
        }
        Ok(())
    }

    fn write(&mut self, key: Key, row: Row) -> Result<()> {
        if !self.write_set.contains(&key) {
            return Err(DynaError::Internal("write outside declared write set"));
        }
        if let Some(slot) = self.writes.iter_mut().rev().find(|(k, _)| *k == key) {
            slot.1 = row;
        } else {
            self.writes.push((key, row));
        }
        Ok(())
    }
}

/// Runs client-coordinated 2PC: parallel prepare (with read validation),
/// then parallel decide. Returns the merged participant svv on commit,
/// `None` when any participant voted no (caller retries with fresh reads).
///
/// Every update transaction goes through both rounds — including single-
/// fragment ones — matching the paper's observation that even single-row
/// transactions suffer the uncertain phase in these architectures.
///
/// Phase two always runs, so no staged fragment keeps its locks: a prepare
/// whose request or vote is lost counts as a no vote, and a decide whose
/// request or reply is lost is retransmitted under the network's retry
/// policy. Both are safe to repeat: a participant answers a decided txn
/// (a retransmitted decide, or a prepare that arrives late) from its
/// record of the outcome.
///
/// `trace_id` is the flight-recorder trace id for the client transaction
/// (0 = untraced), distinct from the wire-level 2PC `txn_id`.
pub fn two_phase_commit(
    network: &Arc<Network>,
    trace_id: u64,
    txn_id: u64,
    groups: BTreeMap<SiteId, Vec<WriteEntry>>,
    read_stamps: &HashMap<Key, Option<VersionStamp>>,
) -> Result<Option<VersionVector>> {
    use dynamast_common::trace::{TraceKind, TracePayload, TraceSite};
    let recorder = if trace_id == 0 {
        None
    } else {
        network.recorder()
    };
    let participants = groups.len() as u32;
    let trace = |kind: TraceKind, site: u32, ok: bool| {
        if let Some(rec) = &recorder {
            rec.record(
                trace_id,
                TraceSite::None,
                kind,
                TracePayload::TwoPc {
                    site,
                    ok,
                    participants,
                },
            );
        }
    };
    let retry = network.config().retry;
    let send = |owner: SiteId, req: Bytes| {
        network.rpc_async(
            EndpointId::Site(owner.raw()),
            TrafficCategory::TwoPhaseCommit,
            req,
        )
    };
    // The first failure that is not a lost message: returned once phase
    // two has run.
    let mut failed: Option<DynaError> = None;
    // Phase one: parallel prepares.
    let mut pending = Vec::with_capacity(groups.len());
    for (owner, entries) in &groups {
        let expected: Vec<ExpectedVersion> = entries
            .iter()
            .filter_map(|w| {
                read_stamps.get(&w.key).map(|stamp| ExpectedVersion {
                    key: w.key,
                    stamp: *stamp,
                })
            })
            .collect();
        let req = SiteRequest::Prepare {
            txn_id,
            writes: entries.clone(),
            expected,
        };
        trace(TraceKind::TwoPcPrepare, owner.raw(), true);
        pending.push((*owner, send(*owner, Bytes::from(encode_to_vec(&req)))));
    }
    let mut votes_yes = true;
    for (owner, reply) in pending {
        let vote = reply
            .and_then(|reply| reply.wait_timeout(retry.attempt_timeout))
            .and_then(|payload| expect_ok(&payload));
        let yes = match vote {
            Ok(SiteResponse::Voted { yes }) => yes,
            Ok(_) => {
                failed.get_or_insert(DynaError::Internal("unexpected prepare response"));
                false
            }
            Err(DynaError::Timeout { .. } | DynaError::Network(_)) => false,
            Err(e) => {
                failed.get_or_insert(e);
                false
            }
        };
        trace(TraceKind::TwoPcVote, owner.raw(), yes);
        votes_yes &= yes;
    }
    // The decide originates at the client, not a site; u32::MAX marks the
    // client-side coordinator in the trace.
    trace(TraceKind::TwoPcDecide, u32::MAX, votes_yes);

    // Phase two: parallel decides (abort is sent to everyone; it is
    // idempotent for participants that never staged).
    let decide = Bytes::from(encode_to_vec(&SiteRequest::Decide {
        txn_id,
        commit: votes_yes,
    }));
    let decisions: Vec<_> = groups
        .keys()
        .map(|&owner| (owner, send(owner, decide.clone())))
        .collect();
    let mut commit_vv: Option<VersionVector> = None;
    for (owner, pending) in decisions {
        let reply = match pending.and_then(|reply| reply.wait_timeout(retry.attempt_timeout)) {
            Err(DynaError::Timeout { .. } | DynaError::Network(_)) => network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(owner.raw()),
                TrafficCategory::TwoPhaseCommit,
                decide.clone(),
            ),
            settled => settled,
        };
        match reply.and_then(|payload| expect_ok(&payload)) {
            Ok(SiteResponse::Decided { site_vv }) => match &mut commit_vv {
                None => commit_vv = Some(site_vv),
                Some(vv) => vv.merge_max(&site_vv),
            },
            Ok(_) => {
                failed.get_or_insert(DynaError::Internal("unexpected decide response"));
            }
            Err(e) => {
                failed.get_or_insert(e);
            }
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(if votes_yes { commit_vv } else { None }),
    }
}

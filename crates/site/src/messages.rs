//! The data-site RPC protocol.
//!
//! All five evaluated systems talk to data sites through these messages:
//!
//! * `ExecUpdate` / `ExecRead` — single-site stored-procedure execution
//!   (DynaMast, single-master, and the local paths of the other systems).
//! * `Release` / `Grant` — the dynamic mastering protocol (§III-B). One wire
//!   form each: a vector of moves answered by a vector of per-move results,
//!   a single move being a vector of one.
//! * `ExecCoordinated`, `Prepare` / `Decide`, `RemoteRead` — the 2PC
//!   execution path of multi-master and partition-store.
//! * `LeapRelease` / `LeapGrant` — LEAP's data-shipping localization
//!   (records move with ownership, unlike DynaMast's metadata-only
//!   transfers; the byte sizes of these messages are what make LEAP's
//!   transfers expensive in the traffic accounting).
//! * `GetVv` — svv probe used by the selector's freshness cache.

use bytes::{Buf, BufMut, Bytes};
use dynamast_common::codec::{self, Decode, Encode};
use dynamast_common::ids::{Key, PartitionId, RecordId, SiteId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_replication::record::WriteEntry;
use dynamast_storage::ImageRecord;

use crate::proc::{ProcCall, ReadMode, ScanRange};

/// The version a 2PC coordinator read for a key it intends to overwrite.
/// Participants validate it under locks at prepare time (first-committer-
/// wins): if the key's latest version no longer matches, the participant
/// votes no and the coordinator re-executes with fresh reads.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectedVersion {
    /// Key to validate.
    pub key: Key,
    /// The stamp the coordinator read; `None` = key did not exist.
    pub stamp: Option<dynamast_storage::VersionStamp>,
}

impl Encode for ExpectedVersion {
    fn encode(&self, buf: &mut impl BufMut) {
        self.key.encode(buf);
        match self.stamp {
            None => buf.put_u8(0),
            Some(stamp) => {
                buf.put_u8(1);
                buf.put_u32(stamp.origin.raw());
                buf.put_u64(stamp.sequence);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        self.key.encoded_len() + 1 + if self.stamp.is_some() { 12 } else { 0 }
    }
}

impl Decode for ExpectedVersion {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let key = Key::decode(buf)?;
        let stamp = match codec::get_u8(buf)? {
            0 => None,
            _ => Some(dynamast_storage::VersionStamp::new(
                SiteId::new(codec::get_u32(buf)? as usize),
                codec::get_u64(buf)?,
            )),
        };
        Ok(ExpectedVersion { key, stamp })
    }
}

/// Server-side execution timings returned to clients, in microseconds
/// (feeds the Figure 7 latency breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecTimings {
    /// Begin: write-set locking + session-freshness wait.
    pub begin_us: u32,
    /// Stored-procedure execution.
    pub exec_us: u32,
    /// Commit processing (version install + log append + publish).
    pub commit_us: u32,
}

impl Encode for ExecTimings {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.begin_us);
        buf.put_u32(self.exec_us);
        buf.put_u32(self.commit_us);
    }

    fn encoded_len(&self) -> usize {
        12
    }
}

impl Decode for ExecTimings {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(ExecTimings {
            begin_us: codec::get_u32(buf)?,
            exec_us: codec::get_u32(buf)?,
            commit_us: codec::get_u32(buf)?,
        })
    }
}

fn encode_read_mode(mode: ReadMode, buf: &mut impl BufMut) {
    buf.put_u8(match mode {
        ReadMode::Snapshot => 0,
        ReadMode::Latest => 1,
    });
}

fn decode_read_mode(buf: &mut impl Buf) -> Result<ReadMode> {
    match codec::get_u8(buf)? {
        0 => Ok(ReadMode::Snapshot),
        1 => Ok(ReadMode::Latest),
        _ => Err(DynaError::Codec {
            what: "read mode",
            needed: 0,
            remaining: buf.remaining(),
        }),
    }
}

/// Requests a data site serves.
#[derive(Clone, Debug, PartialEq)]
pub enum SiteRequest {
    /// Execute and locally commit an update transaction.
    ExecUpdate {
        /// Flight-recorder trace id (0 = untraced). Carried on the wire so
        /// site-side begin/execute/commit events join the selector's
        /// routing events on one causal timeline.
        txn_id: u64,
        /// Freshness floor: max of client session vector and remaster
        /// out-vv (Algorithm 1).
        min_vv: VersionVector,
        /// The transaction.
        proc: ProcCall,
        /// Verify mastership of the write set (DynaMast; also detects stale
        /// distributed-selector routing per Appendix I).
        check_mastery: bool,
    },
    /// Execute a read-only transaction.
    ExecRead {
        /// Flight-recorder trace id (0 = untraced).
        txn_id: u64,
        /// Freshness floor (client session vector).
        min_vv: VersionVector,
        /// The transaction.
        proc: ProcCall,
        /// Snapshot (replicated systems) or latest (partitioned systems).
        mode: ReadMode,
    },
    /// Release mastership of partitions (dynamic mastering, §III-B): every
    /// move of one remaster that leaves this site rides one RPC. Each move
    /// is drained, logged and ledgered on its own; a single move is a vector
    /// of one.
    Release {
        /// `(partition, selector-assigned remastering epoch)` per move.
        moves: Vec<(PartitionId, u64)>,
        /// Fencing token: the sending selector's generation. Sites reject
        /// generations below their fence watermark (`StaleSelector`).
        generation: u64,
    },
    /// Take mastership of partitions (dynamic mastering, §III-B).
    Grant {
        /// `(partition, epoch, rel_vv)` per move: `rel_vv` is the releasing
        /// site's svv at release; the grantee waits until its own svv
        /// dominates it.
        grants: Vec<(PartitionId, u64, VersionVector)>,
        /// Fencing token: the sending selector's generation.
        generation: u64,
    },
    /// Execute as a 2PC coordinator (multi-master / partition-store).
    ExecCoordinated {
        /// Flight-recorder trace id (0 = untraced).
        txn_id: u64,
        /// Freshness floor.
        min_vv: VersionVector,
        /// The transaction.
        proc: ProcCall,
        /// Read resolution for local reads.
        mode: ReadMode,
    },
    /// 2PC phase one: lock and stage writes, vote.
    Prepare {
        /// Globally unique transaction id.
        txn_id: u64,
        /// After-images this participant owns.
        writes: Vec<WriteEntry>,
        /// Read versions to validate under locks (first-committer-wins).
        expected: Vec<ExpectedVersion>,
    },
    /// 2PC phase two: commit or abort a prepared transaction.
    Decide {
        /// Transaction id from the prepare.
        txn_id: u64,
        /// `true` to commit, `false` to abort.
        commit: bool,
    },
    /// Point/range reads served to a remote 2PC coordinator
    /// (partition-store's multi-site read-only transactions).
    RemoteRead {
        /// Point reads.
        keys: Vec<Key>,
        /// Range scans.
        ranges: Vec<ScanRange>,
    },
    /// LEAP: give up ownership of partitions and ship their records.
    LeapRelease {
        /// Partitions to release.
        partitions: Vec<PartitionId>,
    },
    /// LEAP: take ownership of partitions, installing shipped records.
    LeapGrant {
        /// Partitions granted.
        partitions: Vec<PartitionId>,
        /// Shipped records to install.
        records: Vec<ImageRecord>,
    },
    /// Cut a copy-installation snapshot of one partition (partial
    /// replication): the serving site takes its svv as the cut and images
    /// the partition's rows visible at that cut, which the selector ships to
    /// the new replica via [`SiteRequest::AddReplica`] (the LEAP shipping
    /// idiom minus the ownership revoke — the source keeps serving).
    ReplicaSnapshot {
        /// Partition to snapshot.
        partition: PartitionId,
    },
    /// Install a copy of one partition at this site: snapshot records cut at
    /// `src_svv`, after which the site catches the partition up from its own
    /// logs and refresh buffer before marking it hosted.
    AddReplica {
        /// Partition to host.
        partition: PartitionId,
        /// Snapshot records from the serving replica.
        records: Vec<ImageRecord>,
        /// The serving replica's svv at the snapshot cut.
        src_svv: VersionVector,
        /// Fencing token: the sending selector's generation.
        generation: u64,
    },
    /// Drop this site's copy of one partition (shrink provisioning). The
    /// site refuses while it masters the partition.
    DropReplica {
        /// Partition to drop.
        partition: PartitionId,
        /// Fencing token: the sending selector's generation.
        generation: u64,
    },
    /// Fetch the site's current svv.
    GetVv,
    /// Install a selector fence: the site raises its generation watermark to
    /// `generation` (rejecting any lower-generation remaster afterwards) and
    /// returns a snapshot of its svv and live mastered partitions — the
    /// inputs a promoting standby needs for reconciliation (§V-C).
    FenceSelector {
        /// The promoting selector's generation.
        generation: u64,
    },
}

const REQ_EXEC_UPDATE: u8 = 1;
const REQ_EXEC_READ: u8 = 2;
const REQ_RELEASE: u8 = 3;
const REQ_GRANT: u8 = 4;
const REQ_EXEC_COORD: u8 = 5;
const REQ_PREPARE: u8 = 6;
const REQ_DECIDE: u8 = 7;
const REQ_REMOTE_READ: u8 = 8;
const REQ_LEAP_RELEASE: u8 = 9;
const REQ_LEAP_GRANT: u8 = 10;
const REQ_GET_VV: u8 = 11;
const REQ_FENCE_SELECTOR: u8 = 12;
const REQ_REPLICA_SNAPSHOT: u8 = 15;
const REQ_ADD_REPLICA: u8 = 16;
const REQ_DROP_REPLICA: u8 = 17;

impl Encode for SiteRequest {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            SiteRequest::ExecUpdate {
                txn_id,
                min_vv,
                proc,
                check_mastery,
            } => {
                buf.put_u8(REQ_EXEC_UPDATE);
                buf.put_u64(*txn_id);
                min_vv.encode(buf);
                proc.encode(buf);
                buf.put_u8(u8::from(*check_mastery));
            }
            SiteRequest::ExecRead {
                txn_id,
                min_vv,
                proc,
                mode,
            } => {
                buf.put_u8(REQ_EXEC_READ);
                buf.put_u64(*txn_id);
                min_vv.encode(buf);
                proc.encode(buf);
                encode_read_mode(*mode, buf);
            }
            SiteRequest::Release { moves, generation } => {
                buf.put_u8(REQ_RELEASE);
                buf.put_u32(moves.len() as u32);
                for (partition, epoch) in moves {
                    buf.put_u64(partition.raw());
                    buf.put_u64(*epoch);
                }
                buf.put_u64(*generation);
            }
            SiteRequest::Grant { grants, generation } => {
                buf.put_u8(REQ_GRANT);
                buf.put_u32(grants.len() as u32);
                for (partition, epoch, rel_vv) in grants {
                    buf.put_u64(partition.raw());
                    buf.put_u64(*epoch);
                    rel_vv.encode(buf);
                }
                buf.put_u64(*generation);
            }
            SiteRequest::ExecCoordinated {
                txn_id,
                min_vv,
                proc,
                mode,
            } => {
                buf.put_u8(REQ_EXEC_COORD);
                buf.put_u64(*txn_id);
                min_vv.encode(buf);
                proc.encode(buf);
                encode_read_mode(*mode, buf);
            }
            SiteRequest::Prepare {
                txn_id,
                writes,
                expected,
            } => {
                buf.put_u8(REQ_PREPARE);
                buf.put_u64(*txn_id);
                codec::encode_seq(writes, buf);
                codec::encode_seq(expected, buf);
            }
            SiteRequest::Decide { txn_id, commit } => {
                buf.put_u8(REQ_DECIDE);
                buf.put_u64(*txn_id);
                buf.put_u8(u8::from(*commit));
            }
            SiteRequest::RemoteRead { keys, ranges } => {
                buf.put_u8(REQ_REMOTE_READ);
                codec::encode_seq(keys, buf);
                codec::encode_seq(ranges, buf);
            }
            SiteRequest::LeapRelease { partitions } => {
                buf.put_u8(REQ_LEAP_RELEASE);
                encode_partitions(partitions, buf);
            }
            SiteRequest::LeapGrant {
                partitions,
                records,
            } => {
                buf.put_u8(REQ_LEAP_GRANT);
                encode_partitions(partitions, buf);
                codec::encode_seq(records, buf);
            }
            SiteRequest::ReplicaSnapshot { partition } => {
                buf.put_u8(REQ_REPLICA_SNAPSHOT);
                buf.put_u64(partition.raw());
            }
            SiteRequest::AddReplica {
                partition,
                records,
                src_svv,
                generation,
            } => {
                buf.put_u8(REQ_ADD_REPLICA);
                buf.put_u64(partition.raw());
                codec::encode_seq(records, buf);
                src_svv.encode(buf);
                buf.put_u64(*generation);
            }
            SiteRequest::DropReplica {
                partition,
                generation,
            } => {
                buf.put_u8(REQ_DROP_REPLICA);
                buf.put_u64(partition.raw());
                buf.put_u64(*generation);
            }
            SiteRequest::GetVv => buf.put_u8(REQ_GET_VV),
            SiteRequest::FenceSelector { generation } => {
                buf.put_u8(REQ_FENCE_SELECTOR);
                buf.put_u64(*generation);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SiteRequest::ExecUpdate { min_vv, proc, .. }
            | SiteRequest::ExecRead { min_vv, proc, .. }
            | SiteRequest::ExecCoordinated { min_vv, proc, .. } => {
                8 + min_vv.encoded_len() + proc.encoded_len() + 1
            }
            SiteRequest::Release { moves, .. } => 4 + 16 * moves.len() + 8,
            SiteRequest::Grant { grants, .. } => {
                4 + grants
                    .iter()
                    .map(|(_, _, vv)| 16 + vv.encoded_len())
                    .sum::<usize>()
                    + 8
            }
            SiteRequest::Prepare {
                writes, expected, ..
            } => 8 + codec::seq_len(writes) + codec::seq_len(expected),
            SiteRequest::Decide { .. } => 9,
            SiteRequest::RemoteRead { keys, ranges } => {
                codec::seq_len(keys) + codec::seq_len(ranges)
            }
            SiteRequest::LeapRelease { partitions } => 4 + 8 * partitions.len(),
            SiteRequest::LeapGrant {
                partitions,
                records,
            } => 4 + 8 * partitions.len() + codec::seq_len(records),
            SiteRequest::ReplicaSnapshot { .. } => 8,
            SiteRequest::AddReplica {
                records, src_svv, ..
            } => 8 + codec::seq_len(records) + src_svv.encoded_len() + 8,
            SiteRequest::DropReplica { .. } => 16,
            SiteRequest::GetVv => 0,
            SiteRequest::FenceSelector { .. } => 8,
        }
    }
}

fn encode_partitions(partitions: &[PartitionId], buf: &mut impl BufMut) {
    buf.put_u32(partitions.len() as u32);
    for p in partitions {
        buf.put_u64(p.raw());
    }
}

fn decode_partitions(buf: &mut impl Buf) -> Result<Vec<PartitionId>> {
    let n = codec::get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(PartitionId::new(codec::get_u64(buf)? as usize));
    }
    Ok(out)
}

impl Decode for SiteRequest {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match codec::get_u8(buf)? {
            REQ_EXEC_UPDATE => Ok(SiteRequest::ExecUpdate {
                txn_id: codec::get_u64(buf)?,
                min_vv: VersionVector::decode(buf)?,
                proc: ProcCall::decode(buf)?,
                check_mastery: codec::get_u8(buf)? != 0,
            }),
            REQ_EXEC_READ => Ok(SiteRequest::ExecRead {
                txn_id: codec::get_u64(buf)?,
                min_vv: VersionVector::decode(buf)?,
                proc: ProcCall::decode(buf)?,
                mode: decode_read_mode(buf)?,
            }),
            REQ_RELEASE => {
                let n = codec::get_u32(buf)? as usize;
                let mut moves = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    moves.push((
                        PartitionId::new(codec::get_u64(buf)? as usize),
                        codec::get_u64(buf)?,
                    ));
                }
                Ok(SiteRequest::Release {
                    moves,
                    generation: codec::get_u64(buf)?,
                })
            }
            REQ_GRANT => {
                let n = codec::get_u32(buf)? as usize;
                let mut grants = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    grants.push((
                        PartitionId::new(codec::get_u64(buf)? as usize),
                        codec::get_u64(buf)?,
                        VersionVector::decode(buf)?,
                    ));
                }
                Ok(SiteRequest::Grant {
                    grants,
                    generation: codec::get_u64(buf)?,
                })
            }
            REQ_EXEC_COORD => Ok(SiteRequest::ExecCoordinated {
                txn_id: codec::get_u64(buf)?,
                min_vv: VersionVector::decode(buf)?,
                proc: ProcCall::decode(buf)?,
                mode: decode_read_mode(buf)?,
            }),
            REQ_PREPARE => Ok(SiteRequest::Prepare {
                txn_id: codec::get_u64(buf)?,
                writes: codec::decode_seq(buf)?,
                expected: codec::decode_seq(buf)?,
            }),
            REQ_DECIDE => Ok(SiteRequest::Decide {
                txn_id: codec::get_u64(buf)?,
                commit: codec::get_u8(buf)? != 0,
            }),
            REQ_REMOTE_READ => Ok(SiteRequest::RemoteRead {
                keys: codec::decode_seq(buf)?,
                ranges: codec::decode_seq(buf)?,
            }),
            REQ_LEAP_RELEASE => Ok(SiteRequest::LeapRelease {
                partitions: decode_partitions(buf)?,
            }),
            REQ_LEAP_GRANT => Ok(SiteRequest::LeapGrant {
                partitions: decode_partitions(buf)?,
                records: codec::decode_seq(buf)?,
            }),
            REQ_REPLICA_SNAPSHOT => Ok(SiteRequest::ReplicaSnapshot {
                partition: PartitionId::new(codec::get_u64(buf)? as usize),
            }),
            REQ_ADD_REPLICA => Ok(SiteRequest::AddReplica {
                partition: PartitionId::new(codec::get_u64(buf)? as usize),
                records: codec::decode_seq(buf)?,
                src_svv: VersionVector::decode(buf)?,
                generation: codec::get_u64(buf)?,
            }),
            REQ_DROP_REPLICA => Ok(SiteRequest::DropReplica {
                partition: PartitionId::new(codec::get_u64(buf)? as usize),
                generation: codec::get_u64(buf)?,
            }),
            REQ_GET_VV => Ok(SiteRequest::GetVv),
            REQ_FENCE_SELECTOR => Ok(SiteRequest::FenceSelector {
                generation: codec::get_u64(buf)?,
            }),
            _ => Err(DynaError::Codec {
                what: "site request tag",
                needed: 0,
                remaining: buf.remaining(),
            }),
        }
    }
}

/// Replies a data site produces.
#[derive(Clone, Debug, PartialEq)]
pub enum SiteResponse {
    /// Update transaction committed.
    Executed {
        /// Procedure result payload.
        result: Bytes,
        /// Site svv after commit (client merges into its session vector).
        commit_vv: VersionVector,
        /// Server-side timing breakdown.
        timings: ExecTimings,
    },
    /// Read-only transaction finished.
    ReadDone {
        /// Procedure result payload.
        result: Bytes,
        /// Site svv observed (client merges into its session vector).
        site_vv: VersionVector,
        /// Server-side timing breakdown.
        timings: ExecTimings,
    },
    /// Release finished; per-move outcomes.
    Released {
        /// Parallel to the request's `moves`: the site's svv at each
        /// release point, or why that move's release failed (the others are
        /// unaffected).
        results: Vec<std::result::Result<VersionVector, RemoteError>>,
    },
    /// Grant finished; per-move outcomes.
    Granted {
        /// Parallel to the request's `grants`: the site's svv when it took
        /// ownership, or why that grant failed.
        results: Vec<std::result::Result<VersionVector, RemoteError>>,
    },
    /// 2PC vote.
    Voted {
        /// `true` = yes.
        yes: bool,
    },
    /// 2PC decision applied.
    Decided {
        /// Participant svv after the decision.
        site_vv: VersionVector,
    },
    /// Remote-read results: one entry per requested key (None = absent),
    /// then one row set per requested range. Point reads carry version
    /// stamps so the coordinator can validate write-set reads at prepare.
    Rows {
        /// Point-read results, parallel to the request's `keys`.
        keys: Vec<(Key, Option<(Row, dynamast_storage::VersionStamp)>)>,
        /// Scan results, parallel to the request's `ranges`.
        scans: Vec<Vec<(RecordId, Row)>>,
    },
    /// LEAP release finished; ownership and records handed over.
    LeapReleased {
        /// All records of the released partitions.
        records: Vec<ImageRecord>,
    },
    /// LEAP grant installed.
    LeapGranted,
    /// Replica snapshot cut; records and cut vector attached.
    ReplicaSnapshotted {
        /// The partition's rows visible at the cut.
        records: Vec<ImageRecord>,
        /// The serving site's svv at the cut.
        src_svv: VersionVector,
    },
    /// Copy installed and caught up; the partition is hosted here.
    ReplicaAdded {
        /// The new replica's svv after catch-up (dominates the snapshot
        /// cut).
        svv: VersionVector,
    },
    /// Copy dropped and its rows purged.
    ReplicaDropped {
        /// Rows purged from the store.
        purged_rows: u64,
        /// Bytes freed from the resident footprint.
        purged_bytes: u64,
    },
    /// Current svv.
    Vv {
        /// The site's svv.
        svv: VersionVector,
    },
    /// Selector fence installed; reconciliation snapshot attached.
    Fenced {
        /// The site's svv at fencing time.
        svv: VersionVector,
        /// Partitions the site's live ownership table masters.
        mastered: Vec<PartitionId>,
    },
    /// The request failed.
    Error {
        /// The failure.
        error: RemoteError,
    },
}

/// Wire-encodable subset of [`DynaError`] for cross-site failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteError {
    /// Mastership check failed (Appendix I stale-routing signal).
    NotMaster {
        /// Rejecting site.
        site: SiteId,
        /// Offending partition.
        partition: PartitionId,
    },
    /// The transaction aborted (2PC no-vote or decision).
    Aborted,
    /// The site is shutting down.
    ShuttingDown,
    /// The request carried a selector generation below the site's fence
    /// watermark: the sender is a deposed selector.
    StaleSelector {
        /// Generation the rejected request carried.
        observed: u64,
        /// Generation the site is fenced to.
        current: u64,
    },
    /// The site holds no (fully installed) copy of the partition (partial
    /// replication): reads routed here must retry at a hosting replica.
    NotReplica {
        /// Rejecting site.
        site: SiteId,
        /// Partition the site does not host.
        partition: PartitionId,
    },
    /// Any other failure.
    Internal,
}

impl From<DynaError> for RemoteError {
    fn from(e: DynaError) -> Self {
        match e {
            DynaError::NotMaster { site, partition } => RemoteError::NotMaster { site, partition },
            DynaError::TxnAborted { .. } => RemoteError::Aborted,
            DynaError::ShuttingDown => RemoteError::ShuttingDown,
            DynaError::StaleSelector { observed, current } => {
                RemoteError::StaleSelector { observed, current }
            }
            DynaError::NotReplica { site, partition } => {
                RemoteError::NotReplica { site, partition }
            }
            _ => RemoteError::Internal,
        }
    }
}

impl From<RemoteError> for DynaError {
    fn from(e: RemoteError) -> Self {
        match e {
            RemoteError::NotMaster { site, partition } => DynaError::NotMaster { site, partition },
            RemoteError::Aborted => DynaError::TxnAborted {
                reason: "remote abort",
            },
            RemoteError::ShuttingDown => DynaError::ShuttingDown,
            RemoteError::StaleSelector { observed, current } => {
                DynaError::StaleSelector { observed, current }
            }
            RemoteError::NotReplica { site, partition } => {
                DynaError::NotReplica { site, partition }
            }
            RemoteError::Internal => DynaError::Internal("remote internal error"),
        }
    }
}

const RESP_EXECUTED: u8 = 1;
const RESP_READ_DONE: u8 = 2;
const RESP_RELEASED: u8 = 3;
const RESP_GRANTED: u8 = 4;
const RESP_VOTED: u8 = 5;
const RESP_DECIDED: u8 = 6;
const RESP_ROWS: u8 = 7;
const RESP_LEAP_RELEASED: u8 = 8;
const RESP_LEAP_GRANTED: u8 = 9;
const RESP_VV: u8 = 10;
const RESP_ERROR: u8 = 11;
const RESP_FENCED: u8 = 12;
const RESP_REPLICA_SNAPSHOTTED: u8 = 15;
const RESP_REPLICA_ADDED: u8 = 16;
const RESP_REPLICA_DROPPED: u8 = 17;

impl Encode for RemoteError {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            RemoteError::NotMaster { site, partition } => {
                buf.put_u8(1);
                buf.put_u32(site.raw());
                buf.put_u64(partition.raw());
            }
            RemoteError::Aborted => buf.put_u8(2),
            RemoteError::ShuttingDown => buf.put_u8(3),
            RemoteError::Internal => buf.put_u8(4),
            RemoteError::StaleSelector { observed, current } => {
                buf.put_u8(5);
                buf.put_u64(*observed);
                buf.put_u64(*current);
            }
            RemoteError::NotReplica { site, partition } => {
                buf.put_u8(6);
                buf.put_u32(site.raw());
                buf.put_u64(partition.raw());
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            RemoteError::NotMaster { .. } | RemoteError::NotReplica { .. } => 13,
            RemoteError::StaleSelector { .. } => 17,
            _ => 1,
        }
    }
}

impl Decode for RemoteError {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(match codec::get_u8(buf)? {
            1 => RemoteError::NotMaster {
                site: SiteId::new(codec::get_u32(buf)? as usize),
                partition: PartitionId::new(codec::get_u64(buf)? as usize),
            },
            2 => RemoteError::Aborted,
            3 => RemoteError::ShuttingDown,
            4 => RemoteError::Internal,
            5 => RemoteError::StaleSelector {
                observed: codec::get_u64(buf)?,
                current: codec::get_u64(buf)?,
            },
            6 => RemoteError::NotReplica {
                site: SiteId::new(codec::get_u32(buf)? as usize),
                partition: PartitionId::new(codec::get_u64(buf)? as usize),
            },
            _ => {
                return Err(DynaError::Codec {
                    what: "remote error tag",
                    needed: 0,
                    remaining: buf.remaining(),
                })
            }
        })
    }
}

/// Per-move remaster outcomes: a count, then `1 + vv` or `0 + error` each.
fn encode_move_results(
    results: &[std::result::Result<VersionVector, RemoteError>],
    buf: &mut impl BufMut,
) {
    buf.put_u32(results.len() as u32);
    for result in results {
        match result {
            Ok(vv) => {
                buf.put_u8(1);
                vv.encode(buf);
            }
            Err(error) => {
                buf.put_u8(0);
                error.encode(buf);
            }
        }
    }
}

fn move_results_len(results: &[std::result::Result<VersionVector, RemoteError>]) -> usize {
    4 + results
        .iter()
        .map(|result| match result {
            Ok(vv) => 1 + vv.encoded_len(),
            Err(error) => 1 + error.encoded_len(),
        })
        .sum::<usize>()
}

fn decode_move_results(
    buf: &mut impl Buf,
) -> Result<Vec<std::result::Result<VersionVector, RemoteError>>> {
    let n = codec::get_u32(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(match codec::get_u8(buf)? {
            0 => Err(RemoteError::decode(buf)?),
            _ => Ok(VersionVector::decode(buf)?),
        });
    }
    Ok(out)
}

impl Encode for SiteResponse {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            SiteResponse::Executed {
                result,
                commit_vv,
                timings,
            } => {
                buf.put_u8(RESP_EXECUTED);
                codec::put_bytes(buf, result);
                commit_vv.encode(buf);
                timings.encode(buf);
            }
            SiteResponse::ReadDone {
                result,
                site_vv,
                timings,
            } => {
                buf.put_u8(RESP_READ_DONE);
                codec::put_bytes(buf, result);
                site_vv.encode(buf);
                timings.encode(buf);
            }
            SiteResponse::Released { results } => {
                buf.put_u8(RESP_RELEASED);
                encode_move_results(results, buf);
            }
            SiteResponse::Granted { results } => {
                buf.put_u8(RESP_GRANTED);
                encode_move_results(results, buf);
            }
            SiteResponse::Voted { yes } => {
                buf.put_u8(RESP_VOTED);
                buf.put_u8(u8::from(*yes));
            }
            SiteResponse::Decided { site_vv } => {
                buf.put_u8(RESP_DECIDED);
                site_vv.encode(buf);
            }
            SiteResponse::Rows { keys, scans } => {
                buf.put_u8(RESP_ROWS);
                buf.put_u32(keys.len() as u32);
                for (key, entry) in keys {
                    key.encode(buf);
                    match entry {
                        None => buf.put_u8(0),
                        Some((row, stamp)) => {
                            buf.put_u8(1);
                            row.encode(buf);
                            buf.put_u32(stamp.origin.raw());
                            buf.put_u64(stamp.sequence);
                        }
                    }
                }
                buf.put_u32(scans.len() as u32);
                for scan in scans {
                    buf.put_u32(scan.len() as u32);
                    for (record, row) in scan {
                        buf.put_u64(*record);
                        row.encode(buf);
                    }
                }
            }
            SiteResponse::LeapReleased { records } => {
                buf.put_u8(RESP_LEAP_RELEASED);
                codec::encode_seq(records, buf);
            }
            SiteResponse::LeapGranted => buf.put_u8(RESP_LEAP_GRANTED),
            SiteResponse::ReplicaSnapshotted { records, src_svv } => {
                buf.put_u8(RESP_REPLICA_SNAPSHOTTED);
                codec::encode_seq(records, buf);
                src_svv.encode(buf);
            }
            SiteResponse::ReplicaAdded { svv } => {
                buf.put_u8(RESP_REPLICA_ADDED);
                svv.encode(buf);
            }
            SiteResponse::ReplicaDropped {
                purged_rows,
                purged_bytes,
            } => {
                buf.put_u8(RESP_REPLICA_DROPPED);
                buf.put_u64(*purged_rows);
                buf.put_u64(*purged_bytes);
            }
            SiteResponse::Vv { svv } => {
                buf.put_u8(RESP_VV);
                svv.encode(buf);
            }
            SiteResponse::Fenced { svv, mastered } => {
                buf.put_u8(RESP_FENCED);
                svv.encode(buf);
                encode_partitions(mastered, buf);
            }
            SiteResponse::Error { error } => {
                buf.put_u8(RESP_ERROR);
                error.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            SiteResponse::Executed {
                result,
                commit_vv,
                timings,
            } => codec::bytes_len(result) + commit_vv.encoded_len() + timings.encoded_len(),
            SiteResponse::ReadDone {
                result,
                site_vv,
                timings,
            } => codec::bytes_len(result) + site_vv.encoded_len() + timings.encoded_len(),
            SiteResponse::Released { results } | SiteResponse::Granted { results } => {
                move_results_len(results)
            }
            SiteResponse::Voted { .. } => 1,
            SiteResponse::Decided { site_vv } => site_vv.encoded_len(),
            SiteResponse::Rows { keys, scans } => {
                let key_len: usize = keys
                    .iter()
                    .map(|(k, r)| {
                        k.encoded_len()
                            + 1
                            + r.as_ref().map_or(0, |(row, _)| row.encoded_len() + 12)
                    })
                    .sum();
                let scan_len: usize = scans
                    .iter()
                    .map(|s| 4 + s.iter().map(|(_, r)| 8 + r.encoded_len()).sum::<usize>())
                    .sum();
                4 + key_len + 4 + scan_len
            }
            SiteResponse::LeapReleased { records } => codec::seq_len(records),
            SiteResponse::LeapGranted => 0,
            SiteResponse::ReplicaSnapshotted { records, src_svv } => {
                codec::seq_len(records) + src_svv.encoded_len()
            }
            SiteResponse::ReplicaAdded { svv } => svv.encoded_len(),
            SiteResponse::ReplicaDropped { .. } => 16,
            SiteResponse::Vv { svv } => svv.encoded_len(),
            SiteResponse::Fenced { svv, mastered } => svv.encoded_len() + 4 + 8 * mastered.len(),
            SiteResponse::Error { error } => error.encoded_len(),
        }
    }
}

impl Decode for SiteResponse {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        match codec::get_u8(buf)? {
            RESP_EXECUTED => Ok(SiteResponse::Executed {
                result: Bytes::from(codec::get_bytes(buf)?),
                commit_vv: VersionVector::decode(buf)?,
                timings: ExecTimings::decode(buf)?,
            }),
            RESP_READ_DONE => Ok(SiteResponse::ReadDone {
                result: Bytes::from(codec::get_bytes(buf)?),
                site_vv: VersionVector::decode(buf)?,
                timings: ExecTimings::decode(buf)?,
            }),
            RESP_RELEASED => Ok(SiteResponse::Released {
                results: decode_move_results(buf)?,
            }),
            RESP_GRANTED => Ok(SiteResponse::Granted {
                results: decode_move_results(buf)?,
            }),
            RESP_VOTED => Ok(SiteResponse::Voted {
                yes: codec::get_u8(buf)? != 0,
            }),
            RESP_DECIDED => Ok(SiteResponse::Decided {
                site_vv: VersionVector::decode(buf)?,
            }),
            RESP_ROWS => {
                let n = codec::get_u32(buf)? as usize;
                let mut keys = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let key = Key::decode(buf)?;
                    let entry = match codec::get_u8(buf)? {
                        0 => None,
                        _ => {
                            let row = Row::decode(buf)?;
                            let stamp = dynamast_storage::VersionStamp::new(
                                SiteId::new(codec::get_u32(buf)? as usize),
                                codec::get_u64(buf)?,
                            );
                            Some((row, stamp))
                        }
                    };
                    keys.push((key, entry));
                }
                let s = codec::get_u32(buf)? as usize;
                let mut scans = Vec::with_capacity(s.min(1 << 20));
                for _ in 0..s {
                    let len = codec::get_u32(buf)? as usize;
                    let mut rows = Vec::with_capacity(len.min(1 << 20));
                    for _ in 0..len {
                        let record = codec::get_u64(buf)?;
                        rows.push((record, Row::decode(buf)?));
                    }
                    scans.push(rows);
                }
                Ok(SiteResponse::Rows { keys, scans })
            }
            RESP_LEAP_RELEASED => Ok(SiteResponse::LeapReleased {
                records: codec::decode_seq(buf)?,
            }),
            RESP_LEAP_GRANTED => Ok(SiteResponse::LeapGranted),
            RESP_REPLICA_SNAPSHOTTED => Ok(SiteResponse::ReplicaSnapshotted {
                records: codec::decode_seq(buf)?,
                src_svv: VersionVector::decode(buf)?,
            }),
            RESP_REPLICA_ADDED => Ok(SiteResponse::ReplicaAdded {
                svv: VersionVector::decode(buf)?,
            }),
            RESP_REPLICA_DROPPED => Ok(SiteResponse::ReplicaDropped {
                purged_rows: codec::get_u64(buf)?,
                purged_bytes: codec::get_u64(buf)?,
            }),
            RESP_VV => Ok(SiteResponse::Vv {
                svv: VersionVector::decode(buf)?,
            }),
            RESP_FENCED => Ok(SiteResponse::Fenced {
                svv: VersionVector::decode(buf)?,
                mastered: decode_partitions(buf)?,
            }),
            RESP_ERROR => Ok(SiteResponse::Error {
                error: RemoteError::decode(buf)?,
            }),
            _ => Err(DynaError::Codec {
                what: "site response tag",
                needed: 0,
                remaining: buf.remaining(),
            }),
        }
    }
}

/// Decodes a response payload, converting `Error` responses into `Err`.
pub fn expect_ok(payload: &Bytes) -> Result<SiteResponse> {
    let mut slice = payload.clone();
    match SiteResponse::decode(&mut slice)? {
        SiteResponse::Error { error } => Err(error.into()),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::TableId;
    use dynamast_common::Value;

    fn roundtrip_req(req: SiteRequest) {
        let buf = codec::encode_to_vec(&req);
        assert_eq!(buf.len(), req.encoded_len(), "len mismatch for {req:?}");
        let mut slice = &buf[..];
        assert_eq!(SiteRequest::decode(&mut slice).unwrap(), req);
        assert!(slice.is_empty());
    }

    fn roundtrip_resp(resp: SiteResponse) {
        let buf = codec::encode_to_vec(&resp);
        assert_eq!(buf.len(), resp.encoded_len(), "len mismatch for {resp:?}");
        let mut slice = &buf[..];
        assert_eq!(SiteResponse::decode(&mut slice).unwrap(), resp);
        assert!(slice.is_empty());
    }

    fn sample_proc() -> ProcCall {
        ProcCall {
            proc_id: 3,
            args: Bytes::from_static(b"args"),
            write_set: vec![Key::new(TableId::new(0), 1)],
            read_keys: vec![],
            read_ranges: vec![],
        }
    }

    #[test]
    fn all_requests_roundtrip() {
        let vv = VersionVector::from_counts(vec![1, 2]);
        roundtrip_req(SiteRequest::ExecUpdate {
            txn_id: 41,
            min_vv: vv.clone(),
            proc: sample_proc(),
            check_mastery: true,
        });
        roundtrip_req(SiteRequest::ExecRead {
            txn_id: 0,
            min_vv: vv.clone(),
            proc: sample_proc(),
            mode: ReadMode::Snapshot,
        });
        roundtrip_req(SiteRequest::Release {
            moves: vec![(PartitionId::new(4), 9)],
            generation: 2,
        });
        roundtrip_req(SiteRequest::Release {
            moves: vec![(PartitionId::new(4), 9), (PartitionId::new(6), 10)],
            generation: 2,
        });
        roundtrip_req(SiteRequest::Release {
            moves: vec![],
            generation: 0,
        });
        roundtrip_req(SiteRequest::Grant {
            grants: vec![
                (PartitionId::new(4), 9, vv.clone()),
                (PartitionId::new(6), 10, VersionVector::zero(2)),
            ],
            generation: 2,
        });
        roundtrip_req(SiteRequest::Grant {
            grants: vec![],
            generation: 2,
        });
        roundtrip_req(SiteRequest::ExecCoordinated {
            txn_id: 42,
            min_vv: vv.clone(),
            proc: sample_proc(),
            mode: ReadMode::Latest,
        });
        roundtrip_req(SiteRequest::Prepare {
            txn_id: 77,
            writes: vec![WriteEntry {
                key: Key::new(TableId::new(0), 2),
                row: Row::new(vec![Value::U64(5)]),
            }],
            expected: vec![
                ExpectedVersion {
                    key: Key::new(TableId::new(0), 2),
                    stamp: Some(dynamast_storage::VersionStamp::new(SiteId::new(1), 9)),
                },
                ExpectedVersion {
                    key: Key::new(TableId::new(0), 3),
                    stamp: None,
                },
            ],
        });
        roundtrip_req(SiteRequest::Decide {
            txn_id: 77,
            commit: true,
        });
        roundtrip_req(SiteRequest::RemoteRead {
            keys: vec![Key::new(TableId::new(1), 3)],
            ranges: vec![ScanRange {
                table: TableId::new(1),
                start: 0,
                end: 10,
            }],
        });
        roundtrip_req(SiteRequest::LeapRelease {
            partitions: vec![PartitionId::new(1), PartitionId::new(2)],
        });
        roundtrip_req(SiteRequest::LeapGrant {
            partitions: vec![PartitionId::new(1)],
            records: vec![ImageRecord {
                key: Key::new(TableId::new(0), 9),
                stamp: dynamast_storage::VersionStamp::new(SiteId::new(2), 11),
                row: Row::new(vec![Value::I64(-1)]),
            }],
        });
        roundtrip_req(SiteRequest::GetVv);
        roundtrip_req(SiteRequest::FenceSelector { generation: 7 });
        roundtrip_req(SiteRequest::ReplicaSnapshot {
            partition: PartitionId::new(3),
        });
        roundtrip_req(SiteRequest::AddReplica {
            partition: PartitionId::new(3),
            records: vec![ImageRecord {
                key: Key::new(TableId::new(0), 9),
                stamp: dynamast_storage::VersionStamp::new(SiteId::new(1), 4),
                row: Row::new(vec![Value::U64(8)]),
            }],
            src_svv: vv.clone(),
            generation: 2,
        });
        roundtrip_req(SiteRequest::DropReplica {
            partition: PartitionId::new(3),
            generation: 2,
        });
    }

    #[test]
    fn all_responses_roundtrip() {
        let vv = VersionVector::from_counts(vec![3, 0, 1]);
        roundtrip_resp(SiteResponse::Executed {
            result: Bytes::from_static(b"ok"),
            commit_vv: vv.clone(),
            timings: ExecTimings {
                begin_us: 1,
                exec_us: 2,
                commit_us: 3,
            },
        });
        roundtrip_resp(SiteResponse::ReadDone {
            result: Bytes::new(),
            site_vv: vv.clone(),
            timings: ExecTimings::default(),
        });
        roundtrip_resp(SiteResponse::Released {
            results: vec![Ok(vv.clone())],
        });
        roundtrip_resp(SiteResponse::Released {
            results: vec![
                Ok(vv.clone()),
                Err(RemoteError::NotMaster {
                    site: SiteId::new(1),
                    partition: PartitionId::new(5),
                }),
                Ok(VersionVector::zero(3)),
            ],
        });
        roundtrip_resp(SiteResponse::Granted {
            results: vec![
                Err(RemoteError::NotReplica {
                    site: SiteId::new(2),
                    partition: PartitionId::new(5),
                }),
                Ok(vv.clone()),
                Err(RemoteError::StaleSelector {
                    observed: 1,
                    current: 2,
                }),
                Err(RemoteError::Internal),
            ],
        });
        roundtrip_resp(SiteResponse::Granted { results: vec![] });
        roundtrip_resp(SiteResponse::Voted { yes: false });
        roundtrip_resp(SiteResponse::Decided {
            site_vv: vv.clone(),
        });
        roundtrip_resp(SiteResponse::Rows {
            keys: vec![
                (Key::new(TableId::new(0), 1), None),
                (
                    Key::new(TableId::new(0), 2),
                    Some((
                        Row::new(vec![Value::U64(7)]),
                        dynamast_storage::VersionStamp::new(SiteId::new(2), 4),
                    )),
                ),
            ],
            scans: vec![vec![], vec![(5, Row::new(vec![Value::Str("a".into())]))]],
        });
        roundtrip_resp(SiteResponse::LeapReleased { records: vec![] });
        roundtrip_resp(SiteResponse::LeapGranted);
        roundtrip_resp(SiteResponse::Fenced {
            svv: vv.clone(),
            mastered: vec![PartitionId::new(0), PartitionId::new(5)],
        });
        roundtrip_resp(SiteResponse::Vv { svv: vv.clone() });
        roundtrip_resp(SiteResponse::Error {
            error: RemoteError::NotMaster {
                site: SiteId::new(1),
                partition: PartitionId::new(8),
            },
        });
        roundtrip_resp(SiteResponse::Error {
            error: RemoteError::Aborted,
        });
        roundtrip_resp(SiteResponse::Error {
            error: RemoteError::StaleSelector {
                observed: 3,
                current: 8,
            },
        });
        roundtrip_resp(SiteResponse::ReplicaSnapshotted {
            records: vec![ImageRecord {
                key: Key::new(TableId::new(0), 2),
                stamp: dynamast_storage::VersionStamp::new(SiteId::new(0), 1),
                row: Row::new(vec![Value::I64(5)]),
            }],
            src_svv: vv.clone(),
        });
        roundtrip_resp(SiteResponse::ReplicaAdded { svv: vv.clone() });
        roundtrip_resp(SiteResponse::ReplicaDropped {
            purged_rows: 100,
            purged_bytes: 4096,
        });
        roundtrip_resp(SiteResponse::Error {
            error: RemoteError::NotReplica {
                site: SiteId::new(2),
                partition: PartitionId::new(6),
            },
        });
    }

    #[test]
    fn expect_ok_converts_errors() {
        let resp = SiteResponse::Error {
            error: RemoteError::ShuttingDown,
        };
        let payload = Bytes::from(codec::encode_to_vec(&resp));
        assert_eq!(expect_ok(&payload).unwrap_err(), DynaError::ShuttingDown);
        let ok = SiteResponse::LeapGranted;
        let payload = Bytes::from(codec::encode_to_vec(&ok));
        assert_eq!(expect_ok(&payload).unwrap(), SiteResponse::LeapGranted);
    }

    #[test]
    fn remote_error_conversion_roundtrips_semantics() {
        let e = DynaError::NotMaster {
            site: SiteId::new(3),
            partition: PartitionId::new(1),
        };
        let r: RemoteError = e.clone().into();
        let back: DynaError = r.into();
        assert_eq!(back, e);
    }
}

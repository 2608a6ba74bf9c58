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
//!
//! Each message type is declared once, through [`dynamast_common::wire!`]:
//! the declaration is the byte layout. A variant's `= n` is its tag byte,
//! and its fields follow in declaration order, each in its type's encoding
//! (`dynamast_common::codec`). Tags 13 and 14 belonged to deleted messages
//! and stay unassigned, so every other message keeps its bytes.

use bytes::Bytes;
use dynamast_common::codec::Decode;
use dynamast_common::ids::{Key, PartitionId, RecordId, SiteId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_replication::record::WriteEntry;
use dynamast_storage::{ImageRecord, VersionStamp};

use crate::proc::{ProcCall, ReadMode, ScanRange};

dynamast_common::wire! {
    /// The version a 2PC coordinator read for a key it intends to overwrite.
    /// Participants validate it under locks at prepare time (first-committer-
    /// wins): if the key's latest version no longer matches, the participant
    /// votes no and the coordinator re-executes with fresh reads.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ExpectedVersion {
        /// Key to validate.
        pub key: Key,
        /// The stamp the coordinator read; `None` = key did not exist.
        pub stamp: Option<VersionStamp>,
    }
}

dynamast_common::wire! {
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
}

dynamast_common::wire! {
    /// Requests a data site serves.
    #[derive(Clone, Debug, PartialEq)]
    pub enum SiteRequest {
        /// Execute and locally commit an update transaction.
        ExecUpdate {
            /// Flight-recorder trace id (0 = untraced). Carried on the wire
            /// so site-side begin/execute/commit events join the selector's
            /// routing events on one causal timeline.
            txn_id: u64,
            /// Freshness floor: max of client session vector and remaster
            /// out-vv (Algorithm 1).
            min_vv: VersionVector,
            /// The transaction.
            proc: ProcCall,
            /// Verify mastership of the write set (DynaMast; also detects
            /// stale distributed-selector routing per Appendix I).
            check_mastery: bool,
        } = 1,
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
        } = 2,
        /// Release mastership of partitions (dynamic mastering, §III-B):
        /// every move of one remaster that leaves this site rides one RPC.
        /// Each move is drained, logged and ledgered on its own; a single
        /// move is a vector of one.
        Release {
            /// `(partition, selector-assigned remastering epoch)` per move.
            moves: Vec<(PartitionId, u64)>,
            /// Fencing token: the sending selector's generation. Sites reject
            /// generations below their fence watermark (`StaleSelector`).
            generation: u64,
        } = 3,
        /// Take mastership of partitions (dynamic mastering, §III-B).
        Grant {
            /// `(partition, epoch, rel_vv)` per move: `rel_vv` is the
            /// releasing site's svv at release; the grantee waits until its
            /// own svv dominates it.
            grants: Vec<(PartitionId, u64, VersionVector)>,
            /// Fencing token: the sending selector's generation.
            generation: u64,
        } = 4,
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
        } = 5,
        /// 2PC phase one: lock and stage writes, vote.
        Prepare {
            /// Globally unique transaction id.
            txn_id: u64,
            /// After-images this participant owns.
            writes: Vec<WriteEntry>,
            /// Read versions to validate under locks (first-committer-wins).
            expected: Vec<ExpectedVersion>,
        } = 6,
        /// 2PC phase two: commit or abort a prepared transaction.
        Decide {
            /// Transaction id from the prepare.
            txn_id: u64,
            /// `true` to commit, `false` to abort.
            commit: bool,
        } = 7,
        /// Point/range reads served to a remote 2PC coordinator
        /// (partition-store's multi-site read-only transactions).
        RemoteRead {
            /// Point reads.
            keys: Vec<Key>,
            /// Range scans.
            ranges: Vec<ScanRange>,
        } = 8,
        /// LEAP: give up ownership of partitions and ship their records.
        LeapRelease {
            /// Partitions to release.
            partitions: Vec<PartitionId>,
        } = 9,
        /// LEAP: take ownership of partitions, installing shipped records.
        LeapGrant {
            /// Partitions granted.
            partitions: Vec<PartitionId>,
            /// Shipped records to install.
            records: Vec<ImageRecord>,
        } = 10,
        /// Cut a copy-installation snapshot of one partition (partial
        /// replication): the serving site takes its svv as the cut and
        /// images the partition's rows visible at that cut, which the
        /// selector ships to the new replica via [`SiteRequest::AddReplica`]
        /// (the LEAP shipping idiom minus the ownership revoke — the source
        /// keeps serving).
        ReplicaSnapshot {
            /// Partition to snapshot.
            partition: PartitionId,
        } = 15,
        /// Install a copy of one partition at this site: snapshot records
        /// cut at `src_svv`, after which the site catches the partition up
        /// from its own logs and refresh buffer before marking it hosted.
        AddReplica {
            /// Partition to host.
            partition: PartitionId,
            /// Snapshot records from the serving replica.
            records: Vec<ImageRecord>,
            /// The serving replica's svv at the snapshot cut.
            src_svv: VersionVector,
            /// Fencing token: the sending selector's generation.
            generation: u64,
        } = 16,
        /// Drop this site's copy of one partition (shrink provisioning). The
        /// site refuses while it masters the partition.
        DropReplica {
            /// Partition to drop.
            partition: PartitionId,
            /// Fencing token: the sending selector's generation.
            generation: u64,
        } = 17,
        /// Fetch the site's current svv.
        GetVv = 11,
        /// Install a selector fence: the site raises its generation
        /// watermark to `generation` (rejecting any lower-generation
        /// remaster afterwards) and returns a snapshot of its svv and live
        /// mastered partitions — the inputs a promoting standby needs for
        /// reconciliation (§V-C).
        FenceSelector {
            /// The promoting selector's generation.
            generation: u64,
        } = 12,
    }
}

dynamast_common::wire! {
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
        } = 1,
        /// Read-only transaction finished.
        ReadDone {
            /// Procedure result payload.
            result: Bytes,
            /// Site svv observed (client merges into its session vector).
            site_vv: VersionVector,
            /// Server-side timing breakdown.
            timings: ExecTimings,
        } = 2,
        /// Release finished; per-move outcomes.
        Released {
            /// Parallel to the request's `moves`: the site's svv at each
            /// release point, or why that move's release failed (the others
            /// are unaffected).
            results: Vec<std::result::Result<VersionVector, RemoteError>>,
        } = 3,
        /// Grant finished; per-move outcomes.
        Granted {
            /// Parallel to the request's `grants`: the site's svv when it
            /// took ownership, or why that grant failed.
            results: Vec<std::result::Result<VersionVector, RemoteError>>,
        } = 4,
        /// 2PC vote.
        Voted {
            /// `true` = yes.
            yes: bool,
        } = 5,
        /// 2PC decision applied.
        Decided {
            /// Participant svv after the decision.
            site_vv: VersionVector,
        } = 6,
        /// Remote-read results: one entry per requested key (None = absent),
        /// then one row set per requested range. Point reads carry version
        /// stamps so the coordinator can validate write-set reads at
        /// prepare.
        Rows {
            /// Point-read results, parallel to the request's `keys`.
            keys: Vec<(Key, Option<(Row, VersionStamp)>)>,
            /// Scan results, parallel to the request's `ranges`.
            scans: Vec<Vec<(RecordId, Row)>>,
        } = 7,
        /// LEAP release finished; ownership and records handed over.
        LeapReleased {
            /// All records of the released partitions.
            records: Vec<ImageRecord>,
        } = 8,
        /// LEAP grant installed.
        LeapGranted = 9,
        /// Replica snapshot cut; records and cut vector attached.
        ReplicaSnapshotted {
            /// The partition's rows visible at the cut.
            records: Vec<ImageRecord>,
            /// The serving site's svv at the cut.
            src_svv: VersionVector,
        } = 15,
        /// Copy installed and caught up; the partition is hosted here.
        ReplicaAdded {
            /// The new replica's svv after catch-up (dominates the snapshot
            /// cut).
            svv: VersionVector,
        } = 16,
        /// Copy dropped and its rows purged.
        ReplicaDropped {
            /// Rows purged from the store.
            purged_rows: u64,
            /// Bytes freed from the resident footprint.
            purged_bytes: u64,
        } = 17,
        /// Current svv.
        Vv {
            /// The site's svv.
            svv: VersionVector,
        } = 10,
        /// Selector fence installed; reconciliation snapshot attached.
        Fenced {
            /// The site's svv at fencing time.
            svv: VersionVector,
            /// Partitions the site's live ownership table masters.
            mastered: Vec<PartitionId>,
        } = 12,
        /// The request failed.
        Error {
            /// The failure.
            error: RemoteError,
        } = 11,
    }
}

dynamast_common::wire! {
    /// Wire-encodable subset of [`DynaError`] for cross-site failures.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RemoteError {
        /// Mastership check failed (Appendix I stale-routing signal).
        NotMaster {
            /// Rejecting site.
            site: SiteId,
            /// Offending partition.
            partition: PartitionId,
        } = 1,
        /// The transaction aborted (2PC no-vote or decision).
        Aborted = 2,
        /// The site is shutting down.
        ShuttingDown = 3,
        /// The request carried a selector generation below the site's fence
        /// watermark: the sender is a deposed selector.
        StaleSelector {
            /// Generation the rejected request carried.
            observed: u64,
            /// Generation the site is fenced to.
            current: u64,
        } = 5,
        /// The site holds no (fully installed) copy of the partition
        /// (partial replication): reads routed here must retry at a hosting
        /// replica.
        NotReplica {
            /// Rejecting site.
            site: SiteId,
            /// Partition the site does not host.
            partition: PartitionId,
        } = 6,
        /// Any other failure.
        Internal = 4,
    }
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
    use dynamast_common::codec::{self, Encode};
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
    fn a_move_count_the_input_cannot_hold_is_an_error() {
        let mut bytes = codec::encode_to_vec(&SiteRequest::Release {
            moves: vec![(PartitionId::new(4), 9)],
            generation: 2,
        });
        bytes[1..5].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(SiteRequest::decode(&mut &bytes[..]).is_err());
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

//! Golden bytes: the encoding of every RPC request and response variant,
//! every remote error, every log record kind and an image record, pinned as
//! byte literals.
//!
//! Round-trip tests cannot see a layout change — an encoder and a decoder
//! that drift together still agree with each other. These literals can: a
//! moved tag, a widened field or a reordered pair fails here. Traffic
//! accounting (paper Appendix D), LEAP's shipped bytes, log segments and
//! checkpoint files all depend on this layout staying put.
//!
//! Every integer is big-endian. Fragments shared between cases are named
//! constants; `|` and whitespace in a literal only separate fields.

use bytes::Bytes;
use dynamast::common::codec::{encode_to_vec, Decode, Encode};
use dynamast::common::ids::{Key, PartitionId, SiteId, TableId};
use dynamast::common::{Row, Value, VersionVector};
use dynamast::replication::record::{LogRecord, WriteEntry};
use dynamast::site::messages::{
    ExecTimings, ExpectedVersion, RemoteError, SiteRequest, SiteResponse,
};
use dynamast::site::proc::{ProcCall, ReadMode, ScanRange};
use dynamast::storage::{ImageRecord, VersionStamp};

/// `vv[1, 2]`: `u32` dimension count, then one `u64` per site.
const VV: &str = "00000002 | 0000000000000001 0000000000000002";
/// `t1/5`: `u32` table, `u64` record.
const KEY: &str = "00000001 0000000000000005";
/// `[U64(7)]`: `u32` arity, then tag `00` + `u64` per cell.
const ROW: &str = "00000001 | 00 0000000000000007";
/// `["ab"]`: tag `02`, `u32` length, UTF-8 bytes.
const ROW_STR: &str = "00000001 | 02 00000002 6162";
/// `(S2, 9)`: `u32` origin, `u64` sequence.
const STAMP: &str = "00000002 0000000000000009";
/// `p4` / `p6`: `u64`.
const P4: &str = "0000000000000004";
const P6: &str = "0000000000000006";
/// `t1 [10, 20)`: `u32` table, `u64` start, `u64` end.
const RANGE: &str = "00000001 000000000000000a 0000000000000014";

fn key() -> Key {
    Key::new(TableId::new(1), 5)
}

fn vv() -> VersionVector {
    VersionVector::from_counts(vec![1, 2])
}

fn row() -> Row {
    Row::new(vec![Value::U64(7)])
}

fn stamp() -> VersionStamp {
    VersionStamp::new(SiteId::new(2), 9)
}

fn image() -> ImageRecord {
    ImageRecord {
        key: key(),
        stamp: stamp(),
        row: row(),
    }
}

/// `key | stamp | row`.
fn image_hex() -> String {
    format!("{KEY} | {STAMP} | {ROW}")
}

fn range() -> ScanRange {
    ScanRange {
        table: TableId::new(1),
        start: 10,
        end: 20,
    }
}

fn proc_call() -> ProcCall {
    ProcCall {
        proc_id: 3,
        args: Bytes::from_static(b"xy"),
        write_set: vec![key()],
        read_keys: vec![],
        read_ranges: vec![range()],
    }
}

/// `u32` proc id | `u32`-length args | write set | read keys | read ranges,
/// each sequence behind a `u32` count.
fn proc_hex() -> String {
    format!("00000003 | 00000002 7879 | 00000001 {KEY} | 00000000 | 00000001 {RANGE}")
}

fn p(raw: usize) -> PartitionId {
    PartitionId::new(raw)
}

fn hex(literal: &str) -> Vec<u8> {
    let digits: Vec<u8> = literal
        .bytes()
        .filter(|b| !b.is_ascii_whitespace() && *b != b'|')
        .collect();
    assert!(
        digits.len().is_multiple_of(2),
        "odd digit count in {literal:?}"
    );
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// `value` encodes to exactly `literal`, reports that length, and decodes
/// back from it consuming every byte.
fn pin<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T, literal: &str) {
    let golden = hex(literal);
    assert_eq!(encode_to_vec(&value), golden, "layout of {value:?}");
    assert_eq!(value.encoded_len(), golden.len(), "length of {value:?}");
    let mut slice = &golden[..];
    assert_eq!(T::decode(&mut slice).unwrap(), value);
    assert!(slice.is_empty(), "{value:?} left bytes behind");
}

#[test]
fn every_site_request_variant_keeps_its_bytes() {
    let proc = proc_hex();
    pin(
        SiteRequest::ExecUpdate {
            txn_id: 41,
            min_vv: vv(),
            proc: proc_call(),
            check_mastery: true,
        },
        &format!("01 | 0000000000000029 | {VV} | {proc} | 01"),
    );
    pin(
        SiteRequest::ExecRead {
            txn_id: 41,
            min_vv: vv(),
            proc: proc_call(),
            mode: ReadMode::Snapshot,
        },
        &format!("02 | 0000000000000029 | {VV} | {proc} | 00"),
    );
    pin(
        SiteRequest::Release {
            moves: vec![(p(4), 9), (p(6), 10)],
            generation: 2,
        },
        &format!(
            "03 | 00000002 | {P4} 0000000000000009 | {P6} 000000000000000a | 0000000000000002"
        ),
    );
    pin(
        SiteRequest::Grant {
            grants: vec![(p(4), 9, vv())],
            generation: 2,
        },
        &format!("04 | 00000001 | {P4} 0000000000000009 {VV} | 0000000000000002"),
    );
    pin(
        SiteRequest::Prepare {
            txn_id: 77,
            writes: vec![WriteEntry::new(key(), row())],
            expected: vec![
                ExpectedVersion {
                    key: key(),
                    stamp: Some(stamp()),
                },
                ExpectedVersion {
                    key: key(),
                    stamp: None,
                },
            ],
        },
        &format!(
            "06 | 000000000000004d | 00000001 {KEY} {ROW} | 00000002 {KEY} 01 {STAMP} | {KEY} 00"
        ),
    );
    pin(
        SiteRequest::Decide {
            txn_id: 77,
            commit: false,
        },
        "07 | 000000000000004d | 00",
    );
    pin(
        SiteRequest::RemoteRead {
            keys: vec![key()],
            ranges: vec![range()],
        },
        &format!("08 | 00000001 {KEY} | 00000001 {RANGE}"),
    );
    pin(
        SiteRequest::LeapRelease {
            partitions: vec![p(4), p(6)],
        },
        &format!("09 | 00000002 {P4} {P6}"),
    );
    pin(
        SiteRequest::LeapGrant {
            partitions: vec![p(4)],
            records: vec![image()],
        },
        &format!("0a | 00000001 {P4} | 00000001 {}", image_hex()),
    );
    pin(SiteRequest::GetVv, "0b");
    pin(
        SiteRequest::FenceSelector { generation: 7 },
        "0c | 0000000000000007",
    );
    pin(
        SiteRequest::ReplicaSnapshot { partition: p(4) },
        &format!("0f | {P4}"),
    );
    pin(
        SiteRequest::AddReplica {
            partition: p(4),
            records: vec![image()],
            src_svv: vv(),
            generation: 2,
        },
        &format!(
            "10 | {P4} | 00000001 {} | {VV} | 0000000000000002",
            image_hex()
        ),
    );
    pin(
        SiteRequest::DropReplica {
            partition: p(4),
            generation: 2,
        },
        &format!("11 | {P4} | 0000000000000002"),
    );
}

#[test]
fn every_site_response_variant_keeps_its_bytes() {
    pin(
        SiteResponse::Executed {
            result: Bytes::from_static(b"ok"),
            commit_vv: vv(),
            timings: ExecTimings {
                begin_us: 1,
                exec_us: 2,
                commit_us: 3,
            },
        },
        &format!("01 | 00000002 6f6b | {VV} | 00000001 00000002 00000003"),
    );
    pin(
        SiteResponse::ReadDone {
            result: Bytes::new(),
            site_vv: vv(),
            timings: ExecTimings::default(),
        },
        &format!("02 | 00000000 | {VV} | 00000000 00000000 00000000"),
    );
    pin(
        SiteResponse::Released {
            results: vec![Ok(vv()), Err(RemoteError::Aborted)],
        },
        &format!("03 | 00000002 | 01 {VV} | 00 02"),
    );
    pin(
        SiteResponse::Granted {
            results: vec![Err(RemoteError::NotReplica {
                site: SiteId::new(2),
                partition: p(4),
            })],
        },
        &format!("04 | 00000001 | 00 06 00000002 {P4}"),
    );
    pin(SiteResponse::Voted { yes: true }, "05 | 01");
    pin(
        SiteResponse::Decided { site_vv: vv() },
        &format!("06 | {VV}"),
    );
    pin(
        SiteResponse::Rows {
            keys: vec![(key(), None), (key(), Some((row(), stamp())))],
            scans: vec![vec![], vec![(5, Row::new(vec![Value::Str("ab".into())]))]],
        },
        &format!(
            "07 | 00000002 {KEY} 00 | {KEY} 01 {ROW} {STAMP} \
             | 00000002 | 00000000 | 00000001 0000000000000005 {ROW_STR}"
        ),
    );
    pin(
        SiteResponse::LeapReleased {
            records: vec![image()],
        },
        &format!("08 | 00000001 {}", image_hex()),
    );
    pin(SiteResponse::LeapGranted, "09");
    pin(SiteResponse::Vv { svv: vv() }, &format!("0a | {VV}"));
    pin(
        SiteResponse::Error {
            error: RemoteError::NotMaster {
                site: SiteId::new(1),
                partition: p(4),
            },
        },
        &format!("0b | 01 00000001 {P4}"),
    );
    pin(
        SiteResponse::Fenced {
            svv: vv(),
            mastered: vec![p(4)],
        },
        &format!("0c | {VV} | 00000001 {P4}"),
    );
    pin(
        SiteResponse::ReplicaSnapshotted {
            records: vec![image()],
            src_svv: vv(),
        },
        &format!("0f | 00000001 {} | {VV}", image_hex()),
    );
    pin(
        SiteResponse::ReplicaAdded { svv: vv() },
        &format!("10 | {VV}"),
    );
    pin(
        SiteResponse::ReplicaDropped {
            purged_rows: 100,
            purged_bytes: 4096,
        },
        "11 | 0000000000000064 | 0000000000001000",
    );
}

#[test]
fn every_remote_error_keeps_its_bytes() {
    pin(
        RemoteError::NotMaster {
            site: SiteId::new(1),
            partition: p(4),
        },
        &format!("01 | 00000001 | {P4}"),
    );
    pin(RemoteError::Aborted, "02");
    pin(RemoteError::ShuttingDown, "03");
    pin(RemoteError::Internal, "04");
    pin(
        RemoteError::StaleSelector {
            observed: 3,
            current: 8,
        },
        "05 | 0000000000000003 | 0000000000000008",
    );
    pin(
        RemoteError::NotReplica {
            site: SiteId::new(2),
            partition: p(4),
        },
        &format!("06 | 00000002 | {P4}"),
    );
}

#[test]
fn every_log_record_kind_keeps_its_bytes() {
    pin(
        LogRecord::Commit {
            origin: SiteId::new(1),
            tvv: vv(),
            writes: vec![WriteEntry::new(key(), row())],
        },
        &format!("01 | 00000001 | {VV} | 00000001 {KEY} {ROW}"),
    );
    pin(
        LogRecord::Release {
            origin: SiteId::new(0),
            sequence: 3,
            partition: p(4),
            epoch: 9,
        },
        &format!("02 | 00000000 | 0000000000000003 | {P4} | 0000000000000009"),
    );
    pin(
        LogRecord::Grant {
            origin: SiteId::new(2),
            sequence: 8,
            partition: p(6),
            epoch: 9,
        },
        &format!("03 | 00000002 | 0000000000000008 | {P6} | 0000000000000009"),
    );
    pin(
        LogRecord::Noop {
            origin: SiteId::new(2),
            sequence: 17,
        },
        "04 | 00000002 | 0000000000000011",
    );
}

#[test]
fn an_image_record_keeps_its_bytes() {
    pin(image(), &image_hex());
    pin(
        ImageRecord {
            key: Key::new(TableId::new(0), 1 << 40),
            stamp: VersionStamp::new(SiteId::new(0), u64::MAX),
            row: Row::new(vec![Value::I64(-2), Value::Bytes(vec![0xAB])]),
        },
        "00000000 0000010000000000 | 00000000 ffffffffffffffff \
         | 00000002 | 01 fffffffffffffffe | 03 00000001 ab",
    );
}

#[test]
fn unassigned_tags_are_refused() {
    // 5 (requests only), 13 and 14 are gaps left by deleted messages; 0
    // and 18 were never used.
    for tag in [0u8, 13, 14, 18, 0xff] {
        assert!(
            SiteRequest::decode(&mut &[tag][..]).is_err(),
            "request {tag}"
        );
        assert!(
            SiteResponse::decode(&mut &[tag][..]).is_err(),
            "response {tag}"
        );
    }
    assert!(SiteRequest::decode(&mut &[5u8][..]).is_err(), "request 5");
    for tag in [0u8, 7] {
        assert!(RemoteError::decode(&mut &[tag][..]).is_err(), "error {tag}");
    }
    for tag in [0u8, 5] {
        assert!(LogRecord::decode(&mut &[tag][..]).is_err(), "record {tag}");
    }
}

//! Log record types.
//!
//! Every record originates at exactly one site and occupies one slot in that
//! site's commit order; applying a record at another site advances that
//! site's `svv[origin]` to the record's sequence number. Four kinds exist:
//!
//! * [`LogRecord::Commit`] — an update transaction's redo: its commit
//!   timestamp (`tvv`) and after-image writes. Applied remotely as a refresh
//!   transaction.
//! * [`LogRecord::Release`] / [`LogRecord::Grant`] — mastership transfer
//!   operations (§V-C logs these for recovery). They carry no data — they are
//!   the "metadata-only" operations of the dynamic mastering protocol — but
//!   they do occupy commit-order slots, which yields the version-vector
//!   increment the SI proof (Appendix A, Case 2) relies on and lets a
//!   recovering site selector reconstruct the mastership map in a
//!   well-defined order via per-partition epochs.
//! * [`LogRecord::Noop`] — a tombstone filled into a reserved slot whose
//!   committer died before completing; it keeps the origin's sequence space
//!   gap-free so nothing downstream wedges.

use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::{Row, VersionVector};

dynamast_common::wire! {
    /// One write in a commit record: key and after-image.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WriteEntry {
        /// Record written.
        pub key: Key,
        /// After-image row.
        pub row: Row,
    }
}

impl WriteEntry {
    /// Builds an entry, taking the after-image by value so callers hand rows
    /// over rather than cloning them into the record.
    pub fn new(key: Key, row: Row) -> Self {
        WriteEntry { key, row }
    }
}

dynamast_common::wire! {
    /// A record in a site's durable log.
    #[derive(Clone, Debug, PartialEq)]
    pub enum LogRecord {
        /// An update transaction's commit.
        Commit {
            /// Site the transaction committed at.
            origin: SiteId,
            /// Commit timestamp (`tvv`); `tvv[origin]` is this record's
            /// sequence in the origin's commit order.
            tvv: VersionVector,
            /// After-image writes.
            writes: Vec<WriteEntry>,
        } = 1,
        /// The origin released mastership of `partition`.
        Release {
            /// Releasing site.
            origin: SiteId,
            /// This operation's sequence in the origin's commit order.
            sequence: u64,
            /// Partition released.
            partition: PartitionId,
            /// Selector-assigned remastering epoch for the partition;
            /// strictly increasing per partition across the whole system.
            epoch: u64,
        } = 2,
        /// The origin was granted mastership of `partition`.
        Grant {
            /// Granted site.
            origin: SiteId,
            /// This operation's sequence in the origin's commit order.
            sequence: u64,
            /// Partition granted.
            partition: PartitionId,
            /// Selector-assigned remastering epoch (matches the paired
            /// release).
            epoch: u64,
        } = 3,
        /// A tombstone for an aborted log reservation: the sequence was
        /// drawn but its committer died before filling the slot
        /// ([`crate::log::DurableLog::abort`]). It occupies the slot's place
        /// in the origin's commit order — peers and recovery advance
        /// `svv[origin]` over it without installing anything — so an
        /// abandoned reservation cannot wedge the visibility watermark or
        /// the per-origin in-order refresh admission.
        Noop {
            /// Site whose commit order the dead reservation belonged to.
            origin: SiteId,
            /// The abandoned sequence number.
            sequence: u64,
        } = 4,
    }
}

impl LogRecord {
    /// The site whose log this record belongs to.
    pub fn origin(&self) -> SiteId {
        match self {
            LogRecord::Commit { origin, .. }
            | LogRecord::Release { origin, .. }
            | LogRecord::Grant { origin, .. }
            | LogRecord::Noop { origin, .. } => *origin,
        }
    }

    /// The record's sequence number in its origin's commit order.
    pub fn sequence(&self) -> u64 {
        match self {
            LogRecord::Commit { origin, tvv, .. } => tvv.get(*origin),
            LogRecord::Release { sequence, .. }
            | LogRecord::Grant { sequence, .. }
            | LogRecord::Noop { sequence, .. } => *sequence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::codec::{self, Decode, Encode};
    use dynamast_common::ids::TableId;
    use dynamast_common::Value;

    #[test]
    fn commit_record_roundtrips() {
        let rec = LogRecord::Commit {
            origin: SiteId::new(1),
            tvv: VersionVector::from_counts(vec![0, 5, 2]),
            writes: vec![WriteEntry {
                key: Key::new(TableId::new(0), 7),
                row: Row::new(vec![Value::U64(9), Value::Str("x".into())]),
            }],
        };
        let buf = codec::encode_to_vec(&rec);
        assert_eq!(buf.len(), rec.encoded_len());
        let mut slice = &buf[..];
        assert_eq!(LogRecord::decode(&mut slice).unwrap(), rec);
        assert_eq!(rec.sequence(), 5);
        assert_eq!(rec.origin(), SiteId::new(1));
    }

    #[test]
    fn release_and_grant_roundtrip() {
        for rec in [
            LogRecord::Release {
                origin: SiteId::new(0),
                sequence: 3,
                partition: PartitionId::new(12),
                epoch: 44,
            },
            LogRecord::Grant {
                origin: SiteId::new(2),
                sequence: 8,
                partition: PartitionId::new(12),
                epoch: 44,
            },
        ] {
            let buf = codec::encode_to_vec(&rec);
            let mut slice = &buf[..];
            assert_eq!(LogRecord::decode(&mut slice).unwrap(), rec);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn noop_roundtrips() {
        let rec = LogRecord::Noop {
            origin: SiteId::new(2),
            sequence: 17,
        };
        let buf = codec::encode_to_vec(&rec);
        assert_eq!(buf.len(), rec.encoded_len());
        let mut slice = &buf[..];
        assert_eq!(LogRecord::decode(&mut slice).unwrap(), rec);
        assert_eq!(rec.sequence(), 17);
        assert_eq!(rec.origin(), SiteId::new(2));
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bad: &[u8] = &[99];
        assert!(LogRecord::decode(&mut bad).is_err());
    }
}

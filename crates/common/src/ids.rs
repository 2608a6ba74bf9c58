//! Strongly typed identifiers.
//!
//! The paper's unit of mastership is the *partition* (a group of data items,
//! §V-B): the site selector tracks one master location per partition and
//! remasters whole partitions. Records are addressed by `(table, record id)`
//! and map deterministically to a partition via the table's partition size.

use std::fmt;

use crate::codec::{Buf, BufMut, Decode, Encode};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name($inner);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: usize) -> Self {
                $name(raw as $inner)
            }

            /// The raw index, for vector indexing.
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }

            /// The raw value.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        /// On the wire: the raw value.
        impl Encode for $name {
            fn encode(&self, buf: &mut impl BufMut) {
                self.0.encode(buf);
            }

            fn encoded_len(&self) -> usize {
                self.0.encoded_len()
            }
        }

        impl Decode for $name {
            fn decode(buf: &mut impl Buf) -> crate::Result<Self> {
                <$inner>::decode(buf).map($name)
            }
        }
    };
}

id_type!(
    /// A data site (one replica-holding machine in the paper's deployment).
    SiteId,
    u32,
    "S"
);
id_type!(
    /// A client session. Each client owns a `cvv` session vector.
    ClientId,
    u64,
    "C"
);
id_type!(
    /// A table in the catalog.
    TableId,
    u32,
    "t"
);
id_type!(
    /// A partition: the unit of mastership tracking and remastering.
    PartitionId,
    u64,
    "p"
);

/// A record's primary key within its table.
pub type RecordId = u64;

crate::wire! {
    /// Fully qualified key of a record: `(table, record id)`.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct Key {
        /// Table the record belongs to.
        pub table: TableId,
        /// Primary key within the table.
        pub record: RecordId,
    }
}

impl Key {
    /// Builds a key.
    pub const fn new(table: TableId, record: RecordId) -> Self {
        Key { table, record }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{}", self.table, self.record)
    }
}

/// A globally unique partition handle: `(table, partition number)` packed into
/// a single [`PartitionId`].
///
/// The packing reserves bits 48..63 for the table — the topmost bit stays
/// clear, which lets downstream code use it for shadow keys — capping the
/// reproduction at 32,768 tables and ~2⁴⁸ partitions per table, far beyond
/// any workload here.
pub fn partition_id(table: TableId, partition_index: u64) -> PartitionId {
    debug_assert!(
        table.raw() < (1 << 15),
        "table id exceeds partition packing"
    );
    debug_assert!(
        partition_index < (1 << 48),
        "partition index exceeds partition packing"
    );
    PartitionId::new((((table.raw() as u64) << 48) | partition_index) as usize)
}

/// Inverse of [`partition_id`].
pub fn unpack_partition_id(pid: PartitionId) -> (TableId, u64) {
    let raw = pid.raw();
    (TableId::new((raw >> 48) as usize), raw & ((1 << 48) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_types_roundtrip_raw_values() {
        assert_eq!(SiteId::new(3).as_usize(), 3);
        assert_eq!(ClientId::new(42).raw(), 42);
        assert_eq!(format!("{}", PartitionId::new(7)), "p7");
        assert_eq!(format!("{:?}", SiteId::new(0)), "S0");
    }

    #[test]
    fn key_orders_by_table_then_record() {
        let a = Key::new(TableId::new(0), 99);
        let b = Key::new(TableId::new(1), 0);
        assert!(a < b);
    }

    #[test]
    fn partition_id_packs_and_unpacks() {
        let pid = partition_id(TableId::new(5), 123_456);
        let (t, p) = unpack_partition_id(pid);
        assert_eq!(t, TableId::new(5));
        assert_eq!(p, 123_456);
    }

    #[test]
    fn partition_ids_are_distinct_across_tables() {
        assert_ne!(
            partition_id(TableId::new(0), 1),
            partition_id(TableId::new(1), 1)
        );
    }

    #[test]
    fn key_codec_roundtrip() {
        use crate::codec::{Decode, Encode};
        let k = Key::new(TableId::new(9), 1 << 40);
        let mut buf = bytes::BytesMut::new();
        k.encode(&mut buf);
        assert_eq!(buf.len(), k.encoded_len());
        let mut b = buf.freeze();
        assert_eq!(Key::decode(&mut b).unwrap(), k);
    }
}

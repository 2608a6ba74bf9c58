//! Error types shared across the workspace.

use std::fmt;

use crate::ids::{Key, PartitionId, SiteId};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, DynaError>;

/// Errors surfaced by the DynaMast reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynaError {
    /// A byte-codec read ran out of input or met malformed data.
    Codec {
        /// What was being decoded.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        remaining: usize,
    },
    /// A referenced table does not exist in the catalog.
    NoSuchTable(u32),
    /// A read targeted a record that does not exist at the snapshot.
    NoSuchRecord(Key),
    /// A site received an operation for a partition it does not master.
    ///
    /// This is the signal for a routing made stale by a concurrent
    /// remaster; the client resubmits to the selector.
    NotMaster {
        /// The site that rejected the operation.
        site: SiteId,
        /// The partition whose mastership check failed.
        partition: PartitionId,
    },
    /// A site received an operation for a partition it does not hold a copy
    /// of (partial replication): the replica set changed under the router's
    /// feet, or a copy drop raced a read. The client re-routes against the
    /// refreshed replica map.
    NotReplica {
        /// The site that rejected the operation.
        site: SiteId,
        /// The partition the site holds no copy of.
        partition: PartitionId,
    },
    /// A two-phase-commit participant voted no, aborting the transaction.
    TxnAborted {
        /// Human-readable reason recorded by the coordinator.
        reason: &'static str,
    },
    /// An RPC could not be delivered (endpoint shut down or crashed).
    Network(&'static str),
    /// An RPC did not complete within its deadline: the request or reply was
    /// lost, the link is partitioned, or the retry budget ran out.
    Timeout {
        /// What was being waited on.
        op: &'static str,
        /// Elapsed budget in milliseconds when the deadline fired.
        ms: u64,
    },
    /// A data site rejected a remaster operation carrying a selector
    /// generation older than the highest one the site has observed: the
    /// sender is a deposed (zombie) selector and must not move mastership.
    StaleSelector {
        /// The generation the rejected request carried.
        observed: u64,
        /// The newest generation the site has been fenced to.
        current: u64,
    },
    /// The site is shutting down and rejects new work.
    ShuttingDown,
    /// An invariant that should be unreachable was violated.
    Internal(&'static str),
}

impl fmt::Display for DynaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynaError::Codec {
                what,
                needed,
                remaining,
            } => write!(
                f,
                "codec error decoding {what}: needed {needed} bytes, {remaining} remaining"
            ),
            DynaError::NoSuchTable(t) => write!(f, "no such table t{t}"),
            DynaError::NoSuchRecord(k) => write!(f, "no such record {k:?}"),
            DynaError::NotMaster { site, partition } => {
                write!(f, "{site} does not master {partition}")
            }
            DynaError::NotReplica { site, partition } => {
                write!(f, "{site} does not host {partition}")
            }
            DynaError::TxnAborted { reason } => write!(f, "transaction aborted: {reason}"),
            DynaError::Network(what) => write!(f, "network error: {what}"),
            DynaError::Timeout { op, ms } => write!(f, "timeout after {ms}ms: {op}"),
            DynaError::StaleSelector { observed, current } => write!(
                f,
                "stale selector generation {observed} rejected (site fenced to {current})"
            ),
            DynaError::ShuttingDown => write!(f, "site shutting down"),
            DynaError::Internal(what) => write!(f, "internal invariant violated: {what}"),
        }
    }
}

impl std::error::Error for DynaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = DynaError::NotMaster {
            site: SiteId::new(2),
            partition: PartitionId::new(9),
        };
        assert_eq!(e.to_string(), "S2 does not master p9");
        let e = DynaError::NotReplica {
            site: SiteId::new(1),
            partition: PartitionId::new(4),
        };
        assert_eq!(e.to_string(), "S1 does not host p4");
        let e = DynaError::NoSuchRecord(Key::new(TableId::new(1), 5));
        assert!(e.to_string().contains("t1/5"));
    }

    #[test]
    fn errors_are_comparable_for_test_assertions() {
        assert_eq!(DynaError::ShuttingDown, DynaError::ShuttingDown);
        assert_ne!(DynaError::Network("a"), DynaError::Internal("a"),);
        assert_ne!(
            DynaError::Timeout { op: "rpc", ms: 5 },
            DynaError::Network("rpc"),
        );
    }
}

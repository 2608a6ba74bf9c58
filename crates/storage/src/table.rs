//! Multi-versioned row tables.
//!
//! A [`Table`] is a sharded primary-key index mapping record ids to version
//! chains. Each version carries a [`VersionStamp`] — `(origin site,
//! sequence)` — identifying the committing transaction's slot in its origin
//! site's commit order. Chains keep at most `max_versions` entries (default
//! four, §V-A1), pruning the oldest version when a new one is installed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dynamast_common::ids::{RecordId, SiteId};
use dynamast_common::{Row, VersionVector};
use parking_lot::RwLock;

const SHARDS: usize = 64;

/// Identifies the transaction that created a record version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionStamp {
    /// Site the creating transaction committed at.
    pub origin: SiteId,
    /// The creating transaction's commit sequence at `origin`
    /// (`tvv[origin]`).
    pub sequence: u64,
}

impl VersionStamp {
    /// Builds a stamp.
    pub fn new(origin: SiteId, sequence: u64) -> Self {
        VersionStamp { origin, sequence }
    }

    /// `true` iff a version with this stamp is visible to a snapshot that
    /// begins at `begin`: the snapshot has observed at least `sequence`
    /// commits from `origin`.
    pub fn visible_to(&self, begin: &VersionVector) -> bool {
        begin.get(self.origin) >= self.sequence
    }
}

struct Version {
    stamp: VersionStamp,
    row: Row,
}

/// One record's version chain, newest last.
#[derive(Default)]
struct Chain {
    versions: Vec<Version>,
}

impl Chain {
    /// Installs a version, returning the net change in resident payload
    /// bytes (installed bytes minus any evicted version's bytes).
    fn install(&mut self, stamp: VersionStamp, row: Row, max_versions: usize) -> i64 {
        let mut delta = row.payload_size() as i64;
        self.versions.push(Version { stamp, row });
        if self.versions.len() > max_versions {
            delta -= self.versions.remove(0).row.payload_size() as i64;
        }
        delta
    }

    fn payload_size(&self) -> usize {
        self.versions.iter().map(|v| v.row.payload_size()).sum()
    }

    /// Newest version visible to `begin`, scanning from the tail.
    fn read(&self, begin: &VersionVector) -> Option<&Version> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.stamp.visible_to(begin))
    }

    fn latest(&self) -> Option<(&Row, VersionStamp)> {
        self.versions.last().map(|v| (&v.row, v.stamp))
    }
}

type Shard = RwLock<HashMap<RecordId, Chain>>;

/// A sharded, multi-versioned, primary-key-indexed table.
pub struct Table {
    shards: Vec<Shard>,
    max_versions: usize,
    /// Sum of retained version payload bytes (resident-footprint
    /// accounting for partial replication). Signed deltas are applied as
    /// wrapping adds, so transient interleavings cannot underflow.
    resident_bytes: AtomicU64,
}

impl Table {
    /// Creates an empty table retaining `max_versions` versions per record.
    pub fn new(max_versions: usize) -> Self {
        assert!(max_versions >= 1, "must retain at least one version");
        Table {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            max_versions,
            resident_bytes: AtomicU64::new(0),
        }
    }

    fn charge(&self, delta: i64) {
        self.resident_bytes
            .fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Total retained version payload bytes (row cell payloads; index and
    /// chain overhead excluded).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    fn shard(&self, record: RecordId) -> &Shard {
        let h = record.wrapping_mul(0xD1B5_4A32_D192_ED03).rotate_left(23);
        &self.shards[(h as usize) % SHARDS]
    }

    /// Installs a new version of `record`. Used both for local commits and
    /// for refresh-transaction application; caller guarantees apply-order
    /// correctness (write locks locally, Eq. 1 for refreshes).
    pub fn install(&self, record: RecordId, stamp: VersionStamp, row: Row) {
        let delta = {
            let mut shard = self.shard(record).write();
            shard
                .entry(record)
                .or_default()
                .install(stamp, row, self.max_versions)
        };
        self.charge(delta);
    }

    /// Removes every record in `[start, end)` — a partition's contiguous
    /// key range — returning `(records removed, payload bytes freed)`.
    /// Used by `DropReplica` to evict a partition's copy; the caller is
    /// responsible for fencing concurrent reads (NotReplica admission).
    pub fn purge_range(&self, start: RecordId, end: RecordId) -> (usize, u64) {
        let mut removed = 0usize;
        let mut freed = 0u64;
        for record in start..end {
            let bytes = {
                let mut shard = self.shard(record).write();
                shard.remove(&record).map(|c| c.payload_size())
            };
            if let Some(bytes) = bytes {
                removed += 1;
                freed += bytes as u64;
            }
        }
        self.charge(-(freed as i64));
        (removed, freed)
    }

    /// Snapshot read: the newest version visible to `begin`.
    pub fn read(&self, record: RecordId, begin: &VersionVector) -> Option<Row> {
        self.read_versioned(record, begin).map(|(row, _)| row)
    }

    /// Snapshot read returning the version's stamp (used by optimistic
    /// write-write validation in the 2PC coordinator path).
    pub fn read_versioned(
        &self,
        record: RecordId,
        begin: &VersionVector,
    ) -> Option<(Row, VersionStamp)> {
        self.shard(record)
            .read()
            .get(&record)
            .and_then(|c| c.read(begin))
            .map(|v| (v.row.clone(), v.stamp))
    }

    /// `true` iff `record` has no version visible to `begin` but its chain is
    /// at capacity: the version `begin` should see may have been evicted by
    /// newer installs, so "absent" cannot be told from "snapshot too old".
    pub fn evicted_at(&self, record: RecordId, begin: &VersionVector) -> bool {
        self.shard(record)
            .read()
            .get(&record)
            .is_some_and(|c| c.versions.len() >= self.max_versions && c.read(begin).is_none())
    }

    /// The newest version regardless of snapshot, with its stamp. Used by
    /// LEAP-style data shipping (the releasing site ships its latest state)
    /// and by recovery assertions.
    pub fn read_latest(&self, record: RecordId) -> Option<(Row, VersionStamp)> {
        self.shard(record)
            .read()
            .get(&record)
            .and_then(|c| c.latest().map(|(r, s)| (r.clone(), s)))
    }

    /// Runs `f` against the newest version's row and stamp without cloning
    /// the row. The audit plane's write-effect emission sits on the commit
    /// hot path and only needs a signature of the overwritten row, so it
    /// must not pay a deep row clone per install the way [`Table::read_latest`]
    /// does.
    pub fn with_latest<T>(
        &self,
        record: RecordId,
        f: impl FnOnce(&Row, VersionStamp) -> T,
    ) -> Option<T> {
        self.shard(record)
            .read()
            .get(&record)
            .and_then(|c| c.latest().map(|(r, s)| f(r, s)))
    }

    /// `true` iff the record exists (any version).
    pub fn contains(&self, record: RecordId) -> bool {
        self.shard(record).read().contains_key(&record)
    }

    /// Every record's newest version visible to `begin`, with its stamp, in
    /// unspecified order (checkpoint image dump). Records with no version
    /// visible at `begin` are skipped: such a record either did not exist at
    /// the cut, or its cut-visible version was evicted — which requires
    /// `max_versions` newer installs, every one stamped past the cut and so
    /// present in the replay suffix that follows the checkpoint.
    pub fn dump_visible(&self, begin: &VersionVector) -> Vec<(RecordId, VersionStamp, Row)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            for (record, chain) in shard.iter() {
                if let Some(v) = chain.read(begin) {
                    out.push((*record, v.stamp, v.row.clone()));
                }
            }
        }
        out
    }

    /// Snapshot multi-get over a contiguous key range (YCSB scans read
    /// 200–1000 sequentially ordered keys). Missing keys are skipped.
    pub fn scan(
        &self,
        start: RecordId,
        end: RecordId,
        begin: &VersionVector,
    ) -> Vec<(RecordId, Row)> {
        let mut out = Vec::with_capacity((end.saturating_sub(start)) as usize);
        for record in start..end {
            if let Some(row) = self.read(record, begin) {
                out.push((record, row));
            }
        }
        out
    }

    /// Number of records (not versions).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// `true` if no records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of retained versions across all records (DB-size
    /// accounting for the Fig. 6b experiment).
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|c| c.versions.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::Value;

    fn row(v: u64) -> Row {
        Row::new(vec![Value::U64(v)])
    }

    fn vv(counts: &[u64]) -> VersionVector {
        VersionVector::from_counts(counts.to_vec())
    }

    #[test]
    fn read_returns_newest_visible_version() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        t.install(1, VersionStamp::new(s0, 1), row(10));
        t.install(1, VersionStamp::new(s0, 2), row(20));
        t.install(1, VersionStamp::new(s0, 3), row(30));
        assert_eq!(t.read(1, &vv(&[1])).unwrap(), row(10));
        assert_eq!(t.read(1, &vv(&[2])).unwrap(), row(20));
        assert_eq!(t.read(1, &vv(&[9])).unwrap(), row(30));
    }

    #[test]
    fn version_invisible_before_commit_sequence() {
        let t = Table::new(4);
        t.install(5, VersionStamp::new(SiteId::new(1), 3), row(1));
        // Snapshot has seen only 2 commits from site 1.
        assert!(t.read(5, &vv(&[0, 2])).is_none());
        assert!(t.read(5, &vv(&[0, 3])).is_some());
    }

    #[test]
    fn visibility_is_per_origin_site() {
        let t = Table::new(4);
        t.install(7, VersionStamp::new(SiteId::new(0), 1), row(100));
        t.install(7, VersionStamp::new(SiteId::new(1), 1), row(200));
        // Saw site 0's commit but not site 1's: read the older version.
        assert_eq!(t.read(7, &vv(&[1, 0])).unwrap(), row(100));
        assert_eq!(t.read(7, &vv(&[1, 1])).unwrap(), row(200));
    }

    #[test]
    fn evicted_at_flags_an_empty_read_from_a_full_chain_only() {
        let table = Table::new(2);
        let s0 = SiteId::new(0);
        let at = |seq| VersionVector::from_counts(vec![seq]);
        assert!(!table.evicted_at(1, &at(0)), "no chain: absent");
        table.install(1, VersionStamp::new(s0, 1), row(1));
        assert!(!table.evicted_at(1, &at(0)), "short chain: absent before 1");
        table.install(1, VersionStamp::new(s0, 2), row(2));
        table.install(1, VersionStamp::new(s0, 3), row(3));
        assert!(table.evicted_at(1, &at(1)), "version 1 was evicted");
        assert!(!table.evicted_at(1, &at(2)), "version 2 is still readable");
    }

    #[test]
    fn chains_prune_to_max_versions() {
        let t = Table::new(2);
        let s0 = SiteId::new(0);
        for i in 1..=5 {
            t.install(1, VersionStamp::new(s0, i), row(i * 10));
        }
        assert_eq!(t.version_count(), 2);
        // Oldest retained version is seq 4; an old snapshot now reads nothing.
        assert!(t.read(1, &vv(&[3])).is_none());
        assert_eq!(t.read(1, &vv(&[4])).unwrap(), row(40));
    }

    #[test]
    fn scan_skips_missing_keys_and_respects_snapshot() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        t.install(1, VersionStamp::new(s0, 1), row(1));
        t.install(3, VersionStamp::new(s0, 2), row(3));
        let snap = vv(&[1]);
        let rows = t.scan(0, 5, &snap);
        assert_eq!(rows, vec![(1, row(1))]);
        let rows = t.scan(0, 5, &vv(&[2]));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn read_latest_ignores_snapshots() {
        let t = Table::new(4);
        t.install(9, VersionStamp::new(SiteId::new(2), 42), row(7));
        let (r, stamp) = t.read_latest(9).unwrap();
        assert_eq!(r, row(7));
        assert_eq!(stamp, VersionStamp::new(SiteId::new(2), 42));
        assert!(t.read_latest(10).is_none());
    }

    #[test]
    fn resident_bytes_track_installs_evictions_and_purges() {
        let t = Table::new(2);
        let s0 = SiteId::new(0);
        assert_eq!(t.resident_bytes(), 0);
        t.install(1, VersionStamp::new(s0, 1), row(1));
        let one = t.resident_bytes();
        assert!(one > 0);
        t.install(1, VersionStamp::new(s0, 2), row(2));
        assert_eq!(t.resident_bytes(), 2 * one);
        // Third install evicts the oldest version: bytes stay at 2 versions.
        t.install(1, VersionStamp::new(s0, 3), row(3));
        assert_eq!(t.resident_bytes(), 2 * one);
        t.install(7, VersionStamp::new(s0, 4), row(4));
        assert_eq!(t.resident_bytes(), 3 * one);
        let (removed, freed) = t.purge_range(0, 5);
        assert_eq!(removed, 1);
        assert_eq!(freed, 2 * one);
        assert_eq!(t.resident_bytes(), one);
        assert!(t.read_latest(1).is_none());
        assert!(t.read_latest(7).is_some());
    }

    #[test]
    fn purge_range_is_idempotent_and_scoped() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        t.install(10, VersionStamp::new(s0, 1), row(1));
        t.install(20, VersionStamp::new(s0, 2), row(2));
        assert_eq!(t.purge_range(0, 15).0, 1);
        assert_eq!(t.purge_range(0, 15).0, 0);
        assert!(t.contains(20));
    }

    #[test]
    fn len_counts_records_not_versions() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        t.install(1, VersionStamp::new(s0, 1), row(1));
        t.install(1, VersionStamp::new(s0, 2), row(2));
        t.install(2, VersionStamp::new(s0, 3), row(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.version_count(), 3);
        assert!(!t.is_empty());
    }
}

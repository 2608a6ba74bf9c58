//! The per-site storage engine: catalog + tables + lock manager.
//!
//! Every read is [`Store::visit`] or [`Store::visit_range`]: a closure run
//! on the chosen version in place. The readers that return rows (`read`,
//! `read_latest`, `scan`, the cut [`Store::image`]) are wrappers whose
//! closure keeps the shared row.

use std::collections::HashSet;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;
use std::sync::Arc;

use dynamast_common::ids::{unpack_partition_id, Key, PartitionId, RecordId, TableId};
use dynamast_common::{Result, Row, VersionVector};
use parking_lot::Mutex;

use crate::lock::{LockGuard, LockManager};
use crate::schema::Catalog;
use crate::table::{ImageRecord, ReadAt, Table, VersionStamp, Visit};

/// One data site's storage engine (§V-A1): row-oriented in-memory tables with
/// MVCC snapshot reads and per-record write locks.
pub struct Store {
    catalog: Catalog,
    tables: Vec<Table>,
    locks: Arc<LockManager>,
    /// Partitions written since the last full checkpoint image (incremental
    /// checkpointing reads this set; [`Store::clear_dirty`] resets it when
    /// a full rebase image is cut).
    dirty: Mutex<HashSet<PartitionId>>,
}

impl Store {
    /// Creates a store with one table per catalog entry, retaining
    /// `max_versions` versions per record.
    pub fn new(catalog: Catalog, max_versions: usize) -> Self {
        let tables = catalog
            .tables()
            .iter()
            .map(|_| Table::new(max_versions))
            .collect();
        Store {
            catalog,
            tables,
            locks: Arc::new(LockManager::new()),
            dirty: Mutex::new(HashSet::new()),
        }
    }

    fn mark_dirty(&self, key: Key) {
        if let Ok(schema) = self.catalog.table(key.table) {
            self.dirty.lock().insert(schema.partition_of(key.record));
        }
    }

    /// Partitions written since the dirty set was last cleared, sorted.
    pub fn dirty_partitions(&self) -> Vec<PartitionId> {
        let mut out: Vec<PartitionId> = self.dirty.lock().iter().copied().collect();
        out.sort();
        out
    }

    /// Clears the dirty-partition set (called when a full checkpoint image
    /// captures the entire store).
    pub fn clear_dirty(&self) {
        self.dirty.lock().clear();
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The lock manager (exposed so the site manager can lock write sets
    /// before assigning a begin timestamp, as the SI proof requires).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    fn table(&self, id: TableId) -> Result<&Table> {
        // Validate through the catalog so the error is uniform.
        self.catalog.table(id)?;
        Ok(&self.tables[id.as_usize()])
    }

    /// Runs `f` in place on the version of `key` that `at` chooses (see
    /// [`Table::visit`]); every point read below is a wrapper over this.
    pub fn visit<T>(
        &self,
        key: Key,
        at: ReadAt<'_>,
        f: impl FnOnce(&Row, VersionStamp) -> T,
    ) -> Result<Visit<T>> {
        Ok(self.table(key.table)?.visit(key.record, at, f))
    }

    /// Runs `f` in place on the version `at` chooses of every record of
    /// `table` in `range`, ascending; `true` iff the range met an evicted
    /// version and cannot be trusted as a snapshot (see
    /// [`Table::visit_range`]).
    pub fn visit_range(
        &self,
        table: TableId,
        range: impl RangeBounds<RecordId>,
        at: ReadAt<'_>,
        f: impl FnMut(RecordId, &Row, VersionStamp),
    ) -> Result<bool> {
        Ok(self.table(table)?.visit_range(range, at, f))
    }

    /// Snapshot read of `key` at `begin`.
    pub fn read(&self, key: Key, begin: &VersionVector) -> Result<Option<Row>> {
        Ok(self.read_versioned(key, begin)?.map(|(row, _)| row))
    }

    /// Snapshot read with the version's stamp (for write-write validation).
    pub fn read_versioned(
        &self,
        key: Key,
        begin: &VersionVector,
    ) -> Result<Option<(Row, VersionStamp)>> {
        let found = self.visit(key, ReadAt::Begin(begin), |row, stamp| (row.clone(), stamp))?;
        Ok(found.hit())
    }

    /// Latest version of `key` with its stamp, regardless of snapshot.
    pub fn read_latest(&self, key: Key) -> Result<Option<(Row, VersionStamp)>> {
        let found = self.visit(key, ReadAt::Latest, |row, stamp| (row.clone(), stamp))?;
        Ok(found.hit())
    }

    /// Installs a new version of `key`.
    pub fn install(&self, key: Key, stamp: VersionStamp, row: Row) -> Result<()> {
        self.table(key.table)?.install(key.record, stamp, row);
        self.mark_dirty(key);
        Ok(())
    }

    /// The contiguous `[start, end)` record-id range of `partition` in its
    /// table, per the catalog's key-range partitioning.
    pub fn partition_range(&self, partition: PartitionId) -> Result<(TableId, RecordId, RecordId)> {
        let (table, index) = unpack_partition_id(partition);
        let schema = self.catalog.table(table)?;
        let start = index * schema.partition_size;
        Ok((table, start, start + schema.partition_size))
    }

    /// Evicts every record of `partition` (a `DropReplica` at this site),
    /// returning `(records removed, payload bytes freed)`.
    pub fn purge_partition(&self, partition: PartitionId) -> Result<(usize, u64)> {
        let (table, start, end) = self.partition_range(partition)?;
        self.dirty.lock().remove(&partition);
        Ok(self.tables[table.as_usize()].purge_range(start, end))
    }

    /// Total retained version payload bytes across tables (resident
    /// store footprint; see [`Table::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.tables.iter().map(Table::resident_bytes).sum()
    }

    /// The cut image: the version `at` chooses of every record, of every
    /// table (`None`, in key order) or of the listed partitions (one range
    /// walk each, in list order). A checkpoint is the image at its svv cut,
    /// a replica copy the image of one partition at the source's cut, and a
    /// LEAP transfer the latest image of the released partitions.
    ///
    /// A record with no version visible at a begin vector is skipped: it
    /// either did not exist at the cut, or its cut-visible version was
    /// evicted — which requires `max_versions` newer installs, every one
    /// stamped past the cut and so present in the log suffix that follows.
    pub fn image(
        &self,
        at: ReadAt<'_>,
        partitions: Option<&[PartitionId]>,
    ) -> Result<Vec<ImageRecord>> {
        let mut out = Vec::new();
        let mut walk = |table: TableId, range: (Bound<RecordId>, Bound<RecordId>)| {
            self.tables[table.as_usize()].visit_range(range, at, |record, row, stamp| {
                out.push(ImageRecord {
                    key: Key::new(table, record),
                    stamp,
                    row: row.clone(),
                })
            });
        };
        match partitions {
            None => {
                (0..self.tables.len()).for_each(|t| walk(TableId::new(t), (Unbounded, Unbounded)))
            }
            Some(partitions) => {
                for &partition in partitions {
                    let (table, start, end) = self.partition_range(partition)?;
                    walk(table, (Included(start), Excluded(end)));
                }
            }
        }
        Ok(out)
    }

    /// [`Store::image`] of every table at `begin`, as tuples.
    pub fn dump_visible(&self, begin: &VersionVector) -> Vec<(Key, VersionStamp, Row)> {
        self.image(ReadAt::Begin(begin), None)
            .into_iter()
            .flatten()
            .map(Into::into)
            .collect()
    }

    /// Installs a batch of versions, taking rows by value (one move from the
    /// decoded record into the chain, no clones).
    ///
    /// Entries are validated against the catalog up front — the batch either
    /// installs completely or not at all, so neither a refresh run whose log
    /// slots are already published nor a received image (a LEAP grant, a
    /// replica copy, a checkpoint restore) can be left half-applied.
    /// Entries install in vector order, so repeated writes to one record
    /// keep their version chain in commit order.
    pub fn install_batch(&self, entries: Vec<(Key, VersionStamp, Row)>) -> Result<()> {
        for (key, _, _) in &entries {
            self.catalog.table(key.table)?;
        }
        {
            let mut dirty = self.dirty.lock();
            for (key, _, _) in &entries {
                if let Ok(schema) = self.catalog.table(key.table) {
                    dirty.insert(schema.partition_of(key.record));
                }
            }
        }
        for (key, stamp, row) in entries {
            self.tables[key.table.as_usize()].install(key.record, stamp, row);
        }
        Ok(())
    }

    /// Snapshot range scan over `[start, end)` record ids of `table`,
    /// collected; missing keys are skipped.
    pub fn scan(
        &self,
        table: TableId,
        start: RecordId,
        end: RecordId,
        begin: &VersionVector,
    ) -> Result<Vec<(RecordId, Row)>> {
        let mut out = Vec::with_capacity(end.saturating_sub(start) as usize);
        self.visit_range(table, start..end, ReadAt::Begin(begin), |record, row, _| {
            out.push((record, row.clone()))
        })?;
        Ok(out)
    }

    /// `true` iff the record exists in any version.
    pub fn contains(&self, key: Key) -> Result<bool> {
        self.table(key.table).map(|t| t.contains(key.record))
    }

    /// Acquires write locks on an entire write set in deadlock-free order.
    pub fn lock_write_set(&self, keys: &[Key]) -> Vec<LockGuard> {
        self.locks.acquire_all(keys)
    }

    /// Total records across tables.
    pub fn record_count(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Total retained versions across tables (Fig. 6b DB-size accounting).
    pub fn version_count(&self) -> usize {
        self.tables.iter().map(Table::version_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::SiteId;
    use dynamast_common::{DynaError, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table("usertable", 2, 100);
        cat.add_table("accounts", 1, 10);
        cat
    }

    fn row(v: u64) -> Row {
        Row::new(vec![Value::U64(v), Value::U64(v + 1)])
    }

    #[test]
    fn install_and_read_via_store() {
        let store = Store::new(catalog(), 4);
        let key = Key::new(TableId::new(0), 5);
        store
            .install(key, VersionStamp::new(SiteId::new(0), 1), row(7))
            .unwrap();
        let snap = VersionVector::from_counts(vec![1]);
        assert_eq!(store.read(key, &snap).unwrap().unwrap(), row(7));
        assert!(store.contains(key).unwrap());
    }

    #[test]
    fn unknown_table_errors() {
        let store = Store::new(catalog(), 4);
        let key = Key::new(TableId::new(9), 0);
        assert_eq!(
            store.read(key, &VersionVector::zero(1)).unwrap_err(),
            DynaError::NoSuchTable(9)
        );
    }

    #[test]
    fn tables_are_independent() {
        let store = Store::new(catalog(), 4);
        let s0 = SiteId::new(0);
        store
            .install(
                Key::new(TableId::new(0), 1),
                VersionStamp::new(s0, 1),
                row(1),
            )
            .unwrap();
        store
            .install(
                Key::new(TableId::new(1), 1),
                VersionStamp::new(s0, 2),
                row(2),
            )
            .unwrap();
        let snap = VersionVector::from_counts(vec![2]);
        assert_eq!(
            store
                .read(Key::new(TableId::new(0), 1), &snap)
                .unwrap()
                .unwrap(),
            row(1)
        );
        assert_eq!(store.record_count(), 2);
        assert_eq!(store.version_count(), 2);
    }

    #[test]
    fn install_batch_installs_every_entry_at_any_size() {
        let s0 = SiteId::new(0);
        for n in [4usize, 500] {
            let store = Store::new(catalog(), 4);
            let entries: Vec<_> = (0..n as u64)
                .map(|i| {
                    (
                        Key::new(TableId::new(0), i),
                        VersionStamp::new(s0, 1),
                        row(i),
                    )
                })
                .collect();
            store.install_batch(entries).unwrap();
            let snap = VersionVector::from_counts(vec![1]);
            assert_eq!(store.record_count(), n);
            for i in 0..n as u64 {
                assert_eq!(
                    store.read(Key::new(TableId::new(0), i), &snap).unwrap(),
                    Some(row(i)),
                    "record {i} of batch size {n}"
                );
            }
        }
    }

    #[test]
    fn install_batch_keeps_same_record_versions_in_order() {
        let store = Store::new(catalog(), 4);
        let s0 = SiteId::new(0);
        // Two versions of the same record inside one batch: the later
        // entry must end up newest in the chain.
        let mut entries: Vec<_> = (0..200u64)
            .map(|i| {
                (
                    Key::new(TableId::new(0), i),
                    VersionStamp::new(s0, 1),
                    row(i),
                )
            })
            .collect();
        entries.push((
            Key::new(TableId::new(0), 7),
            VersionStamp::new(s0, 2),
            row(999),
        ));
        store.install_batch(entries).unwrap();
        let snap = VersionVector::from_counts(vec![2]);
        assert_eq!(
            store.read(Key::new(TableId::new(0), 7), &snap).unwrap(),
            Some(row(999))
        );
    }

    #[test]
    fn install_batch_rejects_unknown_table_without_partial_apply() {
        let store = Store::new(catalog(), 4);
        let s0 = SiteId::new(0);
        let entries = vec![
            (
                Key::new(TableId::new(0), 1),
                VersionStamp::new(s0, 1),
                row(1),
            ),
            (
                Key::new(TableId::new(9), 2),
                VersionStamp::new(s0, 1),
                row(2),
            ),
        ];
        assert_eq!(
            store.install_batch(entries).unwrap_err(),
            DynaError::NoSuchTable(9)
        );
        assert_eq!(store.record_count(), 0, "validation precedes any install");
    }

    #[test]
    fn dirty_partitions_track_installs_and_clear() {
        let store = Store::new(catalog(), 4);
        let s0 = SiteId::new(0);
        assert!(store.dirty_partitions().is_empty());
        store
            .install(
                Key::new(TableId::new(0), 5),
                VersionStamp::new(s0, 1),
                row(1),
            )
            .unwrap();
        store
            .install_batch(vec![(
                Key::new(TableId::new(0), 150),
                VersionStamp::new(s0, 2),
                row(2),
            )])
            .unwrap();
        let dirty = store.dirty_partitions();
        assert_eq!(dirty.len(), 2, "keys 5 and 150 are in distinct partitions");
        store.clear_dirty();
        assert!(store.dirty_partitions().is_empty());
    }

    #[test]
    fn purge_partition_evicts_its_key_range_only() {
        let store = Store::new(catalog(), 4);
        let s0 = SiteId::new(0);
        let t0 = TableId::new(0);
        // Partition size 100: keys 5, 50 in p0; key 150 in p1.
        for (k, seq) in [(5u64, 1u64), (50, 2), (150, 3)] {
            store
                .install(Key::new(t0, k), VersionStamp::new(s0, seq), row(k))
                .unwrap();
        }
        let before = store.resident_bytes();
        assert!(before > 0);
        let p0 = store.catalog().partition_of(Key::new(t0, 5)).unwrap();
        let (removed, freed) = store.purge_partition(p0).unwrap();
        assert_eq!(removed, 2);
        assert!(freed > 0);
        assert_eq!(store.resident_bytes(), before - freed);
        assert!(!store.contains(Key::new(t0, 5)).unwrap());
        assert!(store.contains(Key::new(t0, 150)).unwrap());
        // The purged partition is no longer dirty; p1 still is.
        assert_eq!(store.dirty_partitions().len(), 1);
    }

    #[test]
    fn partition_image_filters_by_partition() {
        let store = Store::new(catalog(), 4);
        let s0 = SiteId::new(0);
        let t0 = TableId::new(0);
        store
            .install(Key::new(t0, 5), VersionStamp::new(s0, 1), row(1))
            .unwrap();
        store
            .install(Key::new(t0, 150), VersionStamp::new(s0, 2), row(2))
            .unwrap();
        let snap = VersionVector::from_counts(vec![2]);
        let p1 = store.catalog().partition_of(Key::new(t0, 150)).unwrap();
        let image = store.image(ReadAt::Begin(&snap), Some(&[p1])).unwrap();
        assert_eq!(image.len(), 1);
        assert_eq!(image[0].key, Key::new(t0, 150));
    }

    #[test]
    fn partition_images_equal_the_filtered_full_image() {
        let mut cat = catalog();
        cat.add_table("sparse", 1, 1 << 24);
        let store = Store::new(cat, 2);
        let s0 = SiteId::new(0);
        let mut seq = 0;
        for (table, records) in [
            (0usize, vec![5u64, 99, 100, 150, 450]),
            (1, vec![0, 9, 10, 35]),
            (2, vec![3, 4, (1 << 24) - 1, 1 << 24, (3 << 24) + 77]),
        ] {
            for record in records {
                // Three installs into depth-2 chains: the cut below sees
                // every record but the last, whose version at the cut is
                // already evicted.
                for _ in 0..3 {
                    seq += 1;
                    let key = Key::new(TableId::new(table), record);
                    store
                        .install(key, VersionStamp::new(s0, seq), row(seq))
                        .unwrap();
                }
            }
        }
        let cut = VersionVector::from_counts(vec![seq - 2]);
        let dirty = store.dirty_partitions();
        // At the cut one record's version is evicted; the latest version of
        // every record exists.
        for (at, missing) in [(ReadAt::Begin(&cut), 1), (ReadAt::Latest, 0)] {
            let full = store.image(at, None).unwrap();
            assert_eq!(full.len(), store.record_count() - missing);
            assert!(full.windows(2).all(|w| w[0].key < w[1].key), "key order");
            for wanted in [&dirty[..], &dirty[1..4], &dirty[dirty.len() - 1..], &[]] {
                let filtered: Vec<_> = full
                    .iter()
                    .filter(|r| wanted.contains(&store.catalog().partition_of(r.key).unwrap()))
                    .cloned()
                    .collect();
                assert_eq!(store.image(at, Some(wanted)).unwrap(), filtered);
            }
        }
        let image = store.image(ReadAt::Begin(&cut), None).unwrap();
        let tuples: Vec<(Key, VersionStamp, Row)> = image.into_iter().map(Into::into).collect();
        assert_eq!(store.dump_visible(&cut), tuples);
    }

    #[test]
    fn lock_write_set_excludes_conflicting_writers() {
        let store = Store::new(catalog(), 4);
        let k1 = Key::new(TableId::new(0), 1);
        let k2 = Key::new(TableId::new(0), 2);
        let guards = store.lock_write_set(&[k2, k1]);
        assert_eq!(guards.len(), 2);
        assert!(store.locks().try_acquire(k1).is_none());
        drop(guards);
        assert!(store.locks().try_acquire(k1).is_some());
    }
}

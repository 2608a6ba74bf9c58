//! Stored procedures and transaction contexts.
//!
//! The paper's clients execute transactions as stored procedures at a data
//! site (Appendix D measures "the actual execution time of the database
//! stored procedure"). A [`ProcCall`] names a procedure registered by the
//! workload ([`ProcExecutor`]) and predeclares its write set — the system
//! model requires write sets up front ("a transaction provides write-set
//! information, using reconnaissance queries if necessary", §II-B1) — plus
//! its read keys/ranges so the partitioned baselines can route and localize
//! reads.
//!
//! Procedures run against a [`TxnCtx`]: the site crate provides
//! [`LocalCtx`] (all data local); the 2PC coordinator in [`crate::coord`]
//! provides a distributed context that performs remote reads.

use bytes::Bytes;
use dynamast_common::ids::{Key, RecordId, TableId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_storage::{ReadAt, Store, VersionStamp, Visit};

use std::collections::HashMap;

dynamast_common::wire! {
    /// A contiguous scan over `[start, end)` record ids of a table.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ScanRange {
        /// Table scanned.
        pub table: TableId,
        /// First record id (inclusive).
        pub start: RecordId,
        /// End record id (exclusive).
        pub end: RecordId,
    }
}

dynamast_common::wire! {
    /// An invocable transaction: procedure id + arguments + declared access
    /// sets.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ProcCall {
        /// Workload-assigned procedure identifier.
        pub proc_id: u32,
        /// Opaque encoded arguments, interpreted by the workload's executor.
        pub args: Bytes,
        /// Predeclared write set (every key the procedure may write).
        pub write_set: Vec<Key>,
        /// Point reads the procedure may perform (outside the write set).
        pub read_keys: Vec<Key>,
        /// Range scans the procedure may perform.
        pub read_ranges: Vec<ScanRange>,
    }
}

impl ProcCall {
    /// A read-only call (empty write set).
    pub fn is_read_only(&self) -> bool {
        self.write_set.is_empty()
    }
}

dynamast_common::wire! {
    /// How a transaction context resolves reads.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum ReadMode {
        /// MVCC snapshot read at a begin version vector (replicated systems:
        /// DynaMast, single-master, multi-master).
        Snapshot = 0,
        /// Latest-committed read (unreplicated systems: partition-store,
        /// LEAP — ownership transfer and 2PC locks provide isolation instead
        /// of version vectors).
        Latest = 1,
    }
}

impl ReadMode {
    /// The storage-level form of this mode for a transaction that began at
    /// `begin`.
    pub fn at(self, begin: &VersionVector) -> ReadAt<'_> {
        match self {
            ReadMode::Snapshot => ReadAt::Begin(begin),
            ReadMode::Latest => ReadAt::Latest,
        }
    }
}

/// The interface stored procedures execute against.
pub trait TxnCtx {
    /// Point read. `None` if the record does not exist (at the snapshot).
    fn read(&mut self, key: Key) -> Result<Option<Row>>;

    /// Range scan: `visit` sees every record of the range that exists (at
    /// the snapshot), in ascending record order. A local context runs it in
    /// place under a storage lock, so it should fold, not work.
    fn scan(&mut self, range: ScanRange, visit: &mut dyn FnMut(RecordId, &Row)) -> Result<()>;

    /// Buffered write (insert or update). The key must be in the declared
    /// write set.
    fn write(&mut self, key: Key, row: Row) -> Result<()>;
}

/// Executes workload-defined stored procedures.
pub trait ProcExecutor: Send + Sync + 'static {
    /// Runs the procedure named by `call.proc_id` against `ctx`, returning
    /// an opaque result payload for the client. The full call is available
    /// so procedures can iterate their declared write set and read ranges
    /// without re-encoding them in `args`.
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes>;
}

impl<F> ProcExecutor for F
where
    F: Fn(&mut dyn TxnCtx, &ProcCall) -> Result<Bytes> + Send + Sync + 'static,
{
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        self(ctx, call)
    }
}

/// A transaction context over purely local data.
///
/// Reads resolve against the local store (snapshot or latest); writes are
/// buffered and installed by the commit path after the procedure returns.
/// Read-your-own-writes within the transaction is supported — a procedure
/// that wrote a key reads back its buffered value.
pub struct LocalCtx<'a> {
    store: &'a Store,
    begin: &'a VersionVector,
    mode: ReadMode,
    allowed_writes: HashMap<Key, ()>,
    writes: Vec<(Key, Row)>,
    write_index: HashMap<Key, usize>,
    ops: u64,
    snapshot_too_old: bool,
}

impl<'a> LocalCtx<'a> {
    /// Creates a context. `write_set` is the declared write set; empty for
    /// read-only transactions.
    pub fn new(
        store: &'a Store,
        begin: &'a VersionVector,
        mode: ReadMode,
        write_set: &[Key],
    ) -> Self {
        LocalCtx {
            store,
            begin,
            mode,
            allowed_writes: write_set.iter().map(|k| (*k, ())).collect(),
            writes: Vec::with_capacity(write_set.len()),
            write_index: HashMap::new(),
            ops: 0,
            snapshot_too_old: false,
        }
    }

    /// Rows read, scanned, or written so far (drives the simulated
    /// per-operation service time).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The buffered after-images, in write order (last write per key wins —
    /// earlier writes to the same key are overwritten in place).
    pub fn into_writes(self) -> Vec<(Key, Row)> {
        self.writes
    }

    /// `true` once a snapshot read or scan met a version chain at capacity
    /// with nothing visible: chains keep a bounded number of versions, so
    /// the version this snapshot should have seen may have been evicted
    /// while the transaction ran. Nothing it read or returned can be
    /// trusted; the caller re-executes it on a fresh snapshot.
    pub fn snapshot_too_old(&self) -> bool {
        self.snapshot_too_old
    }
}

impl TxnCtx for LocalCtx<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Row>> {
        self.ops += 1;
        if let Some(&i) = self.write_index.get(&key) {
            return Ok(Some(self.writes[i].1.clone()));
        }
        let found = self
            .store
            .visit(key, self.mode.at(self.begin), |row, _| row.clone())?;
        self.snapshot_too_old |= found == Visit::Evicted;
        Ok(found.hit())
    }

    fn scan(&mut self, range: ScanRange, visit: &mut dyn FnMut(RecordId, &Row)) -> Result<()> {
        self.ops += range.end.saturating_sub(range.start);
        self.snapshot_too_old |= self.store.visit_range(
            range.table,
            range.start..range.end,
            self.mode.at(self.begin),
            |record, row, _| visit(record, row),
        )?;
        Ok(())
    }

    fn write(&mut self, key: Key, row: Row) -> Result<()> {
        self.ops += 1;
        if !self.allowed_writes.contains_key(&key) {
            return Err(DynaError::Internal("write outside declared write set"));
        }
        match self.write_index.get(&key) {
            Some(&i) => self.writes[i].1 = row,
            None => {
                self.write_index.insert(key, self.writes.len());
                self.writes.push((key, row));
            }
        }
        Ok(())
    }
}

/// Convenience: installs buffered writes into a store with one stamp.
pub fn install_writes(store: &Store, writes: &[(Key, Row)], stamp: VersionStamp) -> Result<()> {
    for (key, row) in writes {
        store.install(*key, stamp, row.clone())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::codec::{self, Decode, Encode};
    use dynamast_common::ids::SiteId;
    use dynamast_common::Value;
    use dynamast_storage::Catalog;

    fn store() -> Store {
        let mut cat = Catalog::new();
        cat.add_table("t", 1, 100);
        Store::new(cat, 4)
    }

    fn key(r: u64) -> Key {
        Key::new(TableId::new(0), r)
    }

    fn row(v: u64) -> Row {
        Row::new(vec![Value::U64(v)])
    }

    #[test]
    fn proc_call_roundtrips() {
        let call = ProcCall {
            proc_id: 7,
            args: Bytes::from_static(b"abc"),
            write_set: vec![key(1), key(2)],
            read_keys: vec![key(9)],
            read_ranges: vec![ScanRange {
                table: TableId::new(0),
                start: 10,
                end: 20,
            }],
        };
        let buf = codec::encode_to_vec(&call);
        assert_eq!(buf.len(), call.encoded_len());
        let mut slice = &buf[..];
        assert_eq!(ProcCall::decode(&mut slice).unwrap(), call);
        assert!(!call.is_read_only());
    }

    #[test]
    fn snapshot_reads_respect_begin_vector() {
        let s = store();
        s.install(key(1), VersionStamp::new(SiteId::new(0), 1), row(10))
            .unwrap();
        s.install(key(1), VersionStamp::new(SiteId::new(0), 2), row(20))
            .unwrap();
        let begin = VersionVector::from_counts(vec![1]);
        let mut ctx = LocalCtx::new(&s, &begin, ReadMode::Snapshot, &[]);
        assert_eq!(ctx.read(key(1)).unwrap().unwrap(), row(10));
        let begin2 = VersionVector::from_counts(vec![2]);
        let mut ctx2 = LocalCtx::new(&s, &begin2, ReadMode::Snapshot, &[]);
        assert_eq!(ctx2.read(key(1)).unwrap().unwrap(), row(20));
    }

    #[test]
    fn latest_mode_ignores_snapshot() {
        let s = store();
        s.install(key(1), VersionStamp::new(SiteId::new(3), 99), row(42))
            .unwrap();
        let begin = VersionVector::zero(1);
        let mut ctx = LocalCtx::new(&s, &begin, ReadMode::Latest, &[]);
        assert_eq!(ctx.read(key(1)).unwrap().unwrap(), row(42));
    }

    #[test]
    fn reads_see_own_buffered_writes() {
        let s = store();
        let begin = VersionVector::zero(1);
        let ws = [key(5)];
        let mut ctx = LocalCtx::new(&s, &begin, ReadMode::Snapshot, &ws);
        assert!(ctx.read(key(5)).unwrap().is_none());
        ctx.write(key(5), row(1)).unwrap();
        assert_eq!(ctx.read(key(5)).unwrap().unwrap(), row(1));
        ctx.write(key(5), row(2)).unwrap();
        let writes = ctx.into_writes();
        assert_eq!(writes, vec![(key(5), row(2))]);
    }

    #[test]
    fn writes_outside_declared_set_rejected() {
        let s = store();
        let begin = VersionVector::zero(1);
        let ws = [key(1)];
        let mut ctx = LocalCtx::new(&s, &begin, ReadMode::Snapshot, &ws);
        assert!(ctx.write(key(2), row(0)).is_err());
    }

    #[test]
    fn scan_works_in_both_modes() {
        let s = store();
        s.install(key(1), VersionStamp::new(SiteId::new(0), 1), row(1))
            .unwrap();
        s.install(key(2), VersionStamp::new(SiteId::new(0), 2), row(2))
            .unwrap();
        let range = ScanRange {
            table: TableId::new(0),
            start: 0,
            end: 10,
        };
        let begin = VersionVector::from_counts(vec![1]);
        let scanned = |mode| {
            let mut ctx = LocalCtx::new(&s, &begin, mode, &[]);
            let mut seen = Vec::new();
            ctx.scan(range, &mut |record, row| seen.push((record, row.clone())))
                .unwrap();
            assert!(!ctx.snapshot_too_old());
            seen
        };
        assert_eq!(scanned(ReadMode::Snapshot), vec![(1, row(1))]);
        assert_eq!(scanned(ReadMode::Latest), vec![(1, row(1)), (2, row(2))]);
    }

    #[test]
    fn a_scan_over_an_evicted_version_is_too_old_not_short() {
        const MVCC_VERSIONS: u64 = 4;
        let range = ScanRange {
            table: TableId::new(0),
            start: 0,
            end: 40,
        };
        // `newer` installs of record 7 on top of the loaded range, scanned at
        // the begin vector taken before them.
        let scan_after = |newer: u64| {
            let s = store();
            for r in 0..40 {
                s.install(key(r), VersionStamp::new(SiteId::new(0), 1), row(r))
                    .unwrap();
            }
            let begin = VersionVector::from_counts(vec![1]);
            for i in 0..newer {
                s.install(
                    key(7),
                    VersionStamp::new(SiteId::new(0), 2 + i),
                    row(100 + i),
                )
                .unwrap();
            }
            let mut ctx = LocalCtx::new(&s, &begin, ReadMode::Snapshot, &[]);
            let mut seen = Vec::new();
            ctx.scan(range, &mut |record, row| seen.push((record, row.clone())))
                .unwrap();
            (ctx.snapshot_too_old(), seen)
        };
        let (too_old, seen) = scan_after(MVCC_VERSIONS - 1);
        assert!(!too_old, "the begin version is the oldest still retained");
        assert_eq!(seen, (0..40).map(|r| (r, row(r))).collect::<Vec<_>>());
        let (too_old, seen) = scan_after(MVCC_VERSIONS);
        assert!(
            too_old,
            "record 7's begin version is gone: nothing is trusted"
        );
        assert_eq!(
            seen.len(),
            39,
            "the rest were visited: the flag is the answer"
        );
    }
}

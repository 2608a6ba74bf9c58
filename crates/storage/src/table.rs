//! Multi-versioned row tables.
//!
//! A [`Table`] is a block-sharded ordered primary-key index mapping record
//! ids to version chains. 32 consecutive ids form a block: one allocation
//! holding a chain slot per id (indexed by `record & 31`) and a `u32`
//! occupancy mask. A block lives in one shard, chosen by a hash of the
//! block id, and each shard is an ordered map from block id to block — so a
//! contiguous range is served by one lock, one map lookup and one array walk
//! per block. A block that a purge empties is dropped.
//!
//! Each version carries a [`VersionStamp`] — `(origin site, sequence)` —
//! identifying the committing transaction's slot in its origin site's
//! commit order. A chain keeps its newest version inline in the slot and
//! older ones, oldest first, in a vector that is allocated only once the
//! record has a second version. Chains keep at most `max_versions` entries
//! (default four, §V-A1), pruning the oldest version when a new one is
//! installed.
//!
//! Versions are read in place: [`Table::visit`] (one record) and
//! [`Table::visit_range`] (a range, ascending) hand a closure the chosen
//! version's `&Row` and stamp under the shard's read lock, so the closure
//! must not call back into the table. Rows are immutable and shared: a
//! closure that keeps one pays a reference-count bump.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds, RangeInclusive};
use std::sync::atomic::{AtomicU64, Ordering};

use dynamast_common::ids::{Key, RecordId, SiteId};
use dynamast_common::{Row, VersionVector};
use parking_lot::RwLock;

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;
/// `1 << BLOCK_SHIFT` consecutive record ids share a block.
const BLOCK_SHIFT: u32 = 5;
const BLOCK_LEN: usize = 1 << BLOCK_SHIFT;

dynamast_common::wire! {
    /// Identifies the transaction that created a record version. On the
    /// wire: the `u32` origin, then the `u64` sequence.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct VersionStamp {
        /// Site the creating transaction committed at.
        pub origin: SiteId,
        /// The creating transaction's commit sequence at `origin`
        /// (`tvv[origin]`).
        pub sequence: u64,
    }
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

dynamast_common::wire! {
    /// One record of a cut image ([`crate::Store::image`]): the version a cut
    /// chose for `key`. Checkpoint files, replica copies and LEAP transfers
    /// all carry their rows as these, in one encoding.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ImageRecord {
        /// Record key.
        pub key: Key,
        /// Stamp of the chosen version.
        pub stamp: VersionStamp,
        /// Row of the chosen version.
        pub row: Row,
    }
}

impl From<ImageRecord> for (Key, VersionStamp, Row) {
    fn from(record: ImageRecord) -> Self {
        (record.key, record.stamp, record.row)
    }
}

/// Which version of a chain a visit hands to its closure.
#[derive(Clone, Copy, Debug)]
pub enum ReadAt<'a> {
    /// The newest version visible to this begin vector.
    Begin(&'a VersionVector),
    /// The newest version, whatever any snapshot has seen.
    Latest,
}

/// What [`Table::visit`] found at a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visit<T> {
    /// The closure's result on the chosen version.
    Hit(T),
    /// No version to choose, and the chain (if any) still has room: the
    /// record does not exist at that snapshot.
    Absent,
    /// No version visible, from a chain at capacity: the version the
    /// snapshot should see may have been evicted by newer installs, so
    /// "absent" cannot be told from "snapshot too old".
    Evicted,
}

impl<T> Visit<T> {
    /// The closure's result, if a version was chosen.
    pub fn hit(self) -> Option<T> {
        match self {
            Visit::Hit(value) => Some(value),
            Visit::Absent | Visit::Evicted => None,
        }
    }
}

struct Version {
    stamp: VersionStamp,
    row: Row,
}

/// One record's version chain: the newest version inline, older versions
/// oldest first.
struct Chain {
    newest: Version,
    older: Vec<Version>,
}

impl Chain {
    fn new(version: Version) -> Self {
        Chain {
            newest: version,
            older: Vec::new(),
        }
    }

    /// Installs a version, returning the net change in resident payload
    /// bytes (installed bytes minus any evicted version's bytes).
    fn install(&mut self, version: Version, max_versions: usize) -> i64 {
        let mut delta = version.row.payload_size() as i64;
        let previous = std::mem::replace(&mut self.newest, version);
        let evicted = if self.len() < max_versions {
            self.older.push(previous);
            None
        } else if self.older.is_empty() {
            Some(previous)
        } else {
            self.older.push(previous);
            Some(self.older.remove(0))
        };
        if let Some(evicted) = evicted {
            delta -= evicted.row.payload_size() as i64;
        }
        delta
    }

    /// Number of retained versions.
    fn len(&self) -> usize {
        1 + self.older.len()
    }

    fn payload_size(&self) -> usize {
        self.newest.row.payload_size()
            + self
                .older
                .iter()
                .map(|v| v.row.payload_size())
                .sum::<usize>()
    }

    /// The version `at` chooses, newest first.
    fn choose(&self, at: ReadAt<'_>) -> Option<&Version> {
        match at {
            ReadAt::Begin(begin) if !self.newest.stamp.visible_to(begin) => {
                self.older.iter().rev().find(|v| v.stamp.visible_to(begin))
            }
            ReadAt::Begin(_) | ReadAt::Latest => Some(&self.newest),
        }
    }
}

/// The chain slots of `1 << BLOCK_SHIFT` consecutive record ids.
struct Block {
    /// Bit `slot` is set iff `chains[slot]` holds a chain.
    occupied: u32,
    chains: [Option<Chain>; BLOCK_LEN],
}

impl Block {
    fn new() -> Box<Self> {
        Box::new(Block {
            occupied: 0,
            chains: [const { None }; BLOCK_LEN],
        })
    }

    /// The occupied slots among `mask`'s bits, ascending, with their chains.
    fn chains(&self, mask: u32) -> impl Iterator<Item = (usize, &Chain)> {
        set_bits(self.occupied & mask).filter_map(|slot| Some((slot, self.chains[slot].as_ref()?)))
    }
}

/// The slot of `record` in its block.
fn slot(record: RecordId) -> usize {
    (record & (BLOCK_LEN as RecordId - 1)) as usize
}

/// Mask of the slots of block `block` whose record ids lie in `first..=last`.
fn slots_in(block: RecordId, first: RecordId, last: RecordId) -> u32 {
    let start = if block == first >> BLOCK_SHIFT {
        slot(first)
    } else {
        0
    };
    let end = if block == last >> BLOCK_SHIFT {
        slot(last)
    } else {
        BLOCK_LEN - 1
    };
    (u32::MAX << start) & (u32::MAX >> (BLOCK_LEN - 1 - end))
}

/// The set bits of `bits`, ascending.
fn set_bits(mut bits: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            bit
        })
    })
}

type Shard = RwLock<BTreeMap<RecordId, Box<Block>>>;

/// A block-sharded, ordered, multi-versioned, primary-key-indexed table.
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
            shards: (0..SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
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

    /// The shard holding block `block` (a record id `>> BLOCK_SHIFT`).
    fn shard(&self, block: RecordId) -> &Shard {
        // Fibonacci hashing of the block id: TPC-C builds keys from shifted
        // fields (`district << 20 | order`), and a plain modulus would put
        // every district's newest orders behind one lock.
        &self.shards[(block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize]
    }

    /// Walks `range` one block at a time in ascending order. `run` gets the
    /// block's shard, its id and the mask of its slots inside the range, and
    /// says whether it met any record there. After an empty run the walk
    /// seeks the next record instead of stepping through empty blocks:
    /// TPC-C partitions span 2^24 ids and hold a few thousand, and a walk
    /// must cost what the range holds, not what it spans.
    fn walk_blocks(
        &self,
        range: impl RangeBounds<RecordId>,
        mut run: impl FnMut(&Shard, RecordId, u32) -> bool,
    ) {
        let first = match range.start_bound() {
            Bound::Included(&r) => Some(r),
            Bound::Excluded(&r) => r.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let last = match range.end_bound() {
            Bound::Included(&r) => Some(r),
            Bound::Excluded(&r) => r.checked_sub(1),
            Bound::Unbounded => Some(RecordId::MAX),
        };
        let (Some(mut cursor), Some(last)) = (first, last) else {
            return;
        };
        while cursor <= last {
            let block = cursor >> BLOCK_SHIFT;
            let populated = run(self.shard(block), block, slots_in(block, cursor, last));
            if block == last >> BLOCK_SHIFT {
                return;
            }
            cursor = (block + 1) << BLOCK_SHIFT;
            if !populated {
                match self.next_record(cursor..=last) {
                    Some(record) => cursor = record,
                    None => return,
                }
            }
        }
    }

    /// The smallest record id in `range` that has a chain.
    fn next_record(&self, range: RangeInclusive<RecordId>) -> Option<RecordId> {
        let (first, last) = (*range.start(), *range.end());
        self.shards
            .iter()
            .filter_map(|s| {
                s.read()
                    .range(first >> BLOCK_SHIFT..=last >> BLOCK_SHIFT)
                    .find_map(|(&block, b)| {
                        let slot = set_bits(b.occupied & slots_in(block, first, last)).next()?;
                        Some(block << BLOCK_SHIFT | slot as RecordId)
                    })
            })
            .min()
    }

    /// Installs a new version of `record`. Used both for local commits and
    /// for refresh-transaction application; caller guarantees apply-order
    /// correctness (write locks locally, Eq. 1 for refreshes).
    pub fn install(&self, record: RecordId, stamp: VersionStamp, row: Row) {
        let version = Version { stamp, row };
        let block = record >> BLOCK_SHIFT;
        let delta = {
            let mut shard = self.shard(block).write();
            let block = shard.entry(block).or_insert_with(Block::new);
            let slot = slot(record);
            match &mut block.chains[slot] {
                Some(chain) => chain.install(version, self.max_versions),
                empty => {
                    let delta = version.row.payload_size() as i64;
                    *empty = Some(Chain::new(version));
                    block.occupied |= 1 << slot;
                    delta
                }
            }
        };
        self.charge(delta);
    }

    /// Removes every record in `[start, end)` — a partition's contiguous
    /// key range — returning `(records removed, payload bytes freed)`, one
    /// write lock per block. Used by `DropReplica` to evict a partition's
    /// copy; the caller is responsible for fencing concurrent reads
    /// (NotReplica admission).
    pub fn purge_range(&self, start: RecordId, end: RecordId) -> (usize, u64) {
        let mut removed = 0usize;
        let mut freed = 0u64;
        self.walk_blocks(start..end, |shard, block, mask| {
            let mut shard = shard.write();
            let Some(doomed) = shard.get_mut(&block) else {
                return false;
            };
            let bits = doomed.occupied & mask;
            if bits == 0 {
                return false;
            }
            doomed.occupied &= !bits;
            for slot in set_bits(bits) {
                if let Some(chain) = doomed.chains[slot].take() {
                    freed += chain.payload_size() as u64;
                    removed += 1;
                }
            }
            if doomed.occupied == 0 {
                shard.remove(&block);
            }
            true
        });
        self.charge(-(freed as i64));
        (removed, freed)
    }

    /// Runs `f` on the version of `record` that `at` chooses — its row and
    /// stamp, in place under the shard's read lock.
    pub fn visit<T>(
        &self,
        record: RecordId,
        at: ReadAt<'_>,
        f: impl FnOnce(&Row, VersionStamp) -> T,
    ) -> Visit<T> {
        let block = record >> BLOCK_SHIFT;
        let shard = self.shard(block).read();
        let chain = shard
            .get(&block)
            .and_then(|b| b.chains[slot(record)].as_ref());
        match chain {
            None => Visit::Absent,
            Some(chain) => match chain.choose(at) {
                Some(v) => Visit::Hit(f(&v.row, v.stamp)),
                None if chain.len() >= self.max_versions => Visit::Evicted,
                None => Visit::Absent,
            },
        }
    }

    /// Runs `f` on the version `at` chooses of every record in `range`, in
    /// ascending record order, in place under one shard read lock per block
    /// (YCSB scans read 200–1000 consecutive keys; a checkpoint image is the
    /// unbounded range). Records with nothing to choose are skipped; returns
    /// `true` iff one of them was [`Visit::Evicted`], in which case the
    /// range as a whole cannot be trusted as a snapshot.
    pub fn visit_range(
        &self,
        range: impl RangeBounds<RecordId>,
        at: ReadAt<'_>,
        mut f: impl FnMut(RecordId, &Row, VersionStamp),
    ) -> bool {
        let mut evicted = false;
        self.walk_blocks(range, |shard, block, mask| {
            let shard = shard.read();
            let Some(b) = shard.get(&block) else {
                return false;
            };
            let base = block << BLOCK_SHIFT;
            for (slot, chain) in b.chains(mask) {
                match chain.choose(at) {
                    Some(v) => f(base | slot as RecordId, &v.row, v.stamp),
                    None => evicted |= chain.len() >= self.max_versions,
                }
            }
            b.occupied & mask != 0
        });
        evicted
    }

    /// `true` iff the record exists (any version).
    pub fn contains(&self, record: RecordId) -> bool {
        let block = record >> BLOCK_SHIFT;
        self.shard(block)
            .read()
            .get(&block)
            .is_some_and(|b| b.occupied & 1 << slot(record) != 0)
    }

    /// Number of records (not versions).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .map(|b| b.occupied.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
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
            .map(|s| {
                s.read()
                    .values()
                    .flat_map(|b| b.chains(u32::MAX))
                    .map(|(_, chain)| chain.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::codec::{self, Decode, Encode};
    use dynamast_common::ids::TableId;
    use dynamast_common::Value;

    fn row(v: u64) -> Row {
        Row::new(vec![Value::U64(v)])
    }

    fn vv(counts: &[u64]) -> VersionVector {
        VersionVector::from_counts(counts.to_vec())
    }

    fn read(t: &Table, record: RecordId, begin: &VersionVector) -> Option<Row> {
        t.visit(record, ReadAt::Begin(begin), |row, _| row.clone())
            .hit()
    }

    fn read_latest(t: &Table, record: RecordId) -> Option<(Row, VersionStamp)> {
        t.visit(record, ReadAt::Latest, |row, stamp| (row.clone(), stamp))
            .hit()
    }

    fn scan(t: &Table, start: RecordId, end: RecordId, at: ReadAt<'_>) -> Vec<(RecordId, Row)> {
        let mut out = Vec::new();
        let evicted = t.visit_range(start..end, at, |record, row, _| {
            out.push((record, row.clone()))
        });
        assert!(!evicted);
        out
    }

    #[test]
    fn read_returns_newest_visible_version() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        t.install(1, VersionStamp::new(s0, 1), row(10));
        t.install(1, VersionStamp::new(s0, 2), row(20));
        t.install(1, VersionStamp::new(s0, 3), row(30));
        assert_eq!(read(&t, 1, &vv(&[1])).unwrap(), row(10));
        assert_eq!(read(&t, 1, &vv(&[2])).unwrap(), row(20));
        assert_eq!(read(&t, 1, &vv(&[9])).unwrap(), row(30));
    }

    #[test]
    fn version_invisible_before_commit_sequence() {
        let t = Table::new(4);
        t.install(5, VersionStamp::new(SiteId::new(1), 3), row(1));
        // Snapshot has seen only 2 commits from site 1.
        assert!(read(&t, 5, &vv(&[0, 2])).is_none());
        assert!(read(&t, 5, &vv(&[0, 3])).is_some());
    }

    #[test]
    fn visibility_is_per_origin_site() {
        let t = Table::new(4);
        t.install(7, VersionStamp::new(SiteId::new(0), 1), row(100));
        t.install(7, VersionStamp::new(SiteId::new(1), 1), row(200));
        // Saw site 0's commit but not site 1's: read the older version.
        assert_eq!(read(&t, 7, &vv(&[1, 0])).unwrap(), row(100));
        assert_eq!(read(&t, 7, &vv(&[1, 1])).unwrap(), row(200));
    }

    #[test]
    fn evicted_flags_an_empty_read_from_a_full_chain_only() {
        let table = Table::new(2);
        let s0 = SiteId::new(0);
        let at = |seq| VersionVector::from_counts(vec![seq]);
        let visit = |seq| table.visit(1, ReadAt::Begin(&at(seq)), |row, _| row.clone());
        let range_evicted = |seq| table.visit_range(0..4, ReadAt::Begin(&at(seq)), |_, _, _| {});
        assert_eq!(visit(0), Visit::Absent, "no chain: absent");
        table.install(1, VersionStamp::new(s0, 1), row(1));
        assert_eq!(visit(0), Visit::Absent, "short chain: absent before 1");
        assert!(!range_evicted(0));
        table.install(1, VersionStamp::new(s0, 2), row(2));
        table.install(1, VersionStamp::new(s0, 3), row(3));
        assert_eq!(visit(1), Visit::Evicted, "version 1 was evicted");
        assert!(range_evicted(1), "a range visit meets the same chain");
        assert_eq!(visit(2), Visit::Hit(row(2)), "version 2 is still readable");
        assert!(!range_evicted(2));
        assert!(!table.visit_range(0..4, ReadAt::Latest, |_, _, _| {}));
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
        assert!(read(&t, 1, &vv(&[3])).is_none());
        assert_eq!(read(&t, 1, &vv(&[4])).unwrap(), row(40));
    }

    #[test]
    fn scan_skips_missing_keys_and_respects_snapshot() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        t.install(1, VersionStamp::new(s0, 1), row(1));
        t.install(3, VersionStamp::new(s0, 2), row(3));
        let snap = vv(&[1]);
        let rows = scan(&t, 0, 5, ReadAt::Begin(&snap));
        assert_eq!(rows, vec![(1, row(1))]);
        let rows = scan(&t, 0, 5, ReadAt::Begin(&vv(&[2])));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn read_latest_ignores_snapshots() {
        let t = Table::new(4);
        t.install(9, VersionStamp::new(SiteId::new(2), 42), row(7));
        let (r, stamp) = read_latest(&t, 9).unwrap();
        assert_eq!(r, row(7));
        assert_eq!(stamp, VersionStamp::new(SiteId::new(2), 42));
        assert!(read_latest(&t, 10).is_none());
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
        assert!(read_latest(&t, 1).is_none());
        assert!(read_latest(&t, 7).is_some());
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
    fn range_visits_are_ordered_across_blocks_shards_and_gaps() {
        let t = Table::new(4);
        let s0 = SiteId::new(0);
        // A dense stretch longer than SHARDS blocks, then a 2^24-id gap (a
        // TPC-C partition's empty tail), then a few stragglers.
        let dense = 5..(SHARDS as u64 + 3) << BLOCK_SHIFT;
        let far = (1u64 << 24) + 7;
        let records: Vec<RecordId> = dense.clone().chain([far, far + 1, far + 100]).collect();
        for &r in &records {
            t.install(r, VersionStamp::new(s0, 1), row(r));
        }
        let all = scan(&t, 0, RecordId::MAX, ReadAt::Latest);
        assert_eq!(all.iter().map(|(r, _)| *r).collect::<Vec<_>>(), records);
        assert!(all.iter().all(|(r, got)| *got == row(*r)));
        let mut unbounded = Vec::new();
        t.visit_range(.., ReadAt::Latest, |r, _, _| unbounded.push(r));
        assert_eq!(unbounded, records);
        // Bounds that are not block multiples, on both sides.
        let part = scan(&t, 33, 2_050, ReadAt::Latest);
        assert_eq!(
            part.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            (33..2_050).collect::<Vec<_>>()
        );
        assert!(scan(&t, 7, 7, ReadAt::Latest).is_empty());
        assert!(scan(&t, 9, 3, ReadAt::Latest).is_empty());
        // Purging the gap-crossing range takes the same walk.
        let (removed, _) = t.purge_range(2_000, far + 2);
        assert_eq!(removed, dense.end as usize - 2_000 + 2);
        assert_eq!(t.len(), 2_000 - 5 + 1);
        assert!(t.contains(far + 100));
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

    /// Checkpoint files of `VERSION` 3 hold their image rows in exactly this
    /// layout: key, `u32` origin, `u64` sequence, row (big-endian).
    #[test]
    fn image_record_encodes_the_version_3_checkpoint_layout() {
        let record = ImageRecord {
            key: Key::new(TableId::new(1), 42),
            stamp: VersionStamp::new(SiteId::new(2), 7),
            row: Row::new(vec![Value::I64(-5)]),
        };
        #[rustfmt::skip]
        let golden: Vec<u8> = vec![
            0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 42, // key: table, record
            0, 0, 0, 2,                          // stamp origin
            0, 0, 0, 0, 0, 0, 0, 7,              // stamp sequence
            0, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFB, // row [I64(-5)]
        ];
        assert_eq!(codec::encode_to_vec(&record), golden);
        assert_eq!(ImageRecord::decode(&mut &golden[..]).unwrap(), record);
    }

    /// A shipped record costs what it did before the wire and the disk
    /// shared one record type: key + row + 12 stamp bytes.
    #[test]
    fn image_record_length_is_key_plus_row_plus_stamp() {
        for cells in [
            vec![],
            vec![Value::U64(1)],
            vec![Value::Str("abc".into()), Value::Bytes(vec![7; 256])],
        ] {
            let record = ImageRecord {
                key: Key::new(TableId::new(0), 9),
                stamp: VersionStamp::new(SiteId::new(1), 4),
                row: Row::new(cells),
            };
            let expected = record.key.encoded_len() + record.row.encoded_len() + 12;
            assert_eq!(record.encoded_len(), expected);
            assert_eq!(codec::encode_to_vec(&record).len(), expected);
        }
    }
}

//! The offset-addressed record log (Kafka substitute) — durable for real
//! when opened on a segment directory, purely in-memory when volatile.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use dynamast_common::codec::{encode_to_vec, Decode};
use dynamast_common::config::FsyncMode;
use dynamast_common::ids::SiteId;
use dynamast_common::{DynaError, Result};
use parking_lot::{Condvar, Mutex};

use crate::record::LogRecord;
use crate::segment::SegmentLog;

/// An append-only log of encoded [`LogRecord`]s with blocking tail reads and
/// a two-phase reserve/fill write protocol.
///
/// Records are stored encoded so the log's byte footprint matches what the
/// paper's Kafka deployment would carry; subscribers decode on read and the
/// byte size is available for traffic accounting.
///
/// **Reserve/fill.** A writer that must hold its slot in a globally agreed
/// order (the commit pipeline: slot order = commit-sequence order) calls
/// [`DurableLog::reserve`] inside its tiny sequencing section, does its
/// expensive work (version installs, record serialization) outside any
/// global lock, then calls [`DurableLog::fill`]. Filled slots become visible
/// to readers only as a contiguous prefix: the fill that closes a gap
/// publishes the whole contiguous run behind it in one step — a group
/// commit — with a single wake-up for tail readers. Readers can therefore
/// never observe a gap or a torn batch. [`DurableLog::append`] is the
/// one-shot convenience (reserve + fill) for writers with no ordering
/// constraint of their own. A reservation whose committer dies is closed
/// with [`DurableLog::abort`], which fills a [`LogRecord::Noop`] tombstone —
/// the sequence space stays gap-free, so an abandoned slot can never wedge
/// the watermark.
///
/// **Persistence.** [`DurableLog::open_persistent`] backs the log with an
/// on-disk [`SegmentLog`]. Frames are written at *publish* time — inside the
/// gap-closing fill, in offset order, which is exactly the order the
/// watermark certifies — so the disk is always a prefix of what readers have
/// seen. Group fsync rides the same publish: one `fsync` per published run
/// ([`FsyncMode::Group`]), or additionally each committer blocks until the
/// sync covers its own offset ([`FsyncMode::Always`]), or frames are written
/// but never synced ([`FsyncMode::Off`], today's behavior for benches).
/// [`DurableLog::new`] keeps no disk state at all.
///
/// Tail reads are event-driven: [`DurableLog::wait_read_from`] parks on a
/// condvar that the publishing fill signals, so subscribers wake as soon as
/// a contiguous run lands instead of on a polling interval. A blocked tail
/// read is released by its caller-owned cancel flag via
/// [`DurableLog::notify_waiters`].
///
/// **Retention.** Persistent logs track a durable floor per consumer site
/// ([`DurableLog::record_consumer_floor`], advanced only once that
/// consumer's checkpoint has durably passed an offset). Whole segments below
/// the minimum floor are deleted and the in-memory window advances its
/// `base` past them; reads below `base` are errors, which the floor protocol
/// makes unreachable for well-behaved consumers.
pub struct DurableLog {
    site: SiteId,
    inner: Mutex<LogInner>,
    appended: Condvar,
    /// Signalled when the durable watermark (`synced`) advances; only
    /// [`FsyncMode::Always`] committers ever wait on it.
    durable: Condvar,
}

struct LogInner {
    /// Absolute log offset of `slots[0]` (0 until truncation discards a
    /// prefix).
    base: u64,
    /// Reserved slots at offsets `base..`; `None` = reserved but not filled.
    slots: Vec<Option<Bytes>>,
    /// Absolute length of the contiguous published prefix (records at
    /// offsets `< visible` are visible to readers).
    visible: u64,
    /// Absolute length of the prefix known durable on disk (`<= visible`;
    /// meaningless for volatile logs).
    synced: u64,
    /// Disk backend; `None` for a volatile log.
    disk: Option<SegmentLog>,
    fsync: FsyncMode,
    /// Per-consumer-site durable floors gating segment truncation.
    floors: Vec<u64>,
}

impl Default for DurableLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DurableLog {
    /// Creates an empty volatile log (no disk state; site 0).
    pub fn new() -> Self {
        Self::for_site(SiteId::new(0))
    }

    /// Creates an empty volatile log owned by `site` (the site id stamps
    /// abort tombstones).
    pub fn for_site(site: SiteId) -> Self {
        DurableLog {
            site,
            inner: Mutex::new(LogInner {
                base: 0,
                slots: Vec::new(),
                visible: 0,
                synced: 0,
                disk: None,
                fsync: FsyncMode::Off,
                floors: Vec::new(),
            }),
            appended: Condvar::new(),
            durable: Condvar::new(),
        }
    }

    /// Opens (or creates) a disk-backed log for `site` rooted at `dir`,
    /// applying the torn-tail rule to whatever segments survive on disk.
    /// Recovered records are published (and considered synced) immediately.
    /// `num_consumers` sizes the truncation floor table (one per site).
    pub fn open_persistent(
        site: SiteId,
        dir: std::path::PathBuf,
        segment_bytes: u64,
        fsync: FsyncMode,
        num_consumers: usize,
    ) -> Result<Self> {
        let recovered = SegmentLog::open(dir, segment_bytes, fsync)?;
        let visible = recovered.base + recovered.records.len() as u64;
        Ok(DurableLog {
            site,
            inner: Mutex::new(LogInner {
                base: recovered.base,
                slots: recovered.records.into_iter().map(Some).collect(),
                visible,
                synced: visible,
                disk: Some(recovered.disk),
                fsync,
                floors: vec![0; num_consumers],
            }),
            appended: Condvar::new(),
            durable: Condvar::new(),
        })
    }

    /// The site whose commit order this log holds.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Reserves the next slot, returning its offset. The caller must
    /// eventually [`DurableLog::fill`] or [`DurableLog::abort`] it; readers
    /// cannot see this slot (or any later one) until every slot up to and
    /// including it is closed.
    pub fn reserve(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.slots.push(None);
        inner.base + inner.slots.len() as u64 - 1
    }

    /// Fills a reserved slot. Serialization happens outside the log lock;
    /// if this fill closes the gap at the visible watermark, the whole
    /// contiguous run of filled slots behind it publishes at once (group
    /// commit) with one reader wake-up. Returns the new visible length when
    /// this fill advanced the watermark (`None` if an earlier slot is still
    /// open), so the gap-closing filler can publish the run downstream.
    pub fn fill(&self, offset: u64, record: &LogRecord) -> Option<u64> {
        self.fill_encoded(offset, Bytes::from(encode_to_vec(record)))
    }

    /// Like [`DurableLog::fill`] with a pre-encoded record (the commit
    /// pipeline serializes outside the log lock while other committers run).
    ///
    /// On a persistent log the gap-closing fill also writes every newly
    /// published frame to the segment file — publication order *is* offset
    /// order, so the disk never holds a record the watermark has not
    /// certified — and syncs per the fsync mode. Under [`FsyncMode::Always`]
    /// the call additionally blocks until the durable watermark covers
    /// `offset` (for a non-gap-closing filler, that sync is performed by
    /// whichever later fill publishes its run).
    pub fn fill_encoded(&self, offset: u64, encoded: Bytes) -> Option<u64> {
        self.fill_all([(offset, encoded)])
    }

    /// Fills several reserved slots under one hold of the log lock, so the
    /// run they close publishes — and on a persistent log is written and
    /// synced — once rather than once per slot (a remaster RPC logs one
    /// record per move). Otherwise exactly [`DurableLog::fill_encoded`];
    /// filling nothing is a no-op.
    pub fn fill_all(&self, fills: impl IntoIterator<Item = (u64, Bytes)>) -> Option<u64> {
        let mut inner = self.inner.lock();
        let mut last = None;
        for (offset, encoded) in fills {
            let idx = (offset - inner.base) as usize;
            let slot = &mut inner.slots[idx];
            debug_assert!(slot.is_none(), "log slot {offset} filled twice");
            *slot = Some(encoded);
            last = last.max(Some(offset));
        }
        let last = last?;
        // Advance the visible watermark over the contiguous filled prefix.
        let prev_visible = inner.visible;
        while inner
            .slots
            .get((inner.visible - inner.base) as usize)
            .is_some_and(|s| s.is_some())
        {
            inner.visible += 1;
        }
        let visible = inner.visible;
        let advanced = visible > prev_visible;
        if advanced && inner.disk.is_some() {
            self.persist_run(&mut inner, prev_visible, visible);
        }
        let must_wait_durable =
            inner.disk.is_some() && inner.fsync == FsyncMode::Always && inner.synced <= last;
        if must_wait_durable {
            // Wait for a later gap-closing fill to sync past us. The
            // reserve/fill-or-abort discipline guarantees that fill comes.
            while inner.synced <= last {
                self.durable.wait(&mut inner);
            }
        }
        drop(inner);
        if advanced {
            self.appended.notify_all();
            Some(visible)
        } else {
            None
        }
    }

    /// Writes the newly published run `[from, to)` to disk under the log
    /// lock and applies the configured fsync policy — one sync per run for
    /// `Group`/`Always`, none for `Off`.
    fn persist_run(&self, inner: &mut LogInner, from: u64, to: u64) {
        let base = inner.base;
        let disk = inner.disk.as_mut().expect("persist_run on volatile log");
        for off in from..to {
            let payload = inner.slots[(off - base) as usize]
                .as_ref()
                .expect("published slot filled");
            if let Err(err) = disk.append(off, payload) {
                // Losing the disk mid-run makes recovered state a prefix,
                // never a lie; keep serving readers from memory.
                eprintln!("[log] segment append failed at offset {off}: {err}");
                return;
            }
        }
        match inner.fsync {
            FsyncMode::Off => {}
            FsyncMode::Group | FsyncMode::Always => {
                if let Err(err) = disk.sync() {
                    eprintln!("[log] segment fsync failed: {err}");
                    return;
                }
                inner.synced = to;
                self.durable.notify_all();
            }
        }
    }

    /// Closes a reserved slot whose committer died before filling it by
    /// filling a [`LogRecord::Noop`] tombstone carrying the abandoned
    /// sequence (PR 5 invariant: slot `offset` holds sequence `offset + 1`).
    /// The tombstone publishes and propagates like any record — peers and
    /// recovery advance `svv[origin]` over it without installing anything —
    /// so the abandoned reservation can no longer wedge the visibility
    /// watermark, fsync, or remote refresh admission.
    pub fn abort(&self, offset: u64) -> Option<u64> {
        let tombstone = LogRecord::Noop {
            origin: self.site,
            sequence: offset + 1,
        };
        self.fill_encoded(offset, Bytes::from(encode_to_vec(&tombstone)))
    }

    /// Appends a record in one step (reserve + fill), returning its offset.
    ///
    /// With concurrent appenders the record still publishes only when every
    /// earlier reserved slot has filled, so readers always see a gap-free
    /// prefix.
    pub fn append(&self, record: &LogRecord) -> u64 {
        let encoded = Bytes::from(encode_to_vec(record));
        let offset = {
            let mut inner = self.inner.lock();
            inner.slots.push(None);
            inner.base + inner.slots.len() as u64 - 1
        };
        self.fill_encoded(offset, encoded);
        offset
    }

    /// Number of published (visible) records (an absolute offset: truncated
    /// records still count).
    pub fn len(&self) -> u64 {
        self.inner.lock().visible
    }

    /// Number of reserved slots, published or not (tests, diagnostics).
    pub fn reserved_len(&self) -> u64 {
        let inner = self.inner.lock();
        inner.base + inner.slots.len() as u64
    }

    /// Absolute offset of the oldest retained record (0 until truncation).
    pub fn base(&self) -> u64 {
        self.inner.lock().base
    }

    /// Absolute length of the prefix known durable on disk. Tracks `len()`
    /// for `Group`/`Always` persistent logs; 0 for volatile ones.
    pub fn synced_len(&self) -> u64 {
        self.inner.lock().synced
    }

    /// `true` if no records have been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes of retained published records.
    pub fn byte_size(&self) -> u64 {
        let inner = self.inner.lock();
        let visible_retained = (inner.visible - inner.base) as usize;
        inner.slots[..visible_retained]
            .iter()
            .map(|b| b.as_ref().expect("visible slot filled").len() as u64)
            .sum()
    }

    /// Forces the disk durable through everything published, regardless of
    /// fsync mode. Checkpoints call this before claiming an svv cut: a
    /// checkpoint must never reference offsets the disk does not hold
    /// (restart would re-allocate sequences the checkpoint already used).
    pub fn sync_for_checkpoint(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let visible = inner.visible;
        if let Some(disk) = inner.disk.as_mut() {
            disk.sync_for_checkpoint()?;
            inner.synced = visible;
            self.durable.notify_all();
        }
        Ok(())
    }

    /// Records that consumer site `consumer` has durably checkpointed
    /// through `floor` (exclusive offset) of this log, then deletes any
    /// whole segments every consumer has passed. Floors only advance.
    /// No-op for volatile logs.
    pub fn record_consumer_floor(&self, consumer: usize, floor: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.disk.is_none() {
            return Ok(());
        }
        if let Some(slot) = inner.floors.get_mut(consumer) {
            *slot = (*slot).max(floor);
        }
        let min_floor = inner.floors.iter().copied().min().unwrap_or(0);
        if min_floor <= inner.base {
            return Ok(());
        }
        let disk = inner.disk.as_mut().expect("checked above");
        let new_base = disk.truncate_segments_below(min_floor)?;
        if new_base > inner.base {
            let drop_n = (new_base - inner.base) as usize;
            inner.slots.drain(..drop_n);
            inner.base = new_base;
        }
        Ok(())
    }

    /// Reads every published record at `offset` and beyond, returning
    /// `(records, total encoded bytes)`. Returns immediately (an empty batch
    /// if nothing new). Reading below the truncated base is an error.
    pub fn read_from(&self, offset: u64) -> Result<(Vec<LogRecord>, usize)> {
        let run = visible_run(&self.inner.lock(), offset)?;
        decode_run(run)
    }

    /// Like [`DurableLog::read_from`] but blocks until at least one record
    /// is published at or past `offset`, or `cancel` becomes `true`. Returns
    /// an empty batch only when cancelled.
    ///
    /// `cancel` is re-checked under the log lock on every wakeup, so a
    /// cancellation signalled through [`DurableLog::notify_waiters`] cannot
    /// be lost between the check and the park.
    pub fn wait_read_from(
        &self,
        offset: u64,
        cancel: &AtomicBool,
    ) -> Result<(Vec<LogRecord>, usize)> {
        let run = {
            let mut inner = self.inner.lock();
            while inner.visible <= offset && !cancel.load(Ordering::Relaxed) {
                self.appended.wait(&mut inner);
            }
            visible_run(&inner, offset)?
        };
        decode_run(run)
    }

    /// Wakes every blocked [`DurableLog::wait_read_from`] so it can observe
    /// its cancel flag. Set the flag before calling this; taking the log
    /// lock here orders the store before any waiter's re-check.
    pub fn notify_waiters(&self) {
        let _inner = self.inner.lock();
        self.appended.notify_all();
        self.durable.notify_all();
    }

    /// Reads the single published record at `offset`, if present. Used by
    /// recovery's replay scheduler, which needs cheap random access.
    pub fn get(&self, offset: u64) -> Result<Option<LogRecord>> {
        let inner = self.inner.lock();
        if offset >= inner.visible {
            return Ok(None);
        }
        if offset < inner.base {
            return Err(DynaError::Internal("log read below truncated base"));
        }
        let encoded = inner.slots[(offset - inner.base) as usize]
            .as_ref()
            .expect("visible slot filled");
        let mut slice = encoded.clone();
        Ok(Some(LogRecord::decode(&mut slice)?))
    }
}

/// The encoded records published at `offset` and beyond — shared handles,
/// so the caller can drop the log lock before decoding them: committers
/// need that lock to reserve and fill, and a tail reader decodes every
/// record it reads.
fn visible_run(inner: &LogInner, offset: u64) -> Result<Vec<Bytes>> {
    let start = offset.min(inner.visible);
    if start < inner.base {
        return Err(DynaError::Internal("log read below truncated base"));
    }
    let lo = (start - inner.base) as usize;
    let hi = (inner.visible - inner.base) as usize;
    Ok(inner.slots[lo..hi]
        .iter()
        .map(|encoded| encoded.clone().expect("visible slot filled"))
        .collect())
}

/// Decodes a run from [`visible_run`], returning `(records, total encoded
/// bytes)`.
fn decode_run(run: Vec<Bytes>) -> Result<(Vec<LogRecord>, usize)> {
    let bytes = run.iter().map(Bytes::len).sum();
    let records = run
        .into_iter()
        .map(|mut encoded| LogRecord::decode(&mut encoded))
        .collect::<Result<_>>()?;
    Ok((records, bytes))
}

/// One log per site (one Kafka topic per site in the paper).
#[derive(Clone)]
pub struct LogSet {
    logs: Vec<Arc<DurableLog>>,
}

impl LogSet {
    /// Creates `num_sites` empty volatile logs.
    pub fn new(num_sites: usize) -> Self {
        LogSet {
            logs: (0..num_sites)
                .map(|i| Arc::new(DurableLog::for_site(SiteId::new(i))))
                .collect(),
        }
    }

    /// Opens `num_sites` disk-backed logs under `root` (one
    /// `site-<id>/` segment directory each), recovering whatever survives
    /// on disk with torn tails truncated.
    pub fn open_persistent(
        num_sites: usize,
        root: &std::path::Path,
        segment_bytes: u64,
        fsync: FsyncMode,
    ) -> Result<Self> {
        let mut logs = Vec::with_capacity(num_sites);
        for i in 0..num_sites {
            logs.push(Arc::new(DurableLog::open_persistent(
                SiteId::new(i),
                root.join(format!("site-{i}")),
                segment_bytes,
                fsync,
                num_sites,
            )?));
        }
        Ok(LogSet { logs })
    }

    /// The log owned by `site`.
    pub fn log(&self, site: SiteId) -> &Arc<DurableLog> {
        &self.logs[site.as_usize()]
    }

    /// Number of sites/logs.
    pub fn num_sites(&self) -> usize {
        self.logs.len()
    }

    /// All logs in site order.
    pub fn logs(&self) -> &[Arc<DurableLog>] {
        &self.logs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::VersionVector;
    use std::thread;
    use std::time::Duration;

    fn commit(origin: usize, seq: u64) -> LogRecord {
        let mut tvv = VersionVector::zero(2);
        tvv.set(SiteId::new(origin), seq);
        LogRecord::Commit {
            origin: SiteId::new(origin),
            tvv,
            writes: vec![],
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynamast-log-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_assigns_sequential_offsets() {
        let log = DurableLog::new();
        assert_eq!(log.append(&commit(0, 1)), 0);
        assert_eq!(log.append(&commit(0, 2)), 1);
        assert_eq!(log.len(), 2);
        assert!(log.byte_size() > 0);
    }

    #[test]
    fn read_from_returns_suffix() {
        let log = DurableLog::new();
        for i in 1..=5 {
            log.append(&commit(0, i));
        }
        let (records, bytes) = log.read_from(3).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].sequence(), 4);
        assert!(bytes > 0);
        let (empty, b) = log.read_from(99).unwrap();
        assert!(empty.is_empty());
        assert_eq!(b, 0);
    }

    #[test]
    fn unfilled_reservation_hides_later_fills() {
        let log = DurableLog::new();
        let s1 = log.reserve();
        let s2 = log.reserve();
        log.fill(s2, &commit(0, 2));
        // Slot 2 is filled but slot 1 is not: nothing is visible.
        assert_eq!(log.len(), 0);
        assert!(log.get(s2).unwrap().is_none());
        assert_eq!(log.reserved_len(), 2);
        // Filling the gap publishes the whole contiguous run at once.
        log.fill(s1, &commit(0, 1));
        assert_eq!(log.len(), 2);
        let (records, _) = log.read_from(0).unwrap();
        let seqs: Vec<u64> = records.iter().map(|r| r.sequence()).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    /// Regression: a reserved-but-never-filled slot used to wedge the
    /// visibility watermark forever — every later commit stayed invisible.
    /// `abort` closes the slot with a Noop tombstone that publishes like any
    /// record, so the run behind it unblocks.
    #[test]
    fn aborted_reservation_no_longer_blocks_publication() {
        let log = DurableLog::for_site(SiteId::new(1));
        let dead = log.reserve();
        let live = log.reserve();
        log.fill(live, &commit(1, 2));
        assert_eq!(log.len(), 0, "open reservation blocks the run");
        let visible = log.abort(dead);
        assert_eq!(visible, Some(2), "abort publishes the whole run");
        let (records, _) = log.read_from(0).unwrap();
        assert_eq!(
            records[0],
            LogRecord::Noop {
                origin: SiteId::new(1),
                sequence: dead + 1,
            },
            "tombstone carries the abandoned sequence (slot i = seq i+1)"
        );
        assert_eq!(records[1].sequence(), 2);
    }

    #[test]
    fn gap_fill_wakes_reader_with_whole_run() {
        let log = Arc::new(DurableLog::new());
        let s1 = log.reserve();
        let s2 = log.reserve();
        let s3 = log.reserve();
        log.fill(s2, &commit(0, 2));
        log.fill(s3, &commit(0, 3));
        let log2 = Arc::clone(&log);
        let reader = thread::spawn(move || {
            let cancel = AtomicBool::new(false);
            log2.wait_read_from(0, &cancel).unwrap().0
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!reader.is_finished(), "gapped log must not deliver");
        log.fill(s1, &commit(0, 1));
        let records = reader.join().unwrap();
        assert_eq!(records.len(), 3, "one group publish delivers the run");
    }

    #[test]
    fn wait_read_wakes_on_append() {
        let log = Arc::new(DurableLog::new());
        let log2 = Arc::clone(&log);
        let cancel = Arc::new(AtomicBool::new(false));
        let cancel2 = Arc::clone(&cancel);
        let reader = thread::spawn(move || log2.wait_read_from(0, &cancel2).unwrap().0);
        thread::sleep(Duration::from_millis(20));
        log.append(&commit(1, 1));
        let records = reader.join().unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn wait_read_returns_empty_when_cancelled() {
        let log = Arc::new(DurableLog::new());
        let log2 = Arc::clone(&log);
        let cancel = Arc::new(AtomicBool::new(false));
        let cancel2 = Arc::clone(&cancel);
        let reader = thread::spawn(move || log2.wait_read_from(0, &cancel2).unwrap().0);
        thread::sleep(Duration::from_millis(20));
        cancel.store(true, Ordering::Relaxed);
        log.notify_waiters();
        let records = reader.join().unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn pre_cancelled_wait_read_returns_immediately() {
        let log = DurableLog::new();
        let cancel = AtomicBool::new(true);
        let (records, _) = log.wait_read_from(0, &cancel).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn log_set_gives_each_site_its_own_log() {
        let set = LogSet::new(3);
        set.log(SiteId::new(1)).append(&commit(1, 1));
        assert_eq!(set.log(SiteId::new(0)).len(), 0);
        assert_eq!(set.log(SiteId::new(1)).len(), 1);
        assert_eq!(set.num_sites(), 3);
    }

    #[test]
    fn persistent_log_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let log = DurableLog::open_persistent(
                SiteId::new(0),
                dir.clone(),
                1 << 16,
                FsyncMode::Group,
                1,
            )
            .unwrap();
            for i in 1..=10 {
                log.append(&commit(0, i));
            }
            assert_eq!(log.synced_len(), 10, "group mode syncs each run");
        }
        let log =
            DurableLog::open_persistent(SiteId::new(0), dir.clone(), 1 << 16, FsyncMode::Group, 1)
                .unwrap();
        assert_eq!(log.len(), 10);
        let (records, _) = log.read_from(0).unwrap();
        let seqs: Vec<u64> = records.iter().map(|r| r.sequence()).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
        // Reserve after recovery continues the offset space.
        assert_eq!(log.reserve(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_group_fsync_covers_published_runs_only() {
        let dir = tmp_dir("group");
        let log =
            DurableLog::open_persistent(SiteId::new(0), dir.clone(), 1 << 16, FsyncMode::Group, 1)
                .unwrap();
        let s1 = log.reserve();
        let s2 = log.reserve();
        log.fill(s2, &commit(0, 2));
        assert_eq!(log.synced_len(), 0, "unpublished run is not on disk");
        log.fill(s1, &commit(0, 1));
        assert_eq!(log.synced_len(), 2, "gap-closing fill syncs the run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A remaster RPC's records go in together, in any order: one
    /// publication of the whole run, and under `Always` no self-deadlock on
    /// a later slot waiting for the sync an earlier one triggers.
    #[test]
    fn fill_all_publishes_and_syncs_its_run_once() {
        let dir = tmp_dir("fill-all");
        let log =
            DurableLog::open_persistent(SiteId::new(0), dir.clone(), 1 << 16, FsyncMode::Always, 1)
                .unwrap();
        let slots: Vec<u64> = (0..3).map(|_| log.reserve()).collect();
        let encoded = |slot: u64| Bytes::from(encode_to_vec(&commit(0, slot + 1)));
        assert_eq!(log.fill_all([]), None);
        let all = [slots[2], slots[0], slots[1]].map(|slot| (slot, encoded(slot)));
        assert_eq!(log.fill_all(all), Some(3));
        assert_eq!((log.len(), log.synced_len()), (3, 3));
        let (records, _) = log.read_from(0).unwrap();
        let seqs: Vec<u64> = records.iter().map(|r| r.sequence()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_mode_blocks_filler_until_durable() {
        let dir = tmp_dir("always");
        let log = Arc::new(
            DurableLog::open_persistent(SiteId::new(0), dir.clone(), 1 << 16, FsyncMode::Always, 1)
                .unwrap(),
        );
        let s1 = log.reserve();
        let s2 = log.reserve();
        let log2 = Arc::clone(&log);
        let filler = thread::spawn(move || log2.fill(s2, &commit(0, 2)));
        thread::sleep(Duration::from_millis(20));
        assert!(
            !filler.is_finished(),
            "always-mode filler must wait for the sync that covers it"
        );
        log.fill(s1, &commit(0, 1));
        filler.join().unwrap();
        assert_eq!(log.synced_len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn consumer_floors_gate_truncation() {
        let dir = tmp_dir("floors");
        // Tiny segments so truncation has something to delete.
        let log = DurableLog::open_persistent(SiteId::new(0), dir.clone(), 64, FsyncMode::Group, 2)
            .unwrap();
        for i in 1..=30 {
            log.append(&commit(0, i));
        }
        // Only one consumer advanced: min floor is 0, nothing truncates.
        log.record_consumer_floor(0, 25).unwrap();
        assert_eq!(log.base(), 0);
        // Both past offset 20: segments wholly below 20 go.
        log.record_consumer_floor(1, 20).unwrap();
        let base = log.base();
        assert!(base > 0, "truncation must discard passed segments");
        assert!(base <= 20, "floor record must stay retained");
        // Reads at/above the base still work; below it error.
        let (records, _) = log.read_from(base).unwrap();
        assert_eq!(records.len() as u64, 30 - base);
        assert!(log.read_from(0).is_err());
        assert!(log.get(0).is_err());
        // Floors never regress.
        log.record_consumer_floor(1, 5).unwrap();
        assert_eq!(log.base(), base);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

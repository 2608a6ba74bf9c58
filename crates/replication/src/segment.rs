//! On-disk segmented storage for a [`crate::log::DurableLog`].
//!
//! A persistent log is a directory of fixed-size-ish segment files:
//!
//! ```text
//! <root>/site-<id>/seg-<base:016x>.seg
//!
//! segment  := header frame*
//! header   := magic:u32 ("DSEG") version:u32 base_offset:u64     (16 bytes)
//! frame    := len:u32 crc:u32 payload[len]
//! ```
//!
//! `base_offset` is the absolute log offset of the segment's first frame;
//! frames are encoded [`crate::record::LogRecord`]s, appended strictly in
//! offset order (the in-memory log only writes records once they are part
//! of the contiguous visible prefix). `crc` is CRC-32 (IEEE) over the
//! payload.
//!
//! **Torn-tail rule.** On open, every segment is scanned frame by frame. A
//! short or CRC-corrupt frame is legal only at the very tail of the *last*
//! segment — the one writes were in flight to when the process died — and is
//! discarded by truncating the file at the last whole frame. The same
//! corruption anywhere else is a hard error: it means bytes the log
//! previously claimed durable are gone. A last segment too short to hold its
//! header (a crash during rotation) is deleted the same way.
//!
//! Whole segments are deleted from the front by
//! [`SegmentLog::truncate_segments_below`] once every consumer floor has
//! passed them (see the retention logic in `log.rs`).
//!
//! **Directory entries.** A file's own `fsync` does not make its name
//! durable. Under `Group` and `Always` the directory is synced right after
//! a segment is created — before any frame in it can count as synced — and
//! after segments are deleted; a fresh log also syncs the directory's
//! parent, for the directory's own entry.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use bytes::Bytes;
use dynamast_common::config::FsyncMode;
use dynamast_common::{DynaError, Result};

const MAGIC: u32 = 0x4447_5345; // "DSEG" little-endian-ish tag
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
const FRAME_HEADER_LEN: usize = 8;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `bytes`.
///
/// Hand-rolled table-based implementation: the workspace is offline and the
/// shim crates carry no checksum dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

fn io_err(what: &'static str, err: &std::io::Error) -> DynaError {
    // The io::Error detail cannot ride DynaError's static payload; surface
    // it on stderr so a failed crash-sim run is still diagnosable.
    eprintln!("[segment] {what}: {err}");
    DynaError::Internal(what)
}

/// Makes `dir`'s entries (files created or deleted in it) durable.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync segment dir", &e))
}

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:016x}.seg"))
}

fn parse_segment_base(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    u64::from_str_radix(hex, 16).ok()
}

/// The disk side of a persistent [`crate::log::DurableLog`]: an append
/// cursor over the newest segment plus rotation and front-truncation.
pub struct SegmentLog {
    dir: PathBuf,
    fsync: FsyncMode,
    segment_bytes: u64,
    /// Open handle on the segment being appended to.
    current: File,
    /// Absolute offset of the current segment's first frame.
    current_base: u64,
    /// Records written into the current segment so far.
    current_count: u64,
    /// Frame bytes written into the current segment (header excluded).
    current_len: u64,
    /// Next absolute log offset the writer expects.
    next_offset: u64,
    /// Base offset of the oldest retained segment.
    oldest_base: u64,
    /// Deterministic crash injection: abort the process mid-frame once this
    /// many frames have been written (env `DYNAMAST_TORN_WRITE_AT`).
    torn_write_at: Option<u64>,
    frames_written: u64,
}

/// A persistent log's recovered disk state.
pub struct RecoveredSegments {
    /// The writer, positioned after the last whole frame.
    pub disk: SegmentLog,
    /// Absolute offset of the first retained record.
    pub base: u64,
    /// Every retained record, in offset order starting at `base`.
    pub records: Vec<Bytes>,
}

impl SegmentLog {
    /// Opens (or initializes) the segment directory for one site's log,
    /// applying the torn-tail rule, and returns the retained records.
    pub fn open(dir: PathBuf, segment_bytes: u64, fsync: FsyncMode) -> Result<RecoveredSegments> {
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create segment dir", &e))?;
        let mut bases: Vec<u64> = std::fs::read_dir(&dir)
            .map_err(|e| io_err("list segment dir", &e))?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| parse_segment_base(&entry.path()))
            .collect();
        bases.sort_unstable();

        let torn_write_at = std::env::var("DYNAMAST_TORN_WRITE_AT")
            .ok()
            .and_then(|raw| raw.parse().ok());

        if bases.is_empty() {
            // Fresh log: make the directory's own entry durable, then create
            // the first segment at offset zero.
            if fsync != FsyncMode::Off {
                // `Path::parent` of a one-component relative path is "".
                let parent = match dir.parent() {
                    Some(p) if !p.as_os_str().is_empty() => p,
                    _ => Path::new("."),
                };
                sync_dir(parent)?;
            }
            let disk = Self::create_segment(dir, 0, segment_bytes, fsync, torn_write_at, 0)?;
            return Ok(RecoveredSegments {
                disk,
                base: 0,
                records: Vec::new(),
            });
        }

        let base = bases[0];
        let mut records: Vec<Bytes> = Vec::new();
        let mut expected_base = base;
        let last_index = bases.len() - 1;
        let mut tail: Option<(u64, u64, u64)> = None; // (base, count, frame bytes)
        for (i, &seg_base) in bases.iter().enumerate() {
            let is_last = i == last_index;
            let path = segment_path(&dir, seg_base);
            if seg_base != expected_base {
                return Err(DynaError::Internal("segment sequence has a hole"));
            }
            match Self::scan_segment(&path, seg_base, is_last)? {
                ScanOutcome::Whole { frames, len } => {
                    expected_base += frames.len() as u64;
                    let count = frames.len() as u64;
                    records.extend(frames);
                    if is_last {
                        tail = Some((seg_base, count, len));
                    }
                }
                ScanOutcome::Unusable => {
                    // Only reachable for the last segment (a crash during
                    // rotation left a headerless file): drop it and append
                    // into a recreated successor below.
                    std::fs::remove_file(&path).map_err(|e| io_err("drop torn segment", &e))?;
                }
            }
        }
        let next_offset = base + records.len() as u64;
        let disk = match tail {
            Some((seg_base, count, len)) => {
                let mut current = OpenOptions::new()
                    .append(true)
                    .open(segment_path(&dir, seg_base))
                    .map_err(|e| io_err("reopen tail segment", &e))?;
                current
                    .seek(SeekFrom::End(0))
                    .map_err(|e| io_err("seek tail segment", &e))?;
                SegmentLog {
                    dir,
                    fsync,
                    segment_bytes,
                    current,
                    current_base: seg_base,
                    current_count: count,
                    current_len: len,
                    next_offset,
                    oldest_base: base,
                    torn_write_at,
                    frames_written: 0,
                }
            }
            None => {
                Self::create_segment(dir, next_offset, segment_bytes, fsync, torn_write_at, base)?
            }
        };
        Ok(RecoveredSegments {
            disk,
            base,
            records,
        })
    }

    fn create_segment(
        dir: PathBuf,
        base_offset: u64,
        segment_bytes: u64,
        fsync: FsyncMode,
        torn_write_at: Option<u64>,
        oldest_base: u64,
    ) -> Result<SegmentLog> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&dir, base_offset))
            .map_err(|e| io_err("create segment", &e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&base_offset.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| io_err("write segment header", &e))?;
        if fsync != FsyncMode::Off {
            sync_dir(&dir)?;
        }
        Ok(SegmentLog {
            dir,
            fsync,
            segment_bytes,
            current: file,
            current_base: base_offset,
            current_count: 0,
            current_len: 0,
            next_offset: base_offset,
            oldest_base,
            torn_write_at,
            frames_written: 0,
        })
    }

    fn scan_segment(path: &Path, expected_base: u64, is_last: bool) -> Result<ScanOutcome> {
        let mut file = File::open(path).map_err(|e| io_err("open segment", &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read segment", &e))?;
        if bytes.len() < HEADER_LEN as usize {
            return if is_last {
                Ok(ScanOutcome::Unusable)
            } else {
                Err(DynaError::Internal("non-tail segment missing header"))
            };
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("sliced"));
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sliced"));
        let base = u64::from_le_bytes(bytes[8..16].try_into().expect("sliced"));
        if magic != MAGIC || version != VERSION || base != expected_base {
            return if is_last {
                Ok(ScanOutcome::Unusable)
            } else {
                Err(DynaError::Internal("segment header corrupt"))
            };
        }
        let mut frames = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut good_end = pos;
        loop {
            if pos + FRAME_HEADER_LEN > bytes.len() {
                break; // short frame header: torn tail candidate
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("sliced")) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("sliced"));
            let payload_start = pos + FRAME_HEADER_LEN;
            if payload_start + len > bytes.len() {
                break; // short payload: torn tail candidate
            }
            let payload = &bytes[payload_start..payload_start + len];
            if crc32(payload) != crc {
                break; // corrupt frame: torn tail candidate
            }
            frames.push(Bytes::copy_from_slice(payload));
            pos = payload_start + len;
            good_end = pos;
        }
        if good_end != bytes.len() {
            if !is_last {
                return Err(DynaError::Internal("corrupt frame inside retained segment"));
            }
            // Torn tail: discard everything past the last whole frame.
            drop(file);
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("reopen segment for truncate", &e))?;
            f.set_len(good_end as u64)
                .map_err(|e| io_err("truncate torn tail", &e))?;
            f.sync_all()
                .map_err(|e| io_err("sync truncated segment", &e))?;
        }
        let len = (good_end as u64) - HEADER_LEN;
        Ok(ScanOutcome::Whole { frames, len })
    }

    /// Absolute offset of the next frame the writer will append.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Appends one record's frame at `offset` (must be `next_offset`;
    /// callers write strictly in publication order). Rotates first when the
    /// current segment is full. Does not sync — see [`SegmentLog::sync`].
    pub fn append(&mut self, offset: u64, payload: &[u8]) -> Result<()> {
        assert_eq!(
            offset, self.next_offset,
            "segment frames must append in offset order"
        );
        if self.current_len >= self.segment_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        if let Some(at) = self.torn_write_at {
            if self.frames_written == at {
                // Deterministic mid-fill death: half a frame reaches the
                // file, then the process dies without unwinding — exactly
                // what a power cut or SIGKILL mid-`write` leaves behind.
                let torn = &frame[..FRAME_HEADER_LEN + payload.len() / 2];
                let _ = self.current.write_all(torn);
                let _ = self.current.sync_all();
                std::process::abort();
            }
        }
        self.current
            .write_all(&frame)
            .map_err(|e| io_err("append frame", &e))?;
        self.frames_written += 1;
        self.current_len += frame.len() as u64;
        self.current_count += 1;
        self.next_offset += 1;
        Ok(())
    }

    /// Rotates to a fresh segment. The outgoing segment is synced first
    /// (unless fsync is off) so a whole-segment file is never torn.
    fn rotate(&mut self) -> Result<()> {
        if self.fsync != FsyncMode::Off {
            self.current
                .sync_all()
                .map_err(|e| io_err("sync rotated segment", &e))?;
        }
        let next = Self::create_segment(
            self.dir.clone(),
            self.next_offset,
            self.segment_bytes,
            self.fsync,
            self.torn_write_at,
            self.oldest_base,
        )?;
        let frames_written = self.frames_written;
        *self = next;
        self.frames_written = frames_written;
        Ok(())
    }

    /// Syncs the current segment per the configured fsync mode (no-op for
    /// [`FsyncMode::Off`]).
    pub fn sync(&mut self) -> Result<()> {
        if self.fsync == FsyncMode::Off {
            return Ok(());
        }
        self.current
            .sync_all()
            .map_err(|e| io_err("fsync segment", &e))
    }

    /// Forces a sync regardless of mode (checkpoint writes must not claim
    /// offsets the disk does not hold, even under `FsyncMode::Off`).
    pub fn sync_for_checkpoint(&mut self) -> Result<()> {
        self.current
            .sync_all()
            .map_err(|e| io_err("fsync segment for checkpoint", &e))
    }

    /// Deletes whole segments entirely below `floor` (exclusive) and
    /// returns the new oldest retained base. The active segment is never
    /// deleted.
    pub fn truncate_segments_below(&mut self, floor: u64) -> Result<u64> {
        if self.oldest_base >= floor {
            return Ok(self.oldest_base);
        }
        let mut bases: Vec<u64> = std::fs::read_dir(&self.dir)
            .map_err(|e| io_err("list segment dir", &e))?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| parse_segment_base(&entry.path()))
            .collect();
        bases.sort_unstable();
        // A segment covers [base, next segment's base); deletable when that
        // whole range is below the floor and it is not the active segment.
        let mut deleted = false;
        for pair in bases.windows(2) {
            let (seg, next) = (pair[0], pair[1]);
            if next <= floor && seg != self.current_base {
                std::fs::remove_file(segment_path(&self.dir, seg))
                    .map_err(|e| io_err("delete truncated segment", &e))?;
                self.oldest_base = next;
                deleted = true;
            } else {
                break;
            }
        }
        if deleted && self.fsync != FsyncMode::Off {
            sync_dir(&self.dir)?;
        }
        Ok(self.oldest_base)
    }
}

enum ScanOutcome {
    Whole { frames: Vec<Bytes>, len: u64 },
    Unusable,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynamast-seg-{tag}-{}-{}",
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
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_reopen_roundtrips_across_rotation() {
        let dir = tmp_dir("roundtrip");
        {
            let mut rec = SegmentLog::open(dir.clone(), 64, FsyncMode::Group).unwrap();
            assert_eq!(rec.base, 0);
            for i in 0..20u64 {
                rec.disk.append(i, &i.to_le_bytes()).unwrap();
            }
            rec.disk.sync().unwrap();
        }
        let rec = SegmentLog::open(dir.clone(), 64, FsyncMode::Group).unwrap();
        assert_eq!(rec.base, 0);
        assert_eq!(rec.records.len(), 20);
        for (i, frame) in rec.records.iter().enumerate() {
            assert_eq!(frame.as_ref(), (i as u64).to_le_bytes());
        }
        // Rotation actually happened (several segment files exist).
        let segs = std::fs::read_dir(&dir).unwrap().count();
        assert!(segs > 1, "expected rotation, found {segs} file(s)");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        {
            let mut rec = SegmentLog::open(dir.clone(), 1 << 20, FsyncMode::Group).unwrap();
            for i in 0..5u64 {
                rec.disk.append(i, &i.to_le_bytes()).unwrap();
            }
            rec.disk.sync().unwrap();
        }
        // Tear the tail: append half a frame by hand.
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[9u8, 0, 0, 0, 0xAA, 0xBB]).unwrap(); // len=9, partial crc
        drop(f);
        let rec = SegmentLog::open(dir.clone(), 1 << 20, FsyncMode::Group).unwrap();
        assert_eq!(rec.records.len(), 5, "torn frame discarded");
        // The truncation is physical: a re-open sees a clean tail too.
        let rec2 = SegmentLog::open(dir.clone(), 1 << 20, FsyncMode::Group).unwrap();
        assert_eq!(rec2.records.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_in_non_tail_segment_is_a_hard_error() {
        let dir = tmp_dir("midcorrupt");
        {
            let mut rec = SegmentLog::open(dir.clone(), 32, FsyncMode::Group).unwrap();
            for i in 0..12u64 {
                rec.disk.append(i, &i.to_le_bytes()).unwrap();
            }
            rec.disk.sync().unwrap();
        }
        // Flip a payload byte inside the FIRST segment (not the tail).
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&seg, bytes).unwrap();
        match SegmentLog::open(dir.clone(), 32, FsyncMode::Group) {
            Err(err) => assert_eq!(
                err,
                DynaError::Internal("corrupt frame inside retained segment")
            ),
            Ok(_) => panic!("mid-log corruption must be a hard error"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_segments_below_keeps_covering_segment() {
        let dir = tmp_dir("truncate");
        let mut rec = SegmentLog::open(dir.clone(), 32, FsyncMode::Off).unwrap();
        for i in 0..30u64 {
            rec.disk.append(i, &i.to_le_bytes()).unwrap();
        }
        let new_base = rec.disk.truncate_segments_below(17).unwrap();
        assert!(new_base <= 17, "floor record must stay retained");
        assert!(new_base > 0, "something must have been deleted");
        // Reopen: retained records must start exactly at the new base.
        drop(rec);
        let reopened = SegmentLog::open(dir.clone(), 32, FsyncMode::Off).unwrap();
        assert_eq!(reopened.base, new_base);
        assert_eq!(
            reopened.records.len() as u64,
            30 - new_base,
            "suffix retained"
        );
        assert_eq!(
            reopened.records[0].as_ref(),
            new_base.to_le_bytes(),
            "first retained record is the one at the new base"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

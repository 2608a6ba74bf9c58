//! Durable site checkpoints (§V-C, extended to a real disk).
//!
//! A checkpoint is one site's consistent cut: the svv at the cut, a store
//! image of every record version visible at that cut, the per-origin log
//! offsets the cut corresponds to (identical to the svv by the slot =
//! sequence invariant), and the set of partitions the site mastered. On
//! restart the site loads the newest valid checkpoint and replays only the
//! retained segment suffix past its offsets ([`crate::recovery::replay`]
//! seeded with the checkpoint) instead of history from offset zero —
//! and once every site's checkpoint has durably passed a segment, the
//! segment can be deleted, closing the unbounded-log hole.
//!
//! **Write protocol.** The checkpoint is encoded into `ckpt-<counter>.tmp`,
//! `fsync`ed, renamed to `ckpt-<counter:016x>.ckpt`, and the directory
//! `fsync`ed — a crash at any point leaves either the previous checkpoint or
//! a complete new one, never a half-written file that parses. The newest two
//! checkpoints are retained (the previous one is the fallback if the newest
//! is torn mid-rename); older ones are pruned. Decoding verifies a trailing
//! CRC-32 over the whole body, so [`load_latest`] skips a corrupt newest
//! file and falls back.
//!
//! **Ordering.** The caller must force the site's own log durable through
//! the cut (`DurableLog::sync_for_checkpoint`) *before* writing the
//! checkpoint: a checkpoint claiming `svv[self] = n` with fewer than `n`
//! records on disk would make restart re-allocate sequence numbers the
//! checkpoint already accounted for, breaking the slot = sequence invariant.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use dynamast_common::codec::{self, Buf, BufMut, Decode, Encode};
use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_storage::ImageRecord;

use crate::segment::crc32;

const MAGIC: u32 = 0x444B_4350; // "DKCP"
/// Version 2 added the remaster-epoch watermark; version 3 added the
/// hosted-partition set (partial replication) and incremental images chained
/// to a base full checkpoint. A file of another version fails the header
/// check and is skipped like a corrupt one. That is no fallback to full log
/// replay: once checkpoint-gated truncation has deleted segments, recovery
/// without a usable checkpoint is refused (the cut it needs lies outside the
/// retained log), and bulk-loaded rows were never in the log at all. A
/// format change must therefore ship a reader for the version before it.
const VERSION: u32 = 3;

/// One site's durable consistent cut.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Monotone per-site checkpoint counter (newest wins).
    pub counter: u64,
    /// The checkpointing site.
    pub site: SiteId,
    /// The svv at the cut.
    pub svv: VersionVector,
    /// Per-origin log offsets consumed at the cut (== `svv` components by
    /// the slot = sequence invariant; stored separately so the invariant is
    /// checkable on restart).
    pub offsets: Vec<u64>,
    /// Partitions this site mastered at the cut (draining sentinels
    /// excluded).
    pub mastered: Vec<PartitionId>,
    /// Highest remaster epoch this site had participated in at the cut.
    /// Persisting it closes the epoch-reissue window after log truncation:
    /// without it, a recovering selector whose logs were truncated past the
    /// last Release/Grant record could re-allocate already-used epochs.
    pub epoch: u64,
    /// Counter of the full checkpoint this one's image is incremental
    /// over: the image covers only partitions dirtied since that base, and
    /// [`load_latest`] merges it onto the base image. `0` = this is a full
    /// (self-contained) image.
    pub base_counter: u64,
    /// Partitions this site held a copy of at the cut. `None` = full
    /// replication (the site hosts everything) — the seed behavior.
    /// Recovery replays only these partitions' write suffixes and the
    /// selector reconciles its replica map rows for the site against it.
    pub hosted: Option<Vec<PartitionId>>,
    /// Store image: every record version visible at the cut (full), or the
    /// visible versions of partitions dirtied since `base_counter`
    /// (incremental).
    pub image: Vec<ImageRecord>,
}

impl Checkpoint {
    /// Whether this checkpoint's image is incremental over a base.
    pub fn is_incremental(&self) -> bool {
        self.base_counter != 0
    }

    /// Overlays an incremental checkpoint onto its base full image: entries
    /// merge by key (the incremental's newer cut wins) and all cut metadata
    /// (svv, offsets, mastered, epoch, hosted) comes from the incremental.
    /// Keys of partitions *dropped* between the two cuts survive the merge;
    /// restore filters the image by `hosted`, which excludes them.
    pub fn merge_onto(self, base: Checkpoint) -> Checkpoint {
        debug_assert!(self.is_incremental() && !base.is_incremental());
        let mut by_key: std::collections::HashMap<Key, ImageRecord> = base
            .image
            .into_iter()
            .map(|entry| (entry.key, entry))
            .collect();
        for entry in self.image {
            by_key.insert(entry.key, entry);
        }
        let mut image: Vec<ImageRecord> = by_key.into_values().collect();
        image.sort_by_key(|entry| entry.key);
        Checkpoint {
            base_counter: 0,
            image,
            ..self
        }
    }
}

/// The file counts its id and offset sequences in `u64`s (the wire's
/// sequences count in `u32`s); the image is an ordinary wire sequence.
fn put_seq<T: Encode>(items: &[T], buf: &mut impl BufMut) {
    buf.put_u64(items.len() as u64);
    for item in items {
        item.encode(buf);
    }
}

fn seq_len<T: Encode>(items: &[T]) -> usize {
    8 + items.iter().map(Encode::encoded_len).sum::<usize>()
}

fn get_seq<T: Decode>(buf: &mut impl Buf) -> Result<Vec<T>> {
    let n = codec::check_count(codec::get_u64(buf)?, buf, "checkpoint count")?;
    (0..n).map(|_| T::decode(buf)).collect()
}

impl Encode for Checkpoint {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.counter);
        self.site.encode(buf);
        self.svv.encode(buf);
        put_seq(&self.offsets, buf);
        put_seq(&self.mastered, buf);
        buf.put_u64(self.epoch);
        buf.put_u64(self.base_counter);
        match &self.hosted {
            None => buf.put_u8(0),
            Some(hosted) => {
                buf.put_u8(1);
                put_seq(hosted, buf);
            }
        }
        self.image.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        8 + 4
            + self.svv.encoded_len()
            + seq_len(&self.offsets)
            + seq_len(&self.mastered)
            + 8
            + 8
            + 1
            + self.hosted.as_deref().map_or(0, seq_len)
            + self.image.encoded_len()
    }
}

impl Decode for Checkpoint {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(Checkpoint {
            counter: codec::get_u64(buf)?,
            site: SiteId::decode(buf)?,
            svv: VersionVector::decode(buf)?,
            offsets: get_seq(buf)?,
            mastered: get_seq(buf)?,
            epoch: codec::get_u64(buf)?,
            base_counter: codec::get_u64(buf)?,
            hosted: match codec::get_u8(buf)? {
                0 => None,
                _ => Some(get_seq(buf)?),
            },
            image: Vec::decode(buf)?,
        })
    }
}

fn io_err(what: &'static str, err: &std::io::Error) -> DynaError {
    eprintln!("[checkpoint] {what}: {err}");
    DynaError::Internal(what)
}

/// Full checkpoints are `ckpt-<counter>.ckpt`; incrementals encode their
/// base in the name (`ckpt-<counter>-inc-<base>.ckpt`) so pruning and chain
/// resolution never need to read file bodies.
fn checkpoint_path(dir: &Path, counter: u64, base_counter: u64) -> PathBuf {
    if base_counter == 0 {
        dir.join(format!("ckpt-{counter:016x}.ckpt"))
    } else {
        dir.join(format!("ckpt-{counter:016x}-inc-{base_counter:016x}.ckpt"))
    }
}

/// Parses a checkpoint filename into `(counter, base_counter)`
/// (`base_counter == 0` for fulls).
fn parse_counter(path: &Path) -> Option<(u64, u64)> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    match hex.split_once("-inc-") {
        None => Some((u64::from_str_radix(hex, 16).ok()?, 0)),
        Some((counter, base)) => Some((
            u64::from_str_radix(counter, 16).ok()?,
            u64::from_str_radix(base, 16).ok()?,
        )),
    }
}

/// Durably writes `ckpt` into `dir` (tmp + fsync + rename + dir fsync) and
/// prunes all but the newest two checkpoints.
pub fn write(dir: &Path, ckpt: &Checkpoint) -> Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", &e))?;
    let body = codec::encode_to_vec(ckpt);
    let mut file_bytes = Vec::with_capacity(8 + body.len() + 4);
    file_bytes.extend_from_slice(&MAGIC.to_le_bytes());
    file_bytes.extend_from_slice(&VERSION.to_le_bytes());
    file_bytes.extend_from_slice(&body);
    file_bytes.extend_from_slice(&crc32(&body).to_le_bytes());

    let tmp = dir.join(format!("ckpt-{:016x}.tmp", ckpt.counter));
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("create checkpoint tmp", &e))?;
        f.write_all(&file_bytes)
            .map_err(|e| io_err("write checkpoint", &e))?;
        f.sync_all().map_err(|e| io_err("fsync checkpoint", &e))?;
    }
    std::fs::rename(&tmp, checkpoint_path(dir, ckpt.counter, ckpt.base_counter))
        .map_err(|e| io_err("rename checkpoint", &e))?;
    // Sync the directory so the rename itself is durable.
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync checkpoint dir", &e))?;
    prune(dir)?;
    Ok(())
}

/// Deletes stale tmps, all but the two newest *full* checkpoints, and any
/// incremental whose base full was pruned (an orphan increment is
/// unloadable). Incrementals chained to a retained full are kept — they are
/// the newest cuts.
fn prune(dir: &Path) -> Result<()> {
    let mut files: Vec<(u64, u64)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("list checkpoint dir", &e))? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = std::fs::remove_file(&path);
        } else if let Some(parsed) = parse_counter(&path) {
            files.push(parsed);
        }
    }
    let mut fulls: Vec<u64> = files
        .iter()
        .filter(|(_, base)| *base == 0)
        .map(|(c, _)| *c)
        .collect();
    fulls.sort_unstable();
    let kept_fulls: std::collections::HashSet<u64> = fulls.iter().rev().take(2).copied().collect();
    for (counter, base) in files {
        let keep = if base == 0 {
            kept_fulls.contains(&counter)
        } else {
            kept_fulls.contains(&base)
        };
        if !keep {
            std::fs::remove_file(checkpoint_path(dir, counter, base))
                .map_err(|e| io_err("prune old checkpoint", &e))?;
        }
    }
    Ok(())
}

fn try_load(path: &Path) -> Result<Checkpoint> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read checkpoint", &e))?;
    if bytes.len() < 12 {
        return Err(DynaError::Internal("checkpoint file too short"));
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("sliced"));
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("sliced"));
    if magic != MAGIC || version != VERSION {
        return Err(DynaError::Internal("checkpoint header mismatch"));
    }
    let body = &bytes[8..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("sliced"));
    if crc32(body) != crc {
        return Err(DynaError::Internal("checkpoint crc mismatch"));
    }
    let mut slice = body;
    Checkpoint::decode(&mut slice)
}

/// Loads the newest valid checkpoint in `dir`, skipping corrupt files (a
/// torn newest checkpoint falls back to its predecessor). An incremental
/// checkpoint is resolved against its base full image ([`Checkpoint::merge_onto`]);
/// if the base is missing or corrupt the incremental is skipped the same way
/// a corrupt file is. `Ok(None)` if the directory holds no usable
/// checkpoint. The returned checkpoint is always self-contained
/// (`base_counter == 0`).
pub fn load_latest(dir: &Path) -> Result<Option<Checkpoint>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(None); // no directory yet: a fresh site
    };
    let mut files: Vec<(u64, u64)> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| parse_counter(&e.path()))
        .collect();
    files.sort_unstable();
    for &(counter, base) in files.iter().rev() {
        let Ok(ckpt) = try_load(&checkpoint_path(dir, counter, base)) else {
            continue; // corrupt: fall back to the previous one
        };
        if !ckpt.is_incremental() {
            return Ok(Some(ckpt));
        }
        match try_load(&checkpoint_path(dir, ckpt.base_counter, 0)) {
            Ok(full) if !full.is_incremental() => return Ok(Some(ckpt.merge_onto(full))),
            _ => continue, // orphaned/corrupt base: fall back further
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::TableId;
    use dynamast_common::{Row, Value};
    use dynamast_storage::VersionStamp;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dynamast-ckpt-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(counter: u64) -> Checkpoint {
        Checkpoint {
            counter,
            site: SiteId::new(1),
            svv: VersionVector::from_counts(vec![3, 7, 0]),
            offsets: vec![3, 7, 0],
            mastered: vec![PartitionId::new(4), PartitionId::new(9)],
            epoch: 12,
            base_counter: 0,
            hosted: Some(vec![PartitionId::new(4), PartitionId::new(7)]),
            image: vec![ImageRecord {
                key: Key::new(TableId::new(0), 42),
                stamp: VersionStamp::new(SiteId::new(1), 7),
                row: Row::new(vec![Value::I64(100)]),
            }],
        }
    }

    fn entry(record: u64, seq: u64, v: i64) -> ImageRecord {
        ImageRecord {
            key: Key::new(TableId::new(0), record),
            stamp: VersionStamp::new(SiteId::new(1), seq),
            row: Row::new(vec![Value::I64(v)]),
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let dir = tmp_dir("roundtrip");
        write(&dir, &sample(1)).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded, sample(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newest_checkpoint_wins_and_old_ones_prune() {
        let dir = tmp_dir("prune");
        for c in 1..=5 {
            write(&dir, &sample(c)).unwrap();
        }
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.counter, 5);
        let kept = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(kept, 2, "only the newest two checkpoints are retained");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_predecessor() {
        let dir = tmp_dir("fallback");
        write(&dir, &sample(1)).unwrap();
        write(&dir, &sample(2)).unwrap();
        // Corrupt the newest file's tail.
        let newest = checkpoint_path(&dir, 2, 0);
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.counter, 1, "corrupt newest must fall back");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_merges_onto_its_base_full() {
        let dir = tmp_dir("inc-merge");
        let mut full = sample(1);
        full.image = vec![entry(1, 1, 10), entry(2, 1, 20)];
        write(&dir, &full).unwrap();
        let mut inc = sample(2);
        inc.base_counter = 1;
        inc.svv = VersionVector::from_counts(vec![3, 9, 0]);
        inc.offsets = vec![3, 9, 0];
        inc.epoch = 14;
        inc.image = vec![entry(2, 9, 99), entry(3, 9, 30)];
        write(&dir, &inc).unwrap();

        let loaded = load_latest(&dir).unwrap().unwrap();
        assert!(!loaded.is_incremental(), "resolved image is self-contained");
        assert_eq!(loaded.counter, 2);
        assert_eq!(loaded.epoch, 14, "cut metadata comes from the incremental");
        assert_eq!(loaded.svv, VersionVector::from_counts(vec![3, 9, 0]));
        assert_eq!(
            loaded.image,
            vec![entry(1, 1, 10), entry(2, 9, 99), entry(3, 9, 30)],
            "incremental entries override the base by key"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_incremental_falls_back_to_older_full() {
        let dir = tmp_dir("inc-orphan");
        write(&dir, &sample(1)).unwrap();
        // An incremental claiming a base that never existed on disk.
        let mut inc = sample(3);
        inc.base_counter = 2;
        write(&dir, &inc).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.counter, 1, "orphaned incremental must be skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_incrementals_chained_to_retained_fulls() {
        let dir = tmp_dir("inc-prune");
        write(&dir, &sample(1)).unwrap();
        write(&dir, &sample(2)).unwrap();
        let mut inc = sample(3);
        inc.base_counter = 2;
        write(&dir, &inc).unwrap();
        write(&dir, &sample(4)).unwrap();
        // Fulls kept: {2, 4}; inc 3 rides on full 2.
        assert!(checkpoint_path(&dir, 2, 0).exists());
        assert!(checkpoint_path(&dir, 3, 2).exists());
        assert!(!checkpoint_path(&dir, 1, 0).exists());
        write(&dir, &sample(5)).unwrap();
        // Fulls kept: {4, 5}; full 2 and its incremental both go.
        assert!(!checkpoint_path(&dir, 2, 0).exists());
        assert!(!checkpoint_path(&dir, 3, 2).exists());
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.counter, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_count_the_body_cannot_hold_is_refused() {
        let mut body = codec::encode_to_vec(&sample(1));
        // counter, site, then a 3-dimension svv: the offsets count follows.
        let at = 8 + 4 + (4 + 3 * 8);
        assert_eq!(body[at..at + 8], 3u64.to_be_bytes());
        body[at..at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(Checkpoint::decode(&mut &body[..]).is_err());
    }

    #[test]
    fn missing_directory_is_a_fresh_site() {
        let dir = std::env::temp_dir().join("dynamast-ckpt-definitely-missing-xyz");
        assert!(load_latest(&dir).unwrap().is_none());
    }
}

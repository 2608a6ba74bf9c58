//! Durable site checkpoints (§V-C, extended to a real disk).
//!
//! A checkpoint is one site's consistent cut: the svv at the cut, a store
//! image of every record version visible at that cut, the per-origin log
//! offsets the cut corresponds to (identical to the svv by the slot =
//! sequence invariant), and the set of partitions the site mastered. On
//! restart the site loads the newest valid checkpoint and replays only the
//! retained segment suffix past its offsets (`dynamast_site::pipeline::replay`
//! seeded with the checkpoint) instead of history from offset zero —
//! and once every site's checkpoint has durably passed a segment, the
//! segment can be deleted, closing the unbounded-log hole.
//!
//! **Write protocol.** A [`Writer`] builds the file in one buffer while the
//! store walk visits the image: the header and the fields before the image
//! first, then each record as it is visited, then the image count patched
//! in place and one CRC-32 over the body. No image is collected and the
//! body is never copied. The buffer goes to `ckpt-<counter>.tmp` in one
//! write, is `fsync`ed, renamed to `ckpt-<counter:016x>.ckpt`, and the
//! directory `fsync`ed — a crash at any point leaves either the previous
//! checkpoint or a complete new one, never a half-written file that parses.
//! The newest two checkpoints are retained (the previous one is the
//! fallback if the newest is torn mid-rename); older ones are pruned.
//!
//! **Read protocol.** [`load_latest`] reads the file once, checks the header
//! and body CRC (skipping a corrupt newest file) and decodes the fields
//! before the image. The [`Image`] stays encoded until the restore decodes
//! and installs it one record at a time.
//!
//! **Ordering.** The caller must force the site's own log durable through
//! the cut (`DurableLog::sync_for_checkpoint`, which returns at once when
//! the log's fsync mode has already synced every published record) *before*
//! writing the checkpoint: a checkpoint claiming `svv[self] = n` with fewer
//! than `n` records on disk would make restart re-allocate sequence numbers
//! the checkpoint already accounted for, breaking the slot = sequence
//! invariant.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use dynamast_common::codec::{self, Buf, BufMut, Decode, Encode};
use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_storage::{ImageRecord, VersionStamp};

use crate::segment::crc32;

const MAGIC: u32 = 0x444B_4350; // "DKCP"
/// Version 2 added the remaster-epoch watermark; version 3 added the
/// hosted-partition set (partial replication) and a reserved `u64` after the
/// epoch, written as `0`. A nonzero word marks an image that is not the full
/// cut (an older writer's incremental); decoding refuses it, so such a file
/// is skipped like a corrupt one, as is a file of another version (an image
/// record that does not decode fails the restore instead). Skipping is no
/// fallback to full log replay: once checkpoint-gated truncation has
/// deleted segments, recovery without a usable checkpoint is refused (the
/// cut it needs lies outside the retained log), and bulk-loaded rows were
/// never in the log at all. A format change must therefore ship a reader
/// for the version before it.
const VERSION: u32 = 3;

/// One site's durable consistent cut, as [`load_latest`] loads it
/// ([`Writer`] writes it).
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
    /// Partitions this site mastered at the cut (one mid-release is no
    /// longer mastered).
    pub mastered: Vec<PartitionId>,
    /// Highest remaster epoch this site had participated in at the cut.
    /// Persisting it closes the epoch-reissue window after log truncation:
    /// without it, a recovering selector whose logs were truncated past the
    /// last Release/Grant record could re-allocate already-used epochs.
    pub epoch: u64,
    /// Partitions this site held a copy of at the cut. `None` = full
    /// replication (the site hosts everything) — the seed behavior.
    /// Recovery replays only these partitions' write suffixes and the
    /// selector reconciles its replica map rows for the site against it.
    pub hosted: Option<Vec<PartitionId>>,
    /// Store image: every record version visible at the cut, still encoded.
    pub image: Image,
}

/// A checkpoint's image section, encoded as a `Vec<ImageRecord>` is on the
/// wire; loaded, a view of the file. [`Image::records`] decodes it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Image {
    count: usize,
    records: Bytes,
}

impl Image {
    /// The records in file order, each decoded as it is reached.
    pub fn records(&self) -> impl Iterator<Item = Result<ImageRecord>> + '_ {
        let mut buf = &self.records[..];
        (0..self.count).map(move |_| ImageRecord::decode(&mut buf))
    }
}

impl Encode for Image {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.count as u32);
        buf.put_slice(&self.records);
    }

    fn encoded_len(&self) -> usize {
        4 + self.records.len()
    }
}

/// Takes the rest of `buf` as the records, undecoded.
impl Decode for Image {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(Image {
            count: codec::check_count(codec::get_u32(buf)?.into(), buf, "image count")?,
            records: buf.copy_to_bytes(buf.remaining()),
        })
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

fn get_seq<T: Decode>(buf: &mut impl Buf) -> Result<Vec<T>> {
    let n = codec::check_count(codec::get_u64(buf)?, buf, "checkpoint count")?;
    (0..n).map(|_| T::decode(buf)).collect()
}

/// One checkpoint file, built in one buffer while the store walk yields the
/// image: [`Writer::new`] puts the header and a [`Checkpoint`]'s fields,
/// [`Writer::record`] appends each image record as it is visited, and
/// [`Writer::write`] patches in the image count, appends the CRC and makes
/// the file durable. The bytes are what [`load_latest`] loads.
pub struct Writer {
    counter: u64,
    offsets: Vec<u64>,
    /// Header, then the body so far.
    file: Vec<u8>,
    /// Position of the body's `u32` image count.
    count_at: usize,
    records: usize,
}

impl Writer {
    /// Starts the file of `cut`: its fields, then its image, which
    /// [`Writer::record`] extends (a site's walk starts from an empty one).
    pub fn new(cut: Checkpoint) -> Self {
        let mut file = header();
        file.put_u64(cut.counter);
        cut.site.encode(&mut file);
        cut.svv.encode(&mut file);
        put_seq(&cut.offsets, &mut file);
        put_seq(&cut.mastered, &mut file);
        file.put_u64(cut.epoch);
        file.put_u64(0); // reserved
        match &cut.hosted {
            None => file.put_u8(0),
            Some(hosted) => {
                file.put_u8(1);
                put_seq(hosted, &mut file);
            }
        }
        let count_at = file.len();
        cut.image.encode(&mut file); // its count is patched by `into_file`
        Writer {
            counter: cut.counter,
            offsets: cut.offsets,
            file,
            count_at,
            records: cut.image.count,
        }
    }

    /// Appends one image record, in [`ImageRecord`]'s layout.
    pub fn record(&mut self, key: Key, stamp: VersionStamp, row: &Row) {
        key.encode(&mut self.file);
        stamp.encode(&mut self.file);
        row.encode(&mut self.file);
        self.records += 1;
    }

    /// The per-origin log offsets this checkpoint's cut corresponds to.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The finished file: the image count patched in, the body's CRC-32
    /// appended. An image of more than `u32::MAX` records is an error.
    fn into_file(mut self) -> Result<Vec<u8>> {
        let count = u32::try_from(self.records)
            .map_err(|_| DynaError::Internal("checkpoint image exceeds u32::MAX records"))?;
        self.file[self.count_at..self.count_at + 4].copy_from_slice(&count.to_be_bytes());
        let crc = crc32(&self.file[HEADER_LEN..]);
        self.file.extend(crc.to_le_bytes());
        Ok(self.file)
    }

    /// Durably writes the file into `dir` (tmp + fsync + rename + dir
    /// fsync) and prunes all but the newest two checkpoints.
    pub fn write(self, dir: &Path) -> Result<()> {
        let counter = self.counter;
        let file = self.into_file()?;
        std::fs::create_dir_all(dir).map_err(|e| io_err("create checkpoint dir", &e))?;
        let tmp = dir.join(format!("ckpt-{counter:016x}.tmp"));
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create checkpoint tmp", &e))?;
            f.write_all(&file)
                .map_err(|e| io_err("write checkpoint", &e))?;
            f.sync_all().map_err(|e| io_err("fsync checkpoint", &e))?;
        }
        std::fs::rename(&tmp, checkpoint_path(dir, counter))
            .map_err(|e| io_err("rename checkpoint", &e))?;
        // Sync the directory so the rename itself is durable.
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("fsync checkpoint dir", &e))?;
        prune(dir)
    }
}

/// Decodes the fields before the image; the image stays encoded.
impl Decode for Checkpoint {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        Ok(Checkpoint {
            counter: codec::get_u64(buf)?,
            site: SiteId::decode(buf)?,
            svv: VersionVector::decode(buf)?,
            offsets: get_seq(buf)?,
            mastered: get_seq(buf)?,
            epoch: codec::get_u64(buf)?,
            // The reserved word, then the hosted tag.
            hosted: match (codec::get_u64(buf)?, codec::get_u8(buf)?) {
                (0, 0) => None,
                (0, _) => Some(get_seq(buf)?),
                _ => return Err(DynaError::Internal("checkpoint image is not a full cut")),
            },
            image: Image::decode(buf)?,
        })
    }
}

fn io_err(what: &'static str, err: &std::io::Error) -> DynaError {
    eprintln!("[checkpoint] {what}: {err}");
    DynaError::Internal(what)
}

fn checkpoint_path(dir: &Path, counter: u64) -> PathBuf {
    dir.join(format!("ckpt-{counter:016x}.ckpt"))
}

/// The counter a checkpoint file name carries (`None` for any other file).
fn parse_counter(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    u64::from_str_radix(hex, 16).ok()
}

const HEADER_LEN: usize = 8;

/// Magic and version: the file's first [`HEADER_LEN`] bytes.
fn header() -> Vec<u8> {
    [MAGIC.to_le_bytes(), VERSION.to_le_bytes()].concat()
}

/// The checkpoint counters in `dir`, ascending (none if `dir` is missing).
fn counters(dir: &Path) -> Vec<u64> {
    let mut counters: Vec<u64> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| parse_counter(&entry.ok()?.path()))
        .collect();
    counters.sort_unstable();
    counters
}

/// Deletes stale tmps and all but the two newest checkpoints.
fn prune(dir: &Path) -> Result<()> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("list checkpoint dir", &e))?;
    for entry in entries.flatten() {
        if entry.path().extension().is_some_and(|e| e == "tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    for &counter in counters(dir).iter().rev().skip(2) {
        std::fs::remove_file(checkpoint_path(dir, counter))
            .map_err(|e| io_err("prune old checkpoint", &e))?;
    }
    Ok(())
}

fn try_load(path: &Path) -> Result<Checkpoint> {
    let file = Bytes::from(std::fs::read(path).map_err(|e| io_err("read checkpoint", &e))?);
    let (head, rest) = file.split_at(file.len().min(HEADER_LEN));
    let (body, crc) = rest.split_at(rest.len().saturating_sub(4));
    if head != header() || crc != crc32(body).to_le_bytes() {
        return Err(DynaError::Internal("checkpoint header or crc mismatch"));
    }
    Checkpoint::decode(&mut file.slice(HEADER_LEN..file.len() - 4))
}

/// Loads the newest valid checkpoint in `dir`, skipping corrupt files (a
/// torn newest checkpoint falls back to its predecessor). `Ok(None)` if the
/// directory is missing (a fresh site) or holds no usable checkpoint. No
/// image record is decoded here.
pub fn load_latest(dir: &Path) -> Result<Option<Checkpoint>> {
    let mut newest_first = counters(dir).into_iter().rev();
    Ok(newest_first.find_map(|counter| try_load(&checkpoint_path(dir, counter)).ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::TableId;
    use dynamast_common::Value;
    use dynamast_storage::{Catalog, ReadAt, Store};

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
            hosted: Some(vec![PartitionId::new(4), PartitionId::new(7)]),
            image: encoded(vec![ImageRecord {
                key: Key::new(TableId::new(0), 42),
                stamp: VersionStamp::new(SiteId::new(1), 7),
                row: Row::new(vec![Value::I64(100)]),
            }]),
        }
    }

    /// An image of `records`: its layout is a `Vec<ImageRecord>`'s.
    fn encoded(records: Vec<ImageRecord>) -> Image {
        Image::decode(&mut &codec::encode_to_vec(&records)[..]).unwrap()
    }

    /// `ckpt`'s image, decoded.
    fn records(ckpt: &Checkpoint) -> Vec<ImageRecord> {
        ckpt.image.records().collect::<Result<_>>().unwrap()
    }

    /// `ckpt` written through a [`Writer`], its image record by record, the
    /// way a site writes its cut.
    fn writer(ckpt: &Checkpoint) -> Writer {
        let mut w = Writer::new(Checkpoint {
            image: Image::default(),
            ..ckpt.clone()
        });
        for r in records(ckpt) {
            w.record(r.key, r.stamp, &r.row);
        }
        w
    }

    fn write(dir: &Path, ckpt: &Checkpoint) -> Result<()> {
        writer(ckpt).write(dir)
    }

    /// The file around a body: magic, version, body, body CRC-32.
    fn frame(body: &[u8]) -> Vec<u8> {
        [&header(), body, &crc32(body).to_le_bytes()].concat()
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let dir = tmp_dir("roundtrip");
        write(&dir, &sample(1)).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded, sample(1));
        assert_eq!(records(&loaded), records(&sample(1)));
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
        let newest = checkpoint_path(&dir, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.counter, 1, "corrupt newest must fall back");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `ckpt`'s body built field by field in the version 3 order, with
    /// `reserved` as the word after the epoch.
    fn layout(ckpt: &Checkpoint, reserved: u64) -> Vec<u8> {
        let mut body = ckpt.counter.to_be_bytes().to_vec();
        body.extend(ckpt.site.raw().to_be_bytes());
        ckpt.svv.encode(&mut body);
        // A file sequence: a u64 count, then the items.
        let seq = |items: Vec<u64>| std::iter::once(items.len() as u64).chain(items);
        let raw = |parts: &[PartitionId]| -> Vec<u64> { parts.iter().map(|p| p.raw()).collect() };
        let words = seq(ckpt.offsets.clone())
            .chain(seq(raw(&ckpt.mastered)))
            .chain([ckpt.epoch, reserved]);
        body.extend(words.flat_map(u64::to_be_bytes));
        match ckpt.hosted.as_deref() {
            None => body.push(0), // hosted tag: full replication
            Some(hosted) => {
                body.push(1); // hosted tag: a set follows
                body.extend(seq(raw(hosted)).flat_map(u64::to_be_bytes));
            }
        }
        ckpt.image.encode(&mut body);
        body
    }

    #[test]
    fn layout_is_pinned_and_a_nonzero_reserved_word_is_refused() {
        assert_eq!(
            writer(&sample(1)).into_file().unwrap(),
            frame(&layout(&sample(1), 0))
        );
        // A writer started from a cut with an image carries that image.
        let file = Writer::new(sample(1)).into_file().unwrap();
        assert_eq!(file, frame(&layout(&sample(1), 0)));
        assert!(Checkpoint::decode(&mut &layout(&sample(1), 1)[..]).is_err());

        // A full ckpt-1, a newer ckpt-2 whose reserved word is set, an
        // incremental named the way an older writer named it, and a ckpt-4
        // shorter than a header: only the full one loads.
        let dir = tmp_dir("reserved");
        write(&dir, &sample(1)).unwrap();
        std::fs::write(checkpoint_path(&dir, 2), frame(&layout(&sample(2), 1))).unwrap();
        let parent_inc = dir.join(format!("ckpt-{:016x}-inc-{:016x}.ckpt", 3, 1));
        std::fs::write(parent_inc, frame(&layout(&sample(3), 1))).unwrap();
        std::fs::write(checkpoint_path(&dir, 4), [0u8; 5]).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().counter, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The image is decoded by the restore, not by the load: a file whose
    /// header and CRC hold loads with its header fields even when a record
    /// does not decode, and decoding stops with an error at that record.
    #[test]
    fn an_image_that_does_not_decode_loads_its_header_and_fails_at_the_record() {
        let good = sample(1);
        let mut bytes = good.image.records.to_vec();
        bytes.extend(&bytes.clone()[..bytes.len() - 1]); // a torn second record
        let torn = Checkpoint {
            image: Image {
                count: 2,
                records: bytes.into(),
            },
            ..good.clone()
        };
        let dir = tmp_dir("torn-image");
        std::fs::write(checkpoint_path(&dir, 1), frame(&layout(&torn, 0))).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        // Every field before the image is the good checkpoint's.
        let header = Checkpoint {
            image: good.image.clone(),
            ..loaded.clone()
        };
        assert_eq!(header, good);
        assert_eq!(loaded.image, torn.image);
        let mut decoded = loaded.image.records();
        assert_eq!(decoded.next().unwrap().unwrap(), records(&good)[0]);
        assert!(decoded.next().unwrap().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_count_the_body_cannot_hold_is_refused() {
        let mut body = layout(&sample(1), 0);
        // counter, site, then a 3-dimension svv: the offsets count follows.
        let at = 8 + 4 + (4 + 3 * 8);
        assert_eq!(body[at..at + 8], 3u64.to_be_bytes());
        body[at..at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(Checkpoint::decode(&mut &body[..]).is_err());
    }

    #[test]
    fn an_image_past_u32_records_is_refused_unwritten() {
        let dir = tmp_dir("overflow");
        let mut w = writer(&sample(1));
        w.records = u32::MAX as usize + 1;
        assert!(w.write(&dir).is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store shaped like TPC-C's sparse keys over three tables (districts
    /// dense, orders at `district << 20 | order`, order lines at
    /// `order << 4 | line`), every record rewritten into a depth-2 chain,
    /// and the cut that goes with it: the last three rewrites lie past the
    /// cut (their records show their older version), and one record is
    /// rewritten twice more past the cut, evicting its cut version.
    fn tpcc_shaped_store() -> (Store, VersionVector) {
        let mut catalog = Catalog::new();
        let district = catalog.add_table("district", 2, 10);
        let orders = catalog.add_table("orders", 3, 1 << 20);
        let order_line = catalog.add_table("order_line", 4, 1 << 24);
        let mut keys = Vec::new();
        for d in 0..3u64 {
            keys.push(Key::new(district, d));
            for o in [1u64, 2, 3000] {
                keys.push(Key::new(orders, d << 20 | o));
                keys.extend((1..=3).map(|l| Key::new(order_line, (d << 20 | o) << 4 | l)));
            }
        }
        let store = Store::new(catalog, 2);
        let mut seq = 0;
        let mut install = |key: Key| {
            seq += 1;
            let row = Row::new(vec![Value::U64(seq), Value::Str(format!("v{seq}"))]);
            store
                .install(key, VersionStamp::new(SiteId::new(0), seq), row)
                .unwrap();
            seq
        };
        let last = keys.iter().chain(&keys).map(|&key| install(key)).last();
        let cut = VersionVector::from_counts(vec![last.unwrap() - 3]);
        install(keys[4]);
        install(keys[4]);
        (store, cut)
    }

    #[test]
    fn a_store_walk_writes_the_version_3_layout_of_its_image() {
        let (store, cut) = tpcc_shaped_store();
        let image = store.image(ReadAt::Begin(&cut), None).unwrap();
        assert_eq!(
            image.len(),
            store.record_count() - 1,
            "one cut version evicted"
        );
        let partition = |at: usize| store.catalog().partition_of(image[at].key).unwrap();
        for hosted in [None, Some(vec![partition(0), partition(20)])] {
            let ckpt = Checkpoint {
                counter: 9,
                site: SiteId::new(2),
                svv: cut.clone(),
                offsets: cut.as_slice().to_vec(),
                mastered: vec![partition(1)],
                epoch: 5,
                hosted,
                image: encoded(image.clone()),
            };
            let mut w = writer(&Checkpoint {
                image: Image::default(),
                ..ckpt.clone()
            });
            store
                .visit_image(ReadAt::Begin(&cut), None, |key, stamp, row| {
                    w.record(key, stamp, row)
                })
                .unwrap();
            let file = w.into_file().unwrap();
            assert_eq!(file, frame(&layout(&ckpt, 0)));
            let dir = tmp_dir("walk");
            std::fs::write(checkpoint_path(&dir, 9), &file).unwrap();
            let loaded = load_latest(&dir).unwrap().unwrap();
            assert_eq!(loaded, ckpt);
            assert_eq!(records(&loaded), image);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_directory_is_a_fresh_site() {
        let dir = std::env::temp_dir().join("dynamast-ckpt-definitely-missing-xyz");
        assert!(load_latest(&dir).unwrap().is_none());
    }
}

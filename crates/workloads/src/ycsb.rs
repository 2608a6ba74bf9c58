//! YCSB with the paper's workload-access-pattern extensions (Appendix C).
//!
//! The key space is divided into 100-key partitions ordered by partition id.
//! Partitions are *range-correlated*: a transaction's partitions cluster
//! around a base partition in *correlation order* — by default the sorted
//! partition-id order, or a shuffled order for the Fig. 5b adaptivity
//! experiment ("we randomize the correlations by shuffling the sorted
//! partition IDs to produce a new partition ID order").
//!
//! * **Scans** start at a base partition drawn from the access distribution
//!   and read all keys of the next `k ∈ [2, 10]` partitions (200–1000 keys).
//! * **RMWs** update three keys: one from the base partition and two from
//!   neighbours chosen by re-centred Binomial(5, 0.5) offsets.
//! * **Client affinity**: a client works against one correlated partition
//!   set for `affinity_txns` transactions (≈1 s of activity in the paper,
//!   25 for the adaptivity experiment), after which it is replaced — here,
//!   the generator redraws its locality.

use std::sync::Arc;

use bytes::{BufMut, Bytes};
use dynamast_common::dist::{bernoulli_neighbor_offset, clamp_offset, Zipfian};
use dynamast_common::ids::{partition_id, unpack_partition_id, ClientId, Key, SiteId, TableId};
use dynamast_common::{DynaError, Result, Row, Value};
use dynamast_site::data_site::StaticOwnerFn;
use dynamast_site::proc::{ProcCall, ProcExecutor, ScanRange, TxnCtx};
use dynamast_storage::Catalog;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::spec::{debug_assert_declared, ClientGenerator, GeneratedTxn, TxnKind, Workload};

/// The single YCSB table id.
pub const USERTABLE: TableId = TableId::new(0);
/// Read-modify-write procedure id.
pub const PROC_RMW: u32 = 1;
/// Multi-partition scan procedure id.
pub const PROC_SCAN: u32 = 2;

/// YCSB configuration.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    /// Total keys (the paper's 5 GB database, scaled down).
    pub num_keys: u64,
    /// Keys per partition (100 in the paper).
    pub partition_size: u64,
    /// Fraction of transactions that are RMWs (the rest are scans).
    pub rmw_fraction: f64,
    /// `Some(theta)` for Zipfian base-partition selection (the paper uses
    /// 0.75); `None` for uniform.
    pub zipf: Option<f64>,
    /// Payload bytes per record.
    pub payload_bytes: usize,
    /// Transactions per client affinity period.
    pub affinity_txns: u32,
    /// `Some(seed)`: shuffle the partition correlation order (Fig. 5b).
    pub shuffle_correlations: Option<u64>,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            num_keys: 100_000,
            partition_size: 100,
            rmw_fraction: 0.5,
            zipf: None,
            payload_bytes: 16,
            affinity_txns: 1000,
            shuffle_correlations: None,
        }
    }
}

impl YcsbConfig {
    /// Number of partitions.
    pub fn num_partitions(&self) -> u64 {
        self.num_keys / self.partition_size
    }
}

/// The YCSB workload.
pub struct YcsbWorkload {
    config: YcsbConfig,
    /// `perm[position] = partition index` in correlation order.
    perm: Arc<Vec<u64>>,
    /// `pos[partition index] = position` (inverse of `perm`).
    pos: Arc<Vec<u64>>,
}

impl YcsbWorkload {
    /// Creates the workload.
    pub fn new(config: YcsbConfig) -> Self {
        let n = config.num_partitions();
        assert!(n >= 16, "need at least 16 partitions, got {n}");
        let mut perm: Vec<u64> = (0..n).collect();
        if let Some(seed) = config.shuffle_correlations {
            perm.shuffle(&mut SmallRng::seed_from_u64(seed));
        }
        let mut pos = vec![0u64; n as usize];
        for (position, &partition) in perm.iter().enumerate() {
            pos[partition as usize] = position as u64;
        }
        YcsbWorkload {
            config,
            perm: Arc::new(perm),
            pos: Arc::new(pos),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }
}

impl Workload for YcsbWorkload {
    fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        let id = catalog.add_table("usertable", 2, self.config.partition_size);
        assert_eq!(id, USERTABLE);
        catalog
    }

    fn executor(&self) -> Arc<dyn ProcExecutor> {
        Arc::new(YcsbExec {
            payload_bytes: self.config.payload_bytes,
        })
    }

    fn populate(&self, load: &mut dyn FnMut(Key, Row) -> Result<()>) -> Result<()> {
        let payload = vec![0xABu8; self.config.payload_bytes];
        for record in 0..self.config.num_keys {
            load(
                Key::new(USERTABLE, record),
                Row::new(vec![Value::U64(0), Value::Bytes(payload.clone())]),
            )?;
        }
        Ok(())
    }

    fn static_owner(&self, num_sites: usize) -> StaticOwnerFn {
        // Range partitioning: Schism's choice for this workload (§VI-B1).
        let num_partitions = self.config.num_partitions();
        Arc::new(move |pid| {
            let (_, index) = unpack_partition_id(pid);
            let site = (index * num_sites as u64 / num_partitions.max(1)) as usize;
            SiteId::new(site.min(num_sites - 1))
        })
    }

    fn client(&self, client: ClientId, seed: u64) -> Box<dyn ClientGenerator> {
        Box::new(YcsbGen {
            config: self.config.clone(),
            perm: Arc::clone(&self.perm),
            pos: Arc::clone(&self.pos),
            zipf: self
                .config
                .zipf
                .map(|theta| Zipfian::new(self.config.num_partitions(), theta)),
            rng: SmallRng::seed_from_u64(seed ^ client.raw().wrapping_mul(0x9E37_79B9)),
            affinity_left: 0,
            center: 0,
        })
    }
}

/// The YCSB stored procedures.
struct YcsbExec {
    payload_bytes: usize,
}

impl ProcExecutor for YcsbExec {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        match call.proc_id {
            PROC_RMW => {
                // Read each write-set key, bump its counter, rewrite payload.
                let payload = vec![0xCDu8; self.payload_bytes];
                for key in &call.write_set {
                    let counter = match ctx.read(*key)? {
                        Some(row) => row.cell(0).as_u64()? + 1,
                        None => 1,
                    };
                    ctx.write(
                        *key,
                        Row::new(vec![Value::U64(counter), Value::Bytes(payload.clone())]),
                    )?;
                }
                Ok(Bytes::new())
            }
            PROC_SCAN => {
                // Sum counters over the declared ranges.
                let mut sum = 0u64;
                let mut rows = 0u64;
                let mut malformed = None;
                for range in &call.read_ranges {
                    ctx.scan(*range, &mut |_, row| match row.cell(0).as_u64() {
                        Ok(counter) => {
                            sum = sum.wrapping_add(counter);
                            rows += 1;
                        }
                        Err(e) => malformed = Some(e),
                    })?;
                }
                if let Some(e) = malformed {
                    return Err(e);
                }
                let mut out = Vec::with_capacity(16);
                out.put_u64(sum);
                out.put_u64(rows);
                Ok(Bytes::from(out))
            }
            _ => Err(DynaError::Internal("unknown ycsb procedure")),
        }
    }
}

struct YcsbGen {
    config: YcsbConfig,
    perm: Arc<Vec<u64>>,
    pos: Arc<Vec<u64>>,
    zipf: Option<Zipfian>,
    rng: SmallRng,
    affinity_left: u32,
    /// Current locality: a position in correlation order.
    center: u64,
}

impl YcsbGen {
    fn num_partitions(&self) -> u64 {
        self.config.num_partitions()
    }

    /// Draws a base partition by the access distribution, returning its
    /// position in correlation order.
    fn draw_center(&mut self) -> u64 {
        let partition = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.num_partitions()),
        };
        self.pos[partition as usize]
    }

    fn key_in_partition(&mut self, partition: u64) -> u64 {
        partition * self.config.partition_size + self.rng.gen_range(0..self.config.partition_size)
    }

    fn rmw(&mut self) -> GeneratedTxn {
        let n = self.num_partitions();
        // Base partition plus two Bernoulli-offset neighbours in
        // correlation order (Appendix C's worked example).
        let mut records = Vec::with_capacity(3);
        let base_partition = self.perm[self.center as usize];
        records.push(self.key_in_partition(base_partition));
        for _ in 0..2 {
            let offset = bernoulli_neighbor_offset(&mut self.rng);
            let position = clamp_offset(self.center, offset, n);
            let partition = self.perm[position as usize];
            let mut key = self.key_in_partition(partition);
            // Avoid duplicate keys within the write set (three distinct
            // records, as in the paper's example (3472, 3601, 3890)).
            for _ in 0..4 {
                if !records.contains(&key) {
                    break;
                }
                key = self.key_in_partition(partition);
            }
            records.push(key);
        }
        records.sort_unstable();
        records.dedup();
        let call = ProcCall {
            proc_id: PROC_RMW,
            args: Bytes::new(),
            write_set: records.iter().map(|r| Key::new(USERTABLE, *r)).collect(),
            read_keys: vec![],
            read_ranges: vec![],
        };
        debug_assert_declared(&call, TxnKind::Update);
        GeneratedTxn {
            call,
            kind: TxnKind::Update,
            label: "rmw",
        }
    }

    fn scan(&mut self) -> GeneratedTxn {
        let n = self.num_partitions();
        let k = self.rng.gen_range(2..=10u64);
        let start = self.center.min(n - 1);
        let end = (start + k).min(n);
        // Positions are contiguous; the partitions at those positions may
        // not be (shuffled correlations), so emit one range per partition
        // and merge key-adjacent ones.
        let mut ranges: Vec<ScanRange> = Vec::with_capacity(k as usize);
        for position in start..end {
            let partition = self.perm[position as usize];
            let first = partition * self.config.partition_size;
            let last = first + self.config.partition_size;
            match ranges.last_mut() {
                Some(prev) if prev.end == first => prev.end = last,
                _ => ranges.push(ScanRange {
                    table: USERTABLE,
                    start: first,
                    end: last,
                }),
            }
        }
        let call = ProcCall {
            proc_id: PROC_SCAN,
            args: Bytes::new(),
            write_set: vec![],
            read_keys: vec![],
            read_ranges: ranges,
        };
        debug_assert_declared(&call, TxnKind::ReadOnly);
        GeneratedTxn {
            call,
            kind: TxnKind::ReadOnly,
            label: "scan",
        }
    }
}

impl ClientGenerator for YcsbGen {
    fn next_txn(&mut self) -> GeneratedTxn {
        if self.affinity_left == 0 {
            self.center = self.draw_center();
            self.affinity_left = self.config.affinity_txns;
        }
        self.affinity_left -= 1;
        if self.rng.gen_bool(self.config.rmw_fraction.clamp(0.0, 1.0)) {
            self.rmw()
        } else {
            self.scan()
        }
    }
}

/// All partitions of the workload (for seeding placements).
pub fn all_partitions(config: &YcsbConfig) -> Vec<dynamast_common::ids::PartitionId> {
    (0..config.num_partitions())
        .map(|i| partition_id(USERTABLE, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(overrides: impl FnOnce(&mut YcsbConfig)) -> YcsbWorkload {
        let mut cfg = YcsbConfig {
            num_keys: 10_000,
            ..YcsbConfig::default()
        };
        overrides(&mut cfg);
        YcsbWorkload::new(cfg)
    }

    #[test]
    fn populate_produces_every_key() {
        let w = workload(|_| {});
        let mut count = 0u64;
        w.populate(&mut |key, row| {
            assert_eq!(key.table, USERTABLE);
            assert_eq!(row.arity(), 2);
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 10_000);
    }

    #[test]
    fn rmw_write_sets_have_up_to_three_nearby_keys() {
        let w = workload(|c| c.rmw_fraction = 1.0);
        let mut g = w.client(ClientId::new(1), 42);
        for _ in 0..200 {
            let txn = g.next_txn();
            assert_eq!(txn.kind, TxnKind::Update);
            assert!(!txn.call.write_set.is_empty() && txn.call.write_set.len() <= 3);
            // All keys within the neighbour window of some base partition.
            let parts: Vec<u64> = txn.call.write_set.iter().map(|k| k.record / 100).collect();
            let min = parts.iter().min().unwrap();
            let max = parts.iter().max().unwrap();
            assert!(max - min <= 5, "partitions too spread: {parts:?}");
        }
    }

    #[test]
    fn scans_cover_2_to_10_partitions() {
        let w = workload(|c| c.rmw_fraction = 0.0);
        let mut g = w.client(ClientId::new(2), 43);
        for _ in 0..100 {
            let txn = g.next_txn();
            assert_eq!(txn.kind, TxnKind::ReadOnly);
            let keys: u64 = txn.call.read_ranges.iter().map(|r| r.end - r.start).sum();
            assert!((200..=1000).contains(&keys), "scan of {keys} keys");
        }
    }

    #[test]
    fn affinity_keeps_clients_in_one_neighbourhood() {
        let w = workload(|c| {
            c.rmw_fraction = 1.0;
            c.affinity_txns = 50;
        });
        let mut g = w.client(ClientId::new(3), 44);
        let mut bases = std::collections::HashSet::new();
        for _ in 0..50 {
            let txn = g.next_txn();
            bases.insert(txn.call.write_set[0].record / 100 / 10);
        }
        // One affinity period → keys cluster in very few 10-partition bands.
        assert!(bases.len() <= 3, "too many distinct bands: {bases:?}");
    }

    #[test]
    fn shuffled_correlations_change_neighbourhoods() {
        let plain = workload(|c| c.rmw_fraction = 1.0);
        let shuffled = workload(|c| {
            c.rmw_fraction = 1.0;
            c.shuffle_correlations = Some(7);
        });
        // In the shuffled workload, correlated partitions are far apart in
        // key space for at least some transactions.
        let mut g = shuffled.client(ClientId::new(4), 45);
        let mut spread_seen = false;
        for _ in 0..200 {
            let txn = g.next_txn();
            let parts: Vec<u64> = txn.call.write_set.iter().map(|k| k.record / 100).collect();
            let min = parts.iter().min().unwrap();
            let max = parts.iter().max().unwrap();
            if max - min > 10 {
                spread_seen = true;
                break;
            }
        }
        assert!(spread_seen, "shuffle should break key-space locality");
        drop(plain);
    }

    #[test]
    fn executor_rmw_increments_and_scan_sums() {
        use dynamast_common::VersionVector;
        use dynamast_site::proc::{LocalCtx, ReadMode};
        use dynamast_storage::Store;

        let w = workload(|_| {});
        let store = Store::new(w.catalog(), 4);
        w.populate(&mut |key, row| {
            store.install(
                key,
                dynamast_storage::VersionStamp::new(SiteId::new(0), 0),
                row,
            )
        })
        .unwrap();
        let exec = w.executor();
        let begin = VersionVector::from_counts(vec![0]);
        let rmw = ProcCall {
            proc_id: PROC_RMW,
            args: Bytes::new(),
            write_set: vec![Key::new(USERTABLE, 5)],
            read_keys: vec![],
            read_ranges: vec![],
        };
        let mut ctx = LocalCtx::new(&store, &begin, ReadMode::Snapshot, &rmw.write_set);
        exec.execute(&mut ctx, &rmw).unwrap();
        let writes = ctx.into_writes();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].1.cell(0).as_u64().unwrap(), 1);

        let scan = ProcCall {
            proc_id: PROC_SCAN,
            args: Bytes::new(),
            write_set: vec![],
            read_keys: vec![],
            read_ranges: vec![ScanRange {
                table: USERTABLE,
                start: 0,
                end: 200,
            }],
        };
        let mut ctx = LocalCtx::new(&store, &begin, ReadMode::Snapshot, &[]);
        let out = exec.execute(&mut ctx, &scan).unwrap();
        let mut slice = &out[..];
        use bytes::Buf;
        let sum = slice.get_u64();
        let rows = slice.get_u64();
        assert_eq!(sum, 0);
        assert_eq!(rows, 200);
    }

    #[test]
    fn static_owner_splits_ranges_evenly() {
        let w = workload(|_| {});
        let owner = w.static_owner(4);
        let mut counts = [0u32; 4];
        for p in all_partitions(w.config()) {
            counts[owner(p).as_usize()] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 100);
        for c in counts {
            assert_eq!(c, 25);
        }
    }
}

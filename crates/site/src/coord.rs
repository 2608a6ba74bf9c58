//! The 2PC coordinator execution path (multi-master / partition-store).
//!
//! The paper's comparators execute multi-partition write transactions with
//! two-phase commit (§II-A): the coordinating site runs the stored
//! procedure, groups the buffered writes by owning site, and — when more than
//! one site owns writes — runs a parallel prepare round followed by a
//! parallel commit round. Participants hold their write locks between the
//! two rounds, so concurrent local transactions touching the same records
//! block on the *uncertainty window*, the effect the paper identifies as
//! 2PC's key cost.
//!
//! Reads differ by system:
//!
//! * **multi-master** ([`ReadMode::Snapshot`]) reads locally from its lazily
//!   maintained replica at the begin snapshot;
//! * **partition-store** ([`ReadMode::Latest`]) has no replicas: reads of
//!   remotely owned partitions become `RemoteRead` round trips, and
//!   multi-partition scans fan out to every owning site in parallel —
//!   making their latency the max over per-site responses (the straggler
//!   effect of §VI-B2).
//!
//! Deadlock handling: participants vote **no** instead of blocking on lock
//! conflicts, and the coordinator aborts all prepared fragments and retries
//! the whole transaction after a short randomized backoff. Fragment commits
//! apply independently at each participant (no global atomic visibility
//! instant), which is the usual behaviour of lazily replicated multi-master
//! systems and matches the paper's framework implementation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{Key, SiteId};
use dynamast_common::trace::{TraceKind, TracePayload};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_network::{EndpointId, TrafficCategory};
use dynamast_replication::record::WriteEntry;

use crate::data_site::DataSite;
use crate::messages::{ExecTimings, ExpectedVersion, SiteRequest, SiteResponse};
use crate::proc::{ProcCall, ReadMode, ScanRange, TxnCtx};
use dynamast_storage::VersionStamp;
use std::collections::HashMap;

const MAX_RETRIES: u32 = 64;

/// Runs `proc` with this site as 2PC coordinator. `trace_id` is the
/// flight-recorder trace id (0 = untraced), distinct from the 2PC
/// transaction id allocated per prepare round.
pub fn run_coordinated(
    site: &Arc<DataSite>,
    trace_id: u64,
    min_vv: &VersionVector,
    proc: &ProcCall,
    mode: ReadMode,
) -> Result<(Bytes, VersionVector, ExecTimings)> {
    let t0 = Instant::now();
    let first_begin = match mode {
        ReadMode::Snapshot => site.clock().wait_dominates(min_vv)?,
        ReadMode::Latest => site.clock().current(),
    };
    let t_begin = Instant::now();
    site.trace(
        trace_id,
        TraceKind::TxnBegin,
        TracePayload::Span {
            us: (t_begin - t0).as_micros() as u64,
            vv_wait_us: (t_begin - t0).as_micros() as u64,
        },
    );
    let mut attempt = 0;
    loop {
        // Retries take a fresh snapshot: a validation failure means a newer
        // version committed after our reads, and the retry must observe it
        // (the backoff below gives the replica time to apply the refresh).
        let begin = if attempt == 0 {
            first_begin.clone()
        } else {
            site.clock().current().max_with(&first_begin)
        };
        let mut ctx = CoordCtx {
            site,
            begin: &begin,
            mode,
            write_set: proc.write_set.clone(),
            writes: Vec::new(),
            read_stamps: HashMap::new(),
            ops: 0,
        };
        let result = site.executor().execute(&mut ctx, proc)?;
        site.service_sleep(ctx.ops);
        let writes = ctx.writes;
        let read_stamps = ctx.read_stamps;
        let t_exec = Instant::now();
        site.trace(
            trace_id,
            TraceKind::TxnExecute,
            TracePayload::Span {
                us: (t_exec - t_begin).as_micros() as u64,
                vv_wait_us: 0,
            },
        );
        match try_commit(site, trace_id, &begin, writes, &read_stamps)? {
            Some(commit_vv) => {
                let t_commit = Instant::now();
                site.trace(
                    trace_id,
                    TraceKind::TxnCommit,
                    TracePayload::Commit {
                        origin: site.id().raw(),
                        sequence: commit_vv.get(site.id()),
                        us: (t_commit - t_exec).as_micros() as u64,
                    },
                );
                return Ok((
                    result,
                    commit_vv,
                    ExecTimings {
                        begin_us: (t_begin - t0).as_micros() as u32,
                        exec_us: (t_exec - t_begin).as_micros() as u32,
                        commit_us: (t_commit - t_exec).as_micros() as u32,
                    },
                ));
            }
            None => {
                site.aborts.inc();
                attempt += 1;
                if attempt >= MAX_RETRIES {
                    return Err(DynaError::TxnAborted {
                        reason: "2pc retries exhausted",
                    });
                }
                // Randomized backoff keeps contending coordinators from
                // lock-stepping. The jitter comes from a cheap local hash of
                // (site, last allocated txn id, attempt) — drawing it from
                // next_txn_id() would consume real transaction ids as a side
                // effect of backing off, polluting the id space.
                let jitter = mix64(
                    (u64::from(site.id().raw()) << 32)
                        ^ site.txn_ids_allocated()
                        ^ (u64::from(attempt) << 17),
                ) % 7;
                thread::sleep(Duration::from_micros(
                    200 * u64::from(attempt) + 100 * jitter,
                ));
            }
        }
    }
}

/// Attempts the commit; `Ok(None)` means a participant voted no or a read
/// validation failed (retry with fresh reads).
fn try_commit(
    site: &Arc<DataSite>,
    trace_id: u64,
    begin: &VersionVector,
    writes: Vec<(Key, Row)>,
    read_stamps: &HashMap<Key, Option<VersionStamp>>,
) -> Result<Option<VersionVector>> {
    if writes.is_empty() {
        return Ok(Some(begin.clone()));
    }
    // Group writes by owning site, preserving write order within a site.
    let owner_of = site
        .static_owner()
        .ok_or(DynaError::Internal(
            "coordinated exec without static owners",
        ))?
        .clone();
    let catalog = site.store().catalog().clone();
    let mut groups: BTreeMap<SiteId, Vec<WriteEntry>> = BTreeMap::new();
    for (key, row) in writes {
        let owner = owner_of(catalog.partition_of(key)?);
        groups
            .entry(owner)
            .or_default()
            .push(WriteEntry { key, row });
    }

    if groups.len() == 1 {
        let (&owner, _) = groups.iter().next().expect("one group");
        if owner == site.id() {
            // Single-site local write set: commit locally without 2PC
            // (§II-A: "only transactions with single-site write sets ...
            // execute as local transactions"). Validation still applies —
            // reads happened before the locks were acquired.
            let entries = groups.remove(&owner).expect("group present");
            let locks: Vec<Key> = entries.iter().map(|w| w.key).collect();
            let guards = site.store().lock_write_set(&locks);
            for entry in &entries {
                if let Some(expected) = read_stamps.get(&entry.key) {
                    let current = site.store().read_latest(entry.key)?.map(|(_, s)| s);
                    if current != *expected {
                        return Ok(None);
                    }
                }
            }
            let vv = commit_fragment_locally(site, trace_id, entries)?;
            drop(guards);
            site.commits.inc();
            return Ok(Some(vv));
        }
    }

    // Full 2PC. The local fragment (if any) is prepared in-process; remote
    // fragments via parallel RPCs. Transport faults use presumed abort: a
    // lost or late vote counts as a no — and phase two ALWAYS runs, so
    // participants that did vote yes hear a decision and release their
    // locks instead of holding them until a coordinator that bailed early
    // never comes back.
    let retry = site.network().config().retry;
    let self_endpoint = EndpointId::Site(site.id().raw());
    let txn_id = site.next_txn_id();
    let participants: Vec<SiteId> = groups.keys().copied().collect();
    site.trace(
        trace_id,
        TraceKind::TwoPcPrepare,
        TracePayload::TwoPc {
            site: site.id().raw(),
            ok: true,
            participants: participants.len() as u32,
        },
    );
    let mut votes_yes = true;
    let mut fatal: Option<DynaError> = None;
    let mut pending = Vec::new();
    for (owner, entries) in &groups {
        let expected: Vec<ExpectedVersion> = entries
            .iter()
            .filter_map(|w| {
                read_stamps.get(&w.key).map(|stamp| ExpectedVersion {
                    key: w.key,
                    stamp: *stamp,
                })
            })
            .collect();
        if *owner == site.id() {
            let vote = match site.prepare(txn_id, entries.clone(), &expected) {
                Ok(yes) => {
                    votes_yes &= yes;
                    yes
                }
                Err(e) => {
                    votes_yes = false;
                    fatal.get_or_insert(e);
                    false
                }
            };
            site.trace(
                trace_id,
                TraceKind::TwoPcVote,
                TracePayload::TwoPc {
                    site: owner.raw(),
                    ok: vote,
                    participants: participants.len() as u32,
                },
            );
        } else {
            let req = SiteRequest::Prepare {
                txn_id,
                writes: entries.clone(),
                expected,
            };
            match site.network().rpc_async_from(
                Some(self_endpoint),
                EndpointId::Site(owner.raw()),
                TrafficCategory::TwoPhaseCommit,
                Bytes::from(encode_to_vec(&req)),
            ) {
                Ok(reply) => pending.push((*owner, reply)),
                // Unreachable participant: presumed abort.
                Err(DynaError::Network(_)) => votes_yes = false,
                Err(e) => {
                    votes_yes = false;
                    fatal.get_or_insert(e);
                }
            }
        }
    }
    for (owner, reply) in pending {
        let vote = match reply.wait_timeout(retry.attempt_timeout) {
            Ok(bytes) => match crate::messages::expect_ok(&bytes) {
                Ok(SiteResponse::Voted { yes }) => {
                    votes_yes &= yes;
                    yes
                }
                Ok(_) => {
                    votes_yes = false;
                    fatal.get_or_insert(DynaError::Internal("unexpected prepare response"));
                    false
                }
                Err(e) => {
                    votes_yes = false;
                    fatal.get_or_insert(e);
                    false
                }
            },
            // Lost vote: presumed abort.
            Err(DynaError::Timeout { .. } | DynaError::Network(_)) => {
                votes_yes = false;
                false
            }
            Err(e) => {
                votes_yes = false;
                fatal.get_or_insert(e);
                false
            }
        };
        site.trace(
            trace_id,
            TraceKind::TwoPcVote,
            TracePayload::TwoPc {
                site: owner.raw(),
                ok: vote,
                participants: participants.len() as u32,
            },
        );
    }

    // Phase two: decide everywhere (including self).
    site.trace(
        trace_id,
        TraceKind::TwoPcDecide,
        TracePayload::TwoPc {
            site: site.id().raw(),
            ok: votes_yes,
            participants: participants.len() as u32,
        },
    );
    let mut commit_vv = begin.clone();
    let decide_payload = Bytes::from(encode_to_vec(&SiteRequest::Decide {
        txn_id,
        commit: votes_yes,
    }));
    let mut decisions = Vec::new();
    for owner in participants {
        if owner == site.id() {
            let vv = site.decide(txn_id, votes_yes)?;
            commit_vv.merge_max(&vv);
        } else {
            let sent = site.network().rpc_async_from(
                Some(self_endpoint),
                EndpointId::Site(owner.raw()),
                TrafficCategory::TwoPhaseCommit,
                decide_payload.clone(),
            );
            decisions.push((owner, sent));
        }
    }
    for (owner, sent) in decisions {
        let outcome = sent.and_then(|reply| reply.wait_timeout(retry.attempt_timeout));
        let bytes = match outcome {
            Ok(bytes) => Ok(bytes),
            // Lost decision: retransmit under the full retry policy — a
            // live participant holds the fragment's locks until it hears
            // the outcome (decide is idempotent at the participant).
            Err(DynaError::Timeout { .. } | DynaError::Network(_)) => {
                site.network().rpc_with_retry(
                    &retry,
                    Some(self_endpoint),
                    EndpointId::Site(owner.raw()),
                    TrafficCategory::TwoPhaseCommit,
                    decide_payload.clone(),
                )
            }
            Err(other) => Err(other),
        };
        match bytes.and_then(|b| crate::messages::expect_ok(&b)) {
            Ok(SiteResponse::Decided { site_vv }) => commit_vv.merge_max(&site_vv),
            Ok(_) => {
                fatal.get_or_insert(DynaError::Internal("unexpected decide response"));
            }
            // The participant crashed (its staged fragment is volatile and
            // died with it). Fragment commits apply independently at each
            // participant — see the module docs — so the surviving
            // fragments stand; nothing more can be delivered here.
            Err(_) => {}
        }
    }
    if let Some(e) = fatal {
        return Err(e);
    }
    Ok(votes_yes.then_some(commit_vv))
}

/// A splitmix64 finalizer: cheap stateless jitter for retry backoff.
fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Commits an already-locked local fragment. Entries pass straight through
/// to the pipeline — rows move, they are never cloned.
fn commit_fragment_locally(
    site: &Arc<DataSite>,
    trace_id: u64,
    entries: Vec<WriteEntry>,
) -> Result<VersionVector> {
    let begin = site.clock().current();
    site.commit_local(trace_id, &begin, entries)
}

/// The coordinator's transaction context.
struct CoordCtx<'a> {
    site: &'a Arc<DataSite>,
    begin: &'a VersionVector,
    mode: ReadMode,
    write_set: Vec<Key>,
    writes: Vec<(Key, Row)>,
    /// Version stamp observed for each key read (None = absent), consumed
    /// by the first-committer-wins validation at commit.
    read_stamps: HashMap<Key, Option<VersionStamp>>,
    /// Rows touched locally (simulated CPU cost; remote reads charge their
    /// cost at the serving site).
    ops: u64,
}

impl CoordCtx<'_> {
    fn owner(&self, key: Key) -> Result<SiteId> {
        let owner_of = self.site.static_owner().ok_or(DynaError::Internal(
            "coordinated exec without static owners",
        ))?;
        Ok(owner_of(self.site.store().catalog().partition_of(key)?))
    }

    fn buffered(&self, key: Key) -> Option<&Row> {
        self.writes
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| r)
    }
}

impl TxnCtx for CoordCtx<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Row>> {
        self.ops += 1;
        if let Some(row) = self.buffered(key) {
            return Ok(Some(row.clone()));
        }
        let versioned = match self.mode {
            // Multi-master: replicas make every read local.
            ReadMode::Snapshot => self.site.store().read_versioned(key, self.begin)?,
            ReadMode::Latest => {
                if self.site.is_replicated_table(key.table) || self.owner(key)? == self.site.id() {
                    self.site.store().read_latest(key)?
                } else {
                    // Partition-store: remote round trip per foreign read.
                    let req = SiteRequest::RemoteRead {
                        keys: vec![key],
                        ranges: vec![],
                    };
                    let reply = self.site.network().rpc(
                        EndpointId::Site(self.owner(key)?.raw()),
                        TrafficCategory::TwoPhaseCommit,
                        Bytes::from(encode_to_vec(&req)),
                    )?;
                    match crate::messages::expect_ok(&reply)? {
                        SiteResponse::Rows { mut keys, .. } => {
                            keys.pop().and_then(|(_, entry)| entry)
                        }
                        _ => return Err(DynaError::Internal("unexpected remote read response")),
                    }
                }
            }
        };
        self.read_stamps
            .entry(key)
            .or_insert_with(|| versioned.as_ref().map(|(_, s)| *s));
        Ok(versioned.map(|(row, _)| row))
    }

    fn scan(&mut self, range: ScanRange, visit: &mut dyn FnMut(u64, &Row)) -> Result<()> {
        let at = self.mode.at(self.begin);
        // Multi-master: replicas make every scan local.
        if self.mode == ReadMode::Snapshot {
            self.ops += range.end.saturating_sub(range.start);
        }
        if self.mode == ReadMode::Snapshot || self.site.is_replicated_table(range.table) {
            self.site.store().visit_range(
                range.table,
                range.start..range.end,
                at,
                |record, row, _| visit(record, row),
            )?;
            return Ok(());
        }
        // Split the range into per-owner subranges; fan out in parallel and
        // merge — latency is the slowest site's response (straggler effect).
        let schema = self.site.store().catalog().table(range.table)?;
        let psize = schema.partition_size;
        let mut per_site: BTreeMap<SiteId, Vec<ScanRange>> = BTreeMap::new();
        let mut cursor = range.start;
        while cursor < range.end {
            let partition_end = ((cursor / psize) + 1) * psize;
            let sub_end = partition_end.min(range.end);
            let owner = self.owner(Key::new(range.table, cursor))?;
            let ranges = per_site.entry(owner).or_default();
            match ranges.last_mut() {
                Some(last) if last.end == cursor => last.end = sub_end,
                _ => ranges.push(ScanRange {
                    table: range.table,
                    start: cursor,
                    end: sub_end,
                }),
            }
            cursor = sub_end;
        }
        let mut rows = Vec::new();
        let mut pending = Vec::new();
        for (owner, ranges) in per_site {
            if owner == self.site.id() {
                for r in ranges {
                    self.site.store().visit_range(
                        r.table,
                        r.start..r.end,
                        at,
                        |record, row, _| rows.push((record, row.clone())),
                    )?;
                }
            } else {
                let req = SiteRequest::RemoteRead {
                    keys: vec![],
                    ranges,
                };
                pending.push(self.site.network().rpc_async(
                    EndpointId::Site(owner.raw()),
                    TrafficCategory::TwoPhaseCommit,
                    Bytes::from(encode_to_vec(&req)),
                )?);
            }
        }
        for reply in pending {
            match crate::messages::expect_ok(&reply.wait()?)? {
                SiteResponse::Rows { scans, .. } => {
                    for scan in scans {
                        rows.extend(scan);
                    }
                }
                _ => return Err(DynaError::Internal("unexpected remote scan response")),
            }
        }
        rows.sort_unstable_by_key(|(record, _)| *record);
        for (record, row) in &rows {
            visit(*record, row);
        }
        Ok(())
    }

    fn write(&mut self, key: Key, row: Row) -> Result<()> {
        self.ops += 1;
        if !self.write_set.contains(&key) {
            return Err(DynaError::Internal("write outside declared write set"));
        }
        if let Some(slot) = self.writes.iter_mut().rev().find(|(k, _)| *k == key) {
            slot.1 = row;
        } else {
            self.writes.push((key, row));
        }
        Ok(())
    }
}

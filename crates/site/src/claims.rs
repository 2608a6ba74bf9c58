//! The claim/settle table: bounded memory of requests a site must answer
//! once.
//!
//! Delivery is at-least-once (selector RPC retries, fabric duplication), so
//! a remaster move or a 2PC decision can reach a site more than once — late,
//! or racing the original. Each such request is keyed by `(group, order)` —
//! `(partition, epoch)` for a Release or Grant move, `((), txn id)` for a
//! 2PC decision — and goes through one [`ClaimTable`]:
//!
//! * [`ClaimTable::claim`] hands back the recorded answer if the request has
//!   settled (replay it), or makes the caller its owner;
//! * the owner [`ClaimTable::settle`]s it with its answer once that answer
//!   is final, or [`ClaimTable::abandon`]s it if it failed;
//! * a duplicate arriving while the owner works waits for the settlement
//!   instead of racing it, so every copy gets the one answer.
//!
//! Each group keeps its last `RETAIN` settled answers, sorted by order, so
//! memory is bounded by `groups × RETAIN` however many requests (or
//! duplicates) arrive, and the newest answer of a group is O(1) to find.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

use parking_lot::{Condvar, Mutex};

/// One claim/settle table keeping the last `RETAIN` answers per group; see
/// the module docs.
pub(crate) struct ClaimTable<G, V, const RETAIN: usize> {
    state: Mutex<ClaimState<G, V>>,
    settled: Condvar,
}

struct ClaimState<G, V> {
    per_group: HashMap<G, VecDeque<(u64, V)>>,
    in_flight: HashSet<(G, u64)>,
}

impl<G, V, const RETAIN: usize> Default for ClaimTable<G, V, RETAIN> {
    fn default() -> Self {
        ClaimTable {
            state: Mutex::new(ClaimState {
                per_group: HashMap::new(),
                in_flight: HashSet::new(),
            }),
            settled: Condvar::new(),
        }
    }
}

impl<G: Copy + Eq + Hash, V: Clone, const RETAIN: usize> ClaimTable<G, V, RETAIN> {
    /// Claims the requests of one RPC. Per request: the recorded answer if
    /// it has settled (replay it), or `None` — the caller now owns it and
    /// must [`ClaimTable::settle`] or [`ClaimTable::abandon`] it. Waits
    /// while another caller owns any of them, and then takes every claim at
    /// once, so no caller waits while holding a claim.
    pub(crate) fn claim(&self, keys: &[(G, u64)]) -> Vec<Option<V>> {
        let mut guard = self.state.lock();
        while keys.iter().any(|k| guard.in_flight.contains(k)) {
            self.settled.wait(&mut guard);
        }
        let state = &mut *guard;
        keys.iter()
            .map(|&(group, order)| {
                let recorded = state.per_group.get(&group).and_then(|window| {
                    window
                        .binary_search_by_key(&order, |(o, _)| *o)
                        .ok()
                        .map(|i| window[i].1.clone())
                });
                if recorded.is_none() {
                    state.in_flight.insert((group, order));
                }
                recorded
            })
            .collect()
    }

    /// The settled answer with the highest order in `group`.
    pub(crate) fn latest(&self, group: G) -> Option<V> {
        self.state
            .lock()
            .per_group
            .get(&group)
            .and_then(|window| window.back().map(|(_, v)| v.clone()))
    }

    /// Settles a claimed request with its answer, keeping the group's window
    /// sorted by order and bounded (a late retransmit of an old request must
    /// not displace newer answers, so eviction always drops the lowest
    /// order), and wakes the duplicates waiting on it.
    pub(crate) fn settle(&self, (group, order): (G, u64), answer: V) {
        let mut state = self.state.lock();
        state.in_flight.remove(&(group, order));
        let window = state.per_group.entry(group).or_default();
        if let Err(pos) = window.binary_search_by_key(&order, |(o, _)| *o) {
            window.insert(pos, (order, answer));
            while window.len() > RETAIN {
                window.pop_front();
            }
        }
        drop(state);
        self.settled.notify_all();
    }

    /// Drops the claim of a request that failed or left nothing to
    /// remember; a waiting duplicate claims it next.
    pub(crate) fn abandon(&self, key: (G, u64)) {
        self.state.lock().in_flight.remove(&key);
        self.settled.notify_all();
    }

    /// Settled answers retained across groups.
    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .per_group
            .values()
            .map(VecDeque::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn a_settled_request_replays_and_an_abandoned_one_is_claimed_again() {
        let table = ClaimTable::<u8, &str, 4>::default();
        assert_eq!(table.claim(&[(1, 10)]), vec![None]);
        table.settle((1, 10), "answer");
        assert_eq!(table.claim(&[(1, 10)]), vec![Some("answer")]);
        assert_eq!(table.claim(&[(1, 11)]), vec![None]);
        table.abandon((1, 11));
        assert_eq!(table.claim(&[(1, 11)]), vec![None]);
    }

    #[test]
    fn each_group_keeps_its_newest_answers() {
        let table = ClaimTable::<u8, u64, 3>::default();
        for order in [5, 1, 4, 2, 3] {
            table.claim(&[(0, order)]);
            table.settle((0, order), order * 10);
        }
        table.claim(&[(1, 7)]);
        table.settle((1, 7), 70);
        assert_eq!(table.len(), 4);
        assert_eq!(table.latest(0), Some(50));
        assert_eq!(table.claim(&[(0, 3)]), vec![Some(30)]);
        // Order 1 fell out of the window: it may be claimed again, and a
        // late settlement of it does not displace a newer answer.
        assert_eq!(table.claim(&[(0, 1)]), vec![None]);
        table.settle((0, 1), 10);
        assert_eq!(table.claim(&[(0, 3)]), vec![Some(30)]);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn a_duplicate_waits_for_the_owner_and_replays_its_answer() {
        let table = Arc::new(ClaimTable::<u8, u64, 4>::default());
        assert_eq!(table.claim(&[(0, 1)]), vec![None]);
        let duplicate = {
            let table = Arc::clone(&table);
            thread::spawn(move || table.claim(&[(0, 1)]))
        };
        thread::sleep(Duration::from_millis(20));
        assert!(!duplicate.is_finished(), "the duplicate must wait");
        table.settle((0, 1), 99);
        assert_eq!(duplicate.join().unwrap(), vec![Some(99)]);
    }
}

//! Shared/exclusive lock table with FIFO queuing and upgrades.
//!
//! The locking machinery common to every lock-based protocol in this
//! crate: [`TwoPhaseLocking`](super::TwoPhaseLocking) (deadlock
//! *detection*) and the [`Prevention`](super::Prevention) protocols
//! wound-wait / wait-die (deadlock *prevention*) differ only in what they
//! do when a request blocks — the grant rules below are identical.
//!
//! Semantics:
//!
//! * shared (S) locks coexist; exclusive (X) conflicts with everything;
//! * a fresh request is granted iff it is compatible with all holders
//!   *and* nobody is queued ahead (FIFO fairness — reader streams cannot
//!   starve a waiting writer);
//! * an S→X upgrade by the sole holder succeeds in place; with other
//!   readers present it waits at the *front* of the queue;
//! * releases grant from the queue front while compatible.
//!
//! # Storage: entry arena, not per-item allocations
//!
//! Acquire/release sits on the per-access critical path of every 2PL
//! simulation, so entries live in an arena (`Vec<LockEntry>` + free
//! list) and are *recycled*, never dropped: holders use an inline
//! two-element buffer ([`InlineVec`]) and wait queues retain their
//! capacity across reuse. The `item → entry` index is the protocols'
//! shared [`ItemTable`], probed once per request and once per released
//! item. An item whose last holder and waiter
//! leave is removed from it at once, so the index holds exactly the
//! locked items, and nothing allocates once it has found its capacity.
//!
//! Measured on the six lock-based `engine-protocols` cells (events/s per
//! cell, two sets of ten alternating pairs, 2 vCPUs), against the
//! `HashMap` with a one-multiply hasher that this index replaced: +5–9 %
//! on the `lowconflict` cells, +5–12 % on the `highconflict` ones, the
//! change ahead in 8–10 pairs of 10 on every cell. Tried and dropped:
//! leaving an unlocked item's entry in place as a marker for the next
//! sweep to drop (the timestamp protocols' way), −3–4 % against the
//! `HashMap` on `lowconflict` (1–2 pairs of 10 ahead), because the index
//! then grows with the items touched rather than the items locked and
//! stops fitting in cache.

use std::collections::VecDeque;

use super::inline_vec::InlineVec;
use super::item_table::ItemTable;
use super::TxnId;

/// An index value: the arena entry of a locked item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryRef(u32);

impl EntryRef {
    /// What an item no transaction holds or waits for reads as: it has
    /// no index entry.
    const UNLOCKED: EntryRef = EntryRef(u32::MAX);
}

impl Default for EntryRef {
    fn default() -> Self {
        EntryRef::UNLOCKED
    }
}

/// Lock mode.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Shared (read) lock.
    #[default]
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Outcome of [`LockTable::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request joined the wait queue.
    Queued,
}

/// Most items are held by one transaction (occasionally a small read
/// group), so two holders live inline in the entry.
const INLINE_HOLDERS: usize = 2;

#[derive(Debug, Default)]
struct LockEntry {
    /// Current holders with their strongest granted mode.
    holders: InlineVec<(TxnId, Mode), INLINE_HOLDERS>,
    /// FIFO wait queue. Upgrades enter at the front. Capacity is retained
    /// when the entry cycles through the free list.
    queue: VecDeque<(TxnId, Mode)>,
}

impl LockEntry {
    fn is_unused(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

#[derive(Debug, Default, Clone)]
struct Slot {
    held: Vec<u64>,
    waiting_for_item: Option<u64>,
    blocked_count: u64,
}

/// A strict shared/exclusive lock table over `u64` item ids.
#[derive(Debug)]
pub(crate) struct LockTable {
    /// Locked item → arena entry. Entries leave the index the moment they
    /// empty, so `index.len()` is the number of currently locked items.
    index: ItemTable<EntryRef>,
    /// Entry arena; recycled through `free`, never shrunk.
    entries: Vec<LockEntry>,
    free: Vec<u32>,
    slots: Vec<Slot>,
    /// Reusable buffer for the items released by `release_all_into`.
    released_scratch: Vec<u64>,
}

impl LockTable {
    /// Creates a table for `slots` transaction slots.
    pub(crate) fn new(slots: usize) -> Self {
        Self::with_index(slots, ItemTable::new())
    }

    /// A table whose item index starts at `capacity` slots, so tests can
    /// make its probe runs collide and wrap.
    #[cfg(test)]
    fn with_index_capacity(slots: usize, capacity: usize) -> Self {
        Self::with_index(slots, ItemTable::with_capacity(capacity))
    }

    fn with_index(slots: usize, index: ItemTable<EntryRef>) -> Self {
        LockTable {
            index,
            entries: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time arena; entries are recycled, never dropped")
            free: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time free list")
            slots: vec![Slot::default(); slots], // alc-lint: allow(hot-alloc, reason="construction-time slot table")
            released_scratch: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time scratch; retains capacity across releases")
        }
    }

    /// Resets per-transaction bookkeeping at the start of a (re)run.
    pub(crate) fn begin(&mut self, txn: TxnId) {
        let slot = &mut self.slots[txn];
        debug_assert!(
            slot.held.is_empty() && slot.waiting_for_item.is_none(),
            "begin() on a transaction still holding locks"
        );
        slot.held.clear();
        slot.waiting_for_item = None;
        slot.blocked_count = 0;
    }

    /// Arena entries ever created (high-water of concurrently locked
    /// items). Exposed so tests can pin capacity retention.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.entries.len()
    }

    /// Slots of the item index, for the memory tests.
    #[cfg(test)]
    pub(crate) fn index_capacity(&self) -> usize {
        self.index.capacity()
    }

    /// The arena entry for `item`, creating (or recycling) one if the
    /// item is currently unlocked.
    fn entry_for(&mut self, item: u64) -> u32 {
        // Unlocked items leave the index at once: no entry is ever dead.
        let slot = self.index.entry(item, || 0, |_, _| false);
        if *slot == EntryRef::UNLOCKED {
            let idx = match self.free.pop() {
                Some(idx) => idx,
                None => {
                    self.entries.push(LockEntry::default());
                    (self.entries.len() - 1) as u32
                }
            };
            debug_assert!(self.entries[idx as usize].is_unused());
            *slot = EntryRef(idx);
        }
        slot.0
    }

    fn compatible(
        holders: &InlineVec<(TxnId, Mode), INLINE_HOLDERS>,
        requester: TxnId,
        mode: Mode,
    ) -> bool {
        holders
            .iter()
            .all(|(h, m)| h == requester || (m == Mode::Shared && mode == Mode::Shared))
    }

    /// Requests `item` in `mode` for `txn`.
    pub(crate) fn request(&mut self, txn: TxnId, item: u64, mode: Mode) -> RequestOutcome {
        let idx = self.entry_for(item);
        let entry = &mut self.entries[idx as usize];

        // Already holding in sufficient mode?
        let held = entry.holders.iter().find(|(h, _)| *h == txn);
        if let Some((_, held_mode)) = held {
            if held_mode == Mode::Exclusive || mode == Mode::Shared {
                return RequestOutcome::Granted;
            }
            // Upgrade S→X: only if sole holder, else wait at queue front.
            if entry.holders.len() == 1 {
                entry.holders.set(0, (txn, Mode::Exclusive));
                return RequestOutcome::Granted;
            }
            entry.queue.push_front((txn, Mode::Exclusive));
            self.slots[txn].waiting_for_item = Some(item);
            self.slots[txn].blocked_count += 1;
            return RequestOutcome::Queued;
        }

        // Fresh request: grant only if compatible AND nobody queued ahead.
        if entry.queue.is_empty() && Self::compatible(&entry.holders, txn, mode) {
            entry.holders.push((txn, mode));
            self.slots[txn].held.push(item);
            return RequestOutcome::Granted;
        }
        entry.queue.push_back((txn, mode));
        self.slots[txn].waiting_for_item = Some(item);
        self.slots[txn].blocked_count += 1;
        RequestOutcome::Queued
    }

    /// Grants whatever the FIFO queue head(s) of `item`'s `entry` allow
    /// after a release or abort, appending the granted transactions to
    /// `granted`.
    fn grant_waiters(
        entry: &mut LockEntry,
        slots: &mut [Slot],
        item: u64,
        granted: &mut Vec<TxnId>,
    ) {
        while let Some(&(txn, mode)) = entry.queue.front() {
            if Self::compatible(&entry.holders, txn, mode) {
                entry.queue.pop_front();
                // Upgrade if already holding, else add.
                if let Some(pos) = (0..entry.holders.len()).find(|&i| entry.holders.get(i).0 == txn)
                {
                    entry.holders.set(pos, (txn, mode));
                } else {
                    entry.holders.push((txn, mode));
                    slots[txn].held.push(item);
                }
                slots[txn].waiting_for_item = None;
                granted.push(txn);
                if mode == Mode::Exclusive {
                    break;
                }
            } else {
                break;
            }
        }
    }

    /// One index probe per released item: lets `withdraw` take the
    /// releasing transaction out of `item`'s entry, grants what that
    /// frees, and returns the entry to the free list once it is empty.
    fn release_item(
        &mut self,
        item: u64,
        granted: &mut Vec<TxnId>,
        withdraw: impl FnOnce(&mut LockEntry),
    ) {
        let idx = match self.index.get(item) {
            EntryRef::UNLOCKED => return,
            EntryRef(idx) => idx,
        };
        let entry = &mut self.entries[idx as usize];
        withdraw(entry);
        Self::grant_waiters(entry, &mut self.slots, item, granted);
        if entry.is_unused() {
            self.index.remove(item);
            self.free.push(idx);
        }
    }

    /// Releases everything `txn` holds and cancels its pending request,
    /// appending the transactions whose queued requests became granted to
    /// `unblocked` — cancelling a queue-head request can unblock the
    /// entry behind it, so even a waiter's release may grant others.
    pub(crate) fn release_all_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>) {
        // Move the held list into the scratch buffer so the borrow on the
        // slot ends before granting; both keep their capacity.
        debug_assert!(self.released_scratch.is_empty());
        std::mem::swap(&mut self.slots[txn].held, &mut self.released_scratch);
        if let Some(item) = self.slots[txn].waiting_for_item.take() {
            self.release_item(item, unblocked, |entry| {
                entry.queue.retain(|&(t, _)| t != txn);
            });
        }
        for i in 0..self.released_scratch.len() {
            let item = self.released_scratch[i];
            self.release_item(item, unblocked, |entry| {
                entry.holders.retain(|&(h, _)| h != txn);
            });
        }
        self.released_scratch.clear();
    }

    /// Allocating convenience wrapper around
    /// [`LockTable::release_all_into`], for tests.
    #[cfg(test)]
    pub(crate) fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut unblocked = Vec::new();
        self.release_all_into(txn, &mut unblocked);
        unblocked
    }

    /// The item `txn` is queued on, if any.
    pub(crate) fn waiting_item(&self, txn: TxnId) -> Option<u64> {
        self.slots[txn].waiting_for_item
    }

    /// Times `txn` has blocked since its `begin`.
    pub(crate) fn blocked_count(&self, txn: TxnId) -> u64 {
        self.slots[txn].blocked_count
    }

    /// Appends the current holders of `item` to `out` (nothing if
    /// unlocked).
    pub(crate) fn holders_into(&self, item: u64, out: &mut Vec<TxnId>) {
        if let Some(entry) = self.locked_entry(item) {
            out.extend(entry.holders.iter().map(|(h, _)| h));
        }
    }

    /// The arena entry of `item`, if it is locked.
    fn locked_entry(&self, item: u64) -> Option<&LockEntry> {
        match self.index.get(item) {
            EntryRef::UNLOCKED => None,
            EntryRef(idx) => Some(&self.entries[idx as usize]),
        }
    }

    /// Current holders of `item` (empty if unlocked), for tests.
    #[cfg(test)]
    pub(crate) fn holders_of(&self, item: u64) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.holders_into(item, &mut out);
        out
    }

    /// Appends everything `txn`'s pending request directly waits on:
    /// holders that conflict with the requested mode plus every waiter
    /// queued ahead (FIFO means the whole prefix must drain first).
    /// Appends nothing when `txn` is not waiting. The queue-ahead part is
    /// conservative — a compatible reader ahead would in fact be granted
    /// together — but conservatism only costs extra wounds/dies, never
    /// correctness.
    pub(crate) fn blocking_targets_into(&self, txn: TxnId, targets: &mut Vec<TxnId>) {
        let Some(item) = self.slots[txn].waiting_for_item else {
            return;
        };
        let Some(entry) = self.locked_entry(item) else {
            return;
        };
        let Some(pos) = entry.queue.iter().position(|&(t, _)| t == txn) else {
            return;
        };
        let mode = entry.queue[pos].1;
        let start = targets.len();
        targets.extend(
            entry
                .holders
                .iter()
                .filter(|&(h, m)| h != txn && !(m == Mode::Shared && mode == Mode::Shared))
                .map(|(h, _)| h),
        );
        for &(t, _) in entry.queue.iter().take(pos) {
            if t != txn && !targets[start..].contains(&t) {
                targets.push(t);
            }
        }
    }

    /// Allocating convenience wrapper around
    /// [`LockTable::blocking_targets_into`], for tests.
    #[cfg(test)]
    pub(crate) fn blocking_targets(&self, txn: TxnId) -> Vec<TxnId> {
        let mut targets = Vec::new();
        self.blocking_targets_into(txn, &mut targets);
        targets
    }

    /// Number of data items currently locked.
    pub(crate) fn locked_items(&self) -> usize {
        self.index.len()
    }
}

/// The seed (pre-arena) implementation, kept as a property-test oracle
/// (verbatim but for an ordered map in place of its `HashMap`, which no
/// result depended on): per-item map entries each owning a fresh `Vec` +
/// `VecDeque`. Obviously correct, allocation-heavy — the arena table must
/// be observationally identical to it.
#[cfg(test)]
mod seed_oracle {
    use super::{Mode, RequestOutcome, TxnId};
    use std::collections::{BTreeMap, VecDeque};

    struct LockEntry {
        holders: Vec<(TxnId, Mode)>,
        queue: VecDeque<(TxnId, Mode)>,
    }

    #[derive(Default, Clone)]
    struct Slot {
        held: Vec<u64>,
        waiting_for_item: Option<u64>,
        blocked_count: u64,
    }

    pub(super) struct SeedLockTable {
        table: BTreeMap<u64, LockEntry>,
        slots: Vec<Slot>,
    }

    impl SeedLockTable {
        pub(super) fn new(slots: usize) -> Self {
            SeedLockTable {
                table: BTreeMap::new(),
                slots: vec![Slot::default(); slots],
            }
        }

        pub(super) fn begin(&mut self, txn: TxnId) {
            self.slots[txn] = Slot::default();
        }

        fn compatible(holders: &[(TxnId, Mode)], requester: TxnId, mode: Mode) -> bool {
            holders
                .iter()
                .all(|&(h, m)| h == requester || (m == Mode::Shared && mode == Mode::Shared))
        }

        pub(super) fn request(&mut self, txn: TxnId, item: u64, mode: Mode) -> RequestOutcome {
            let entry = self.table.entry(item).or_insert_with(|| LockEntry {
                holders: Vec::new(),
                queue: VecDeque::new(),
            });
            if let Some(&(_, held_mode)) = entry.holders.iter().find(|(h, _)| *h == txn) {
                if held_mode == Mode::Exclusive || mode == Mode::Shared {
                    return RequestOutcome::Granted;
                }
                if entry.holders.len() == 1 {
                    entry.holders[0].1 = Mode::Exclusive;
                    return RequestOutcome::Granted;
                }
                entry.queue.push_front((txn, Mode::Exclusive));
                self.slots[txn].waiting_for_item = Some(item);
                self.slots[txn].blocked_count += 1;
                return RequestOutcome::Queued;
            }
            if entry.queue.is_empty() && Self::compatible(&entry.holders, txn, mode) {
                entry.holders.push((txn, mode));
                self.slots[txn].held.push(item);
                return RequestOutcome::Granted;
            }
            entry.queue.push_back((txn, mode));
            self.slots[txn].waiting_for_item = Some(item);
            self.slots[txn].blocked_count += 1;
            RequestOutcome::Queued
        }

        fn grant_waiters(&mut self, item: u64) -> Vec<TxnId> {
            let mut granted = Vec::new();
            let Some(entry) = self.table.get_mut(&item) else {
                return granted;
            };
            while let Some(&(txn, mode)) = entry.queue.front() {
                if Self::compatible(&entry.holders, txn, mode) {
                    entry.queue.pop_front();
                    if let Some(h) = entry.holders.iter_mut().find(|(h, _)| *h == txn) {
                        h.1 = mode;
                    } else {
                        entry.holders.push((txn, mode));
                        self.slots[txn].held.push(item);
                    }
                    self.slots[txn].waiting_for_item = None;
                    granted.push(txn);
                    if mode == Mode::Exclusive {
                        break;
                    }
                } else {
                    break;
                }
            }
            if entry.holders.is_empty() && entry.queue.is_empty() {
                self.table.remove(&item);
            }
            granted
        }

        pub(super) fn release_all(&mut self, txn: TxnId) -> Vec<TxnId> {
            let mut unblocked = Vec::new();
            let held = std::mem::take(&mut self.slots[txn].held);
            if let Some(item) = self.slots[txn].waiting_for_item.take() {
                if let Some(entry) = self.table.get_mut(&item) {
                    entry.queue.retain(|&(t, _)| t != txn);
                    if entry.holders.is_empty() && entry.queue.is_empty() {
                        self.table.remove(&item);
                    } else {
                        unblocked.extend(self.grant_waiters(item));
                    }
                }
            }
            for item in held {
                if let Some(entry) = self.table.get_mut(&item) {
                    entry.holders.retain(|&(h, _)| h != txn);
                    unblocked.extend(self.grant_waiters(item));
                }
            }
            unblocked
        }

        pub(super) fn waiting_item(&self, txn: TxnId) -> Option<u64> {
            self.slots[txn].waiting_for_item
        }

        pub(super) fn blocked_count(&self, txn: TxnId) -> u64 {
            self.slots[txn].blocked_count
        }

        pub(super) fn holders_of(&self, item: u64) -> Vec<TxnId> {
            self.table
                .get(&item)
                .map(|e| e.holders.iter().map(|&(h, _)| h).collect())
                .unwrap_or_default()
        }

        pub(super) fn blocking_targets(&self, txn: TxnId) -> Vec<TxnId> {
            let Some(item) = self.slots[txn].waiting_for_item else {
                return Vec::new();
            };
            let Some(entry) = self.table.get(&item) else {
                return Vec::new();
            };
            let Some(pos) = entry.queue.iter().position(|&(t, _)| t == txn) else {
                return Vec::new();
            };
            let mode = entry.queue[pos].1;
            let mut targets: Vec<TxnId> = entry
                .holders
                .iter()
                .filter(|&&(h, m)| h != txn && !(m == Mode::Shared && mode == Mode::Shared))
                .map(|&(h, _)| h)
                .collect();
            for &(t, _) in entry.queue.iter().take(pos) {
                if t != txn && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            targets
        }

        pub(super) fn locked_items(&self) -> usize {
            self.table.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The arena table must be observationally identical to the seed
        /// map implementation on arbitrary engine-legal
        /// interleavings of request/release (a transaction never issues
        /// a new request while queued — exactly the engine's discipline).
        /// Its item index starts at 8 slots, so removals shift probe runs
        /// that wrap and collide, and the index grows while it runs.
        #[test]
        fn arena_matches_seed_oracle(
            ops in prop::collection::vec((0u8..3, 0usize..6, 0u64..16, any::<bool>()), 1..400),
        ) {
            const N: usize = 6;
            let mut arena = LockTable::with_index_capacity(N, 8);
            let mut seed = seed_oracle::SeedLockTable::new(N);
            for t in 0..N {
                arena.begin(t);
                seed.begin(t);
            }
            for (kind, txn, item, write) in ops {
                if kind < 2 {
                    if arena.waiting_item(txn).is_none() {
                        let mode = if write { Mode::Exclusive } else { Mode::Shared };
                        prop_assert_eq!(arena.request(txn, item, mode), seed.request(txn, item, mode));
                    }
                } else {
                    let a = arena.release_all(txn);
                    let b = seed.release_all(txn);
                    prop_assert_eq!(a, b);
                    arena.begin(txn);
                    seed.begin(txn);
                }
                prop_assert_eq!(arena.locked_items(), seed.locked_items());
                for t in 0..N {
                    prop_assert_eq!(arena.waiting_item(t), seed.waiting_item(t));
                    prop_assert_eq!(arena.blocked_count(t), seed.blocked_count(t));
                    prop_assert_eq!(arena.blocking_targets(t), seed.blocking_targets(t));
                }
                for it in 0..16 {
                    prop_assert_eq!(arena.holders_of(it), seed.holders_of(it));
                }
            }
        }
    }

    #[test]
    fn grant_and_queue_basics() {
        let mut lt = LockTable::new(3);
        for t in 0..3 {
            lt.begin(t);
        }
        assert_eq!(lt.request(0, 7, Mode::Exclusive), RequestOutcome::Granted);
        assert_eq!(lt.request(1, 7, Mode::Shared), RequestOutcome::Queued);
        assert_eq!(lt.request(2, 7, Mode::Shared), RequestOutcome::Queued);
        assert_eq!(lt.release_all(0), vec![1, 2], "both readers grant together");
    }

    #[test]
    fn blocking_targets_cover_holders_and_queue_prefix() {
        let mut lt = LockTable::new(4);
        for t in 0..4 {
            lt.begin(t);
        }
        lt.request(0, 7, Mode::Exclusive);
        lt.request(1, 7, Mode::Exclusive);
        lt.request(2, 7, Mode::Exclusive);
        let targets = lt.blocking_targets(2);
        assert!(targets.contains(&0), "holder missing: {targets:?}");
        assert!(targets.contains(&1), "queued-ahead missing: {targets:?}");
        assert_eq!(lt.blocking_targets(0), Vec::<TxnId>::new());
    }

    #[test]
    fn shared_shared_holders_do_not_conflict() {
        let mut lt = LockTable::new(3);
        for t in 0..3 {
            lt.begin(t);
        }
        lt.request(0, 7, Mode::Shared);
        lt.request(1, 7, Mode::Exclusive); // queued
        lt.request(2, 7, Mode::Shared); // queued behind the writer
        // Reader 2 conflicts with nothing it holds against reader 0, but
        // FIFO makes it wait for the writer ahead.
        let targets = lt.blocking_targets(2);
        assert!(!targets.contains(&0), "S/S holders must not conflict");
        assert!(targets.contains(&1));
    }

    #[test]
    fn cancelled_upgrade_unblocks_queue_head() {
        let mut lt = LockTable::new(3);
        for t in 0..3 {
            lt.begin(t);
        }
        lt.request(0, 7, Mode::Shared);
        lt.request(1, 7, Mode::Shared);
        assert_eq!(lt.request(0, 7, Mode::Exclusive), RequestOutcome::Queued);
        // Aborting the upgrader releases its S lock and cancels the
        // queued upgrade; nothing else is waiting.
        let unblocked = lt.release_all(0);
        assert!(unblocked.is_empty());
        assert_eq!(lt.holders_of(7), vec![1]);
    }

    #[test]
    fn table_shrinks_to_empty() {
        let mut lt = LockTable::new(2);
        lt.begin(0);
        lt.request(0, 1, Mode::Shared);
        lt.request(0, 2, Mode::Exclusive);
        assert_eq!(lt.locked_items(), 2);
        lt.release_all(0);
        assert_eq!(lt.locked_items(), 0);
    }

    #[test]
    fn blocked_count_accumulates() {
        let mut lt = LockTable::new(2);
        lt.begin(0);
        lt.begin(1);
        lt.request(0, 1, Mode::Exclusive);
        assert_eq!(lt.request(1, 1, Mode::Shared), RequestOutcome::Queued);
        assert_eq!(lt.blocked_count(1), 1);
        assert_eq!(lt.blocked_count(0), 0);
    }

    #[test]
    fn arena_recycles_entries_instead_of_growing() {
        let mut lt = LockTable::new(1);
        lt.begin(0);
        // Lock/unlock many distinct items sequentially: the arena must
        // stay at the high-water of *concurrently* locked items (2).
        for round in 0..100u64 {
            lt.request(0, round * 2, Mode::Exclusive);
            lt.request(0, round * 2 + 1, Mode::Shared);
            lt.release_all(0);
        }
        assert_eq!(lt.locked_items(), 0);
        assert!(
            lt.arena_len() <= 2,
            "arena grew to {} entries for 2 concurrent locks",
            lt.arena_len()
        );
    }

    #[test]
    fn wide_read_groups_spill_and_recover() {
        // More holders than the inline buffer: grant 8 readers, then
        // upgrade-style churn, ensuring spill storage behaves.
        let mut lt = LockTable::new(8);
        for t in 0..8 {
            lt.begin(t);
            assert_eq!(lt.request(t, 42, Mode::Shared), RequestOutcome::Granted);
        }
        assert_eq!(lt.holders_of(42).len(), 8);
        for t in 0..7 {
            lt.release_all(t);
        }
        assert_eq!(lt.holders_of(42), vec![7]);
        // Sole survivor upgrades in place.
        assert_eq!(lt.request(7, 42, Mode::Exclusive), RequestOutcome::Granted);
        lt.release_all(7);
        assert_eq!(lt.locked_items(), 0);
    }
}

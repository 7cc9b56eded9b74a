//! Basic timestamp ordering.
//!
//! The second non-blocking representative of §1 ("e.g. timestamp
//! ordering, optimistic CC"). Each item carries the largest reader
//! timestamp `rts` and the writer timestamp `wts`; accesses arriving "too
//! late" in timestamp order abort the transaction immediately, which then
//! restarts with a *fresh* timestamp (avoiding livelock on the same
//! ordering conflict).
//!
//! As usual in performance models, writes install at access time and are
//! not rolled back on abort — recoverability machinery (deferred writes,
//! commit dependencies) affects constants, not the contention shape this
//! study needs. The simplification is documented here deliberately.
//!
//! The item timestamps live in an [`ItemTable`]. An access by `ts`
//! aborts only on a stamp larger than `ts`, every live run is at least
//! the *horizon* (the oldest live timestamp) and every future run is
//! younger than every current one. So an entry whose `rts` and `wts` are
//! both below the horizon is dead — it reads and updates exactly like
//! the `{0, 0}` of an untouched item — and a sweep drops it. The rule
//! covers the writes aborted runs leave behind, too: they are stamps like
//! any other.

use super::item_table::ItemTable;
use super::{AccessOutcome, ConcurrencyControl, TxnId, ValidateOutcome};

/// Timestamp of a slot with no live run: it bounds no horizon.
const IDLE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, Default)]
struct ItemTs {
    rts: u64,
    wts: u64,
}

#[derive(Debug, Clone, Copy)]
struct TxnState {
    /// The run's timestamp; [`IDLE`] between runs.
    ts: u64,
    conflicts: u64,
}

/// Basic T/O.
pub struct TimestampOrdering {
    /// Per-item timestamps. Absent items read `{rts: 0, wts: 0}`
    /// ("written before every start").
    items: ItemTable<ItemTs>,
    txns: Vec<TxnState>,
}

impl TimestampOrdering {
    /// Creates the protocol for `slots` transaction slots.
    pub fn new(slots: usize) -> Self {
        Self::with_table(slots, ItemTable::new())
    }

    /// The protocol over an item table of `capacity` slots, so tests can
    /// make it sweep every few accesses.
    #[cfg(test)]
    fn with_capacity(slots: usize, capacity: usize) -> Self {
        Self::with_table(slots, ItemTable::with_capacity(capacity))
    }

    fn with_table(slots: usize, items: ItemTable<ItemTs>) -> Self {
        let idle = TxnState {
            ts: IDLE,
            conflicts: 0,
        };
        TimestampOrdering {
            items,
            txns: vec![idle; slots], // alc-lint: allow(hot-alloc, reason="construction-time slot-table allocation")
        }
    }
}

impl ConcurrencyControl for TimestampOrdering {
    fn name(&self) -> &'static str {
        "timestamp-ordering"
    }

    fn begin(&mut self, txn: TxnId, ts: u64) {
        self.txns[txn] = TxnState { ts, conflicts: 0 };
    }

    fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome {
        let TimestampOrdering { items, txns } = self;
        let ts = txns[txn].ts;
        let horizon = || txns.iter().map(|t| t.ts).min().unwrap_or(IDLE);
        let e = items.entry(item, horizon, |e, h| e.rts.max(e.wts) < h);
        if write {
            if ts < e.rts || ts < e.wts {
                txns[txn].conflicts += 1;
                return AccessOutcome::Abort;
            }
            e.wts = ts;
        } else {
            if ts < e.wts {
                txns[txn].conflicts += 1;
                return AccessOutcome::Abort;
            }
            e.rts = e.rts.max(ts);
        }
        AccessOutcome::Granted
    }

    fn validate(&mut self, txn: TxnId) -> ValidateOutcome {
        ValidateOutcome {
            ok: true,
            conflicts: self.txns[txn].conflicts,
        }
    }

    fn commit(&mut self, txn: TxnId) -> Vec<TxnId> {
        // Writes installed at access time; ending the run is all that is left.
        self.abort(txn)
    }

    fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        self.txns[txn].ts = IDLE;
        Vec::new() // alc-lint: allow(hot-alloc, reason="empty Vec::new is allocation-free; T/O never wakes blocked txns")
    }

    fn deadlock_victim(&mut self, _requester: TxnId) -> Option<TxnId> {
        None // T/O never blocks
    }

    #[cfg(test)]
    fn item_capacity(&self) -> usize {
        self.items.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_accesses_proceed() {
        let mut cc = TimestampOrdering::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Granted);
        assert!(cc.validate(1).ok);
    }

    #[test]
    fn late_read_aborts() {
        let mut cc = TimestampOrdering::new(2);
        cc.begin(0, 1); // old
        cc.begin(1, 2); // young
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Granted); // wts=2
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Abort); // ts 1 < wts 2
    }

    #[test]
    fn late_write_after_read_aborts() {
        let mut cc = TimestampOrdering::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted); // rts=2
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Abort); // ts 1 < rts 2
    }

    #[test]
    fn read_after_older_write_is_fine() {
        let mut cc = TimestampOrdering::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted); // wts=1
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted); // ts 2 >= wts 1
    }

    #[test]
    fn restart_with_fresh_timestamp_succeeds() {
        let mut cc = TimestampOrdering::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.access(1, 5, true);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Abort);
        cc.abort(0);
        cc.begin(0, 3); // fresh, younger timestamp
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
    }

    #[test]
    fn conflicts_are_counted() {
        let mut cc = TimestampOrdering::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.access(1, 5, true);
        cc.access(0, 5, false);
        assert_eq!(cc.validate(0).conflicts, 1);
    }

    #[test]
    fn never_blocks_or_names_victims() {
        let mut cc = TimestampOrdering::new(1);
        cc.begin(0, 1);
        assert_eq!(cc.deadlock_victim(0), None);
    }

    #[test]
    fn reads_by_many_raise_rts_monotonically() {
        let mut cc = TimestampOrdering::new(3);
        cc.begin(0, 5);
        cc.begin(1, 3);
        cc.begin(2, 4);
        assert_eq!(cc.access(0, 7, false), AccessOutcome::Granted); // rts=5
        assert_eq!(cc.access(1, 7, false), AccessOutcome::Granted); // reads never conflict with reads
        // A writer younger than the max reader succeeds only at ts >= 5.
        assert_eq!(cc.access(2, 7, true), AccessOutcome::Abort); // ts 4 < rts 5
    }

    /// The direct-indexed table this protocol replaced, kept as the
    /// reference model of the differential test below.
    mod reference {
        use crate::cc::{AccessOutcome, ConcurrencyControl, TxnId, ValidateOutcome};

        #[derive(Debug, Clone, Copy, Default)]
        struct ItemTs {
            rts: u64,
            wts: u64,
        }

        #[derive(Debug, Clone, Copy, Default)]
        struct TxnState {
            ts: u64,
            conflicts: u64,
        }

        pub(super) struct TimestampOrdering {
            items: Vec<ItemTs>,
            txns: Vec<TxnState>,
        }

        impl TimestampOrdering {
            pub(super) fn new(slots: usize) -> Self {
                TimestampOrdering {
                    items: Vec::new(),
                    txns: vec![TxnState::default(); slots],
                }
            }

            fn item_mut(&mut self, item: u64) -> &mut ItemTs {
                let idx = item as usize;
                if idx >= self.items.len() {
                    self.items.resize(idx + 1, ItemTs::default());
                }
                &mut self.items[idx]
            }
        }

        impl ConcurrencyControl for TimestampOrdering {
            fn name(&self) -> &'static str {
                "timestamp-ordering"
            }

            fn begin(&mut self, txn: TxnId, ts: u64) {
                self.txns[txn] = TxnState { ts, conflicts: 0 };
            }

            fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome {
                let ts = self.txns[txn].ts;
                let e = self.item_mut(item);
                if write {
                    if ts < e.rts || ts < e.wts {
                        self.txns[txn].conflicts += 1;
                        return AccessOutcome::Abort;
                    }
                    e.wts = ts;
                } else {
                    if ts < e.wts {
                        self.txns[txn].conflicts += 1;
                        return AccessOutcome::Abort;
                    }
                    e.rts = e.rts.max(ts);
                }
                AccessOutcome::Granted
            }

            fn validate(&mut self, txn: TxnId) -> ValidateOutcome {
                ValidateOutcome {
                    ok: true,
                    conflicts: self.txns[txn].conflicts,
                }
            }

            fn commit(&mut self, _txn: TxnId) -> Vec<TxnId> {
                Vec::new()
            }

            fn abort(&mut self, _txn: TxnId) -> Vec<TxnId> {
                Vec::new()
            }

            fn deadlock_victim(&mut self, _requester: TxnId) -> Option<TxnId> {
                None
            }
        }
    }

    /// Against the direct table it replaced, on random streams through an
    /// 8-slot table that sweeps every few accesses: every outcome equal.
    #[test]
    fn swept_table_matches_the_direct_table() {
        for seed in 1..=8 {
            let mut cc = TimestampOrdering::with_capacity(5, 8);
            let mut reference = reference::TimestampOrdering::new(5);
            crate::cc::differential::assert_same_outcomes(
                &mut cc,
                &mut reference,
                5,
                seed,
                |_, _, _| {},
            );
            let slots = cc.items.capacity();
            assert!(slots < 1 << 12, "{slots} slots");
        }
    }
}

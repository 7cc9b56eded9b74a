//! Concurrency control protocols.
//!
//! §1 splits CC algorithms into blocking (two-phase locking: data
//! contention shows up as a quadratically growing blocked set) and
//! non-blocking (timestamp ordering, optimistic: data contention is
//! resolved by abort/restart and thereby converted into resource
//! contention). The simulator implements one of each class plus the
//! paper's actual protocol:
//!
//! * [`Certification`] — timestamp certification, §7's choice;
//! * [`TwoPhaseLocking`] — strict 2PL with waits-for deadlock detection;
//! * [`TimestampOrdering`] — basic T/O;
//! * [`Prevention`] — strict 2PL with wound-wait or wait-die deadlock
//!   *prevention* instead of detection;
//! * [`Mvto`] — multiversion timestamp ordering (reads never abort).
//!
//! The engine talks to all of them through [`ConcurrencyControl`];
//! protocols keep their own per-transaction bookkeeping keyed by
//! [`TxnId`].

mod certification;
mod inline_vec;
mod item_table;
mod locktable;
mod mvto;
mod prevention;
mod timestamp;
mod twopl;

pub use certification::Certification;
pub use mvto::Mvto;
pub use prevention::{Prevention, PreventionPolicy};
pub use timestamp::TimestampOrdering;
pub use twopl::TwoPhaseLocking;

use crate::config::CcKind;

/// Identifies a transaction slot (terminal) in the simulator.
pub type TxnId = usize;

/// Result of requesting one data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Proceed with the phase.
    Granted,
    /// The transaction must wait (2PL lock conflict). The engine parks it
    /// and resumes when a release grants the request.
    Blocked,
    /// The protocol killed the transaction on the spot (T/O late access).
    Abort,
}

/// Result of commit-time validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidateOutcome {
    /// Whether the transaction may commit.
    pub ok: bool,
    /// Data conflicts charged to this transaction (stale reads found at
    /// certification, lock waits endured under 2PL, …) — the quantity
    /// Iyer's rule bounds.
    pub conflicts: u64,
}

/// A pluggable concurrency-control protocol.
pub trait ConcurrencyControl {
    /// Starts a (re)run of `txn` with a fresh timestamp (larger = younger).
    fn begin(&mut self, txn: TxnId, ts: u64);

    /// Requests access to `item`, `write` or read.
    fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome;

    /// Commit-time validation (certification point).
    fn validate(&mut self, txn: TxnId) -> ValidateOutcome;

    /// Finalizes a validated commit: installs writes / releases locks,
    /// and appends the transactions whose pending lock requests are now
    /// granted to `unblocked`. The engine calls this with a pooled
    /// buffer.
    fn commit_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>);

    /// Aborts `txn`, releasing whatever it held, and appends the
    /// unblocked transactions to `unblocked`.
    fn abort_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>);

    /// [`ConcurrencyControl::commit_into`] into a fresh `Vec`, for
    /// callers off the engine's hot path.
    fn commit(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut unblocked = Vec::new(); // alc-lint: allow(hot-alloc, reason="convenience wrapper; the engine hot path calls commit_into with a pooled buffer")
        self.commit_into(txn, &mut unblocked);
        unblocked
    }

    /// [`ConcurrencyControl::abort_into`] into a fresh `Vec`, for
    /// callers off the engine's hot path.
    fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut unblocked = Vec::new(); // alc-lint: allow(hot-alloc, reason="convenience wrapper; the engine hot path calls abort_into with a pooled buffer")
        self.abort_into(txn, &mut unblocked);
        unblocked
    }

    /// After `requester` blocked: names a transaction that must be
    /// aborted for progress per the protocol's policy — a detected cycle's
    /// youngest member (2PL detection), a younger blocker to preempt
    /// (wound-wait) or the requester itself (wait-die). The engine calls
    /// this repeatedly, aborting each named victim, until it returns
    /// `None`; implementations must re-examine the current wait state on
    /// every call.
    fn deadlock_victim(&mut self, requester: TxnId) -> Option<TxnId>;

    /// Slots of the protocol's per-item table, for the memory tests (the
    /// reference models of the differential tests have none to report).
    #[cfg(test)]
    fn item_capacity(&self) -> usize {
        0
    }
}

/// Instantiates a protocol by kind for `slots` transaction slots.
///
/// The database size is unused: every protocol keeps its per-item state
/// in one open-addressing table sized by what live runs can observe, not
/// by the database. The parameter stays because the benchmark ledger
/// calls this signature; it can go once the ledger reaches the crate
/// through one adapter module.
pub fn make_cc(kind: CcKind, slots: usize, _db_size: usize) -> Box<dyn ConcurrencyControl> {
    match kind {
        // alc-lint: allow(hot-alloc, reason="one boxed protocol per run, built before the measurement window")
        CcKind::Certification => Box::new(Certification::new(slots)),
        CcKind::TwoPhaseLocking => Box::new(TwoPhaseLocking::new(slots)), // alc-lint: allow(hot-alloc, reason="one boxed protocol per run")
        CcKind::TimestampOrdering => Box::new(TimestampOrdering::new(slots)), // alc-lint: allow(hot-alloc, reason="one boxed protocol per run")
        CcKind::WoundWait => Box::new(Prevention::new(PreventionPolicy::WoundWait, slots)), // alc-lint: allow(hot-alloc, reason="one boxed protocol per run")
        CcKind::WaitDie => Box::new(Prevention::new(PreventionPolicy::WaitDie, slots)), // alc-lint: allow(hot-alloc, reason="one boxed protocol per run")
        CcKind::Multiversion => Box::new(Mvto::new(slots)), // alc-lint: allow(hot-alloc, reason="one boxed protocol per run")
    }
}

/// One random, engine-like call stream through two protocols, for the
/// differential tests of each protocol against its reference model.
#[cfg(test)]
mod differential {
    use super::{AccessOutcome, ConcurrencyControl, TxnId};

    /// Drives `new` and `reference` with the same random stream over
    /// `slots` slots and asserts every outcome equal; `after_access` sees
    /// both protocols after each access, for what the trait does not
    /// return (MVTO's read history). The stream keeps the
    /// engine's discipline: run timestamps come from one increasing
    /// counter, a slot accesses and validates only between its `begin`
    /// and its commit or abort, a validated run commits iff it passed,
    /// and a run the protocol aborts at an access is aborted. Items mix a
    /// hot handful with wider ranges (small enough for a direct-indexed
    /// reference), so runs conflict, entries die and small tables sweep
    /// every few operations.
    pub(super) fn assert_same_outcomes<N: ConcurrencyControl, R: ConcurrencyControl>(
        new: &mut N,
        reference: &mut R,
        slots: usize,
        seed: u64,
        mut after_access: impl FnMut(&N, &R, TxnId),
    ) {
        let mut x = seed | 1;
        let mut ts = 0;
        let mut live = vec![false; slots];
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let txn = (x % slots as u64) as usize;
            if !live[txn] {
                ts += 1;
                new.begin(txn, ts);
                reference.begin(txn, ts);
                live[txn] = true;
                continue;
            }
            let end = match x >> 8 & 15 {
                0 => true,
                1 | 2 => {
                    let v = new.validate(txn);
                    assert_eq!(v, reference.validate(txn), "step {step}: validate {txn}");
                    if !v.ok {
                        true
                    } else {
                        new.commit(txn);
                        reference.commit(txn);
                        live[txn] = false;
                        false
                    }
                }
                _ => {
                    let r = x >> 16;
                    let item = match r & 3 {
                        0 => r >> 2 & 7,
                        1 => (r >> 2) % 8192,
                        _ => (r >> 2) % 512,
                    };
                    let write = r >> 20 & 1 == 0;
                    let got = new.access(txn, item, write);
                    let expected = reference.access(txn, item, write);
                    assert_eq!(got, expected, "step {step}: {txn} on {item}");
                    after_access(new, reference, txn);
                    got == AccessOutcome::Abort
                }
            };
            if end {
                new.abort(txn);
                reference.abort(txn);
                live[txn] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slot 0 runs at timestamp 1 (the older), slot 1 at 2. `holder`
    /// writes item 7, then the other slot reads it: the read's outcome,
    /// and the victim the protocol names if it blocked.
    fn contend(kind: CcKind, holder: TxnId) -> (AccessOutcome, Option<TxnId>) {
        let mut cc = make_cc(kind, 2, 100);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(holder, 7, true), AccessOutcome::Granted);
        let requester = 1 - holder;
        let got = cc.access(requester, 7, false);
        let victim = match got {
            AccessOutcome::Blocked => cc.deadlock_victim(requester),
            _ => None,
        };
        (got, victim)
    }

    /// The younger slot writes item 7 and commits, then the older one
    /// reads it: the read's outcome, and its validation if granted.
    fn read_after_commit(kind: CcKind) -> (AccessOutcome, Option<bool>) {
        let mut cc = make_cc(kind, 2, 100);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(1, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(1).ok);
        cc.commit(1);
        let got = cc.access(0, 7, false);
        (got, (got == AccessOutcome::Granted).then(|| cc.validate(0).ok))
    }

    /// `make_cc` builds each kind's protocol, told apart by behaviour:
    /// no two rows below are equal.
    #[test]
    fn factory_builds_all_kinds() {
        use AccessOutcome::{Abort, Blocked, Granted};
        for (kind, older_waits, younger_waits, late_read) in [
            (CcKind::Certification, (Granted, None), (Granted, None), (Granted, Some(false))),
            (CcKind::TwoPhaseLocking, (Blocked, None), (Blocked, None), (Granted, Some(true))),
            (CcKind::TimestampOrdering, (Abort, None), (Granted, None), (Abort, None)),
            // Wound-wait: the older requester wounds the younger holder.
            (CcKind::WoundWait, (Blocked, Some(1)), (Blocked, None), (Granted, Some(true))),
            // Wait-die: the younger requester dies.
            (CcKind::WaitDie, (Blocked, None), (Blocked, Some(1)), (Granted, Some(true))),
            (CcKind::Multiversion, (Granted, None), (Granted, None), (Granted, Some(true))),
        ] {
            assert_eq!(contend(kind, 1), older_waits, "{}: older reader", kind.name());
            assert_eq!(contend(kind, 0), younger_waits, "{}: younger reader", kind.name());
            assert_eq!(read_after_commit(kind), late_read, "{}: late read", kind.name());
        }
    }
}

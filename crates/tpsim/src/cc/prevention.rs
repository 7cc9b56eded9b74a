//! Timestamp-based deadlock *prevention*: wound-wait and wait-die.
//!
//! Two classic alternatives (Rosenkrantz et al. 1978; Bernstein et al.
//! 1987 §3) to the waits-for detection that [`super::TwoPhaseLocking`]
//! uses. Both order transactions by a priority timestamp (smaller =
//! older) and restrict who may wait for whom so that the waits-for graph
//! cannot contain a cycle:
//!
//! * **Wait-die** (non-preemptive): a requester may wait only for
//!   *younger* transactions; conflicting with an older one, it dies
//!   (aborts itself). Every wait edge points old → young.
//! * **Wound-wait** (preemptive): a requester *wounds* (aborts) every
//!   younger transaction in its way and waits only for older ones. Every
//!   wait edge points young → old.
//!
//! Either way cycles are impossible, so no detection pass is needed — the
//! price is aborts that a detector would have avoided. For the paper's
//! load-control question this is interesting because prevention converts
//! data contention into abort/restart work much earlier than detection
//! does, moving the thrashing knee.
//!
//! **Priority across restarts.** The liveness argument of both schemes
//! requires a restarted transaction to keep its original timestamp so it
//! eventually becomes the oldest and cannot be killed again. The engine
//! hands every rerun a fresh timestamp; this module therefore keeps the
//! first timestamp of an instance alive across abort/begin cycles and
//! only adopts a fresh one after a successful commit.

use super::locktable::{LockTable, Mode, RequestOutcome};
use super::{AccessOutcome, ConcurrencyControl, TxnId, ValidateOutcome};

/// Which prevention rule resolves a conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreventionPolicy {
    /// Older requesters wound (abort) younger lock holders.
    WoundWait,
    /// Younger requesters die (abort themselves) instead of waiting.
    WaitDie,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Priority timestamp, preserved across restarts of the same instance.
    eff_ts: u64,
    /// True between an abort and the next begin: the next begin keeps
    /// `eff_ts` instead of adopting the fresh engine timestamp.
    restart_pending: bool,
}

/// Strict 2PL with timestamp-based deadlock prevention.
pub struct Prevention {
    policy: PreventionPolicy,
    table: LockTable,
    slots: Vec<Slot>,
    /// Reusable buffer for the blocking-target scan of the wound/die rule.
    targets_scratch: Vec<TxnId>,
}

impl Prevention {
    /// Creates the protocol for `slots` transaction slots.
    pub fn new(policy: PreventionPolicy, slots: usize) -> Self {
        Prevention {
            policy,
            table: LockTable::new(slots),
            slots: vec![Slot::default(); slots], // alc-lint: allow(hot-alloc, reason="construction-time slot-table allocation")
            targets_scratch: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time scratch; retains capacity across calls")
        }
    }

    /// Clears all lock state, retaining arena/queue capacity, for
    /// callers re-driving one protocol instance across runs.
    pub fn reset(&mut self) {
        self.table.reset();
        self.slots.fill(Slot::default());
    }
}

impl ConcurrencyControl for Prevention {
    fn name(&self) -> &'static str {
        match self.policy {
            PreventionPolicy::WoundWait => "wound-wait",
            PreventionPolicy::WaitDie => "wait-die",
        }
    }

    fn begin(&mut self, txn: TxnId, ts: u64) {
        self.table.begin(txn);
        let slot = &mut self.slots[txn];
        if slot.restart_pending {
            slot.restart_pending = false; // keep the original priority
        } else {
            slot.eff_ts = ts;
        }
    }

    fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome {
        let mode = if write { Mode::Exclusive } else { Mode::Shared };
        match self.table.request(txn, item, mode) {
            RequestOutcome::Granted => AccessOutcome::Granted,
            // The engine follows a Blocked outcome with deadlock_victim()
            // calls, which is where the wound/die rule fires.
            RequestOutcome::Queued => AccessOutcome::Blocked,
        }
    }

    fn validate(&mut self, txn: TxnId) -> ValidateOutcome {
        ValidateOutcome {
            ok: true,
            conflicts: self.table.blocked_count(txn),
        }
    }

    fn commit(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut unblocked = Vec::new(); // alc-lint: allow(hot-alloc, reason="convenience wrapper; the engine hot path uses commit_into with a reusable buffer")
        self.commit_into(txn, &mut unblocked);
        unblocked
    }

    fn abort(&mut self, txn: TxnId) -> Vec<TxnId> {
        let mut unblocked = Vec::new(); // alc-lint: allow(hot-alloc, reason="convenience wrapper; the engine hot path uses abort_into with a reusable buffer")
        self.abort_into(txn, &mut unblocked);
        unblocked
    }

    fn commit_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>) {
        self.slots[txn].restart_pending = false;
        self.table.release_all_into(txn, unblocked);
    }

    fn abort_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>) {
        self.slots[txn].restart_pending = true;
        self.table.release_all_into(txn, unblocked);
    }

    /// The prevention rule, evaluated against everything the requester's
    /// pending request directly waits on. The engine calls this repeatedly
    /// until `None`, so wound-wait can kill several younger blockers one
    /// by one.
    fn deadlock_victim(&mut self, requester: TxnId) -> Option<TxnId> {
        let mut targets = std::mem::take(&mut self.targets_scratch);
        targets.clear();
        self.table.blocking_targets_into(requester, &mut targets);
        let my_ts = self.slots[requester].eff_ts;
        let victim = if targets.is_empty() {
            None // granted meanwhile, or not waiting at all
        } else {
            match self.policy {
                PreventionPolicy::WoundWait => targets
                    .iter()
                    .copied()
                    .filter(|&t| self.slots[t].eff_ts > my_ts)
                    .max_by_key(|&t| self.slots[t].eff_ts),
                PreventionPolicy::WaitDie => targets
                    .iter()
                    .any(|&t| self.slots[t].eff_ts < my_ts)
                    .then_some(requester),
            }
        };
        self.targets_scratch = targets;
        victim
    }

    #[cfg(test)]
    fn item_capacity(&self) -> usize {
        self.table.index_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wound_wait(slots: usize) -> Prevention {
        Prevention::new(PreventionPolicy::WoundWait, slots)
    }

    fn wait_die(slots: usize) -> Prevention {
        Prevention::new(PreventionPolicy::WaitDie, slots)
    }

    #[test]
    fn names_differ_by_policy() {
        assert_eq!(wound_wait(1).name(), "wound-wait");
        assert_eq!(wait_die(1).name(), "wait-die");
    }

    #[test]
    fn compatible_readers_never_fight() {
        for mut cc in [wound_wait(2), wait_die(2)] {
            cc.begin(0, 1);
            cc.begin(1, 2);
            assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
            assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
            assert_eq!(cc.deadlock_victim(1), None);
        }
    }

    #[test]
    fn wound_wait_older_wounds_younger_holder() {
        let mut cc = wound_wait(2);
        cc.begin(0, 10); // older
        cc.begin(1, 20); // younger
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), Some(1), "younger holder is wounded");
        // After the wound is executed (engine aborts 1), 0 is granted.
        let unblocked = cc.abort(1);
        assert_eq!(unblocked, vec![0]);
        assert_eq!(cc.deadlock_victim(0), None);
    }

    #[test]
    fn wound_wait_younger_waits_for_older() {
        let mut cc = wound_wait(2);
        cc.begin(0, 10); // older
        cc.begin(1, 20); // younger
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), None, "younger must simply wait");
        let unblocked = cc.commit(0);
        assert_eq!(unblocked, vec![1]);
    }

    #[test]
    fn wound_wait_kills_youngest_first() {
        let mut cc = wound_wait(3);
        cc.begin(0, 10);
        cc.begin(1, 20);
        cc.begin(2, 30);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(2, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), Some(2), "youngest blocker first");
        cc.abort(2);
        assert_eq!(cc.deadlock_victim(0), Some(1), "then the next one");
        let unblocked = cc.abort(1);
        assert_eq!(unblocked, vec![0]);
        assert_eq!(cc.deadlock_victim(0), None);
    }

    #[test]
    fn wait_die_younger_dies_on_older_holder() {
        let mut cc = wait_die(2);
        cc.begin(0, 10); // older
        cc.begin(1, 20); // younger
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), Some(1), "younger requester dies");
    }

    #[test]
    fn wait_die_older_waits_for_younger() {
        let mut cc = wait_die(2);
        cc.begin(0, 10); // older
        cc.begin(1, 20); // younger
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), None, "older waits");
        let unblocked = cc.commit(1);
        assert_eq!(unblocked, vec![0]);
    }

    #[test]
    fn wait_die_considers_queued_ahead_transactions() {
        // Item held by a young writer; an old waiter queues; a middle-aged
        // requester queues behind it. The middle one waits for the *old*
        // queued-ahead transaction, so wait-die kills the requester.
        let mut cc = wait_die(3);
        cc.begin(0, 30); // young holder
        cc.begin(1, 10); // oldest
        cc.begin(2, 20); // middle
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), None, "oldest waits for young holder");
        assert_eq!(cc.access(2, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(2), Some(2), "waits behind an older txn");
    }

    #[test]
    fn restart_preserves_priority() {
        let mut cc = wait_die(2);
        cc.begin(0, 10);
        cc.begin(1, 20);
        cc.access(0, 5, true);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), Some(1));
        cc.abort(1);
        // The engine restarts 1 with a fresh (larger) timestamp, but its
        // priority must stay 20 so it does not age backwards.
        cc.begin(1, 99);
        assert_eq!(cc.slots[1].eff_ts, 20);
        // After a commit the next begin adopts the fresh timestamp again.
        cc.commit(1);
        cc.begin(1, 100);
        assert_eq!(cc.slots[1].eff_ts, 100);
    }

    #[test]
    fn wound_wait_two_way_conflict_cannot_cycle() {
        // The classic deadlock shape: 0 and 1 each hold one item and
        // request the other's. Under wound-wait the older immediately
        // wounds the younger — no waiting cycle can form.
        let mut cc = wound_wait(2);
        cc.begin(0, 10);
        cc.begin(1, 20);
        assert_eq!(cc.access(0, 1, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 2, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 1, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), None, "younger waits for older");
        assert_eq!(cc.access(0, 2, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), Some(1), "older wounds the younger");
        let unblocked = cc.abort(1);
        assert_eq!(unblocked, vec![0], "wound resolves the would-be deadlock");
    }

    #[test]
    fn wait_die_two_way_conflict_cannot_cycle() {
        let mut cc = wait_die(2);
        cc.begin(0, 10);
        cc.begin(1, 20);
        assert_eq!(cc.access(0, 1, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 2, true), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 2, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), None, "older waits");
        assert_eq!(cc.access(1, 1, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), Some(1), "younger dies, cycle broken");
        let unblocked = cc.abort(1);
        assert_eq!(unblocked, vec![0]);
    }

    #[test]
    fn upgrade_conflict_resolves_under_both_policies() {
        // The conversion deadlock shape (two S holders both upgrading)
        // cannot wedge a prevention protocol: the priority rule kills one
        // side as soon as the second upgrade blocks.
        for policy in [PreventionPolicy::WoundWait, PreventionPolicy::WaitDie] {
            let mut cc = Prevention::new(policy, 2);
            cc.begin(0, 10); // older
            cc.begin(1, 20); // younger
            assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
            assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
            match policy {
                PreventionPolicy::WoundWait => {
                    // The older upgrader wounds the younger S holder.
                    assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked);
                    assert_eq!(cc.deadlock_victim(0), Some(1));
                    let unblocked = cc.abort(1);
                    assert_eq!(unblocked, vec![0], "upgrade granted after wound");
                }
                PreventionPolicy::WaitDie => {
                    // The younger upgrader dies on the older S holder.
                    assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
                    assert_eq!(cc.deadlock_victim(1), Some(1));
                    let unblocked = cc.abort(1);
                    assert_eq!(
                        unblocked,
                        Vec::<TxnId>::new(),
                        "sole holder 0 needs no grant"
                    );
                    // And the older upgrade now succeeds in place.
                    assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
                }
            }
        }
    }

    #[test]
    fn reset_clears_locks_and_pending_restarts() {
        let mut cc = wound_wait(2);
        cc.begin(0, 10);
        cc.access(0, 5, true);
        cc.abort(0); // would normally preserve priority across the rerun
        cc.reset();
        cc.begin(0, 99);
        assert_eq!(cc.slots[0].eff_ts, 99, "reset must clear restart_pending");
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
    }

    #[test]
    fn conflicts_count_blocks() {
        let mut cc = wound_wait(2);
        cc.begin(0, 10);
        cc.begin(1, 20);
        cc.access(0, 5, true);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Blocked);
        cc.commit(0);
        assert_eq!(cc.validate(1).conflicts, 1);
        assert!(cc.validate(1).ok);
    }

    #[test]
    fn wound_ignores_older_holders() {
        let mut cc = wound_wait(3);
        cc.begin(0, 20); // requester, middle age
        cc.begin(1, 10); // older holder
        cc.begin(2, 30); // younger holder
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(2, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), Some(2), "only the younger is wounded");
        cc.abort(2);
        assert_eq!(cc.deadlock_victim(0), None, "then 0 waits for the older");
    }
}

//! Strict two-phase locking with waits-for deadlock detection.
//!
//! The blocking CC class of §1: "Analytic models show [Tay et al., 1985]
//! that the mean number of blocked transactions b is a quadratic function
//! of the total number of transactions n" — the blocking route to
//! thrashing. Shared/exclusive locks are acquired at access time, held
//! until commit/abort (strictness), with FIFO queuing and lock upgrades
//! (the [`LockTable`](super::locktable) machinery shared with the
//! deadlock-prevention variants). A waits-for cycle found at block time is
//! broken by aborting the youngest transaction in the cycle (the paper's
//! §4.3 aside: "victim selection may be based on the same criteria as for
//! deadlock breaking").

use super::locktable::{LockTable, Mode, RequestOutcome};
use super::{AccessOutcome, ConcurrencyControl, TxnId, ValidateOutcome};

/// Strict 2PL.
pub struct TwoPhaseLocking {
    table: LockTable,
    ts: Vec<u64>,
    /// Reusable successor buffer for the waits-for DFS.
    succ_scratch: Vec<TxnId>,
    /// Reusable DFS stack (node ids, not paths — see `deadlock_victim`).
    dfs_stack: Vec<TxnId>,
    /// Per-slot visited stamp: a slot is visited in the current search
    /// iff its mark equals `dfs_epoch`. Bumping the epoch "clears" the
    /// whole array in O(1), so no per-call allocation or memset.
    dfs_mark: Vec<u64>,
    /// Per-slot DFS-tree parent, valid only when the mark is current.
    /// Walking parents from the cycle-closing node back to the requester
    /// reconstructs the path the old path-cloning DFS carried explicitly.
    dfs_parent: Vec<TxnId>,
    dfs_epoch: u64,
}

impl TwoPhaseLocking {
    /// Creates the protocol for `slots` transaction slots.
    pub fn new(slots: usize) -> Self {
        TwoPhaseLocking {
            table: LockTable::new(slots),
            ts: vec![0; slots], // alc-lint: allow(hot-alloc, reason="construction-time slot-table allocation")
            succ_scratch: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time scratch; retains capacity across calls")
            dfs_stack: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time scratch; retains capacity across calls")
            dfs_mark: vec![0; slots], // alc-lint: allow(hot-alloc, reason="construction-time slot-table allocation")
            dfs_parent: vec![0; slots], // alc-lint: allow(hot-alloc, reason="construction-time slot-table allocation")
            dfs_epoch: 0,
        }
    }

    /// Everyone `txn` currently waits for: the holders of the item it is
    /// queued on (conservative waits-for; queue-ahead conflicts resolve
    /// transitively through the holders). Replaces the contents of `out`.
    fn waits_for_into(table: &LockTable, txn: TxnId, out: &mut Vec<TxnId>) {
        out.clear();
        if let Some(item) = table.waiting_item(txn) {
            table.holders_into(item, out);
            out.retain(|&h| h != txn);
        }
    }

    /// Clears all lock state, retaining arena/queue capacity, for
    /// callers re-driving one protocol instance across runs.
    pub fn reset(&mut self) {
        self.table.reset();
        self.ts.fill(0);
    }

    /// Number of data items currently locked (table size), for tests.
    pub fn locked_items(&self) -> usize {
        self.table.locked_items()
    }
}

impl ConcurrencyControl for TwoPhaseLocking {
    fn name(&self) -> &'static str {
        "2pl"
    }

    fn begin(&mut self, txn: TxnId, ts: u64) {
        self.table.begin(txn);
        self.ts[txn] = ts;
    }

    fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome {
        let mode = if write { Mode::Exclusive } else { Mode::Shared };
        match self.table.request(txn, item, mode) {
            RequestOutcome::Granted => AccessOutcome::Granted,
            RequestOutcome::Queued => AccessOutcome::Blocked,
        }
    }

    fn validate(&mut self, txn: TxnId) -> ValidateOutcome {
        // 2PL serializes during execution; commit always succeeds. Lock
        // waits endured are this protocol's "conflicts".
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
        self.table.release_all_into(txn, unblocked);
    }

    fn abort_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>) {
        self.table.release_all_into(txn, unblocked);
    }

    fn deadlock_victim(&mut self, requester: TxnId) -> Option<TxnId> {
        // DFS over waits-for from the requester; a path back to the
        // requester is a cycle. Victim: youngest (largest ts) on the
        // cycle. Parent pointers over epoch-stamped per-slot buffers
        // replace the old per-node path clones + visited `HashSet`: the
        // DFS tree path from the cycle-closing node up to the requester
        // *is* the cycle, so nothing needs copying and a warmed-up
        // instance never touches the allocator here.
        let mut succs = std::mem::take(&mut self.succ_scratch);
        self.dfs_epoch += 1;
        self.dfs_stack.clear();
        self.dfs_stack.push(requester);
        self.dfs_parent[requester] = requester;
        let mut victim = None;
        'dfs: while let Some(node) = self.dfs_stack.pop() {
            Self::waits_for_into(&self.table, node, &mut succs);
            for &succ in &succs {
                if succ == requester {
                    // Walk node → … → requester. The old forward
                    // `max_by_key` kept the *last* maximal ts; walking
                    // the same path backwards, strict `>` keeps the
                    // *first* — the identical element.
                    let mut best = node;
                    let mut cur = node;
                    while cur != requester {
                        cur = self.dfs_parent[cur];
                        if self.ts[cur] > self.ts[best] {
                            best = cur;
                        }
                    }
                    victim = Some(best);
                    break 'dfs;
                }
                if self.dfs_mark[succ] != self.dfs_epoch {
                    self.dfs_mark[succ] = self.dfs_epoch;
                    self.dfs_parent[succ] = node;
                    self.dfs_stack.push(succ);
                }
            }
        }
        self.succ_scratch = succs;
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

    #[test]
    fn shared_locks_coexist() {
        let mut cc = TwoPhaseLocking::new(3);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
    }

    #[test]
    fn exclusive_blocks_reader_and_fifo_grants() {
        let mut cc = TwoPhaseLocking::new(3);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Blocked);
        let unblocked = cc.commit(0);
        assert_eq!(unblocked, vec![1]);
    }

    #[test]
    fn reader_blocks_writer() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let mut cc = TwoPhaseLocking::new(3);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.begin(2, 3);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        // A later reader must queue behind the waiting writer.
        assert_eq!(cc.access(2, 5, false), AccessOutcome::Blocked);
        let unblocked = cc.commit(0);
        assert_eq!(unblocked, vec![1], "writer first (FIFO)");
        let unblocked = cc.commit(1);
        assert_eq!(unblocked, vec![2], "then the queued reader");
    }

    #[test]
    fn reread_of_held_lock_is_free() {
        let mut cc = TwoPhaseLocking::new(1);
        cc.begin(0, 1);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        assert_eq!(cc.validate(0).conflicts, 0);
    }

    #[test]
    fn sole_holder_upgrades_in_place() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Granted);
        // And the X lock now blocks others.
        cc.begin(1, 2);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Blocked);
    }

    #[test]
    fn upgrade_with_other_readers_waits_at_front() {
        let mut cc = TwoPhaseLocking::new(3);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.begin(2, 3);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked); // upgrade
        assert_eq!(cc.access(2, 5, false), AccessOutcome::Blocked); // behind upgrade
        let unblocked = cc.commit(1);
        // Upgrade granted first, reader 2 still waits behind the X lock.
        assert_eq!(unblocked, vec![0]);
    }

    #[test]
    fn deadlock_detected_and_youngest_chosen() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1); // older
        cc.begin(1, 2); // younger
        assert_eq!(cc.access(0, 1, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 2, true), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 2, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), None, "no cycle yet");
        assert_eq!(cc.access(1, 1, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), Some(1), "youngest in cycle dies");
    }

    #[test]
    fn three_way_deadlock() {
        let mut cc = TwoPhaseLocking::new(3);
        for (i, ts) in [(0, 10), (1, 20), (2, 30)] {
            cc.begin(i, ts);
            assert_eq!(cc.access(i, i as u64, true), AccessOutcome::Granted);
        }
        assert_eq!(cc.access(0, 1, true), AccessOutcome::Blocked);
        assert_eq!(cc.access(1, 2, true), AccessOutcome::Blocked);
        assert_eq!(cc.access(2, 0, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(2), Some(2), "ts 30 is the youngest");
    }

    #[test]
    fn upgrade_deadlock_between_two_readers_is_detected() {
        // The classic conversion deadlock: both S holders request X; each
        // waits for the other holder to leave — a two-node cycle through
        // the holder set that the waits-for DFS must find.
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1); // older
        cc.begin(1, 2); // younger
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(0), None, "one upgrader just waits");
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.deadlock_victim(1), Some(1), "youngest upgrader dies");
        // The abort must let the survivor's upgrade through.
        let unblocked = cc.abort(1);
        assert_eq!(unblocked, vec![0]);
    }

    #[test]
    fn abort_releases_and_unblocks() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.access(0, 5, true);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        let unblocked = cc.abort(0);
        assert_eq!(unblocked, vec![1]);
        assert!(cc.validate(1).ok);
    }

    #[test]
    fn abort_of_waiter_cleans_queue() {
        let mut cc = TwoPhaseLocking::new(3);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.begin(2, 3);
        cc.access(0, 5, true);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.access(2, 5, true), AccessOutcome::Blocked);
        cc.abort(1); // waiter gives up
        let unblocked = cc.commit(0);
        assert_eq!(unblocked, vec![2], "queue must skip the dead waiter");
    }

    #[test]
    fn abort_of_queue_head_grants_successor_immediately() {
        // Holder is S; queue is [X, S]. Cancelling the X at the head makes
        // the queued reader compatible with the holder *right now* — it
        // must not have to wait for the holder's commit.
        let mut cc = TwoPhaseLocking::new(3);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.begin(2, 3);
        assert_eq!(cc.access(0, 5, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Blocked);
        assert_eq!(cc.access(2, 5, false), AccessOutcome::Blocked);
        let unblocked = cc.abort(1);
        assert_eq!(unblocked, vec![2], "reader grantable as soon as X head left");
    }

    #[test]
    fn conflicts_count_blocks() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.access(0, 5, true);
        cc.access(1, 5, false);
        cc.commit(0);
        assert_eq!(cc.validate(1).conflicts, 1);
    }

    #[test]
    fn table_shrinks_when_unused() {
        let mut cc = TwoPhaseLocking::new(1);
        cc.begin(0, 1);
        cc.access(0, 5, true);
        cc.access(0, 6, false);
        assert_eq!(cc.locked_items(), 2);
        cc.commit(0);
        assert_eq!(cc.locked_items(), 0, "entries must be reclaimed");
    }

    #[test]
    fn reset_clears_locks_for_replicate_runs() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1);
        cc.access(0, 5, true);
        cc.reset();
        assert_eq!(cc.locked_items(), 0);
        cc.begin(1, 2);
        assert_eq!(cc.access(1, 5, true), AccessOutcome::Granted);
    }

    #[test]
    fn strictness_holds_locks_until_commit() {
        let mut cc = TwoPhaseLocking::new(2);
        cc.begin(0, 1);
        cc.begin(1, 2);
        cc.access(0, 5, true);
        cc.validate(0); // validation alone must NOT release
        assert_eq!(cc.access(1, 5, false), AccessOutcome::Blocked);
        cc.commit(0);
    }
}

//! Multiversion timestamp ordering (MVTO).
//!
//! The multiversion member of §1's non-blocking class (Bernstein et al.
//! 1987 §5): every committed write of item `x` creates a new *version*
//! stamped with its writer's timestamp. A reader with timestamp `ts`
//! reads the youngest committed version not younger than itself
//! (`max wts ≤ ts`) and records its read timestamp on that version.
//! Reads therefore never block and never abort (unless their snapshot has
//! been garbage-collected); only writers can be rejected — a write by
//! `ts` must abort if some younger transaction already read the version
//! the write would have superseded (`max_rts > ts` on the version
//! preceding the write's slot).
//!
//! This implementation uses the *commit-time install* variant: writes are
//! buffered privately and versions are installed atomically at commit, so
//! readers only ever see committed data (recoverability for free). The
//! write check runs twice — optimistically at access time (early abort)
//! and authoritatively at validation.
//!
//! A chain keeps only the versions a live or future run can still read
//! (the horizon trim below), and at most `max_versions` of them; a reader
//! whose snapshot predates the oldest retained version aborts with a
//! "snapshot too old" outcome, exactly like the error real multiversion
//! systems raise.
//!
//! # The version store: one arena, contiguous chains
//!
//! Every version of every item lives in one `Vec<Version>`. An item's
//! chain is a contiguous block of it, ascending by `wts`, named by an
//! 8-byte header (offset and length) in an [`ItemTable`]. Blocks come in
//! power-of-two sizes, and a chain always sits in the smallest that holds
//! it: an install that takes it across a power of two, up by the new
//! version or down by a trim, moves it to a block of its new size and
//! leaves the old one on a per-size free list, from which the next chain
//! to need that size takes it. Nothing is allocated per item, and once the
//! chains' lengths and the table's capacity have settled, the free lists
//! serve every move and nothing allocates. Chains stay slices, so
//! visibility is an `rposition` and the install point a
//! `partition_point`, as they would be over a `Vec` per item.
//!
//! # The horizon trim
//!
//! Let the *horizon* be the oldest live timestamp. Every live run is at
//! least that old, and every future run is younger than every current
//! one: the engine takes run timestamps from one increasing counter. So
//! for any `H` at or below the horizon, every live or future run has
//! `ts ≥ H`, and its reads and write checks only ever see the newest
//! version with `wts ≤ H` or a younger one. The versions older than that
//! one go: an install that would grow the chain's block or pass the
//! retention bound first drops them. `H` is the oldest live timestamp
//! when it was last read, which stays a lower bound while runs end and
//! younger ones begin. It is read again, one pass over the slots, only
//! when the trim with the cached value frees nothing and a slot's worth
//! of installs has passed since the last pass, so no access and no
//! install pays O(slots).
//!
//! The trim cannot be observed. A run at `ts ≥ H` finds the same visible
//! version in the trimmed chain as in the untrimmed one, with the same
//! `max_rts`, and a writer's version lands behind it in both. The
//! retention bound still drops the oldest version when all
//! `max_versions` are readable, and then the two chains are the same
//! suffix; while the untrimmed chain still holds versions in front of the
//! newest one with `wts ≤ H`, the bound drops one of those, which the
//! trimmed chain no longer has.
//!
//! In the `engine-protocols` benchmark's `multiversion.highconflict` cell
//! (4,000 items, 400 terminals) the chains end holding 8,620 versions, of
//! which 4,008 are readable, in an arena of 10,947; under the bound alone
//! they held 64,000 in 95,995.
//!
//! # Dead chains
//!
//! The header table holds the chains a live run can still tell apart from
//! an untouched item; a sweep drops the rest and hands their blocks back
//! to the free lists. A chain is dead when its newest version has both
//! `wts` and `max_rts` below the horizon. (The newest version is the only
//! one to look at: an older version is read only by timestamps below its
//! successor's `wts`, so its `max_rts` is below the newest `wts`.) For
//! any `ts ≥ horizon` such a chain behaves exactly like the implicit
//! `[INITIAL]`: the visible version is the newest one, a read of it is
//! granted, a write over it is permitted (`max_rts ≤ ts`), and the
//! `max_rts` a read leaves is `ts` either way. A chain swept between a
//! writer's access and its commit comes back as `[INITIAL]` at install.
//!
//! The trim and the bound prune the rebuilt chain the same way too. Every
//! version installed after the sweep is younger than the dropped chain's
//! newest (its writer was live, so at least the horizon). Against the
//! chain that was never swept, the rebuilt one differs only in what sits
//! below all of them: a tail of old versions there, the lone `INITIAL`
//! here. Both serve any `ts ≥ horizon` the same way, and the trim and the
//! bound drop from either only what sits below that, until young versions
//! are all that is left in both. One thing does change: a read of a
//! rebuilt chain records `wts` 0 in [`Mvto::reads_of`], which stands for
//! "a version older than every live run".
//!
//! Tried and dropped: that `Vec` per item (24 B of header each, a `malloc`
//! on the first touch of an item, a read included; on a sparsely touched
//! database of 10⁶ items the run cost 1.7× that of timestamp ordering,
//! which walks the same kind of table, dropping the store took 138 ms and
//! the 6·10⁵ live blocks set the whole benchmark's peak RSS); a singly
//! linked, newest-first node list in one arena, which fixed that case and
//! lost everywhere chains are long: reads of a saturated 16-version chain
//! became pointer walks (52–60 → 175–180 ns a deep read, 147–151 →
//! 258–266 ns a begin/access/commit cycle); and a direct-indexed,
//! db-sized header table, which gave every item a header and reserved it
//! a version (the 10⁶-item `lowconflict` benchmark cell peaked at 23.4 MB
//! resident against 3.5 MB with the sweep, for a few thousand live
//! chains) and could not run a 10¹²-item database at all.

use super::item_table::ItemTable;
use super::{AccessOutcome, ConcurrencyControl, TxnId, ValidateOutcome};

/// Free-list terminator.
const NIL: u32 = u32::MAX;

/// Timestamp of a slot with no live run: it bounds no horizon.
const IDLE: u64 = u64::MAX;

/// One committed version of an item.
#[derive(Debug, Clone, Copy)]
struct Version {
    /// Writer's timestamp. In a block on a free list: the offset of the
    /// next free block of its class.
    wts: u64,
    /// Largest timestamp that read this version.
    max_rts: u64,
}

/// The version every item starts with.
const INITIAL: Version = Version { wts: 0, max_rts: 0 };

/// Where an item's chain lives in the arena: `len` versions, ascending by
/// `wts`, from `off` on. `len == 0`: not in the table, so only the
/// implicit [`INITIAL`] version exists and `off` means nothing. The block
/// is always the smallest that holds the chain, `len.next_power_of_two()`
/// versions: an install that takes a chain across a power of two, up by
/// its new version or down by a trim, moves it to a block of the new
/// size. So the header need not name its block's class.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    off: u32,
    len: u32,
}

#[derive(Debug, Clone)]
struct Slot {
    /// The run's timestamp; [`IDLE`] between runs.
    ts: u64,
    /// `(item, wts of the version read)` in access order.
    reads: Vec<(u64, u64)>,
    /// Buffered write intents.
    writes: Vec<u64>,
    /// Read-invalidation conflicts charged to this run.
    conflicts: u64,
}

/// Every version of every chain: power-of-two blocks, handed out from
/// the end of the arena or from the free lists.
struct Blocks {
    arena: Vec<Version>,
    /// Per size class (blocks of `1 << class` versions), the offset of the
    /// first free block; the blocks chain through their first `wts`.
    free: [u32; 32],
}

impl Blocks {
    /// The versions of `chain`.
    fn of(&self, chain: Chain) -> &[Version] {
        &self.arena[chain.off as usize..][..chain.len as usize]
    }

    /// Hands out a block of `1 << class` versions: the one freed last, or
    /// fresh room at the end of the arena.
    fn take(&mut self, class: u32) -> u32 {
        let head = self.free[class as usize];
        if head != NIL {
            self.free[class as usize] = self.arena[head as usize].wts as u32;
            return head;
        }
        let off = self.arena.len();
        assert!(off + (1 << class) <= NIL as usize, "version arena overflow");
        self.arena.resize(off + (1 << class), INITIAL);
        off as u32
    }

    /// Puts the block of `1 << class` versions at `off` on its free list.
    fn give_back(&mut self, off: u32, class: u32) {
        self.arena[off as usize].wts = u64::from(self.free[class as usize]);
        self.free[class as usize] = off;
    }

    /// Gives the block of `chain` back if the chain is dead under
    /// `horizon` (see the module doc), and says whether it was.
    fn release_if_dead(&mut self, chain: Chain, horizon: u64) -> bool {
        let newest = self.arena[(chain.off + chain.len - 1) as usize];
        let dead = newest.wts < horizon && newest.max_rts < horizon;
        if dead {
            self.give_back(chain.off, class(chain.len as usize));
        }
        dead
    }
}

/// The size class of the block that holds a chain of `len` versions.
fn class(len: usize) -> u32 {
    len.next_power_of_two().trailing_zeros()
}

/// The oldest live run's timestamp; [`IDLE`] if none is live.
fn oldest_live(slots: &[Slot]) -> u64 {
    slots.iter().map(|s| s.ts).min().unwrap_or(IDLE)
}

/// Multiversion timestamp ordering with commit-time version install.
pub struct Mvto {
    /// Chain headers of the items live runs can tell from untouched ones.
    store: ItemTable<Chain>,
    blocks: Blocks,
    slots: Vec<Slot>,
    max_versions: usize,
    /// A lower bound on the timestamp of every live and future run: the
    /// oldest live timestamp when it was last read (see the module doc).
    horizon: u64,
    /// Installs since `horizon` was last read.
    stale: usize,
}

impl Mvto {
    /// Default bound on retained versions per item.
    const DEFAULT_MAX_VERSIONS: usize = 16;

    /// Creates the protocol for `slots` transaction slots with the
    /// default version-retention bound.
    pub fn new(slots: usize) -> Self {
        Self::with_max_versions(slots, Self::DEFAULT_MAX_VERSIONS)
    }

    /// Creates the protocol retaining at most `max_versions` committed
    /// versions per item (≥ 1).
    pub fn with_max_versions(slots: usize, max_versions: usize) -> Self {
        Self::with_table(slots, max_versions, ItemTable::new())
    }

    /// The protocol over a header table of `capacity` slots, so tests can
    /// make it sweep every few operations.
    #[cfg(test)]
    fn with_capacity(slots: usize, max_versions: usize, capacity: usize) -> Self {
        Self::with_table(slots, max_versions, ItemTable::with_capacity(capacity))
    }

    fn with_table(slots: usize, max_versions: usize, store: ItemTable<Chain>) -> Self {
        assert!(max_versions >= 1, "at least one version must be retained");
        assert!(max_versions <= 1 << 31, "a chain must fit a size class");
        let idle = Slot {
            ts: IDLE,
            reads: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time slot template; empty Vec::new is allocation-free")
            writes: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time slot template; empty Vec::new is allocation-free")
            conflicts: 0,
        };
        Mvto {
            store,
            blocks: Blocks {
                arena: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time arena; grows while chains grow to the retention bound during warm-up")
                free: [NIL; 32],
            },
            slots: vec![idle; slots], // alc-lint: allow(hot-alloc, reason="construction-time slot-table allocation")
            max_versions,
            horizon: 0,
            stale: 0,
        }
    }

    /// The reads `txn` has performed in its current run, as
    /// `(item, wts of the version read)` pairs. A `wts` of 0 is the
    /// initial version, or a version older than every run live at the
    /// read whose chain a sweep has dropped (see the module doc).
    pub fn reads_of(&self, txn: TxnId) -> &[(u64, u64)] {
        &self.slots[txn].reads
    }

    /// The write intents `txn` has buffered in its current run.
    pub fn writes_of(&self, txn: TxnId) -> &[u64] {
        &self.slots[txn].writes
    }

    /// The chain header of `item` in one probe, its initial version
    /// materialized if the table has no chain for it (never touched, or
    /// swept): a read has to leave its timestamp somewhere, and an
    /// install needs a chain to go into.
    fn header<'a>(
        store: &'a mut ItemTable<Chain>,
        blocks: &mut Blocks,
        slots: &[Slot],
        item: u64,
    ) -> &'a mut Chain {
        let chain = store.entry(
            item,
            || oldest_live(slots),
            |&c, h| blocks.release_if_dead(c, h),
        );
        if chain.len == 0 {
            let off = blocks.take(0);
            blocks.arena[off as usize] = INITIAL;
            *chain = Chain { off, len: 1 };
        }
        chain
    }

    /// The chain of `item`, materialized.
    fn chain(&mut self, item: u64) -> &mut [Version] {
        let Mvto {
            store,
            blocks,
            slots,
            ..
        } = self;
        let Chain { off, len } = *Self::header(store, blocks, slots, item);
        &mut blocks.arena[off as usize..][..len as usize]
    }

    /// The committed chain of `item`, without touching it.
    fn committed(&self, item: u64) -> &[Version] {
        match self.store.get(item) {
            chain if chain.len > 0 => self.blocks.of(chain),
            _ => &[INITIAL],
        }
    }

    /// Installs `version` in the chain of `item`, in `wts` order (it may
    /// land *behind* younger committed versions: interval insert). An
    /// install that would fill the chain's block past its size or the
    /// chain past the retention bound first trims the chain at the
    /// horizon; if that frees nothing, the block grows or the bound drops
    /// the oldest version.
    fn install(&mut self, item: u64, version: Version) {
        let Mvto {
            store,
            blocks,
            slots,
            max_versions,
            horizon,
            stale,
        } = self;
        let header = Self::header(store, blocks, slots, item);
        let (off, len) = (header.off as usize, header.len as usize);
        let chain = blocks.of(*header);
        let pos = chain.partition_point(|v| v.wts <= version.wts);
        debug_assert!(
            pos == 0 || chain[pos - 1].wts < version.wts,
            "duplicate write timestamp {}",
            version.wts
        );
        *stale += 1;
        // The versions in front of `drop` go.
        let mut drop = 0;
        if len == *max_versions || len.is_power_of_two() {
            drop = Self::visible_index(chain, *horizon).unwrap_or(0);
            if drop == 0 && len > 1 && *stale >= slots.len() {
                // The committing run is live, so this is no `IDLE`.
                *horizon = oldest_live(slots);
                *stale = 0;
                drop = Self::visible_index(chain, *horizon).unwrap_or(0);
            }
            debug_assert!(drop == 0 || drop < pos, "a write below the horizon");
            // Still full: the oldest version goes, which may be the new one.
            drop = drop.max((len + 1).saturating_sub(*max_versions));
            if pos < drop {
                return;
            }
        }
        let n = len + 1 - drop;
        let (from, to) = (class(len), class(n));
        let dest = if to == from {
            off
        } else {
            blocks.take(to) as usize
        };
        blocks.arena.copy_within(off + drop..off + pos, dest);
        blocks
            .arena
            .copy_within(off + pos..off + len, dest + pos - drop + 1);
        blocks.arena[dest + pos - drop] = version;
        if to != from {
            blocks.give_back(off as u32, from);
        }
        *header = Chain {
            off: dest as u32,
            len: n as u32,
        };
    }

    /// Index of the youngest version with `wts ≤ ts`, or `None` when the
    /// snapshot has been pruned away.
    fn visible_index(chain: &[Version], ts: u64) -> Option<usize> {
        chain.iter().rposition(|v| v.wts <= ts)
    }

    /// The write rule: `ts` may write `item` iff nobody younger has read
    /// the version the write would supersede.
    fn write_permitted(chain: &[Version], ts: u64) -> bool {
        match Self::visible_index(chain, ts) {
            Some(i) => chain[i].max_rts <= ts,
            // Snapshot pruned: the write would slot below the retention
            // horizon where reads can no longer be tracked.
            None => false,
        }
    }
}

impl ConcurrencyControl for Mvto {
    fn begin(&mut self, txn: TxnId, ts: u64) {
        let slot = &mut self.slots[txn];
        slot.ts = ts;
        slot.reads.clear();
        slot.writes.clear();
        slot.conflicts = 0;
    }

    fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome {
        let ts = self.slots[txn].ts;
        let chain = self.chain(item);
        if write {
            if !Self::write_permitted(chain, ts) {
                self.slots[txn].conflicts += 1;
                return AccessOutcome::Abort;
            }
            // Repeated writes to one item collapse into a single version.
            if !self.slots[txn].writes.contains(&item) {
                self.slots[txn].writes.push(item);
            }
            AccessOutcome::Granted
        } else {
            match Self::visible_index(chain, ts) {
                Some(i) => {
                    chain[i].max_rts = chain[i].max_rts.max(ts);
                    let wts = chain[i].wts;
                    self.slots[txn].reads.push((item, wts));
                    AccessOutcome::Granted
                }
                None => {
                    // Snapshot too old: every version ≤ ts was pruned.
                    self.slots[txn].conflicts += 1;
                    AccessOutcome::Abort
                }
            }
        }
    }

    fn validate(&mut self, txn: TxnId) -> ValidateOutcome {
        let ts = self.slots[txn].ts;
        let mut failed = 0u64;
        for &item in &self.slots[txn].writes {
            if !Self::write_permitted(self.committed(item), ts) {
                failed += 1;
            }
        }
        self.slots[txn].conflicts += failed;
        ValidateOutcome {
            ok: failed == 0,
            conflicts: self.slots[txn].conflicts,
        }
    }

    fn commit_into(&mut self, txn: TxnId, unblocked: &mut Vec<TxnId>) {
        let ts = self.slots[txn].ts;
        // Move the write list out to satisfy the borrow checker, then
        // restore the (cleared) buffer to keep its allocation.
        let mut writes = std::mem::take(&mut self.slots[txn].writes);
        for &item in &writes {
            self.install(
                item,
                Version {
                    wts: ts,
                    max_rts: ts,
                },
            );
        }
        writes.clear();
        self.slots[txn].writes = writes;
        // The run is over: the rest is an abort's bookkeeping.
        self.abort_into(txn, unblocked);
    }

    fn abort_into(&mut self, txn: TxnId, _unblocked: &mut Vec<TxnId>) {
        let slot = &mut self.slots[txn];
        slot.ts = IDLE;
        slot.reads.clear();
        slot.writes.clear();
    }

    fn deadlock_victim(&mut self, _requester: TxnId) -> Option<TxnId> {
        None // nothing ever blocks
    }

    #[cfg(test)]
    fn item_capacity(&self) -> usize {
        self.store.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_block_and_see_initial_version() {
        let mut cc = Mvto::new(2);
        cc.begin(0, 5);
        assert_eq!(cc.access(0, 7, false), AccessOutcome::Granted);
        assert_eq!(cc.reads_of(0), &[(7, 0)]);
    }

    #[test]
    fn reader_sees_latest_committed_version_not_younger() {
        let mut cc = Mvto::new(3);
        cc.begin(0, 10);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(0).ok);
        cc.commit(0);
        cc.begin(1, 20);
        assert_eq!(cc.access(1, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(1).ok);
        cc.commit(1);
        // A reader between the two writers sees version 10, not 20.
        cc.begin(2, 15);
        assert_eq!(cc.access(2, 7, false), AccessOutcome::Granted);
        assert_eq!(cc.reads_of(2), &[(7, 10)]);
    }

    #[test]
    fn younger_read_invalidates_older_write_at_validate() {
        let mut cc = Mvto::new(2);
        cc.begin(0, 10); // older writer
        cc.begin(1, 20); // younger reader
        assert_eq!(cc.access(1, 7, false), AccessOutcome::Granted); // reads v0
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Abort, "early check");
        // Had the write been buffered before the read, validation catches it.
        let mut cc = Mvto::new(2);
        cc.begin(0, 10);
        cc.begin(1, 20);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 7, false), AccessOutcome::Granted);
        let v = cc.validate(0);
        assert!(!v.ok, "commit would invalidate the younger read");
        assert_eq!(v.conflicts, 1);
    }

    #[test]
    fn older_read_does_not_disturb_younger_write() {
        let mut cc = Mvto::new(2);
        cc.begin(0, 10); // older reader
        cc.begin(1, 20); // younger writer
        assert_eq!(cc.access(0, 7, false), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(1).ok, "rts 10 < wts 20 is harmless");
        cc.commit(1);
        // And the old reader still sees v0 on a re-read.
        assert_eq!(cc.access(0, 7, false), AccessOutcome::Granted);
        assert_eq!(cc.reads_of(0), &[(7, 0), (7, 0)]);
    }

    #[test]
    fn interval_insert_behind_younger_version() {
        // A younger writer commits first; the older writer then slots its
        // version *behind* — both serialize in timestamp order.
        let mut cc = Mvto::new(3);
        cc.begin(1, 20);
        assert_eq!(cc.access(1, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(1).ok);
        cc.commit(1);
        cc.begin(0, 10);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(0).ok);
        cc.commit(0);
        // Readers at 15 and 25 see the respective versions.
        cc.begin(2, 15);
        cc.access(2, 7, false);
        assert_eq!(cc.reads_of(2), &[(7, 10)]);
        cc.begin(2, 25);
        cc.access(2, 7, false);
        assert_eq!(cc.reads_of(2), &[(7, 20)]);
    }

    #[test]
    fn write_write_without_reads_is_harmless() {
        let mut cc = Mvto::new(2);
        cc.begin(0, 10);
        cc.begin(1, 20);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
        assert_eq!(cc.access(1, 7, true), AccessOutcome::Granted);
        assert!(cc.validate(1).ok);
        cc.commit(1);
        assert!(cc.validate(0).ok, "blind write behind a blind write is fine");
        cc.commit(0);
        assert_eq!(cc.committed(7).len(), 3); // v0, v10, v20
    }

    #[test]
    fn own_write_then_read_sees_committed_state_only() {
        // The commit-time install variant buffers writes privately; a
        // re-read within the same run still sees the committed snapshot.
        let mut cc = Mvto::new(1);
        cc.begin(0, 10);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
        assert_eq!(cc.access(0, 7, false), AccessOutcome::Granted);
        assert_eq!(cc.reads_of(0), &[(7, 0)]);
    }

    #[test]
    fn abort_discards_buffered_writes() {
        let mut cc = Mvto::new(2);
        cc.begin(0, 10);
        cc.access(0, 7, true);
        cc.abort(0);
        assert_eq!(cc.committed(7).len(), 1, "nothing installed");
        cc.begin(1, 20);
        cc.access(1, 7, false);
        assert_eq!(cc.reads_of(1), &[(7, 0)]);
    }

    #[test]
    fn gc_caps_version_chains() {
        let mut cc = Mvto::with_max_versions(2, 4);
        // A live old run holds the horizon, so only the bound prunes.
        cc.begin(1, 1);
        for ts in 2..=11u64 {
            cc.begin(0, ts);
            assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
            assert!(cc.validate(0).ok);
            cc.commit(0);
        }
        assert_eq!(cc.committed(7).len(), 4);
    }

    #[test]
    fn pruned_snapshot_aborts_old_reader() {
        let mut cc = Mvto::with_max_versions(3, 2);
        // A live old run holds the horizon below every version.
        cc.begin(2, 5);
        for ts in [10u64, 20, 30] {
            cc.begin(0, ts);
            cc.access(0, 7, true);
            assert!(cc.validate(0).ok);
            cc.commit(0);
        }
        // Versions 20 and 30 retained; a reader at 15 predates both.
        cc.begin(1, 15);
        assert_eq!(cc.access(1, 7, false), AccessOutcome::Abort);
        // A writer at 15 is likewise below the retention horizon.
        cc.begin(1, 15);
        assert_eq!(cc.access(1, 7, true), AccessOutcome::Abort);
        // The old run itself reads nothing it could.
        assert_eq!(cc.access(2, 7, false), AccessOutcome::Abort);
    }

    #[test]
    fn never_names_deadlock_victims() {
        let mut cc = Mvto::new(2);
        cc.begin(0, 1);
        assert_eq!(cc.deadlock_victim(0), None);
    }

    #[test]
    fn conflicts_are_reported_per_run() {
        let mut cc = Mvto::new(2);
        cc.begin(1, 20);
        cc.access(1, 7, false);
        cc.begin(0, 10);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Abort);
        // The engine aborts and restarts with a fresh ts; counters reset.
        cc.abort(0);
        cc.begin(0, 30);
        assert_eq!(cc.access(0, 7, true), AccessOutcome::Granted);
        let v = cc.validate(0);
        assert!(v.ok);
        assert_eq!(v.conflicts, 0);
    }

    /// One committed write of `item` at `ts`.
    fn write(cc: &mut Mvto, item: u64, ts: u64) {
        cc.begin(0, ts);
        assert_eq!(cc.access(0, item, true), AccessOutcome::Granted);
        assert!(cc.validate(0).ok);
        cc.commit(0);
    }

    /// A chain that outgrows its block leaves it to the next chain that
    /// needs one of that size: the arena grows only when no freed block
    /// fits.
    #[test]
    fn freed_blocks_are_handed_out_again() {
        let mut cc = Mvto::with_max_versions(2, 4);
        // A live old run holds the horizon, so no chain is trimmed.
        cc.begin(1, 5);
        for ts in [10, 20, 30] {
            write(&mut cc, 0, ts);
        }
        // Item 0 went through blocks of 1, 2 and 4 versions.
        assert_eq!((cc.committed(0).len(), cc.blocks.arena.len()), (4, 7));
        // Item 1 takes the freed block of 1, then trades it for the freed
        // block of 2; item 2 picks the block of 1 up again.
        cc.begin(0, 40);
        assert_eq!(cc.access(0, 1, false), AccessOutcome::Granted);
        write(&mut cc, 1, 50);
        cc.begin(0, 60);
        assert_eq!(cc.access(0, 2, false), AccessOutcome::Granted);
        assert_eq!(
            cc.blocks.arena.len(),
            7,
            "three chains in the room one grew through"
        );
        assert_eq!(cc.reads_of(0), &[(2, 0)]);
        // Nothing moved under the readers' feet.
        cc.begin(0, 25);
        cc.access(0, 0, false);
        cc.access(0, 1, false);
        assert_eq!(cc.reads_of(0), &[(0, 20), (1, 0)]);
        // Only a chain that finds no freed block of its size takes new room.
        write(&mut cc, 2, 70);
        assert_eq!(cc.blocks.arena.len(), 9);
    }

    /// With no old run holding the horizon back, a long stream of runs
    /// keeps each chain to about the versions live runs can read, so the
    /// arena stays within a small multiple of the chains, where the
    /// retention bound alone fills 16-version blocks. The table is large
    /// enough never to sweep: the trim is the only collection.
    #[test]
    fn trimmed_chains_stay_short() {
        const ITEMS: u64 = 3_000;
        const SLOTS: usize = 4;
        let mut cc = Mvto::with_capacity(SLOTS, 16, 1 << 13);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut ts = 0;
        for txn in (0..SLOTS).cycle().take(200_000) {
            // The run in `txn`, if any, is the oldest live one: it ends
            // first.
            if cc.slots[txn].ts != IDLE {
                if cc.validate(txn).ok {
                    cc.commit(txn);
                } else {
                    cc.abort(txn);
                }
            }
            ts += 1;
            cc.begin(txn, ts);
            for _ in 0..4 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if cc.access(txn, x % ITEMS, x >> 32 & 1 == 0) == AccessOutcome::Abort {
                    cc.abort(txn);
                    break;
                }
            }
        }
        let chains = cc.store.len();
        assert_eq!((chains, cc.store.capacity()), (ITEMS as usize, 1 << 13));
        assert!(
            cc.blocks.arena.len() < 4 * chains,
            "{} versions of room for {chains} chains",
            cc.blocks.arena.len()
        );
    }

    /// The arena against the store it replaced, one `Vec` per item, on a
    /// stream of reads and writes whose timestamps run ahead, behind
    /// (interval inserts) and below the retention horizon, over retention
    /// bounds on and between the block sizes: every outcome and, after
    /// every step, the touched chain must be the same.
    #[test]
    fn arena_matches_a_vec_per_item() {
        const ITEMS: u64 = 24;
        for max_versions in [1, 2, 3, 5, 16] {
            let mut cc = Mvto::with_max_versions(2, max_versions);
            // A live old run holds the horizon below every timestamp
            // here, so no chain is trimmed.
            cc.begin(1, 1);
            let mut reference: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ITEMS as usize];
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for step in 0..6_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (item, write) = (x % ITEMS, x >> 8 & 3 != 0);
                // Unique, and up to 64 steps behind the newest.
                let ts = (step + 64 - (x >> 16) % 64) * 8192 + step;
                let chain = &mut reference[item as usize];
                if chain.is_empty() {
                    chain.push((0, 0));
                }
                let visible = chain.iter().rposition(|v| v.0 <= ts);
                let expect = match visible {
                    Some(i) if !write => {
                        chain[i].1 = chain[i].1.max(ts);
                        AccessOutcome::Granted
                    }
                    Some(i) if chain[i].1 <= ts => {
                        chain.insert(i + 1, (ts, ts));
                        if chain.len() > max_versions {
                            chain.remove(0);
                        }
                        AccessOutcome::Granted
                    }
                    _ => AccessOutcome::Abort,
                };
                cc.begin(0, ts);
                assert_eq!(cc.access(0, item, write), expect, "step {step}");
                if write && expect == AccessOutcome::Granted {
                    assert!(cc.validate(0).ok, "step {step}");
                    cc.commit(0);
                } else {
                    cc.abort(0);
                }
                let got: Vec<_> = cc
                    .committed(item)
                    .iter()
                    .map(|v| (v.wts, v.max_rts))
                    .collect();
                assert_eq!(
                    &got, chain,
                    "step {step}, item {item}, retaining {max_versions}"
                );
            }
            let block = max_versions.next_power_of_two();
            assert!(
                cc.blocks.arena.len() < ITEMS as usize * 2 * block,
                "{} versions of room for {ITEMS} chains of {max_versions}",
                cc.blocks.arena.len()
            );
        }
    }

    /// The direct-indexed header table this protocol replaced, kept as
    /// the reference model of the differential test below: a header per
    /// item ever touched, every chain kept for good.
    mod reference {
        use crate::cc::{AccessOutcome, ConcurrencyControl, TxnId, ValidateOutcome};

        const NIL: u32 = u32::MAX;

        #[derive(Debug, Clone, Copy)]
        struct Version {
            wts: u64,
            max_rts: u64,
        }

        const INITIAL: Version = Version { wts: 0, max_rts: 0 };

        #[derive(Debug, Clone, Copy, Default)]
        struct Chain {
            off: u32,
            len: u32,
        }

        #[derive(Debug, Clone, Default)]
        struct Slot {
            ts: u64,
            reads: Vec<(u64, u64)>,
            writes: Vec<u64>,
            conflicts: u64,
        }

        pub(super) struct Mvto {
            store: Vec<Chain>,
            arena: Vec<Version>,
            free: [u32; 32],
            slots: Vec<Slot>,
            max_versions: usize,
        }

        impl Mvto {
            pub(super) fn with_max_versions(slots: usize, max_versions: usize) -> Self {
                assert!(max_versions >= 1, "at least one version must be retained");
                assert!(max_versions <= 1 << 31, "a chain must fit a size class");
                Mvto {
                    store: Vec::new(),
                    arena: Vec::new(),
                    free: [NIL; 32],
                    slots: vec![Slot::default(); slots],
                    max_versions,
                }
            }

            pub(super) fn arena_len(&self) -> usize {
                self.arena.len()
            }

            pub(super) fn reads_of(&self, txn: TxnId) -> &[(u64, u64)] {
                &self.slots[txn].reads
            }

            pub(super) fn versions_of(&self, item: u64) -> usize {
                self.committed(item).len()
            }

            fn chain(&mut self, item: u64) -> &mut [Version] {
                let i = item as usize;
                if i >= self.store.len() {
                    self.store.resize(i + 1, Chain::default());
                }
                if self.store[i].len == 0 {
                    let off = self.take_block(0);
                    self.arena[off as usize] = INITIAL;
                    self.store[i] = Chain { off, len: 1 };
                }
                let Chain { off, len } = self.store[i];
                &mut self.arena[off as usize..][..len as usize]
            }

            fn committed(&self, item: u64) -> &[Version] {
                match self.store.get(item as usize) {
                    Some(&Chain { off, len }) if len > 0 => {
                        &self.arena[off as usize..][..len as usize]
                    }
                    _ => &[INITIAL],
                }
            }

            fn take_block(&mut self, class: u32) -> u32 {
                let head = self.free[class as usize];
                if head != NIL {
                    self.free[class as usize] = self.arena[head as usize].wts as u32;
                    return head;
                }
                let off = self.arena.len();
                assert!(off + (1 << class) <= NIL as usize, "version arena overflow");
                self.arena.resize(off + (1 << class), INITIAL);
                off as u32
            }

            fn install(&mut self, item: u64, version: Version) {
                let Chain { mut off, len } = self.store[item as usize];
                debug_assert!(len > 0, "install into a chain no access materialized");
                let len = len as usize;
                let chain = &self.arena[off as usize..][..len];
                let pos = chain.partition_point(|v| v.wts <= version.wts);
                debug_assert!(
                    pos == 0 || chain[pos - 1].wts < version.wts,
                    "duplicate write timestamp {}",
                    version.wts
                );
                if len == self.max_versions {
                    if pos > 0 {
                        let chain = &mut self.arena[off as usize..][..len];
                        chain.copy_within(1..pos, 0);
                        chain[pos - 1] = version;
                    }
                    return;
                }
                if len.is_power_of_two() {
                    let class = len.trailing_zeros();
                    let old = off as usize;
                    off = self.take_block(class + 1);
                    self.arena.copy_within(old..old + len, off as usize);
                    self.arena[old].wts = u64::from(self.free[class as usize]);
                    self.free[class as usize] = old as u32;
                }
                let chain = &mut self.arena[off as usize..][..len + 1];
                chain.copy_within(pos..len, pos + 1);
                chain[pos] = version;
                self.store[item as usize] = Chain {
                    off,
                    len: len as u32 + 1,
                };
            }

            fn visible_index(chain: &[Version], ts: u64) -> Option<usize> {
                chain.iter().rposition(|v| v.wts <= ts)
            }

            fn write_permitted(chain: &[Version], ts: u64) -> bool {
                match Self::visible_index(chain, ts) {
                    Some(i) => chain[i].max_rts <= ts,
                    None => false,
                }
            }
        }

        impl ConcurrencyControl for Mvto {
            fn begin(&mut self, txn: TxnId, ts: u64) {
                let slot = &mut self.slots[txn];
                slot.ts = ts;
                slot.reads.clear();
                slot.writes.clear();
                slot.conflicts = 0;
            }

            fn access(&mut self, txn: TxnId, item: u64, write: bool) -> AccessOutcome {
                let ts = self.slots[txn].ts;
                let chain = self.chain(item);
                if write {
                    if !Self::write_permitted(chain, ts) {
                        self.slots[txn].conflicts += 1;
                        return AccessOutcome::Abort;
                    }
                    if !self.slots[txn].writes.contains(&item) {
                        self.slots[txn].writes.push(item);
                    }
                    AccessOutcome::Granted
                } else {
                    match Self::visible_index(chain, ts) {
                        Some(i) => {
                            chain[i].max_rts = chain[i].max_rts.max(ts);
                            let wts = chain[i].wts;
                            self.slots[txn].reads.push((item, wts));
                            AccessOutcome::Granted
                        }
                        None => {
                            self.slots[txn].conflicts += 1;
                            AccessOutcome::Abort
                        }
                    }
                }
            }

            fn validate(&mut self, txn: TxnId) -> ValidateOutcome {
                let ts = self.slots[txn].ts;
                let mut failed = 0u64;
                for &item in &self.slots[txn].writes {
                    if !Self::write_permitted(self.committed(item), ts) {
                        failed += 1;
                    }
                }
                self.slots[txn].conflicts += failed;
                ValidateOutcome {
                    ok: failed == 0,
                    conflicts: self.slots[txn].conflicts,
                }
            }

            fn commit_into(&mut self, txn: TxnId, _: &mut Vec<TxnId>) {
                let ts = self.slots[txn].ts;
                let mut writes = std::mem::take(&mut self.slots[txn].writes);
                for &item in &writes {
                    self.install(
                        item,
                        Version {
                            wts: ts,
                            max_rts: ts,
                        },
                    );
                }
                writes.clear();
                self.slots[txn].writes = writes;
                self.slots[txn].reads.clear();
            }

            fn abort_into(&mut self, txn: TxnId, _: &mut Vec<TxnId>) {
                let slot = &mut self.slots[txn];
                slot.reads.clear();
                slot.writes.clear();
            }

            fn deadlock_victim(&mut self, _requester: TxnId) -> Option<TxnId> {
                None
            }
        }
    }

    /// `Mvto` over a header table of `capacity` slots against the direct
    /// header table it replaced, on the random streams of
    /// [`crate::cc::differential`] (monotone timestamps), over retention
    /// bounds on and between the block sizes: every outcome and
    /// validation equal, and every read recording the version the
    /// reference read — or, for a chain swept since, `wts` 0 where the
    /// reference's version is older than every live run (see the module
    /// doc). `check` sees each finished pair with its retention bound and
    /// the number of reads that met a swept chain.
    fn against_the_direct_table(
        capacity: usize,
        mut check: impl FnMut(usize, usize, &Mvto, &reference::Mvto),
    ) {
        for max_versions in [1, 2, 3, 16] {
            for seed in 1..=6 {
                let mut swept_reads = 0;
                let mut cc = Mvto::with_capacity(5, max_versions, capacity);
                let mut reference = reference::Mvto::with_max_versions(5, max_versions);
                crate::cc::differential::assert_same_outcomes(
                    &mut cc,
                    &mut reference,
                    5,
                    seed,
                    |cc, reference, txn| {
                        let (got, want) = (cc.reads_of(txn), reference.reads_of(txn));
                        assert_eq!(got.len(), want.len(), "reads of {txn}");
                        let (Some(&(item, got)), Some(&(_, want))) = (got.last(), want.last())
                        else {
                            return;
                        };
                        let horizon = oldest_live(&cc.slots);
                        assert!(
                            got == want || got == 0 && want < horizon,
                            "{txn} read {item} at wts {got}, the reference at {want}, \
                             horizon {horizon}, retaining {max_versions}"
                        );
                        swept_reads += usize::from(got != want);
                    },
                );
                check(max_versions, swept_reads, &cc, &reference);
            }
        }
    }

    /// Through an 8-slot table that sweeps every few operations. Dropped
    /// chains' blocks are reused, so the arena stays small.
    #[test]
    fn swept_table_matches_the_direct_table() {
        let mut swept_reads = 0;
        against_the_direct_table(8, |_, swept, cc, reference| {
            swept_reads += swept;
            let slots = cc.store.capacity();
            assert!(slots < 1 << 12, "{slots} slots");
            assert!(
                cc.blocks.arena.len() < reference.arena_len() / 2,
                "{} versions of room, {} without sweeps",
                cc.blocks.arena.len(),
                reference.arena_len()
            );
        });
        assert!(swept_reads > 0, "no read met a swept chain");
    }

    /// Through a table that never sweeps, so the trim at the horizon is
    /// the only collection: every read exactly the reference's, and,
    /// where the bound leaves room to trim, fewer versions kept.
    #[test]
    fn trimmed_chains_match_the_direct_table() {
        const ITEMS: u64 = 8192;
        against_the_direct_table(1 << 15, |max_versions, swept_reads, cc, reference| {
            assert_eq!((swept_reads, cc.store.capacity()), (0, 1 << 15), "swept");
            let kept: usize = (0..ITEMS).map(|i| cc.committed(i).len()).sum();
            let untrimmed: usize = (0..ITEMS).map(|i| reference.versions_of(i)).sum();
            if max_versions > 2 {
                assert!(
                    kept < untrimmed,
                    "{kept} versions kept, {untrimmed} untrimmed"
                );
            }
        });
    }
}

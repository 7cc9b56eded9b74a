//! The future event list.
//!
//! A [`Calendar`] holds events of an arbitrary payload type `E`, each tagged
//! with a firing time. `pop` yields events in time order; events with equal
//! times fire in the order they were scheduled (FIFO tie-break via a
//! monotonically increasing sequence number), which keeps simulation runs
//! deterministic regardless of queue internals.
//!
//! # Design: slab + bucketed rung, zero steady-state allocation
//!
//! Payloads live in a slab of reusable slots threaded on a free list. The
//! priority queue over them has three tiers (a one-rung ladder queue):
//!
//! * `far` — an unsorted pool of `(time, slot)` pairs for everything at
//!   or beyond the end of the open window. Scheduling there is a push.
//! * the *rung* — the open window `[start, start + BUCKETS·width)` cut
//!   into `BUCKETS` (256) equal time buckets. A bucket is an unordered
//!   list of slab slots threaded through the same `next` link the free
//!   list uses, so filing an event is one subtract-multiply-cast to the
//!   bucket index and two stores, and no bucket ever owns memory.
//! * `current` — the one bucket being drained, as a small vector sorted
//!   **descending** by `(time, seq)`, so the next event is its tail.
//!
//! `schedule` therefore never searches, except for the few events that
//! land in the bucket being drained (or before it, after a `peek_time`
//! ran ahead of the clock): those do a short sorted insert into
//! `current`. `pop` takes the tail of `current`; when that runs dry the
//! next non-empty bucket is unthreaded and insertion-sorted (about
//! `PER_BUCKET` = 4 entries), and when the rung runs dry a new window
//! opens at the earliest `far` event and one pass over `far` files
//! whatever falls inside it. For a standing event population — the only
//! regime a closed simulation produces — every operation is O(1)
//! amortized: an event is filed once, sorted among a handful of
//! neighbours once, and revisited in `far` once per window it outlives,
//! where a window lasts `BUCKETS · PER_BUCKET` pops.
//!
//! **The bucket width is measured, not configured.** Each new window
//! takes its width from the pop rate observed over the previous one:
//! entries consumed ÷ simulated time between the two window starts,
//! scaled to `PER_BUCKET` entries per bucket (a window with none before
//! it uses the density of `far` instead). Both quantities are functions
//! of the call sequence alone — no wall clock, no sampling — so the
//! structure adapts to the model's time scale and stays deterministic.
//! A width that comes out too narrow costs one short window and is
//! corrected at the next. One that comes out far too wide (a lone
//! far-future event stretched the density, or the rate rose a
//! hundredfold) would otherwise last as long as its window does, so a
//! bucket that grows past `SPLIT_AT` entries abandons the window and
//! opens a finer one over its own contents. The width never affects the
//! order events come out in: the bucket index is monotone in time, so
//! the tiers partition the `(time, seq)` order whatever the width is.
//!
//! Tried and dropped: a slab-backed 4-ary indexed heap only matched the
//! seed's `BinaryHeap` (PR 2); the two-tier list that followed (sorted
//! `near` + unsorted `far`, `select_nth_unstable` + sort per refill,
//! binary search + `Vec::insert` per near-horizon schedule) spent 56 % of
//! the full catalog's CPU in this module (PR 13 profile); a `Vec` per
//! bucket was as fast as the threaded lists but allocated in steady
//! state and raised the catalog's peak RSS by a third. Not built: a
//! bitmap of non-empty buckets — at four entries per bucket under 2 % of
//! them are empty, so there is next to nothing for it to skip.
//!
//! Cancellation ([`Calendar::schedule`] returns an [`EventToken`]) is an
//! O(1) in-place tombstone: the slot's payload is dropped and the entry
//! is reaped whenever it surfaces. Tokens carry the slot's *generation*,
//! which bumps every time a slot is freed, so a token whose event already
//! fired (or was already cancelled) is recognized as stale and ignored —
//! stale cancels can never leak bookkeeping (the seed design parked them
//! in a cancel-set forever) nor kill an event that happens to reuse the
//! slot.

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled later.
///
/// Tokens are generational: once the event fires or is cancelled, the
/// token goes stale and every further [`Calendar::cancel`] with it is a
/// no-op, even after the underlying slot is reused by a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

/// List terminator (free list and bucket lists).
const NIL: u32 = u32::MAX;

/// Time buckets per window.
const BUCKETS: usize = 256;

/// Entries per bucket the width rule aims for: few enough that sorting a
/// bucket is a handful of compares, enough that hardly any bucket is
/// empty and a window outlasts the pass over `far` that opens it. The
/// engine runs equally fast anywhere from 3 to 10; at 2 it is a tenth
/// slower.
const PER_BUCKET: f64 = 4.0;

/// Buckets up to this long are insertion-sorted; a longer one (the width
/// rule misjudged, or the model piled events up) goes to the library sort
/// so no bucket costs quadratic time.
const INSERTION_SORT_MAX: usize = 24;

/// A bucket that grows past this many entries — sixteen times what the
/// width rule aims for — is split (see `Calendar::split_current`); up to
/// there a misjudged width is cheaper to live with than to correct.
const SPLIT_AT: usize = 64;

/// An entry of the bucket being drained: everything ordering needs
/// without touching the slab.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// Total-order sort key. Times are finite and non-negative, so the
    /// IEEE-754 bit pattern orders exactly like the float — one integer
    /// compare instead of a NaN-aware float compare. `+ 0.0` normalizes
    /// a `-0.0` (which `SimTime::new` accepts) to `+0.0`: its sign-bit
    /// pattern would otherwise sort *after* every positive time.
    #[inline]
    fn key(&self) -> (u64, u64) {
        ((self.at.millis() + 0.0).to_bits(), self.seq)
    }
}

/// An entry of the far pool; its `seq` waits in the slab.
#[derive(Clone, Copy)]
struct FarEntry {
    at: f64,
    slot: u32,
}

struct Slot<E> {
    /// Bumped on every free; pending tokens with the old value go stale.
    gen: u32,
    /// Next slot of whichever list this one is on: its bucket while
    /// filed in the rung, the free list while free.
    next: u32,
    at: SimTime,
    seq: u64,
    /// `Some` while the event is live; `None` once cancelled (tombstone)
    /// or while the slot sits on the free list.
    payload: Option<E>,
}

/// The future event list: a priority queue of `(time, payload)` pairs with
/// FIFO tie-breaking and O(1) generational cancellation.
pub struct Calendar<E> {
    /// The bucket being drained, sorted descending by key: next event at
    /// the end. Holds every entry below bucket `next_bucket`.
    current: Vec<Entry>,
    /// Head slot of each bucket's list.
    heads: [u32; BUCKETS],
    /// First bucket not yet moved into `current`.
    next_bucket: usize,
    /// Start of the open window.
    start: f64,
    /// Buckets per millisecond. Infinite while no window is open (a new
    /// or drained calendar): every bucket index is then out of range, so
    /// everything scheduled collects in `far`.
    inv_width: f64,
    /// Entries consumed (popped or reaped) when the window opened.
    consumed_at_open: u64,
    /// Events at or beyond the end of the window, unsorted.
    far: Vec<FarEntry>,
    slots: Vec<Slot<E>>,
    free_head: u32,
    next_seq: u64,
    /// Entries held, tombstones included.
    len: usize,
    now: SimTime,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with room for `cap` concurrently
    /// scheduled events before any allocation happens.
    pub fn with_capacity(cap: usize) -> Self {
        Calendar {
            current: Vec::with_capacity(cap),
            heads: [NIL; BUCKETS],
            next_bucket: 0,
            start: 0.0,
            inv_width: f64::INFINITY,
            consumed_at_open: 0,
            far: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            next_seq: 0,
            len: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the firing time of the most recently
    /// popped event (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Panics if `at` lies in the past: scheduling into the past means the
    /// model computed a negative delay, which is always a bug.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.next;
            s.at = at;
            s.seq = seq;
            s.payload = Some(payload);
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "calendar slab overflow");
            self.slots.push(Slot {
                gen: 0,
                next: NIL,
                at,
                seq,
                payload: Some(payload),
            });
            (self.slots.len() - 1) as u32
        };
        // Bucket coordinate. Monotone in `at`, so comparing coordinates
        // never contradicts comparing times. With no window open it is
        // infinite or NaN (0 · ∞), and both fail the range test.
        let x = (at.millis() - self.start) * self.inv_width;
        if x < BUCKETS as f64 {
            // A time before the window (the clock is still short of a
            // window that `peek_time` opened) saturates to bucket 0.
            let bucket = x as usize;
            if bucket >= self.next_bucket {
                self.slots[slot as usize].next = self.heads[bucket];
                self.heads[bucket] = slot;
            } else {
                self.insert_current(Entry { at, seq, slot });
            }
        } else {
            self.far.push(FarEntry {
                at: at.millis(),
                slot,
            });
        }
        EventToken {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Schedules `payload` to fire `delay` milliseconds from now.
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventToken {
        self.schedule(self.now + delay, payload)
    }

    /// Marks a previously scheduled event as cancelled. O(1): the payload
    /// is dropped in place and the entry is reaped lazily. Cancelling an
    /// event that already fired (or was already cancelled) is a no-op —
    /// the token's generation no longer matches the slot's.
    pub fn cancel(&mut self, token: EventToken) {
        if let Some(slot) = self.slots.get_mut(token.slot as usize) {
            if slot.gen == token.gen {
                slot.payload = None;
            }
        }
    }

    /// Removes and returns the next live event, advancing the clock to its
    /// firing time. Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_through(f64::INFINITY)
    }

    /// [`Calendar::pop`], unless the next live event fires after `limit`:
    /// then it stays scheduled, the clock stays put and `None` comes
    /// back. The run loop's "next event up to the horizon" in one step
    /// instead of a `peek_time` and a `pop`.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_through(limit.millis())
    }

    /// The firing time of the next live event without removing it.
    /// Tombstoned entries at the front are reaped on the way.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            while let Some(&tail) = self.current.last() {
                if self.slots[tail.slot as usize].payload.is_some() {
                    return Some(tail.at);
                }
                self.current.pop();
                self.free_slot(tail.slot);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Number of scheduled entries, including not-yet-reaped cancelled ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are scheduled (cancelled-but-unreaped entries
    /// still count, matching [`Calendar::len`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slab slots ever allocated. Steady-state workloads plateau here —
    /// the alloc-gate tests assert this stops growing after warm-up.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn pop_through(&mut self, limit: f64) -> Option<(SimTime, E)> {
        loop {
            while let Some(&tail) = self.current.last() {
                if tail.at.millis() > limit {
                    return None;
                }
                self.current.pop();
                if let Some(payload) = self.free_slot(tail.slot) {
                    debug_assert!(tail.at >= self.now, "calendar time went backwards");
                    self.now = tail.at;
                    return Some((tail.at, payload));
                }
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Takes the entry in `slot` out of the calendar: returns its payload
    /// (None for a tombstone) and puts the slot on the free list,
    /// invalidating outstanding tokens via the generation bump.
    #[inline]
    fn free_slot(&mut self, slot: u32) -> Option<E> {
        self.len -= 1;
        let s = &mut self.slots[slot as usize];
        let payload = s.payload.take();
        s.gen = s.gen.wrapping_add(1);
        s.next = self.free_head;
        self.free_head = slot;
        payload
    }

    /// Sorted insert into the bucket being drained. The scan starts at
    /// the tail: that is where the clock is, and new events land near it.
    fn insert_current(&mut self, entry: Entry) {
        let key = entry.key();
        let mut pos = self.current.len();
        while pos > 0 && self.current[pos - 1].key() < key {
            pos -= 1;
        }
        self.current.insert(pos, entry);
        self.split_current();
    }

    /// Refills the drained `current` from the next non-empty bucket,
    /// opening new windows as needed. Returns `false` when nothing is
    /// scheduled any more.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            while self.next_bucket < BUCKETS {
                let bucket = self.next_bucket;
                self.next_bucket += 1;
                if self.heads[bucket] != NIL && self.load_bucket(bucket) {
                    return true;
                }
            }
            if self.far.is_empty() {
                self.next_bucket = 0;
                self.start = 0.0;
                self.inv_width = f64::INFINITY;
                return false;
            }
            self.open_window();
        }
    }

    /// Unthreads a bucket's list into `current` and sorts it. Returns
    /// `false` if the bucket was overfull and got split instead, which
    /// leaves `current` empty and a finer window open.
    fn load_bucket(&mut self, bucket: usize) -> bool {
        let mut slot = std::mem::replace(&mut self.heads[bucket], NIL);
        while slot != NIL {
            let s = &self.slots[slot as usize];
            self.current.push(Entry {
                at: s.at,
                seq: s.seq,
                slot,
            });
            slot = s.next;
        }
        let entries = &mut self.current[..];
        if entries.len() > INSERTION_SORT_MAX {
            entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            return !self.split_current();
        }
        for i in 1..entries.len() {
            let entry = entries[i];
            let key = entry.key();
            let mut j = i;
            while j > 0 && entries[j - 1].key() < key {
                entries[j] = entries[j - 1];
                j -= 1;
            }
            entries[j] = entry;
        }
        true
    }

    /// Splits the bucket in `current` (sorted) if it has grown past
    /// `SPLIT_AT` entries: the width rule was fed an outlier, or the
    /// rate has risen since, and left alone the bucket would stay
    /// overfull until the window ends, every schedule into it a long
    /// sorted insert. The window is abandoned instead: `current` and the
    /// buckets behind it go back to `far`, and a window with the width
    /// this bucket's own density asks for opens at its first entry.
    /// Returns `false`, having done nothing, if the bucket is not
    /// overfull or its entries all share one instant: no width can
    /// spread those.
    fn split_current(&mut self) -> bool {
        let len = self.current.len();
        if len <= SPLIT_AT {
            return false;
        }
        let lo = self.current[len - 1].at.millis();
        let hi = self.current[0].at.millis();
        let inv_width = len as f64 / (PER_BUCKET * (hi - lo));
        if !inv_width.is_finite() {
            return false;
        }
        self.far.extend(self.current.drain(..).map(|e| FarEntry {
            at: e.at.millis(),
            slot: e.slot,
        }));
        for bucket in self.next_bucket..BUCKETS {
            let mut slot = std::mem::replace(&mut self.heads[bucket], NIL);
            while slot != NIL {
                let s = &self.slots[slot as usize];
                self.far.push(FarEntry {
                    at: s.at.millis(),
                    slot,
                });
                slot = s.next;
            }
        }
        self.file_far(lo, inv_width);
        true
    }

    /// The rung is spent: opens a window at the earliest `far` event.
    fn open_window(&mut self) {
        debug_assert!(self.next_bucket == BUCKETS && !self.far.is_empty());
        let (start, end) = self
            .far
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), e| {
                (lo.min(e.at), hi.max(e.at))
            });
        // Buckets per millisecond that put PER_BUCKET entries in a
        // bucket: from the pop rate since the previous window opened,
        // else (no window before this one) from the density of `far`,
        // else (all of it at one instant) anything finite.
        let usable = |inv: f64| inv.is_finite() && inv > 0.0;
        let consumed = self.next_seq - self.len as u64 - self.consumed_at_open;
        let observed = consumed as f64 / (PER_BUCKET * (start - self.start));
        let density = self.far.len() as f64 / (PER_BUCKET * (end - start));
        let inv_width = if usable(self.inv_width) && usable(observed) {
            observed
        } else if usable(density) {
            density
        } else {
            1.0
        };
        self.file_far(start, inv_width);
    }

    /// Opens the window that starts at `start`, the earliest time in
    /// `far`, and files every `far` entry that falls inside it. The
    /// earliest one always lands in bucket 0, so the window holds at
    /// least one entry whatever its width.
    fn file_far(&mut self, start: f64, inv_width: f64) {
        self.start = start;
        self.inv_width = inv_width;
        self.consumed_at_open = self.next_seq - self.len as u64;
        self.next_bucket = 0;
        let mut kept = 0;
        for i in 0..self.far.len() {
            let e = self.far[i];
            let x = (e.at - start) * inv_width;
            if x < BUCKETS as f64 {
                let bucket = x as usize;
                self.slots[e.slot as usize].next = self.heads[bucket];
                self.heads[bucket] = e.slot;
            } else {
                self.far[kept] = e;
                kept += 1;
            }
        }
        self.far.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::new(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(t(30.0), "c");
        cal.schedule(t(10.0), "a");
        cal.schedule(t(20.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(t(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(t(10.0), ());
        cal.schedule(t(25.0), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), t(10.0));
        cal.pop();
        assert_eq!(cal.now(), t(25.0));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut cal = Calendar::new();
        cal.schedule(t(10.0), 0);
        cal.pop();
        cal.schedule_in(5.0, 1);
        let (at, _) = cal.pop().unwrap();
        assert_eq!(at, t(15.0));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut cal = Calendar::new();
        cal.schedule(t(10.0), ());
        cal.pop();
        cal.schedule(t(5.0), ());
    }

    #[test]
    fn cancellation_drops_event() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(t(10.0), "dead");
        cal.schedule(t(20.0), "alive");
        cal.cancel(tok);
        let (at, e) = cal.pop().unwrap();
        assert_eq!(e, "alive");
        assert_eq!(at, t(20.0));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(t(1.0), ());
        cal.pop();
        cal.cancel(tok);
        cal.schedule(t(2.0), ());
        assert!(cal.pop().is_some());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(t(1.0), "x");
        cal.schedule(t(2.0), "y");
        cal.cancel(tok);
        assert_eq!(cal.peek_time(), Some(t(2.0)));
        assert_eq!(cal.pop().unwrap().1, "y");
    }

    #[test]
    fn empty_calendar() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(cal.is_empty());
        assert_eq!(cal.len(), 0);
        assert!(cal.pop().is_none());
        assert!(cal.peek_time().is_none());
    }

    /// Regression for the seed-design leak: a token cancelled after its
    /// event fired must be recognized as stale. In particular it must NOT
    /// kill the event that reuses the same slab slot.
    #[test]
    fn stale_cancel_cannot_touch_slot_reuse() {
        let mut cal = Calendar::new();
        let stale = cal.schedule(t(1.0), "first");
        assert_eq!(cal.pop().unwrap().1, "first");
        // The next schedule reuses slot 0 with a bumped generation.
        let fresh = cal.schedule(t(2.0), "second");
        assert_eq!(cal.slot_capacity(), 1, "slot must be reused");
        cal.cancel(stale); // stale: must be a no-op
        assert_eq!(cal.pop().unwrap().1, "second", "stale cancel killed a live event");
        // And double-cancel of an already-cancelled token stays inert.
        let tok = cal.schedule(t(3.0), "third");
        cal.cancel(tok);
        cal.cancel(tok);
        cal.cancel(fresh); // fired long ago: no-op
        assert!(cal.pop().is_none());
    }

    /// The seed design kept cancelled-after-fire tokens in a side set
    /// forever; the slab design must keep total bookkeeping bounded by the
    /// peak number of concurrently scheduled events, no matter how many
    /// stale cancels happen.
    #[test]
    fn stale_cancels_leak_nothing() {
        let mut cal = Calendar::new();
        let mut stale = Vec::new();
        for round in 0..1_000u64 {
            let tok = cal.schedule(t(round as f64), round);
            assert!(cal.pop().is_some());
            stale.push(tok);
        }
        for tok in stale {
            cal.cancel(tok); // all stale — every one a no-op
        }
        assert_eq!(cal.slot_capacity(), 1, "bookkeeping grew with stale cancels");
        assert!(cal.is_empty());
        let tok = cal.schedule(t(2_000.0), 7);
        cal.cancel(tok);
        assert!(cal.pop().is_none());
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        let mut cal = Calendar::new();
        for _ in 0..8 {
            cal.schedule(t(1.0), ());
        }
        assert_eq!(cal.slot_capacity(), 8);
        while cal.pop().is_some() {}
        // A new wave of the same size must reuse the 8 slots.
        for _ in 0..8 {
            cal.schedule(t(2.0), ());
        }
        assert_eq!(cal.slot_capacity(), 8, "free list was not reused");
    }

    #[test]
    fn cancelled_entries_count_until_reaped() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(t(1.0), ());
        cal.schedule(t(2.0), ());
        cal.cancel(tok);
        assert_eq!(cal.len(), 2, "tombstone still occupies a heap entry");
        assert_eq!(cal.peek_time(), Some(t(2.0)));
        assert_eq!(cal.len(), 1, "peek reaps front tombstones");
    }

    /// `SimTime::new(-0.0)` passes the non-negativity assert; the bit-
    /// pattern sort key must not send it after every positive time.
    #[test]
    fn negative_zero_time_fires_first() {
        let mut cal = Calendar::new();
        cal.schedule(t(1.0), "later");
        cal.schedule(SimTime::new(-0.0), "first");
        assert_eq!(cal.pop().unwrap().1, "first");
        assert_eq!(cal.pop().unwrap().1, "later");
        assert!(cal.pop().is_none());
    }

    #[test]
    fn interleaved_cancel_pop_keeps_order() {
        let mut cal = Calendar::new();
        let tokens: Vec<_> = (0..50).map(|i| cal.schedule(t(f64::from(i)), i)).collect();
        for (i, tok) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                cal.cancel(*tok);
            }
        }
        let fired: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        let expected: Vec<_> = (0..50).filter(|i| i % 3 != 0).collect();
        assert_eq!(fired, expected);
    }

    // ---- shapes the bucketed rung is sensitive to ----------------------

    /// Drives a standing population through `pops` pop-and-reschedule
    /// steps with delays from `delay(step)` and checks every pop against
    /// a binary heap over `(time, seq)`.
    fn churn_against_heap(population: usize, pops: usize, mut delay: impl FnMut(usize) -> f64) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cal = Calendar::new();
        let mut heap = BinaryHeap::new();
        let mut now = 0.0f64;
        for step in 0..population + pops {
            if step >= population {
                let Reverse((bits, expect)) = heap.pop().expect("standing population");
                now = f64::from_bits(bits);
                let (at, got) = cal.pop().expect("standing population");
                assert_eq!((at, got), (t(now), expect), "step {step}");
            }
            // The step number doubles as the event's `seq`.
            let at = now + delay(step);
            heap.push(Reverse((at.to_bits(), step)));
            cal.schedule(t(at), step);
        }
        assert_eq!(cal.len(), population);
    }

    /// A whole population at one instant, rescheduled at that same
    /// instant while it drains: no time ever passes, so no width can be
    /// derived, and the order is FIFO by `seq` alone.
    #[test]
    fn one_instant_makes_progress_and_stays_fifo() {
        churn_against_heap(2_000, 6_000, |step| if step < 2_000 { 7.0 } else { 0.0 });
    }

    /// The engine's mix: CPU and disk bursts of a few milliseconds
    /// against think times of a second.
    #[test]
    fn bimodal_delays_pop_in_order() {
        churn_against_heap(400, 60_000, |step| {
            let u = (step * 37 % 101) as f64 / 101.0;
            if step % 5 == 0 {
                1_000.0 * (0.5 + u)
            } else {
                4.0 * (0.5 + u)
            }
        });
    }

    /// The pop rate jumps 100× up and later 100× down: the width carried
    /// over from the previous window is wrong by that factor both ways.
    #[test]
    fn rate_changes_of_100x_pop_in_order() {
        churn_against_heap(300, 45_000, |step| {
            let u = 0.5 + (step * 53 % 97) as f64 / 97.0;
            if (15_000..30_000).contains(&step) {
                u
            } else {
                100.0 * u
            }
        });
    }

    /// One event per millisecond for 5 s, the last one (at 5 000) still
    /// pending: the rate rule has settled on `PER_BUCKET` ms per bucket
    /// and the open window reaches a few hundred milliseconds past 5 000.
    fn warmed() -> (Calendar<i32>, EventToken) {
        let mut cal = Calendar::new();
        let mut pending = cal.schedule(t(0.0), 0);
        for i in 1..=5_000 {
            assert_eq!(cal.pop().unwrap().1, i - 1);
            pending = cal.schedule(t(f64::from(i)), i);
        }
        assert_eq!(cal.inv_width, 1.0 / PER_BUCKET);
        (cal, pending)
    }

    /// `peek_time` runs ahead of the clock into a window opened far
    /// beyond it; events scheduled afterwards, earlier than what it saw
    /// — before that window, at its first instant, inside it — must still
    /// fire in order.
    #[test]
    fn schedule_earlier_than_a_peeked_window() {
        let (mut cal, pending) = warmed();
        cal.schedule(t(50_000.0), -1);
        cal.cancel(pending);
        assert_eq!(cal.peek_time(), Some(t(50_000.0)));
        assert_eq!(
            cal.start, 50_000.0,
            "the peek opened a window at the far event"
        );
        assert_eq!(cal.now(), t(4_999.0));
        for (at, e) in [
            (5_003.0, 2),
            (4_999.0, 1),
            (50_300.0, 7),
            (50_000.0, 5),
            (49_999.9, 4),
            (50_001.0, 6),
            (5_003.0, 3),
        ] {
            cal.schedule(t(at), e);
        }
        assert_eq!(cal.peek_time(), Some(t(4_999.0)));
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, -1, 5, 6, 7]);
    }

    /// A peek that skips empty buckets inside the open window, then a
    /// schedule into one of the buckets it skipped.
    #[test]
    fn schedule_into_a_bucket_the_peek_skipped() {
        let (mut cal, pending) = warmed();
        let window = cal.start;
        cal.schedule(t(5_300.0), -1);
        assert!(cal.far.is_empty(), "5 300 is inside the open window");
        cal.cancel(pending);
        let before = cal.next_bucket;
        assert_eq!(cal.peek_time(), Some(t(5_300.0)));
        assert!(cal.next_bucket > before + 50 && cal.start == window);
        cal.schedule(t(5_100.0), 1);
        cal.schedule(t(5_300.0), 2);
        cal.schedule(t(5_299.0), 3);
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![1, 3, -1, 2]);
    }

    /// A window may hold nothing but tombstones; reaping it must lead on
    /// to the live event behind it, and leave nothing counted.
    #[test]
    fn window_of_tombstones_only() {
        let (mut cal, _) = warmed();
        let doomed: Vec<_> = (0..500)
            .map(|i| cal.schedule(t(10_000.0 + f64::from(i) * 0.5), -1))
            .collect();
        cal.schedule(t(1.0e6), -2);
        assert_eq!(cal.far.len(), 501);
        assert_eq!(cal.pop().unwrap().1, 5_000);
        doomed.into_iter().for_each(|tok| cal.cancel(tok));
        assert_eq!(cal.peek_time(), Some(t(1.0e6)));
        assert_eq!(cal.len(), 1, "500 tombstones reaped on the way");
        assert_eq!(cal.pop(), Some((t(1.0e6), -2)));
        assert!(cal.is_empty() && cal.pop().is_none());
    }

    /// Equal times share a bucket whichever way they got there — filed
    /// from `far`, filed directly, or inserted into the bucket being
    /// drained — and `-0.0` ties with `0.0`: FIFO by `seq` throughout.
    #[test]
    fn ties_are_fifo_across_tiers() {
        let mut cal = Calendar::new();
        cal.schedule(t(0.0), 0);
        cal.schedule(SimTime::new(-0.0), 1);
        cal.schedule(t(0.0), 2);
        for i in 0..2_000 {
            cal.schedule(t(f64::from(i / 4)), 3 + i);
        }
        // The first pop opens a window over the head of these; the second
        // batch lands beside them in its buckets, in the bucket being
        // drained, and (the tail of it) in `far`.
        assert_eq!(cal.pop().unwrap().1, 0);
        assert!(cal.far.len() > 100 && cal.len() - cal.far.len() > 100);
        cal.schedule(SimTime::new(-0.0), 2_003);
        for i in 0..2_000 {
            cal.schedule(t(f64::from(i / 4)), 2_004 + i);
        }
        let popped: Vec<(SimTime, i32)> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(popped.len(), 4_003);
        assert_eq!(
            popped.iter().take(8).map(|&(_, e)| e).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6, 2_003, 2_004]
        );
        let mut sorted = popped.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(popped, sorted);
    }

    /// One far-future event (a scheduled switch, a fault) beside a dense
    /// population makes the first window's density estimate absurdly
    /// wide, and an idle stretch does the same to the rate estimate. The
    /// overfull bucket must be split, not served by long sorted inserts
    /// for the rest of the window.
    #[test]
    fn overfull_bucket_is_split() {
        let mut cal = Calendar::new();
        cal.schedule(t(1.0e7), u64::MAX);
        for i in 0..500u64 {
            cal.schedule(t(i as f64 * 0.2), i);
        }
        for round in 0..20_000u64 {
            // Idle from round 10 000 on for a while: one event per 50 s.
            let idle = (10_000..10_020).contains(&round);
            let delay = if idle { 5.0e4 } else { 4.0 };
            cal.pop().expect("standing population");
            assert!(cal.current.len() <= SPLIT_AT, "round {round}");
            cal.schedule_in(delay + (round % 7) as f64 * 0.1, 500 + round);
            assert!(cal.current.len() <= SPLIT_AT, "round {round}");
        }
        assert!(
            cal.inv_width > 1.0,
            "settled near 125 events/ms ÷ PER_BUCKET"
        );
    }

    #[test]
    fn pop_until_stops_at_the_limit() {
        let mut cal = Calendar::new();
        cal.schedule(t(10.0), "a");
        cal.schedule(t(20.0), "b");
        let dead = cal.schedule(t(25.0), "dead");
        cal.schedule(t(30.0), "c");
        cal.cancel(dead);
        assert_eq!(cal.pop_until(t(5.0)), None);
        assert_eq!(
            cal.now(),
            SimTime::ZERO,
            "a refused pop leaves the clock alone"
        );
        assert_eq!(cal.pop_until(t(10.0)), Some((t(10.0), "a")));
        assert_eq!(cal.pop_until(t(29.0)), Some((t(20.0), "b")));
        assert_eq!(cal.pop_until(t(29.0)), None);
        assert_eq!(cal.now(), t(20.0));
        // Scheduling between the limit and the refused event still works.
        cal.schedule(t(29.5), "late");
        assert_eq!(cal.pop_until(t(30.0)), Some((t(29.5), "late")));
        assert_eq!(cal.pop_until(t(30.0)), Some((t(30.0), "c")));
        assert_eq!(cal.pop_until(t(1.0e9)), None);
        assert!(cal.is_empty());
    }
}

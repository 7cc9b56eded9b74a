//! The future event list.
//!
//! A [`Calendar`] holds events of an arbitrary payload type `E`, each tagged
//! with a firing time. `pop` yields events in time order; events with equal
//! times fire in the order they were scheduled (FIFO tie-break via a
//! monotonically increasing sequence number), which keeps simulation runs
//! deterministic regardless of queue internals.
//!
//! # Design: slab + bucketed rung + FIFO lanes, zero steady-state allocation
//!
//! Payloads live in a slab of reusable slots threaded on a free list. The
//! priority queue over them has three tiers (a one-rung ladder queue),
//! and beside it sits a fourth for events that need no sorting at all:
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
//! * *lanes* — one FIFO queue per constant delay the model declares
//!   ([`Calendar::lane`]). An event that fires a fixed delay after it was
//!   scheduled fires in the order it was scheduled, so
//!   [`Calendar::schedule_lane`] appends `(now + delay, seq, payload)` and
//!   that is all: no slab slot, no bucket, no sort. The paper's model
//!   gives the disk constant service times, which puts about half of all
//!   events here.
//!
//! `schedule` therefore never searches, except for the few events that
//! land in the bucket being drained (or before it, after a refused
//! `pop_until` ran ahead of the clock): those do a short sorted insert into
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
//! **The merge with the lanes is exact.** A lane entry takes its `seq`
//! from the counter `schedule` uses and its time from the same
//! `now + delay` that `schedule_in` computes, so it carries the key it
//! would have had in the rung. The clock never runs backwards and `seq`
//! only grows, so each lane is sorted by that key as it stands, and the
//! earliest event overall is the smaller of the rung's next entry and the
//! earliest lane head. `pop` compares exactly those two, after refilling
//! `current` if it is empty while entries are filed behind it (an empty
//! `current` says nothing about where the rung's next entry is). The
//! earliest lane head is cached and recomputed only when a lane is
//! popped or an empty lane receives an entry, so the merge costs a pop
//! one compare, against a sentinel when no lane holds anything. Events
//! come out in the order `schedule_in(delay, ..)` would have produced,
//! ties included, whatever mix of the two calls put them in. Lane traffic
//! is kept out of the width rule above: that measures how fast *filed*
//! entries are consumed, and counting lane entries in would halve the
//! bucket width for nothing.
//!
//! **No tokens on a lane.** A lane entry has no slab slot, so there is
//! nothing for an [`EventToken`] to name and no tombstone to leave:
//! `schedule_lane` returns nothing and a lane event cannot be cancelled.
//! That fits the one client there is: the engine never cancels, it skips
//! a stale event by its generation when it fires (real cancellation lost
//! to that at the engine's displacement rates, PR 5).
//!
//! Tried and dropped: a slab-backed 4-ary indexed heap only matched the
//! seed's `BinaryHeap` (PR 2); the two-tier list that followed (sorted
//! `near` + unsorted `far`, `select_nth_unstable` + sort per refill,
//! binary search + `Vec::insert` per near-horizon schedule) spent 56 % of
//! the full catalog's CPU in this module (PR 13 profile); a `Vec` per
//! bucket was as fast as the threaded lists but allocated in steady
//! state and raised the catalog's peak RSS by a third; a merge that
//! looked at every lane's `VecDeque::front` on every pop gave the lanes'
//! whole gain back (PR 18's prototype: 11.9–13.0 M engine events/s
//! against 12.5–13.1 M without lanes, 13.1–14.5 M once the head was
//! cached). Not built: a
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

use std::collections::VecDeque;

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

/// Identifies a FIFO lane opened by [`Calendar::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneId(usize);

/// List terminator (free list and bucket lists).
const NIL: u32 = u32::MAX;

/// `lane_head` while every lane is empty. No entry has this key (the time
/// half is a NaN pattern), and every entry's key is below it.
const NO_LANE_HEAD: (u64, u64) = (u64::MAX, u64::MAX);

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

/// Total-order sort key. Times are finite and non-negative, so the
/// IEEE-754 bit pattern orders exactly like the float — one integer
/// compare instead of a NaN-aware float compare. `+ 0.0` normalizes
/// a `-0.0` (which `SimTime::new` accepts) to `+0.0`: its sign-bit
/// pattern would otherwise sort *after* every positive time.
#[inline]
fn key(at: SimTime, seq: u64) -> (u64, u64) {
    ((at.millis() + 0.0).to_bits(), seq)
}

impl Entry {
    #[inline]
    fn key(&self) -> (u64, u64) {
        key(self.at, self.seq)
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

/// A lane entry. The payload rides inline: no slab slot, so no token and
/// no tombstone.
struct LaneEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// One constant delay and the events waiting it out, oldest first. The
/// clock never runs backwards and `seq` only grows, so the queue is
/// sorted by `(time, seq)` without ever being sorted.
struct Lane<E> {
    delay: f64,
    /// Key of `queue`'s front, [`NO_LANE_HEAD`] while it is empty.
    head: (u64, u64),
    queue: VecDeque<LaneEntry<E>>,
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
    /// Filed entries popped or reaped so far: the width rule's measure of
    /// the rung's traffic. Lane entries are not in it.
    consumed: u64,
    /// `consumed` when the window opened.
    consumed_at_open: u64,
    /// Events at or beyond the end of the window, unsorted.
    far: Vec<FarEntry>,
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Shared by `schedule` and `schedule_lane`: one FIFO tie-break
    /// across all four tiers.
    next_seq: u64,
    /// Filed entries held (`far`, rung and `current`), tombstones
    /// included.
    filed: usize,
    lanes: Vec<Lane<E>>,
    /// Key of the earliest lane head, [`NO_LANE_HEAD`] while every lane is
    /// empty; `lane_first` is the lane it sits on. Recomputed only when a
    /// lane is popped or an empty lane receives an entry.
    lane_head: (u64, u64),
    lane_first: usize,
    /// Entries held across all lanes.
    lane_len: usize,
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

    /// Creates an empty calendar with room for `cap` concurrently filed
    /// events ([`Calendar::schedule`]) before any allocation happens.
    /// Lanes find their own size on first use.
    pub fn with_capacity(cap: usize) -> Self {
        Calendar {
            // One bucket, and a bucket past `SPLIT_AT` is split.
            current: Vec::with_capacity(cap.min(SPLIT_AT + 1)),
            heads: [NIL; BUCKETS],
            next_bucket: 0,
            start: 0.0,
            inv_width: f64::INFINITY,
            consumed: 0,
            consumed_at_open: 0,
            far: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            next_seq: 0,
            filed: 0,
            lanes: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time; only Calendar::lane grows it, before the run")
            lane_head: NO_LANE_HEAD,
            lane_first: 0,
            lane_len: 0,
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
        self.filed += 1;
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
            // window that a refused `pop_until` opened) saturates to
            // bucket 0.
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

    /// Schedules `payload` to fire `delay` milliseconds from now. An event
    /// `+∞` away never fires: when `now + delay` is `+∞`, nothing is
    /// scheduled and the token returned is already stale. A NaN or
    /// negative delay panics, as a past time does in [`Calendar::schedule`].
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventToken {
        let at = self.now.millis() + delay;
        if at == f64::INFINITY {
            return EventToken { slot: NIL, gen: 0 };
        }
        self.schedule(SimTime::new(at), payload)
    }

    /// Opens a FIFO lane for events that fire a constant `delay_ms` after
    /// they are scheduled. Lanes are for a model's few fixed delays: each
    /// one adds a compare to refreshing the cached lane head, so open one
    /// per delay, not one per event source.
    pub fn lane(&mut self, delay_ms: f64) -> LaneId {
        assert!(
            delay_ms.is_finite() && delay_ms >= 0.0,
            "lane delay must be finite and non-negative, got {delay_ms}"
        );
        self.lanes.push(Lane {
            delay: delay_ms,
            head: NO_LANE_HEAD,
            queue: VecDeque::new(),
        });
        LaneId(self.lanes.len() - 1)
    }

    /// Schedules `payload` to fire the lane's delay from now. The event
    /// gets the firing time and sequence number `schedule_in(delay, ..)`
    /// would have given it and so fires exactly when that one would, ties
    /// included; it only costs less, an append here and a `pop_front`
    /// later. There is no token: a lane entry cannot be cancelled.
    /// `lane` must come from this calendar's [`Calendar::lane`].
    #[inline]
    pub fn schedule_lane(&mut self, lane: LaneId, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lane_len += 1;
        let l = &mut self.lanes[lane.0];
        let at = self.now + l.delay;
        // Appending changes a lane's head only if the lane was empty, and
        // only then can it change which lane is first.
        if l.queue.is_empty() {
            l.head = key(at, seq);
            if l.head < self.lane_head {
                self.lane_head = l.head;
                self.lane_first = lane.0;
            }
        }
        l.queue.push_back(LaneEntry { at, seq, payload });
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
    /// back. The run loop's "next event up to the horizon" in one step.
    /// Tombstoned entries at the front are reaped on the way, and a
    /// refusal may leave a window open ahead of the clock.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_through(limit.millis())
    }

    /// Number of scheduled entries, lanes included, and including
    /// not-yet-reaped cancelled ones.
    pub fn len(&self) -> usize {
        self.filed + self.lane_len
    }

    /// True if no entries are scheduled (cancelled-but-unreaped entries
    /// still count, matching [`Calendar::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab slots ever allocated. Steady-state workloads plateau here —
    /// the alloc-gate tests assert this stops growing after warm-up.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// The merge of the filed tiers with the lanes. `current` is refilled
    /// before a lane head may go (an empty `current` with entries filed
    /// behind it says nothing about where the earliest filed entry is),
    /// then its tail is held against the one cached lane key: with no
    /// lane entry waiting, that is a sentinel every key is below.
    #[inline]
    fn pop_through(&mut self, limit: f64) -> Option<(SimTime, E)> {
        loop {
            match self.current.last().copied() {
                Some(tail) if tail.key() < self.lane_head => {
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
                None if self.advance() => {}
                _ => return self.pop_lane(limit),
            }
        }
    }

    /// Pops the earliest lane head, the caller having found no filed
    /// entry ahead of it.
    #[inline]
    fn pop_lane(&mut self, limit: f64) -> Option<(SimTime, E)> {
        // The cached key carries the head's firing time.
        if self.lane_len == 0 || f64::from_bits(self.lane_head.0) > limit {
            return None;
        }
        let lane = &mut self.lanes[self.lane_first];
        let LaneEntry { at, payload, .. } = lane.queue.pop_front()?;
        lane.head = lane
            .queue
            .front()
            .map_or(NO_LANE_HEAD, |next| key(next.at, next.seq));
        self.lane_len -= 1;
        self.lane_head = NO_LANE_HEAD;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.head < self.lane_head {
                self.lane_head = lane.head;
                self.lane_first = i;
            }
        }
        debug_assert!(at >= self.now, "calendar time went backwards");
        self.now = at;
        Some((at, payload))
    }

    /// Takes the entry in `slot` out of the calendar: returns its payload
    /// (None for a tombstone) and puts the slot on the free list,
    /// invalidating outstanding tokens via the generation bump.
    #[inline]
    fn free_slot(&mut self, slot: u32) -> Option<E> {
        self.filed -= 1;
        self.consumed += 1;
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
    /// filed any more, and closes the window: with lanes busy beside an
    /// idle rung that happens on every pop, so it must not cost a walk
    /// over the empty buckets.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        if self.filed == 0 {
            self.next_bucket = 0;
            self.start = 0.0;
            self.inv_width = f64::INFINITY;
            return false;
        }
        loop {
            while self.next_bucket < BUCKETS {
                let bucket = self.next_bucket;
                self.next_bucket += 1;
                if self.heads[bucket] != NIL && self.load_bucket(bucket) {
                    return true;
                }
            }
            // Something is filed and it is in no bucket: it is in `far`.
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
        let consumed = self.consumed - self.consumed_at_open;
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
        self.consumed_at_open = self.consumed;
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

    /// Asserts that no live event fires before `at`, firing none: a
    /// `pop_until` just short of `at` refuses and the clock stays put.
    /// On the way it reaps front tombstones and may open a window ahead
    /// of the clock.
    fn refuses_before<E: std::fmt::Debug + PartialEq>(cal: &mut Calendar<E>, at: f64) {
        let now = cal.now();
        assert_eq!(
            cal.pop_until(t(at.next_down())),
            None,
            "an event fired before {at}"
        );
        assert_eq!(cal.now(), now, "a refused pop moved the clock");
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
    fn an_event_infinitely_far_away_is_never_scheduled() {
        let mut cal = Calendar::new();
        cal.schedule(t(1e308), "far");
        let never = cal.schedule_in(f64::INFINITY, "never");
        assert_eq!(cal.len(), 1, "an infinite delay filed an event");
        assert_eq!(cal.pop(), Some((t(1e308), "far")));
        // A finite delay that overflows the clock is as far away.
        cal.schedule_in(1e308, "overflow");
        assert!(cal.is_empty());
        // Its token is stale from the start: cancelling it touches no
        // live event, also one that reuses the slab.
        let live = cal.schedule_in(1.0, "live");
        cal.cancel(never);
        assert_eq!(cal.pop().map(|(_, e)| e), Some("live"));
        cal.cancel(live);
        assert!(cal.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "SimTime must be finite and non-negative")]
    fn a_nan_delay_panics() {
        Calendar::new().schedule_in(f64::NAN, ());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut cal = Calendar::new();
        let tok = cal.schedule(t(1.0), "x");
        cal.schedule(t(2.0), "y");
        cal.cancel(tok);
        refuses_before(&mut cal, 2.0);
        assert_eq!(cal.pop().unwrap().1, "y");
    }

    #[test]
    fn empty_calendar() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(cal.is_empty());
        assert_eq!(cal.len(), 0);
        assert!(cal.pop().is_none());
        assert!(cal.pop_until(t(1.0)).is_none());
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
        refuses_before(&mut cal, 2.0);
        assert_eq!(cal.len(), 1, "a refused pop reaps front tombstones");
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

    /// A refused `pop_until` runs ahead of the clock into a window opened
    /// far beyond it; events scheduled afterwards, earlier than what it
    /// saw — before that window, at its first instant, inside it — must
    /// still fire in order.
    #[test]
    fn schedule_earlier_than_a_peeked_window() {
        let (mut cal, pending) = warmed();
        cal.schedule(t(50_000.0), -1);
        cal.cancel(pending);
        refuses_before(&mut cal, 50_000.0);
        assert_eq!(
            cal.start, 50_000.0,
            "the refused pop opened a window at the far event"
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
        refuses_before(&mut cal, 4_999.0);
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![1, 2, 3, 4, -1, 5, 6, 7]);
    }

    /// A refused pop that skips empty buckets inside the open window,
    /// then a schedule into one of the buckets it skipped.
    #[test]
    fn schedule_into_a_bucket_the_peek_skipped() {
        let (mut cal, pending) = warmed();
        let window = cal.start;
        cal.schedule(t(5_300.0), -1);
        assert!(cal.far.is_empty(), "5 300 is inside the open window");
        cal.cancel(pending);
        let before = cal.next_bucket;
        refuses_before(&mut cal, 5_300.0);
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
        refuses_before(&mut cal, 1.0e6);
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

    // ---- lanes ---------------------------------------------------------

    fn drain<E>(cal: &mut Calendar<E>) -> Vec<E> {
        std::iter::from_fn(|| cal.pop()).map(|(_, e)| e).collect()
    }

    /// A lane entry and a filed entry at one instant fire in the order
    /// they were scheduled, whichever of the two came first.
    #[test]
    fn lane_and_filed_ties_fire_in_seq_order() {
        let mut cal = Calendar::new();
        let lane = cal.lane(5.0);
        cal.schedule_lane(lane, 0);
        cal.schedule(t(5.0), 1);
        cal.schedule_in(5.0, 2);
        cal.schedule_lane(lane, 3);
        cal.schedule(t(5.0), 4);
        assert_eq!(drain(&mut cal), vec![0, 1, 2, 3, 4]);
        assert_eq!(cal.now(), t(5.0));
        // The same from a standing clock, the filed entry first, and with
        // a second lane of the same delay in the tie.
        let twin = cal.lane(5.0);
        cal.schedule(t(10.0), 5);
        cal.schedule_lane(lane, 6);
        cal.schedule_lane(twin, 7);
        cal.schedule_lane(lane, 8);
        cal.schedule(t(10.0), 9);
        cal.schedule_lane(twin, 10);
        assert_eq!(drain(&mut cal), vec![5, 6, 7, 8, 9, 10]);
    }

    /// A limit between the lane head and the rung head, either way round:
    /// the earlier one fires, the later one stays and so does the clock.
    #[test]
    fn pop_until_between_a_lane_head_and_the_rung_head() {
        let mut cal = Calendar::new();
        let lane = cal.lane(5.0);
        cal.schedule_lane(lane, "lane");
        cal.schedule(t(10.0), "filed");
        assert_eq!(cal.pop_until(t(4.0)), None);
        assert_eq!(cal.now(), SimTime::ZERO);
        assert_eq!(cal.pop_until(t(7.0)), Some((t(5.0), "lane")));
        assert_eq!(cal.pop_until(t(7.0)), None);
        assert_eq!((cal.now(), cal.len()), (t(5.0), 1));
        assert_eq!(cal.pop_until(t(10.0)), Some((t(10.0), "filed")));

        cal.schedule_in(2.0, "filed");
        cal.schedule_lane(lane, "lane");
        assert_eq!(cal.pop_until(t(11.0)), None);
        assert_eq!(cal.pop_until(t(13.0)), Some((t(12.0), "filed")));
        assert_eq!(cal.pop_until(t(13.0)), None);
        assert_eq!((cal.now(), cal.len()), (t(12.0), 1));
        assert_eq!(cal.pop_until(t(15.0)), Some((t(15.0), "lane")));
        assert!(cal.is_empty());
    }

    #[test]
    fn refused_pops_see_lanes_and_rung() {
        let mut cal = Calendar::new();
        let slow = cal.lane(50.0);
        let fast = cal.lane(5.0);
        assert_eq!(cal.pop_until(t(1.0e9)), None);
        // Lanes only: the earliest head, not the first lane's.
        cal.schedule_lane(slow, 0);
        refuses_before(&mut cal, 50.0);
        cal.schedule_lane(fast, 1);
        refuses_before(&mut cal, 5.0);
        assert_eq!(drain(&mut cal), vec![1, 0]);
        // Rung only.
        cal.schedule(t(70.0), 2);
        refuses_before(&mut cal, 70.0);
        // Both, the lane head behind the rung's, then ahead of it.
        cal.schedule_lane(slow, 3);
        refuses_before(&mut cal, 70.0);
        cal.schedule_lane(fast, 4);
        refuses_before(&mut cal, 55.0);
        // Then an earlier schedule, and a tombstone in front of it all.
        cal.schedule(t(52.0), 5);
        refuses_before(&mut cal, 52.0);
        let dead = cal.schedule(t(51.0), -1);
        cal.cancel(dead);
        refuses_before(&mut cal, 52.0);
        assert_eq!(cal.now(), t(50.0));
        assert_eq!(drain(&mut cal), vec![5, 4, 2, 3]);
    }

    #[test]
    fn lane_only_calendar_drains_and_reports_empty() {
        let mut cal = Calendar::new();
        let lanes = [cal.lane(3.0), cal.lane(1.0), cal.lane(2.0)];
        assert!(cal.is_empty() && cal.pop().is_none());
        for round in 0..4 {
            for (i, &lane) in lanes.iter().enumerate() {
                cal.schedule_lane(lane, 10 * round + i);
            }
            assert!(!cal.is_empty());
            assert_eq!(cal.len(), 3);
            assert_eq!(
                drain(&mut cal),
                vec![10 * round + 1, 10 * round + 2, 10 * round]
            );
            assert!(cal.is_empty() && cal.pop().is_none());
        }
        assert_eq!(cal.slot_capacity(), 0, "lane entries take no slab slot");
    }

    /// A `-0.0` delay on a clock standing at `-0.0` gives a `-0.0` firing
    /// time, which must tie with `0.0` (FIFO) and not sort behind every
    /// positive time, as its bit pattern would.
    #[test]
    fn negative_zero_lane_delay() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(-0.0), "start");
        assert_eq!(cal.pop().unwrap().1, "start");
        assert!(cal.now().millis().is_sign_negative());
        let lane = cal.lane(-0.0);
        cal.schedule(t(0.0), "filed a");
        cal.schedule_lane(lane, "lane b");
        cal.schedule(t(1.0), "later");
        cal.schedule(SimTime::new(-0.0), "filed c");
        assert_eq!(cal.pop_until(t(0.0)).unwrap().1, "filed a");
        assert_eq!(cal.pop_until(t(0.0)).unwrap().1, "lane b");
        assert_eq!(drain(&mut cal), vec!["filed c", "later"]);
    }

    #[test]
    #[should_panic(expected = "lane delay must be finite and non-negative")]
    fn rejects_a_negative_lane_delay() {
        Calendar::<()>::new().lane(-1.0);
    }

    /// Tombstones are a matter of the filed tiers: cancelling around busy
    /// lanes kills exactly the cancelled events, and `len` counts lane
    /// entries, live filed entries and unreaped tombstones alike.
    #[test]
    fn cancelling_filed_entries_while_lanes_are_busy() {
        let mut cal = Calendar::new();
        let lane = cal.lane(0.5);
        let tokens: Vec<_> = (0..30).map(|i| cal.schedule(t(f64::from(i)), i)).collect();
        tokens.iter().step_by(3).for_each(|tok| cal.cancel(*tok));
        assert_eq!(cal.len(), 30, "tombstones count until reaped");
        // Every filed event puts two on the lane, half a millisecond out.
        let mut fired = Vec::new();
        while let Some((at, e)) = cal.pop() {
            fired.push(e);
            if e < 100 {
                assert_eq!(at, t(f64::from(e)));
                cal.schedule_lane(lane, 100 + e);
                cal.schedule_lane(lane, 200 + e);
            }
            if e == 10 {
                cal.cancel(tokens[20]);
                cal.cancel(tokens[1]); // fired long ago: a no-op
                assert_eq!(cal.len(), 19 + 2, "filed 11..30, two lane entries");
            }
        }
        let expect: Vec<_> = (0..30)
            .filter(|e| e % 3 != 0 && *e != 20)
            .flat_map(|e| [e, 100 + e, 200 + e])
            .collect();
        assert_eq!(fired, expect);
        assert!(cal.is_empty());
    }

    /// The width rule measures the rung's own traffic. The filed stream
    /// of `warmed` with three lane events beside each filed one must
    /// open the same windows with the same widths: counted in, the lane
    /// traffic would quadruple the rate and quarter the bucket width.
    #[test]
    fn lane_traffic_stays_out_of_the_width_rule() {
        let (plain, _) = warmed();
        let mut cal = Calendar::new();
        let lane = cal.lane(0.25);
        cal.schedule(t(0.0), 0);
        let mut lane_pops = 0;
        loop {
            let (_, e) = cal.pop().expect("one filed event is always pending");
            if e < 0 {
                lane_pops += 1;
                continue;
            }
            if e == 5_000 {
                break;
            }
            cal.schedule(t(f64::from(e + 1)), e + 1);
            (0..3).for_each(|_| cal.schedule_lane(lane, -1));
            if e == 4_999 {
                // `warmed` stops here, its last event still pending.
                assert_eq!(
                    (cal.start, cal.inv_width, cal.next_bucket),
                    (plain.start, plain.inv_width, plain.next_bucket)
                );
                assert_eq!(cal.inv_width, 1.0 / PER_BUCKET);
            }
        }
        assert_eq!(lane_pops, 3 * 5_000);
    }
}

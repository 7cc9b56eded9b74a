//! Per-item protocol state, sized by what live runs can observe.
//!
//! Every protocol here keeps something per data item: a commit stamp
//! (certification), a read/write timestamp pair (T/O), a version chain
//! header (MVTO), a lock-entry index (the lock table). Most of it stops
//! mattering soon after it is written: once every live run is younger
//! than an item's stamps, the item behaves exactly as if it had never
//! been touched, and an unlocked item holds no lock entry. So the table
//! holds the items live runs can still tell apart from untouched ones,
//! and its size follows the live runs, not `db_size` — a database of 10⁶
//! or 10¹² items costs what its live working set costs.
//!
//! # Layout
//!
//! Open addressing with linear probing over one power-of-two array of
//! `(item, value)` pairs, load at most ½, [`EMPTY`] as the free key. A
//! read of an absent item returns `V::default()`, the state of an
//! untouched item.
//!
//! The home slot is the top bits of `item · 2⁶⁴/φ` (Fibonacci hashing: a
//! multiply and a shift). It has to serve two kinds of id set:
//!
//! - *Dense ids*, a database smaller than the table (every catalog spec
//!   at its default size, the `highconflict` benchmark cells): Fibonacci
//!   hashing spreads consecutive ids evenly, so ids `0..n` take distinct
//!   slots for `n` up to 45 % of the capacity (checked for every capacity
//!   up to 2²⁸). That is the table's own load bound, so such a database
//!   reads as a direct array plus one key compare.
//! - *Hot spots* (`workload.access_skew` > 0): the Zipf sampler returns
//!   rank − 1, so the hot items are the ids `0..L`, scattered among cold
//!   ids from a database larger than the table.
//!
//! Masking the id (`item & mask`) serves the first as well and fails the
//! second: it packs the hot ids into one run of slots from 0, and every
//! cold item whose home falls inside walks to the end of the run. On the
//! 10⁶-item `lowconflict` cells at skew 0.8–1.1 that measured 6–23 extra
//! slots per lookup for certification, T/O and MVTO, against 0.5 at skew
//! 0; the multiply reads 0.1–0.5 there and the same 0.5 at skew 0. On the
//! dense cells the multiply costs little speed (mask and multiply within
//! 3 % of each other on every cell, rotating order, a same-binary A/A
//! pair reading 0.98) and a little memory: it spreads a dense database
//! over every page of the table where the mask left the tail untouched
//! (MVTO's `highconflict` cell peaks 0.15 MB higher). Switching between
//! the two, masking until the first id past the capacity, read 0.99–1.03
//! of the multiply alone on the six dense cells (3–7 of 10 pairs): no
//! speed for a second path.
//!
//! # Sweeping
//!
//! When an insert would take the table past half load, the owning
//! protocol names its *horizon* (for the timestamp protocols, the oldest
//! live run) and which entries are dead under it; the table drops those
//! in place, in one scan that starts just past a free slot. Every entry
//! is judged once, and each survivor shifts back to the first free slot
//! from its home, which the scan has always passed already: no probe run
//! crosses the free slot the scan started from. If the table is still
//! more than 1/16 full it doubles: the survivors wait in a buffer of
//! exactly their number while the array is reallocated, and the buffer
//! is freed. So the capacity stays within a fixed multiple of the peak
//! live entries (at most 32×, or the first allocation), and no buffer
//! outlives a sweep. A sweep scans the whole array, but the next one is
//! at least a quarter of the capacity in inserts away, so the cost per
//! insert is constant; once the capacity has settled nothing allocates.
//! The lock table needs no horizon: it removes an item the moment it is
//! unlocked (backward-shift deletion), so its sweeps find nothing dead
//! and only grow the table.
//!
//! Tried and dropped: doubling only when a sweep leaves the table more
//! than ⅛ full. The dense `highconflict` cells then keep between 1/16 and
//! ⅛ of it live and sweep every few hundred commits; certification there
//! read 6–7 % fewer events/s (9 of 10 alternating pairs), the other
//! timestamp cells no difference. The lock table's index replaced a
//! `std::HashMap` and reads 5–12 % more events/s (see `locktable.rs`).

/// Key of a free slot. Item ids are below `db_size`, so none reaches it.
const EMPTY: u64 = u64::MAX;

/// 2⁶⁴/φ, odd: the multiplier of the home slot.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where the probe for `item` starts in a table of `2^(64 - shift)` slots.
#[inline]
fn home(item: u64, shift: u32) -> usize {
    (item.wrapping_mul(FIBONACCI) >> shift) as usize
}

/// Slots in a fresh table. Databases of up to half as many items (the
/// default `db_size` is 2000) never sweep and never grow, so short runs
/// pay one allocation.
const INITIAL_CAPACITY: usize = 1 << 12;

/// Open-addressing `item → V` table whose entries a sweep drops once
/// they are dead.
#[derive(Debug)]
pub(super) struct ItemTable<V> {
    /// `(item, value)` pairs; [`EMPTY`] keys are free. Power-of-two length.
    slots: Vec<(u64, V)>,
    /// `slots.len() - 1`.
    mask: usize,
    /// `64 - log2(slots.len())`: the home slot is the top bits of a product.
    shift: u32,
    /// Occupied slots.
    len: usize,
}

impl<V: Copy + Default> ItemTable<V> {
    /// An empty table of the default first capacity.
    pub(super) fn new() -> Self {
        Self::with_capacity(INITIAL_CAPACITY)
    }

    /// An empty table of `capacity` slots (a power of two, ≥ 2).
    pub(super) fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity >= 2 && capacity.is_power_of_two(),
            "capacity {capacity}"
        );
        ItemTable {
            slots: vec![(EMPTY, V::default()); capacity], // alc-lint: allow(hot-alloc, reason="construction-time table")
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
        }
    }

    /// The slot holding `item`, or the free slot where it would go.
    #[inline]
    fn probe(&self, item: u64) -> usize {
        debug_assert_ne!(item, EMPTY, "item id collides with the free key");
        let mut i = home(item, self.shift);
        loop {
            let key = self.slots[i].0;
            if key == item || key == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The value of `item`; `V::default()` if absent.
    #[inline]
    pub(super) fn get(&self, item: u64) -> V {
        let (key, value) = self.slots[self.probe(item)];
        if key == item {
            value
        } else {
            V::default()
        }
    }

    /// The value of `item`, inserted as `V::default()` if absent. An
    /// insert that would pass half load first sweeps: it computes
    /// `horizon()` once and drops every entry `dead(value, horizon)` says
    /// no live run can tell from an untouched item.
    #[inline]
    pub(super) fn entry(
        &mut self,
        item: u64,
        horizon: impl FnOnce() -> u64,
        mut dead: impl FnMut(&V, u64) -> bool,
    ) -> &mut V {
        let mut i = self.probe(item);
        if self.slots[i].0 != item {
            if 2 * (self.len + 1) > self.slots.len() {
                let h = horizon();
                self.sweep(|v| dead(v, h));
                i = self.probe(item);
            }
            self.slots[i] = (item, V::default());
            self.len += 1;
        }
        &mut self.slots[i].1
    }

    /// Removes `item`, moving the later entries of its probe run back so
    /// the run keeps no hole (backward-shift deletion).
    pub(super) fn remove(&mut self, item: u64) {
        let mut hole = self.probe(item);
        if self.slots[hole].0 != item {
            return;
        }
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let key = self.slots[j].0;
            if key == EMPTY {
                break;
            }
            // The entry at `j` fills the hole unless its home slot lies
            // cyclically in (hole, j].
            let start = home(key, self.shift);
            if j.wrapping_sub(start) & self.mask >= j.wrapping_sub(hole) & self.mask {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY, V::default());
    }

    /// Drops the dead entries in place, then doubles the table if the
    /// survivors fill more than 1/16 of it. `dead` sees every entry
    /// exactly once.
    #[cold]
    #[inline(never)]
    fn sweep(&mut self, mut dead: impl FnMut(&V) -> bool) {
        let capacity = self.slots.len();
        // Scan from just past a free slot (load ≤ ½, so there is one). No
        // probe run crosses that slot, so an entry's home lies between it
        // and the entry in scan order, and every slot from the home up to
        // the entry has been scanned: the first free one among them is
        // where a survivor shifts back to.
        let free = (0..capacity)
            .find(|&i| self.slots[i].0 == EMPTY)
            .expect("a table at most half full has a free slot");
        for step in 1..capacity {
            let i = (free + step) & self.mask;
            let (item, value) = self.slots[i];
            if item == EMPTY {
                continue;
            }
            self.slots[i] = (EMPTY, V::default());
            if dead(&value) {
                self.len -= 1;
            } else {
                let j = self.probe(item);
                self.slots[j] = (item, value);
            }
        }
        if 16 * self.len > capacity {
            self.grow();
        }
    }

    /// Doubles the array. The entries wait in a buffer of exactly their
    /// number while the array is reallocated, and the buffer goes with
    /// the call.
    fn grow(&mut self) {
        let mut entries = Vec::with_capacity(self.len);
        entries.extend(self.slots.iter().filter(|&&(item, _)| item != EMPTY));
        let capacity = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(capacity, (EMPTY, V::default()));
        self.mask = capacity - 1;
        self.shift = 64 - capacity.trailing_zeros();
        for (item, value) in entries {
            let i = self.probe(item);
            self.slots[i] = (item, value);
        }
    }

    /// Slots allocated (free ones included).
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots, dead entries a sweep has not reached included.
    pub(super) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing is ever dead.
    fn keep(_: &u64, _: u64) -> bool {
        false
    }

    #[test]
    fn absent_items_read_as_default_and_inserts_stick() {
        let mut t: ItemTable<u64> = ItemTable::with_capacity(8);
        assert_eq!(t.get(5), 0);
        *t.entry(5, || 0, keep) = 50;
        *t.entry(1 << 40, || 0, keep) = 7;
        assert_eq!((t.get(5), t.get(1 << 40), t.get(13)), (50, 7, 0));
        *t.entry(5, || 0, keep) += 1;
        assert_eq!((t.get(5), t.len()), (51, 2));
    }

    /// The `n`-th item (from 0) whose home is `slot` in a table of
    /// `capacity` slots.
    fn with_home(slot: usize, n: usize, capacity: usize) -> u64 {
        let shift = 64 - capacity.trailing_zeros();
        (0u64..)
            .filter(|&item| home(item, shift) == slot)
            .nth(n)
            .expect("an odd multiplier hits every slot")
    }

    #[test]
    fn probes_wrap_around_the_end() {
        let mut t: ItemTable<u64> = ItemTable::with_capacity(8);
        // All three share home slot 7: the second and third wrap to 0, 1.
        let [a, b, c] = [0, 1, 2].map(|n| with_home(7, n, 8));
        for (n, item) in [a, b, c].into_iter().enumerate() {
            *t.entry(item, || 0, keep) = n as u64 + 1;
        }
        assert_eq!([t.slots[7].0, t.slots[0].0, t.slots[1].0], [a, b, c]);
        let d = with_home(7, 3, 8);
        assert_eq!((t.get(a), t.get(b), t.get(c), t.get(d)), (1, 2, 3, 0));
        *t.entry(c, || 0, keep) = 30;
        assert_eq!((t.get(c), t.len()), (30, 3));
    }

    /// Removal keeps every other entry reachable: entries behind the hole
    /// move back unless that would put them before their home slot.
    #[test]
    fn removal_leaves_no_hole_in_a_probe_run() {
        let mut t: ItemTable<u64> = ItemTable::with_capacity(16);
        // Slots 14, 15, 0, 1, 2 hold homes 14, 14, 15, 1, 0 (wrapping).
        let [a, b, c, d, e] =
            [(14, 0), (14, 1), (15, 0), (1, 0), (0, 0)].map(|(slot, n)| with_home(slot, n, 16));
        for item in [a, b, c, d, e] {
            *t.entry(item, || 0, keep) = item + 100;
        }
        let keys = |t: &ItemTable<u64>| [14, 15, 0, 1, 2].map(|i| t.slots[i].0);
        assert_eq!(keys(&t), [a, b, c, d, e]);
        t.remove(a);
        // b and c move back, d stays at home, e moves into slot 0.
        assert_eq!(keys(&t), [b, c, e, d, EMPTY]);
        for item in [b, c, d, e] {
            assert_eq!(t.get(item), item + 100, "item {item}");
        }
        assert_eq!((t.get(a), t.len()), (0, 4));
        t.remove(a);
        t.remove(d);
        assert_eq!((t.get(d), t.get(e), t.len()), (0, e + 100, 3));
        // Removal under random churn against a map.
        let mut t: ItemTable<u64> = ItemTable::with_capacity(8);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let item = x % 64 * if x >> 40 & 1 == 0 { 1 } else { 16 };
            if x >> 8 & 1 == 0 {
                *t.entry(item, || 0, keep) = step;
                model.insert(item, step);
            } else {
                t.remove(item);
                model.remove(&item);
            }
            assert_eq!(t.len(), model.len());
        }
        for item in 0..64 * 16 {
            assert_eq!(
                t.get(item),
                model.get(&item).copied().unwrap_or(0),
                "item {item}"
            );
        }
    }

    /// Ids `0..n` take distinct home slots for `n` up to 45 % of the
    /// capacity, so a database within the load bound never probes.
    #[test]
    fn a_database_smaller_than_the_table_is_one_slot_per_item() {
        for bits in 1..=20 {
            let capacity = 1usize << bits;
            let mut taken = vec![false; capacity];
            for item in 0..(capacity * 45 / 100) as u64 {
                let slot = home(item, 64 - bits);
                assert!(!taken[slot], "{capacity} slots: item {item} collides");
                taken[slot] = true;
            }
        }
        let mut t: ItemTable<u64> = ItemTable::with_capacity(64);
        for item in (0..28).rev() {
            *t.entry(item, || 0, keep) = item + 100;
        }
        for item in 0..28 {
            assert_eq!(t.slots[home(item, 58)], (item, item + 100));
        }
    }

    /// A hot spot is ids `0..L` (the Zipf sampler's ranks); in a table
    /// smaller than the database the cold ids around it must not pile
    /// into one run of slots behind it.
    #[test]
    fn a_hot_prefix_and_cold_ids_keep_probes_short() {
        let mut t: ItemTable<u64> = ItemTable::with_capacity(1 << 12);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut cold = Vec::new();
        for hot in 0..1024 {
            *t.entry(hot, || 0, keep) = 1;
        }
        while cold.len() < 1024 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let item = 1024 + x % 1_000_000;
            if t.get(item) == 0 {
                *t.entry(item, || 0, keep) = 1;
                cold.push(item);
            }
        }
        let steps: usize = (0..1024)
            .chain(cold)
            .map(|item| {
                let slot = t.probe(item);
                slot.wrapping_sub(home(item, t.shift)) & t.mask
            })
            .sum();
        // Half load: about 600 here. The identity mask reads 160 000, 78
        // slots a lookup.
        assert!(steps < 2048, "{steps} extra steps over 2048 lookups");
    }

    #[test]
    fn a_sweep_drops_the_dead_and_keeps_the_live_in_place() {
        let mut t: ItemTable<u64> = ItemTable::with_capacity(8);
        let horizons = std::cell::Cell::new(0);
        let horizon = || {
            horizons.set(horizons.get() + 1);
            10
        };
        // Stamps 1, 2, 11, 12: half load.
        for (item, stamp) in [(3, 1), (4, 2), (5, 11), (6, 12)] {
            *t.entry(item, horizon, |&v, h| v < h) = stamp;
        }
        assert_eq!((t.len(), horizons.get()), (4, 0));
        // The fifth insert sweeps: 3 and 4 go, and 2 of 8 slots left
        // full is more than 1/16, so the table doubles.
        *t.entry(7, horizon, |&v, h| v < h) = 13;
        assert_eq!((t.len(), t.capacity(), horizons.get()), (3, 16, 1));
        assert_eq!(
            (t.get(3), t.get(4), t.get(5), t.get(6), t.get(7)),
            (0, 0, 11, 12, 13)
        );
        // A sweep that leaves at most 1/16 keeps the capacity.
        let mut t: ItemTable<u64> = ItemTable::with_capacity(32);
        for item in 0..16 {
            *t.entry(item, || 0, keep) = item;
        }
        *t.entry(99, || 15, |&v, h| v < h) = 99;
        assert_eq!((t.len(), t.capacity()), (2, 32));
        assert_eq!((t.get(15), t.get(99), t.get(14)), (15, 99, 0));
    }

    /// A sweep in place keeps a probe run that wraps past the end
    /// reachable: when the dead entry in the last slot goes, the survivor
    /// in slot 0 whose home is that last slot moves back into it.
    #[test]
    fn a_sweep_in_place_keeps_a_wrapped_run_reachable() {
        let mut t: ItemTable<u64> = ItemTable::with_capacity(16);
        let [dead, survivor] = [0, 1].map(|n| with_home(15, n, 16));
        *t.entry(dead, || 0, keep) = 1;
        *t.entry(survivor, || 0, keep) = 20;
        for slot in 3..9 {
            *t.entry(with_home(slot, 0, 16), || 0, keep) = 2;
        }
        assert_eq!([t.slots[15].0, t.slots[0].0], [dead, survivor]);
        // Half load: this insert sweeps. One survivor is at most 1/16 of
        // the slots, so the table keeps its size and no rehash on growth
        // could hide an entry the sweep made unreachable.
        let fresh = with_home(10, 0, 16);
        *t.entry(fresh, || 10, |&v, h| v < h) = 30;
        assert_eq!((t.len(), t.capacity()), (2, 16));
        assert_eq!(t.slots[15].0, survivor);
        assert_eq!((t.get(survivor), t.get(fresh), t.get(dead)), (20, 30, 0));
    }

    /// Live entries slide through a 2⁴⁰-item key space: the capacity
    /// follows the peak live count, never the key space.
    #[test]
    fn capacity_is_bounded_by_the_live_entries_not_the_key_space() {
        for window in [10u64, 300, 5_000] {
            let mut t: ItemTable<u64> = ItemTable::new();
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for step in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Inserted at `step`, dead once `window` steps old.
                *t.entry(x % (1 << 40), || step, |&born, now| born + window <= now) = step;
            }
            let bound = INITIAL_CAPACITY.max(32 * window as usize);
            assert!(
                t.capacity() <= bound,
                "window {window}: {} slots, bound {bound}",
                t.capacity()
            );
            assert!(t.len() <= t.capacity() / 2);
        }
    }
}

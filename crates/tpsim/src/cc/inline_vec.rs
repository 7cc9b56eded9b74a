//! A tiny inline-first vector for lock-table hot-path collections.
//!
//! Lock entries overwhelmingly hold one or two holders ("most data items
//! are locked by a single transaction; shared read groups are small"), so
//! the first `N` elements live inline in the entry itself — no pointer
//! chase, no allocation. Rare larger groups spill into a `Vec` whose
//! capacity is retained when the entry is recycled through the arena, so
//! steady-state traffic stops touching the allocator entirely.

/// A vector of `Copy` elements whose first `N` live inline.
#[derive(Debug, Clone)]
pub(crate) struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(), // alc-lint: allow(hot-alloc, reason="empty spill vec is allocation-free; spill only allocates past the inline capacity")
        }
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i` (panics when out of bounds).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i < N {
            self.inline[i]
        } else {
            self.spill[i - N]
        }
    }

    /// Overwrites element `i` (panics when out of bounds).
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: T) {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i < N {
            self.inline[i] = v;
        } else {
            self.spill[i - N] = v;
        }
    }

    /// Appends an element; spills past `N`.
    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            // May allocate only while the spill grows beyond every size
            // this entry has seen before; capacity is retained by `clear`.
            let spill_len = self.len - N;
            if spill_len < self.spill.len() {
                self.spill[spill_len] = v;
            } else {
                self.spill.push(v);
            }
        }
        self.len += 1;
    }

    /// Iterates the elements by value, in insertion order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Keeps only the elements matching the predicate, preserving order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut w = 0;
        for r in 0..self.len {
            let v = self.get(r);
            if keep(&v) {
                if w < N {
                    self.inline[w] = v;
                } else {
                    self.spill[w - N] = v;
                }
                w += 1;
            }
        }
        self.len = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_inline_and_spill() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.len(), 5);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        v.set(4, 40);
        assert_eq!(v.get(4), 40);
        v.set(1, 10);
        assert_eq!(v.get(1), 10);
    }

    #[test]
    fn retain_preserves_order_across_the_boundary() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..6 {
            v.push(i);
        }
        v.retain(|&x| x % 2 == 0);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 2, 4]);
        // 4 moved from the spill into the inline region.
        assert_eq!(v.get(2), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_len_panics() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.get(1);
    }
}

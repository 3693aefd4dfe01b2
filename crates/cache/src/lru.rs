//! An arena-based intrusive doubly-linked LRU list.
//!
//! Entries live in a caller-owned arena (`Vec`); the list stores only
//! indices, so there is no per-node allocation and no unsafe code.

/// Index type into the arena. `usize::MAX` encodes "none".
pub type SlotId = usize;

const NONE: SlotId = usize::MAX;

/// Link fields embedded in each arena entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Links {
    prev: SlotId,
    next: SlotId,
}

impl Default for Links {
    fn default() -> Self {
        Self {
            prev: NONE,
            next: NONE,
        }
    }
}

impl Links {
    /// Fresh, unlinked links.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A doubly-linked LRU list over an external arena.
///
/// The caller owns the entries and hands this struct mutable access to
/// each entry's [`Links`] through an accessor closure on every
/// operation — keeping the list reusable for any arena layout.
///
/// Front = most recently used; back = least recently used.
///
/// # Examples
///
/// ```
/// use memlat_cache::lru::{Links, LruList};
///
/// let mut links = vec![Links::new(); 3];
/// let mut lru = LruList::new();
/// for slot in 0..3 {
///     lru.push_front(slot, &mut links);
/// }
/// assert_eq!(lru.back(), Some(0));
/// lru.touch(0, &mut links); // 0 becomes most recent
/// assert_eq!(lru.back(), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruList {
    head: SlotId,
    tail: SlotId,
    len: usize,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }

    /// Number of linked entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Most recently used slot.
    #[must_use]
    pub fn front(&self) -> Option<SlotId> {
        (self.head != NONE).then_some(self.head)
    }

    /// Least recently used slot.
    #[must_use]
    pub fn back(&self) -> Option<SlotId> {
        (self.tail != NONE).then_some(self.tail)
    }

    /// Links `slot` at the front (most recently used).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of the arena's bounds.
    pub fn push_front(&mut self, slot: SlotId, links: &mut [Links]) {
        links[slot] = Links {
            prev: NONE,
            next: self.head,
        };
        if self.head != NONE {
            links[self.head].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
        self.len += 1;
    }

    /// Unlinks `slot` from wherever it is.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds. Unlinking a slot that is not in
    /// the list corrupts the length — callers must track membership.
    pub fn unlink(&mut self, slot: SlotId, links: &mut [Links]) {
        let Links { prev, next } = links[slot];
        if prev != NONE {
            links[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            links[next].prev = prev;
        } else {
            self.tail = prev;
        }
        links[slot] = Links::default();
        self.len -= 1;
    }

    /// Moves `slot` to the front (a cache hit).
    pub fn touch(&mut self, slot: SlotId, links: &mut [Links]) {
        if self.head == slot {
            return;
        }
        self.unlink(slot, links);
        self.push_front(slot, links);
    }

    /// Unlinks and returns the least recently used slot.
    pub fn pop_back(&mut self, links: &mut [Links]) -> Option<SlotId> {
        let victim = self.back()?;
        self.unlink(victim, links);
        Some(victim)
    }

    /// Iterates from most to least recently used (O(len)).
    #[cfg(test)]
    fn iter_order(&self, links: &[Links]) -> Vec<SlotId> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NONE {
            out.push(cur);
            cur = links[cur].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (Vec<Links>, LruList) {
        (vec![Links::new(); n], LruList::new())
    }

    #[test]
    fn push_and_pop_order() {
        let (mut links, mut lru) = setup(4);
        for s in 0..4 {
            lru.push_front(s, &mut links);
        }
        assert_eq!(lru.len(), 4);
        assert_eq!(lru.front(), Some(3));
        // Pops come back in insertion order (LRU first).
        for expect in 0..4 {
            assert_eq!(lru.pop_back(&mut links), Some(expect));
        }
        assert!(lru.is_empty());
        assert_eq!(lru.pop_back(&mut links), None);
    }

    #[test]
    fn touch_promotes() {
        let (mut links, mut lru) = setup(3);
        for s in 0..3 {
            lru.push_front(s, &mut links);
        }
        lru.touch(0, &mut links);
        assert_eq!(lru.iter_order(&links), vec![0, 2, 1]);
        assert_eq!(lru.back(), Some(1));
        // Touching the head is a no-op.
        lru.touch(0, &mut links);
        assert_eq!(lru.iter_order(&links), vec![0, 2, 1]);
    }

    #[test]
    fn unlink_middle() {
        let (mut links, mut lru) = setup(3);
        for s in 0..3 {
            lru.push_front(s, &mut links);
        }
        lru.unlink(1, &mut links);
        assert_eq!(lru.iter_order(&links), vec![2, 0]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn single_element_edge_cases() {
        let (mut links, mut lru) = setup(1);
        lru.push_front(0, &mut links);
        assert_eq!(lru.front(), lru.back());
        lru.unlink(0, &mut links);
        assert!(lru.is_empty());
        assert_eq!(lru.front(), None);
    }

    #[test]
    fn interleaved_operations_keep_consistency() {
        let (mut links, mut lru) = setup(64);
        let mut expect: std::collections::VecDeque<usize> = Default::default();
        for s in 0..64 {
            lru.push_front(s, &mut links);
            expect.push_front(s);
        }
        for step in 0..200 {
            match step % 3 {
                0 => {
                    let s = (step * 7) % 64;
                    if expect.contains(&s) {
                        lru.touch(s, &mut links);
                        expect.retain(|&x| x != s);
                        expect.push_front(s);
                    }
                }
                1 => {
                    if let Some(v) = lru.pop_back(&mut links) {
                        assert_eq!(Some(v), expect.pop_back());
                        lru.push_front(v, &mut links);
                        expect.push_front(v);
                    }
                }
                _ => {
                    assert_eq!(lru.iter_order(&links), Vec::from(expect.clone()));
                }
            }
        }
    }
}

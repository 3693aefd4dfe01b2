//! The keyed store: memcached's get/set/delete over slab + LRU.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::bytes::Bytes;

use crate::lru::{Links, LruList, SlotId};
use crate::slab::{Allocation, SlabAllocator, SlabConfig};
use crate::KeyId;

/// Store configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Slab allocator configuration (memory limit, growth factor, …).
    pub slab: SlabConfig,
    /// Per-item metadata overhead added to the value size when choosing a
    /// size class (key + item header; memcached's is ~48–56 B plus the
    /// key).
    pub item_overhead: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            slab: SlabConfig::default(),
            item_overhead: 80,
        }
    }
}

impl StoreConfig {
    /// A default-configured store with the given memory budget.
    #[must_use]
    pub fn with_memory(bytes: usize) -> Self {
        Self {
            slab: SlabConfig {
                memory_limit: bytes,
                ..SlabConfig::default()
            },
            ..Self::default()
        }
    }
}

/// Errors the store can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The item (value + overhead) exceeds the largest slab chunk.
    ItemTooLarge {
        /// The offending total item size.
        size: usize,
    },
    /// The target size class has neither free chunks, page budget, nor
    /// anything to evict.
    OutOfMemory,
    /// Configuration rejected by the slab allocator.
    Config(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::ItemTooLarge { size } => {
                write!(f, "item of {size} bytes exceeds the largest chunk")
            }
            StoreError::OutOfMemory => write!(f, "no chunk available and nothing to evict"),
            StoreError::Config(m) => write!(f, "invalid store configuration: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Counters the store maintains (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups (absent or expired).
    pub misses: u64,
    /// Lookups that found an expired item (subset of `misses`).
    pub expired: u64,
    /// Completed `set` operations.
    pub sets: u64,
    /// Items evicted by LRU pressure.
    pub evictions: u64,
    /// Explicit deletions.
    pub deletes: u64,
}

impl StoreStats {
    /// Observed miss ratio `misses/(hits+misses)`; 0 with no lookups.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Result of a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The key was cached (and unexpired); carries the stored value size
    /// and the payload when one was stored.
    Hit {
        /// Value size in bytes as recorded at `set` time.
        value_size: usize,
        /// Stored payload, if `set_with_payload` was used.
        payload: Option<Bytes>,
    },
    /// The key was absent or expired.
    Miss,
}

impl Lookup {
    /// Whether the lookup hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit { .. })
    }

    /// Whether the lookup missed.
    #[must_use]
    pub fn is_miss(&self) -> bool {
        matches!(self, Lookup::Miss)
    }
}

/// The store index's hasher: one folded 64×64→128-bit multiply per
/// [`KeyId`], in place of std's SipHash.
///
/// Two properties make the weak hash safe here. No code iterates the
/// index, so its hash order can never reach an output. And its keys are
/// never attacker-chosen: the simulator draws them from a popularity
/// law, and `memlat-server` stores the ids its shard interner assigns,
/// while the client's key bytes are hashed by SipHash in that interner.
/// Flooding one bucket therefore gives a client no HashDoS lever.
#[derive(Debug, Default, Clone, Copy)]
struct KeyIdHasher(u64);

impl Hasher for KeyIdHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        // Fold the high half of the product into the low half, so the
        // bucket bits depend on every key bit.
        let p = u128::from(key ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Entry {
    key: KeyId,
    value_size: usize,
    class: usize,
    expires_at: Option<f64>,
    payload: Option<Bytes>,
    live: bool,
}

/// A slab-allocated, per-class-LRU key-value store — one simulated
/// memcached server's memory.
///
/// Time is external (`now` parameters), matching the simulator's virtual
/// clock.
///
/// # Examples
///
/// ```
/// use memlat_cache::{Store, StoreConfig};
///
/// let mut s = Store::new(StoreConfig::with_memory(8 << 20)).unwrap();
/// s.set(1, 100, Some(10.0), 0.0).unwrap(); // expires at t = 10
/// assert!(s.get(1, 5.0).is_hit());
/// assert!(s.get(1, 11.0).is_miss()); // expired
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    slabs: SlabAllocator,
    index: HashMap<KeyId, SlotId, BuildHasherDefault<KeyIdHasher>>,
    arena: Vec<Entry>,
    /// LRU link fields, parallel to `arena` (kept separate so list
    /// operations never touch — or copy — the entries themselves).
    links: Vec<Links>,
    free_slots: Vec<SlotId>,
    lrus: Vec<LruList>,
    item_overhead: usize,
    stats: StoreStats,
}

impl Store {
    /// Creates an empty store.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Config`] when the slab configuration is
    /// invalid.
    pub fn new(config: StoreConfig) -> Result<Self, StoreError> {
        let slabs = SlabAllocator::new(config.slab).map_err(StoreError::Config)?;
        let lrus = vec![LruList::new(); slabs.class_count()];
        Ok(Self {
            slabs,
            index: HashMap::default(),
            arena: Vec::new(),
            links: Vec::new(),
            free_slots: Vec::new(),
            lrus,
            item_overhead: config.item_overhead,
            stats: StoreStats::default(),
        })
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of live items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The underlying slab allocator (for introspection).
    #[must_use]
    pub fn slabs(&self) -> &SlabAllocator {
        &self.slabs
    }

    /// Looks up `key` at time `now`.
    pub fn get(&mut self, key: KeyId, now: f64) -> Lookup {
        let Some(&slot) = self.index.get(&key) else {
            self.stats.misses += 1;
            return Lookup::Miss;
        };
        let expired = self.arena[slot].expires_at.is_some_and(|t| now >= t);
        if expired {
            self.remove_slot(slot);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return Lookup::Miss;
        }
        let class = self.arena[slot].class;
        self.lrus[class].touch(slot, &mut self.links);
        self.stats.hits += 1;
        let e = &self.arena[slot];
        Lookup::Hit {
            value_size: e.value_size,
            payload: e.payload.clone(),
        }
    }

    /// Stores `key` with a value of `value_size` bytes and optional
    /// absolute expiry time.
    ///
    /// # Errors
    ///
    /// [`StoreError::ItemTooLarge`] when the item exceeds the largest
    /// chunk; [`StoreError::OutOfMemory`] when nothing can be evicted.
    pub fn set(
        &mut self,
        key: KeyId,
        value_size: usize,
        expires_at: Option<f64>,
        now: f64,
    ) -> Result<(), StoreError> {
        self.set_impl(key, value_size, None, expires_at, now)
    }

    /// Stores `key` with an actual payload (the payload's length is the
    /// value size).
    ///
    /// # Errors
    ///
    /// Same as [`Store::set`].
    pub fn set_with_payload(
        &mut self,
        key: KeyId,
        payload: Bytes,
        expires_at: Option<f64>,
        now: f64,
    ) -> Result<(), StoreError> {
        let size = payload.len();
        self.set_impl(key, size, Some(payload), expires_at, now)
    }

    fn set_impl(
        &mut self,
        key: KeyId,
        value_size: usize,
        payload: Option<Bytes>,
        expires_at: Option<f64>,
        _now: f64,
    ) -> Result<(), StoreError> {
        // Replace semantics: drop any existing copy first, also when the
        // new value is then refused, so a failed set never leaves the
        // old value readable (memcached unlinks it on a failed SET too).
        if let Some(&slot) = self.index.get(&key) {
            self.remove_slot(slot);
        }
        let item_size = value_size + self.item_overhead;
        let class = self
            .slabs
            .class_for(item_size)
            .ok_or(StoreError::ItemTooLarge { size: item_size })?;

        // Acquire a chunk, evicting from this class's LRU if needed.
        loop {
            match self.slabs.allocate(class) {
                Allocation::Reused | Allocation::NewPage => break,
                Allocation::NeedsEviction => {
                    let victim = self.lrus[class].pop_back(&mut self.links);
                    match victim {
                        Some(slot) => {
                            let vkey = self.arena[slot].key;
                            self.index.remove(&vkey);
                            self.arena[slot].live = false;
                            self.free_slots.push(slot);
                            self.slabs.release(class);
                            self.stats.evictions += 1;
                        }
                        None => return Err(StoreError::OutOfMemory),
                    }
                }
            }
        }

        let entry = Entry {
            key,
            value_size,
            class,
            expires_at,
            payload,
            live: true,
        };
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.arena[slot] = entry;
            self.links[slot] = Links::new();
            slot
        } else {
            self.arena.push(entry);
            self.links.push(Links::new());
            self.arena.len() - 1
        };
        self.index.insert(key, slot);
        self.lrus[class].push_front(slot, &mut self.links);
        self.stats.sets += 1;
        Ok(())
    }

    /// Deletes `key`; returns whether it was present.
    pub fn delete(&mut self, key: KeyId) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.remove_slot(slot);
            self.stats.deletes += 1;
            true
        } else {
            false
        }
    }

    fn remove_slot(&mut self, slot: SlotId) {
        let class = self.arena[slot].class;
        let key = self.arena[slot].key;
        debug_assert!(self.arena[slot].live);
        self.lrus[class].unlink(slot, &mut self.links);
        self.slabs.release(class);
        self.index.remove(&key);
        self.arena[slot].live = false;
        self.arena[slot].payload = None;
        self.free_slots.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> Store {
        // One page only: tight memory to exercise eviction.
        Store::new(StoreConfig::with_memory(1 << 20)).unwrap()
    }

    #[test]
    fn basic_get_set_delete() {
        let mut s = small_store();
        assert!(s.get(1, 0.0).is_miss());
        s.set(1, 100, None, 0.0).unwrap();
        assert!(s.get(1, 0.0).is_hit());
        assert!(s.delete(1));
        assert!(!s.delete(1));
        assert!(s.get(1, 0.0).is_miss());
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.sets, st.deletes), (1, 2, 1, 1));
    }

    #[test]
    fn replace_updates_size_and_keeps_one_copy() {
        // Two pages, so the replacement's new size class can get its own.
        let mut s = Store::new(StoreConfig::with_memory(4 << 20)).unwrap();
        s.set(1, 100, None, 0.0).unwrap();
        s.set(1, 5_000, None, 0.0).unwrap();
        assert_eq!(s.len(), 1);
        match s.get(1, 0.0) {
            Lookup::Hit { value_size, .. } => assert_eq!(value_size, 5_000),
            Lookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn slab_calcification_is_faithful() {
        // With a single page spent on one class, a differently-sized item
        // cannot be stored — pages are never reassigned, exactly like
        // memcached (the "calcification" problem the paper's related work
        // [2] addresses with slab rebalancing).
        let mut s = small_store();
        s.set(1, 100, None, 0.0).unwrap();
        assert_eq!(s.set(2, 5_000, None, 0.0), Err(StoreError::OutOfMemory));
    }

    #[test]
    fn ttl_expiry() {
        let mut s = small_store();
        s.set(1, 100, Some(5.0), 0.0).unwrap();
        assert!(s.get(1, 4.999).is_hit());
        assert!(s.get(1, 5.0).is_miss());
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let mut s = small_store();
        // Fill one class beyond capacity: value 400 + 80 overhead → 480 →
        // class with chunk ~593; a 1 MiB page holds ~1768 chunks.
        let per_page = {
            let class = s.slabs().class_for(480).unwrap();
            s.slabs().classes()[class].chunks_per_page
        };
        for k in 0..per_page as u64 + 10 {
            s.set(k, 400, None, 0.0).unwrap();
        }
        assert_eq!(s.stats().evictions, 10);
        // The earliest keys were evicted, the latest survive.
        assert!(s.get(0, 0.0).is_miss());
        assert!(s.get(per_page as u64 + 9, 0.0).is_hit());
        assert_eq!(s.len(), per_page);
    }

    #[test]
    fn get_protects_from_eviction() {
        let mut s = small_store();
        let class = s.slabs().class_for(480).unwrap();
        let per_page = s.slabs().classes()[class].chunks_per_page;
        for k in 0..per_page as u64 {
            s.set(k, 400, None, 0.0).unwrap();
        }
        // Touch key 0: it becomes MRU and must survive the next insert.
        assert!(s.get(0, 0.0).is_hit());
        s.set(999_999, 400, None, 0.0).unwrap();
        assert!(s.get(0, 0.0).is_hit());
        assert!(s.get(1, 0.0).is_miss()); // key 1 was the LRU victim
    }

    #[test]
    fn item_too_large() {
        let mut s = small_store();
        assert!(matches!(
            s.set(1, 2 << 20, None, 0.0),
            Err(StoreError::ItemTooLarge { .. })
        ));
    }

    #[test]
    fn failed_set_drops_the_old_value() {
        let mut s = small_store();
        s.set_with_payload(1, Bytes::from(vec![7u8; 100]), None, 0.0)
            .unwrap();
        assert!(s.get(1, 0.0).is_hit());
        assert!(matches!(
            s.set(1, 2 << 20, None, 0.0),
            Err(StoreError::ItemTooLarge { .. })
        ));
        assert!(
            s.get(1, 0.0).is_miss(),
            "the old value outlived a failed set"
        );
        assert_eq!(s.len(), 0);
        // The chunk went back: a fitting set of the same key succeeds.
        s.set(1, 100, None, 0.0).unwrap();
        assert!(s.get(1, 0.0).is_hit());
    }

    #[test]
    fn out_of_memory_when_class_is_empty_and_budget_spent() {
        let mut s = small_store();
        // Spend the single page on small items…
        let small_class = s.slabs().class_for(180).unwrap();
        let per_page = s.slabs().classes()[small_class].chunks_per_page;
        for k in 0..per_page as u64 {
            s.set(k, 100, None, 0.0).unwrap();
        }
        // …then a big item has no page and nothing of its own class to
        // evict.
        assert_eq!(
            s.set(10_000, 500_000, None, 0.0),
            Err(StoreError::OutOfMemory)
        );
    }

    #[test]
    fn payload_round_trip() {
        let mut s = small_store();
        let data = Bytes::from_static(b"hello memcached");
        s.set_with_payload(7, data.clone(), None, 0.0).unwrap();
        match s.get(7, 0.0) {
            Lookup::Hit {
                value_size,
                payload,
            } => {
                assert_eq!(value_size, data.len());
                assert_eq!(payload.as_deref(), Some(b"hello memcached".as_slice()));
            }
            Lookup::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn miss_ratio_stat() {
        let mut s = small_store();
        s.set(1, 10, None, 0.0).unwrap();
        for _ in 0..3 {
            let _ = s.get(1, 0.0);
        }
        let _ = s.get(2, 0.0);
        assert!((s.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut s = small_store();
        for k in 0..100u64 {
            s.set(k, 100, None, 0.0).unwrap();
        }
        for k in 0..100u64 {
            s.delete(k);
        }
        let arena_before = s.arena.len();
        for k in 100..200u64 {
            s.set(k, 100, None, 0.0).unwrap();
        }
        assert_eq!(s.arena.len(), arena_before, "slots must be reused");
        assert_eq!(s.len(), 100);
    }
}

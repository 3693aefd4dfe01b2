//! The slab allocator: size classes, pages, chunks.
//!
//! Mirrors memcached's allocator: memory is carved into fixed-size pages
//! (1 MiB), each page is assigned to a *size class*, and a class serves
//! items whose total size fits its chunk size. Classes grow geometrically
//! from a base chunk size by a growth factor (memcached default 1.25).

/// Configuration of the slab allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabConfig {
    /// Total memory budget in bytes (`-m` in memcached).
    pub memory_limit: usize,
    /// Page size in bytes (memcached: 1 MiB).
    pub page_size: usize,
    /// Smallest chunk size in bytes (memcached: 96 with defaults).
    pub base_chunk: usize,
    /// Geometric growth factor between classes (`-f`, default 1.25).
    pub growth_factor: f64,
}

impl Default for SlabConfig {
    fn default() -> Self {
        Self {
            memory_limit: 64 << 20,
            page_size: 1 << 20,
            base_chunk: 96,
            growth_factor: 1.25,
        }
    }
}

/// One size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabClass {
    /// Chunk size in bytes.
    pub chunk_size: usize,
    /// Chunks per page.
    pub chunks_per_page: usize,
    /// Pages currently assigned to this class.
    pub pages: usize,
    /// Chunks currently in use.
    pub used_chunks: usize,
}

impl SlabClass {
    /// Total chunks available in assigned pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.pages * self.chunks_per_page
    }
}

/// Outcome of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// A chunk was taken from an existing page of the class.
    Reused,
    /// A fresh page was assigned to the class.
    NewPage,
    /// The class and the global budget are exhausted — the store must
    /// evict from this class.
    NeedsEviction,
}

/// The slab allocator: tracks chunk bookkeeping, not payload bytes.
///
/// # Examples
///
/// ```
/// use memlat_cache::slab::{Allocation, SlabAllocator, SlabConfig};
///
/// let mut slabs = SlabAllocator::new(SlabConfig {
///     memory_limit: 2 << 20,
///     ..SlabConfig::default()
/// }).unwrap();
/// let class = slabs.class_for(100).unwrap();
/// assert_eq!(slabs.allocate(class), Allocation::NewPage);
/// assert_eq!(slabs.allocate(class), Allocation::Reused);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlabAllocator {
    config: SlabConfig,
    classes: Vec<SlabClass>,
    pages_assigned: usize,
}

impl SlabAllocator {
    /// Builds the class table for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when the configuration is inconsistent (zero
    /// sizes, growth factor ≤ 1, base chunk larger than a page, or a
    /// budget smaller than one page).
    pub fn new(config: SlabConfig) -> Result<Self, String> {
        if config.page_size == 0 || config.base_chunk == 0 {
            return Err("page and chunk sizes must be positive".to_string());
        }
        if config.growth_factor <= 1.0 {
            return Err(format!(
                "growth factor must exceed 1, got {}",
                config.growth_factor
            ));
        }
        if config.base_chunk > config.page_size {
            return Err("base chunk cannot exceed the page size".to_string());
        }
        if config.memory_limit < config.page_size {
            return Err("memory limit below one page".to_string());
        }
        let mut classes = Vec::new();
        let mut size = config.base_chunk as f64;
        while (size as usize) < config.page_size {
            let chunk_size = (size as usize).min(config.page_size);
            classes.push(SlabClass {
                chunk_size,
                chunks_per_page: config.page_size / chunk_size,
                pages: 0,
                used_chunks: 0,
            });
            size *= config.growth_factor;
        }
        // Final class: one chunk per page.
        classes.push(SlabClass {
            chunk_size: config.page_size,
            chunks_per_page: 1,
            pages: 0,
            used_chunks: 0,
        });
        Ok(Self {
            config,
            classes,
            pages_assigned: 0,
        })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SlabConfig {
        &self.config
    }

    /// Number of size classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The class table.
    #[must_use]
    pub fn classes(&self) -> &[SlabClass] {
        &self.classes
    }

    /// The smallest class whose chunk fits `item_size` bytes, or `None`
    /// if the item exceeds the largest chunk (memcached rejects such
    /// items).
    #[must_use]
    pub fn class_for(&self, item_size: usize) -> Option<usize> {
        self.classes.iter().position(|c| c.chunk_size >= item_size)
    }

    /// Total pages the budget allows.
    #[must_use]
    fn page_budget(&self) -> usize {
        self.config.memory_limit / self.config.page_size
    }

    /// Attempts to allocate one chunk in `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn allocate(&mut self, class: usize) -> Allocation {
        let budget = self.page_budget();
        let c = &mut self.classes[class];
        if c.used_chunks < c.capacity() {
            c.used_chunks += 1;
            return Allocation::Reused;
        }
        if self.pages_assigned < budget {
            c.pages += 1;
            c.used_chunks += 1;
            self.pages_assigned += 1;
            return Allocation::NewPage;
        }
        Allocation::NeedsEviction
    }

    /// Releases one chunk in `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or has no used chunks.
    pub fn release(&mut self, class: usize) {
        let c = &mut self.classes[class];
        assert!(c.used_chunks > 0, "release on empty class {class}");
        c.used_chunks -= 1;
    }

    /// Bytes actually in use by chunks.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.used_chunks * c.chunk_size)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_is_geometric() {
        let s = SlabAllocator::new(SlabConfig::default()).unwrap();
        let cs = s.classes();
        assert!(cs.len() > 20);
        assert_eq!(cs[0].chunk_size, 96);
        for w in cs.windows(2) {
            assert!(w[1].chunk_size > w[0].chunk_size);
            // Growth ratio ≈ 1.25 between consecutive classes (truncation
            // allows slack).
            let ratio = w[1].chunk_size as f64 / w[0].chunk_size as f64;
            assert!(
                ratio < 1.3 + 1e-9 || w[1].chunk_size == s.config().page_size,
                "{ratio}"
            );
        }
        assert_eq!(cs.last().unwrap().chunk_size, 1 << 20);
    }

    #[test]
    fn class_selection() {
        let s = SlabAllocator::new(SlabConfig::default()).unwrap();
        assert_eq!(s.class_for(1), Some(0));
        assert_eq!(s.class_for(96), Some(0));
        assert_eq!(s.class_for(97), Some(1));
        assert_eq!(s.class_for(1 << 20), Some(s.class_count() - 1));
        assert_eq!(s.class_for((1 << 20) + 1), None);
    }

    #[test]
    fn allocation_lifecycle() {
        let mut s = SlabAllocator::new(SlabConfig {
            memory_limit: 1 << 20, // exactly one page
            ..SlabConfig::default()
        })
        .unwrap();
        let class = s.class_for(500).unwrap();
        assert_eq!(s.allocate(class), Allocation::NewPage);
        let per_page = s.classes()[class].chunks_per_page;
        for _ in 1..per_page {
            assert_eq!(s.allocate(class), Allocation::Reused);
        }
        // Page full and no budget left.
        assert_eq!(s.allocate(class), Allocation::NeedsEviction);
        s.release(class);
        assert_eq!(s.allocate(class), Allocation::Reused);
        assert_eq!(s.classes().iter().map(|c| c.pages).sum::<usize>(), 1);
        assert!(s.used_bytes() > 0);
    }

    #[test]
    fn classes_compete_for_pages() {
        let mut s = SlabAllocator::new(SlabConfig {
            memory_limit: 2 << 20,
            ..SlabConfig::default()
        })
        .unwrap();
        let small = s.class_for(100).unwrap();
        let big = s.class_for(100_000).unwrap();
        assert_eq!(s.allocate(small), Allocation::NewPage);
        assert_eq!(s.allocate(big), Allocation::NewPage);
        // Budget exhausted: big class cannot take another page.
        for _ in 1..s.classes()[big].chunks_per_page {
            assert_eq!(s.allocate(big), Allocation::Reused);
        }
        assert_eq!(s.allocate(big), Allocation::NeedsEviction);
        // But the small class still has free chunks in its own page.
        assert_eq!(s.allocate(small), Allocation::Reused);
    }

    #[test]
    fn config_validation() {
        assert!(SlabAllocator::new(SlabConfig {
            growth_factor: 1.0,
            ..Default::default()
        })
        .is_err());
        assert!(SlabAllocator::new(SlabConfig {
            base_chunk: 0,
            ..Default::default()
        })
        .is_err());
        assert!(SlabAllocator::new(SlabConfig {
            memory_limit: 10,
            ..Default::default()
        })
        .is_err());
        assert!(SlabAllocator::new(SlabConfig {
            base_chunk: 2 << 20,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    #[should_panic(expected = "release on empty class")]
    fn release_on_empty_panics() {
        let mut s = SlabAllocator::new(SlabConfig::default()).unwrap();
        s.release(0);
    }
}

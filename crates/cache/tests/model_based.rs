//! Model-based property testing of the slab/LRU store against a simple
//! reference implementation.
//!
//! The reference ignores memory limits (never evicts); agreement is
//! therefore checked on the subset of behaviours that must coincide:
//! presence implies same value size, hits after sets, deletes, expiry,
//! and the store's own invariants (item count, slab accounting, LRU
//! membership).

use std::collections::HashMap;

use memlat_cache::{Lookup, Store, StoreConfig, StoreError};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set {
        key: u64,
        size: usize,
        ttl: Option<f64>,
    },
    Get {
        key: u64,
    },
    Delete {
        key: u64,
    },
    Advance {
        dt: f64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40, 1usize..4000, proptest::option::of(0.1f64..5.0))
            .prop_map(|(key, size, ttl)| Op::Set { key, size, ttl }),
        (0u64..40).prop_map(|key| Op::Get { key }),
        (0u64..40).prop_map(|key| Op::Delete { key }),
        (0.01f64..1.0).prop_map(|dt| Op::Advance { dt }),
    ]
}

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    size: usize,
    expires_at: Option<f64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_agrees_with_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        // Plenty of memory: no evictions, so reference and store see the
        // same world.
        let mut store = Store::new(StoreConfig::with_memory(64 << 20)).unwrap();
        let mut reference: HashMap<u64, RefEntry> = HashMap::new();
        let mut now = 0.0f64;

        for op in ops {
            match op {
                Op::Set { key, size, ttl } => {
                    let expires_at = ttl.map(|d| now + d);
                    store.set(key, size, expires_at, now).unwrap();
                    reference.insert(key, RefEntry { size, expires_at });
                }
                Op::Get { key } => {
                    let expected = reference.get(&key).copied().filter(|e| {
                        e.expires_at.is_none_or(|t| now < t)
                    });
                    match (store.get(key, now), expected) {
                        (Lookup::Hit { value_size, .. }, Some(e)) => {
                            prop_assert_eq!(value_size, e.size);
                        }
                        (Lookup::Miss, None) => {
                            // Expired entries also disappear from the
                            // reference on observation.
                            reference.remove(&key);
                        }
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "key {key} at t={now}: store={got:?} reference={want:?}"
                            )));
                        }
                    }
                    // Lazy expiry: a reference entry that expired is
                    // pruned once seen.
                    if expected.is_none() {
                        reference.remove(&key);
                    }
                }
                Op::Delete { key } => {
                    let was_store = store.delete(key);
                    let was_ref = reference.remove(&key).is_some();
                    // A lazily-expired entry may linger in the reference
                    // but must have been pruned or expired in both.
                    if was_store != was_ref {
                        prop_assert!(
                            !was_store,
                            "store deleted key {key} the reference did not know"
                        );
                    }
                }
                Op::Advance { dt } => now += dt,
            }
            // Invariants after every operation.
            prop_assert!(store.len() <= 40);
            let used: usize = store
                .slabs()
                .classes()
                .iter()
                .map(|c| c.used_chunks)
                .sum();
            prop_assert_eq!(used, store.len(), "slab chunks != live items");
        }
    }

    /// Under memory pressure, the store never exceeds its page budget and
    /// evicts strictly from the requested class.
    #[test]
    fn eviction_respects_budget(sizes in proptest::collection::vec(50usize..2000, 10..300)) {
        let mut store = Store::new(StoreConfig::with_memory(1 << 20)).unwrap();
        let budget_pages = 1;
        for (i, size) in sizes.iter().enumerate() {
            match store.set(i as u64, *size, None, 0.0) {
                Ok(()) | Err(StoreError::OutOfMemory) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            }
            let pages: usize = store.slabs().classes().iter().map(|c| c.pages).sum();
            prop_assert!(pages <= budget_pages, "page budget exceeded: {pages}");
        }
    }

    /// Replacing a key never changes the live-item count, regardless of
    /// the size class it moves to.
    #[test]
    fn replacement_is_idempotent_on_len(a in 1usize..3000, b in 1usize..3000) {
        let mut store = Store::new(StoreConfig::with_memory(8 << 20)).unwrap();
        store.set(1, a, None, 0.0).unwrap();
        store.set(1, b, None, 0.0).unwrap();
        prop_assert_eq!(store.len(), 1);
        match store.get(1, 0.0) {
            Lookup::Hit { value_size, .. } => prop_assert_eq!(value_size, b),
            Lookup::Miss => return Err(TestCaseError::fail("replaced key missing")),
        }
    }
}

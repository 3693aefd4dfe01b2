//! Property tests for the consistent-hash ring: balance across server
//! counts and the monotonicity that makes it "consistent" — growing or
//! shrinking the ring by one server remaps only keys that touch that
//! server.

use memlat_workload::{ConsistentHashRing, RoutedKeyspace, ZipfPopularity};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Key balance: with enough virtual nodes, every server's share of a
    /// uniform key stream stays within a generous band of 1/m. The band
    /// is wide (consistent hashing is only statistically balanced: the
    /// per-server arc length has relative deviation ~ 1/√vnodes) but
    /// tight enough to catch a broken ring walk or point hash.
    #[test]
    fn ring_balances_within_tolerance(m in 2usize..16, vnodes in 64usize..256) {
        let ring = ConsistentHashRing::new(m, vnodes);
        let keys = 20_000u64;
        let mut counts = vec![0u64; m];
        for k in 0..keys {
            counts[ring.server_of(k)] += 1;
        }
        let mean = keys as f64 / m as f64;
        for (j, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / mean;
            prop_assert!(
                (0.2..=3.5).contains(&ratio),
                "server {j}/{m} vnodes {vnodes}: share ratio {ratio:.3} ({counts:?})"
            );
        }
    }

    /// Monotonicity, growing: adding one server moves keys only *onto*
    /// the new server — every key either keeps its owner or routes to
    /// the newcomer, and some keys do move.
    #[test]
    fn adding_a_server_only_captures_keys(m in 1usize..12, vnodes in 8usize..192) {
        let before = ConsistentHashRing::new(m, vnodes);
        let after = ConsistentHashRing::new(m + 1, vnodes);
        let mut moved = 0u64;
        for k in 0..8_000u64 {
            let old = before.server_of(k);
            let new = after.server_of(k);
            if new != old {
                prop_assert_eq!(
                    new, m,
                    "key {} moved {} -> {} instead of onto the new server {}",
                    k, old, new, m
                );
                moved += 1;
            }
        }
        prop_assert!(moved > 0, "growing {m} -> {} moved no keys", m + 1);
    }

    /// Monotonicity, shrinking: removing one server moves keys only
    /// *off* that server — survivors keep every key they had.
    #[test]
    fn removing_a_server_only_releases_its_keys(m in 2usize..12, vnodes in 8usize..192, victim_seed in 0usize..64) {
        let ring = ConsistentHashRing::new(m, vnodes);
        let victim = victim_seed % m;
        let smaller = ring.without_server(victim);
        let mut moved = 0u64;
        for k in 0..8_000u64 {
            let old = ring.server_of(k);
            let new = smaller.server_of(k);
            prop_assert!(new != victim, "key {} still routes to removed server", k);
            if new != old {
                prop_assert_eq!(
                    old, victim,
                    "key {} moved {} -> {} without leaving the victim {}",
                    k, old, new, victim
                );
                moved += 1;
            }
        }
        prop_assert!(moved > 0, "removing {victim} of {m} moved no keys");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The routed keyspace's exact shares agree with the ring: each
    /// share is the popularity mass of exactly the keys the ring assigns
    /// to that server, and the conditional samplers cover the key space
    /// with no overlap.
    #[test]
    fn routed_shares_match_ring_ownership(m in 2usize..8, vnodes in 16usize..128, skew_milli in 800u64..1400) {
        let skew = skew_milli as f64 / 1000.0;
        let keys = 5_000u64;
        let pop = ZipfPopularity::new(keys, skew).unwrap();
        let routed = RoutedKeyspace::new(&pop, m, vnodes).unwrap();
        let ring = ConsistentHashRing::new(m, vnodes);
        let mut seen = vec![false; keys as usize];
        for j in 0..m {
            let mut mass = 0.0;
            for k in routed.owned_keys(j).iter().map(|&k| u64::from(k)) {
                prop_assert_eq!(ring.server_of(k), j);
                prop_assert!(!seen[k as usize], "key {} owned twice", k);
                seen[k as usize] = true;
                mass += pop.access_probability(k);
            }
            prop_assert!(
                (routed.shares()[j] - mass).abs() < 1e-9,
                "server {}: share {} vs mass {}", j, routed.shares()[j], mass
            );
        }
        prop_assert!(seen.iter().all(|&s| s), "some key unowned");
    }
}

//! The pinned determinism digest: the fixed 100-server cluster run that
//! `bench --digest` fingerprints must hash to the committed line at one
//! and at four worker threads. Any change to a sampled value, the order
//! of draws or the shard merge moves it; a change that claims
//! bit-identity must leave it alone.

use memlat_bench::determinism_digest;

#[test]
fn digest_matches_the_pinned_line_at_one_and_four_threads() {
    let pinned = include_str!("../crates/bench/expected_digest.txt").trim();
    for threads in [1, 4] {
        assert_eq!(
            determinism_digest(threads, 100),
            pinned,
            "threads={threads}"
        );
    }
}

//! The record fingerprint the cluster differential suites share.

// Each suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use memlat_cluster::SimOutput;

/// Folds `v`'s eight little-endian bytes into the FNV-1a state `h`.
pub fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the bit patterns of every `(s, d)` record, servers in
/// order, each `f32` widened to a `u64` — the layout the pinned goldens
/// (`GOLDEN_RECORDS_FNV`, `GOLDEN_FIXED_FNV`, `GOLDEN_LRU_FNV`) were
/// captured with. Any single-bit difference in any per-key latency
/// flips it.
pub fn fnv1a_columns<S>(servers: S) -> u64
where
    S: IntoIterator,
    S::Item: IntoIterator<Item = (f32, f32)>,
{
    let mut h = 0xcbf2_9ce4_8422_2325;
    for server in servers {
        for (s, d) in server {
            h = fnv1a_u64(h, u64::from(s.to_bits()));
            h = fnv1a_u64(h, u64::from(d.to_bits()));
        }
    }
    h
}

/// [`fnv1a_columns`] over every server's records in `out`.
pub fn fnv1a_records(out: &SimOutput) -> u64 {
    fnv1a_columns((0..out.shares().len()).map(|j| out.records(j)))
}

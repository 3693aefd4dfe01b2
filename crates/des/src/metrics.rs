//! Per-server activity, resilience and coalescing counters.

/// Per-server activity counters surfaced by the cluster simulation.
///
/// These are the cheap always-on observables the streaming simulator
/// keeps per server (the full per-key sample buffers are optional): how
/// many keys it served and how many of them missed. Busy time reaches
/// the caller as utilization.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerCounters {
    /// Keys served (post-warmup measurement window).
    pub jobs: u64,
    /// Keys that missed in the cache and went to the database.
    pub misses: u64,
}

impl ServerCounters {
    /// Miss ratio over the served keys (0 when nothing was served).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.misses as f64 / self.jobs as f64
        }
    }
}

/// Client-resilience and fault counters for one station.
///
/// Everything the fault-injection layer observes about one server's
/// interaction with its clients: attempts that timed out or were
/// refused by a crashed server, re-issued attempts, keys that exhausted
/// their attempts and fell through to the backing store, hedged
/// duplicates, and the scheduled downtime/degraded seconds that caused
/// it all. All zero on a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceCounters {
    /// Attempts whose sojourn exceeded the client timeout.
    pub timeouts: u64,
    /// Attempts refused outright by a crashed server.
    pub refused: u64,
    /// Re-issued attempts (each retry of each key counts once).
    pub retries: u64,
    /// Keys that exhausted every attempt and fell through to the
    /// database stage (graceful degradation).
    pub forced_misses: u64,
    /// Hedged duplicate attempts sent to a replica.
    pub hedges_sent: u64,
    /// Hedges whose replica attempt beat the primary.
    pub hedges_won: u64,
    /// Seconds of scheduled crash downtime within the horizon.
    pub downtime: f64,
    /// Seconds of scheduled degraded (slowdown) service within the
    /// horizon.
    pub degraded_time: f64,
}

impl ResilienceCounters {
    /// Combines counters from two disjoint observation streams.
    pub fn merge(&mut self, other: &Self) {
        self.timeouts += other.timeouts;
        self.refused += other.refused;
        self.retries += other.retries;
        self.forced_misses += other.forced_misses;
        self.hedges_sent += other.hedges_sent;
        self.hedges_won += other.hedges_won;
        self.downtime += other.downtime;
        self.degraded_time += other.degraded_time;
    }

    /// Whether any fault or resilience action was observed at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self != &Self::default()
    }
}

/// Per-server miss-coalescing counters (delayed hits).
///
/// When the cluster's miss relay coalesces per-key fetches, each miss
/// reaching the database either *dispatches* a new fetch or parks as a
/// waiter on an outstanding fetch for the same key and resolves at that
/// fetch's completion — a **delayed hit**. These counters account for
/// both, attributed to the server that originated the miss. All zero
/// under the independent relay (the paper's model).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoalesceCounters {
    /// Database fetches actually dispatched (one per outstanding-fetch
    /// window per key).
    pub dispatched: u64,
    /// Misses resolved by waiting on an already-outstanding fetch.
    pub delayed_hits: u64,
    /// Total seconds delayed hits spent waiting (the sum of residual
    /// fetch latencies; `wait_time / delayed_hits` is the mean wait).
    pub wait_time: f64,
}

impl CoalesceCounters {
    /// Combines counters from two disjoint observation streams.
    pub fn merge(&mut self, other: &Self) {
        self.dispatched += other.dispatched;
        self.delayed_hits += other.delayed_hits;
        self.wait_time += other.wait_time;
    }

    /// Whether any coalescing activity was observed at all.
    #[must_use]
    pub fn any(&self) -> bool {
        self != &Self::default()
    }

    /// Fraction of database-path resolutions that were delayed hits
    /// (0 when nothing reached the database).
    #[must_use]
    pub fn delayed_fraction(&self) -> f64 {
        let total = self.dispatched + self.delayed_hits;
        if total == 0 {
            0.0
        } else {
            self.delayed_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_counters_merge_and_fraction() {
        let mut a = CoalesceCounters {
            dispatched: 3,
            delayed_hits: 1,
            wait_time: 0.25,
        };
        let b = CoalesceCounters {
            dispatched: 1,
            delayed_hits: 3,
            wait_time: 0.75,
        };
        a.merge(&b);
        assert_eq!(a.dispatched, 4);
        assert_eq!(a.delayed_hits, 4);
        assert!((a.wait_time - 1.0).abs() < 1e-12);
        assert!((a.delayed_fraction() - 0.5).abs() < 1e-12);
        assert!(a.any());
        assert!(!CoalesceCounters::default().any());
        assert_eq!(CoalesceCounters::default().delayed_fraction(), 0.0);
    }

    #[test]
    fn resilience_counters_merge() {
        let mut a = ResilienceCounters {
            timeouts: 1,
            refused: 2,
            retries: 3,
            forced_misses: 1,
            hedges_sent: 4,
            hedges_won: 2,
            downtime: 0.5,
            degraded_time: 1.0,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.timeouts, 2);
        assert_eq!(a.refused, 4);
        assert_eq!(a.retries, 6);
        assert_eq!(a.forced_misses, 2);
        assert_eq!(a.hedges_sent, 8);
        assert_eq!(a.hedges_won, 4);
        assert!((a.downtime - 1.0).abs() < 1e-12);
        assert!((a.degraded_time - 2.0).abs() < 1e-12);
        assert!(a.any());
        assert!(!ResilienceCounters::default().any());
    }

    #[test]
    fn counters_miss_ratio() {
        let a = ServerCounters {
            jobs: 40,
            misses: 4,
        };
        assert!((a.miss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(ServerCounters::default().miss_ratio(), 0.0);
    }
}

//! Fault injection and client resilience policies.
//!
//! The paper validates its model on a healthy testbed; this module is
//! the simulator's stand-in for the unhealthy one. A [`FaultPlan`]
//! schedules per-server events in absolute simulated time — crashes
//! (the server refuses arrivals for a window) and slowdowns (service
//! times are multiplied by a factor inside a window). A
//! [`ClientPolicy`] describes how clients cope: a per-attempt timeout,
//! bounded retries with exponential backoff and jitter, and optional
//! hedged duplicate requests against a replica.
//!
//! Semantics (chosen to keep the per-server simulations embarrassingly
//! parallel and therefore bit-identical across thread counts):
//!
//! * **Crash** — arrivals inside the window are *refused* at their
//!   arrival instant (connection-refused, the fast failure mode of a
//!   dead TCP endpoint). Jobs already queued drain normally (graceful
//!   drain). A refused attempt is retried per the [`RetryPolicy`]; a
//!   key that exhausts its attempts falls through to the database as a
//!   **forced miss**.
//! * **Slowdown** — an attempt *arriving* inside the window has its
//!   service time multiplied by the window's factor (> 1 degrades, < 1
//!   would model a speedup). The scheduled slow seconds are reported
//!   as `degraded_time`.
//! * **Timeout** — an attempt whose sojourn exceeds the timeout is
//!   abandoned at `arrival + timeout` (the server still wastes the full
//!   service time — work the client no longer wants, exactly the
//!   overload amplification real fleets see). Retries/fall-through as
//!   for refusals.
//! * **Hedging** — after the per-server runs complete, keys whose
//!   primary latency exceeded [`HedgePolicy::delay`] draw a duplicate
//!   attempt from the replica server's latency population
//!   (`replica(j) = (j + 1) mod M`); the client keeps
//!   `min(primary, delay + replica)`. The draw happens in the
//!   deterministic merge step, in server order, from a dedicated RNG
//!   stream — thread-count independence is preserved. Hedges target the
//!   cache tier: the miss/database path of the key is unchanged.
//!
//! With [`FaultPlan::none`] and [`ClientPolicy::none`] every branch
//! above is dead and the simulator consumes exactly the random draws of
//! the pre-fault code path — output is bit-identical, locked by
//! `tests/fault_differential.rs`.

use memlat_des::fault::{Timeline, Window};

/// What goes wrong inside a fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The server is down: arrivals in the window are refused.
    Crash,
    /// Service times of attempts arriving in the window are multiplied
    /// by `factor` (> 1 is slower).
    Slowdown {
        /// Service-time multiplier (must be positive and finite).
        factor: f64,
    },
}

/// One scheduled per-server fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Which server the event applies to.
    pub server: usize,
    /// The absolute simulated-time window `[start, end)` (seconds,
    /// measured from time 0 — warm-up included).
    pub window: Window,
    /// What happens inside the window.
    pub kind: FaultKind,
}

/// A schedule of per-server fault events for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a healthy run, bit-identical to the pre-fault
    /// simulator.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Schedules a crash of `server` over `[start, end)`.
    #[must_use]
    pub fn crash(mut self, server: usize, start: f64, end: f64) -> Self {
        self.events.push(FaultEvent {
            server,
            window: Window::new(start, end),
            kind: FaultKind::Crash,
        });
        self
    }

    /// Schedules a service slowdown of `server` over `[start, end)`.
    #[must_use]
    pub fn slowdown(mut self, server: usize, start: f64, end: f64, factor: f64) -> Self {
        self.events.push(FaultEvent {
            server,
            window: Window::new(start, end),
            kind: FaultKind::Slowdown { factor },
        });
        self
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Validates the plan against a cluster of `servers` servers.
    ///
    /// # Errors
    ///
    /// Returns a message if an event names a server out of range, a
    /// slowdown factor is non-positive/non-finite, or two same-kind
    /// windows on one server overlap (overlap would make downtime
    /// accounting ambiguous).
    pub fn validate(&self, servers: usize) -> Result<(), String> {
        for e in &self.events {
            if e.server >= servers {
                return Err(format!(
                    "fault event targets server {} but the cluster has {servers}",
                    e.server
                ));
            }
            if let FaultKind::Slowdown { factor } = e.kind {
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(format!("slowdown factor must be positive, got {factor}"));
                }
            }
        }
        for j in 0..servers {
            for crash in [true, false] {
                let mut wins: Vec<Window> = self
                    .events
                    .iter()
                    .filter(|e| e.server == j && matches!(e.kind, FaultKind::Crash) == crash)
                    .map(|e| e.window)
                    .collect();
                wins.sort_by(|a, b| a.start.total_cmp(&b.start));
                for pair in wins.windows(2) {
                    if pair[1].start < pair[0].end {
                        return Err(format!(
                            "overlapping fault windows on server {j}: [{}, {}) and [{}, {})",
                            pair[0].start, pair[0].end, pair[1].start, pair[1].end
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles the per-server view of the plan.
    #[must_use]
    pub fn for_server(&self, server: usize) -> ServerFaults {
        let crash = Timeline::new(
            self.events
                .iter()
                .filter(|e| e.server == server && matches!(e.kind, FaultKind::Crash))
                .map(|e| e.window)
                .collect(),
        );
        let mut slow: Vec<(Window, f64)> = self
            .events
            .iter()
            .filter(|e| e.server == server)
            .filter_map(|e| match e.kind {
                FaultKind::Slowdown { factor } => Some((e.window, factor)),
                FaultKind::Crash => None,
            })
            .collect();
        slow.sort_by(|a, b| a.0.start.total_cmp(&b.0.start));
        ServerFaults { crash, slow }
    }
}

/// One server's compiled fault timeline, queried by the server loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerFaults {
    crash: Timeline,
    slow: Vec<(Window, f64)>,
}

impl ServerFaults {
    /// A healthy server: nothing scheduled.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether nothing is scheduled for this server.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crash.is_empty() && self.slow.is_empty()
    }

    /// Whether the server is crashed (refusing arrivals) at `t`.
    #[must_use]
    pub fn crashed_at(&self, t: f64) -> bool {
        self.crash.contains(t)
    }

    /// The service-time multiplier in force at `t` (1.0 when healthy).
    #[must_use]
    pub fn slow_factor_at(&self, t: f64) -> f64 {
        self.slow
            .iter()
            .find(|(w, _)| w.contains(t))
            .map_or(1.0, |&(_, f)| f)
    }

    /// Scheduled crash seconds within `[0, horizon)`.
    #[must_use]
    pub fn downtime(&self, horizon: f64) -> f64 {
        self.crash.covered_time(horizon)
    }

    /// Scheduled slowdown seconds within `[0, horizon)`.
    #[must_use]
    pub fn degraded_time(&self, horizon: f64) -> f64 {
        self.slow.iter().map(|(w, _)| w.clamped_len(horizon)).sum()
    }
}

/// Bounded retry with exponential backoff and jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-issues per key (0 = fail straight to the database).
    pub max_retries: u32,
    /// Delay before the first retry (seconds).
    pub base_backoff: f64,
    /// Backoff growth per retry (≥ 1; 2.0 = classic doubling).
    pub multiplier: f64,
    /// Jitter fraction: the delay is multiplied by `1 + jitter·U[0,1)`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_backoff: 500e-6,
            multiplier: 2.0,
            jitter: 0.1,
        }
    }
}

/// Hedged requests: after `delay` seconds without a response, send a
/// duplicate to the replica and keep whichever finishes first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Hedge trigger delay (seconds); a ~p95 of healthy latency is the
    /// classic choice ("The Tail at Scale").
    pub delay: f64,
}

/// Client-side resilience configuration.
///
/// The default ([`ClientPolicy::none`]) disables everything and keeps
/// the simulator bit-identical to the pre-fault code path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientPolicy {
    /// Per-attempt timeout (seconds). `None` waits forever (except for
    /// crash refusals, which fail immediately).
    pub timeout: Option<f64>,
    /// Retry policy for timed-out/refused attempts. `None` means a
    /// failed key falls through to the database immediately.
    pub retry: Option<RetryPolicy>,
    /// Hedged-duplicate policy. `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
}

impl ClientPolicy {
    /// The passive client: no timeout, no retries, no hedging.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the per-attempt timeout.
    #[must_use]
    pub fn timeout(mut self, seconds: f64) -> Self {
        self.timeout = Some(seconds);
        self
    }

    /// Enables retries with the given policy.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Enables hedging with the given trigger delay.
    #[must_use]
    pub fn hedge(mut self, delay: f64) -> Self {
        self.hedge = Some(HedgePolicy { delay });
        self
    }

    /// Total attempts allowed per key (first try + retries).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        1 + self.retry.map_or(0, |r| r.max_retries)
    }

    /// Validates the policy values.
    ///
    /// # Errors
    ///
    /// Returns a message for non-positive timeout/backoff/delay, a
    /// multiplier below 1, or negative jitter.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.timeout {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!("client timeout must be positive, got {t}"));
            }
        }
        if let Some(r) = self.retry {
            if !(r.base_backoff.is_finite() && r.base_backoff > 0.0) {
                return Err(format!(
                    "retry base_backoff must be positive, got {}",
                    r.base_backoff
                ));
            }
            if !(r.multiplier.is_finite() && r.multiplier >= 1.0) {
                return Err(format!(
                    "retry multiplier must be >= 1, got {}",
                    r.multiplier
                ));
            }
            if !(r.jitter.is_finite() && r.jitter >= 0.0) {
                return Err(format!(
                    "retry jitter must be non-negative, got {}",
                    r.jitter
                ));
            }
        }
        if let Some(h) = self.hedge {
            if !(h.delay.is_finite() && h.delay > 0.0) {
                return Err(format!("hedge delay must be positive, got {}", h.delay));
            }
        }
        Ok(())
    }
}

/// The hedged completion of one key: the client keeps whichever attempt
/// finishes first, so the effective latency is
/// `min(primary, delay + replica)`; the hedge "wins" when the replica
/// attempt beats the primary.
#[must_use]
pub fn hedge_outcome(primary: f64, delay: f64, replica: f64) -> (f64, bool) {
    let hedged = delay + replica;
    if hedged < primary {
        (hedged, true)
    } else {
        (primary, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_and_queries() {
        let plan = FaultPlan::none()
            .crash(0, 1.0, 2.0)
            .slowdown(1, 0.5, 1.5, 3.0)
            .crash(0, 3.0, 4.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.events().len(), 3);
        assert!(plan.validate(2).is_ok());
        assert!(plan.validate(1).is_err()); // server 1 out of range

        let s0 = plan.for_server(0);
        assert!(s0.crashed_at(1.5) && !s0.crashed_at(2.5) && s0.crashed_at(3.0));
        assert_eq!(s0.slow_factor_at(1.0), 1.0);
        assert!((s0.downtime(10.0) - 2.0).abs() < 1e-12);
        assert!((s0.downtime(1.5) - 0.5).abs() < 1e-12);
        assert_eq!(s0.degraded_time(10.0), 0.0);

        let s1 = plan.for_server(1);
        assert!(!s1.crashed_at(1.0));
        assert_eq!(s1.slow_factor_at(1.0), 3.0);
        assert_eq!(s1.slow_factor_at(1.5), 1.0);
        assert!((s1.degraded_time(1.0) - 0.5).abs() < 1e-12);

        assert!(FaultPlan::none().is_empty());
        assert!(ServerFaults::none().is_empty());
    }

    #[test]
    fn plan_rejects_bad_factor_and_overlap() {
        let bad = FaultPlan::none().slowdown(0, 0.0, 1.0, 0.0);
        assert!(bad.validate(4).is_err());
        let overlap = FaultPlan::none().crash(0, 0.0, 1.0).crash(0, 0.5, 2.0);
        assert!(overlap.validate(4).is_err());
        // Different kinds may overlap (crash beats slowdown at query
        // time), and different servers never conflict.
        let ok = FaultPlan::none()
            .crash(0, 0.0, 1.0)
            .slowdown(0, 0.5, 2.0, 2.0)
            .crash(1, 0.0, 1.0);
        assert!(ok.validate(4).is_ok());
    }

    #[test]
    fn client_policy_validation() {
        assert!(ClientPolicy::none().validate().is_ok());
        assert_eq!(ClientPolicy::none().max_attempts(), 1);
        let p = ClientPolicy::none()
            .timeout(1e-3)
            .retry(RetryPolicy::default())
            .hedge(300e-6);
        assert!(p.validate().is_ok());
        assert_eq!(p.max_attempts(), 3);
        assert!(ClientPolicy::none().timeout(0.0).validate().is_err());
        assert!(ClientPolicy::none().hedge(-1.0).validate().is_err());
        let bad_retry = ClientPolicy::none().retry(RetryPolicy {
            multiplier: 0.5,
            ..RetryPolicy::default()
        });
        assert!(bad_retry.validate().is_err());
    }

    #[test]
    fn hedge_outcome_is_min() {
        let (eff, won) = hedge_outcome(10.0, 1.0, 2.0);
        assert_eq!(eff, 3.0);
        assert!(won);
        let (eff, won) = hedge_outcome(2.0, 1.0, 2.0);
        assert_eq!(eff, 2.0);
        assert!(!won);
    }
}

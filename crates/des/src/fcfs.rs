//! A measured single-server FCFS station evaluated in virtual time.

/// The outcome of submitting one job to a [`FcfsStation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// When the job arrived.
    pub arrival: f64,
    /// When service began (`max(arrival, previous departure)`).
    pub start: f64,
    /// When service finished.
    pub departure: f64,
}

impl Completion {
    /// Time spent waiting before service.
    #[must_use]
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }

    /// Total time in the system (sojourn).
    #[must_use]
    pub fn sojourn(&self) -> f64 {
        self.departure - self.arrival
    }
}

/// A single-server FCFS queue simulated by the Lindley recursion.
///
/// Jobs must be submitted in non-decreasing arrival order (each stream
/// the memlat simulator produces is time-ordered; a caller merging
/// several streams sorts them first). For a work-conserving FCFS server
/// the departure of job `n` is
///
/// ```text
/// D_n = max(A_n, D_{n-1}) + S_n
/// ```
///
/// which requires no event scheduling at all — this is what lets the
/// simulator push 10⁷ keys/second through a server model. The station
/// keeps three numbers and no per-job state: the last arrival (for the
/// ordering contract), the last departure and the busy time. A mean
/// queue depth, if wanted, follows from Little's law `L = λW` over the
/// per-key latencies the caller already records.
///
/// # Examples
///
/// ```
/// use memlat_des::FcfsStation;
/// let mut s = FcfsStation::new();
/// let c1 = s.submit(0.0, 1.0);
/// let c2 = s.submit(0.5, 1.0); // arrives while busy
/// assert_eq!(c1.departure, 1.0);
/// assert_eq!(c2.start, 1.0);
/// assert_eq!(c2.wait(), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FcfsStation {
    last_departure: f64,
    last_arrival: f64,
    busy_time: f64,
}

impl FcfsStation {
    /// Creates an idle station at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a job arriving at `arrival` needing `service` seconds.
    ///
    /// # Panics
    ///
    /// Panics if arrivals go backwards in time or `service < 0`.
    pub fn submit(&mut self, arrival: f64, service: f64) -> Completion {
        assert!(
            arrival >= self.last_arrival,
            "FCFS arrivals must be time-ordered: {arrival} < {}",
            self.last_arrival
        );
        assert!(service >= 0.0, "negative service time: {service}");
        self.last_arrival = arrival;
        let start = arrival.max(self.last_departure);
        let departure = start + service;
        self.last_departure = departure;
        self.busy_time += service;
        Completion {
            arrival,
            start,
            departure,
        }
    }

    /// Submits a block of time-ordered jobs and writes each departure
    /// into `departures` — the Lindley recursion
    /// `D_i = max(A_i, D_{i−1}) + S_i` as one tight scan.
    ///
    /// The station state (last arrival and departure, busy time) ends
    /// exactly where per-job [`FcfsStation::submit`] calls would leave
    /// it, with the same per-job float expressions, so interleaving
    /// scalar submits and block submits on one station is bit-identical
    /// to submitting every job individually.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ, arrivals go backwards in time,
    /// or any `service < 0` — the same contract as [`FcfsStation::submit`].
    pub fn submit_block(&mut self, arrivals: &[f64], services: &[f64], departures: &mut [f64]) {
        let n = arrivals.len();
        assert_eq!(n, services.len(), "lane length mismatch");
        assert_eq!(n, departures.len(), "lane length mismatch");
        // Everything the scan touches lives in registers; the per-job
        // floating-point add sequence is unchanged, so the write-back
        // below leaves the station bit-identical to scalar submits.
        //
        // Codegen audit (`--emit=asm`, x86_64 release): the recurrence
        // compiles to scalar `maxsd`/`addsd` — `depart` is carried across
        // iterations, so no lane-parallel form exists without
        // reassociating the adds (which would break bit-identity with
        // per-job submits). Beside it each job costs the two contract
        // asserts (`ucomisd`) and the `busy_time` add.
        let mut depart = self.last_departure;
        let mut last_arrival = self.last_arrival;
        let mut busy_time = self.busy_time;
        for i in 0..n {
            let arrival = arrivals[i];
            let service = services[i];
            assert!(
                arrival >= last_arrival,
                "FCFS arrivals must be time-ordered: {arrival} < {last_arrival}"
            );
            assert!(service >= 0.0, "negative service time: {service}");
            last_arrival = arrival;
            depart = arrival.max(depart) + service;
            departures[i] = depart;
            busy_time += service;
        }
        self.last_departure = depart;
        self.last_arrival = last_arrival;
        self.busy_time = busy_time;
    }

    /// When the server will next be idle.
    #[must_use]
    pub fn busy_until(&self) -> f64 {
        self.last_departure
    }

    /// Total service time accumulated (the utilization numerator).
    #[must_use]
    pub fn busy_time(&self) -> f64 {
        self.busy_time
    }

    /// Empirical utilization over `[0, horizon]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon ≤ 0`.
    #[must_use]
    pub fn utilization(&self, horizon: f64) -> f64 {
        assert!(horizon > 0.0, "horizon must be positive");
        self.busy_time / horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = FcfsStation::new();
        let c = s.submit(5.0, 2.0);
        assert_eq!(c.start, 5.0);
        assert_eq!(c.departure, 7.0);
        assert_eq!(c.wait(), 0.0);
        assert_eq!(c.sojourn(), 2.0);
    }

    #[test]
    fn queueing_builds_up() {
        let mut s = FcfsStation::new();
        s.submit(0.0, 1.0);
        s.submit(0.0, 1.0);
        let c = s.submit(0.0, 1.0);
        assert_eq!(c.start, 2.0);
        assert_eq!(c.departure, 3.0);
        assert_eq!(s.busy_until(), 3.0);
        assert_eq!(s.busy_time(), 3.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut s = FcfsStation::new();
        s.submit(2.0, 1.0);
        s.submit(1.0, 1.0);
    }

    #[test]
    fn mm1_mean_sojourn_matches_theory() {
        // M/M/1 at ρ = 0.5, μ = 1: E[T] = 1/(μ−λ) = 2.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut s = FcfsStation::new();
        let mut t = 0.0;
        let mut total_sojourn = 0.0;
        let n = 400_000;
        for _ in 0..n {
            t += -(1.0 - rng.gen::<f64>()).max(1e-15).ln() / 0.5;
            let svc = -(1.0 - rng.gen::<f64>()).max(1e-15).ln();
            total_sojourn += s.submit(t, svc).sojourn();
        }
        let mean_sojourn = total_sojourn / f64::from(n);
        assert!((mean_sojourn - 2.0).abs() < 0.08, "{mean_sojourn}");
        assert!((s.utilization(t) - 0.5).abs() < 0.01);
    }

    #[test]
    fn zero_service_jobs_pass_through() {
        let mut s = FcfsStation::new();
        let c = s.submit(1.0, 0.0);
        assert_eq!(c.sojourn(), 0.0);
    }

    #[test]
    fn submit_block_is_bit_identical_to_scalar_submits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut t = 0.0;
        let mut arrivals = Vec::new();
        let mut services = Vec::new();
        for _ in 0..500 {
            t += rng.gen::<f64>() * 2.0;
            arrivals.push(t);
            services.push(rng.gen::<f64>());
        }
        let mut scalar = FcfsStation::new();
        let scalar_departs: Vec<f64> = arrivals
            .iter()
            .zip(&services)
            .map(|(&a, &s)| scalar.submit(a, s).departure)
            .collect();
        // Mixed scalar/block interleaving on one station.
        let mut blocked = FcfsStation::new();
        let mut block_departs = vec![0.0; arrivals.len()];
        blocked.submit_block(&arrivals[..3], &services[..3], &mut block_departs[..3]);
        for i in 3..7 {
            block_departs[i] = blocked.submit(arrivals[i], services[i]).departure;
        }
        blocked.submit_block(&arrivals[7..], &services[7..], &mut block_departs[7..]);
        for (a, b) in scalar_departs.iter().zip(&block_departs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(scalar.busy_time().to_bits(), blocked.busy_time().to_bits());
        assert_eq!(
            scalar.busy_until().to_bits(),
            blocked.busy_until().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn submit_block_rejects_time_travel() {
        let mut s = FcfsStation::new();
        let mut d = [0.0; 2];
        s.submit_block(&[2.0, 1.0], &[0.5, 0.5], &mut d);
    }
}

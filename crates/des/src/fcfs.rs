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
/// simulator push 10⁷ keys/second through a server model.
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
    jobs: u64,
    total_wait: f64,
    total_sojourn: f64,
    /// Departure times of jobs still in the system at the last arrival.
    /// FCFS departures are nondecreasing, so this is a sorted queue and
    /// expiry is a pop-front scan.
    in_system: std::collections::VecDeque<f64>,
    queue_max: usize,
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
        self.jobs += 1;
        self.total_wait += start - arrival;
        self.total_sojourn += departure - arrival;
        // Queue-length high-water mark: the in-system count changes by +1
        // at arrivals and −1 at departures, so its maximum is attained
        // right after an arrival. Expire finished jobs, admit this one.
        while self.in_system.front().is_some_and(|&d| d <= arrival) {
            self.in_system.pop_front();
        }
        self.in_system.push_back(departure);
        self.queue_max = self.queue_max.max(self.in_system.len());
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
    /// State updates (busy time, wait/sojourn totals, queue high-water
    /// mark) are applied in job order with the exact per-job expressions
    /// of [`FcfsStation::submit`], so interleaving scalar submits and
    /// block submits on one station is bit-identical to submitting every
    /// job individually.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ, arrivals go backwards in time,
    /// or any `service < 0` — the same contract as [`FcfsStation::submit`].
    pub fn submit_block(&mut self, arrivals: &[f64], services: &[f64], departures: &mut [f64]) {
        let n = arrivals.len();
        assert_eq!(n, services.len(), "lane length mismatch");
        assert_eq!(n, departures.len(), "lane length mismatch");
        if n == 0 {
            return;
        }
        // Everything the scan touches lives in registers; the per-job
        // floating-point add sequence is unchanged, so the write-back
        // below leaves the station bit-identical to scalar submits.
        //
        // Codegen audit (`--emit=asm`, x86_64 release): this scan
        // compiles to scalar `maxsd`/`addsd` — the Lindley recurrence
        // `depart = max(arrival, depart) + service` carries `depart`
        // across iterations, so no lane-parallel form exists without
        // reassociating the adds (which would break bit-identity with
        // per-job submits). It stays scalar by design; the vector wins
        // live upstream in the uniform→law transforms that feed it.
        let mut depart = self.last_departure;
        let mut last_arrival = self.last_arrival;
        let mut busy_time = self.busy_time;
        let mut total_wait = self.total_wait;
        let mut total_sojourn = self.total_sojourn;
        let mut queue_max = self.queue_max;
        // Queue high-water mark without per-job deque traffic: departures
        // are globally nondecreasing, so the deque is sorted and the
        // front-first expiry of `submit` pops exactly the entries
        // `<= arrival`. The in-system count at arrival `i` is therefore
        // the unexpired suffix of the carried deque (front pointer `c`)
        // plus this block's own jobs `k..i` — whose departures are
        // already in the output lane — plus job `i` itself. Both pointers
        // only move forward, so the block costs O(n) total.
        let carry: &[f64] = self.in_system.make_contiguous();
        let carry_len = carry.len();
        let mut c = 0usize;
        let mut k = 0usize;
        for i in 0..n {
            let arrival = arrivals[i];
            let service = services[i];
            assert!(
                arrival >= last_arrival,
                "FCFS arrivals must be time-ordered: {arrival} < {last_arrival}"
            );
            assert!(service >= 0.0, "negative service time: {service}");
            last_arrival = arrival;
            let start = arrival.max(depart);
            depart = start + service;
            departures[i] = depart;
            busy_time += service;
            total_wait += start - arrival;
            total_sojourn += depart - arrival;
            while c < carry_len && carry[c] <= arrival {
                c += 1;
            }
            while k < i && departures[k] <= arrival {
                k += 1;
            }
            let in_system = (carry_len - c) + (i - k) + 1;
            if in_system > queue_max {
                queue_max = in_system;
            }
        }
        self.last_departure = depart;
        self.last_arrival = last_arrival;
        self.busy_time = busy_time;
        self.jobs += n as u64;
        self.total_wait = total_wait;
        self.total_sojourn = total_sojourn;
        self.queue_max = queue_max;
        // Restore the deque invariant for the next (scalar or block)
        // submit: unexpired carried entries, then this block's unexpired
        // departures.
        self.in_system.drain(..c);
        self.in_system.extend(departures[k..].iter().copied());
    }

    /// Number of jobs served.
    #[must_use]
    pub fn jobs(&self) -> u64 {
        self.jobs
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

    /// Largest number of jobs simultaneously in the system (queued +
    /// in service), observed exactly at arrival instants.
    #[must_use]
    pub fn queue_max(&self) -> usize {
        self.queue_max
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

    /// Mean waiting time over all served jobs.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_wait / self.jobs as f64
        }
    }

    /// Mean sojourn time over all served jobs.
    #[must_use]
    pub fn mean_sojourn(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_sojourn / self.jobs as f64
        }
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
        assert_eq!(s.jobs(), 3);
        assert_eq!(s.busy_until(), 3.0);
        assert_eq!(s.queue_max(), 3);
        assert_eq!(s.busy_time(), 3.0);
    }

    #[test]
    fn queue_max_tracks_overlap_not_total() {
        let mut s = FcfsStation::new();
        // Two overlapping jobs, then the system drains, then one more.
        s.submit(0.0, 1.0);
        s.submit(0.5, 1.0); // in system with the first → high-water 2
        s.submit(10.0, 1.0); // alone
        assert_eq!(s.queue_max(), 2);
        // A lone job on an idle server never raises the mark above 1.
        let mut idle = FcfsStation::new();
        idle.submit(0.0, 1.0);
        assert_eq!(idle.queue_max(), 1);
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
        let n = 400_000;
        for _ in 0..n {
            t += -(1.0 - rng.gen::<f64>()).max(1e-15).ln() / 0.5;
            let svc = -(1.0 - rng.gen::<f64>()).max(1e-15).ln();
            s.submit(t, svc);
        }
        assert!(
            (s.mean_sojourn() - 2.0).abs() < 0.08,
            "{}",
            s.mean_sojourn()
        );
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
        assert_eq!(scalar.jobs(), blocked.jobs());
        assert_eq!(scalar.busy_time().to_bits(), blocked.busy_time().to_bits());
        assert_eq!(scalar.queue_max(), blocked.queue_max());
        assert_eq!(scalar.mean_wait().to_bits(), blocked.mean_wait().to_bits());
        assert_eq!(
            scalar.mean_sojourn().to_bits(),
            blocked.mean_sojourn().to_bits()
        );
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

//! Workload traces: record a generated arrival stream, replay it later.
//!
//! Useful for comparing simulator variants on *identical* traffic (the
//! same batches, in the same order) and for exporting workloads for
//! external tools.

use std::io::{BufRead, Write};

use memlat_dist::{Continuous, ParamError};

use crate::arrival::BatchArrivals;

/// One recorded batch arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Which server stream the batch belongs to.
    pub server: u32,
    /// Arrival time (seconds).
    pub time: f64,
    /// Number of concurrent keys in the batch.
    pub batch: u64,
}

/// Records `duration` seconds of a batch stream into a trace.
pub fn record<R: rand::RngCore + ?Sized>(
    stream: &mut BatchArrivals,
    server: u32,
    duration: f64,
    rng: &mut R,
) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    crate::arrival::for_each_batch_until(stream, duration, rng, |time, batch| {
        out.push(TraceRecord {
            server,
            time,
            batch,
        });
    });
    out
}

/// Writes a trace as JSON lines.
///
/// `f64` times are formatted with Rust's shortest-roundtrip `Display`,
/// so [`load`] recovers them bit-exactly.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save<W: Write>(records: &[TraceRecord], mut w: W) -> std::io::Result<()> {
    for r in records {
        writeln!(
            w,
            "{{\"server\":{},\"time\":{},\"batch\":{}}}",
            r.server, r.time, r.batch
        )?;
    }
    Ok(())
}

fn parse_field<T: std::str::FromStr>(obj: &str, key: &str) -> Option<T> {
    let needle = format!("\"{key}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Reads a JSON-lines trace written by [`save`].
///
/// # Errors
///
/// Propagates I/O errors; malformed lines become `InvalidData`.
pub fn load<R: BufRead>(r: R) -> std::io::Result<Vec<TraceRecord>> {
    let mut out = Vec::new();
    for line in r.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = (|| {
            Some(TraceRecord {
                server: parse_field(line, "server")?,
                time: parse_field(line, "time")?,
                batch: parse_field(line, "batch")?,
            })
        })()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed trace line: {line}"),
            )
        })?;
        out.push(record);
    }
    Ok(out)
}

/// Replays a recorded trace as an arrival stream (a [`Continuous`]-free
/// alternative to [`BatchArrivals`]).
#[derive(Debug, Clone)]
pub struct TraceReplay {
    records: Vec<TraceRecord>,
    cursor: usize,
}

impl TraceReplay {
    /// Creates a replay over records (sorted by time).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the trace is empty.
    pub fn new(mut records: Vec<TraceRecord>) -> Result<Self, ParamError> {
        if records.is_empty() {
            return Err(ParamError::new("cannot replay an empty trace"));
        }
        records.sort_by(|a, b| a.time.total_cmp(&b.time));
        Ok(Self { records, cursor: 0 })
    }

    /// The next batch, or `None` when the trace is exhausted.
    pub fn next_batch(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.cursor).copied();
        if r.is_some() {
            self.cursor += 1;
        }
        r
    }

    /// Total number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean key rate implied by the trace.
    #[must_use]
    pub fn key_rate(&self) -> f64 {
        let keys: u64 = self.records.iter().map(|r| r.batch).sum();
        let span = self.records.last().map_or(0.0, |r| r.time);
        if span <= 0.0 {
            0.0
        } else {
            keys as f64 / span
        }
    }
}

/// A deterministic inter-arrival law derived from a trace's empirical
/// gaps — lets the analytical model consume recorded traffic.
#[derive(Debug, Clone)]
pub struct EmpiricalGaps {
    sorted_gaps: Vec<f64>,
    mean: f64,
}

impl EmpiricalGaps {
    /// Builds the empirical gap distribution of a (single-server) trace.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when fewer than two records exist.
    pub fn from_trace(records: &[TraceRecord]) -> Result<Self, ParamError> {
        if records.len() < 2 {
            return Err(ParamError::new("need at least two records for gaps"));
        }
        let mut times: Vec<f64> = records.iter().map(|r| r.time).collect();
        times.sort_by(f64::total_cmp);
        let mut gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(f64::total_cmp);
        let mean = memlat_numerics::kahan::compensated_sum(&gaps) / gaps.len() as f64;
        Ok(Self {
            sorted_gaps: gaps,
            mean,
        })
    }
}

impl Continuous for EmpiricalGaps {
    fn cdf(&self, t: f64) -> f64 {
        let idx = self.sorted_gaps.partition_point(|&g| g <= t);
        idx as f64 / self.sorted_gaps.len() as f64
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        let m = self.mean;
        self.sorted_gaps
            .iter()
            .map(|g| (g - m) * (g - m))
            .sum::<f64>()
            / self.sorted_gaps.len() as f64
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let idx = (rng.next_u64() % self.sorted_gaps.len() as u64) as usize;
        self.sorted_gaps[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facebook;
    use rand::SeedableRng;

    fn sample_trace() -> Vec<TraceRecord> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut stream = facebook::batch_arrivals().unwrap();
        record(&mut stream, 0, 0.05, &mut rng)
    }

    #[test]
    fn record_produces_monotone_times() {
        let t = sample_trace();
        assert!(t.len() > 100);
        assert!(t.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(t.iter().all(|r| r.batch >= 1));
    }

    #[test]
    fn save_load_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        save(&t, &mut buf).unwrap();
        let back = load(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn replay_preserves_order_and_rate() {
        let t = sample_trace();
        let mut replay = TraceReplay::new(t.clone()).unwrap();
        assert_eq!(replay.len(), t.len());
        let rate = replay.key_rate();
        assert!((rate / facebook::KEY_RATE - 1.0).abs() < 0.2, "rate={rate}");
        let mut n = 0;
        let mut prev = 0.0;
        while let Some(r) = replay.next_batch() {
            assert!(r.time >= prev);
            prev = r.time;
            n += 1;
        }
        assert_eq!(n, t.len());
        assert!(TraceReplay::new(Vec::new()).is_err());
    }

    #[test]
    fn empirical_gaps_feed_the_model() {
        let t = sample_trace();
        let gaps = EmpiricalGaps::from_trace(&t).unwrap();
        // Mean gap ≈ 1/((1−q)λ).
        let expect = 1.0 / (0.9 * facebook::KEY_RATE);
        assert!((gaps.mean() / expect - 1.0).abs() < 0.1);
        // The δ solver accepts it (stable at μ_S = 80 Kps).
        let delta = memlat_queue::solve_delta(&gaps, 0.9 * facebook::SERVICE_RATE);
        assert!(delta.is_ok());
        let d = delta.unwrap();
        assert!(d > 0.5 && d < 0.95, "d={d}");
    }
}

//! Retry re-injection: client attempts that re-enter the arrival stream.
//!
//! When a client times out on a key (or a crashed server refuses it),
//! the retried attempt is new *traffic*: it must merge back into the
//! server's time-ordered arrival stream. [`RetryQueue`] is that merge
//! buffer — a min-heap ordered by re-injection time with FIFO
//! tie-breaking, so the replay order (and therefore the whole
//! simulation) is deterministic for a fixed seed regardless of how the
//! attempts interleave.
//!
//! [`exponential_backoff`] is the standard bounded-retry delay law:
//! `base · multiplier^(attempt−1) · (1 + jitter·U)` with `U ~ U[0, 1)`.
//! The jitter factor is only drawn when `jitter > 0`, so a jitter-free
//! policy consumes no randomness.

use rand::RngCore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The exponential-backoff delay before re-issuing attempt
/// `attempt + 1` after `attempt` failures (1-based: pass `1` after the
/// first failure).
///
/// # Panics
///
/// Panics if `base ≤ 0`, `multiplier < 1`, `jitter < 0`, or
/// `attempt == 0`.
#[must_use]
pub fn exponential_backoff(
    base: f64,
    multiplier: f64,
    jitter: f64,
    attempt: u32,
    rng: &mut dyn RngCore,
) -> f64 {
    assert!(base > 0.0, "backoff base must be positive");
    assert!(multiplier >= 1.0, "backoff multiplier must be >= 1");
    assert!(jitter >= 0.0, "backoff jitter must be non-negative");
    assert!(attempt >= 1, "attempt is 1-based");
    let raw = base * multiplier.powi(attempt as i32 - 1);
    if jitter > 0.0 {
        // U[0,1) from the top 53 bits, the conventional construction.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        raw * (1.0 + jitter * u)
    } else {
        raw
    }
}

struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first;
        // ties break FIFO by insertion sequence.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered queue of pending retry attempts.
///
/// # Examples
///
/// ```
/// use memlat_workload::retry::RetryQueue;
///
/// let mut q = RetryQueue::new();
/// q.push(2.0, "late");
/// q.push(1.0, "early");
/// q.push(1.0, "early-too"); // same time: FIFO
/// assert_eq!(q.pop_before(1.5), Some((1.0, "early")));
/// assert_eq!(q.pop_before(1.5), Some((1.0, "early-too")));
/// assert_eq!(q.pop_before(1.5), None); // "late" not due yet
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// ```
#[derive(Default)]
pub struct RetryQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> RetryQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` for re-injection at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, payload: T) {
        assert!(time.is_finite(), "retry time must be finite");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the earliest pending attempt if it is due strictly before
    /// `deadline` (or exactly at it: retries at a batch's arrival time
    /// are replayed ahead of the batch, a fixed deterministic rule).
    pub fn pop_before(&mut self, deadline: f64) -> Option<(f64, T)> {
        if self.heap.peek().is_some_and(|e| e.time <= deadline) {
            self.pop()
        } else {
            None
        }
    }

    /// Pops the earliest pending attempt unconditionally.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of pending attempts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no attempts are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = RetryQueue::new();
        q.push(3.0, 'c');
        q.push(1.0, 'a');
        q.push(3.0, 'd');
        q.push(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_deadline_inclusively() {
        let mut q = RetryQueue::new();
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop_before(1.0), Some((1.0, 1)));
        assert_eq!(q.pop_before(1.999), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn backoff_grows_exponentially_without_jitter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let d1 = exponential_backoff(1e-3, 2.0, 0.0, 1, &mut rng);
        let d2 = exponential_backoff(1e-3, 2.0, 0.0, 2, &mut rng);
        let d3 = exponential_backoff(1e-3, 2.0, 0.0, 3, &mut rng);
        assert_eq!((d1, d2, d3), (1e-3, 2e-3, 4e-3));
    }

    #[test]
    fn jitter_bounds_and_determinism() {
        let mut a = rand::rngs::StdRng::seed_from_u64(2);
        let mut b = rand::rngs::StdRng::seed_from_u64(2);
        for attempt in 1..=5 {
            let x = exponential_backoff(1e-3, 2.0, 0.5, attempt, &mut a);
            let y = exponential_backoff(1e-3, 2.0, 0.5, attempt, &mut b);
            assert_eq!(x, y);
            let raw = 1e-3 * 2f64.powi(attempt as i32 - 1);
            assert!(x >= raw && x < raw * 1.5);
        }
    }

    #[test]
    #[should_panic(expected = "attempt is 1-based")]
    fn backoff_rejects_zero_attempt() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let _ = exponential_backoff(1e-3, 2.0, 0.0, 0, &mut rng);
    }
}

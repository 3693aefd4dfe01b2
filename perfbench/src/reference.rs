//! A fixed reference workload that times the host, not the program.
//!
//! The simulator workloads run on a shared virtual machine whose speed
//! moves by 10–25% over minutes, with little steal and no run-queue
//! wait: other tenants share its cores, caches and memory. Two runs of
//! the same code minutes apart then differ by as much as a real
//! optimisation would. The timed loop therefore runs this kernel
//! between every two repetitions and divides each repetition's host
//! time by the mean of the kernel times on either side of it, so a
//! slower host slows both and the ratio stays put.
//!
//! The kernel does the kinds of work the simulator does: uniform draws
//! turned into exponential variates through `ln`, a Lindley-style
//! serial recursion written to an `f32` column, a sort, and scattered
//! reads over the column. It calls no code of the repository, so a
//! change to the program never moves it.

use std::time::Instant;

/// Variates per kernel run: about 60 ms on the host the bounds were
/// measured on.
const LEN: usize = 2_000_000;

/// The kernel's median host time on that host (a 2-vCPU KVM guest,
/// Intel Xeon at 2.1 GHz). Relative times are scaled by it, so a
/// normalised rate reads about what that host measured raw.
pub const NOMINAL_S: f64 = 0.058;

/// The kernel with its column, which its first run allocates.
#[derive(Default)]
pub struct Reference {
    column: Vec<f32>,
}

impl Reference {
    /// Runs the kernel once and returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(kernel(&mut self.column, std::hint::black_box(LEN)));
        t0.elapsed().as_secs_f64()
    }
}

fn kernel(column: &mut Vec<f32>, n: usize) -> f32 {
    column.clear();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut wait = 0.0_f64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = ((x >> 11) as f64 + 0.5) * (1.0 / (1_u64 << 53) as f64);
        wait = (wait - u.ln() * 1e-5 - 1.1e-5).max(0.0);
        column.push(wait as f32);
    }
    column[..n / 4].sort_unstable_by(f32::total_cmp);
    let (mut acc, mut i) = (0.0_f32, 0_usize);
    for _ in 0..n {
        i = i.wrapping_mul(2_654_435_761).wrapping_add(12_345) % n;
        acc += column[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let x = kernel(&mut a, 10_000);
        assert_eq!(x.to_bits(), kernel(&mut b, 10_000).to_bits());
        assert_eq!(x.to_bits(), kernel(&mut a, 10_000).to_bits());
        assert!(x > 0.0);
        assert_eq!(a.len(), 10_000);
        assert!(a[..2_500].windows(2).all(|w| w[0] <= w[1]));
    }
}

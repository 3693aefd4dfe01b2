//! Resource probes read from outside the measured code, through `/proc`
//! only (no libc): peak RSS, per-thread scheduler statistics and the
//! hypervisor's steal.

use std::io;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Peak resident set size (`VmHWM`) of process `pid`, or of this
/// process for `None`, in MiB.
///
/// # Errors
///
/// The status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line"))
}

/// On-CPU time and run-queue wait of one thread, in ns
/// (`/proc/.../schedstat`'s first two fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl SchedStat {
    /// Field-wise `self − earlier`, saturating at 0.
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

fn parse_schedstat(text: &str) -> io::Result<SchedStat> {
    let mut f = text.split_whitespace().map(str::parse::<u64>);
    match (f.next(), f.next()) {
        (Some(Ok(cpu_ns)), Some(Ok(wait_ns))) => Ok(SchedStat { cpu_ns, wait_ns }),
        _ => Err(io::Error::other(format!("bad schedstat {text:?}"))),
    }
}

/// Scheduler statistics of the calling thread.
///
/// # Errors
///
/// `/proc/thread-self/schedstat` is unreadable.
pub fn thread_self() -> io::Result<SchedStat> {
    parse_schedstat(&std::fs::read_to_string("/proc/thread-self/schedstat")?)
}

/// Scheduler statistics summed over every live thread of process `pid`.
///
/// # Errors
///
/// The task directory is unreadable.
pub fn process(pid: u32) -> io::Result<SchedStat> {
    let mut total = SchedStat::default();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = entry?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(path) {
            let s = parse_schedstat(&text)?;
            total.cpu_ns += s.cpu_ns;
            total.wait_ns += s.wait_ns;
        }
    }
    Ok(total)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The machine's CPU time so far, from the `cpu` line of `/proc/stat`:
/// `(steal, total)` in clock ticks. Steal is time a virtual CPU was
/// runnable but the hypervisor ran something else.
///
/// # Errors
///
/// `/proc/stat` is unreadable or has no `cpu` line.
pub fn cpu_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    parse_cpu_ticks(&stat)
}

fn parse_cpu_ticks(stat: &str) -> io::Result<(u64, u64)> {
    let line = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .ok_or_else(|| io::Error::other("no cpu line in /proc/stat"))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::other(format!("bad /proc/stat cpu line: {e}")))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = f.iter().take(8).sum();
    Ok((f.get(7).copied().unwrap_or(0), total))
}

/// Share of the machine's CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
#[must_use]
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Steal below this share of the machine's CPU time counts as a quiet
/// host.
pub const QUIET_STEAL: f64 = 0.02;

/// Which of a run's intervals were quiet: those whose steal share is
/// at most the median interval's, or at most [`QUIET_STEAL`]. On a
/// quiet host every interval is; under a steal burst, the quieter half.
#[must_use]
pub fn quiet(steal: &[f64]) -> Vec<bool> {
    let limit = crate::stats::median(steal).max(QUIET_STEAL);
    steal.iter().map(|&x| x <= limit).collect()
}

/// Loads the host as a server does and returns the share of the
/// machine's CPU time the hypervisor stole meanwhile. Pairs of threads,
/// one pair per two CPUs, pass a token back and forth for `length`,
/// with a few µs of work per hop, so the virtual CPUs halt and wake
/// constantly. A busy-spinning probe misses the steal that waking a
/// halted virtual CPU on a contended host meets; an idle one accrues no
/// steal at all.
///
/// # Errors
///
/// `/proc/stat` is unreadable.
pub fn steal_under_load(length: Duration) -> io::Result<f64> {
    fn work() {
        let end = Instant::now() + Duration::from_micros(5);
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }
    let before = cpu_ticks()?;
    let end = Instant::now() + length;
    std::thread::scope(|s| {
        for _ in 0..(nproc() / 2).max(1) {
            let (ping, ping_rx) = sync_channel::<()>(0);
            let (pong, pong_rx) = sync_channel::<()>(0);
            s.spawn(move || {
                while ping_rx.recv().is_ok() && pong.send(()).is_ok() {
                    work();
                }
            });
            s.spawn(move || {
                while Instant::now() < end && ping.send(()).is_ok() && pong_rx.recv().is_ok() {
                    work();
                }
            });
        }
    });
    Ok(steal_frac(before, cpu_ticks()?))
}

/// Waits, for at most `max`, until a half-second [`steal_under_load`]
/// probe reads below [`QUIET_STEAL`]. Returns the seconds waited and the
/// last probe's steal share. The wait is never part of a measurement.
///
/// # Errors
///
/// `/proc/stat` is unreadable.
pub fn wait_for_quiet(max: Duration) -> io::Result<(f64, f64)> {
    let start = Instant::now();
    loop {
        let steal = steal_under_load(Duration::from_millis(500))?;
        if steal < QUIET_STEAL || start.elapsed() >= max {
            return Ok((start.elapsed().as_secs_f64(), steal));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        let a = thread_self().unwrap();
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        let b = thread_self().unwrap();
        assert!(b.since(a).cpu_ns > 0);
        assert!(process(std::process::id()).unwrap().cpu_ns >= b.cpu_ns);
        assert!(nproc() >= 1);
    }

    #[test]
    fn quiet_intervals() {
        // Median 0.015 is below the floor: all but the burst count.
        assert_eq!(quiet(&[0.0, 0.25, 0.01, 0.02]), [true, false, true, true]);
        // Steal throughout: the quieter half counts.
        assert_eq!(quiet(&[0.3, 0.1, 0.05, 0.2]), [false, true, true, false]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn steal_accounting() {
        let stat = "cpu  100 0 50 800 10 0 5 35 20 0\ncpu0 1 2 3\n";
        assert_eq!(parse_cpu_ticks(stat).unwrap(), (35, 1000));
        assert!(parse_cpu_ticks("intr 1 2\n").is_err());
        assert_eq!(steal_frac((35, 1000), (45, 1100)), 0.1);
        assert_eq!(steal_frac((35, 1000), (35, 1000)), 0.0);
        let (steal, total) = cpu_ticks().unwrap();
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn schedstat_parsing() {
        let s = parse_schedstat("123 45 6\n").unwrap();
        assert_eq!(
            s,
            SchedStat {
                cpu_ns: 123,
                wait_ns: 45
            }
        );
        assert!(parse_schedstat("x").is_err());
        let d = SchedStat {
            cpu_ns: 5,
            wait_ns: 1,
        }
        .since(SchedStat {
            cpu_ns: 2,
            wait_ns: 3,
        });
        assert_eq!(
            d,
            SchedStat {
                cpu_ns: 3,
                wait_ns: 0
            }
        );
    }
}

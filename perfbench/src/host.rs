//! The host-speed probe. A fixed kernel that uses no repository code is
//! timed between the ops of a run, together with the hypervisor's steal
//! counter, so each op's wall time can be read at a fixed host speed.
//!
//! On the shared two-core test host the same code runs at speeds up to
//! 1.75x apart with no steal at all (other guests' load slows this one's
//! cores), and the hypervisor at times steals 10-25% of the CPU for minutes
//! on end. Both move every latency of a run together, and neither depends
//! on the program. [`HostSpeed::factor`] takes both out: it scales an op's
//! wall time by the share of CPU time not stolen around the op, and by
//! [`REF_MS`] over the probe's time around the op.

use crate::util::{median, Rng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The host speed that host-adjusted times are given at, as the probe
/// kernel's CPU time in ms: a round figure near what the kernel took on the
/// two-core test host (a median of 0.9 to 1.8 ms per run, 1.2 ms typical).
pub const REF_MS: f64 = 1.0;
/// Probes are at least this far apart, in seconds.
const PROBE_EVERY_S: f64 = 0.02;
/// An op is read against the probes within this many seconds of it...
const NEAR_S: f64 = 0.5;
/// ...or, if fewer, against this many probes nearest to it.
const NEAR_MIN: usize = 5;

/// CPU time of the calling thread, in ms. The kernel leaves out time the
/// hypervisor stole from the thread's CPU, so the probe measures how fast
/// the host runs, not how much of the time it ran.
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// The probe kernel, allocating and branchy like a compiler: ordered-map
/// inserts into small vectors, string formatting and a sort. Returns its
/// CPU time in ms. Of the kernels tried, its time tracked the workloads'
/// op times best; a random read-modify-write loop over a 1 MiB table and a
/// streaming pass over 4 MiB tracked them worse.
fn kernel_ms() -> f64 {
    let started = thread_cpu_ms();
    let mut rng = Rng::new(0xB0B, 0);
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..6000u32 {
        map.entry(rng.next_u64() % 1500).or_default().push(i);
    }
    let mut keys: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{k}:{}:{}", v.len(), v.iter().sum::<u32>()))
        .collect();
    keys.sort();
    black_box(&keys);
    thread_cpu_ms() - started
}

/// Binds the calling thread, and every thread and child process it starts
/// afterwards, to CPU `cpu`.
fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid 1024-bit CPU set for the call's duration.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// One probe: when it ran (seconds since the epoch), the kernel's CPU
/// time, and the steal and total CPU ticks read right after it.
#[derive(Clone, Copy)]
struct Sample {
    at: f64,
    ms: f64,
    ticks: Option<(u64, u64)>,
}

/// Probe samples of one run.
pub struct HostSpeed {
    epoch: Instant,
    /// The CPU the run is pinned to, whose steal counter is read; `None`
    /// reads the whole machine's.
    cpu: Option<usize>,
    samples: Vec<Sample>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed {
            epoch: Instant::now(),
            cpu: None,
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Pins the calling thread, and what it starts afterwards, to `cpu`,
    /// and reads that CPU's steal counter from then on.
    pub fn pin(&mut self, cpu: usize) -> Result<(), String> {
        pin_to_cpu(cpu)?;
        self.cpu = Some(cpu);
        Ok(())
    }

    /// Seconds since the probe's epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Takes one probe sample now.
    pub fn probe(&mut self) {
        let t0 = self.at(Instant::now());
        let ms = kernel_ms();
        let t1 = self.at(Instant::now());
        self.samples.push(Sample {
            at: (t0 + t1) / 2.0,
            ms,
            ticks: cpu_ticks(self.cpu),
        });
    }

    /// Takes a probe sample if the last one is older than `PROBE_EVERY_S`.
    pub fn tick(&mut self) {
        let now = self.at(Instant::now());
        if self
            .samples
            .last()
            .is_none_or(|s| now - s.at >= PROBE_EVERY_S)
        {
            self.probe();
        }
    }

    /// The factor that puts a wall time measured over `t0..t1` (seconds
    /// since the epoch) at the reference host speed: the share of CPU time
    /// not stolen around it, times [`REF_MS`] over the median probe time
    /// around it. 1 when there are no samples.
    pub fn factor(&self, t0: f64, t1: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let dist = |t: f64| (t0 - t).max(t - t1).max(0.0);
        let mut near: Vec<(f64, f64)> = self.samples.iter().map(|s| (dist(s.at), s.ms)).collect();
        near.sort_by(|x, y| x.0.total_cmp(&y.0));
        let within = near.iter().take_while(|x| x.0 <= NEAR_S).count();
        let k = within.max(NEAR_MIN).min(near.len());
        let probe_ms: Vec<f64> = near[..k].iter().map(|x| x.1).collect();
        (1.0 - self.steal_share(t0 - NEAR_S, t1 + NEAR_S)) * REF_MS / median(&probe_ms)
    }

    /// Stolen share of CPU time over `t0..t1`, from the last counter
    /// reading at or before `t0` to the first at or after `t1`.
    pub fn steal_share(&self, t0: f64, t1: f64) -> f64 {
        let read: Vec<(f64, (u64, u64))> = self
            .samples
            .iter()
            .filter_map(|s| Some((s.at, s.ticks?)))
            .collect();
        if read.len() < 2 {
            return 0.0;
        }
        let lo = read.iter().rposition(|x| x.0 <= t0).unwrap_or(0);
        let hi = read
            .iter()
            .position(|x| x.0 >= t1)
            .unwrap_or(read.len() - 1);
        let ((s0, n0), (s1, n1)) = (read[lo].1, read[hi].1);
        if n1 > n0 {
            s1.saturating_sub(s0) as f64 / (n1 - n0) as f64
        } else {
            0.0
        }
    }

    /// Every probe time of the run, in ms.
    pub fn probe_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }
}

/// `(steal, total)` CPU ticks from `/proc/stat`, of CPU `cpu` or of the
/// whole machine: steal is time the hypervisor ran something else while
/// the CPU wanted to run.
fn cpu_ticks(cpu: Option<usize>) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = match cpu {
        Some(cpu) => format!("cpu{cpu}"),
        None => "cpu".to_string(),
    };
    let ticks: Vec<u64> = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: f64, ms: f64, steal: u64, total: u64) -> Sample {
        Sample {
            at,
            ms,
            ticks: Some((steal, total)),
        }
    }

    #[test]
    fn factor_takes_out_steal_and_host_speed() {
        // Probes at half speed and a quarter of the CPU stolen throughout:
        // a wall time counts 0.75 / 2 of itself.
        let host = HostSpeed {
            samples: (0..40)
                .map(|i| sample(i as f64 * 0.1, 2.0 * REF_MS, 25 * i, 100 * i))
                .collect(),
            ..HostSpeed::default()
        };
        let f = host.factor(1.0, 1.1);
        assert!((f - 0.375).abs() < 1e-9, "factor {f}");
        assert_eq!(HostSpeed::default().factor(0.0, 1.0), 1.0);
    }
}

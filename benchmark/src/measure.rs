//! The pass loop, host-speed normalization, and what a run accumulates
//! over its passes.

use crate::stats::median;
use crate::trace::{per_layer, Layers, Untraced};
use std::hint::black_box;
use std::time::Instant;

/// Seed of the reference input the simulated answers are taken from.
pub const REFERENCE_SEED: u64 = 42;

/// Iterations of the reference kernel: about 30 ms on an idle host.
const KERNEL_ITERS: u64 = 4_000_000;

/// Seconds the reference kernel takes on the idle development host (a
/// 2-vCPU Intel Xeon VM). Normalized times are seconds at that speed.
pub const REFERENCE_S: f64 = 0.032;

/// Schedule generation takes milliseconds, so it is repeated for at least
/// this long between two kernel runs and timed per call.
pub const MIN_SETUP_S: f64 = 0.25;

/// Engine simulations per section: each is timed between kernel runs, and
/// the section reports their mean, so one pass is steadier than one call.
pub const CALLS: u32 = 3;

/// The reference kernel: integer arithmetic and data-dependent branches
/// over an L1-resident table. It is the benchmark's own code, so no change
/// to the library can make it faster or slower; only the host can.
fn kernel() -> u64 {
    let mut table = [0u32; 4096];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    for i in 0..black_box(KERNEL_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x & 4095) as usize;
        let v = table[idx];
        acc = if (v ^ x as u32) & 3 == 0 {
            acc.wrapping_mul(3).wrapping_add(u64::from(v))
        } else if v & 4 == 0 {
            acc ^ (i << 3)
        } else {
            acc.rotate_left(5)
        };
        table[idx] = v.wrapping_add((x >> 7) as u32);
    }
    acc
}

/// Mean seconds of one kernel run while `threads` copies run at once.
fn kernel_s(threads: usize) -> f64 {
    let one = || {
        let t = Instant::now();
        black_box(kernel());
        t.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return one();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        let total: f64 = runs
            .into_iter()
            .map(|h| h.join().expect("reference kernel thread"))
            .sum();
        total / threads as f64
    })
}

/// One timed section: seconds as measured, and normalized to the host
/// speed the reference kernel saw just before and just after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub raw: f64,
    pub norm: f64,
}

impl std::ops::Add for Sample {
    type Output = Sample;

    fn add(self, other: Sample) -> Sample {
        Sample {
            raw: self.raw + other.raw,
            norm: self.norm + other.norm,
        }
    }
}

impl std::ops::Div<f64> for Sample {
    type Output = Sample;

    fn div(self, n: f64) -> Sample {
        Sample {
            raw: self.raw / n,
            norm: self.norm / n,
        }
    }
}

/// Times sections between runs of the reference kernel.
///
/// Hosts shared with other tenants slow down by up to 2x for seconds to
/// minutes at a time; the kernel slows with them, so the normalized time
/// `raw * REFERENCE_S / mean(kernel before, kernel after)` follows the code
/// rather than the host. A section that starts right after another on the
/// same number of threads reuses the kernel run between them, so callers
/// do no untimed work of note between such sections.
#[derive(Debug, Default)]
pub struct Clock {
    /// The last kernel run: threads and seconds.
    last: Option<(usize, f64)>,
}

impl Clock {
    /// Times `f`, which runs on `threads` threads.
    pub fn time<T>(&mut self, threads: usize, f: impl FnOnce() -> T) -> (T, Sample) {
        let before = match self.last {
            Some((t, k)) if t == threads => k,
            _ => kernel_s(threads),
        };
        let t = Instant::now();
        let out = black_box(f());
        let raw = t.elapsed().as_secs_f64();
        let after = kernel_s(threads);
        self.last = Some((threads, after));
        let norm = raw * REFERENCE_S / ((before + after) / 2.0);
        (out, Sample { raw, norm })
    }

    /// Times [`CALLS`] calls of `f`, which runs on `threads` threads, each
    /// on its own; returns the last call's output and the mean call.
    pub fn time_calls<T>(&mut self, threads: usize, mut f: impl FnMut() -> T) -> (T, Sample) {
        let (mut out, mut total) = self.time(threads, &mut f);
        for _ in 1..CALLS {
            let (o, s) = self.time(threads, &mut f);
            out = o;
            total = total + s;
        }
        (out, total / f64::from(CALLS))
    }

    /// Times one call of single-threaded `f` as the mean over as many calls
    /// as fit in [`MIN_SETUP_S`] (at least one), all between the same two
    /// kernel runs; returns the last call's output.
    pub fn time_short_calls<T>(&mut self, mut f: impl FnMut() -> T) -> (T, Sample) {
        let mut calls = 0u32;
        let (out, s) = self.time(1, || {
            let t = Instant::now();
            loop {
                let out = black_box(f());
                calls += 1;
                if t.elapsed().as_secs_f64() >= MIN_SETUP_S {
                    return out;
                }
            }
        });
        (out, s / f64::from(calls))
    }
}

/// Repeats `pass` until at least `min_passes` have run and `seconds` have
/// elapsed, returning the number of passes.
pub fn passes(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        pass()?;
        n += 1;
        if n >= min_passes && start.elapsed().as_secs_f64() >= seconds {
            return Ok(n);
        }
    }
}

/// Peak resident memory of this process so far, from `VmHWM` in /proc.
/// Read right after the single-threaded warm-up pass, it is the memory one
/// run of the reference input needs (inputs, simulation and result); later
/// passes would add allocator arenas of worker threads, which vary run to
/// run.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak memory needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".into())
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Everything an end-to-end run measures, per timed pass where timed.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup: Vec<Sample>,
    pub wall: Vec<Sample>,
    pub par_wall: Vec<Sample>,
    pub clock: Clock,
    /// Memory requests completed in one pass.
    pub requests: u64,
    /// Simulated answers on the reference input.
    pub completed_frac: f64,
    pub qos_p99_cycles: f64,
    pub peak_rss_mb: f64,
    /// Simulations whose output was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific results reported beside the declared metrics.
    pub extra: Vec<Metric>,
}

impl EndToEnd {
    /// Starts the record of a run whose warm-up pass on the reference input
    /// has just finished.
    pub fn after_warm_up() -> Result<Self, String> {
        Ok(EndToEnd {
            peak_rss_mb: peak_rss_mb()?,
            ..Default::default()
        })
    }

    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The per-layer metrics of every traced round of a trace run.
#[derive(Debug, Default)]
pub struct Round {
    samples: Vec<Vec<Metric>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Round {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn push(&mut self, layers: &Layers, untraced: &Untraced) {
        self.samples.push(per_layer(layers, untraced));
    }

    /// Each metric's median over the rounds.
    pub fn medians(&self) -> Vec<Metric> {
        let first = self.samples.first().expect("at least one traced round");
        first
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                let values: Vec<f64> = self.samples.iter().map(|s| s[i].1).collect();
                (name, median(&values), unit)
            })
            .collect()
    }
}

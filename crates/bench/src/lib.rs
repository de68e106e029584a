//! Shared helpers for the FQMS figure/table regeneration harness.
//!
//! Every binary in this crate regenerates one table or figure of the
//! paper's evaluation. They all honour two environment variables:
//!
//! * `FQMS_RUNLEN` — `quick` | `standard` (default) | `full`: per-thread
//!   instruction budget per run,
//! * `FQMS_SEED` — master random seed (default 42).
//!
//! Output is tab-separated with a `#`-prefixed header so results can be
//! piped into plotting tools or diffed across runs.

use fqms::prelude::*;

pub mod timing;

/// Reads the run length from `FQMS_RUNLEN` (quick/standard/full).
pub fn run_length() -> RunLength {
    match std::env::var("FQMS_RUNLEN").as_deref() {
        Ok("quick") => RunLength::quick(),
        Ok("full") => RunLength::full(),
        _ => RunLength::standard(),
    }
}

/// Reads the master seed from `FQMS_SEED` (default 42).
pub fn seed() -> u64 {
    std::env::var("FQMS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Prints a `#`-prefixed header row.
pub fn header(cols: &[&str]) {
    println!("#{}", cols.join("\t"));
}

/// Prints one data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Formats a float to 4 decimal places.
pub fn f(x: f64) -> String {
    format!("{x:.4}")
}

/// End-of-run diagnostics for a figure binary, printed to **stderr** so
/// `run_figures.sh` captures them in the binary's `results/<bin>.log`
/// sidecar: total wall-clock, controller cycles simulated, and the
/// fraction the event-driven fast path skipped (see
/// [`fqms::telemetry`]). Construct one at the top of `main` and let it
/// drop on exit.
pub struct RunLog {
    t0: std::time::Instant,
}

impl RunLog {
    /// Starts the wall clock for this process.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        RunLog {
            t0: std::time::Instant::now(),
        }
    }
}

impl Drop for RunLog {
    fn drop(&mut self) {
        let (stepped, skipped) = fqms::telemetry::controller_cycles();
        eprintln!("#wall_clock_s\t{:.3}", self.t0.elapsed().as_secs_f64());
        eprintln!("#controller_cycles_stepped\t{stepped}");
        eprintln!("#controller_cycles_skipped\t{skipped}");
        eprintln!("#skip_rate\t{:.4}", fqms::telemetry::skip_rate());
        let exec = fqms::telemetry::parallel_exec();
        eprintln!("#parallel_workers\t{}", exec.workers_peak);
        eprintln!("#parallel_steals\t{}", exec.steals);
        eprintln!("#parallel_free_run_spans\t{}", exec.free_run_spans);
    }
}

/// The three schedulers the paper's figures compare.
pub fn paper_schedulers() -> [SchedulerKind; 3] {
    [
        SchedulerKind::FrFcfs,
        SchedulerKind::FrVftf,
        SchedulerKind::FqVftf,
    ]
}

/// Baseline (private, time-scaled) IPCs for a set of profiles, computed
/// once per process. `factor` is the time-scale (2 for two-core baselines,
/// 4 for four-core).
pub fn baseline_ipcs(
    profiles: &[fqms_workloads::profile::WorkloadProfile],
    factor: u64,
    len: RunLength,
    seed: u64,
) -> Vec<f64> {
    profiles
        .iter()
        .map(|p| {
            run_private_baseline(
                *p,
                factor,
                len.instructions,
                len.max_dram_cycles.saturating_mul(factor),
                seed,
            )
            .ipc
        })
        .collect()
}

/// Solo metrics (unscaled private run) for a set of profiles.
pub fn solo_metrics(
    profiles: &[fqms_workloads::profile::WorkloadProfile],
    len: RunLength,
    seed: u64,
) -> Vec<ThreadMetrics> {
    profiles
        .iter()
        .map(|p| run_solo(*p, len.instructions, len.max_dram_cycles, seed))
        .collect()
}

/// One subject×scheduler cell of the two-core sweep behind Figures 5-7:
/// the subject on thread 0, the `art` background on thread 1.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Subject benchmark name.
    pub subject: String,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Shared-run metrics (thread 0 = subject, thread 1 = art).
    pub metrics: SystemMetrics,
    /// Subject's private ×2-time-scaled baseline IPC.
    pub subject_baseline_ipc: f64,
    /// art's private ×2-time-scaled baseline IPC.
    pub background_baseline_ipc: f64,
}

impl SweepEntry {
    /// Subject IPC normalized to its ×2 private baseline (the paper's QoS
    /// metric: >= 1 means the QoS objective is met).
    pub fn subject_norm_ipc(&self) -> f64 {
        self.metrics.threads[0].ipc / self.subject_baseline_ipc
    }

    /// Background (art) IPC normalized to its ×2 private baseline.
    pub fn background_norm_ipc(&self) -> f64 {
        self.metrics.threads[1].ipc / self.background_baseline_ipc
    }

    /// Harmonic mean of the two normalized IPCs (the paper's aggregate
    /// performance metric for Figure 7).
    pub fn hmean_norm_ipc(&self) -> f64 {
        harmonic_mean(&[self.subject_norm_ipc(), self.background_norm_ipc()])
    }
}

/// Runs the full two-core sweep: every benchmark except `art` as the
/// subject, `art` as the background, under each of `schedulers`.
pub fn two_core_sweep(schedulers: &[SchedulerKind], len: RunLength, seed: u64) -> Vec<SweepEntry> {
    let art = by_name("art").expect("art profile exists");
    let subjects: Vec<_> = SPEC_PROFILES
        .iter()
        .filter(|p| p.name != "art")
        .copied()
        .collect();
    let base_art =
        run_private_baseline(art, 2, len.instructions, len.max_dram_cycles * 2, seed).ipc;
    let mut out = Vec::new();
    for subject in &subjects {
        let base_subj =
            run_private_baseline(*subject, 2, len.instructions, len.max_dram_cycles * 2, seed).ipc;
        for &scheduler in schedulers {
            let metrics = two_core_run(*subject, art, scheduler, len, seed);
            out.push(SweepEntry {
                subject: subject.name.to_string(),
                scheduler,
                metrics,
                subject_baseline_ipc: base_subj,
                background_baseline_ipc: base_art,
            });
        }
    }
    out
}

//! Shared experiment runners for the paper's evaluation (Section 4).
//!
//! These helpers are the building blocks the figure-regeneration binaries
//! (crate `fqms-bench`) and the integration tests compose: solo runs
//! (Figure 4), the two-core subject/background sweep (Figures 1 and 5-7),
//! and the four-core heterogeneous workloads (Figures 8-9).

use crate::metrics::{SystemMetrics, ThreadMetrics};
use crate::system::SystemBuilder;
use fqms_memctrl::policy::SchedulerKind;
use fqms_workloads::profile::WorkloadProfile;
use fqms_workloads::spec::SPEC_PROFILES;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How long to simulate: the per-thread instruction target and a hard
/// cycle bound (so pathological configurations cannot hang a sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLength {
    /// Instructions each thread must retire.
    pub instructions: u64,
    /// Hard bound on simulated DRAM cycles.
    pub max_dram_cycles: u64,
}

impl RunLength {
    /// Short runs for unit/integration tests (~tens of ms each).
    pub const fn quick() -> Self {
        RunLength {
            instructions: 30_000,
            max_dram_cycles: 3_000_000,
        }
    }

    /// Standard figure-quality runs.
    pub const fn standard() -> Self {
        RunLength {
            instructions: 300_000,
            max_dram_cycles: 40_000_000,
        }
    }

    /// Long runs for final numbers.
    pub const fn full() -> Self {
        RunLength {
            instructions: 1_000_000,
            max_dram_cycles: 150_000_000,
        }
    }
}

impl Default for RunLength {
    fn default() -> Self {
        RunLength::standard()
    }
}

/// Runs every one of the twenty profiles alone on the unscaled memory
/// system (Figure 4). Results are in `SPEC_PROFILES` order.
pub fn solo_sweep(len: RunLength, seed: u64) -> Vec<ThreadMetrics> {
    SPEC_PROFILES
        .iter()
        .map(|p| crate::baseline::run_solo(*p, len.instructions, len.max_dram_cycles, seed))
        .collect()
}

/// Runs independent simulation jobs across `num_threads` OS threads and
/// returns their results in input order.
///
/// `System` is deliberately `!Send` (the shared L2 is reference-counted),
/// so each job is a closure that *constructs* its own system inside the
/// worker thread. Jobs are claimed from a shared counter, so scheduling
/// is work-stealing but the output order — and, because every job is
/// self-contained and internally deterministic, every result — is
/// independent of thread count and interleaving.
///
/// # Example
///
/// ```
/// use fqms::experiment::run_jobs;
///
/// let jobs: Vec<_> = (0u64..8).map(|i| move || i * i).collect();
/// let squares = run_jobs(jobs, 4);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
///
/// # Panics
///
/// Panics if `num_threads` is zero or a job panics.
pub fn run_jobs<T, F>(jobs: Vec<F>, num_threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    assert!(num_threads > 0, "need at least one worker thread");
    let n = jobs.len();
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..num_threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i].lock().unwrap().take().expect("job claimed once");
                let out = job();
                *results[i].lock().unwrap() = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every job ran"))
        .collect()
}

/// Parallel [`solo_sweep`]: the twenty Figure 4 solo runs distributed
/// across `num_threads` workers. Bit-identical to the serial sweep —
/// each run builds its own isolated system from `(profile, len, seed)`.
///
/// # Example
///
/// ```
/// use fqms::experiment::{solo_sweep, solo_sweep_parallel, RunLength};
///
/// let len = RunLength { instructions: 500, max_dram_cycles: 100_000 };
/// let parallel = solo_sweep_parallel(len, 7, 4);
/// assert_eq!(parallel.len(), 20); // one result per SPEC profile
/// assert_eq!(parallel, solo_sweep(len, 7));
/// ```
pub fn solo_sweep_parallel(len: RunLength, seed: u64, num_threads: usize) -> Vec<ThreadMetrics> {
    let jobs: Vec<_> = SPEC_PROFILES
        .iter()
        .map(|p| move || crate::baseline::run_solo(*p, len.instructions, len.max_dram_cycles, seed))
        .collect();
    run_jobs(jobs, num_threads)
}

/// Runs a two-core CMP: `subject` on thread 0, `background` on thread 1,
/// with equal shares under `scheduler` (the Figures 1/5/6/7 platform).
pub fn two_core_run(
    subject: WorkloadProfile,
    background: WorkloadProfile,
    scheduler: SchedulerKind,
    len: RunLength,
    seed: u64,
) -> SystemMetrics {
    let mut sys = SystemBuilder::new()
        .scheduler(scheduler)
        .seed(seed)
        .workload(subject)
        .workload(background)
        .build()
        .expect("two-core configuration is valid");
    sys.run(len.instructions, len.max_dram_cycles)
}

/// Runs a four-core CMP with the given workload mix and equal shares
/// (the Figures 8/9 platform).
pub fn four_core_run(
    mix: &[WorkloadProfile; 4],
    scheduler: SchedulerKind,
    len: RunLength,
    seed: u64,
) -> SystemMetrics {
    let mut sys = SystemBuilder::new()
        .scheduler(scheduler)
        .seed(seed)
        .workloads(mix.iter().copied())
        .build()
        .expect("four-core configuration is valid");
    sys.run(len.instructions, len.max_dram_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqms_workloads::spec::by_name;

    #[test]
    fn two_core_run_keeps_thread_order() {
        let m = two_core_run(
            by_name("vpr").unwrap(),
            by_name("art").unwrap(),
            SchedulerKind::FrFcfs,
            RunLength::quick(),
            3,
        );
        assert_eq!(m.threads[0].name, "vpr");
        assert_eq!(m.threads[1].name, "art");
    }

    #[test]
    fn four_core_run_covers_all_threads() {
        let mix = fqms_workloads::spec::four_core_workloads()[0];
        let m = four_core_run(&mix, SchedulerKind::FqVftf, RunLength::quick(), 3);
        assert_eq!(m.threads.len(), 4);
        assert!(m.threads.iter().all(|t| t.instructions > 0));
    }

    #[test]
    fn run_jobs_preserves_order_and_results() {
        let jobs: Vec<_> = (0u64..17).map(|i| move || i * i).collect();
        for threads in [1, 3, 8] {
            let jobs: Vec<_> = (0u64..17).map(|i| move || i * i).collect();
            assert_eq!(
                run_jobs(jobs, threads),
                (0u64..17).map(|i| i * i).collect::<Vec<_>>()
            );
        }
        assert_eq!(run_jobs(jobs, 4).len(), 17);
        assert!(run_jobs(Vec::<fn() -> u8>::new(), 2).is_empty());
    }

    #[test]
    fn parallel_solo_sweep_matches_serial() {
        let len = RunLength {
            instructions: 2_000,
            max_dram_cycles: 400_000,
        };
        let serial = solo_sweep(len, 11);
        for threads in [2, 4] {
            assert_eq!(solo_sweep_parallel(len, 11, threads), serial);
        }
    }

    #[test]
    fn run_length_presets_are_ordered() {
        assert!(RunLength::quick().instructions < RunLength::standard().instructions);
        assert!(RunLength::standard().instructions < RunLength::full().instructions);
    }
}

//! Free-running parallel execution of independent simulation shards.
//!
//! A [`Shard`] is a self-contained piece of simulation state (for FQMS: one
//! DDR2 channel with its bank schedulers, VTMS bookkeeping, and command
//! log) that can be advanced over a half-open window of cycles without
//! reference to any other shard. Because shards share nothing, the *final*
//! state of each shard depends only on the sequence of windows it is
//! stepped through — never on when other shards run.
//!
//! [`run_windows`] is the one executor. Shard `i` first runs its own
//! window `first[i]` (which may be empty, or `None` for a shard that is
//! already drained and is never stepped), then whole epochs
//! `(end, end + e], …` up to the horizon. A fresh run ([`run_free`]) gives
//! every shard the first window `(0, e]`, so every shard sees the window
//! sequence `(0, e], (e, 2e], …` that [`run_serial`] uses; a resumed run
//! gives each live shard the rest of its interrupted epoch. Either way the
//! windows a shard sees are fixed before the run starts, so parallel runs
//! are bit-identical to serial runs by construction, whatever the thread
//! count, epoch length, scheduling order, or work-stealing history.
//!
//! The executor is **free-running**: each shard advances to its own event
//! horizon with no cross-shard synchronisation at all. Shards live in a
//! shared claim queue; workers repeatedly claim a shard, advance it a
//! *quantum* of epochs, and requeue it, so 16–64 channels load-balance
//! over fewer worker threads (claiming a shard last advanced by a
//! different worker is a *steal*). With one worker and a one-epoch quantum
//! the queue visits shards round-robin, which is [`run_serial`]'s
//! epoch-major order. The only sync points are the ones the caller
//! retains: result merge after the run, and any checkpoint/fault boundary
//! the caller encodes into `horizon`. Epoch handoff is allocation-free —
//! the claim queue is built once and tasks are recycled through it.
//!
//! [`run_serial`] is the test oracle every executor run must equal; no
//! production path calls it. Both leave the shards in place (in their
//! original order) so the caller can merge per-shard results
//! deterministically afterwards. Executor activity (worker counts,
//! steals, free-run spans) accumulates into process-wide counters
//! readable via [`exec_counters`].
//!
//! # Example
//!
//! ```
//! use fqms_sim::parallel::{run_free, run_serial, Shard, STEAL_QUANTUM_EPOCHS};
//!
//! struct Counter { ticks: u64, budget: u64 }
//! impl Shard for Counter {
//!     fn run_epoch(&mut self, start: u64, end: u64) -> bool {
//!         for _ in start..end {
//!             if self.ticks < self.budget { self.ticks += 1; }
//!         }
//!         self.ticks < self.budget
//!     }
//! }
//!
//! let mut a: Vec<Counter> =
//!     (1..=4).map(|i| Counter { ticks: 0, budget: i * 10 }).collect();
//! let mut b: Vec<Counter> =
//!     (1..=4).map(|i| Counter { ticks: 0, budget: i * 10 }).collect();
//! run_serial(&mut a, 1_000, 16);
//! run_free(&mut b, 1_000, 16, 3, STEAL_QUANTUM_EPOCHS);
//! for (x, y) in a.iter().zip(&b) {
//!     assert_eq!(x.ticks, y.ticks);
//! }
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A self-contained simulation partition that can be advanced over a
/// window of cycles independently of every other shard.
pub trait Shard: Send {
    /// Advances the shard over the half-open cycle window `(start, end]`
    /// (i.e. processes every cycle `c` with `start < c <= end`).
    ///
    /// Returns `true` if the shard may still have work to do after `end`.
    /// Once a shard returns `false` it is considered drained and will not
    /// be stepped again for the remainder of the run; implementations must
    /// only return `false` when no future epoch could produce more work.
    fn run_epoch(&mut self, start: u64, end: u64) -> bool;
}

/// Epochs a worker advances a claimed shard before requeueing it for
/// possible stealing. Large enough to amortise the claim-queue lock, small
/// enough that a straggler shard still spreads over idle workers.
pub const STEAL_QUANTUM_EPOCHS: u64 = 8;

// Process-wide executor telemetry. fqms-sim sits below the core crate, so
// these accumulate here and `fqms::telemetry` re-exports them.
static WORKERS_PEAK: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);
static FREE_RUN_SPANS: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide executor activity (all runs since process
/// start). `workers_peak` is the largest worker count any run used;
/// the other fields are totals across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Largest number of worker threads any parallel run used.
    pub workers_peak: u64,
    /// Claims of a shard last advanced by a *different* worker.
    pub steals: u64,
    /// Epoch windows executed without any cross-shard synchronisation.
    pub free_run_spans: u64,
}

/// Reads the cumulative process-wide executor counters.
pub fn exec_counters() -> ExecCounters {
    ExecCounters {
        workers_peak: WORKERS_PEAK.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
        free_run_spans: FREE_RUN_SPANS.load(Ordering::Relaxed),
    }
}

fn note_run(workers: usize, steals: u64, spans: u64) {
    WORKERS_PEAK.fetch_max(workers as u64, Ordering::Relaxed);
    STEALS.fetch_add(steals, Ordering::Relaxed);
    FREE_RUN_SPANS.fetch_add(spans, Ordering::Relaxed);
}

/// Per-worker activity of one free-running run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Shard claims this worker made (first claims included).
    pub claims: u64,
    /// Claims of a shard last advanced by a different worker.
    pub steals: u64,
    /// Epoch windows this worker executed.
    pub free_run_spans: u64,
}

/// Outcome of one [`run_windows`] (or [`run_free`]) invocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FreeRunReport {
    /// The cycle the run reached: the maximum over shards of the final
    /// window end (equals [`run_serial`]'s return on the same inputs).
    pub reached: u64,
    /// Worker threads actually used (≤ requested, ≤ stepped shards).
    pub workers: usize,
    /// Per-worker activity, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Per shard, in shard order: the end of the last window it ran, and
    /// whether it drained there (`(0, true)` for a shard given no first
    /// window).
    pub shards: Vec<(u64, bool)>,
}

impl FreeRunReport {
    /// Total steals across workers.
    pub fn steals(&self) -> u64 {
        self.per_worker.iter().map(|w| w.steals).sum()
    }

    /// Total epoch windows executed across workers.
    pub fn free_run_spans(&self) -> u64 {
        self.per_worker.iter().map(|w| w.free_run_spans).sum()
    }
}

/// Locks a mutex, ignoring poisoning: the executor's own invariants never
/// depend on state guarded across a panic (panics are caught around shard
/// code only and re-raised after the scope joins).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn check_args(horizon: u64, epoch_cycles: u64) {
    assert!(epoch_cycles > 0, "epoch length must be positive");
    assert!(horizon > 0, "horizon must be positive");
}

/// Advances every shard to `horizon` cycles (or until all shards drain) on
/// the calling thread, one epoch at a time: the reference the executor is
/// tested against.
///
/// Returns the cycle the run actually reached (a multiple of
/// `epoch_cycles`, capped at `horizon`; 0 when there are no shards).
///
/// # Panics
///
/// Panics if `horizon` or `epoch_cycles` is zero.
pub fn run_serial<S: Shard>(shards: &mut [S], horizon: u64, epoch_cycles: u64) -> u64 {
    check_args(horizon, epoch_cycles);
    let mut done = vec![false; shards.len()];
    let mut remaining = shards.len();
    let mut start = 0u64;
    while start < horizon && remaining > 0 {
        let end = horizon.min(start + epoch_cycles);
        for (shard, d) in shards.iter_mut().zip(done.iter_mut()) {
            if !*d && !shard.run_epoch(start, end) {
                *d = true;
                remaining -= 1;
            }
        }
        start = end;
    }
    start
}

/// One claimable unit of work: a shard, its index, the next window it
/// runs, and the id of the worker that last advanced it (for steal
/// accounting).
struct Task<'a, S> {
    shard: &'a mut S,
    idx: usize,
    window: (u64, u64),
    owner: Option<usize>,
}

/// A fresh run: [`run_windows`] with every shard's first window
/// `(0, min(epoch_cycles, horizon)]`, so every shard is stepped through
/// the window sequence `(0, e], (e, 2e], …` capped at `horizon` that
/// [`run_serial`] uses, and final shard states are bit-identical to the
/// serial run.
///
/// # Panics
///
/// As [`run_windows`].
pub fn run_free<S: Shard>(
    shards: &mut [S],
    horizon: u64,
    epoch_cycles: u64,
    num_threads: usize,
    quantum_epochs: u64,
) -> FreeRunReport {
    let first = vec![Some((0, epoch_cycles.min(horizon))); shards.len()];
    run_windows(
        shards,
        &first,
        horizon,
        epoch_cycles,
        num_threads,
        quantum_epochs,
    )
}

/// Advances every shard to `horizon` cycles (or until it drains) with no
/// cross-shard synchronisation. Shard `i` first runs `first[i]` — a
/// window `(start, end]` that may be empty — then whole epochs
/// `(end, end + epoch_cycles], …` capped at `horizon`; a `None` shard is
/// already drained and is never stepped. Workers claim shards from a
/// shared queue, advance them up to `quantum_epochs` windows, and requeue
/// unfinished ones, so shards load-balance across workers (claiming a
/// shard last advanced by a different worker counts as a steal).
///
/// A shard is never stepped by two workers at once and its window
/// sequence does not depend on claim order, so final shard states are
/// bit-identical whatever the thread count or quantum. A
/// `quantum_epochs` of zero means "run to completion without requeueing"
/// (no stealing after the first claim).
///
/// # Panics
///
/// Panics if `horizon`, `epoch_cycles`, or `num_threads` is zero, if
/// `first` does not hold one entry per shard, or if a first window is
/// reversed or ends past `horizon`. A panic inside a shard's `run_epoch`
/// is caught, all workers wind down promptly (no deadlock), and the first
/// panic payload is re-raised on the calling thread after every worker
/// has stopped.
pub fn run_windows<S: Shard>(
    shards: &mut [S],
    first: &[Option<(u64, u64)>],
    horizon: u64,
    epoch_cycles: u64,
    num_threads: usize,
    quantum_epochs: u64,
) -> FreeRunReport {
    check_args(horizon, epoch_cycles);
    assert!(num_threads > 0, "need at least one worker thread");
    assert_eq!(first.len(), shards.len(), "one first window per shard");
    let tasks: VecDeque<Task<'_, S>> = shards
        .iter_mut()
        .zip(first)
        .enumerate()
        .filter_map(|(idx, (shard, &window))| {
            let (start, end) = window?;
            assert!(
                start <= end && end <= horizon,
                "first window ({start}, {end}] outside (0, {horizon}]"
            );
            Some(Task {
                shard,
                idx,
                window: (start, end),
                owner: None,
            })
        })
        .collect();
    if tasks.is_empty() {
        return FreeRunReport {
            shards: vec![(0, true); first.len()],
            ..FreeRunReport::default()
        };
    }
    let workers = num_threads.min(tasks.len());
    let outcomes = Mutex::new(vec![(0u64, true); first.len()]);
    // Tasks not yet finished (drained or at horizon). Termination: a task
    // is requeued *before* this drops, so pending == 0 implies the queue
    // is empty and stays empty — workers spin-yield on an empty queue
    // until then.
    let pending = AtomicUsize::new(tasks.len());
    let queue = Mutex::new(tasks);
    let panicked = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    let worker_loop = |me: usize| -> WorkerStats {
        let mut stats = WorkerStats::default();
        'claims: while !panicked.load(Ordering::Acquire) {
            let task = lock(&queue).pop_front();
            let Some(mut task) = task else {
                if pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            stats.claims += 1;
            if task.owner.is_some_and(|prev| prev != me) {
                stats.steals += 1;
            }
            task.owner = Some(me);
            let mut spans = 0u64;
            // `Some(drained)` once the shard is finished, `None` when the
            // quantum is spent first.
            let outcome = catch_unwind(AssertUnwindSafe(|| loop {
                let (start, end) = task.window;
                let alive = task.shard.run_epoch(start, end);
                spans += 1;
                if !alive || end >= horizon {
                    return Some(!alive);
                }
                task.window = (end, horizon.min(end + epoch_cycles));
                if quantum_epochs != 0 && spans >= quantum_epochs {
                    return None;
                }
            }));
            stats.free_run_spans += spans;
            match outcome {
                Err(payload) => {
                    let mut slot = lock(&panic_payload);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    panicked.store(true, Ordering::Release);
                    break 'claims;
                }
                Ok(Some(drained)) => {
                    lock(&outcomes)[task.idx] = (task.window.1, drained);
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                Ok(None) => lock(&queue).push_back(task),
            }
        }
        stats
    };

    let per_worker = if workers == 1 {
        vec![worker_loop(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|me| scope.spawn(move || worker_loop(me)))
                .collect();
            let mut all = vec![worker_loop(0)];
            for h in handles {
                // Worker bodies catch shard panics, so join only fails if
                // the executor itself is broken.
                all.push(h.join().expect("executor worker crashed"));
            }
            all
        })
    };
    if panicked.load(Ordering::Acquire) {
        let payload = lock(&panic_payload)
            .take()
            .expect("panic flag set without payload");
        resume_unwind(payload);
    }
    let steals: u64 = per_worker.iter().map(|w| w.steals).sum();
    let spans: u64 = per_worker.iter().map(|w| w.free_run_spans).sum();
    note_run(workers, steals, spans);
    let shards = outcomes.into_inner().unwrap_or_else(|e| e.into_inner());
    FreeRunReport {
        reached: shards
            .iter()
            .map(|&(reached, _)| reached)
            .max()
            .unwrap_or(0),
        workers,
        per_worker,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard that appends the epoch windows it saw and drains after a
    /// fixed number of cycles.
    struct Recorder {
        windows: Vec<(u64, u64)>,
        budget: u64,
        seen: u64,
    }

    impl Recorder {
        fn new(budget: u64) -> Self {
            Recorder {
                windows: Vec::new(),
                budget,
                seen: 0,
            }
        }
    }

    impl Shard for Recorder {
        fn run_epoch(&mut self, start: u64, end: u64) -> bool {
            self.windows.push((start, end));
            self.seen += end - start;
            self.seen < self.budget
        }
    }

    #[test]
    fn serial_and_parallel_states_match() {
        for threads in 1..=6 {
            let mut serial: Vec<Recorder> = (0..7).map(|i| Recorder::new(50 + i * 37)).collect();
            let mut parallel: Vec<Recorder> = (0..7).map(|i| Recorder::new(50 + i * 37)).collect();
            let a = run_serial(&mut serial, 10_000, 64);
            let b = run_free(&mut parallel, 10_000, 64, threads, STEAL_QUANTUM_EPOCHS).reached;
            assert_eq!(a, b, "{threads} threads: reached different cycles");
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.windows, p.windows, "{threads} threads");
                assert_eq!(s.seen, p.seen, "{threads} threads");
            }
        }
    }

    #[test]
    fn free_run_matches_serial_across_quanta() {
        for quantum in [0u64, 1, 2, 7, 64] {
            let mut serial: Vec<Recorder> = (0..5).map(|i| Recorder::new(30 + i * 91)).collect();
            let mut free: Vec<Recorder> = (0..5).map(|i| Recorder::new(30 + i * 91)).collect();
            let a = run_serial(&mut serial, 4_000, 32);
            let rep = run_free(&mut free, 4_000, 32, 3, quantum);
            assert_eq!(a, rep.reached, "quantum {quantum}: reached");
            for (s, p) in serial.iter().zip(&free) {
                assert_eq!(s.windows, p.windows, "quantum {quantum}");
            }
        }
    }

    #[test]
    fn early_exit_when_all_shards_drain() {
        let mut shards: Vec<Recorder> = (0..4).map(|_| Recorder::new(100)).collect();
        let reached = run_free(&mut shards, 1_000_000, 32, 2, STEAL_QUANTUM_EPOCHS).reached;
        // Budget 100 at epoch 32 drains during the 4th epoch.
        assert_eq!(reached, 128);
        for s in &shards {
            assert_eq!(s.windows.len(), 4);
        }
    }

    #[test]
    fn horizon_is_respected() {
        let mut shards = vec![Recorder::new(u64::MAX)];
        let reached = run_serial(&mut shards, 100, 64);
        assert_eq!(reached, 100);
        assert_eq!(shards[0].windows, vec![(0, 64), (64, 100)]);
    }

    #[test]
    fn drained_shards_are_not_restepped() {
        let mut shards = vec![Recorder::new(10), Recorder::new(1_000)];
        run_free(&mut shards, 2_000, 100, 2, STEAL_QUANTUM_EPOCHS);
        assert_eq!(shards[0].windows.len(), 1, "drained shard kept stepping");
        assert_eq!(shards[1].windows.len(), 10);
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let mut shards = vec![Recorder::new(100)];
        let reached = run_free(&mut shards, 1_000, 64, 8, STEAL_QUANTUM_EPOCHS).reached;
        assert_eq!(reached, 128);
    }

    #[test]
    fn empty_shard_list_is_a_noop() {
        // No shard ran, so no executor reached any cycle.
        let mut shards: Vec<Recorder> = Vec::new();
        assert_eq!(run_serial(&mut shards, 100, 10), 0);
        assert_eq!(run_free(&mut shards, 100, 10, 4, 2).reached, 0);
    }

    #[test]
    fn free_run_report_accounts_for_every_window() {
        let mut shards: Vec<Recorder> = (0..6).map(|i| Recorder::new(40 + i * 53)).collect();
        let rep = run_free(&mut shards, 2_000, 16, 3, 2);
        let total_windows: u64 = shards.iter().map(|s| s.windows.len() as u64).sum();
        assert_eq!(rep.free_run_spans(), total_windows);
        assert_eq!(rep.workers, 3);
        assert_eq!(rep.per_worker.len(), 3);
        let claims: u64 = rep.per_worker.iter().map(|w| w.claims).sum();
        assert!(claims >= 6, "each shard is claimed at least once");
    }

    #[test]
    fn first_windows_precede_whole_epochs() {
        for threads in [1usize, 2, 3] {
            let mut shards = vec![
                Recorder::new(1_000),
                Recorder::new(10),
                Recorder::new(1_000),
            ];
            // Shard 0 resumes mid-epoch, shard 1 is already drained, and
            // shard 2's first window is empty (killed at an epoch end).
            let first = [Some((40, 64)), None, Some((64, 64))];
            let rep = run_windows(&mut shards, &first, 200, 64, threads, 1);
            assert_eq!(
                shards[0].windows,
                vec![(40, 64), (64, 128), (128, 192), (192, 200)]
            );
            assert!(shards[1].windows.is_empty(), "a None shard was stepped");
            assert_eq!(
                shards[2].windows,
                vec![(64, 64), (64, 128), (128, 192), (192, 200)]
            );
            assert_eq!(rep.shards, vec![(200, false), (0, true), (200, false)]);
            assert_eq!(rep.reached, 200);
            assert_eq!(rep.workers, threads.min(2));
        }
    }

    #[test]
    fn drain_in_the_first_window_ends_the_shard() {
        let mut shards = vec![Recorder::new(5), Recorder::new(100)];
        let first = [Some((90, 128)), Some((128, 128))];
        let rep = run_windows(&mut shards, &first, 1_000, 64, 2, STEAL_QUANTUM_EPOCHS);
        assert_eq!(shards[0].windows, vec![(90, 128)]);
        assert_eq!(shards[1].windows, vec![(128, 128), (128, 192), (192, 256)]);
        assert_eq!(rep.shards, vec![(128, true), (256, true)]);
        assert_eq!(rep.reached, 256);
    }

    #[test]
    fn all_drained_shards_run_nothing() {
        let mut shards = vec![Recorder::new(10), Recorder::new(10)];
        let rep = run_windows(&mut shards, &[None, None], 100, 10, 4, 1);
        assert_eq!(rep.workers, 0);
        assert_eq!(rep.reached, 0);
        assert_eq!(rep.shards, vec![(0, true), (0, true)]);
        assert!(shards.iter().all(|s| s.windows.is_empty()));
    }

    #[test]
    #[should_panic]
    fn zero_epoch_rejected() {
        let mut shards = vec![Recorder::new(10)];
        run_serial(&mut shards, 100, 0);
    }
}

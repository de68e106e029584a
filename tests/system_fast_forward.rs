#![forbid(unsafe_code)]
//! Gate for the event-driven `System::run`.
//!
//! `System::run` applies a blocked core's ticks in bulk and jumps over
//! cycles where every core is blocked and the controller is quiescent.
//! This suite checks it against [`reference_run`], a per-cycle loop built
//! on the public `Core` and `MultiChannelController` calls: every core
//! ticks `cpu_ratio` times per DRAM cycle, the controller steps every
//! cycle, and read completions go back to their cores.
//!
//! The matrix crosses schedulers, channel counts, row policies, VFT
//! binding, buffer sharing, private or shared L2, observation and clock
//! ratio, over memory-bound, pointer-chasing, compute-bound and
//! delayed-start thread pairs; a few cases also prefetch. In every case
//! these must be equal: the metrics; each core's statistics, latency
//! histogram, cache counts and (private L2) full snapshot state; the
//! controller's per-thread statistics; and the observed sinks and event
//! rings. Only the stepped/skipped partition of the controller's cycles
//! may differ, and it must still cover every elapsed cycle.
//!
//! The kill-and-resume tests crash a checkpointing run at an early, a mid
//! and a checkpoint-boundary point, resume it, and require its later
//! checkpoint bytes and final metrics to equal the uninterrupted run's,
//! with every checkpoint on a multiple of the interval.
//!
//! Debug builds check a spread of the matrix; the release run in `ci.sh`
//! checks all of it.

use fqms::metrics::{SystemMetrics, ThreadMetrics};
use fqms::system::{System, SystemBuilder};
use fqms_cpu::cache::Cache;
use fqms_cpu::core::{Core, CoreConfig};
use fqms_cpu::trace::{TraceOp, TraceSource};
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::config::McConfig;
use fqms_memctrl::multichannel::MultiChannelController;
use fqms_memctrl::policy::{BufferSharing, RowPolicy, SchedulerKind, VftBinding};
use fqms_memctrl::request::{RequestKind, ThreadId};
use fqms_sim::clock::{CpuCycle, DramCycle};
use fqms_sim::snapshot::{self, SectionReader, SectionWriter, SnapshotError, SnapshotWriter};
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::patterns::{DelayedStart, PointerChase, SequentialStream};
use fqms_workloads::spec::by_name;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SEED: u64 = 11;
const EVENTS: usize = 1 << 12;
const INSTRUCTIONS: u64 = 3_000;
const MAX_CYCLES: u64 = 400_000;

/// The two threads of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// Two streaming, write-heavy profiles: the buffers stay full.
    Memory,
    /// A dependent-load profile beside a strict pointer chase.
    Pointer,
    /// A cache-resident profile beside a memory-bound one.
    Compute,
    /// A stream that starts after a compute prefix, beside a
    /// memory-bound profile.
    Delayed,
}

const LOADS: [Load; 4] = [Load::Memory, Load::Pointer, Load::Compute, Load::Delayed];

#[derive(Debug, Clone, Copy)]
struct Case {
    scheduler: SchedulerKind,
    channels: usize,
    row: RowPolicy,
    binding: VftBinding,
    sharing: BufferSharing,
    shared_l2: bool,
    observed: bool,
    ratio: u64,
    load: Load,
}

/// Every case of the matrix, in a fixed order.
fn matrix() -> Vec<Case> {
    let mut cases = Vec::new();
    for scheduler in SchedulerKind::all() {
        for channels in [1, 2] {
            for row in [RowPolicy::Closed, RowPolicy::Open] {
                for binding in [VftBinding::FirstReady, VftBinding::AtArrival] {
                    for sharing in [BufferSharing::Partitioned, BufferSharing::Shared] {
                        for shared_l2 in [false, true] {
                            for observed in [false, true] {
                                for ratio in [5, 2] {
                                    for load in LOADS {
                                        cases.push(Case {
                                            scheduler,
                                            channels,
                                            row,
                                            binding,
                                            sharing,
                                            shared_l2,
                                            observed,
                                            ratio,
                                            load,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cases
}

/// The cases this build checks: all of them in release, every 97th in
/// debug (97 is prime to the matrix size, so the stride walks every
/// factor's levels).
fn selected() -> Vec<Case> {
    let all = matrix();
    if cfg!(debug_assertions) {
        (0..all.len() / 97 + 1)
            .map(|k| all[k * 97 % all.len()])
            .collect()
    } else {
        all
    }
}

/// A thread's name and trace.
type Thread = (String, Box<dyn TraceSource>);

fn profile_thread(name: &str, slot: u32) -> Thread {
    let p = by_name(name).expect("profile exists");
    let trace = SyntheticTrace::for_thread(p, SEED, slot).expect("valid profile");
    (name.to_string(), Box::new(trace))
}

/// The two threads of `load`; profile threads draw from the same streams
/// `SystemBuilder` gives them.
fn threads(load: Load) -> Vec<Thread> {
    let custom: (&str, Box<dyn TraceSource>) = match load {
        Load::Memory => return vec![profile_thread("art", 0), profile_thread("swim", 1)],
        Load::Compute => return vec![profile_thread("crafty", 0), profile_thread("art", 1)],
        Load::Pointer => (
            "chase",
            Box::new(PointerChase::new(1 << 30, 16 << 20, 3, SEED)),
        ),
        Load::Delayed => (
            "late-stream",
            Box::new(DelayedStart::new(
                SequentialStream::new(1 << 30, 8 << 20, 2),
                1_500,
            )),
        ),
    };
    let first = match load {
        Load::Pointer => "mcf",
        _ => "art",
    };
    vec![profile_thread(first, 0), (custom.0.to_string(), custom.1)]
}

fn system(case: &Case, core: CoreConfig) -> System {
    let mut b = SystemBuilder::new()
        .core_config(core)
        .scheduler(case.scheduler)
        .channels(case.channels)
        .row_policy(case.row)
        .vft_binding(case.binding)
        .buffer_sharing(case.sharing)
        .shared_l2(case.shared_l2)
        .cpu_ratio(case.ratio)
        .seed(SEED)
        .prewarm(false);
    for (name, trace) in threads(case.load) {
        b = b.workload_trace(name, trace, 0);
    }
    if case.observed {
        b = b.observe_events(EVENTS);
    }
    b.build().expect("valid case")
}

/// The per-cycle system: the same cores and controller `System` builds.
struct Reference {
    names: Vec<String>,
    cores: Vec<Core>,
    mc: MultiChannelController,
}

fn reference(case: &Case, cfg: CoreConfig) -> Reference {
    let threads = threads(case.load);
    let n = threads.len();
    let mut config = McConfig::with_shares(case.scheduler, vec![1.0 / n as f64; n]);
    config.row_policy = case.row;
    config.vft_binding = case.binding;
    config.buffer_sharing = case.sharing;
    let mut mc = MultiChannelController::new(
        case.channels,
        config,
        Geometry::paper(),
        TimingParams::ddr2_800(),
    )
    .expect("valid controller");
    if case.observed {
        mc.enable_observation(EVENTS);
    }
    let shared = case
        .shared_l2
        .then(|| Rc::new(RefCell::new(Cache::new(cfg.l2).expect("valid L2"))));
    let mut names = Vec::new();
    let mut cores = Vec::new();
    for (i, (name, trace)) in threads.into_iter().enumerate() {
        let thread = ThreadId::new(i as u32);
        let core = match &shared {
            Some(l2) => Core::with_shared_l2(cfg, thread, trace, Rc::clone(l2)),
            None => Core::new(cfg, thread, trace),
        };
        names.push(name);
        cores.push(core.expect("valid core"));
    }
    Reference { names, cores, mc }
}

/// `System::run` cycle by cycle: reset the counters, then per DRAM cycle
/// tick every core `ratio` times, step the controller and route read
/// completions, until every thread crosses `instructions` or `max_cycles`
/// pass; then the metrics of `System::run`.
fn reference_run(
    r: &mut Reference,
    ratio: u64,
    instructions: u64,
    max_cycles: u64,
) -> SystemMetrics {
    let overhead = CoreConfig::paper().memory_overhead;
    for core in &mut r.cores {
        core.reset_stats();
    }
    let start = DramCycle::ZERO;
    r.mc.reset_stats(start);
    let n = r.cores.len();
    let mut finish: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut now = start;
    let mut done = Vec::new();
    loop {
        now.tick();
        for sub in 0..ratio {
            let now_cpu = CpuCycle::new(now.as_u64() * ratio + sub);
            for core in &mut r.cores {
                core.tick(now_cpu, now, &mut r.mc);
            }
        }
        done.clear();
        r.mc.step_into(now, &mut done);
        for c in &done {
            if c.kind == RequestKind::Read {
                let ready = CpuCycle::new(c.finish.as_u64() * ratio + overhead);
                r.cores[c.thread.as_usize()].on_completion(c, ready);
            }
        }
        for (f, core) in finish.iter_mut().zip(&r.cores) {
            if f.is_none() && core.retired() >= instructions {
                *f = Some((core.cycles(), core.retired()));
            }
        }
        if finish.iter().all(Option::is_some) {
            break;
        }
        if now - start >= max_cycles {
            for (f, core) in finish.iter_mut().zip(&r.cores) {
                f.get_or_insert((core.cycles(), core.retired()));
            }
            break;
        }
    }
    r.mc.finish(now);
    let elapsed = (now - start).max(1);
    let channels = r.mc.num_channels() as u64;
    let threads = r
        .cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let (cycles, insts) = finish[i].expect("every thread finished");
            let cycles = cycles.max(1);
            let mcs = r.mc.thread_stats(ThreadId::new(i as u32));
            ThreadMetrics {
                name: r.names[i].clone(),
                instructions: insts,
                cpu_cycles: cycles,
                ipc: insts as f64 / cycles as f64,
                avg_read_latency: core.stats().avg_miss_latency(),
                p95_read_latency: core.latency_histogram().percentile(0.95),
                bus_utilization: mcs.bus_utilization(elapsed * channels),
                row_hit_rate: mcs.row_hit_rate(),
                mem_reads: mcs.reads_completed,
                mem_writes: mcs.writes_completed,
            }
        })
        .collect();
    SystemMetrics {
        threads,
        elapsed_dram_cycles: elapsed,
        data_bus_utilization: r.mc.bus_busy_cycles() as f64 / (elapsed * channels) as f64,
        bank_utilization: r.mc.bank_busy_cycles() as f64
            / (elapsed * u64::from(r.mc.total_banks())) as f64,
    }
}

fn core_bytes(core: &Core) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    let mut res = Ok(());
    w.section("core", |s| res = core.save_state(s));
    res.expect("private-L2 cores with snapshot traces save");
    w.into_bytes()
}

/// Everything `sys` and `r` expose must be equal, except the controller's
/// stepped/skipped partition, which must cover the run.
fn assert_same(
    case: &Case,
    sys: &System,
    got: &SystemMetrics,
    r: &Reference,
    want: &SystemMetrics,
) {
    assert_eq!(got, want, "{case:?}: metrics");
    for (i, expected) in r.cores.iter().enumerate() {
        let core = sys.core(i);
        assert_eq!(core.stats(), expected.stats(), "{case:?}: core {i} stats");
        assert_eq!(
            core.cycles(),
            expected.cycles(),
            "{case:?}: core {i} cycles"
        );
        assert_eq!(
            core.retired(),
            expected.retired(),
            "{case:?}: core {i} retired"
        );
        assert_eq!(
            core.latency_histogram(),
            expected.latency_histogram(),
            "{case:?}: core {i} latency histogram"
        );
        assert_eq!(
            core.cache_hit_miss_counts(),
            expected.cache_hit_miss_counts(),
            "{case:?}: core {i} cache counts"
        );
        if !case.shared_l2 {
            assert!(
                core_bytes(core) == core_bytes(expected),
                "{case:?}: core {i} state"
            );
        }
        let t = ThreadId::new(i as u32);
        assert_eq!(
            sys.controller().thread_stats(t),
            r.mc.thread_stats(t),
            "{case:?}: thread {i} controller stats"
        );
    }
    assert_eq!(
        sys.observed_metrics(),
        r.mc.merged_metrics(),
        "{case:?}: sinks"
    );
    for ch in 0..case.channels {
        let events = |mc: &MultiChannelController| {
            mc.event_stream(ch).map(|ring| {
                (
                    ring.total_recorded(),
                    ring.iter().copied().collect::<Vec<_>>(),
                )
            })
        };
        assert_eq!(
            events(sys.controller()),
            events(&r.mc),
            "{case:?}: channel {ch} events"
        );
    }
    let mc = sys.controller();
    assert_eq!(
        mc.stepped_cycles() + mc.skipped_cycles(),
        got.elapsed_dram_cycles * case.channels as u64,
        "{case:?}: stepped + skipped"
    );
    assert_eq!(r.mc.skipped_cycles(), 0);
}

fn check(case: &Case, core: CoreConfig, instructions: u64, max_cycles: u64) -> u64 {
    let mut sys = system(case, core);
    let got = sys.run(instructions, max_cycles);
    let mut r = reference(case, core);
    let want = reference_run(&mut r, case.ratio, instructions, max_cycles);
    assert_same(case, &sys, &got, &r, &want);
    sys.controller().skipped_cycles()
}

#[test]
fn event_driven_run_equals_the_per_cycle_loop() {
    let mut skipped = 0;
    for case in selected() {
        skipped += check(&case, CoreConfig::paper(), INSTRUCTIONS, MAX_CYCLES);
    }
    assert!(skipped > 0, "no case fast-forwarded");
}

#[test]
fn prefetching_cores_equal_the_per_cycle_loop() {
    // Prefetches share the MSHRs and the buffers with demand misses.
    let mut core = CoreConfig::paper();
    core.prefetch_degree = 2;
    for (k, load) in LOADS.into_iter().enumerate() {
        let case = Case {
            scheduler: SchedulerKind::all()[k],
            channels: 1 + k % 2,
            row: RowPolicy::Closed,
            binding: VftBinding::FirstReady,
            sharing: [BufferSharing::Partitioned, BufferSharing::Shared][k / 2],
            shared_l2: false,
            observed: k == 3,
            ratio: 5,
            load,
        };
        check(&case, core, INSTRUCTIONS, MAX_CYCLES);
    }
}

#[test]
fn a_cycle_cap_inside_a_blocked_stretch_is_stepped() {
    // Caps land wherever they land: some inside a jump's window.
    for (k, cap) in [1_237, 2_000, 4_513].into_iter().enumerate() {
        let case = Case {
            scheduler: SchedulerKind::all()[k],
            channels: 1 + k % 2,
            row: RowPolicy::Closed,
            binding: VftBinding::FirstReady,
            sharing: BufferSharing::Partitioned,
            shared_l2: false,
            observed: k == 1,
            ratio: 5,
            load: Load::Memory,
        };
        check(&case, CoreConfig::paper(), u64::MAX / 2, cap);
        let mut sys = system(&case, CoreConfig::paper());
        assert_eq!(sys.run(u64::MAX / 2, cap).elapsed_dram_cycles, cap);
    }
}

#[test]
fn prewarmed_paper_pair_equals_the_per_cycle_loop() {
    // The paper configuration with `SystemBuilder`'s default prewarm.
    for scheduler in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
        let mut sys = SystemBuilder::new()
            .scheduler(scheduler)
            .seed(SEED)
            .workload(by_name("mcf").unwrap())
            .workload(by_name("art").unwrap())
            .build()
            .unwrap();
        let got = sys.run(INSTRUCTIONS, MAX_CYCLES);
        let case = Case {
            scheduler,
            channels: 1,
            row: RowPolicy::Closed,
            binding: VftBinding::FirstReady,
            sharing: BufferSharing::Partitioned,
            shared_l2: false,
            observed: false,
            ratio: 5,
            load: Load::Pointer,
        };
        let mut r = reference(&case, CoreConfig::paper());
        r.names = vec!["mcf".into(), "art".into()];
        let cfg = CoreConfig::paper();
        r.cores.clear();
        for (i, name) in ["mcf", "art"].into_iter().enumerate() {
            let p = by_name(name).unwrap();
            let trace = SyntheticTrace::for_thread(p, SEED, i as u32).unwrap();
            let mut core = Core::new(cfg, ThreadId::new(i as u32), Box::new(trace)).unwrap();
            core.prewarm_caches((4 * p.footprint_bytes / cfg.l1d.line_bytes).min(4_000_000));
            r.cores.push(core);
        }
        let want = reference_run(&mut r, 5, INSTRUCTIONS, MAX_CYCLES);
        assert_same(&case, &sys, &got, &r, &want);
    }
}

/// A pointer chase that panics at its `kill_at`-th element (0: never)
/// and counts elements in a shared counter. The count is snapshot state,
/// so a resumed run crashes at the same element as the uninterrupted one.
#[derive(Debug)]
struct Killable {
    inner: PointerChase,
    ops: u64,
    kill_at: u64,
    seen: Arc<AtomicU64>,
}

impl TraceSource for Killable {
    fn next_op(&mut self) -> TraceOp {
        self.ops += 1;
        self.seen.store(self.ops, Ordering::Relaxed);
        if self.ops == self.kill_at {
            panic!("killed at element {}", self.ops);
        }
        self.inner.next_op()
    }

    fn save_state(&self, w: &mut SectionWriter) -> Result<(), SnapshotError> {
        self.inner.save_state(w)?;
        w.put_u64(self.ops);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_state(r)?;
        self.ops = r.get_u64()?;
        Ok(())
    }
}

const EVERY: u64 = 700;
const KILL_INSTRUCTIONS: u64 = 4_000;

/// Two pointer chases, so most cycles, checkpoint cycles among them, sit
/// in a jump; checkpoints every [`EVERY`] cycles in `dir`, and thread 0
/// dies at element `kill_at`.
fn killable(dir: Option<&Path>, kill_at: u64, seen: &Arc<AtomicU64>) -> System {
    let trace = Killable {
        inner: PointerChase::new(0, 16 << 20, 4, SEED),
        ops: 0,
        kill_at,
        seen: Arc::clone(seen),
    };
    let b = SystemBuilder::new()
        .scheduler(SchedulerKind::FqVftf)
        .seed(SEED)
        .prewarm(false)
        .workload_trace("chase-killable", Box::new(trace), 0)
        .workload_trace(
            "chase",
            Box::new(PointerChase::new(1 << 30, 16 << 20, 4, SEED + 1)),
            0,
        )
        .checkpoint_every(EVERY);
    match dir {
        Some(d) => b.checkpoint_dir(d),
        None => b,
    }
    .build()
    .unwrap()
}

/// Runs a killable system to completion or to its kill.
fn run_killable(dir: Option<&Path>, kill_at: u64, seen: &Arc<AtomicU64>) -> Option<SystemMetrics> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        killable(dir, kill_at, seen).run(KILL_INSTRUCTIONS, MAX_CYCLES)
    }))
    .ok()
}

/// The single checkpoint file in `dir`, if any.
fn checkpoint(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
}

/// The DRAM cycle a checkpoint was taken at.
fn checkpoint_cycle(bytes: &[u8], fingerprint: u64) -> u64 {
    let mut r = snapshot::SnapshotReader::new(bytes, fingerprint).unwrap();
    let start = r
        .section("run", |s| {
            let start = s.get_u64()?;
            s.get_u64()?;
            s.get_u64()?;
            s.get_bool()?;
            Ok(start)
        })
        .unwrap();
    let now = r
        .section("system", |s| {
            let now = s.get_u64()?;
            for _ in 0..s.seq_len()? {
                s.get_opt_u64()?;
            }
            for _ in 0..s.seq_len()? {
                s.get_u64()?;
            }
            Ok(now)
        })
        .unwrap();
    assert_eq!((now - start) % EVERY, 0, "checkpoint off the interval grid");
    now
}

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fqms-ff-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Kills a run at element `first`, resumes it and kills it again at
/// `second`; the checkpoint then must equal the one an uninterrupted run
/// killed at `second` leaves. A final resume must finish with `clean`'s
/// metrics and remove the checkpoint.
fn kill_resume(label: &str, first: u64, second: u64, clean: &SystemMetrics) {
    let seen = Arc::new(AtomicU64::new(0));
    let fingerprint = killable(None, 0, &seen).config_fingerprint();
    let interrupted = fresh_dir(&format!("{label}-a"));
    assert!(run_killable(Some(&interrupted), first, &seen).is_none());
    assert!(run_killable(Some(&interrupted), second, &seen).is_none());
    let uninterrupted = fresh_dir(&format!("{label}-b"));
    assert!(run_killable(Some(&uninterrupted), second, &seen).is_none());
    let a = std::fs::read(checkpoint(&interrupted).expect("a checkpoint before the kill")).unwrap();
    let b =
        std::fs::read(checkpoint(&uninterrupted).expect("a checkpoint before the kill")).unwrap();
    assert_eq!(
        checkpoint_cycle(&a, fingerprint),
        checkpoint_cycle(&b, fingerprint),
        "{label}: checkpoint cycle"
    );
    assert!(a == b, "{label}: checkpoint bytes differ after a resume");
    let resumed = run_killable(Some(&interrupted), 0, &seen).expect("the resume finishes");
    assert_eq!(&resumed, clean, "{label}: resumed metrics");
    assert!(
        checkpoint(&interrupted).is_none(),
        "{label}: checkpoint left behind"
    );
    let _ = std::fs::remove_dir_all(&interrupted);
    let _ = std::fs::remove_dir_all(&uninterrupted);
}

#[test]
fn kill_and_resume_is_bit_identical_to_the_uninterrupted_run() {
    let seen = Arc::new(AtomicU64::new(0));
    let mut sys = killable(None, 0, &seen);
    let clean = sys.run(KILL_INSTRUCTIONS, MAX_CYCLES);
    assert!(sys.controller().skipped_cycles() > 0, "the run never jumps");
    let total = seen.load(Ordering::Relaxed);
    // The checkpointing run itself must not differ from a plain one.
    let dir = fresh_dir("clean");
    assert_eq!(run_killable(Some(&dir), 0, &seen).as_ref(), Some(&clean));
    let _ = std::fs::remove_dir_all(&dir);

    // Kills at the first element consumed after a checkpoint: a binary
    // search over kill points for the earliest one that leaves it. The
    // first and sixth checkpoints of this run fall inside blocked
    // stretches, where the uninterrupted run could jump.
    let fingerprint = killable(None, 0, &seen).config_fingerprint();
    let boundary = |checkpoint_cycle: u64| -> u64 {
        let (mut lo, mut hi) = (1, total);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cycle_at(mid, &seen, fingerprint) >= checkpoint_cycle {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        assert_eq!(cycle_at(lo, &seen, fingerprint), checkpoint_cycle);
        lo
    };
    let second = total * 9 / 10;
    kill_resume("early", total / 50, second, &clean);
    kill_resume("mid", total / 2, second, &clean);
    kill_resume("boundary-1", boundary(EVERY), second, &clean);
    kill_resume("boundary-6", boundary(6 * EVERY), second, &clean);
}

/// The checkpoint cycle a run killed at `kill_at` leaves (0: none).
fn cycle_at(kill_at: u64, seen: &Arc<AtomicU64>, fingerprint: u64) -> u64 {
    let dir = fresh_dir("probe");
    assert!(run_killable(Some(&dir), kill_at, seen).is_none());
    let cycle = checkpoint(&dir)
        .map(|p| checkpoint_cycle(&std::fs::read(p).unwrap(), fingerprint))
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    cycle
}

//! System assembly and the coupled simulation loop.
//!
//! A [`System`] is a CMP: one [`fqms_cpu::core::Core`] per workload, all
//! sharing a single [`MultiChannelController`] over DDR2 devices — the
//! paper's evaluation platform, where "the SDRAM memory system is the only
//! shared resource in the system".
//!
//! Build one with [`SystemBuilder`], then call [`System::run`] to simulate
//! until every thread has retired an instruction target (the paper's
//! per-benchmark trace length, scaled down for tractable runs).

use crate::metrics::{SystemMetrics, ThreadMetrics};
use fqms_cpu::cache::Cache;
use fqms_cpu::core::{Core, CoreConfig};
use fqms_cpu::trace::TraceSource;
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::config::McConfig;
use fqms_memctrl::multichannel::MultiChannelController;
use fqms_memctrl::policy::{BufferSharing, InversionBound, RowPolicy, SchedulerKind, VftBinding};
use fqms_memctrl::request::{RequestKind, ThreadId};
use fqms_sim::clock::{ClockDomains, CpuCycle, DramCycle};
use fqms_sim::snapshot::{
    self, Fingerprint, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::profile::WorkloadProfile;
use std::path::PathBuf;

/// Incrementally configures and builds a [`System`].
///
/// # Example
///
/// ```
/// use fqms::system::SystemBuilder;
/// use fqms_memctrl::policy::SchedulerKind;
/// use fqms_workloads::spec::by_name;
///
/// let mut system = SystemBuilder::new()
///     .scheduler(SchedulerKind::FqVftf)
///     .seed(7)
///     .workload(by_name("vpr").unwrap())
///     .workload(by_name("art").unwrap())
///     .build()?;
/// let metrics = system.run(20_000, 1_000_000);
/// assert_eq!(metrics.threads.len(), 2);
/// # Ok::<(), String>(())
/// ```
enum WorkloadEntry {
    /// A statistical profile: the trace is synthesized per thread.
    Profile(WorkloadProfile),
    /// A caller-supplied trace source with a display name and an explicit
    /// cache-prewarm access count.
    Custom {
        name: String,
        trace: Box<dyn TraceSource>,
        prewarm_accesses: u64,
    },
}

impl std::fmt::Debug for WorkloadEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadEntry::Profile(p) => write!(f, "Profile({})", p.name),
            WorkloadEntry::Custom { name, .. } => write!(f, "Custom({name})"),
        }
    }
}

/// Incrementally configures and builds a [`System`]; see the example
/// above.
#[derive(Debug)]
pub struct SystemBuilder {
    scheduler: SchedulerKind,
    shares: Option<Vec<f64>>,
    geometry: Geometry,
    timing: TimingParams,
    core: CoreConfig,
    cpu_ratio: u64,
    seed: u64,
    inversion_bound: InversionBound,
    row_policy: RowPolicy,
    vft_binding: VftBinding,
    buffer_sharing: BufferSharing,
    prewarm: bool,
    channels: usize,
    shared_l2: bool,
    observe_events: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    workloads: Vec<WorkloadEntry>,
}

/// Default checkpoint interval in DRAM cycles when a checkpoint directory
/// is configured without an explicit interval.
const DEFAULT_CHECKPOINT_EVERY: u64 = 500_000;

/// Where and how often a running [`System`] persists crash-recovery
/// checkpoints.
#[derive(Debug, Clone)]
struct CheckpointFile {
    path: PathBuf,
    every: u64,
}

/// Event-ring capacity per channel when observation is switched on only
/// by `FQMS_SIDECAR` (the sidecar needs the metric sinks, not a deep
/// event history, so keep the rings small).
const SIDECAR_EVENT_CAPACITY: usize = 4096;

impl SystemBuilder {
    /// Starts from the paper's configuration (Tables 5 and 6): DDR2-800,
    /// 1 rank × 8 banks, the Table 5 core, CPU:DRAM clock ratio 5,
    /// FR-FCFS scheduling, equal shares.
    pub fn new() -> Self {
        SystemBuilder {
            scheduler: SchedulerKind::FrFcfs,
            shares: None,
            geometry: Geometry::paper(),
            timing: TimingParams::ddr2_800(),
            core: CoreConfig::paper(),
            cpu_ratio: 5,
            seed: 1,
            inversion_bound: InversionBound::TRas,
            row_policy: RowPolicy::Closed,
            vft_binding: VftBinding::FirstReady,
            buffer_sharing: BufferSharing::Partitioned,
            prewarm: true,
            channels: 1,
            shared_l2: false,
            observe_events: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            workloads: Vec::new(),
        }
    }

    /// Enables crash-recovery checkpointing: during [`System::run`] the
    /// full simulation state is atomically persisted to `dir` (named by
    /// the configuration fingerprint), a later run of the same
    /// configuration resumes from the last valid checkpoint, and the file
    /// is removed on clean completion. Also switched on by the
    /// `FQMS_CHECKPOINT_DIR` environment variable at build time.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Sets the checkpoint interval in DRAM cycles (default 500k). Only
    /// effective together with [`SystemBuilder::checkpoint_dir`] (or
    /// `FQMS_CHECKPOINT_DIR`); also settable via `FQMS_CHECKPOINT_EVERY`.
    pub fn checkpoint_every(mut self, dram_cycles: u64) -> Self {
        self.checkpoint_every = Some(dram_cycles.max(1));
        self
    }

    /// Selects the memory scheduling algorithm.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Sets explicit per-thread shares (default: equal `1/n`).
    pub fn shares(mut self, shares: Vec<f64>) -> Self {
        self.shares = Some(shares);
        self
    }

    /// Overrides the DRAM timing parameters (e.g. a time-scaled private
    /// baseline memory).
    pub fn timing(mut self, timing: TimingParams) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the memory geometry.
    pub fn geometry(mut self, geometry: Geometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Overrides the core configuration.
    pub fn core_config(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Sets the CPU:DRAM clock ratio (default 5).
    pub fn cpu_ratio(mut self, ratio: u64) -> Self {
        self.cpu_ratio = ratio;
        self
    }

    /// Sets the master random seed (each thread's trace derives its own
    /// stream from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the FQ bank scheduler's priority-inversion bound.
    pub fn inversion_bound(mut self, bound: InversionBound) -> Self {
        self.inversion_bound = bound;
        self
    }

    /// Sets the number of line-interleaved memory channels (default: 1,
    /// the paper's configuration; more channels exercise the paper's
    /// multi-channel future-work extension).
    pub fn channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the row-buffer management policy (default: closed, per the
    /// paper).
    pub fn row_policy(mut self, policy: RowPolicy) -> Self {
        self.row_policy = policy;
        self
    }

    /// Sets when virtual finish times are bound (default: at first-ready,
    /// the paper's evaluated design).
    pub fn vft_binding(mut self, binding: VftBinding) -> Self {
        self.vft_binding = binding;
        self
    }

    /// Sets the buffer organisation (default: the paper's static
    /// per-thread partitions; `Shared` is the future-work ablation).
    pub fn buffer_sharing(mut self, sharing: BufferSharing) -> Self {
        self.buffer_sharing = sharing;
        self
    }

    /// Makes all cores share one L2 cache (of the core config's L2
    /// geometry) instead of the paper's private L2s. An extension used to
    /// demonstrate that memory-scheduler QoS does not survive cache
    /// contention — the paper's isolation argument assumes private caches.
    pub fn shared_l2(mut self, shared: bool) -> Self {
        self.shared_l2 = shared;
        self
    }

    /// Attaches a tracing observer (event ring of `capacity` per channel
    /// plus per-thread metric sinks) to the memory system. Observation is
    /// passive — results are bit-identical with or without it — and the
    /// collected sinks are read back with [`System::observed_metrics`].
    /// Off by default; setting `FQMS_SIDECAR` also switches it on at
    /// [`SystemBuilder::build`] time (with a small default ring).
    pub fn observe_events(mut self, capacity: usize) -> Self {
        self.observe_events = Some(capacity);
        self
    }

    /// Enables or disables functional cache prewarming before the run
    /// (default: enabled). Prewarming streams ~4 footprints of references
    /// through each core's caches with no timing, so measurement starts
    /// from warm caches — the paper's sampled traces are likewise
    /// statistically representative of steady state, not cold start.
    pub fn prewarm(mut self, enabled: bool) -> Self {
        self.prewarm = enabled;
        self
    }

    /// Adds one workload; each workload becomes a hardware thread on its
    /// own core.
    pub fn workload(mut self, profile: WorkloadProfile) -> Self {
        self.workloads.push(WorkloadEntry::Profile(profile));
        self
    }

    /// Adds several workloads at once.
    pub fn workloads<I: IntoIterator<Item = WorkloadProfile>>(mut self, profiles: I) -> Self {
        self.workloads
            .extend(profiles.into_iter().map(WorkloadEntry::Profile));
        self
    }

    /// Adds a thread driven by a caller-supplied trace source (e.g. one of
    /// the `fqms_workloads::patterns` generators or a recorded trace).
    /// `prewarm_accesses` references are streamed through the caches
    /// before measurement if prewarming is enabled. Pure-compute trace
    /// elements are skipped on the way, and a long enough run of them
    /// ends the prewarm early (see [`Core::prewarm_caches`]).
    pub fn workload_trace(
        mut self,
        name: impl Into<String>,
        trace: Box<dyn TraceSource>,
        prewarm_accesses: u64,
    ) -> Self {
        self.workloads.push(WorkloadEntry::Custom {
            name: name.into(),
            trace,
            prewarm_accesses,
        });
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a description if no workloads were added or any component
    /// configuration is invalid.
    pub fn build(self) -> Result<System, String> {
        if self.workloads.is_empty() {
            return Err("add at least one workload".into());
        }
        let n = self.workloads.len();
        let shares = self.shares.unwrap_or_else(|| vec![1.0 / n as f64; n]);
        if shares.len() != n {
            return Err(format!(
                "{} shares provided for {} workloads",
                shares.len(),
                n
            ));
        }
        // Everything that determines the simulation's trajectory goes into
        // the fingerprint, so a checkpoint can never be restored into a
        // system that would diverge from the run that wrote it.
        let fingerprint = {
            let mut fp = Fingerprint::new("fqms-system");
            fp.push_str(&format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                self.scheduler,
                self.geometry,
                self.timing,
                self.core,
                self.inversion_bound,
                self.row_policy,
                self.vft_binding,
                self.buffer_sharing,
            ));
            fp.push_u64(self.cpu_ratio);
            fp.push_u64(self.seed);
            fp.push_u64(self.channels as u64);
            fp.push_u64(u64::from(self.shared_l2));
            fp.push_u64(u64::from(self.prewarm));
            for s in &shares {
                fp.push_f64(*s);
            }
            for entry in &self.workloads {
                match entry {
                    WorkloadEntry::Profile(p) => fp.push_str(&format!("{p:?}")),
                    WorkloadEntry::Custom { name, .. } => fp.push_str(name),
                };
            }
            fp.finish()
        };
        let checkpoint_dir = self.checkpoint_dir.or_else(|| {
            std::env::var_os("FQMS_CHECKPOINT_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        });
        let checkpoint_every = self.checkpoint_every.or_else(|| {
            std::env::var("FQMS_CHECKPOINT_EVERY")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|n| *n > 0)
        });
        let checkpoint = checkpoint_dir.map(|dir| CheckpointFile {
            path: dir.join(format!("fqms-{fingerprint:016x}.ckpt")),
            every: checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY),
        });
        let mut mc_config = McConfig::with_shares(self.scheduler, shares);
        mc_config.inversion_bound = self.inversion_bound;
        mc_config.row_policy = self.row_policy;
        mc_config.vft_binding = self.vft_binding;
        mc_config.buffer_sharing = self.buffer_sharing;
        let mut mc =
            MultiChannelController::new(self.channels, mc_config, self.geometry, self.timing)?;
        let observe = self
            .observe_events
            .or_else(|| crate::sidecar::path().map(|_| SIDECAR_EVENT_CAPACITY));
        if let Some(capacity) = observe {
            mc.enable_observation(capacity);
        }
        let mut cores = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let prewarm = self.prewarm;
        let core_cfg = self.core;
        let seed = self.seed;
        let shared_l2 = if self.shared_l2 {
            Some(std::rc::Rc::new(std::cell::RefCell::new(Cache::new(
                core_cfg.l2,
            )?)))
        } else {
            None
        };
        for (i, entry) in self.workloads.into_iter().enumerate() {
            let (name, trace, prewarm_accesses): (String, Box<dyn TraceSource>, u64) = match entry {
                WorkloadEntry::Profile(profile) => {
                    let trace = SyntheticTrace::for_thread(profile, seed, i as u32)?;
                    // ~4 passes over the footprint bounds the cold-miss share.
                    let lines = profile.footprint_bytes / core_cfg.l1d.line_bytes;
                    (
                        profile.name.to_string(),
                        Box::new(trace),
                        (4 * lines).min(4_000_000),
                    )
                }
                WorkloadEntry::Custom {
                    name,
                    trace,
                    prewarm_accesses,
                } => (name, trace, prewarm_accesses),
            };
            let mut core = match &shared_l2 {
                Some(l2) => Core::with_shared_l2(
                    core_cfg,
                    ThreadId::new(i as u32),
                    trace,
                    std::rc::Rc::clone(l2),
                )?,
                None => Core::new(core_cfg, ThreadId::new(i as u32), trace)?,
            };
            if prewarm {
                core.prewarm_caches(prewarm_accesses);
            }
            cores.push(core);
            names.push(name);
        }
        Ok(System {
            cores,
            names,
            mc,
            scheduler: self.scheduler,
            clocks: ClockDomains::new(self.cpu_ratio),
            overhead: self.core.memory_overhead,
            dram_now: DramCycle::ZERO,
            finish_cycles: vec![None; n],
            finish_insts: vec![0; n],
            completion_scratch: Vec::new(),
            applied: Vec::new(),
            fingerprint,
            checkpoint,
        })
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

/// A simulated CMP: cores + shared memory controller + DRAM.
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    names: Vec<String>,
    mc: MultiChannelController,
    scheduler: SchedulerKind,
    clocks: ClockDomains,
    overhead: u64,
    dram_now: DramCycle,
    /// CPU cycle at which each core crossed the instruction target.
    finish_cycles: Vec<Option<u64>>,
    /// Instructions retired when the target was crossed.
    finish_insts: Vec<u64>,
    /// Reused completion scratch buffer: the per-cycle controller drain
    /// appends here instead of allocating a fresh `Vec` every DRAM cycle.
    completion_scratch: Vec<fqms_memctrl::controller::Completion>,
    /// Reused per-cycle scratch: the CPU cycle up to which each core's
    /// ticks of the current DRAM cycle have been applied.
    applied: Vec<CpuCycle>,
    /// FNV-1a digest of every configuration input that determines the
    /// simulation trajectory; snapshots embed it so cross-configuration
    /// restores are rejected up front.
    fingerprint: u64,
    /// Crash-recovery checkpoint file, when enabled.
    checkpoint: Option<CheckpointFile>,
}

impl System {
    /// Starts building a system (same as [`SystemBuilder::new`]).
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    /// Number of cores/threads.
    pub fn num_threads(&self) -> usize {
        self.cores.len()
    }

    /// The shared memory system (for inspection); single-channel systems
    /// have exactly one channel.
    pub fn controller(&self) -> &MultiChannelController {
        &self.mc
    }

    /// One core (for inspection).
    pub fn core(&self, idx: usize) -> &Core {
        &self.cores[idx]
    }

    /// Advances the whole system by one DRAM cycle (`cpu_ratio` CPU cycles
    /// per core, then one controller step, then completion routing).
    pub fn step(&mut self) {
        self.advance();
    }

    /// [`System::step`]. A blocked core (see [`Core::blocked_until`])
    /// repeats its blocked tick instead of ticking until its wake cycle.
    /// Unobserved, every such tick of this DRAM cycle is applied in one
    /// call: the refusals only count NACKs, so their order against other
    /// cores' ticks does not matter. Observed, one tick at a time, so the
    /// refusal events interleave exactly as ticks would emit them.
    /// Buffer entries free only with a completion (a read's data, or a
    /// write's CAS), so after one every core waiting on a refusal asks the
    /// controller whether it would now admit the request.
    ///
    /// Returns true when the step was quiescent and every core is blocked:
    /// nothing changes until the earliest controller event or core wake.
    fn advance(&mut self) -> bool {
        self.dram_now.tick();
        let now = self.dram_now;
        let ratio = self.clocks.cpu_ratio();
        let base_cpu = now.as_u64() * ratio;
        let end = base_cpu + ratio;
        let observed = self.mc.is_observed();
        let mut applied = std::mem::take(&mut self.applied);
        applied.clear();
        applied.resize(self.cores.len(), CpuCycle::new(base_cpu));
        for now_cpu in (base_cpu..end).map(CpuCycle::new) {
            for (core, applied) in self.cores.iter_mut().zip(&mut applied) {
                if *applied > now_cpu {
                    continue;
                }
                match core.blocked_until() {
                    Some(wake) if wake > now_cpu => {
                        let ticks = if observed {
                            1
                        } else {
                            wake.as_u64().min(end) - now_cpu.as_u64()
                        };
                        core.repeat_blocked(ticks, now, &mut self.mc);
                        *applied = now_cpu + ticks;
                    }
                    _ => core.tick(now_cpu, now, &mut self.mc),
                }
            }
        }
        self.applied = applied;
        let mut done = std::mem::take(&mut self.completion_scratch);
        done.clear();
        let issued = self.mc.step_into(now, &mut done);
        let quiescent = !issued && done.is_empty();
        if !done.is_empty() {
            for core in &mut self.cores {
                let thread = core.thread();
                core.retry_refused(|kind, addr| self.mc.can_accept(thread, kind, addr));
            }
        }
        for c in &done {
            if c.kind == RequestKind::Read {
                let ready = CpuCycle::new(c.finish.as_u64() * ratio + self.overhead);
                self.cores[c.thread.as_usize()].on_completion(c, ready);
            }
        }
        self.completion_scratch = done;
        quiescent && self.cores.iter().all(|core| core.blocked_until().is_some())
    }

    /// Jumps from a quiescent cycle with every core blocked (see
    /// [`System::advance`]) to just before the first cycle that can
    /// differ: the earliest controller event, core wake, checkpoint or
    /// the cycle cap, each of which is then stepped. The blocked ticks of
    /// the skipped cycles are applied in bulk and the cycles are counted
    /// as skipped. No jump starts at a checkpoint: a run resumed there
    /// steps the next cycle, so the uninterrupted run must too.
    fn fast_forward(&mut self, start: DramCycle, max_dram_cycles: u64) {
        let now = self.dram_now.as_u64();
        let ratio = self.clocks.cpu_ratio();
        let mut target = start.as_u64().saturating_add(max_dram_cycles);
        for core in &self.cores {
            let wake = core.blocked_until().expect("every core is blocked");
            target = target.min(wake.as_u64() / ratio);
        }
        if let Some(ck) = &self.checkpoint {
            let since = (now - start.as_u64()) % ck.every;
            if since == 0 {
                return;
            }
            target = target.min(now + ck.every - since);
        }
        // The controller's bound costs a scan of its banks: ask last.
        if target <= now + 1 {
            return;
        }
        target = target.min(self.mc.next_event_cycle(self.dram_now).as_u64());
        if target <= now + 1 {
            return;
        }
        let last = DramCycle::new(target - 1);
        if self.mc.is_observed() {
            for cycle in now + 1..target {
                for _ in 0..ratio {
                    for core in &mut self.cores {
                        core.repeat_blocked(1, DramCycle::new(cycle), &mut self.mc);
                    }
                }
            }
        } else {
            let ticks = (target - 1 - now) * ratio;
            for core in &mut self.cores {
                core.repeat_blocked(ticks, last, &mut self.mc);
            }
        }
        self.mc.skip_until(last);
        self.dram_now = last;
    }

    /// Zeroes all measurement counters (core IPC accounting, controller and
    /// DRAM statistics) while preserving microarchitectural state: warm
    /// caches, queued requests, open rows, VTMS registers.
    pub fn reset_measurement(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
        self.mc.reset_stats(self.dram_now);
        self.finish_cycles = vec![None; self.cores.len()];
        self.finish_insts = vec![0; self.cores.len()];
    }

    /// Runs a warmup phase of `instructions_per_thread` instructions whose
    /// statistics are discarded — the equivalent of the paper's sampled
    /// traces starting with warmed caches. Call before [`System::run`].
    pub fn warm_up(&mut self, instructions_per_thread: u64, max_dram_cycles: u64) {
        // Warmup must not pollute the metrics sidecar with a block of its
        // own, hence `export: false`.
        let _ = self.run_inner(instructions_per_thread, max_dram_cycles, false);
    }

    /// The merged per-thread metric sinks collected since the last
    /// measurement reset, when observation is enabled (see
    /// [`SystemBuilder::observe_events`]). Channels are merged in
    /// channel-index order, so repeated runs agree bit-for-bit.
    pub fn observed_metrics(&self) -> Option<fqms_obs::MetricsSink> {
        self.mc.merged_metrics()
    }

    /// Runs until **every** thread has retired at least
    /// `instructions_per_thread` further instructions, or `max_dram_cycles`
    /// have elapsed. Measurement counters are reset at entry; each thread's
    /// IPC is measured at its own finish line (the standard multiprogram
    /// methodology: faster threads keep running and keep contending, but
    /// their extra progress is not credited).
    ///
    /// Returns the run's metrics. If `FQMS_SIDECAR` is set, the run also
    /// appends its observability sinks to the sidecar file (see
    /// [`crate::sidecar`]).
    pub fn run(&mut self, instructions_per_thread: u64, max_dram_cycles: u64) -> SystemMetrics {
        self.run_inner(instructions_per_thread, max_dram_cycles, true)
    }

    /// The FNV-1a digest of this system's full configuration; snapshots
    /// carry it and refuse to restore across differing configurations.
    pub fn config_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes the complete simulation state — every core (caches, ROB,
    /// outstanding misses, trace position), the memory controller
    /// (queues, buffers, virtual clocks, DRAM timing state), and the
    /// system clock — into a self-describing, CRC-protected snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if a component cannot be captured
    /// (a shared L2, or a trace source without snapshot hooks).
    pub fn save_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new(self.fingerprint);
        self.write_state(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Restores a [`System::save_snapshot`] image into this identically
    /// configured system; afterwards the simulation continues bit-for-bit
    /// as if never interrupted.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError`]s for corrupted, truncated, or mismatched
    /// snapshots, naming the failing section — never a panic. On error the
    /// system state is unspecified and should not be resumed from.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes, self.fingerprint)?;
        self.read_state(&mut r)?;
        r.finish()
    }

    fn write_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        w.section("system", |s| {
            s.put_u64(self.dram_now.as_u64());
            s.put_seq_len(self.finish_cycles.len());
            for f in &self.finish_cycles {
                s.put_opt_u64(*f);
            }
            s.put_seq_len(self.finish_insts.len());
            for f in &self.finish_insts {
                s.put_u64(*f);
            }
        });
        let mut res = Ok(());
        w.section("cores", |s| {
            s.put_seq_len(self.cores.len());
            for core in &self.cores {
                res = core.save_state(s);
                if res.is_err() {
                    return;
                }
            }
        });
        res?;
        w.section("mc", |s| self.mc.save(s));
        Ok(())
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = self.cores.len();
        let (dram_now, finish_cycles, finish_insts) = r.section("system", |s| {
            let now = s.get_u64()?;
            let nc = s.seq_len()?;
            if nc != n {
                return Err(s.malformed(format!("snapshot has {nc} threads, system has {n}")));
            }
            let mut fc = Vec::with_capacity(nc);
            for _ in 0..nc {
                fc.push(s.get_opt_u64()?);
            }
            let ni = s.seq_len()?;
            if ni != n {
                return Err(s.malformed(format!("snapshot has {ni} threads, system has {n}")));
            }
            let mut fi = Vec::with_capacity(ni);
            for _ in 0..ni {
                fi.push(s.get_u64()?);
            }
            Ok((now, fc, fi))
        })?;
        r.section("cores", |s| {
            let nc = s.seq_len()?;
            if nc != n {
                return Err(s.malformed(format!("snapshot has {nc} cores, system has {n}")));
            }
            for core in &mut self.cores {
                core.restore_state(s)?;
            }
            Ok(())
        })?;
        r.section("mc", |s| self.mc.restore(s))?;
        self.dram_now = DramCycle::new(dram_now);
        self.finish_cycles = finish_cycles;
        self.finish_insts = finish_insts;
        Ok(())
    }

    /// Attempts to resume `run_inner` from a persisted checkpoint of the
    /// same configuration and run parameters. Returns the measurement
    /// start cycle on success; on any failure (no file, corruption,
    /// different run) the run starts fresh — a rejected checkpoint can
    /// cost time, never correctness.
    fn try_resume(
        &mut self,
        instructions_per_thread: u64,
        max_dram_cycles: u64,
        export: bool,
    ) -> Option<DramCycle> {
        let path = self.checkpoint.as_ref()?.path.clone();
        if !path.exists() {
            return None;
        }
        let bytes = match snapshot::load_from_file(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "fqms: ignoring unreadable checkpoint {}: {e}",
                    path.display()
                );
                return None;
            }
        };
        match self.resume_from(&bytes, instructions_per_thread, max_dram_cycles, export) {
            Ok(start) => {
                eprintln!(
                    "fqms: resumed from checkpoint {} at DRAM cycle {}",
                    path.display(),
                    self.dram_now.as_u64()
                );
                Some(start)
            }
            Err(e) => {
                eprintln!("fqms: ignoring invalid checkpoint {}: {e}", path.display());
                None
            }
        }
    }

    fn resume_from(
        &mut self,
        bytes: &[u8],
        instructions_per_thread: u64,
        max_dram_cycles: u64,
        export: bool,
    ) -> Result<DramCycle, SnapshotError> {
        let mut r = SnapshotReader::new(bytes, self.fingerprint)?;
        let (start, ipt, mdc, exp) = r.section("run", |s| {
            Ok((s.get_u64()?, s.get_u64()?, s.get_u64()?, s.get_bool()?))
        })?;
        if ipt != instructions_per_thread || mdc != max_dram_cycles || exp != export {
            return Err(SnapshotError::Malformed {
                section: "run",
                what: format!(
                    "checkpoint is for a different run \
                     ({ipt} insts / {mdc} cycles / export {exp}, this run wants \
                     {instructions_per_thread} / {max_dram_cycles} / {export})"
                ),
            });
        }
        self.read_state(&mut r)?;
        r.finish()?;
        Ok(DramCycle::new(start))
    }

    /// Persists a checkpoint if one is due at the current cycle. Write
    /// failures only warn (the run stays correct without checkpoints); an
    /// unsnapshottable component disables checkpointing for the rest of
    /// the run.
    fn maybe_checkpoint(
        &mut self,
        start: DramCycle,
        instructions_per_thread: u64,
        max_dram_cycles: u64,
        export: bool,
    ) {
        let Some(ck) = &self.checkpoint else {
            return;
        };
        if !(self.dram_now - start).is_multiple_of(ck.every) {
            return;
        }
        let path = ck.path.clone();
        let mut w = SnapshotWriter::new(self.fingerprint);
        w.section("run", |s| {
            s.put_u64(start.as_u64());
            s.put_u64(instructions_per_thread);
            s.put_u64(max_dram_cycles);
            s.put_bool(export);
        });
        match self.write_state(&mut w) {
            Ok(()) => {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    let _ = std::fs::create_dir_all(dir);
                }
                if let Err(e) = snapshot::save_to_file(&path, &w.into_bytes()) {
                    eprintln!("fqms: checkpoint write failed ({e}); continuing without");
                }
            }
            Err(e) => {
                eprintln!("fqms: checkpointing disabled for this run: {e}");
                self.checkpoint = None;
            }
        }
    }

    /// Removes the checkpoint file after a clean completion so the next
    /// run of this configuration starts fresh.
    fn discard_checkpoint(&self) {
        if let Some(ck) = &self.checkpoint {
            let _ = std::fs::remove_file(&ck.path);
        }
    }

    fn run_inner(
        &mut self,
        instructions_per_thread: u64,
        max_dram_cycles: u64,
        export: bool,
    ) -> SystemMetrics {
        let start = match self.try_resume(instructions_per_thread, max_dram_cycles, export) {
            Some(start) => start,
            None => {
                self.reset_measurement();
                self.dram_now
            }
        };
        loop {
            let quiescent = self.advance();
            let mut all_done = true;
            for (i, core) in self.cores.iter().enumerate() {
                if self.finish_cycles[i].is_none() {
                    if core.retired() >= instructions_per_thread {
                        self.finish_cycles[i] = Some(core.cycles());
                        self.finish_insts[i] = core.retired();
                    } else {
                        all_done = false;
                    }
                }
            }
            if all_done {
                break;
            }
            if self.dram_now - start >= max_dram_cycles {
                // Record whatever progress the stragglers made.
                for (i, core) in self.cores.iter().enumerate() {
                    if self.finish_cycles[i].is_none() {
                        self.finish_cycles[i] = Some(core.cycles());
                        self.finish_insts[i] = core.retired();
                    }
                }
                break;
            }
            self.maybe_checkpoint(start, instructions_per_thread, max_dram_cycles, export);
            if quiescent {
                self.fast_forward(start, max_dram_cycles);
            }
        }
        self.discard_checkpoint();
        self.mc.finish(self.dram_now);
        crate::telemetry::note_controller_cycles(
            self.mc.stepped_cycles(),
            self.mc.skipped_cycles(),
        );
        if export {
            if let Some(sink) = self.mc.merged_metrics() {
                crate::sidecar::append(&self.names.join("+"), self.scheduler.name(), &sink);
            }
        }
        self.metrics(start)
    }

    /// Computes metrics for the window starting at `start`.
    fn metrics(&self, start: DramCycle) -> SystemMetrics {
        let elapsed = self.dram_now - start;
        let elapsed = elapsed.max(1);
        let threads = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let cycles = self.finish_cycles[i].unwrap_or(0).max(1);
                let insts = self.finish_insts[i];
                let mcs = self.mc.thread_stats(ThreadId::new(i as u32));
                ThreadMetrics {
                    name: self.names[i].clone(),
                    instructions: insts,
                    cpu_cycles: cycles,
                    ipc: insts as f64 / cycles as f64,
                    avg_read_latency: core.stats().avg_miss_latency(),
                    p95_read_latency: core.latency_histogram().percentile(0.95),
                    // Fraction of *total* peak bandwidth across channels.
                    bus_utilization: mcs.bus_utilization(elapsed * self.mc.num_channels() as u64),
                    row_hit_rate: mcs.row_hit_rate(),
                    mem_reads: mcs.reads_completed,
                    mem_writes: mcs.writes_completed,
                }
            })
            .collect();
        let total_banks = self.mc.total_banks() as u64;
        let channels = self.mc.num_channels() as u64;
        SystemMetrics {
            threads,
            elapsed_dram_cycles: elapsed,
            data_bus_utilization: self.mc.bus_busy_cycles() as f64 / (elapsed * channels) as f64,
            bank_utilization: self.mc.bank_busy_cycles() as f64 / (elapsed * total_banks) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqms_workloads::spec::by_name;

    #[test]
    fn build_requires_workloads() {
        assert!(SystemBuilder::new().build().is_err());
    }

    #[test]
    fn build_terminates_on_a_trace_without_memory_accesses() {
        use fqms_cpu::trace::TraceOp;
        use fqms_workloads::patterns::RecordedTrace;
        let compute_only = RecordedTrace::new(vec![TraceOp::compute(10)]);
        let mut system = SystemBuilder::new()
            .workload_trace("c", Box::new(compute_only), 100)
            .build()
            .unwrap();
        let m = system.run(1_000, 10_000);
        assert!(m.threads[0].ipc > 0.0);
    }

    #[test]
    fn run_terminates_on_a_trace_of_empty_elements() {
        use fqms_cpu::trace::TraceOp;
        let mut system = SystemBuilder::new()
            .workload_trace("x", Box::new(|| TraceOp::compute(0)), 0)
            .build()
            .unwrap();
        let m = system.run(1, 10);
        assert_eq!(m.elapsed_dram_cycles, 10);
        assert_eq!(m.threads[0].instructions, 0);
    }

    #[test]
    fn fast_forward_partitions_the_run_and_feeds_telemetry() {
        for channels in [1, 2] {
            let mut sys = SystemBuilder::new()
                .scheduler(SchedulerKind::FqVftf)
                .channels(channels)
                .workload(by_name("art").unwrap())
                .workload(by_name("swim").unwrap())
                .seed(4)
                .build()
                .unwrap();
            let (_, skipped_before) = crate::telemetry::controller_cycles();
            let m = sys.run(20_000, 2_000_000);
            let mc = sys.controller();
            assert_eq!(
                mc.stepped_cycles() + mc.skipped_cycles(),
                m.elapsed_dram_cycles * channels as u64
            );
            assert!(mc.skipped_cycles() > 0, "a memory-bound pair never jumped");
            let (_, skipped_after) = crate::telemetry::controller_cycles();
            assert!(skipped_after - skipped_before >= mc.skipped_cycles());
        }
    }

    #[test]
    fn a_jump_stops_at_the_cycle_cap() {
        // A memory-bound pair jumps often; wherever the cap falls, the run
        // ends exactly on it.
        for cap in [1_000, 4_321, 9_999] {
            let mut sys = SystemBuilder::new()
                .workload(by_name("art").unwrap())
                .workload(by_name("swim").unwrap())
                .seed(3)
                .build()
                .unwrap();
            let m = sys.run(u64::MAX / 2, cap);
            assert_eq!(m.elapsed_dram_cycles, cap);
            assert!(sys.controller().skipped_cycles() > 0);
        }
    }

    #[test]
    fn share_count_must_match() {
        let r = SystemBuilder::new()
            .workload(by_name("art").unwrap())
            .shares(vec![0.5, 0.5])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn single_thread_run_produces_metrics() {
        let mut sys = SystemBuilder::new()
            .workload(by_name("swim").unwrap())
            .seed(3)
            .build()
            .unwrap();
        let m = sys.run(20_000, 2_000_000);
        assert_eq!(m.threads.len(), 1);
        let t = &m.threads[0];
        assert!(t.instructions >= 20_000);
        assert!(t.ipc > 0.0);
        assert!(t.bus_utilization > 0.0);
        assert!(m.data_bus_utilization > 0.0);
        assert!(m.bank_utilization > 0.0);
        assert_eq!(t.name, "swim");
    }

    #[test]
    fn two_thread_run_is_deterministic() {
        let run = || {
            let mut sys = SystemBuilder::new()
                .scheduler(SchedulerKind::FqVftf)
                .workload(by_name("art").unwrap())
                .workload(by_name("vpr").unwrap())
                .seed(9)
                .build()
                .unwrap();
            sys.run(10_000, 2_000_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn observation_is_passive_and_sinks_match_metrics() {
        let build = |observe: bool| {
            let b = SystemBuilder::new()
                .scheduler(SchedulerKind::FqVftf)
                .workload(by_name("art").unwrap())
                .workload(by_name("vpr").unwrap())
                .seed(9);
            let b = if observe {
                b.observe_events(1 << 14)
            } else {
                b
            };
            b.build().unwrap()
        };
        let mut plain = build(false);
        let mut observed = build(true);
        let a = plain.run(10_000, 2_000_000);
        let b = observed.run(10_000, 2_000_000);
        assert_eq!(a, b, "attaching observers changed the simulation");
        assert!(plain.observed_metrics().is_none());
        let sink = observed.observed_metrics().unwrap();
        for (t, m) in b.threads.iter().enumerate() {
            let s = sink.thread(t as u32);
            assert_eq!(s.reads_completed, m.mem_reads, "thread {t} reads");
            assert_eq!(s.writes_completed, m.mem_writes, "thread {t} writes");
        }
    }

    #[test]
    fn max_cycles_bound_is_respected() {
        let mut sys = SystemBuilder::new()
            .workload(by_name("art").unwrap())
            .seed(3)
            .build()
            .unwrap();
        let m = sys.run(u64::MAX / 2, 5_000);
        assert!(m.elapsed_dram_cycles <= 5_001);
    }

    #[test]
    fn snapshot_roundtrip_continues_bit_identically() {
        let build = || {
            SystemBuilder::new()
                .scheduler(SchedulerKind::FqVftf)
                .workload(by_name("art").unwrap())
                .workload(by_name("vpr").unwrap())
                .seed(9)
                .build()
                .unwrap()
        };
        let mut reference = build();
        for _ in 0..5_000 {
            reference.step();
        }

        let mut sys = build();
        for _ in 0..3_000 {
            sys.step();
        }
        let bytes = sys.save_snapshot().unwrap();
        drop(sys);
        let mut resumed = build();
        resumed.restore_snapshot(&bytes).unwrap();
        for _ in 0..2_000 {
            resumed.step();
        }

        for i in 0..2 {
            assert_eq!(resumed.core(i).retired(), reference.core(i).retired());
            assert_eq!(resumed.core(i).cycles(), reference.core(i).cycles());
            assert_eq!(resumed.core(i).stats(), reference.core(i).stats());
            let a = resumed.controller().thread_stats(ThreadId::new(i as u32));
            let b = reference.controller().thread_stats(ThreadId::new(i as u32));
            assert_eq!(a, b, "thread {i} controller stats diverged");
        }
    }

    #[test]
    fn snapshot_rejects_corruption_and_config_mismatch() {
        let mut sys = SystemBuilder::new()
            .workload(by_name("art").unwrap())
            .seed(9)
            .build()
            .unwrap();
        for _ in 0..500 {
            sys.step();
        }
        let bytes = sys.save_snapshot().unwrap();

        // Truncation anywhere is a typed error, never a panic.
        let mut fresh = SystemBuilder::new()
            .workload(by_name("art").unwrap())
            .seed(9)
            .build()
            .unwrap();
        assert!(fresh.restore_snapshot(&bytes[..bytes.len() / 2]).is_err());

        // A different seed is a different trajectory: fingerprint mismatch.
        let mut other = SystemBuilder::new()
            .workload(by_name("art").unwrap())
            .seed(10)
            .build()
            .unwrap();
        let err = other.restore_snapshot(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                fqms_sim::snapshot::SnapshotError::ConfigMismatch { .. }
            ),
            "{err}"
        );
    }

    /// A deterministic trace that simulates a crash: panics once at a
    /// fixed op count while the global arm flag is set, then (after the
    /// "process restart" rebuilds it) behaves identically to the clean
    /// generator.
    #[derive(Debug)]
    struct CrashingTrace {
        inner: fqms_workloads::patterns::RandomScatter,
        ops: u64,
        crash_at: u64,
        armed: &'static std::sync::atomic::AtomicBool,
    }

    impl TraceSource for CrashingTrace {
        fn next_op(&mut self) -> fqms_cpu::trace::TraceOp {
            self.ops += 1;
            if self.ops == self.crash_at
                && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("injected crash at op {}", self.ops);
            }
            self.inner.next_op()
        }

        fn save_state(
            &self,
            w: &mut fqms_sim::snapshot::SectionWriter,
        ) -> Result<(), fqms_sim::snapshot::SnapshotError> {
            self.inner.save_state(w)?;
            w.put_u64(self.ops);
            Ok(())
        }

        fn restore_state(
            &mut self,
            r: &mut fqms_sim::snapshot::SectionReader<'_>,
        ) -> Result<(), fqms_sim::snapshot::SnapshotError> {
            self.inner.restore_state(r)?;
            self.ops = r.get_u64()?;
            Ok(())
        }
    }

    #[test]
    fn crash_and_resume_matches_uninterrupted_run() {
        use std::sync::atomic::AtomicBool;
        static ARMED: AtomicBool = AtomicBool::new(false);
        let ckpt_dir = std::env::temp_dir().join(format!(
            "fqms-ckpt-test-{}-crash_and_resume",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&ckpt_dir);

        let build = |dir: Option<&std::path::Path>| {
            let trace = CrashingTrace {
                inner: fqms_workloads::patterns::RandomScatter::new(0, 1 << 22, 6, 77),
                ops: 0,
                crash_at: 1_000,
                armed: &ARMED,
            };
            let b = SystemBuilder::new()
                .scheduler(SchedulerKind::FqVftf)
                .seed(5)
                .prewarm(false)
                .workload_trace("scatter", Box::new(trace), 0)
                .checkpoint_every(500);
            match dir {
                Some(d) => b.checkpoint_dir(d),
                None => b,
            }
            .build()
            .unwrap()
        };

        // Reference: never crashes, no checkpointing.
        let reference = build(None).run(8_000, 400_000);

        // Crash run: the trace panics mid-simulation, leaving the
        // checkpoint file behind.
        ARMED.store(true, std::sync::atomic::Ordering::SeqCst);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            build(Some(&ckpt_dir)).run(8_000, 400_000)
        }));
        assert!(crashed.is_err(), "the injected crash should have fired");
        let ckpt_file = std::fs::read_dir(&ckpt_dir)
            .expect("checkpoint dir exists")
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "ckpt"));
        assert!(
            ckpt_file.is_some(),
            "at least one checkpoint must have been written before the crash"
        );

        // "Restart the process": a fresh, identically configured system
        // resumes from the checkpoint and must match the reference exactly.
        let resumed = build(Some(&ckpt_dir)).run(8_000, 400_000);
        assert_eq!(resumed, reference, "resumed run diverged from reference");

        // Clean completion removes the checkpoint.
        let leftover = std::fs::read_dir(&ckpt_dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0);
        assert_eq!(leftover, 0, "clean completion must remove the checkpoint");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn cache_resident_workload_uses_no_bus() {
        let mut sys = SystemBuilder::new()
            .workload(by_name("crafty").unwrap())
            .seed(5)
            .build()
            .unwrap();
        let m = sys.run(50_000, 2_000_000);
        assert!(
            m.data_bus_utilization < 0.05,
            "crafty used {}",
            m.data_bus_utilization
        );
        assert!(m.threads[0].ipc > 2.0);
    }
}

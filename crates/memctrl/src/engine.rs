//! Sharded multi-channel simulation engine.
//!
//! Channels in a line-interleaved memory system share no state: each has
//! its own bank schedulers, VTMS bookkeeping, transaction buffers, and
//! command log, and a request touches exactly one channel. That makes the
//! channel the natural sharding boundary for parallel simulation. This
//! module pre-routes an *open-loop submission schedule* (a time-ordered
//! list of [`SubmitEvent`]s) onto per-channel [`ChannelShard`]s and drives
//! them with the free-running work-stealing executor from
//! [`fqms_sim::parallel`]. Every entry point is one executor call: a fresh
//! run ([`simulate_serial`], [`simulate_parallel`]), a fresh run cut at a
//! kill cycle ([`simulate_serial_checkpointed`],
//! [`simulate_parallel_checkpointed`]), or a resume whose first window per
//! shard is the rest of the interrupted epoch ([`resume_serial`],
//! [`resume_parallel`]). A serial run is the same call with one worker.
//! Parallel checkpoints are byte-identical to serial ones, and either
//! resumes to a report bit-identical to the uninterrupted serial run.
//!
//! # Determinism guarantee
//!
//! Each shard advances its own channel with the same single-threaded code
//! path in both modes, and shards never communicate, so the parallel run
//! produces **bit-identical** per-thread statistics, completions, and
//! command logs to the serial run — regardless of worker count, epoch
//! length, or OS scheduling. The merged [`EngineReport`] is assembled in
//! channel-index order, so it is deterministic too, and `assert_eq!`
//! between a serial and a parallel report is the equivalence test.
//!
//! # Example
//!
//! ```
//! use fqms_memctrl::engine::{simulate_parallel, simulate_serial, synthetic_workload, EngineSpec};
//!
//! let spec = EngineSpec::paper(4, 2); // 4 channels, 2 threads
//! let events = synthetic_workload(2, 2_000, 0.3, 42);
//! let serial = simulate_serial(&spec, &events).unwrap();
//! let parallel = simulate_parallel(&spec, &events, 4).unwrap();
//! assert_eq!(serial, parallel);
//! ```

use crate::address_map::AddressMap;
use crate::buffers::Nack;
use crate::cmdlog::CommandLog;
use crate::config::McConfig;
use crate::controller::{Completion, MemoryController};
use crate::multichannel::MultiChannelController;
use crate::policy::SchedulerKind;
use crate::request::{RequestKind, ThreadId};
use crate::stats::ThreadStats;
use fqms_dram::command::BankId;
use fqms_dram::command::{ColId, DramAddress, RankId, RowId};
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_obs::{Event, NullObserver, Observations, Observer, TracingObserver};
use fqms_sim::clock::DramCycle;
use fqms_sim::fault::FaultPlan;
use fqms_sim::parallel::{run_windows, FreeRunReport, Shard, STEAL_QUANTUM_EPOCHS};
use fqms_sim::rng::SimRng;
use fqms_sim::snapshot::{
    Fingerprint, SectionReader, SectionWriter, Snapshot, SnapshotError, SnapshotReader,
    SnapshotWriter,
};
use std::collections::VecDeque;

/// One request in an open-loop submission schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitEvent {
    /// Earliest cycle the request may be submitted (it is retried every
    /// cycle after a NACK, head-of-line per channel).
    pub at: DramCycle,
    /// Originating thread.
    pub thread: ThreadId,
    /// Read or write.
    pub kind: RequestKind,
    /// System-wide physical address (the engine routes and localizes it).
    pub phys: u64,
}

/// Head-of-line retry policy at a channel's submission port.
///
/// [`RetryPolicy::immediate`] (the default) reproduces the engine's
/// historical behaviour bit-for-bit: a NACKed head is retried every cycle
/// forever. [`RetryPolicy::bounded`] adds graceful degradation under
/// persistent back-pressure (e.g. a NACK-storm fault): retries back off
/// exponentially up to a cap, and after `max_retries` rejections the
/// request is abandoned into [`EngineReport::rejected`] instead of
/// wedging the port forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Abandon the head after this many NACKs (`None` = retry forever).
    pub max_retries: Option<u32>,
    /// Backoff after the first NACK, in cycles (doubles per retry).
    pub backoff_start: u64,
    /// Backoff ceiling in cycles.
    pub backoff_cap: u64,
}

impl RetryPolicy {
    /// Retry every cycle, forever — the engine's reference behaviour.
    pub fn immediate() -> Self {
        RetryPolicy {
            max_retries: None,
            backoff_start: 1,
            backoff_cap: 1,
        }
    }

    /// Bounded retries with capped exponential backoff.
    pub fn bounded(max_retries: u32, backoff_start: u64, backoff_cap: u64) -> Self {
        RetryPolicy {
            max_retries: Some(max_retries),
            backoff_start: backoff_start.max(1),
            backoff_cap: backoff_cap.max(backoff_start.max(1)),
        }
    }

    /// Cycles to wait before retry number `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> u64 {
        let shift = u64::from(attempt.saturating_sub(1)).min(32);
        (self.backoff_start << shift).min(self.backoff_cap).max(1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::immediate()
    }
}

/// Configuration of a sharded engine run.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Number of line-interleaved channels (= shards).
    pub num_channels: usize,
    /// Per-channel controller configuration.
    pub config: McConfig,
    /// Per-channel DRAM geometry.
    pub geometry: Geometry,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// Cycles per epoch window the executor steps each shard through (has
    /// no effect on results, only on scheduling granularity).
    pub epoch_cycles: u64,
    /// Hard cycle bound: the run stops here even if shards still hold
    /// work (safety net against schedules that can never drain).
    pub max_cycles: u64,
    /// Per-channel command-log capacity; `None` disables logging.
    pub log_capacity: Option<usize>,
    /// Per-channel observer event-ring capacity; `None` runs unobserved
    /// (the controllers monomorphize to the no-op observer — zero
    /// overhead). `Some(cap)` attaches a
    /// [`TracingObserver`] per channel and the
    /// report carries [`EngineReport::observations`].
    pub event_capacity: Option<usize>,
    /// Event-driven fast-forward: when `true` (the default), each shard
    /// jumps over cycles where no submission is due and the controller is
    /// provably inert (`MemoryController::tick_until`). Results are
    /// bit-identical either way — `false` forces the cycle-by-cycle
    /// reference path (the differential baseline).
    pub fast_forward: bool,
    /// Deterministic fault plan applied to every channel (salted by
    /// channel index so channels draw distinct episode timelines).
    /// `None` — and `Some(FaultPlan::none())` — inject nothing and leave
    /// the run bit-identical to a fault-free build.
    pub fault_plan: Option<FaultPlan>,
    /// Head-of-line retry policy at each channel's submission port.
    pub retry: RetryPolicy,
}

impl EngineSpec {
    /// Fingerprint binding a checkpoint to this exact spec *and*
    /// submission schedule. Restoring a checkpoint under a different
    /// scheduler, geometry, timing, fault plan, retry policy, or workload
    /// fails with [`SnapshotError::ConfigMismatch`] instead of resuming
    /// nonsense. This is same-binary mismatch *detection* (crash recovery
    /// of an interrupted run), not a cross-version compatibility contract.
    pub fn fingerprint(&self, events: &[SubmitEvent]) -> u64 {
        let mut fp = Fingerprint::new("fqms-engine");
        fp.push_str(&format!("{self:?}"));
        fp.push_u64(events.len() as u64);
        for ev in events {
            fp.push_u64(ev.at.as_u64());
            fp.push_u64(u64::from(ev.thread.as_u32()));
            fp.push_u64(u64::from(ev.kind == RequestKind::Write));
            fp.push_u64(ev.phys);
        }
        fp.finish()
    }

    /// The paper's Table 5 configuration under FQ-VFTF, spread over
    /// `num_channels` channels, with engine defaults (1024-cycle epochs,
    /// 10M-cycle safety bound, logging disabled).
    pub fn paper(num_channels: usize, num_threads: usize) -> Self {
        EngineSpec {
            num_channels,
            config: McConfig::paper(num_threads, SchedulerKind::FqVftf),
            geometry: Geometry::paper(),
            timing: TimingParams::ddr2_800(),
            epoch_cycles: 1024,
            max_cycles: 10_000_000,
            log_capacity: None,
            event_capacity: None,
            fast_forward: true,
            fault_plan: None,
            retry: RetryPolicy::immediate(),
        }
    }
}

/// The submission port of one channel: the pre-routed event queue plus
/// head-of-line retry state under the engine's [`RetryPolicy`].
#[derive(Debug)]
struct SubmitPort {
    /// Channel-local events in submission order; the head blocks the
    /// tail (modelling per-thread back-pressure at the channel port).
    events: VecDeque<SubmitEvent>,
    retry: RetryPolicy,
    /// NACKs the current head has absorbed.
    head_retries: u32,
    /// Cycle before which the head is backing off (not re-submitted).
    head_ready_at: u64,
    /// Requests abandoned after exhausting `max_retries`.
    rejected: Vec<SubmitEvent>,
    /// Requests terminally dropped by the controller's load shedder
    /// ([`Nack::Shed`]); never retried.
    shed: Vec<SubmitEvent>,
}

/// One channel plus its pre-routed slice of the submission schedule —
/// a self-contained [`Shard`].
#[derive(Debug)]
pub struct ChannelShard {
    mc: MemoryController,
    port: SubmitPort,
    completions: Vec<Completion>,
    /// Channel-local observer; shards never share one, so observation
    /// needs no synchronization and stays deterministic.
    obs: Option<TracingObserver>,
    /// Event-driven fast-forward enabled (from [`EngineSpec`]).
    fast: bool,
}

/// Drives one channel over one epoch. Generic over the observer so the
/// unobserved path monomorphizes with [`NullObserver`] to exactly the
/// pre-observability code.
///
/// With `fast` set, the drain loop exploits that it knows every future
/// arrival: while the head submission is not due (or backing off) for at
/// least two cycles, the only things that can happen are
/// controller-internal, so the window up to `min(epoch end, next
/// submission - 1)` is handed to [`MemoryController::tick_until`], which
/// skips provably-inert cycles. Under [`RetryPolicy::immediate`] a NACKed
/// head becomes due again on the very next cycle, which forces the
/// cycle-by-cycle path below — retries (and their
/// [`fqms_obs::Event::Nack`] events) replay exactly as in the reference
/// mode.
fn drive<O: Observer>(
    mc: &mut MemoryController,
    port: &mut SubmitPort,
    completions: &mut Vec<Completion>,
    obs: &mut O,
    fast: bool,
    start: u64,
    end: u64,
) -> bool {
    let mut now = start;
    while now < end {
        let next_due = port
            .events
            .front()
            .map_or(u64::MAX, |e| e.at.as_u64().max(port.head_ready_at));
        if fast && next_due > now + 1 {
            let stop = end.min(next_due - 1);
            mc.tick_until_observed(DramCycle::new(now), DramCycle::new(stop), completions, obs);
            now = stop;
            continue;
        }
        now += 1;
        let cycle = DramCycle::new(now);
        while let Some(ev) = port.events.front() {
            if ev.at.as_u64() > now || port.head_ready_at > now {
                break; // not due yet, or backing off
            }
            let ev = *ev;
            match mc.try_submit_observed(ev.thread, ev.kind, ev.phys, cycle, obs) {
                Ok(_) => {
                    port.events.pop_front();
                    port.head_retries = 0;
                    port.head_ready_at = 0;
                }
                Err(Nack::Shed { .. }) => {
                    // Terminal refusal: the controller's load shedder
                    // dropped the request and retrying cannot help. Drain
                    // past it; the next event may still submit this cycle.
                    port.shed.push(ev);
                    port.events.pop_front();
                    port.head_retries = 0;
                    port.head_ready_at = 0;
                    continue;
                }
                Err(nack) => {
                    port.head_retries += 1;
                    if port
                        .retry
                        .max_retries
                        .is_some_and(|max| port.head_retries > max)
                    {
                        // Bounded retry exhausted: abandon the head so the
                        // port drains instead of wedging; the next event may
                        // still submit this cycle.
                        if O::ENABLED {
                            obs.on_event(&Event::Rejected {
                                cycle: now,
                                thread: ev.thread.as_u32(),
                                is_write: ev.kind == RequestKind::Write,
                            });
                        }
                        port.rejected.push(ev);
                        port.events.pop_front();
                        port.head_retries = 0;
                        port.head_ready_at = 0;
                        continue;
                    }
                    // A throttled head knows exactly when tokens return:
                    // honour the larger of the policy backoff and the
                    // controller's own retry-after hint (retrying earlier
                    // is provably futile).
                    let mut delay = port.retry.delay(port.head_retries);
                    if let Nack::Throttled { retry_after } = nack {
                        delay = delay.max(retry_after);
                    }
                    port.head_ready_at = now + delay;
                    break; // head-of-line NACK: retry after the backoff
                }
            }
        }
        mc.step_into(cycle, completions, obs);
    }
    !(port.events.is_empty() && mc.is_idle())
}

impl Shard for ChannelShard {
    fn run_epoch(&mut self, start: u64, end: u64) -> bool {
        match &mut self.obs {
            Some(obs) => drive(
                &mut self.mc,
                &mut self.port,
                &mut self.completions,
                obs,
                self.fast,
                start,
                end,
            ),
            None => drive(
                &mut self.mc,
                &mut self.port,
                &mut self.completions,
                &mut NullObserver,
                self.fast,
                start,
                end,
            ),
        }
    }
}

/// The deterministic merge of a sharded run, assembled in channel-index
/// order. Two reports compare equal iff every per-thread counter, every
/// completion, and every retained command record agree.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Cycle the run reached (epoch-aligned, capped at `max_cycles`).
    pub cycles: u64,
    /// Per-thread statistics summed across channels.
    pub per_thread: Vec<ThreadStats>,
    /// Completions per channel, in completion order within each channel.
    pub completions: Vec<Vec<Completion>>,
    /// Retained command log per channel (empty when logging is off).
    pub command_logs: Vec<CommandLog>,
    /// Data-bus busy cycles summed across channels.
    pub bus_busy_cycles: u64,
    /// Events still unsubmitted when the run stopped (0 iff the schedule
    /// fully drained within `max_cycles`).
    pub unsubmitted: usize,
    /// Requests abandoned per channel after exhausting the retry policy
    /// (always empty under [`RetryPolicy::immediate`]).
    pub rejected: Vec<Vec<SubmitEvent>>,
    /// Requests terminally dropped per channel by the overload layer's
    /// load shedder (always empty when [`McConfig::overload`] is unset).
    /// Together with completions, fault drops, and rejections these
    /// account for every submitted event:
    /// `completed + dropped + rejected + shed == submitted`.
    pub shed: Vec<Vec<SubmitEvent>>,
    /// Controller cycles actually simulated, summed over channels.
    /// Diagnostic only: differs between fast-forward and reference runs
    /// even though every semantic field is bit-identical.
    pub stepped_cycles: u64,
    /// Provably-inert cycles skipped by event-driven fast-forward, summed
    /// over channels (0 when [`EngineSpec::fast_forward`] is off).
    pub skipped_cycles: u64,
    /// Per-channel event streams and merged metrics, when
    /// [`EngineSpec::event_capacity`] is set. Assembled in channel-index
    /// order, so serial and parallel runs agree bit-for-bit.
    pub observations: Option<Observations>,
}

impl EngineReport {
    /// Total completed requests across channels.
    pub fn total_completed(&self) -> usize {
        self.completions.iter().map(Vec::len).sum()
    }

    /// Total requests abandoned by the retry policy across channels.
    pub fn total_rejected(&self) -> usize {
        self.rejected.iter().map(Vec::len).sum()
    }

    /// Total requests shed by the overload layer across channels.
    pub fn total_shed(&self) -> usize {
        self.shed.iter().map(Vec::len).sum()
    }

    /// Fraction of simulated time covered by skipped cycles (0.0 when
    /// fast-forward is off or the run never idled).
    pub fn skip_rate(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }
}

fn build_shards(spec: &EngineSpec, events: &[SubmitEvent]) -> Result<Vec<ChannelShard>, String> {
    if spec.num_channels == 0 {
        return Err("at least one channel is required".into());
    }
    if spec.epoch_cycles == 0 || spec.max_cycles == 0 {
        return Err("epoch_cycles and max_cycles must be positive".into());
    }
    spec.config.validate()?;
    let mut shards = Vec::with_capacity(spec.num_channels);
    for ch in 0..spec.num_channels {
        let mut mc = MemoryController::new(spec.config.clone(), spec.geometry, spec.timing)?;
        mc.set_id_numbering(ch as u64, spec.num_channels as u64);
        if let Some(cap) = spec.log_capacity {
            mc.enable_command_log(cap);
        }
        if let Some(plan) = &spec.fault_plan {
            mc.set_fault_plan(&plan.salted(ch as u64));
        }
        shards.push(ChannelShard {
            mc,
            port: SubmitPort {
                events: VecDeque::new(),
                retry: spec.retry,
                head_retries: 0,
                head_ready_at: 0,
                rejected: Vec::new(),
                shed: Vec::new(),
            },
            completions: Vec::new(),
            obs: spec
                .event_capacity
                .map(|cap| TracingObserver::new(cap, spec.config.num_threads())),
            fast: spec.fast_forward,
        });
    }
    let mut last_at = 0u64;
    for ev in events {
        if ev.at.as_u64() < last_at {
            return Err("submission schedule must be sorted by cycle".into());
        }
        last_at = ev.at.as_u64();
        let (ch, local) =
            MultiChannelController::localize(spec.config.line_bytes, spec.num_channels, ev.phys);
        shards[ch]
            .port
            .events
            .push_back(SubmitEvent { phys: local, ..*ev });
    }
    Ok(shards)
}

/// Closes every channel at `cycles` and assembles the report in
/// channel-index order.
fn merge(spec: &EngineSpec, mut shards: Vec<ChannelShard>, cycles: u64) -> EngineReport {
    for shard in &mut shards {
        shard.mc.finish(DramCycle::new(cycles));
    }
    let threads = spec.config.num_threads();
    let mut per_thread = vec![ThreadStats::default(); threads];
    let mut completions = Vec::with_capacity(shards.len());
    let mut command_logs = Vec::new();
    let mut bus_busy_cycles = 0;
    let mut unsubmitted = 0;
    let mut rejected = Vec::with_capacity(shards.len());
    let mut shed = Vec::with_capacity(shards.len());
    let mut stepped_cycles = 0;
    let mut skipped_cycles = 0;
    let mut observations = spec.event_capacity.map(|_| Observations::default());
    for shard in shards {
        for (t, agg) in per_thread.iter_mut().enumerate() {
            agg.merge(shard.mc.stats().thread(ThreadId::new(t as u32)));
        }
        bus_busy_cycles += shard.mc.dram().bus_busy_cycles();
        unsubmitted += shard.port.events.len();
        rejected.push(shard.port.rejected);
        shed.push(shard.port.shed);
        stepped_cycles += shard.mc.stepped_cycles();
        skipped_cycles += shard.mc.skipped_cycles();
        if let Some(log) = shard.mc.command_log() {
            command_logs.push(log.clone());
        }
        completions.push(shard.completions);
        if let (Some(merged), Some(obs)) = (&mut observations, shard.obs) {
            // Channel-index order: streams stay separate, metrics merge
            // deterministically.
            let (events, metrics) = obs.into_parts();
            merged.event_streams.push(events);
            merged.metrics.merge(&metrics);
        }
    }
    EngineReport {
        cycles,
        per_thread,
        completions,
        command_logs,
        bus_busy_cycles,
        unsubmitted,
        rejected,
        shed,
        stepped_cycles,
        skipped_cycles,
        observations,
    }
}

fn put_submit_event(w: &mut SectionWriter, ev: &SubmitEvent) {
    w.put_u64(ev.at.as_u64());
    w.put_u32(ev.thread.as_u32());
    w.put_bool(ev.kind == RequestKind::Write);
    w.put_u64(ev.phys);
}

fn get_submit_event(r: &mut SectionReader<'_>) -> Result<SubmitEvent, SnapshotError> {
    Ok(SubmitEvent {
        at: DramCycle::new(r.get_u64()?),
        thread: ThreadId::new(r.get_u32()?),
        kind: if r.get_bool()? {
            RequestKind::Write
        } else {
            RequestKind::Read
        },
        phys: r.get_u64()?,
    })
}

/// The rebuilt port already holds the full pre-routed schedule (it is a
/// pure function of spec + events, both bound by the fingerprint), so the
/// queue serializes as a *remaining count*: restore pops the events the
/// interrupted run had already consumed.
impl Snapshot for SubmitPort {
    fn save(&self, w: &mut SectionWriter) {
        // A bare count, not an in-band sequence: the queue's payload is
        // rebuilt from the schedule, so `seq_len`'s elements-fit-in-
        // remaining-bytes sanity check would misfire whenever the queued
        // count exceeds the section's trailing byte count (dense
        // schedules checkpointed early). Same wire bytes either way.
        w.put_u64(self.events.len() as u64);
        w.put_u32(self.head_retries);
        w.put_u64(self.head_ready_at);
        w.put_seq_len(self.rejected.len());
        for ev in &self.rejected {
            put_submit_event(w, ev);
        }
        w.put_seq_len(self.shed.len());
        for ev in &self.shed {
            put_submit_event(w, ev);
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let remaining = r.get_u64()? as usize;
        if remaining > self.events.len() {
            return Err(r.malformed(format!(
                "{remaining} queued submissions exceed the rebuilt schedule's {}",
                self.events.len()
            )));
        }
        while self.events.len() > remaining {
            self.events.pop_front();
        }
        self.head_retries = r.get_u32()?;
        self.head_ready_at = r.get_u64()?;
        let n = r.seq_len()?;
        let mut rejected = Vec::with_capacity(n);
        for _ in 0..n {
            rejected.push(get_submit_event(r)?);
        }
        self.rejected = rejected;
        let n = r.seq_len()?;
        let mut shed = Vec::with_capacity(n);
        for _ in 0..n {
            shed.push(get_submit_event(r)?);
        }
        self.shed = shed;
        Ok(())
    }
}

impl Snapshot for ChannelShard {
    fn save(&self, w: &mut SectionWriter) {
        self.mc.save(w);
        self.port.save(w);
        w.put_seq_len(self.completions.len());
        for c in &self.completions {
            crate::controller::put_completion(w, c);
        }
        w.put_bool(self.obs.is_some());
        if let Some(obs) = &self.obs {
            obs.save(w);
        }
        w.put_bool(self.fast);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        self.mc.restore(r)?;
        self.port.restore(r)?;
        let n = r.seq_len()?;
        let mut completions = Vec::with_capacity(n);
        for _ in 0..n {
            completions.push(crate::controller::get_completion(r)?);
        }
        self.completions = completions;
        let observed = r.get_bool()?;
        if observed != self.obs.is_some() {
            return Err(
                r.malformed("snapshot and shard disagree on observer attachment".to_string())
            );
        }
        if let Some(obs) = &mut self.obs {
            obs.restore(r)?;
        }
        let fast = r.get_bool()?;
        if fast != self.fast {
            return Err(r.malformed(format!(
                "snapshot fast-forward={fast}, spec fast-forward={}",
                self.fast
            )));
        }
        Ok(())
    }
}

/// Why [`resume_serial`] could not resume a checkpoint.
#[derive(Debug)]
pub enum ResumeError {
    /// The spec or schedule is invalid, or contradicts the checkpoint's
    /// epoch bookkeeping.
    Spec(String),
    /// The checkpoint bytes were rejected by the snapshot codec
    /// (truncation, corruption, version or configuration mismatch, or an
    /// invalid decoded state).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Spec(e) => write!(f, "cannot resume: {e}"),
            ResumeError::Snapshot(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Spec(_) => None,
            ResumeError::Snapshot(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for ResumeError {
    fn from(e: SnapshotError) -> Self {
        ResumeError::Snapshot(e)
    }
}

/// Runs the schedule serially until simulated cycle `kill_at`, captures a
/// checkpoint there, and "crashes" — the differential half of the
/// kill-and-resume guarantee. The kill cycle may fall anywhere, including
/// mid-epoch: the epoch containing it is split at exactly that cycle,
/// which is semantically invisible (each shard's drive loop carries no
/// cross-cycle state beyond what the checkpoint serializes).
///
/// Feeding the returned bytes to [`resume_serial`] with the same spec and
/// events produces an [`EngineReport`] **bit-identical** to the
/// uninterrupted [`simulate_serial`] run.
///
/// # Errors
///
/// Returns a description if the spec/schedule is invalid, `kill_at` is
/// outside `(0, max_cycles]`, or the run drains before reaching it.
pub fn simulate_serial_checkpointed(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    kill_at: u64,
) -> Result<Vec<u8>, String> {
    checkpoint(spec, events, kill_at, 1)
}

/// Serializes a mid-epoch engine checkpoint: the epoch bookkeeping
/// (`kill_at` inside its epoch `(start, end]`, per-shard activity flags
/// from *before* that epoch) followed by every shard in channel order.
/// Shared by the serial and parallel checkpointed runs so both emit the
/// same bytes for the same state.
fn write_checkpoint(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    shards: &[ChannelShard],
    kill_at: u64,
    start: u64,
    end: u64,
    done: &[bool],
) -> Vec<u8> {
    let mut w = SnapshotWriter::new(spec.fingerprint(events));
    w.section("engine", |s| {
        s.put_u64(kill_at);
        s.put_u64(start);
        s.put_u64(end);
        s.put_seq_len(done.len());
        for &d in done {
            s.put_bool(d);
        }
    });
    w.section("channels", |s| {
        s.put_seq_len(shards.len());
        for shard in shards {
            shard.save(s);
        }
    });
    w.into_bytes()
}

/// Validates and decodes a checkpoint back into restored shards plus the
/// epoch bookkeeping (`kill_at`, interrupted epoch end, activity flags).
/// Shared by [`resume_serial`] and [`resume_parallel`].
fn restore_checkpoint(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    bytes: &[u8],
) -> Result<(Vec<ChannelShard>, u64, u64, Vec<bool>), ResumeError> {
    let mut shards = build_shards(spec, events).map_err(ResumeError::Spec)?;
    let mut r = SnapshotReader::new(bytes, spec.fingerprint(events))?;
    let (kill_at, _epoch_start, epoch_end, done) = r.section("engine", |s| {
        let kill_at = s.get_u64()?;
        let epoch_start = s.get_u64()?;
        let epoch_end = s.get_u64()?;
        if !(epoch_start < kill_at && kill_at <= epoch_end) {
            return Err(s.malformed(format!(
                "kill cycle {kill_at} outside its epoch ({epoch_start}, {epoch_end}]"
            )));
        }
        if epoch_end > spec.max_cycles {
            return Err(s.malformed(format!(
                "epoch end {epoch_end} beyond max_cycles {}",
                spec.max_cycles
            )));
        }
        let n = s.seq_len()?;
        let mut done = Vec::with_capacity(n);
        for _ in 0..n {
            done.push(s.get_bool()?);
        }
        Ok((kill_at, epoch_start, epoch_end, done))
    })?;
    if done.len() != shards.len() {
        return Err(ResumeError::Spec(format!(
            "checkpoint tracks {} shards, spec builds {}",
            done.len(),
            shards.len()
        )));
    }
    r.section("channels", |s| {
        let n = s.seq_len()?;
        if n != shards.len() {
            return Err(s.malformed(format!(
                "checkpoint holds {n} channels, spec builds {}",
                shards.len()
            )));
        }
        for shard in &mut shards {
            shard.restore(s)?;
        }
        Ok(())
    })?;
    r.finish()?;
    Ok((shards, kill_at, epoch_end, done))
}

/// Resumes a run from a [`simulate_serial_checkpointed`] checkpoint and
/// drives it to completion, finishing the interrupted epoch from the kill
/// cycle and then continuing the standard epoch loop.
///
/// Resumption is exact: a shard's epoch activity flag is evaluated at the
/// epoch's true end, and shard idleness is monotone within an epoch (the
/// port is pre-routed; no new work can arrive), so the flags the resumed
/// run computes are the ones the uninterrupted run would have.
///
/// # Errors
///
/// [`ResumeError::Spec`] if the spec/schedule is invalid or the decoded
/// epoch bookkeeping contradicts it; [`ResumeError::Snapshot`] if the
/// bytes are truncated, corrupted, from another format version, or from a
/// different spec/workload (fingerprint mismatch). Never panics.
pub fn resume_serial(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    bytes: &[u8],
) -> Result<EngineReport, ResumeError> {
    resume(spec, events, bytes, 1)
}

/// Runs the schedule on the calling thread, one channel after another per
/// epoch. Reference semantics for [`simulate_parallel`].
///
/// # Errors
///
/// Returns a description if the spec is invalid or the schedule is not
/// sorted by cycle.
pub fn simulate_serial(spec: &EngineSpec, events: &[SubmitEvent]) -> Result<EngineReport, String> {
    simulate(spec, events, 1)
}

/// Runs the schedule with channels sharded across `num_threads` workers.
/// Bit-identical to [`simulate_serial`] on the same inputs (see the
/// module docs for why).
///
/// # Errors
///
/// Returns a description if the spec is invalid, the schedule is not
/// sorted by cycle, or `num_threads` is zero.
pub fn simulate_parallel(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    num_threads: usize,
) -> Result<EngineReport, String> {
    simulate(spec, events, num_threads)
}

/// [`simulate_serial_checkpointed`] with the per-shard work spread across
/// `num_threads` workers. Each shard free-runs through the same epoch
/// windows the serial checkpointed run uses — full epochs up to the one
/// containing `kill_at`, then the partial window ending exactly there —
/// so the returned bytes are **byte-identical** to the serial
/// checkpoint's: shard states match window-for-window, activity flags are
/// evaluated at the same boundaries, and the snapshot is assembled in
/// channel order after all workers join (the only sync point).
///
/// # Errors
///
/// Same conditions as [`simulate_serial_checkpointed`], plus
/// `num_threads == 0`.
pub fn simulate_parallel_checkpointed(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    kill_at: u64,
    num_threads: usize,
) -> Result<Vec<u8>, String> {
    checkpoint(spec, events, kill_at, num_threads)
}

/// Resumes a checkpoint (from either the serial or the parallel
/// checkpointed run — the bytes are identical) with the remaining work
/// spread across `num_threads` workers, producing an [`EngineReport`]
/// **bit-identical** to the uninterrupted [`simulate_serial`] run.
///
/// # Errors
///
/// Same conditions as [`resume_serial`], plus [`ResumeError::Spec`] if
/// `num_threads` is zero.
pub fn resume_parallel(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    bytes: &[u8],
    num_threads: usize,
) -> Result<EngineReport, ResumeError> {
    resume(spec, events, bytes, num_threads)
}

const NO_WORKERS: &str = "at least one worker thread is required";

/// The one executor call behind every engine run: shard `i` runs
/// `first[i]`, then whole epochs up to `horizon`. One worker advances a
/// shard one epoch per claim, so the queue walks shards round-robin in
/// the serial run's epoch-major order; more workers use the stealing
/// quantum.
fn execute(
    spec: &EngineSpec,
    shards: &mut [ChannelShard],
    first: &[Option<(u64, u64)>],
    horizon: u64,
    workers: usize,
) -> FreeRunReport {
    let quantum = if workers == 1 {
        1
    } else {
        STEAL_QUANTUM_EPOCHS
    };
    run_windows(shards, first, horizon, spec.epoch_cycles, workers, quantum)
}

/// A fresh run to `max_cycles`; it ends at the last epoch end any shard
/// reached.
fn simulate(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    workers: usize,
) -> Result<EngineReport, String> {
    if workers == 0 {
        return Err(NO_WORKERS.into());
    }
    let mut shards = build_shards(spec, events)?;
    let first = vec![Some((0, spec.epoch_cycles.min(spec.max_cycles))); shards.len()];
    let cycles = execute(spec, &mut shards, &first, spec.max_cycles, workers).reached;
    Ok(merge(spec, shards, cycles))
}

/// A fresh run cut at `kill_at`. A shard counts as drained only if it
/// drained before the kill epoch: drainage inside that epoch is decided
/// at the epoch's true end, which the resume reaches.
fn checkpoint(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    kill_at: u64,
    workers: usize,
) -> Result<Vec<u8>, String> {
    if workers == 0 {
        return Err(NO_WORKERS.into());
    }
    if kill_at == 0 || kill_at > spec.max_cycles {
        return Err(format!(
            "kill cycle {kill_at} outside (0, {}]",
            spec.max_cycles
        ));
    }
    let mut shards = build_shards(spec, events)?;
    let first = vec![Some((0, spec.epoch_cycles.min(kill_at))); shards.len()];
    let run = execute(spec, &mut shards, &first, kill_at, workers);
    let done: Vec<bool> = run
        .shards
        .iter()
        .map(|&(reached, drained)| drained && reached < kill_at)
        .collect();
    if done.iter().all(|&d| d) {
        return Err(format!(
            "run drained at cycle {}, before kill cycle {kill_at}",
            run.reached
        ));
    }
    let epoch_start = (kill_at - 1) / spec.epoch_cycles * spec.epoch_cycles;
    let epoch_end = spec.max_cycles.min(epoch_start + spec.epoch_cycles);
    Ok(write_checkpoint(
        spec,
        events,
        &shards,
        kill_at,
        epoch_start,
        epoch_end,
        &done,
    ))
}

/// Resumes a checkpoint: each live shard finishes its interrupted epoch
/// `(kill_at, epoch_end]` (empty when the kill fell on the epoch end) and
/// then runs whole epochs to its own drain or `max_cycles`.
fn resume(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    bytes: &[u8],
    workers: usize,
) -> Result<EngineReport, ResumeError> {
    if workers == 0 {
        return Err(ResumeError::Spec(NO_WORKERS.into()));
    }
    let (mut shards, kill_at, epoch_end, done) = restore_checkpoint(spec, events, bytes)?;
    let first: Vec<_> = done
        .iter()
        .map(|&d| (!d).then_some((kill_at, epoch_end)))
        .collect();
    let run = execute(spec, &mut shards, &first, spec.max_cycles, workers);
    Ok(merge(spec, shards, epoch_end.max(run.reached)))
}

/// Generates a deterministic open-loop submission schedule: each of
/// `num_threads` threads issues a request per cycle with probability
/// `intensity` (30% writes), to uniformly random cache lines. Events are
/// emitted in non-decreasing cycle order, as the engine requires.
pub fn synthetic_workload(
    num_threads: u32,
    cycles: u64,
    intensity: f64,
    seed: u64,
) -> Vec<SubmitEvent> {
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    for c in 1..=cycles {
        for t in 0..num_threads {
            if rng.chance(intensity) {
                let kind = if rng.chance(0.3) {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                events.push(SubmitEvent {
                    at: DramCycle::new(c),
                    thread: ThreadId::new(t),
                    kind,
                    phys: rng.next_below(1 << 24) * 64,
                });
            }
        }
    }
    events
}

/// Generates a deterministic interference mix for QoS experiments: thread
/// 0 is a light, read-only, small-footprint "QoS" thread (high row
/// locality, `qos_intensity` requests per cycle), while threads `1..` are
/// heavy streamers (`heavy_intensity`, 30% writes, uniform over a large
/// footprint) that monopolize an unfair scheduler. Events are emitted in
/// non-decreasing cycle order, as the engine requires.
pub fn interference_workload(
    num_threads: u32,
    cycles: u64,
    qos_intensity: f64,
    heavy_intensity: f64,
    seed: u64,
) -> Vec<SubmitEvent> {
    assert!(num_threads >= 2, "need a QoS thread and an aggressor");
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    for c in 1..=cycles {
        for t in 0..num_threads {
            if t == 0 {
                if rng.chance(qos_intensity) {
                    events.push(SubmitEvent {
                        at: DramCycle::new(c),
                        thread: ThreadId::new(0),
                        kind: RequestKind::Read,
                        // Small footprint: 64 KiB of lines, high reuse.
                        phys: rng.next_below(1 << 10) * 64,
                    });
                }
            } else if rng.chance(heavy_intensity) {
                let kind = if rng.chance(0.3) {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                events.push(SubmitEvent {
                    at: DramCycle::new(c),
                    thread: ThreadId::new(t),
                    kind,
                    phys: rng.next_below(1 << 24) * 64,
                });
            }
        }
    }
    events
}

/// Generates a deterministic *starvation-adversarial* schedule for
/// differential QoS tests: threads `1..num_threads` stream row-buffer
/// hits into a small set of shared banks at high intensity (each
/// aggressor camps on one row of one bank), while thread 0 — the victim —
/// occasionally reads a *different* row of the same banks. Under FR-FCFS
/// the aggressors' ready CAS commands chain ahead of the victim's row
/// miss indefinitely; FQ-VFTF's priority-inversion bound (`x = tRAS`)
/// caps the chaining and bounds the victim's delay.
///
/// Addresses are encoded for `geometry` with 64-byte lines. Intended for
/// single-channel engine specs (multi-channel routing would scatter the
/// carefully aimed bank conflicts).
pub fn adversarial_workload(
    geometry: &Geometry,
    num_threads: u32,
    cycles: u64,
    seed: u64,
) -> Vec<SubmitEvent> {
    assert!(num_threads >= 2, "need a victim and at least one aggressor");
    let map = AddressMap::new(*geometry, 64);
    let shared_banks = geometry.banks.min(2);
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    let mut agg_col = vec![0u32; num_threads as usize];
    let mut victim_col = 0u32;
    for c in 1..=cycles {
        for t in 0..num_threads {
            if t == 0 {
                // Victim: sparse reads to a row the aggressors never open.
                if rng.chance(0.02) {
                    let bank = victim_col % shared_banks;
                    events.push(SubmitEvent {
                        at: DramCycle::new(c),
                        thread: ThreadId::new(0),
                        kind: RequestKind::Read,
                        phys: map.encode(DramAddress {
                            rank: RankId::new(0),
                            bank: BankId::new(bank),
                            row: RowId::new(997),
                            col: ColId::new(victim_col % 64),
                        }),
                    });
                    victim_col = victim_col.wrapping_add(1);
                }
            } else if rng.chance(0.9) {
                // Aggressor: march columns across one hot row of one bank
                // so a ready CAS is (almost) always available.
                let bank = (t - 1) % shared_banks;
                let col = agg_col[t as usize];
                events.push(SubmitEvent {
                    at: DramCycle::new(c),
                    thread: ThreadId::new(t),
                    kind: RequestKind::Read,
                    phys: map.encode(DramAddress {
                        rank: RankId::new(0),
                        bank: BankId::new(bank),
                        row: RowId::new(100 + bank),
                        col: ColId::new(col % 64),
                    }),
                });
                agg_col[t as usize] = col.wrapping_add(1);
            }
        }
    }
    events
}

/// Generates a deterministic *regulated* schedule for real-time mode
/// (ISSUE 9): each thread with an `rt` class in `reg` submits at most its
/// per-period `budget` requests per regulator window (front-loaded,
/// row-local reads over a small footprint — the arrival curve the WCET
/// bound of [`crate::wcet::bound_for`] assumes), while best-effort
/// threads flood at `be_intensity` with a bank-camping access pattern
/// (30% writes). Under [`McConfig::regulation`] with partitioning the
/// controller folds every address into the issuing thread's bank slice,
/// so the camping pressure lands on the shared bus and rank-wide timing
/// windows — exactly the interference the analytic bound charges for.
/// Events are emitted in non-decreasing cycle order, as the engine
/// requires.
pub fn realtime_workload(
    reg: &crate::config::RegulationConfig,
    num_threads: u32,
    cycles: u64,
    be_intensity: f64,
    seed: u64,
) -> Vec<SubmitEvent> {
    let period = reg.period.max(1);
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    // Requests submitted by each RT thread in the current window.
    let mut window_used = vec![0u64; num_threads as usize];
    let mut window = u64::MAX;
    let mut be_col = vec![0u64; num_threads as usize];
    for c in 1..=cycles {
        let w = (c - 1) / period;
        if w != window {
            window = w;
            window_used.fill(0);
        }
        for t in 0..num_threads {
            let class = reg.classes.get(t as usize);
            let rt = class.is_some_and(|cl| cl.rt);
            if rt {
                let budget = class.map_or(0, |cl| cl.budget);
                if window_used[t as usize] >= budget {
                    continue;
                }
                // Front-load the window (4x the uniform rate, capped by
                // the budget check above) so the backlog the bound's
                // `period` term covers is actually exercised.
                let p = (4.0 * budget as f64 / period as f64).min(1.0);
                if rng.chance(p) {
                    window_used[t as usize] += 1;
                    // Small row-local footprint: 64 lines per thread.
                    let phys = (u64::from(t) << 20) | (rng.next_below(64) * 64);
                    events.push(SubmitEvent {
                        at: DramCycle::new(c),
                        thread: ThreadId::new(t),
                        kind: RequestKind::Read,
                        phys,
                    });
                }
            } else if rng.chance(be_intensity) {
                // Best-effort aggressor: camp on one hot region, marching
                // columns so a ready CAS is almost always available.
                let kind = if rng.chance(0.3) {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                let col = be_col[t as usize];
                be_col[t as usize] = col.wrapping_add(1);
                let phys = (u64::from(t) << 20) | ((col % 64) * 64);
                events.push(SubmitEvent {
                    at: DramCycle::new(c),
                    thread: ThreadId::new(t),
                    kind,
                    phys,
                });
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(channels: usize, threads: usize) -> EngineSpec {
        let mut spec = EngineSpec::paper(channels, threads);
        spec.epoch_cycles = 128;
        spec.log_capacity = Some(100_000);
        spec
    }

    #[test]
    fn serial_and_parallel_reports_are_identical() {
        let spec = small_spec(4, 4);
        let events = synthetic_workload(4, 3_000, 0.4, 7);
        let serial = simulate_serial(&spec, &events).unwrap();
        for threads in [2, 3, 4, 8] {
            let parallel = simulate_parallel(&spec, &events, threads).unwrap();
            assert_eq!(serial, parallel, "{threads} worker threads diverged");
        }
    }

    #[test]
    fn schedule_fully_drains_and_conserves_requests() {
        let spec = small_spec(2, 2);
        let events = synthetic_workload(2, 2_000, 0.3, 11);
        let report = simulate_serial(&spec, &events).unwrap();
        assert_eq!(report.unsubmitted, 0);
        assert_eq!(report.total_completed(), events.len());
        let completed: u64 = report
            .per_thread
            .iter()
            .map(|s| s.reads_completed + s.writes_completed)
            .sum();
        assert_eq!(completed as usize, events.len());
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let spec = small_spec(3, 2);
        let events = synthetic_workload(2, 1_500, 0.5, 13);
        let a = simulate_parallel(&spec, &events, 3).unwrap();
        let b = simulate_parallel(&spec, &events, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn epoch_length_does_not_change_workload_results() {
        // The stop cycle is epoch-aligned, and an idle controller keeps
        // issuing unowned commands (closed-row precharges, refresh), so
        // the command-log *tail* legitimately depends on the epoch
        // length. Everything the workload determines — per-thread stats
        // and completions — must not.
        let mut spec = small_spec(2, 2);
        let events = synthetic_workload(2, 1_000, 0.4, 17);
        let baseline = simulate_serial(&spec, &events).unwrap();
        for epoch in [1, 7, 64, 4096] {
            spec.epoch_cycles = epoch;
            let report = simulate_parallel(&spec, &events, 2).unwrap();
            assert_eq!(
                (&report.per_thread, &report.completions),
                (&baseline.per_thread, &baseline.completions),
                "epoch {epoch} changed simulation results"
            );
        }
    }

    #[test]
    fn observed_run_matches_unobserved_simulation() {
        // Attaching observers must not perturb the simulation: every
        // non-observational report field is bit-identical.
        let mut spec = small_spec(2, 2);
        let events = synthetic_workload(2, 1_500, 0.4, 19);
        let plain = simulate_serial(&spec, &events).unwrap();
        spec.event_capacity = Some(1 << 20);
        let observed = simulate_serial(&spec, &events).unwrap();
        assert!(plain.observations.is_none());
        let obs = observed.observations.as_ref().unwrap();
        assert_eq!(plain.per_thread, observed.per_thread);
        assert_eq!(plain.completions, observed.completions);
        assert_eq!(plain.command_logs, observed.command_logs);
        assert_eq!(plain.cycles, observed.cycles);
        // The event stream is consistent with the report: completion
        // counts agree per thread.
        for (t, stats) in observed.per_thread.iter().enumerate() {
            let sink = obs.metrics.thread(t as u32);
            assert_eq!(sink.reads_completed, stats.reads_completed);
            assert_eq!(sink.writes_completed, stats.writes_completed);
            assert_eq!(sink.nacks, stats.nacks);
        }
        assert_eq!(obs.event_streams.len(), spec.num_channels);
        assert!(obs.total_events() > 0);
    }

    #[test]
    fn observed_serial_and_parallel_streams_are_bit_identical() {
        let mut spec = small_spec(3, 3);
        spec.event_capacity = Some(1 << 20);
        let events = synthetic_workload(3, 2_000, 0.4, 29);
        let serial = simulate_serial(&spec, &events).unwrap();
        for threads in [2, 3, 5] {
            let parallel = simulate_parallel(&spec, &events, threads).unwrap();
            assert_eq!(serial, parallel, "{threads} workers diverged");
        }
    }

    #[test]
    fn interference_workload_shapes_traffic() {
        let events = interference_workload(3, 2_000, 0.05, 0.5, 31);
        let qos: Vec<_> = events
            .iter()
            .filter(|e| e.thread == ThreadId::new(0))
            .collect();
        let heavy = events.len() - qos.len();
        assert!(!qos.is_empty());
        assert!(heavy > qos.len() * 3, "{heavy} vs {}", qos.len());
        assert!(qos.iter().all(|e| e.kind == RequestKind::Read));
        assert!(qos.iter().all(|e| e.phys < (1 << 10) * 64));
        // Sorted by cycle, as the engine requires.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn realtime_workload_respects_budgets() {
        use crate::config::RegulationConfig;
        let reg = RegulationConfig::new(400)
            .rt_class(4, None)
            .rt_class(2, None)
            .best_effort()
            .best_effort();
        let events = realtime_workload(&reg, 4, 4_000, 0.8, 47);
        // Sorted by cycle, as the engine requires.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        // Each RT thread never exceeds its budget in any regulator window.
        for (t, budget) in [(0u32, 4u64), (1, 2)] {
            for w in 0..10 {
                let in_window = events
                    .iter()
                    .filter(|e| e.thread == ThreadId::new(t) && (e.at.as_u64() - 1) / 400 == w)
                    .count() as u64;
                assert!(
                    in_window <= budget,
                    "thread {t} submitted {in_window} > budget {budget} in window {w}"
                );
            }
        }
        // RT traffic is read-only; best-effort floods far harder.
        let rt: Vec<_> = events.iter().filter(|e| e.thread.as_u32() < 2).collect();
        let be = events.len() - rt.len();
        assert!(rt.iter().all(|e| e.kind == RequestKind::Read));
        assert!(!rt.is_empty());
        assert!(be > rt.len() * 10, "{be} vs {}", rt.len());
    }

    #[test]
    fn unsorted_schedule_rejected() {
        let spec = small_spec(1, 1);
        let events = vec![
            SubmitEvent {
                at: DramCycle::new(10),
                thread: ThreadId::new(0),
                kind: RequestKind::Read,
                phys: 0,
            },
            SubmitEvent {
                at: DramCycle::new(5),
                thread: ThreadId::new(0),
                kind: RequestKind::Read,
                phys: 64,
            },
        ];
        assert!(simulate_serial(&spec, &events).is_err());
    }

    #[test]
    fn invalid_specs_rejected() {
        let events = synthetic_workload(1, 10, 0.5, 1);
        let mut spec = small_spec(0, 1);
        assert!(simulate_serial(&spec, &events).is_err());
        spec = small_spec(1, 1);
        spec.epoch_cycles = 0;
        assert!(simulate_serial(&spec, &events).is_err());
        spec = small_spec(1, 1);
        assert!(simulate_parallel(&spec, &events, 0).is_err());
    }

    #[test]
    fn max_cycles_bounds_runaway_schedules() {
        let mut spec = small_spec(1, 1);
        spec.max_cycles = 256;
        // A schedule far too dense to finish in 256 cycles.
        let events = synthetic_workload(1, 10_000, 1.0, 3);
        let report = simulate_serial(&spec, &events).unwrap();
        assert_eq!(report.cycles, 256);
        assert!(report.unsubmitted > 0);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let mut spec = small_spec(2, 2);
        spec.event_capacity = Some(1 << 16);
        let events = synthetic_workload(2, 1_500, 0.4, 41);
        let reference = simulate_serial(&spec, &events).unwrap();
        // Kill points cover mid-epoch, epoch boundaries (epoch = 128),
        // the first cycle, and the tail of the schedule.
        for kill_at in [1, 100, 128, 129, 777, 1_500] {
            let bytes = simulate_serial_checkpointed(&spec, &events, kill_at).unwrap();
            let resumed = resume_serial(&spec, &events, &bytes).unwrap();
            assert_eq!(resumed.cycles, reference.cycles, "kill {kill_at}: cycles");
            assert_eq!(
                resumed.per_thread, reference.per_thread,
                "kill {kill_at}: per_thread"
            );
            assert_eq!(
                resumed.completions, reference.completions,
                "kill {kill_at}: completions"
            );
            assert_eq!(
                resumed.command_logs, reference.command_logs,
                "kill {kill_at}: logs"
            );
            assert_eq!(
                resumed.unsubmitted, reference.unsubmitted,
                "kill {kill_at}: unsubmitted"
            );
            assert_eq!(
                resumed.rejected, reference.rejected,
                "kill {kill_at}: rejected"
            );
            assert_eq!(resumed.shed, reference.shed, "kill {kill_at}: shed");
            assert_eq!(
                resumed.stepped_cycles, reference.stepped_cycles,
                "kill {kill_at}: stepped"
            );
            assert_eq!(
                resumed.skipped_cycles, reference.skipped_cycles,
                "kill {kill_at}: skipped"
            );
            assert_eq!(
                resumed.observations, reference.observations,
                "kill {kill_at}: observations"
            );
            assert_eq!(resumed, reference, "kill at {kill_at} diverged");
        }
    }

    #[test]
    fn resume_rejects_wrong_workload_and_truncation() {
        let spec = small_spec(2, 2);
        let events = synthetic_workload(2, 800, 0.3, 43);
        let bytes = simulate_serial_checkpointed(&spec, &events, 500).unwrap();
        // A different workload changes the fingerprint: typed rejection.
        let other = synthetic_workload(2, 800, 0.3, 44);
        assert!(matches!(
            resume_serial(&spec, &other, &bytes),
            Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
        ));
        // A different spec too.
        let mut wrong = spec.clone();
        wrong.config.scheduler = SchedulerKind::FrFcfs;
        assert!(matches!(
            resume_serial(&wrong, &events, &bytes),
            Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
        ));
        // Truncated bytes: typed error, never a panic.
        assert!(matches!(
            resume_serial(&spec, &events, &bytes[..bytes.len() / 2]),
            Err(ResumeError::Snapshot(_))
        ));
        // Unreachable kill cycles are refused up front.
        assert!(simulate_serial_checkpointed(&spec, &events, 0).is_err());
        assert!(simulate_serial_checkpointed(&spec, &events, spec.max_cycles + 1).is_err());
    }

    #[test]
    fn engine_matches_multichannel_controller() {
        // The engine's per-channel submission policy mirrors driving a
        // MultiChannelController with the same head-of-line retry loop;
        // with NACK-free load the completions must agree exactly.
        let spec = small_spec(2, 2);
        let events = synthetic_workload(2, 800, 0.1, 23);
        let report = simulate_serial(&spec, &events).unwrap();

        let mut m = MultiChannelController::new(
            spec.num_channels,
            spec.config.clone(),
            spec.geometry,
            spec.timing,
        )
        .unwrap();
        let mut queue: VecDeque<SubmitEvent> = events.iter().copied().collect();
        let mut done: Vec<Completion> = Vec::new();
        let mut c = 0u64;
        while (!queue.is_empty() || !m.is_idle()) && c < spec.max_cycles {
            c += 1;
            let now = DramCycle::new(c);
            while let Some(ev) = queue.front() {
                if ev.at.as_u64() > c {
                    break;
                }
                let ev = *ev;
                if m.try_submit(ev.thread, ev.kind, ev.phys, now).is_ok() {
                    queue.pop_front();
                } else {
                    break;
                }
            }
            done.extend(m.step(now));
        }
        let mut engine_done: Vec<Completion> =
            report.completions.iter().flatten().copied().collect();
        let key = |x: &Completion| (x.finish, x.id);
        engine_done.sort_by_key(key);
        done.sort_by_key(key);
        assert_eq!(engine_done, done);
    }
}

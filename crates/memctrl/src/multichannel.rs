//! Multi-channel memory systems — the paper's stated future work ("In
//! this work we focus on single channel memory systems and leave
//! multi-channel memory systems for future work").
//!
//! The natural extension of the VTMS model to `N` channels keeps one
//! virtual channel resource per physical channel: each channel gets its
//! own bank/channel schedulers and its own per-thread VTMS registers, and
//! physical addresses are interleaved across channels at cache-line
//! granularity. [`MultiChannelController`] composes `N` independent
//! [`MemoryController`]s accordingly:
//!
//! * line-interleaved routing — line `L` goes to channel `L mod N`, so a
//!   sequential stream spreads across all channels,
//! * per-thread buffers are partitioned per channel (each channel's
//!   controller keeps the paper's per-thread partition; total buffering
//!   scales with the channel count, as it would in hardware),
//! * statistics aggregate across channels.

use crate::buffers::Nack;
use crate::config::McConfig;
use crate::controller::{Completion, MemoryController};
use crate::request::{RequestId, RequestKind, ThreadId};
use crate::stats::ThreadStats;
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_obs::{EventRing, MetricsSink, NullObserver, TracingObserver};
use fqms_sim::clock::{DramCycle, NextEvent};
use fqms_sim::fault::FaultPlan;
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// A memory system with `N` line-interleaved channels, each with its own
/// scheduler and VTMS state.
///
/// # Example
///
/// ```
/// use fqms_memctrl::multichannel::MultiChannelController;
/// use fqms_memctrl::prelude::*;
/// use fqms_dram::prelude::*;
/// use fqms_sim::clock::DramCycle;
///
/// let cfg = McConfig::paper(2, SchedulerKind::FqVftf);
/// let mut mc = MultiChannelController::new(
///     2, cfg, Geometry::paper(), TimingParams::ddr2_800(),
/// ).unwrap();
/// mc.try_submit(ThreadId::new(0), RequestKind::Read, 0x0, DramCycle::new(0)).unwrap();
/// mc.try_submit(ThreadId::new(0), RequestKind::Read, 0x40, DramCycle::new(0)).unwrap();
/// let mut done = 0;
/// for c in 1..200u64 {
///     done += mc.step(DramCycle::new(c)).len();
/// }
/// assert_eq!(done, 2);
/// ```
#[derive(Debug, Clone)]
pub struct MultiChannelController {
    channels: Vec<MemoryController>,
    line_bytes: u64,
    /// One observer per channel when observation is enabled (index-aligned
    /// with `channels`); empty ⇒ unobserved, zero-overhead dispatch.
    observers: Vec<TracingObserver>,
}

impl MultiChannelController {
    /// Builds a controller with `num_channels` identical channels.
    ///
    /// # Errors
    ///
    /// Returns a description if `num_channels` is zero or the underlying
    /// configuration is invalid.
    pub fn new(
        num_channels: usize,
        config: McConfig,
        geometry: Geometry,
        timing: TimingParams,
    ) -> Result<Self, String> {
        if num_channels == 0 {
            return Err("at least one channel is required".into());
        }
        let line_bytes = config.line_bytes;
        let mut channels = (0..num_channels)
            .map(|_| MemoryController::new(config.clone(), geometry, timing))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, ch) in channels.iter_mut().enumerate() {
            // Disjoint request-id spaces keep ids unique system-wide.
            ch.set_id_numbering(i as u64, num_channels as u64);
        }
        Ok(MultiChannelController {
            channels,
            line_bytes,
            observers: Vec::new(),
        })
    }

    /// Attaches a [`TracingObserver`] to every channel, each retaining up
    /// to `event_capacity` events. Until this is called, submission and
    /// stepping dispatch through the no-op observer and compile to the
    /// unobserved code (zero overhead).
    pub fn enable_observation(&mut self, event_capacity: usize) {
        let threads = self.channels[0].config().num_threads();
        self.observers = (0..self.channels.len())
            .map(|_| TracingObserver::new(event_capacity, threads))
            .collect();
    }

    /// True if [`MultiChannelController::enable_observation`] was called.
    pub fn is_observed(&self) -> bool {
        !self.observers.is_empty()
    }

    /// One channel's retained event stream (None when unobserved).
    pub fn event_stream(&self, channel: usize) -> Option<&EventRing> {
        self.observers.get(channel).map(TracingObserver::events)
    }

    /// Metrics merged across channels in channel-index order (None when
    /// unobserved). The merge order is fixed, so the result is
    /// deterministic and matches the sharded engine's merge.
    pub fn merged_metrics(&self) -> Option<MetricsSink> {
        if self.observers.is_empty() {
            return None;
        }
        let mut merged = MetricsSink::new(self.channels[0].config().num_threads());
        for obs in &self.observers {
            merged.merge(obs.metrics());
        }
        Some(merged)
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// One channel's controller (for inspection).
    pub fn channel(&self, idx: usize) -> &MemoryController {
        &self.channels[idx]
    }

    /// The channel a physical address routes to (line interleaving).
    pub fn route(&self, phys: u64) -> usize {
        ((phys / self.line_bytes) % self.channels.len() as u64) as usize
    }

    /// Routes and localizes a physical address: the channel it belongs to
    /// and the dense channel-local address (channel bits stripped). This
    /// is the exact math [`MultiChannelController::try_submit`] applies,
    /// exposed so sharded engines can pre-route submission schedules.
    pub fn localize(line_bytes: u64, num_channels: usize, phys: u64) -> (usize, u64) {
        if num_channels == 1 {
            return (0, phys);
        }
        let line = phys / line_bytes;
        let ch = (line % num_channels as u64) as usize;
        let local = (line / num_channels as u64) * line_bytes + phys % line_bytes;
        (ch, local)
    }

    /// Attaches a deterministic fault plan, salted per channel so channels
    /// draw independent episode timelines from the same plan (matching the
    /// sharded engine's per-channel salting). Must be called before the
    /// first step; an empty plan leaves every channel unfaulted.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (ch, mc) in self.channels.iter_mut().enumerate() {
            mc.set_fault_plan(&plan.salted(ch as u64));
        }
    }

    /// Enables command-trace logging on every channel, each retaining the
    /// most recent `capacity` issued commands.
    pub fn enable_command_log(&mut self, capacity: usize) {
        for ch in &mut self.channels {
            ch.enable_command_log(capacity);
        }
    }

    /// True if the routing channel would admit this request.
    pub fn can_accept(&self, thread: ThreadId, kind: RequestKind, phys: u64) -> bool {
        self.channels[self.route(phys)].can_accept(thread, kind)
    }

    /// Submits a request to its channel.
    ///
    /// # Errors
    ///
    /// Returns the channel's [`Nack`] when that channel's per-thread
    /// partition is full.
    pub fn try_submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack> {
        // Strip the channel bits so each channel sees a dense address
        // space (otherwise only 1/N of each channel's rows are used).
        let (ch, local) = Self::localize(self.line_bytes, self.channels.len(), phys);
        match self.observers.get_mut(ch) {
            Some(obs) => self.channels[ch].try_submit_observed(thread, kind, local, now, obs),
            None => self.channels[ch].try_submit(thread, kind, local, now),
        }
    }

    /// [`MemoryPort::resubmit_refused`](crate::port::MemoryPort::resubmit_refused)
    /// on the routing channel, through its observer when one is attached
    /// (see [`MemoryController::resubmit_refused_observed`]).
    pub fn resubmit_refused(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
        n: u64,
    ) {
        let (ch, local) = Self::localize(self.line_bytes, self.channels.len(), phys);
        match self.observers.get_mut(ch) {
            Some(obs) => {
                self.channels[ch].resubmit_refused_observed(thread, kind, local, now, n, obs)
            }
            None => self.channels[ch].resubmit_refused_observed(
                thread,
                kind,
                local,
                now,
                n,
                &mut NullObserver,
            ),
        }
    }

    /// Advances every channel by one DRAM cycle (channels are independent
    /// resources and may each issue one command per cycle).
    pub fn step(&mut self, now: DramCycle) -> Vec<Completion> {
        let mut out = Vec::new();
        if self.observers.is_empty() {
            for ch in &mut self.channels {
                out.extend(ch.step(now));
            }
        } else {
            for (ch, obs) in self.channels.iter_mut().zip(&mut self.observers) {
                out.extend(ch.step_observed(now, obs));
            }
        }
        out
    }

    /// Allocation-free [`MultiChannelController::step`]: appends every
    /// channel's completions (in channel order) to `out`, and reports
    /// whether any channel issued a command.
    pub fn step_into(&mut self, now: DramCycle, out: &mut Vec<Completion>) -> bool {
        let mut issued = false;
        if self.observers.is_empty() {
            for ch in &mut self.channels {
                issued |= ch.step_into(now, out, &mut NullObserver);
            }
        } else {
            for (ch, obs) in self.channels.iter_mut().zip(&mut self.observers) {
                issued |= ch.step_into(now, out, obs);
            }
        }
        issued
    }

    /// Earliest strictly-future cycle at which *any* channel has a
    /// scheduled event (see [`MemoryController::next_event_cycle`]).
    pub fn next_event_cycle(&self, now: DramCycle) -> DramCycle {
        let mut ev = NextEvent::after(now);
        for ch in &self.channels {
            ev.consider(ch.next_event_cycle(now));
        }
        ev.earliest()
    }

    /// Accounts cycles `(last, to]` as fast-forwarded on every channel,
    /// where `last` is the cycle of the last step: the caller has shown
    /// them inert (no submit is admitted and, `last` being quiescent,
    /// `to` is before [`MultiChannelController::next_event_cycle`]).
    pub fn skip_until(&mut self, to: DramCycle) {
        for ch in &mut self.channels {
            ch.skip_until(to);
        }
    }

    /// Controller cycles actually simulated, summed over channels.
    pub fn stepped_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.stepped_cycles()).sum()
    }

    /// Cycles fast-forwarded without simulation, summed over channels.
    pub fn skipped_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.skipped_cycles()).sum()
    }

    /// Finalizes utilization statistics on every channel.
    pub fn finish(&mut self, now: DramCycle) {
        for ch in &mut self.channels {
            ch.finish(now);
        }
    }

    /// Total pending requests across channels.
    pub fn pending_requests(&self) -> usize {
        self.channels.iter().map(|c| c.pending_requests()).sum()
    }

    /// True if no channel holds work.
    pub fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    /// Aggregate data-bus busy cycles (sum over channels; divide by
    /// `num_channels * elapsed` for mean utilization).
    pub fn bus_busy_cycles(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.dram().bus_busy_cycles())
            .sum()
    }

    /// Aggregate bank-busy cycles (sum over channels and banks).
    pub fn bank_busy_cycles(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.dram().bank_busy_cycles())
            .sum()
    }

    /// Total banks across all channels (bank-utilization denominator).
    pub fn total_banks(&self) -> u32 {
        self.channels
            .iter()
            .map(|c| c.dram().geometry().total_banks())
            .sum()
    }

    /// One thread's statistics summed over channels.
    pub fn thread_stats(&self, thread: ThreadId) -> ThreadStats {
        let mut agg = ThreadStats::default();
        for ch in &self.channels {
            agg.merge(ch.stats().thread(thread));
        }
        agg
    }

    /// Zeroes measurement counters on every channel (warmup exclusion).
    /// Observers, when attached, are reset with the stats so events and
    /// metrics cover the measurement window only.
    pub fn reset_stats(&mut self, now: DramCycle) {
        for ch in &mut self.channels {
            ch.reset_stats(now);
        }
        for obs in &mut self.observers {
            obs.reset();
        }
    }
}

/// Channel count and observation attachment are configuration (validated);
/// each channel's controller and observer state delegate to their own
/// [`Snapshot`] impls.
impl Snapshot for MultiChannelController {
    fn save(&self, w: &mut SectionWriter) {
        w.put_seq_len(self.channels.len());
        for ch in &self.channels {
            ch.save(w);
        }
        w.put_bool(!self.observers.is_empty());
        for obs in &self.observers {
            obs.save(w);
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let n = r.seq_len()?;
        if n != self.channels.len() {
            return Err(r.malformed(format!(
                "snapshot has {n} channels, controller has {}",
                self.channels.len()
            )));
        }
        for ch in &mut self.channels {
            ch.restore(r)?;
        }
        let observed = r.get_bool()?;
        if observed == self.observers.is_empty() {
            return Err(r.malformed(
                "snapshot and controller disagree on observation attachment".to_string(),
            ));
        }
        for obs in &mut self.observers {
            obs.restore(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverloadConfig;
    use crate::policy::SchedulerKind;
    use fqms_sim::fault::{FaultKind, FaultWindow};
    use fqms_sim::rng::SimRng;

    fn mc(channels: usize) -> MultiChannelController {
        MultiChannelController::new(
            channels,
            McConfig::paper(2, SchedulerKind::FqVftf),
            Geometry::paper(),
            TimingParams::ddr2_800(),
        )
        .unwrap()
    }

    #[test]
    fn zero_channels_rejected() {
        assert!(MultiChannelController::new(
            0,
            McConfig::paper(1, SchedulerKind::FrFcfs),
            Geometry::paper(),
            TimingParams::ddr2_800(),
        )
        .is_err());
    }

    #[test]
    fn line_interleaving_routes_round_robin() {
        let m = mc(2);
        assert_eq!(m.route(0), 0);
        assert_eq!(m.route(64), 1);
        assert_eq!(m.route(128), 0);
        assert_eq!(m.route(65), 1); // same line, same channel
    }

    #[test]
    fn sequential_stream_uses_both_channels() {
        let mut m = mc(2);
        let t = ThreadId::new(0);
        for i in 0..8 {
            m.try_submit(t, RequestKind::Read, i * 64, DramCycle::new(0))
                .unwrap();
        }
        let mut done = 0;
        let mut c = 0;
        while !m.is_idle() {
            c += 1;
            done += m.step(DramCycle::new(c)).len();
            assert!(c < 10_000);
        }
        assert_eq!(done, 8);
        // Both channels saw traffic.
        assert!(m.channel(0).dram().bus_busy_cycles() > 0);
        assert!(m.channel(1).dram().bus_busy_cycles() > 0);
    }

    #[test]
    fn two_channels_double_peak_bandwidth() {
        // Saturating independent reads: two channels should complete
        // roughly twice the requests of one channel in the same window.
        let drive = |channels: usize| {
            let mut m = mc(channels);
            let mut rng = SimRng::new(5);
            let t = ThreadId::new(0);
            let mut done = 0usize;
            for c in 1..=20_000u64 {
                let now = DramCycle::new(c);
                for _ in 0..4 {
                    let phys = rng.next_below(1 << 22) * 64;
                    if m.can_accept(t, RequestKind::Read, phys) {
                        let _ = m.try_submit(t, RequestKind::Read, phys, now);
                    }
                }
                done += m.step(now).len();
            }
            done
        };
        let one = drive(1);
        let two = drive(2);
        assert!(
            two as f64 > 1.6 * one as f64,
            "2 channels completed {two} vs {one} on one channel"
        );
    }

    #[test]
    fn per_channel_vtms_is_independent() {
        let mut m = mc(2);
        let t = ThreadId::new(0);
        // Lines 0, 2, 4... all route to channel 0.
        for i in 0..4u64 {
            m.try_submit(t, RequestKind::Read, i * 128, DramCycle::new(0))
                .unwrap();
        }
        let mut c = 0;
        while !m.is_idle() {
            c += 1;
            m.step(DramCycle::new(c));
        }
        assert!(m.channel(0).vtms(t).channel_reg() > 0.0);
        assert_eq!(m.channel(1).vtms(t).channel_reg(), 0.0);
    }

    #[test]
    fn aggregate_stats_sum_over_channels() {
        let mut m = mc(2);
        let t = ThreadId::new(0);
        for i in 0..8u64 {
            m.try_submit(t, RequestKind::Read, i * 64, DramCycle::new(0))
                .unwrap();
        }
        let mut c = 0;
        while !m.is_idle() {
            c += 1;
            m.step(DramCycle::new(c));
        }
        m.finish(DramCycle::new(c));
        let agg = m.thread_stats(t);
        assert_eq!(agg.reads_completed, 8);
        // Per-channel stats sum to the aggregate.
        let sum: u64 = (0..2)
            .map(|ch| m.channel(ch).stats().thread(t).reads_completed)
            .sum();
        assert_eq!(sum, 8);
        assert_eq!(agg.bus_busy_cycles, m.bus_busy_cycles());
        assert_eq!(m.total_banks(), 16);
        assert!(m.bank_busy_cycles() > 0);

        // A flooded overload run under faults and the watchdog, so every
        // counter — throttle NACKs, sheds, drops, starvations, the
        // slowdown terms — is live: each aggregate field is the sum of
        // the per-channel fields.
        let mut cfg = McConfig::paper(3, SchedulerKind::FqVftf).with_overload(
            OverloadConfig::new(3)
                .throttled(500, 2, 1.0)
                .shedding(250, 12, 4, 24, 4)
                .protect(0),
        );
        cfg.starvation_threshold = Some(200);
        let mut m =
            MultiChannelController::new(2, cfg, Geometry::paper(), TimingParams::ddr2_800())
                .unwrap();
        m.set_fault_plan(
            &FaultPlan::new(3)
                .with(FaultKind::RequestDrop, FaultWindow::new(0, 6_000), 0.01, 1)
                .with(FaultKind::BankStall, FaultWindow::new(0, 6_000), 0.002, 400),
        );
        let mut rng = SimRng::new(41);
        for c in 1..=6_000u64 {
            let now = DramCycle::new(c);
            for t in 0..3u32 {
                if rng.chance(if t == 0 { 0.05 } else { 0.6 }) {
                    let kind = if rng.chance(0.3) {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    let _ = m.try_submit(ThreadId::new(t), kind, rng.next_below(1 << 22) * 64, now);
                }
            }
            m.step(now);
        }
        // An exhaustive struct literal, so a new field fails to compile
        // here until it is checked too; each field must also be live.
        macro_rules! check_fields {
            ($($field:ident),*) => {
                let mut live = ThreadStats::default();
                for t in (0..3).map(ThreadId::new) {
                    let want = ThreadStats {
                        $($field: (0..2).map(|ch| m.channel(ch).stats().thread(t).$field).sum()),*
                    };
                    assert_eq!(m.thread_stats(t), want, "{t}");
                    live.merge(&want);
                }
                $(assert!(live.$field > 0, concat!(stringify!($field), " never counted"));)*
            };
        }
        check_fields!(
            reads_accepted,
            writes_accepted,
            reads_completed,
            writes_completed,
            read_latency_total,
            bus_busy_cycles,
            nacks,
            row_hits,
            row_closed,
            row_conflicts,
            requests_dropped,
            starvations,
            throttle_nacks,
            requests_shed,
            alone_cycles_est,
            shared_cycles
        );
    }

    #[test]
    fn reset_stats_zeroes_all_channels() {
        let mut m = mc(2);
        let t = ThreadId::new(0);
        for i in 0..4u64 {
            m.try_submit(t, RequestKind::Read, i * 64, DramCycle::new(0))
                .unwrap();
        }
        let mut c = 0;
        while !m.is_idle() {
            c += 1;
            m.step(DramCycle::new(c));
        }
        m.reset_stats(DramCycle::new(c));
        assert_eq!(m.thread_stats(t).reads_completed, 0);
        assert_eq!(m.bus_busy_cycles(), 0);
    }

    #[test]
    fn observation_is_passive_and_consistent() {
        let drive = |observe: bool| {
            let mut m = mc(2);
            if observe {
                m.enable_observation(1 << 16);
            }
            let t = ThreadId::new(0);
            let mut rng = SimRng::new(23);
            let mut done = Vec::new();
            for c in 1..=3_000u64 {
                let now = DramCycle::new(c);
                if rng.chance(0.4) {
                    let kind = if rng.chance(0.3) {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    let _ = m.try_submit(t, kind, rng.next_below(1 << 18) * 64, now);
                }
                done.extend(m.step(now));
            }
            (m, done)
        };
        let (plain, plain_done) = drive(false);
        let (observed, observed_done) = drive(true);
        // Observation never perturbs the simulation.
        assert_eq!(plain_done, observed_done);
        assert_eq!(
            plain.thread_stats(ThreadId::new(0)),
            observed.thread_stats(ThreadId::new(0))
        );
        assert!(plain.merged_metrics().is_none());
        assert!(plain.event_stream(0).is_none());
        // Observed metrics agree with the controller's own stats.
        let metrics = observed.merged_metrics().unwrap();
        let stats = observed.thread_stats(ThreadId::new(0));
        let sink = metrics.thread(0);
        assert_eq!(sink.reads_completed, stats.reads_completed);
        assert_eq!(sink.writes_completed, stats.writes_completed);
        assert_eq!(sink.nacks, stats.nacks);
        assert!(observed.event_stream(0).unwrap().total_recorded() > 0);
        assert!(observed.event_stream(1).unwrap().total_recorded() > 0);
    }

    #[test]
    fn reset_stats_clears_observers() {
        let mut m = mc(2);
        m.enable_observation(1 << 12);
        let t = ThreadId::new(0);
        for i in 0..4u64 {
            m.try_submit(t, RequestKind::Read, i * 64, DramCycle::new(0))
                .unwrap();
        }
        let mut c = 0;
        while !m.is_idle() {
            c += 1;
            m.step(DramCycle::new(c));
        }
        assert!(m.merged_metrics().unwrap().thread(0).reads_completed > 0);
        m.reset_stats(DramCycle::new(c));
        assert_eq!(m.merged_metrics().unwrap().thread(0).reads_completed, 0);
        assert!(m.event_stream(0).unwrap().is_empty());
    }

    #[test]
    fn snapshot_mid_run_resumes_bit_identical() {
        use fqms_sim::snapshot::{SnapshotReader, SnapshotWriter};
        let build = || {
            let mut m = mc(2);
            m.enable_observation(1 << 12);
            m.enable_command_log(64);
            m.set_fault_plan(
                &FaultPlan::new(99)
                    .with(FaultKind::NackStorm, FaultWindow::new(100, 3_500), 0.01, 40)
                    .with(
                        FaultKind::BankStall,
                        FaultWindow::new(500, 3_000),
                        0.005,
                        60,
                    ),
            );
            m
        };
        let drive = |m: &mut MultiChannelController,
                     rng: &mut SimRng,
                     from: u64,
                     to: u64,
                     done: &mut Vec<Completion>| {
            for c in (from + 1)..=to {
                let now = DramCycle::new(c);
                if rng.chance(0.4) {
                    let t = ThreadId::new(rng.next_below(2) as u32);
                    let kind = if rng.chance(0.3) {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    let _ = m.try_submit(t, kind, rng.next_below(1 << 18) * 64, now);
                }
                done.extend(m.step(now));
            }
        };

        // Uninterrupted reference run.
        let mut reference = build();
        let mut ref_rng = SimRng::new(7);
        let mut ref_done = Vec::new();
        drive(&mut reference, &mut ref_rng, 0, 4_000, &mut ref_done);

        // Interrupted run: snapshot at cycle 2_000, "crash", restore into
        // an identically-built controller, and finish the window.
        let mut first = build();
        let mut rng = SimRng::new(7);
        let mut done = Vec::new();
        drive(&mut first, &mut rng, 0, 2_000, &mut done);
        let mut w = SnapshotWriter::new(9);
        w.section("mc", |s| first.save(s));
        let bytes = w.into_bytes();
        drop(first);

        let mut resumed = build();
        let mut r = SnapshotReader::new(&bytes, 9).unwrap();
        r.section("mc", |s| resumed.restore(s)).unwrap();
        r.finish().unwrap();
        drive(&mut resumed, &mut rng, 2_000, 4_000, &mut done);

        assert_eq!(done, ref_done);
        for t in 0..2u32 {
            assert_eq!(
                resumed.thread_stats(ThreadId::new(t)),
                reference.thread_stats(ThreadId::new(t))
            );
        }
        assert_eq!(resumed.merged_metrics(), reference.merged_metrics());
        for ch in 0..2 {
            let a: Vec<_> = resumed.event_stream(ch).unwrap().iter().collect();
            let b: Vec<_> = reference.event_stream(ch).unwrap().iter().collect();
            assert_eq!(a, b, "channel {ch} event streams diverged");
            assert!(
                resumed
                    .channel(ch)
                    .command_log()
                    .unwrap()
                    .iter()
                    .eq(reference.channel(ch).command_log().unwrap().iter()),
                "channel {ch} command logs diverged"
            );
        }
    }

    #[test]
    fn snapshot_rejects_channel_count_mismatch() {
        use fqms_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let m2 = mc(2);
        let mut w = SnapshotWriter::new(1);
        w.section("mc", |s| m2.save(s));
        let bytes = w.into_bytes();
        let mut m4 = mc(4);
        let mut r = SnapshotReader::new(&bytes, 1).unwrap();
        let err = r.section("mc", |s| m4.restore(s)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn conservation_across_channels() {
        let mut m = mc(4);
        let mut rng = SimRng::new(11);
        let mut submitted = 0usize;
        let mut done = 0usize;
        for c in 1..=5_000u64 {
            let now = DramCycle::new(c);
            if rng.chance(0.5) {
                let t = ThreadId::new(rng.next_below(2) as u32);
                let kind = if rng.chance(0.3) {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                let phys = rng.next_below(1 << 20) * 64;
                if m.try_submit(t, kind, phys, now).is_ok() {
                    submitted += 1;
                }
            }
            done += m.step(now).len();
        }
        let mut c = 5_000u64;
        while !m.is_idle() {
            c += 1;
            done += m.step(DramCycle::new(c)).len();
            assert!(c < 1_000_000);
        }
        assert_eq!(submitted, done);
    }
}

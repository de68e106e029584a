//! The request-submission interface a processor core drives.
//!
//! Both the single-channel [`MemoryController`] and the multi-channel
//! composition [`MultiChannelController`] accept requests the same way; a
//! core is generic over [`MemoryPort`] so either can sit behind it.

use crate::buffers::Nack;
use crate::controller::MemoryController;
use crate::multichannel::MultiChannelController;
use crate::request::{RequestId, RequestKind, ThreadId};
use fqms_obs::NullObserver;
use fqms_sim::clock::DramCycle;

/// A sink for memory requests with per-thread back-pressure.
pub trait MemoryPort {
    /// Submits the request for the cache line containing `phys`.
    ///
    /// # Errors
    ///
    /// Returns the typed [`Nack`] back-pressure taxonomy; each variant
    /// asks the requester for a different reaction.
    ///
    /// [`Nack::TransactionBufferFull`] / [`Nack::WriteBufferFull`] — the
    /// thread's buffer partition (on the routing channel) is full.
    /// Transient: retry once an in-flight request completes.
    ///
    /// ```
    /// use fqms_memctrl::prelude::*;
    /// use fqms_dram::prelude::*;
    /// use fqms_sim::clock::DramCycle;
    ///
    /// let cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
    /// let mut mc = MemoryController::new(
    ///     cfg, Geometry::paper(), TimingParams::ddr2_800(),
    /// ).unwrap();
    /// for i in 0..16 {
    ///     // Fill the paper's 16-entry transaction partition.
    ///     mc.submit(ThreadId::new(0), RequestKind::Read, 0x40 * i, DramCycle::new(0))
    ///         .unwrap();
    /// }
    /// assert_eq!(
    ///     mc.submit(ThreadId::new(0), RequestKind::Read, 0x8000, DramCycle::new(0)),
    ///     Err(Nack::TransactionBufferFull),
    /// );
    /// ```
    ///
    /// [`Nack::Throttled`] — the overload controller classified the
    /// thread as a bandwidth hog and its admission tokens for the period
    /// are exhausted. Retry no earlier than the carried `retry_after`
    /// cycles; retrying sooner is provably futile.
    ///
    /// ```
    /// use fqms_memctrl::prelude::*;
    /// use fqms_dram::prelude::*;
    /// use fqms_sim::clock::DramCycle;
    ///
    /// // Margin 1.0 classifies every unprotected thread a hog at the
    /// // first replenish boundary; zero tokens gate them outright.
    /// let cfg = McConfig::paper(2, SchedulerKind::FqVftf)
    ///     .with_overload(OverloadConfig::new(2).throttled(100, 0, 1.0));
    /// let mut mc = MemoryController::new(
    ///     cfg, Geometry::paper(), TimingParams::ddr2_800(),
    /// ).unwrap();
    /// for c in 1..=100u64 {
    ///     mc.step(DramCycle::new(c)); // cross the boundary at cycle 100
    /// }
    /// match mc.submit(ThreadId::new(0), RequestKind::Read, 0x1000, DramCycle::new(101)) {
    ///     Err(Nack::Throttled { retry_after }) => {
    ///         assert_eq!(retry_after, 99); // tokens return at cycle 200
    ///     }
    ///     other => panic!("expected a throttle NACK, got {other:?}"),
    /// }
    /// ```
    ///
    /// [`Nack::Shed`] — the controller is saturated and deliberately
    /// dropped the request to protect premium traffic. Terminal: never
    /// retry; the carried [`crate::buffers::ShedClass`] names the class
    /// sacrificed.
    ///
    /// ```
    /// use fqms_memctrl::prelude::*;
    /// use fqms_dram::prelude::*;
    /// use fqms_sim::clock::DramCycle;
    ///
    /// // One occupied entry trips the detector at the 2-cycle window
    /// // boundary; thread 0 is protected, thread 1 is best-effort.
    /// let cfg = McConfig::paper(2, SchedulerKind::FqVftf)
    ///     .with_overload(OverloadConfig::new(2).shedding(2, 1, 0, 10, 1).protect(0));
    /// let mut mc = MemoryController::new(
    ///     cfg, Geometry::paper(), TimingParams::ddr2_800(),
    /// ).unwrap();
    /// mc.submit(ThreadId::new(1), RequestKind::Read, 0x1000, DramCycle::new(0)).unwrap();
    /// mc.step(DramCycle::new(1));
    /// mc.step(DramCycle::new(2)); // detector escalates to Degraded here
    /// assert_eq!(
    ///     mc.submit(ThreadId::new(1), RequestKind::Write, 0x2000, DramCycle::new(3)),
    ///     Err(Nack::Shed { class: ShedClass::BestEffortWrite }),
    /// );
    /// // Degraded sheds only best-effort *writes*; reads still pass, and
    /// // the protected thread is untouched at every level.
    /// assert!(mc.submit(ThreadId::new(1), RequestKind::Read, 0x3000, DramCycle::new(3)).is_ok());
    /// assert!(mc.submit(ThreadId::new(0), RequestKind::Write, 0x4000, DramCycle::new(3)).is_ok());
    /// ```
    fn submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack>;

    /// Repeats `n` submits of the same request that the caller knows the
    /// port refuses with a buffer-full NACK every time: a requester
    /// retrying while nothing can free a buffer entry. Every effect of
    /// the `n` refusals is applied, in the order the `n` calls to
    /// [`MemoryPort::submit`] would apply them.
    ///
    /// The provided body makes those calls. Controllers override it to
    /// account the refusals as one counter update when no observer needs
    /// the individual events.
    fn resubmit_refused(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
        n: u64,
    ) {
        for _ in 0..n {
            let refused = self.submit(thread, kind, phys, now);
            debug_assert!(refused.is_err(), "resubmit_refused admitted a request");
        }
    }
}

impl MemoryPort for MemoryController {
    fn submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack> {
        self.try_submit(thread, kind, phys, now)
    }

    fn resubmit_refused(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
        n: u64,
    ) {
        self.resubmit_refused_observed(thread, kind, phys, now, n, &mut NullObserver);
    }
}

impl MemoryPort for MultiChannelController {
    fn submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack> {
        self.try_submit(thread, kind, phys, now)
    }

    fn resubmit_refused(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
        n: u64,
    ) {
        MultiChannelController::resubmit_refused(self, thread, kind, phys, now, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{McConfig, OverloadConfig, RegulationConfig};
    use crate::policy::SchedulerKind;
    use fqms_dram::device::Geometry;
    use fqms_dram::timing::TimingParams;
    use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};

    fn exercise<P: MemoryPort>(port: &mut P) {
        port.submit(
            ThreadId::new(0),
            RequestKind::Read,
            0x1000,
            DramCycle::new(0),
        )
        .unwrap();
    }

    /// A port with only the provided `resubmit_refused`.
    struct Plain<'a>(&'a mut MultiChannelController);

    impl MemoryPort for Plain<'_> {
        fn submit(
            &mut self,
            thread: ThreadId,
            kind: RequestKind,
            phys: u64,
            now: DramCycle,
        ) -> Result<RequestId, Nack> {
            self.0.try_submit(thread, kind, phys, now)
        }
    }

    fn state(mc: &MultiChannelController) -> Vec<u8> {
        use fqms_sim::snapshot::{Snapshot, SnapshotWriter};
        let mut w = SnapshotWriter::new(0);
        w.section("mc", |s| mc.save(s));
        w.into_bytes()
    }

    /// The controller modes the fast-path condition must see through.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mode {
        Plain,
        NackStorm,
        Throttle,
        Shed,
        Watchdog,
        Regulation,
        Bliss,
    }

    /// A controller under `mode` that refuses every later submit of this
    /// test from thread 0: a NACK storm is on, or two stepped cycles
    /// classified the thread a hog with no tokens, or its partition is
    /// full (and, for `Shed`, the ladder walked to `Shedding`).
    fn refusing(mode: Mode, channels: usize, observed: bool) -> MultiChannelController {
        let kind = if mode == Mode::Bliss {
            SchedulerKind::Bliss
        } else {
            SchedulerKind::FqVftf
        };
        let mut cfg = McConfig::paper(2, kind);
        match mode {
            Mode::Throttle => {
                cfg = cfg.with_overload(OverloadConfig::new(2).throttled(1, 0, 1.0));
            }
            Mode::Shed => {
                cfg = cfg.with_overload(OverloadConfig::new(2).shedding(1, 1, 0, 1_000, 1));
            }
            Mode::Watchdog => cfg.starvation_threshold = Some(1),
            Mode::Regulation => {
                cfg = cfg
                    .with_regulation(RegulationConfig::new(10).rt_class(1, Some(5)).best_effort());
            }
            _ => {}
        }
        let mut mc =
            MultiChannelController::new(channels, cfg, Geometry::paper(), TimingParams::ddr2_800())
                .unwrap();
        if mode == Mode::NackStorm {
            mc.set_fault_plan(&FaultPlan::new(1).with(
                FaultKind::NackStorm,
                FaultWindow::new(0, 100),
                1.0,
                100,
            ));
        }
        if observed {
            mc.enable_observation(256);
        }
        let t = ThreadId::new(0);
        // A NACK storm and the throttle refuse on their own, with room in
        // the partition; the other modes refuse on a full partition.
        if !matches!(mode, Mode::NackStorm | Mode::Throttle) {
            for i in 0..64 {
                let _ = mc.try_submit(t, RequestKind::Read, i * 64, DramCycle::new(0));
            }
        }
        for c in 1..=2 {
            mc.step(DramCycle::new(c));
        }
        mc
    }

    #[test]
    fn resubmit_refused_equals_refused_submits() {
        let t = ThreadId::new(0);
        for mode in [
            Mode::Plain,
            Mode::NackStorm,
            Mode::Throttle,
            Mode::Shed,
            Mode::Watchdog,
            Mode::Regulation,
            Mode::Bliss,
        ] {
            for channels in [1, 2] {
                for observed in [false, true] {
                    let ctx = format!("{mode:?}, {channels} channels, observed {observed}");
                    let (mut bulk, mut plain) = (
                        refusing(mode, channels, observed),
                        refusing(mode, channels, observed),
                    );
                    let refusals = |m: &MultiChannelController| {
                        let s = m.thread_stats(t);
                        s.nacks + s.requests_shed
                    };
                    let before = refusals(&bulk);
                    for (k, kind) in [RequestKind::Write, RequestKind::Read]
                        .into_iter()
                        .enumerate()
                    {
                        let now = DramCycle::new(3 + k as u64);
                        MemoryPort::resubmit_refused(&mut bulk, t, kind, 0x4_0040, now, 5);
                        Plain(&mut plain).resubmit_refused(t, kind, 0x4_0040, now, 5);
                    }
                    assert_eq!(bulk.thread_stats(t), plain.thread_stats(t), "{ctx}");
                    assert_eq!(refusals(&bulk), before + 10, "{ctx}");
                    let s = bulk.thread_stats(t);
                    match mode {
                        Mode::Throttle => assert_eq!(s.throttle_nacks, 10, "{ctx}"),
                        Mode::Shed => assert_eq!(s.requests_shed, 10, "{ctx}"),
                        _ => assert_eq!(s.throttle_nacks + s.requests_shed, 0, "{ctx}"),
                    }
                    assert_eq!(bulk.merged_metrics(), plain.merged_metrics(), "{ctx}");
                    assert!(state(&bulk) == state(&plain), "{ctx}: snapshots differ");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "would be admitted")]
    fn resubmit_refused_rejects_an_admissible_request() {
        let cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
        let mut mc =
            MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
        MemoryPort::resubmit_refused(
            &mut mc,
            ThreadId::new(0),
            RequestKind::Read,
            0x1000,
            DramCycle::new(0),
            3,
        );
    }

    #[test]
    fn both_controllers_implement_the_port() {
        let cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
        let mut single =
            MemoryController::new(cfg.clone(), Geometry::paper(), TimingParams::ddr2_800())
                .unwrap();
        exercise(&mut single);
        let mut multi =
            MultiChannelController::new(2, cfg, Geometry::paper(), TimingParams::ddr2_800())
                .unwrap();
        exercise(&mut multi);
        assert_eq!(single.pending_requests(), 1);
        assert_eq!(multi.pending_requests(), 1);
    }
}

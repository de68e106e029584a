//! Overload-resilient admission control (ISSUE 10): slowdown-feedback
//! throttling and tiered load shedding *in front of* the scheduler.
//!
//! The paper's fairness guarantees only cover requests the controller
//! admits; under a heavy streaming flood the admission path itself
//! becomes the contended resource. Following the BLISS insight (feedback
//! is cheapest *before* selection) and the heterogeneous-systems
//! scheduler (bandwidth-hungry agents must be throttled at admission),
//! [`OverloadState`] is a deterministic state machine with two
//! independent mechanisms:
//!
//! * **Admission throttle** — at every replenish boundary, threads are
//!   reclassified from the online [`SlowdownEstimator`]: a thread whose
//!   slowdown sits `margin` times below the worst in the system is a
//!   bandwidth hog (it runs near its alone speed precisely because it
//!   crowds everyone else out) and is token-gated to `tokens` admissions
//!   per `period`, refused with [`Nack::Throttled`] once exhausted.
//! * **Tiered load shedding** — a saturation detector with hysteresis
//!   over transaction-buffer occupancy and buffer-full NACK rate walks a
//!   ladder `Normal → Degraded → Shedding` one level per window
//!   boundary. `Degraded` sheds best-effort writebacks, `Shedding` sheds
//!   all best-effort requests ([`Nack::Shed`]); protected threads are
//!   untouched at every level. Only buffer-full NACKs feed the detector
//!   — its own refusals never do, so shedding cannot sustain itself
//!   (anti-windup).
//!
//! Shaped like [`crate::regulate::RegulatorState`] for the same reasons:
//! knobs fixed at construction, boundary clocks advanced by lazy jumps,
//! and a snapshot section validated against the configured knobs on
//! restore. The controller drives it as one of its modes, which steps
//! both boundaries rather than skipping them (classification reads the
//! estimator *at the boundary cycle* — skipping one would let an
//! interleaved completion change the hog set).

use crate::buffers::{Nack, ShedClass};
use crate::config::{OverloadConfig, RegulationConfig};
use crate::slowdown::SlowdownEstimator;
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Saturation level of the tiered load shedder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SaturationLevel {
    /// No shedding: every class admitted.
    Normal,
    /// Best-effort writebacks are shed.
    Degraded,
    /// All best-effort requests are shed.
    Shedding,
}

impl SaturationLevel {
    /// Stable wire encoding for snapshots and observability events.
    pub fn as_u8(self) -> u8 {
        match self {
            SaturationLevel::Normal => 0,
            SaturationLevel::Degraded => 1,
            SaturationLevel::Shedding => 2,
        }
    }

    /// Decodes the wire encoding; `None` for out-of-range values.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SaturationLevel::Normal),
            1 => Some(SaturationLevel::Degraded),
            2 => Some(SaturationLevel::Shedding),
            _ => None,
        }
    }

    fn escalated(self) -> Self {
        match self {
            SaturationLevel::Normal => SaturationLevel::Degraded,
            _ => SaturationLevel::Shedding,
        }
    }

    fn de_escalated(self) -> Self {
        match self {
            SaturationLevel::Shedding => SaturationLevel::Degraded,
            _ => SaturationLevel::Normal,
        }
    }
}

/// Per-controller overload-control state: hog classification + token
/// buckets for the admission throttle, and the hysteresis ladder for the
/// tiered shedder.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadState {
    /// Throttle replenish period in DRAM cycles; 0 = throttle disabled
    /// (knob).
    period: u64,
    /// Admissions per period for a hog-classified thread (knob).
    tokens: u64,
    /// Hog classification ratio (knob).
    margin: f64,
    /// Shed detector window in DRAM cycles; 0 = shedding disabled (knob).
    window: u64,
    /// Occupancy / NACK hysteresis thresholds (knobs).
    occ_enter: usize,
    occ_exit: usize,
    nack_enter: u64,
    nack_exit: u64,
    /// Threads never throttled or shed (knob; regulation real-time
    /// classes are folded in at construction).
    protected: Vec<bool>,
    /// Hog flags, reclassified at each replenish boundary.
    hog: Vec<bool>,
    /// Tokens consumed this period (tracked for hogs only).
    used: Vec<u64>,
    /// Cycle at which tokens replenish and hogs are reclassified.
    next_replenish: u64,
    /// Current saturation level of the shedder.
    level: SaturationLevel,
    /// Buffer-full NACKs observed in the current detector window.
    window_nacks: u64,
    /// Cycle at which the detector evaluates next.
    next_window: u64,
    /// Total throttle refusals issued (monotone).
    throttled: u64,
    /// Total requests shed (monotone).
    shed: u64,
}

impl OverloadState {
    /// Builds the overload layer from a validated [`OverloadConfig`],
    /// folding in implicit protection for every real-time regulation
    /// class.
    pub fn new(config: &OverloadConfig, regulation: Option<&RegulationConfig>) -> Self {
        let n = config.protected.len();
        let mut protected = config.protected.clone();
        if let Some(reg) = regulation {
            for (p, class) in protected.iter_mut().zip(&reg.classes) {
                *p |= class.rt;
            }
        }
        let (period, tokens, margin) = config
            .throttle
            .as_ref()
            .map_or((0, 0, 1.0), |t| (t.period, t.tokens, t.margin));
        let (window, occ_enter, occ_exit, nack_enter, nack_exit) =
            config.shed.as_ref().map_or((0, 0, 0, 0, 0), |s| {
                (
                    s.window,
                    s.occupancy_enter,
                    s.occupancy_exit,
                    s.nack_enter,
                    s.nack_exit,
                )
            });
        OverloadState {
            period,
            tokens,
            margin,
            window,
            occ_enter,
            occ_exit,
            nack_enter,
            nack_exit,
            protected,
            hog: vec![false; n],
            used: vec![0; n],
            next_replenish: if period == 0 { u64::MAX } else { period },
            level: SaturationLevel::Normal,
            window_nacks: 0,
            next_window: if window == 0 { u64::MAX } else { window },
            throttled: 0,
            shed: 0,
        }
    }

    /// Cycle of the next throttle replenish boundary (`u64::MAX` when
    /// the throttle is disabled). Feeds `next_event_cycle`: fast-forward
    /// must step the boundary so hog reclassification reads the
    /// estimator exactly there.
    pub fn next_replenish(&self) -> u64 {
        self.next_replenish
    }

    /// Cycle of the next shed-detector evaluation (`u64::MAX` when
    /// shedding is disabled). Also feeds `next_event_cycle`.
    pub fn next_window(&self) -> u64 {
        self.next_window
    }

    /// Current saturation level.
    pub fn level(&self) -> SaturationLevel {
        self.level
    }

    /// Whether `thread` is currently classified a bandwidth hog.
    pub fn is_hog(&self, thread: u32) -> bool {
        self.hog[thread as usize]
    }

    /// Whether `thread` is exempt from throttling and shedding.
    pub fn is_protected(&self, thread: u32) -> bool {
        self.protected[thread as usize]
    }

    /// Total throttle refusals issued so far.
    pub fn total_throttled(&self) -> u64 {
        self.throttled
    }

    /// Total requests shed so far.
    pub fn total_shed(&self) -> u64 {
        self.shed
    }

    /// Advances the throttle clock to `now`: at an elapsed boundary,
    /// refills every bucket and reclassifies hogs from the estimator.
    /// Idempotent for a fixed `now`; no-op while the boundary is ahead.
    pub fn maybe_replenish(&mut self, now: u64, est: &SlowdownEstimator) {
        if now < self.next_replenish {
            return;
        }
        // Lazy jump past every elapsed boundary, exactly like the
        // regulator: stepping one period at a time would not terminate
        // for adversarial clocks near `u64::MAX`.
        self.next_replenish = (now / self.period)
            .checked_add(1)
            .and_then(|n| n.checked_mul(self.period))
            .unwrap_or(u64::MAX);
        self.used.fill(0);
        let max = est.max_slowdown();
        for t in 0..self.hog.len() {
            self.hog[t] = !self.protected[t] && max >= self.margin * est.slowdown(t as u32);
        }
    }

    /// Throttle gate for one submission attempt: `Some(nack)` when
    /// `thread` is a hog with no tokens left, carrying the cycles until
    /// the next replenish (at least 1). Does not consume.
    pub fn throttle_check(&self, thread: u32, now: u64) -> Option<Nack> {
        let t = thread as usize;
        if self.hog[t] && self.used[t] >= self.tokens {
            let retry_after = self.next_replenish.saturating_sub(now).max(1);
            return Some(Nack::Throttled { retry_after });
        }
        None
    }

    /// Shed gate for one submission attempt: `Some(nack)` when the
    /// current saturation level drops this request's class.
    pub fn shed_check(&self, thread: u32, is_write: bool) -> Option<Nack> {
        if self.protected[thread as usize] {
            return None;
        }
        match self.level {
            SaturationLevel::Normal => None,
            SaturationLevel::Degraded => is_write.then_some(Nack::Shed {
                class: ShedClass::BestEffortWrite,
            }),
            SaturationLevel::Shedding => Some(Nack::Shed {
                class: ShedClass::BestEffort,
            }),
        }
    }

    /// Records one successful admission: hogs consume a token, everyone
    /// else passes freely.
    pub fn consume(&mut self, thread: u32) {
        let t = thread as usize;
        if self.hog[t] {
            self.used[t] = self.used[t].saturating_add(1);
        }
    }

    /// Counts one throttle refusal (issued by the caller).
    pub fn note_throttled(&mut self) {
        self.throttled = self.throttled.saturating_add(1);
    }

    /// Counts one shed request (dropped by the caller).
    pub fn note_shed(&mut self) {
        self.shed = self.shed.saturating_add(1);
    }

    /// Counts one buffer-full NACK toward the detector window. Throttle
    /// and shed refusals are deliberately *not* counted (anti-windup).
    pub fn note_buffer_nack(&mut self) {
        self.window_nacks = self.window_nacks.saturating_add(1);
    }

    /// Advances the shed detector to `now`: at an elapsed window
    /// boundary, compares `occupied` transaction entries and the
    /// window's buffer-full NACKs against the hysteresis thresholds and
    /// moves one level along the ladder. Returns the `(from, to)`
    /// transition when the level changed.
    pub fn maybe_evaluate(
        &mut self,
        now: u64,
        occupied: usize,
    ) -> Option<(SaturationLevel, SaturationLevel)> {
        if now < self.next_window {
            return None;
        }
        self.next_window = (now / self.window)
            .checked_add(1)
            .and_then(|n| n.checked_mul(self.window))
            .unwrap_or(u64::MAX);
        let nacks = self.window_nacks;
        self.window_nacks = 0;
        let from = self.level;
        if occupied >= self.occ_enter || nacks >= self.nack_enter {
            self.level = self.level.escalated();
        } else if occupied < self.occ_exit && nacks < self.nack_exit {
            self.level = self.level.de_escalated();
        }
        (self.level != from).then_some((from, self.level))
    }
}

impl Snapshot for OverloadState {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.period);
        w.put_u64(self.tokens);
        w.put_f64(self.margin);
        w.put_u64(self.window);
        w.put_usize(self.occ_enter);
        w.put_usize(self.occ_exit);
        w.put_u64(self.nack_enter);
        w.put_u64(self.nack_exit);
        w.put_seq_len(self.protected.len());
        for t in 0..self.protected.len() {
            w.put_bool(self.protected[t]);
            w.put_bool(self.hog[t]);
            w.put_u64(self.used[t]);
        }
        w.put_u64(self.next_replenish);
        w.put_u8(self.level.as_u8());
        w.put_u64(self.window_nacks);
        w.put_u64(self.next_window);
        w.put_u64(self.throttled);
        w.put_u64(self.shed);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let period = r.get_u64()?;
        let tokens = r.get_u64()?;
        let margin = r.get_f64()?;
        if period != self.period
            || tokens != self.tokens
            || margin.to_bits() != self.margin.to_bits()
        {
            return Err(r.malformed(format!(
                "overload throttle knobs {period}/{tokens}/{margin} disagree with config \
                 {}/{}/{}",
                self.period, self.tokens, self.margin
            )));
        }
        let window = r.get_u64()?;
        let occ_enter = r.get_usize()?;
        let occ_exit = r.get_usize()?;
        let nack_enter = r.get_u64()?;
        let nack_exit = r.get_u64()?;
        if window != self.window
            || occ_enter != self.occ_enter
            || occ_exit != self.occ_exit
            || nack_enter != self.nack_enter
            || nack_exit != self.nack_exit
        {
            return Err(r.malformed("overload shed knobs disagree with config".to_string()));
        }
        let n = r.seq_len()?;
        if n != self.protected.len() {
            return Err(r.malformed(format!(
                "overload state for {n} threads, controller has {}",
                self.protected.len()
            )));
        }
        for t in 0..n {
            let protected = r.get_bool()?;
            if protected != self.protected[t] {
                return Err(r.malformed(format!(
                    "overload protection flag for thread {t} disagrees with config"
                )));
            }
            self.hog[t] = r.get_bool()?;
            self.used[t] = r.get_u64()?;
        }
        self.next_replenish = r.get_u64()?;
        let level = r.get_u8()?;
        self.level = SaturationLevel::from_u8(level)
            .ok_or_else(|| r.malformed(format!("saturation level {level} out of range")))?;
        self.window_nacks = r.get_u64()?;
        self.next_window = r.get_u64()?;
        self.throttled = r.get_u64()?;
        self.shed = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverloadConfig;

    fn throttle_only(n: usize, period: u64, tokens: u64, margin: f64) -> OverloadState {
        OverloadState::new(
            &OverloadConfig::new(n).throttled(period, tokens, margin),
            None,
        )
    }

    fn shed_only(n: usize) -> OverloadState {
        // Window 100; escalate at 8 occupied or 10 NACKs; exit below 4/2.
        OverloadState::new(&OverloadConfig::new(n).shedding(100, 8, 4, 10, 2), None)
    }

    /// A two-thread estimator where thread 1 is slowed 4x and thread 0
    /// runs at its alone speed (the classic hog/victim shape).
    fn skewed_estimator() -> SlowdownEstimator {
        let mut est = SlowdownEstimator::new(2);
        est.record(0, 100, 100); // slowdown 1.0 (the hog)
        est.record(1, 100, 400); // slowdown 4.0 (the victim)
        est
    }

    #[test]
    fn hog_classification_gates_tokens_and_replenish_restores() {
        let mut ov = throttle_only(2, 100, 2, 2.0);
        let est = skewed_estimator();
        // Before the first boundary nothing is classified.
        assert!(ov.throttle_check(0, 10).is_none());
        ov.maybe_replenish(100, &est);
        assert!(ov.is_hog(0), "alone-speed thread not classified a hog");
        assert!(!ov.is_hog(1), "victim misclassified");
        // Two tokens pass, the third is gated until the next boundary.
        ov.consume(0);
        ov.consume(0);
        match ov.throttle_check(0, 150) {
            Some(Nack::Throttled { retry_after }) => assert_eq!(retry_after, 50),
            other => panic!("expected Throttled, got {other:?}"),
        }
        assert!(ov.throttle_check(1, 150).is_none(), "victim gated");
        ov.maybe_replenish(200, &est);
        assert!(ov.throttle_check(0, 200).is_none(), "replenish failed");
        assert_eq!(ov.next_replenish(), 300);
    }

    #[test]
    fn protected_and_balanced_threads_are_never_hogs() {
        let cfg = OverloadConfig::new(2).throttled(100, 0, 2.0).protect(0);
        let mut ov = OverloadState::new(&cfg, None);
        ov.maybe_replenish(100, &skewed_estimator());
        assert!(!ov.is_hog(0), "protected thread classified a hog");
        // A balanced system (all slowdowns equal) classifies nobody.
        let mut even = throttle_only(2, 100, 0, 2.0);
        let mut est = SlowdownEstimator::new(2);
        est.record(0, 100, 300);
        est.record(1, 100, 300);
        even.maybe_replenish(100, &est);
        assert!(!even.is_hog(0) && !even.is_hog(1));
    }

    #[test]
    fn regulation_rt_classes_are_implicitly_protected() {
        let reg = RegulationConfig::new(1_000).rt_class(4, None).best_effort();
        let cfg = OverloadConfig::new(2).throttled(100, 0, 2.0);
        let mut ov = OverloadState::new(&cfg, Some(&reg));
        assert!(ov.is_protected(0), "rt class not folded into protection");
        assert!(!ov.is_protected(1));
        ov.maybe_replenish(100, &skewed_estimator());
        assert!(!ov.is_hog(0));
        assert!(ov.shed_check(0, true).is_none());
    }

    #[test]
    fn hysteresis_ladder_escalates_and_exits_one_level_per_window() {
        let mut ov = shed_only(1);
        assert_eq!(ov.level(), SaturationLevel::Normal);
        // Occupancy pressure: one level per boundary, not a jump.
        assert_eq!(
            ov.maybe_evaluate(100, 9),
            Some((SaturationLevel::Normal, SaturationLevel::Degraded))
        );
        assert_eq!(
            ov.maybe_evaluate(200, 9),
            Some((SaturationLevel::Degraded, SaturationLevel::Shedding))
        );
        assert_eq!(ov.maybe_evaluate(300, 9), None, "ladder has a top");
        // Between thresholds (exit <= occupied < enter): hold, no flap.
        assert_eq!(ov.maybe_evaluate(400, 5), None);
        assert_eq!(ov.level(), SaturationLevel::Shedding);
        // Below the exit threshold: one level back per boundary.
        assert_eq!(
            ov.maybe_evaluate(500, 0),
            Some((SaturationLevel::Shedding, SaturationLevel::Degraded))
        );
        assert_eq!(
            ov.maybe_evaluate(600, 0),
            Some((SaturationLevel::Degraded, SaturationLevel::Normal))
        );
        assert_eq!(ov.maybe_evaluate(700, 0), None, "ladder has a floor");
    }

    #[test]
    fn nack_rate_feeds_the_detector_and_resets_each_window() {
        let mut ov = shed_only(1);
        for _ in 0..10 {
            ov.note_buffer_nack();
        }
        assert_eq!(
            ov.maybe_evaluate(100, 0),
            Some((SaturationLevel::Normal, SaturationLevel::Degraded))
        );
        // The counter reset at the boundary; low occupancy + quiet window
        // de-escalates immediately.
        assert_eq!(
            ov.maybe_evaluate(200, 0),
            Some((SaturationLevel::Degraded, SaturationLevel::Normal))
        );
    }

    #[test]
    fn shed_tiers_follow_class_and_protection() {
        let cfg = OverloadConfig::new(2).shedding(100, 8, 4, 10, 2).protect(1);
        let mut ov = OverloadState::new(&cfg, None);
        assert!(ov.shed_check(0, true).is_none(), "Normal sheds nothing");
        ov.maybe_evaluate(100, 9);
        assert_eq!(
            ov.shed_check(0, true),
            Some(Nack::Shed {
                class: ShedClass::BestEffortWrite
            }),
            "Degraded must shed best-effort writes"
        );
        assert!(ov.shed_check(0, false).is_none(), "Degraded shed a read");
        ov.maybe_evaluate(200, 9);
        assert_eq!(
            ov.shed_check(0, false),
            Some(Nack::Shed {
                class: ShedClass::BestEffort
            }),
            "Shedding must shed best-effort reads too"
        );
        assert!(ov.shed_check(1, true).is_none(), "protected thread shed");
    }

    #[test]
    fn boundary_clocks_saturate_instead_of_wrapping() {
        let mut ov = throttle_only(1, 1 << 62, 1, 2.0);
        ov.maybe_replenish(u64::MAX - 1, &SlowdownEstimator::new(1));
        assert_eq!(ov.next_replenish(), u64::MAX);
        let mut shed = shed_only(1);
        // Window 100 divides u64::MAX-ish clocks without overflow.
        shed.maybe_evaluate(u64::MAX - 1, 0);
        assert_eq!(shed.next_window(), u64::MAX);
    }

    #[test]
    fn snapshot_round_trips_and_validates_knobs() {
        use fqms_sim::snapshot::{SnapshotReader, SnapshotWriter};
        let cfg = OverloadConfig::new(2)
            .throttled(100, 2, 2.0)
            .shedding(50, 8, 4, 10, 2)
            .protect(1);
        let mut a = OverloadState::new(&cfg, None);
        a.maybe_replenish(100, &skewed_estimator());
        a.consume(0);
        a.note_buffer_nack();
        a.note_throttled();
        a.note_shed();
        a.maybe_evaluate(100, 9);
        let mut w = SnapshotWriter::new(7);
        w.section("overload", |s| a.save(s));
        let bytes = w.into_bytes();
        let mut b = OverloadState::new(&cfg, None);
        let mut r = SnapshotReader::new(&bytes, 7).unwrap();
        r.section("overload", |s| b.restore(s)).unwrap();
        assert_eq!(a, b);
        // A different margin is a knob mismatch, not silent adoption.
        let other = OverloadConfig::new(2)
            .throttled(100, 2, 3.0)
            .shedding(50, 8, 4, 10, 2)
            .protect(1);
        let mut c = OverloadState::new(&other, None);
        let mut r = SnapshotReader::new(&bytes, 7).unwrap();
        assert!(r.section("overload", |s| c.restore(s)).is_err());
    }
}

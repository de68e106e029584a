//! Per-bank bandwidth regulation for the real-time controller mode
//! (ISSUE 9).
//!
//! The regulation papers in PAPERS.md (Dynamic Priority Queue, Per-Bank
//! Bandwidth Regulation) make hard latency bounds *computable* with two
//! mechanisms the fair-queuing substrate composes with directly:
//!
//! * **bank partitioning** — each thread's requests are remapped into a
//!   private contiguous slice of the global bank space
//!   ([`fqms_dram::device::Geometry::partition_slice`]), so cross-thread
//!   row conflicts vanish and only the shared channel remains contended,
//! * **token-bucket budgets** — each real-time thread may consume at most
//!   `budget` bank services (CAS issues) per replenish `period`; while in
//!   budget its requests occupy the premium scheduling tier (tier 0 in
//!   [`crate::policy::Priority`]), and on exhaustion they demote to the
//!   best-effort tier until the next period boundary.
//!
//! [`RegulatorState`] is the deterministic per-controller state machine
//! behind those budgets, deliberately shaped like
//! [`crate::bliss::BlissState`]: knobs fixed at construction, lazy
//! boundary advance compatible with the event-driven fast path (the
//! controller steps `next_replenish` as one of its mode boundaries), and
//! a snapshot section validated against the configured knobs on restore.
//! The analytic latency bound the mode exists to honour is computed in
//! [`crate::wcet`]; observed violations are counted here so the release
//! gate (`rt_wcet.rs`) and the `latency_cdf` figure bin can assert zero.

use crate::config::RegulationConfig;
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Per-controller token-bucket regulator state for every thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegulatorState {
    /// Replenish period in DRAM cycles (knob).
    period: u64,
    /// Per-thread service budget per period; 0 for best-effort threads
    /// (knob).
    budgets: Vec<u64>,
    /// Which threads are real-time (knob).
    rt: Vec<bool>,
    /// Per-thread analytic WCET bound in DRAM cycles; 0 = unset (knob).
    wcet: Vec<u64>,
    /// Services consumed since the last replenish boundary.
    used: Vec<u64>,
    /// Cycle at which the next replenish fires.
    next_replenish: u64,
    /// Completions observed above their thread's WCET bound (must stay 0
    /// for the bound to be verified).
    violations: u64,
}

impl RegulatorState {
    /// Builds the regulator from a validated [`RegulationConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (rejected by `McConfig::validate`
    /// before a controller is built).
    pub fn new(config: &RegulationConfig) -> Self {
        assert!(config.period > 0, "regulation period must be positive");
        let n = config.classes.len();
        RegulatorState {
            period: config.period,
            budgets: config.classes.iter().map(|c| c.budget).collect(),
            rt: config.classes.iter().map(|c| c.rt).collect(),
            wcet: config.classes.iter().map(|c| c.wcet.unwrap_or(0)).collect(),
            used: vec![0; n],
            next_replenish: config.period,
            violations: 0,
        }
    }

    /// Replenish period in DRAM cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Whether `thread` currently holds premium-tier (in-budget
    /// real-time) status. Best-effort threads and zero-budget real-time
    /// threads are never in budget.
    pub fn in_budget(&self, thread: u32) -> bool {
        let t = thread as usize;
        self.rt[t] && self.used[t] < self.budgets[t]
    }

    /// Tokens left for `thread` in the current period.
    pub fn remaining(&self, thread: u32) -> u64 {
        let t = thread as usize;
        self.budgets[t].saturating_sub(self.used[t])
    }

    /// The configured WCET bound for `thread`, if one was set.
    pub fn wcet_bound(&self, thread: u32) -> Option<u64> {
        match self.wcet[thread as usize] {
            0 => None,
            b => Some(b),
        }
    }

    /// Cycle at which the next replenish boundary fires (for the
    /// controller's next-event computation: fast-forward must not skip
    /// past a boundary, or a demoted thread would regain its tier late).
    pub fn next_replenish(&self) -> u64 {
        self.next_replenish
    }

    /// Completions observed above their thread's WCET bound.
    pub fn bound_violations(&self) -> u64 {
        self.violations
    }

    /// Counts one completion whose latency exceeded the thread's bound.
    pub fn note_violation(&mut self) {
        self.violations = self.violations.saturating_add(1);
    }

    /// Records one bank service (CAS issue) for `thread`. Returns `true`
    /// when the thread just crossed from in-budget to exhausted — a
    /// scheduling-tier change the controller must treat as a
    /// scheduling-state invalidation. Best-effort threads consume
    /// nothing and never change tier.
    pub fn consume(&mut self, thread: u32) -> bool {
        let t = thread as usize;
        if !self.rt[t] {
            return false;
        }
        let was = self.used[t] < self.budgets[t];
        self.used[t] = self.used[t].saturating_add(1);
        was && self.used[t] >= self.budgets[t]
    }

    /// Advances the replenish clock to `now`, refilling every bucket at
    /// each elapsed period boundary. Returns `true` when any consumed
    /// token was restored (scheduling-state invalidation: a demoted
    /// thread may have regained its tier). Idempotent for a fixed `now`.
    pub fn maybe_replenish(&mut self, now: u64) -> bool {
        if now < self.next_replenish {
            return false;
        }
        // Jump directly past every elapsed boundary (fast-forward may
        // skip many periods at once; stepping one period at a time would
        // not terminate for adversarial clocks near `u64::MAX`).
        self.next_replenish = (now / self.period)
            .checked_add(1)
            .and_then(|n| n.checked_mul(self.period))
            .unwrap_or(u64::MAX);
        let had_any = self.used.iter().any(|&u| u > 0);
        self.used.fill(0);
        had_any
    }
}

impl Snapshot for RegulatorState {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.period);
        w.put_seq_len(self.budgets.len());
        for (i, &b) in self.budgets.iter().enumerate() {
            w.put_u64(b);
            w.put_bool(self.rt[i]);
            w.put_u64(self.wcet[i]);
            w.put_u64(self.used[i]);
        }
        w.put_u64(self.next_replenish);
        w.put_u64(self.violations);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let period = r.get_u64()?;
        if period != self.period {
            return Err(r.malformed(format!(
                "regulator period {period} disagrees with config {}",
                self.period
            )));
        }
        let n = r.seq_len()?;
        if n != self.budgets.len() {
            return Err(r.malformed(format!(
                "regulator for {n} threads, controller has {}",
                self.budgets.len()
            )));
        }
        for i in 0..n {
            let budget = r.get_u64()?;
            let rt = r.get_bool()?;
            let wcet = r.get_u64()?;
            if budget != self.budgets[i] || rt != self.rt[i] || wcet != self.wcet[i] {
                return Err(r.malformed(format!(
                    "regulator class {i} knobs {budget}/{rt}/{wcet} disagree with config \
                     {}/{}/{}",
                    self.budgets[i], self.rt[i], self.wcet[i]
                )));
            }
            self.used[i] = r.get_u64()?;
        }
        self.next_replenish = r.get_u64()?;
        self.violations = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegulationConfig;

    fn reg(period: u64, budgets: &[u64]) -> RegulatorState {
        let mut cfg = RegulationConfig::new(period);
        for &b in budgets {
            cfg = cfg.rt_class(b, None);
        }
        RegulatorState::new(&cfg.best_effort())
    }

    #[test]
    fn budget_exhaustion_demotes_and_replenish_restores() {
        let mut r = reg(100, &[2]);
        assert!(r.in_budget(0));
        assert!(!r.consume(0));
        assert!(r.consume(0)); // second service exhausts the bucket
        assert!(!r.in_budget(0));
        assert!(!r.consume(0)); // already demoted: no further change
        assert!(!r.maybe_replenish(99));
        assert!(r.maybe_replenish(100));
        assert!(r.in_budget(0));
        assert_eq!(r.next_replenish(), 200);
        // Idempotent at the same cycle; multi-period jumps land past now.
        assert!(!r.maybe_replenish(100));
        r.consume(0);
        assert!(r.maybe_replenish(750));
        assert_eq!(r.next_replenish(), 800);
    }

    #[test]
    fn best_effort_thread_never_holds_the_premium_tier() {
        let mut r = reg(100, &[4]);
        assert!(!r.in_budget(1)); // the trailing best_effort class
        assert!(!r.consume(1));
        assert_eq!(r.remaining(1), 0);
    }

    #[test]
    fn zero_budget_rt_class_is_pure_best_effort_demotion() {
        let mut r = reg(50, &[0]);
        assert!(!r.in_budget(0));
        assert!(!r.consume(0), "exhausting an empty bucket is not a change");
        r.maybe_replenish(50);
        assert!(!r.in_budget(0), "replenish cannot fill a zero bucket");
    }

    #[test]
    fn replenish_survives_clock_saturation() {
        let mut r = reg(7, &[1]);
        assert!(r.consume(0));
        assert!(r.maybe_replenish(u64::MAX)); // must terminate, not loop
        assert_eq!(r.next_replenish(), u64::MAX);
        assert!(r.in_budget(0));
        assert!(!r.maybe_replenish(u64::MAX));
    }

    #[test]
    fn wcet_bounds_and_violations() {
        let cfg = RegulationConfig::new(10_000)
            .rt_class(8, Some(4_000))
            .best_effort();
        let mut r = RegulatorState::new(&cfg);
        assert_eq!(r.wcet_bound(0), Some(4_000));
        assert_eq!(r.wcet_bound(1), None);
        assert_eq!(r.bound_violations(), 0);
        r.note_violation();
        assert_eq!(r.bound_violations(), 1);
    }

    #[test]
    fn snapshot_round_trip() {
        use fqms_sim::snapshot::{SnapshotReader, SnapshotWriter};
        let cfg = RegulationConfig::new(500)
            .rt_class(3, Some(2_000))
            .rt_class(0, None)
            .best_effort();
        let mut a = RegulatorState::new(&cfg);
        a.consume(0);
        a.note_violation();
        let mut w = SnapshotWriter::new(9);
        w.section("regulate", |s| a.save(s));
        let bytes = w.into_bytes();

        let restore_into = |target: &mut RegulatorState| {
            let mut r = SnapshotReader::new(&bytes, 9).unwrap();
            r.section("regulate", |s| target.restore(s))
        };
        let mut b = RegulatorState::new(&cfg);
        restore_into(&mut b).unwrap();
        assert_eq!(a, b);
        // Wrong shape or knobs is a typed error, not a panic.
        let mut narrow = RegulatorState::new(&RegulationConfig::new(500).rt_class(3, None));
        assert!(restore_into(&mut narrow).is_err());
        let mut knobs = RegulatorState::new(
            &RegulationConfig::new(500)
                .rt_class(4, Some(2_000))
                .rt_class(0, None)
                .best_effort(),
        );
        assert!(restore_into(&mut knobs).is_err());
        let mut period = RegulatorState::new(
            &RegulationConfig::new(501)
                .rt_class(3, Some(2_000))
                .rt_class(0, None)
                .best_effort(),
        );
        assert!(restore_into(&mut period).is_err());
    }
}

//! Scheduling policies and priority ordering.
//!
//! All schedulers in the paper share one structural skeleton (bank
//! schedulers feeding a channel scheduler) and differ only in their
//! priority policy:
//!
//! * **FR-FCFS** — 1) ready commands first, 2) CAS over RAS, 3) earliest
//!   *arrival time* first (Rixner et al.),
//! * **FR-VFTF** — same, but 3) earliest *virtual finish time* first,
//! * **FQ-VFTF** — FR-VFTF plus the FQ bank scheduling algorithm of
//!   Section 3.3 that bounds priority-inversion blocking time,
//! * **FCFS** — a strict in-order (per bank) baseline without first-ready
//!   reordering, included as an extra ablation point,
//! * **BLISS** — blacklisting (ISSUE 7): a thread that receives too many
//!   *consecutive* bank services is blacklisted until the next clearing
//!   interval; non-blacklisted requests are prioritized, with FR-FCFS
//!   order among peers,
//! * **SD-VFTF** — slowdown-driven VFTF (ISSUE 7): each thread's virtual
//!   finish time is divided by its online slowdown estimate (measured
//!   shared latency over an intrinsic alone-service model), so the
//!   currently-most-slowed-down thread sorts first among peers.

use crate::request::RequestId;
use std::cmp::Ordering;

/// Which memory scheduling algorithm the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Strict per-bank in-order scheduling (no first-ready reordering).
    Fcfs,
    /// First-Ready First-Come-First-Served (the paper's baseline).
    FrFcfs,
    /// First-Ready Virtual-Finish-Time-First (VFTF priority without the FQ
    /// bank scheduler — the paper's intermediate design point).
    FrVftf,
    /// The full Fair Queuing memory scheduler: VFTF priority plus the
    /// bounded-priority-inversion bank scheduling algorithm.
    FqVftf,
    /// Blacklisting scheduler (BLISS): per-thread consecutive-service
    /// streak counter; crossing `bliss_threshold` blacklists the thread
    /// until the next `bliss_clear_interval` boundary. Non-blacklisted
    /// requests beat blacklisted ones; FR-FCFS order among peers.
    Bliss,
    /// Slowdown-driven VFTF: virtual finish times are divided by each
    /// thread's online slowdown estimate (measured shared latency over an
    /// intrinsic alone-service model), prioritizing the max-slowdown
    /// thread.
    SdVftf,
}

impl SchedulerKind {
    /// True if request priority is the virtual finish time (otherwise it is
    /// the arrival time).
    pub fn uses_vftf(self) -> bool {
        matches!(
            self,
            SchedulerKind::FrVftf | SchedulerKind::FqVftf | SchedulerKind::SdVftf
        )
    }

    /// True if bank schedulers may reorder requests to exploit ready
    /// commands (first-ready scheduling).
    pub fn uses_first_ready(self) -> bool {
        !matches!(self, SchedulerKind::Fcfs)
    }

    /// True if the FQ bank scheduling algorithm (Section 3.3) is active.
    pub fn uses_fq_bank_scheduler(self) -> bool {
        matches!(self, SchedulerKind::FqVftf)
    }

    /// Short display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::FrVftf => "FR-VFTF",
            SchedulerKind::FqVftf => "FQ-VFTF",
            SchedulerKind::Bliss => "BLISS",
            SchedulerKind::SdVftf => "SD-VFTF",
        }
    }

    /// All scheduler kinds, for sweeps.
    pub fn all() -> [SchedulerKind; 6] {
        [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfs,
            SchedulerKind::FrVftf,
            SchedulerKind::FqVftf,
            SchedulerKind::Bliss,
            SchedulerKind::SdVftf,
        ]
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The FQ bank scheduler's configurable bound `x` on priority-inversion
/// blocking time (Section 3.3): after a bank has been active for `x`
/// cycles, the bank scheduler locks onto the earliest-virtual-finish-time
/// request and waits for its command to become ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InversionBound {
    /// Lock after the bank has been active `t_RAS` cycles — the paper's
    /// choice ("a tight bound ... which offers better QoS, but may decrease
    /// data bus utilization").
    #[default]
    TRas,
    /// Lock after a fixed number of active cycles.
    Cycles(u64),
    /// Never lock (degenerates FQ-VFTF into FR-VFTF); useful for ablation.
    Unbounded,
}

impl InversionBound {
    /// Resolves the bound to cycles given the row-active time `t_ras`.
    /// `None` means unbounded.
    pub fn resolve(self, t_ras: u64) -> Option<u64> {
        match self {
            InversionBound::TRas => Some(t_ras),
            InversionBound::Cycles(x) => Some(x),
            InversionBound::Unbounded => None,
        }
    }
}

/// Row-buffer management policy (Section 2.2).
///
/// The paper uses a **closed** row policy throughout ("it has been shown
/// to perform better than an open row policy in multiprocessor systems"),
/// keeping the open policy available as an ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowPolicy {
    /// Close the row (precharge) once no pending request targets it.
    #[default]
    Closed,
    /// Leave rows open until a conflicting request forces a precharge.
    Open,
}

/// Transaction/write buffer organisation.
///
/// The paper statically partitions the controller's buffers per thread and
/// notes that "a more flexible partitioning of memory controller's buffers
/// is possible and is a topic for future research". The shared mode
/// implements the obvious flexible design — one pool any thread may fill —
/// and the ablation shows why the paper partitions: an aggressive thread
/// can occupy the whole pool and starve others *at admission*, defeating
/// the scheduler's QoS no matter how fair its priorities are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BufferSharing {
    /// Per-thread static partitions with independent NACK back-pressure
    /// (the paper's design).
    #[default]
    Partitioned,
    /// One shared pool sized `num_threads x per-thread capacity`;
    /// admission is first-come-first-served across threads.
    Shared,
}

/// Refresh scheduling policy.
///
/// DDR2 devices tolerate postponing a bounded number of refresh commands
/// (up to eight for most parts) as long as the average interval is
/// maintained. A strict controller refreshes the moment the deadline
/// arrives — simple, but it can interrupt a burst of useful work for
/// tRFC cycles. A deferred controller delays refresh while demand
/// traffic is pending, catching up during idle gaps or when the
/// postponement budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefreshPolicy {
    /// Refresh immediately at each deadline (the baseline behaviour).
    #[default]
    Strict,
    /// Postpone up to `max_postponed` refreshes while demand requests are
    /// pending; refresh opportunistically when the controller is idle.
    Deferred {
        /// Maximum refreshes owed before the controller forces catch-up.
        max_postponed: u32,
    },
}

/// When a request's virtual finish time is computed (Section 3.2).
///
/// The paper describes two options and evaluates the second:
///
/// * **at arrival** — assume an *average* bank service requirement for
///   every request and bind the VFT (and update the VTMS registers) using
///   it; simple, but "likely to penalize threads that have lower average
///   bank service requirements, e.g., threads with a large number of open
///   row buffer hits";
/// * **at first-ready** — bind the VFT just before the request is
///   scheduled to begin service, classifying the actual bank state
///   (Table 3); more accurate, the paper's evaluated design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VftBinding {
    /// Bind lazily when the request first becomes a ready scheduling
    /// candidate, using the bank's state at that moment (the paper's
    /// evaluated second solution).
    #[default]
    FirstReady,
    /// Bind at arrival using the closed-bank average service time
    /// (`t_RCD + t_CL`) regardless of actual bank state (the paper's
    /// first solution, kept as an ablation).
    AtArrival,
}

/// The priority of a candidate command, ordered per the paper: ready beats
/// not-ready, then lower tier beats higher (tier is 0 for everything except
/// BLISS-blacklisted threads), CAS beats RAS, then the smaller key (arrival
/// time or virtual finish time) wins, with the admission id as a
/// deterministic final tiebreaker.
///
/// `Priority` is ordered so that **smaller is better** (fits
/// `Iterator::min`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Priority {
    /// Whether the command can issue this cycle.
    pub ready: bool,
    /// Scheduler-assigned priority class; 0 is best. Only BLISS uses a
    /// nonzero tier (1 for blacklisted threads).
    pub tier: u8,
    /// Whether the command is a CAS (read/write).
    pub cas: bool,
    /// Arrival time (FCFS variants) or virtual finish time (VFTF variants).
    pub key: f64,
    /// Admission-order tiebreaker.
    pub id: RequestId,
}

impl Priority {
    fn rank_tuple(&self) -> (u8, u8, u8) {
        (u8::from(!self.ready), self.tier, u8::from(!self.cas))
    }
}

impl Eq for Priority {}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank_tuple()
            .cmp(&other.rank_tuple())
            .then_with(|| self.key.partial_cmp(&other.key).unwrap_or(Ordering::Equal))
            .then_with(|| self.id.cmp(&other.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ready: bool, cas: bool, key: f64, id: u64) -> Priority {
        Priority {
            ready,
            tier: 0,
            cas,
            key,
            id: RequestId::new(id),
        }
    }

    #[test]
    fn ready_dominates() {
        assert!(p(true, false, 100.0, 5) < p(false, true, 1.0, 1));
    }

    #[test]
    fn cas_dominates_key() {
        assert!(p(true, true, 100.0, 5) < p(true, false, 1.0, 1));
    }

    #[test]
    fn tier_dominates_cas_and_key() {
        let blacklisted_cas = Priority {
            tier: 1,
            ..p(true, true, 1.0, 1)
        };
        let clean_ras = p(true, false, 100.0, 9);
        assert!(clean_ras < blacklisted_cas);
    }

    #[test]
    fn ready_dominates_tier() {
        let blacklisted_ready = Priority {
            tier: 1,
            ..p(true, true, 100.0, 9)
        };
        let clean_unready = p(false, true, 1.0, 1);
        assert!(blacklisted_ready < clean_unready);
    }

    #[test]
    fn key_dominates_id() {
        assert!(p(true, true, 1.0, 9) < p(true, true, 2.0, 1));
    }

    #[test]
    fn id_breaks_ties() {
        assert!(p(true, true, 1.0, 1) < p(true, true, 1.0, 2));
    }

    #[test]
    fn min_selects_best() {
        let worst = p(false, false, 0.0, 0);
        let best = p(true, true, 50.0, 3);
        let mid = p(true, false, 10.0, 1);
        let got = [worst, mid, best].into_iter().min().unwrap();
        assert_eq!(got, best);
    }

    #[test]
    fn kind_predicates() {
        assert!(SchedulerKind::FqVftf.uses_vftf());
        assert!(SchedulerKind::FrVftf.uses_vftf());
        assert!(!SchedulerKind::FrFcfs.uses_vftf());
        assert!(SchedulerKind::FrFcfs.uses_first_ready());
        assert!(!SchedulerKind::Fcfs.uses_first_ready());
        assert!(SchedulerKind::FqVftf.uses_fq_bank_scheduler());
        assert!(!SchedulerKind::FrVftf.uses_fq_bank_scheduler());
        assert!(SchedulerKind::SdVftf.uses_vftf());
        assert!(!SchedulerKind::Bliss.uses_vftf());
        assert!(SchedulerKind::Bliss.uses_first_ready());
        assert!(!SchedulerKind::SdVftf.uses_fq_bank_scheduler());
    }

    #[test]
    fn inversion_bound_resolution() {
        assert_eq!(InversionBound::TRas.resolve(18), Some(18));
        assert_eq!(InversionBound::Cycles(7).resolve(18), Some(7));
        assert_eq!(InversionBound::Unbounded.resolve(18), None);
        assert_eq!(InversionBound::default(), InversionBound::TRas);
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(SchedulerKind::FrFcfs.to_string(), "FR-FCFS");
        assert_eq!(SchedulerKind::FqVftf.to_string(), "FQ-VFTF");
        assert_eq!(SchedulerKind::Bliss.to_string(), "BLISS");
        assert_eq!(SchedulerKind::SdVftf.to_string(), "SD-VFTF");
        assert_eq!(SchedulerKind::all().len(), 6);
    }
}

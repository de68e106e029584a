//! Memory-controller configuration, including the two-level share tree
//! for hierarchical phi allocations (ISSUE 6).

use crate::policy::{
    BufferSharing, InversionBound, RefreshPolicy, RowPolicy, SchedulerKind, VftBinding,
};

/// One tenant in a two-level share tree: a fraction of the whole memory
/// system, subdivided among the tenant's member threads by relative
/// weight.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The tenant's share of the memory system; must lie in `(0, 1]`.
    pub share: f64,
    /// Relative (positive) weights of the tenant's member threads. The
    /// tenant owns `weights.len()` consecutive threads.
    pub weights: Vec<f64>,
}

impl TenantSpec {
    /// A tenant whose `n` threads split its share equally.
    pub fn equal(share: f64, n: usize) -> Self {
        TenantSpec {
            share,
            weights: vec![1.0; n],
        }
    }
}

/// A two-level tenant → thread share tree.
///
/// Tenants own consecutive thread-id ranges in declaration order:
/// tenant 0 owns threads `0..tenants[0].weights.len()`, tenant 1 the
/// next block, and so on. Each thread's **effective share** is its
/// tenant's system share multiplied by the thread's normalized weight
/// within the tenant:
///
/// ```text
/// phi_t = tenant.share * w_t / sum(tenant.weights)
/// ```
///
/// Effective shares sum (up to rounding) to the sum of tenant shares, so
/// the flat EDF schedulability condition (`sum phi <= 1`) carries over
/// unchanged and the existing per-thread VTMS machinery implements the
/// hierarchy exactly under full backlog (see DESIGN.md §15 for the GPS
/// equivalence argument and its idle-tenant limitation).
///
/// # Example
///
/// ```
/// use fqms_memctrl::config::{ShareTree, TenantSpec};
///
/// let tree = ShareTree {
///     tenants: vec![
///         TenantSpec { share: 0.5, weights: vec![3.0, 1.0] },
///         TenantSpec::equal(0.5, 2),
///     ],
/// };
/// tree.validate().unwrap();
/// assert_eq!(tree.num_threads(), 4);
/// assert_eq!(tree.effective_shares(), vec![0.375, 0.125, 0.25, 0.25]);
/// assert_eq!(tree.tenant_of(1), 0);
/// assert_eq!(tree.tenant_of(2), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShareTree {
    /// The tenants, in thread order.
    pub tenants: Vec<TenantSpec>,
}

impl ShareTree {
    /// A tree of `tenants` equal-share tenants with `threads_per_tenant`
    /// equal-weight threads each (the symmetric scaling configuration).
    pub fn symmetric(tenants: usize, threads_per_tenant: usize) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        ShareTree {
            tenants: vec![TenantSpec::equal(1.0 / tenants as f64, threads_per_tenant); tenants],
        }
    }

    /// Number of tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Total number of threads across all tenants.
    pub fn num_threads(&self) -> usize {
        self.tenants.iter().map(|t| t.weights.len()).sum()
    }

    /// The tenant owning `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn tenant_of(&self, thread: usize) -> usize {
        let mut base = 0;
        for (i, t) in self.tenants.iter().enumerate() {
            base += t.weights.len();
            if thread < base {
                return i;
            }
        }
        panic!("thread {thread} beyond the tree's {base} threads");
    }

    /// The consecutive thread-id range tenant `tenant` owns.
    pub fn tenant_threads(&self, tenant: usize) -> std::ops::Range<usize> {
        let base: usize = self.tenants[..tenant].iter().map(|t| t.weights.len()).sum();
        base..base + self.tenants[tenant].weights.len()
    }

    /// Flattens the tree to per-thread effective shares
    /// (`phi_t = tenant.share * w_t / sum(tenant.weights)`).
    pub fn effective_shares(&self) -> Vec<f64> {
        let mut shares = Vec::with_capacity(self.num_threads());
        for t in &self.tenants {
            let total: f64 = t.weights.iter().sum();
            shares.extend(t.weights.iter().map(|w| t.share * w / total));
        }
        shares
    }

    /// Validates the tree shape.
    ///
    /// # Errors
    ///
    /// Returns a description if there are no tenants, a tenant has no
    /// threads, a tenant share is outside `(0, 1]`, tenant shares sum to
    /// more than 1 (beyond rounding slack), or a weight is not positive
    /// and finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants.is_empty() {
            return Err("share tree needs at least one tenant".into());
        }
        let mut sum = 0.0;
        for (i, t) in self.tenants.iter().enumerate() {
            if !(t.share > 0.0 && t.share <= 1.0) {
                return Err(format!(
                    "tenant {i} share must be in (0, 1], got {}",
                    t.share
                ));
            }
            if t.weights.is_empty() {
                return Err(format!("tenant {i} has no threads"));
            }
            for (j, &w) in t.weights.iter().enumerate() {
                if !(w > 0.0 && w.is_finite()) {
                    return Err(format!(
                        "tenant {i} thread {j} weight must be positive, got {w}"
                    ));
                }
            }
            sum += t.share;
        }
        if sum > 1.0 + 1e-9 {
            return Err(format!(
                "tenant shares sum to {sum}, exceeding the memory system"
            ));
        }
        Ok(())
    }
}

/// One thread's class under real-time regulation (ISSUE 9): whether it
/// is a real-time thread, its per-period service budget, and its
/// (optional) analytic WCET bound for violation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSpec {
    /// Real-time thread: holds the premium scheduling tier while in
    /// budget. Best-effort threads always run on the demoted tier.
    pub rt: bool,
    /// Bank services (CAS issues) allowed per replenish period. A
    /// zero-budget real-time class is permanently demoted — pure
    /// best-effort behaviour, useful as a regression anchor.
    pub budget: u64,
    /// Analytic worst-case latency bound in DRAM cycles (from
    /// [`crate::wcet::bound_for`]); when set, completions above it are
    /// counted ([`crate::regulate::RegulatorState::bound_violations`])
    /// and emitted as `BoundExceeded` observability events. Only valid
    /// on real-time classes.
    pub wcet: Option<u64>,
}

/// Real-time regulation knob for [`McConfig::regulation`] (ISSUE 9):
/// per-thread bank partitioning plus token-bucket bandwidth budgets,
/// composing with any VFT-based scheduler (the verified configuration is
/// FQ-VFTF). Build with the chained constructor, one class per thread in
/// thread order:
///
/// ```
/// use fqms_memctrl::config::{McConfig, RegulationConfig};
/// use fqms_memctrl::policy::SchedulerKind;
///
/// let cfg = McConfig::paper(3, SchedulerKind::FqVftf).with_regulation(
///     RegulationConfig::new(10_000) // replenish period, DRAM cycles
///         .rt_class(8, None)        // thread 0: 8 services per period
///         .best_effort()            // threads 1-2: unregulated
///         .best_effort(),
/// );
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegulationConfig {
    /// Token-bucket replenish period in DRAM cycles.
    pub period: u64,
    /// Remap each thread's requests into a private contiguous slice of
    /// the global bank space ([`fqms_dram::device::Geometry::partition_slice`]).
    /// Required for the analytic WCET bound to hold; disable only for
    /// regulation-in-isolation studies.
    pub partition: bool,
    /// One class per thread, in thread order; length must equal the
    /// controller's thread count.
    pub classes: Vec<ClassSpec>,
}

impl RegulationConfig {
    /// An empty regulation config with the given replenish period and
    /// partitioning on; chain [`RegulationConfig::rt_class`] /
    /// [`RegulationConfig::best_effort`] once per thread.
    pub fn new(period: u64) -> Self {
        RegulationConfig {
            period,
            partition: true,
            classes: Vec::new(),
        }
    }

    /// Appends a real-time class with `budget` services per period and
    /// an optional analytic WCET bound.
    pub fn rt_class(mut self, budget: u64, wcet: Option<u64>) -> Self {
        self.classes.push(ClassSpec {
            rt: true,
            budget,
            wcet,
        });
        self
    }

    /// Appends an unregulated best-effort class.
    pub fn best_effort(mut self) -> Self {
        self.classes.push(ClassSpec {
            rt: false,
            budget: 0,
            wcet: None,
        });
        self
    }

    /// Sets whether bank partitioning is applied (default: on).
    pub fn partitioned(mut self, on: bool) -> Self {
        self.partition = on;
        self
    }

    /// Validates the regulation shape against a thread count.
    ///
    /// # Errors
    ///
    /// Returns a description if the period is zero, the class count
    /// disagrees with `num_threads`, a WCET bound is zero or attached to
    /// a best-effort class.
    pub fn validate(&self, num_threads: usize) -> Result<(), String> {
        if self.period == 0 {
            return Err("regulation period must be positive".into());
        }
        if self.classes.len() != num_threads {
            return Err(format!(
                "regulation declares {} classes for {num_threads} threads",
                self.classes.len()
            ));
        }
        for (i, c) in self.classes.iter().enumerate() {
            match c.wcet {
                Some(0) => {
                    return Err(format!("class {i}: wcet bound must be positive"));
                }
                Some(_) if !c.rt => {
                    return Err(format!("class {i}: wcet bound requires a real-time class"));
                }
                _ => {}
            }
            if !c.rt && c.budget != 0 {
                return Err(format!(
                    "class {i}: best-effort classes carry no budget, got {}",
                    c.budget
                ));
            }
        }
        Ok(())
    }
}

/// Admission-throttle knob for [`OverloadConfig`] (ISSUE 10): a
/// per-thread token bucket driven by the online slowdown estimate.
///
/// At every replenish boundary the controller reclassifies threads: a
/// thread is a **bandwidth hog** when the worst per-thread slowdown in
/// the system is at least `margin` times its own (hogs run close to
/// their alone speed precisely because they crowd everyone else out).
/// Hogs are token-gated — at most `tokens` admissions per `period` —
/// and refused with [`crate::buffers::Nack::Throttled`] once exhausted.
/// Non-hog and protected threads are never gated.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleConfig {
    /// Token replenish period in DRAM cycles.
    pub period: u64,
    /// Admissions allowed per period while classified a hog (0 gates the
    /// hog completely until the next boundary).
    pub tokens: u64,
    /// Hog-classification ratio: thread `t` is a hog when
    /// `max_slowdown >= margin * slowdown(t)`. Must be at least 1.0;
    /// larger margins throttle fewer threads.
    pub margin: f64,
}

/// Tiered load-shedding knob for [`OverloadConfig`] (ISSUE 10): a
/// saturation detector with hysteresis over buffer occupancy and
/// buffer-full NACK rate.
///
/// At every `window` boundary the controller inspects the occupied
/// transaction-buffer entries and the buffer-full NACKs observed during
/// the window, then moves **one level** along the ladder
/// `Normal → Degraded → Shedding`:
///
/// * escalate when `occupied >= occupancy_enter` **or**
///   `window nacks >= nack_enter`,
/// * de-escalate when `occupied < occupancy_exit` **and**
///   `window nacks < nack_exit`.
///
/// Exit thresholds must sit strictly below their enter counterparts, so
/// a system hovering at the boundary cannot flap. `Degraded` sheds
/// best-effort writebacks; `Shedding` sheds all best-effort requests
/// ([`crate::buffers::ShedClass`]). Only buffer-full NACKs count toward
/// the detector — the shedder's own refusals never feed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedConfig {
    /// Detector evaluation window in DRAM cycles.
    pub window: u64,
    /// Escalate at a boundary when this many transaction-buffer entries
    /// are occupied.
    pub occupancy_enter: usize,
    /// De-escalation requires occupancy strictly below this (must be
    /// `< occupancy_enter`).
    pub occupancy_exit: usize,
    /// Escalate at a boundary when the window saw this many buffer-full
    /// NACKs.
    pub nack_enter: u64,
    /// De-escalation requires window NACKs strictly below this (must be
    /// `< nack_enter`).
    pub nack_exit: u64,
}

/// Overload-control knob for [`McConfig::overload`] (ISSUE 10): a
/// deterministic admission-side control layer — slowdown-feedback
/// throttling of bandwidth hogs plus tiered load shedding under
/// saturation — acting *before* the scheduler ever sees a request.
/// Orthogonal to the scheduler family and to real-time regulation
/// (threads in a real-time class are automatically protected).
///
/// ```
/// use fqms_memctrl::config::{McConfig, OverloadConfig};
/// use fqms_memctrl::policy::SchedulerKind;
///
/// let cfg = McConfig::paper(3, SchedulerKind::FqVftf).with_overload(
///     OverloadConfig::new(3)          // one entry per thread
///         .throttled(2_000, 8, 2.0)   // hogs: 8 admissions / 2000 cycles
///         .shedding(1_000, 40, 24, 64, 16)
///         .protect(0),                // thread 0 is never gated or shed
/// );
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Slowdown-feedback admission throttle; `None` disables throttling.
    pub throttle: Option<ThrottleConfig>,
    /// Tiered load shedding; `None` disables shedding.
    pub shed: Option<ShedConfig>,
    /// Per-thread protection flags (length must equal the thread count):
    /// protected threads are never classified as hogs and never shed.
    /// Real-time regulated threads are protected implicitly.
    pub protected: Vec<bool>,
}

impl OverloadConfig {
    /// An inert overload config for `num_threads` threads: no throttle,
    /// no shedding, nothing protected. Chain [`OverloadConfig::throttled`]
    /// and/or [`OverloadConfig::shedding`] to arm it.
    pub fn new(num_threads: usize) -> Self {
        OverloadConfig {
            throttle: None,
            shed: None,
            protected: vec![false; num_threads],
        }
    }

    /// Arms the admission throttle: hog threads get `tokens` admissions
    /// per `period` cycles; hogs are threads whose slowdown estimate is
    /// `margin` times below the worst in the system.
    pub fn throttled(mut self, period: u64, tokens: u64, margin: f64) -> Self {
        self.throttle = Some(ThrottleConfig {
            period,
            tokens,
            margin,
        });
        self
    }

    /// Arms tiered load shedding with the given detector window and
    /// hysteresis thresholds (see [`ShedConfig`] for the semantics).
    pub fn shedding(
        mut self,
        window: u64,
        occupancy_enter: usize,
        occupancy_exit: usize,
        nack_enter: u64,
        nack_exit: u64,
    ) -> Self {
        self.shed = Some(ShedConfig {
            window,
            occupancy_enter,
            occupancy_exit,
            nack_enter,
            nack_exit,
        });
        self
    }

    /// Marks `thread` as protected: never throttled, never shed.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range for the configured count.
    pub fn protect(mut self, thread: usize) -> Self {
        self.protected[thread] = true;
        self
    }

    /// Validates the overload shape against a thread count.
    ///
    /// # Errors
    ///
    /// Returns a description if neither mechanism is armed, the flag
    /// count disagrees with `num_threads`, a period or window is zero,
    /// the margin is below 1.0 or not finite, or a hysteresis exit
    /// threshold is not strictly below its enter threshold.
    pub fn validate(&self, num_threads: usize) -> Result<(), String> {
        if self.throttle.is_none() && self.shed.is_none() {
            return Err("overload config arms neither throttle nor shedding".into());
        }
        if self.protected.len() != num_threads {
            return Err(format!(
                "overload declares {} protection flags for {num_threads} threads",
                self.protected.len()
            ));
        }
        if let Some(t) = &self.throttle {
            if t.period == 0 {
                return Err("throttle period must be positive".into());
            }
            if !(t.margin.is_finite() && t.margin >= 1.0) {
                return Err(format!(
                    "throttle margin must be finite and >= 1.0, got {}",
                    t.margin
                ));
            }
        }
        if let Some(s) = &self.shed {
            if s.window == 0 {
                return Err("shed window must be positive".into());
            }
            if s.occupancy_exit >= s.occupancy_enter {
                return Err(format!(
                    "shed occupancy hysteresis requires exit < enter, got {} >= {}",
                    s.occupancy_exit, s.occupancy_enter
                ));
            }
            if s.nack_exit >= s.nack_enter {
                return Err(format!(
                    "shed NACK hysteresis requires exit < enter, got {} >= {}",
                    s.nack_exit, s.nack_enter
                ));
            }
        }
        Ok(())
    }
}

/// Configuration of a [`crate::controller::MemoryController`].
///
/// # Example
///
/// ```
/// use fqms_memctrl::config::McConfig;
/// use fqms_memctrl::policy::SchedulerKind;
///
/// let cfg = McConfig::paper(2, SchedulerKind::FqVftf);
/// assert_eq!(cfg.shares, vec![0.5, 0.5]);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Per-thread service shares `phi_i`; must each lie in `(0, 1]` and sum
    /// to at most 1 (the EDF schedulability condition the paper invokes).
    pub shares: Vec<f64>,
    /// Optional two-level tenant → thread share tree. When present,
    /// `shares` must equal `share_tree.effective_shares()` bit-for-bit
    /// (use [`McConfig::hierarchical`], which derives one from the
    /// other); the tree additionally labels threads with tenants for
    /// per-tenant accounting ([`crate::stats::McStats::tenant_totals`]).
    pub share_tree: Option<ShareTree>,
    /// Transaction-buffer entries per thread (paper: 16).
    pub transaction_entries: usize,
    /// Write-buffer entries per thread (paper: 8).
    pub write_entries: usize,
    /// The FQ bank scheduler's priority-inversion bound `x` (paper: tRAS).
    pub inversion_bound: InversionBound,
    /// Row-buffer management policy (paper: closed).
    pub row_policy: RowPolicy,
    /// When virtual finish times are bound (paper: at first-ready).
    pub vft_binding: VftBinding,
    /// Refresh scheduling policy (default: strict).
    pub refresh_policy: RefreshPolicy,
    /// Buffer organisation (default: the paper's static partitions).
    pub buffer_sharing: BufferSharing,
    /// Cache-line size in bytes (paper: 64).
    pub line_bytes: u64,
    /// Starvation-watchdog threshold in DRAM cycles: if a thread with
    /// pending work completes nothing for this many cycles, the controller
    /// emits a `StarvationDetected` observability event and counts it — it
    /// never alters scheduling. `None` (the default) disables the
    /// watchdog.
    pub starvation_threshold: Option<u64>,
    /// BLISS: number of *consecutive* bank services after which a thread
    /// is blacklisted (BLISS paper default: 4). Ignored by other
    /// schedulers.
    pub bliss_threshold: u32,
    /// BLISS: period in DRAM cycles at which all blacklist flags and the
    /// streak counter are cleared (BLISS paper: 10000). Ignored by other
    /// schedulers.
    pub bliss_clear_interval: u64,
    /// Real-time mode (ISSUE 9): per-thread bank partitioning plus
    /// token-bucket bandwidth regulation, prioritizing in-budget
    /// real-time requests over best-effort traffic. `None` (the
    /// default) disables regulation entirely. Mutually exclusive with
    /// [`SchedulerKind::Bliss`], whose blacklist would fight the
    /// regulator for the tier bit. Set via [`McConfig::with_regulation`].
    pub regulation: Option<RegulationConfig>,
    /// Overload control (ISSUE 10): slowdown-feedback admission
    /// throttling plus tiered load shedding in front of the scheduler.
    /// `None` (the default) disables the layer entirely — the admission
    /// path is then bit-identical to a controller built before the layer
    /// existed. Composes with every scheduler and with regulation
    /// (real-time classes are implicitly protected). Set via
    /// [`McConfig::with_overload`].
    pub overload: Option<OverloadConfig>,
}

impl McConfig {
    /// The paper's Table 5 controller configuration for `num_threads`
    /// processors with *equal, static* shares (`phi = 1/n`).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads` is zero.
    pub fn paper(num_threads: usize, scheduler: SchedulerKind) -> Self {
        assert!(num_threads > 0, "need at least one thread");
        Self::with_shares(scheduler, vec![1.0 / num_threads as f64; num_threads])
    }

    /// Same as [`McConfig::paper`] but with explicit (possibly unequal)
    /// shares.
    pub fn with_shares(scheduler: SchedulerKind, shares: Vec<f64>) -> Self {
        McConfig {
            scheduler,
            shares,
            share_tree: None,
            transaction_entries: 16,
            write_entries: 8,
            inversion_bound: InversionBound::TRas,
            row_policy: RowPolicy::Closed,
            vft_binding: VftBinding::FirstReady,
            refresh_policy: RefreshPolicy::Strict,
            buffer_sharing: BufferSharing::Partitioned,
            line_bytes: 64,
            starvation_threshold: None,
            bliss_threshold: 4,
            bliss_clear_interval: 10_000,
            regulation: None,
            overload: None,
        }
    }

    /// Enables real-time regulation. See [`RegulationConfig`] for an
    /// example.
    pub fn with_regulation(mut self, regulation: RegulationConfig) -> Self {
        self.regulation = Some(regulation);
        self
    }

    /// Enables overload control (admission throttling and/or tiered
    /// load shedding). Unlike regulation the layer acts purely at
    /// admission and never touches the scheduling tier. See [`OverloadConfig`] for an example.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }

    /// The paper configuration with hierarchical shares: per-thread
    /// `phi` values are derived from the tree's effective shares.
    ///
    /// # Panics
    ///
    /// Panics if the tree is invalid (construct and
    /// [`ShareTree::validate`] explicitly to handle errors).
    pub fn hierarchical(scheduler: SchedulerKind, tree: ShareTree) -> Self {
        tree.validate().expect("invalid share tree");
        let mut cfg = Self::with_shares(scheduler, tree.effective_shares());
        cfg.share_tree = Some(tree);
        cfg
    }

    /// Number of hardware threads the controller supports.
    pub fn num_threads(&self) -> usize {
        self.shares.len()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description if there are no threads, any share is outside
    /// `(0, 1]`, the shares sum to more than 1 (beyond rounding slack), a
    /// buffer capacity is zero, or the share tree (when present) is
    /// invalid or inconsistent with `shares`.
    pub fn validate(&self) -> Result<(), String> {
        if self.shares.is_empty() {
            return Err("at least one thread share is required".into());
        }
        for (i, &phi) in self.shares.iter().enumerate() {
            if !(phi > 0.0 && phi <= 1.0) {
                return Err(format!("share for thread {i} must be in (0, 1], got {phi}"));
            }
        }
        let sum: f64 = self.shares.iter().sum();
        if sum > 1.0 + 1e-9 {
            return Err(format!("shares sum to {sum}, exceeding the memory system"));
        }
        if let Some(tree) = &self.share_tree {
            tree.validate()?;
            let effective = tree.effective_shares();
            // Bit-equality, not tolerance: `shares` drive the VTMS
            // arithmetic and the snapshot fingerprint; a tree that merely
            // approximates them would silently shift virtual time.
            if effective.len() != self.shares.len()
                || effective
                    .iter()
                    .zip(&self.shares)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err("share_tree effective shares disagree with flat shares \
                     (build via McConfig::hierarchical)"
                    .into());
            }
        }
        if self.transaction_entries == 0 || self.write_entries == 0 {
            return Err("buffer capacities must be positive".into());
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 8 {
            return Err(format!(
                "line_bytes must be a power of two >= 8, got {}",
                self.line_bytes
            ));
        }
        if self.starvation_threshold == Some(0) {
            return Err("starvation_threshold must be positive (or None to disable)".into());
        }
        if self.bliss_threshold == 0 {
            return Err("bliss_threshold must be positive".into());
        }
        if self.bliss_clear_interval == 0 {
            return Err("bliss_clear_interval must be positive".into());
        }
        if let Some(reg) = &self.regulation {
            reg.validate(self.shares.len())?;
            if self.scheduler == SchedulerKind::Bliss {
                return Err(
                    "regulation is mutually exclusive with SchedulerKind::Bliss \
                     (both drive the priority tier)"
                        .into(),
                );
            }
        }
        if let Some(overload) = &self.overload {
            overload.validate(self.shares.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        for n in 1..=8 {
            McConfig::paper(n, SchedulerKind::FqVftf)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn oversubscribed_shares_rejected() {
        let cfg = McConfig::with_shares(SchedulerKind::FqVftf, vec![0.6, 0.6]);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_share_rejected() {
        let cfg = McConfig::with_shares(SchedulerKind::FqVftf, vec![0.0, 0.5]);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn unequal_shares_allowed() {
        let cfg = McConfig::with_shares(SchedulerKind::FqVftf, vec![0.75, 0.25]);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_threads(), 2);
    }

    #[test]
    fn empty_shares_rejected() {
        let cfg = McConfig::with_shares(SchedulerKind::FrFcfs, vec![]);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_watchdog_threshold_rejected() {
        let mut cfg = McConfig::paper(2, SchedulerKind::FqVftf);
        cfg.starvation_threshold = Some(0);
        assert!(cfg.validate().is_err());
        cfg.starvation_threshold = Some(10_000);
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_bliss_knobs_rejected() {
        let mut cfg = McConfig::paper(2, SchedulerKind::Bliss);
        cfg.bliss_threshold = 0;
        assert!(cfg.validate().is_err());
        cfg.bliss_threshold = 4;
        cfg.bliss_clear_interval = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_line_size_rejected() {
        let mut cfg = McConfig::paper(2, SchedulerKind::FrFcfs);
        cfg.line_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn hierarchical_config_derives_effective_shares() {
        let tree = ShareTree {
            tenants: vec![
                TenantSpec {
                    share: 0.5,
                    weights: vec![1.0, 1.0],
                },
                TenantSpec {
                    share: 0.25,
                    weights: vec![2.0, 1.0, 1.0],
                },
            ],
        };
        let cfg = McConfig::hierarchical(SchedulerKind::FqVftf, tree);
        cfg.validate().unwrap();
        assert_eq!(cfg.num_threads(), 5);
        assert_eq!(cfg.shares, vec![0.25, 0.25, 0.125, 0.0625, 0.0625]);
    }

    #[test]
    fn inconsistent_share_tree_rejected() {
        let mut cfg = McConfig::hierarchical(SchedulerKind::FqVftf, ShareTree::symmetric(2, 2));
        cfg.validate().unwrap();
        cfg.shares[0] += 1e-12; // drift: no longer the tree's flattening
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn share_tree_validation_rejects_bad_shapes() {
        assert!(ShareTree { tenants: vec![] }.validate().is_err());
        assert!(ShareTree {
            tenants: vec![TenantSpec::equal(0.5, 0)]
        }
        .validate()
        .is_err());
        assert!(ShareTree {
            tenants: vec![TenantSpec::equal(0.0, 2)]
        }
        .validate()
        .is_err());
        assert!(ShareTree {
            tenants: vec![TenantSpec::equal(0.7, 1), TenantSpec::equal(0.7, 1)]
        }
        .validate()
        .is_err());
        assert!(ShareTree {
            tenants: vec![TenantSpec {
                share: 0.5,
                weights: vec![1.0, -1.0],
            }]
        }
        .validate()
        .is_err());
        ShareTree::symmetric(64, 64).validate().unwrap();
    }

    fn rt_reg(period: u64) -> RegulationConfig {
        RegulationConfig::new(period)
            .rt_class(8, Some(4_000))
            .best_effort()
            .best_effort()
    }

    #[test]
    fn regulation_builder_validates() {
        let cfg = McConfig::paper(3, SchedulerKind::FqVftf).with_regulation(rt_reg(10_000));
        cfg.validate().unwrap();
        let reg = cfg.regulation.as_ref().unwrap();
        assert!(reg.partition);
        assert_eq!(reg.classes.len(), 3);
        assert!(reg.classes[0].rt && !reg.classes[1].rt);
    }

    #[test]
    fn regulation_rejects_bliss_and_bad_shapes() {
        let bliss = McConfig::paper(3, SchedulerKind::Bliss).with_regulation(rt_reg(10_000));
        assert!(bliss.validate().unwrap_err().contains("Bliss"));

        // Class count must match the thread count.
        let wide = McConfig::paper(4, SchedulerKind::FqVftf).with_regulation(rt_reg(10_000));
        assert!(wide.validate().is_err());

        // Period, zero-wcet, wcet-on-best-effort, budget-on-best-effort.
        assert!(rt_reg(0).validate(3).is_err());
        let zero_wcet = RegulationConfig::new(100).rt_class(1, Some(0));
        assert!(zero_wcet.validate(1).is_err());
        let be_wcet = RegulationConfig {
            period: 100,
            partition: true,
            classes: vec![ClassSpec {
                rt: false,
                budget: 0,
                wcet: Some(10),
            }],
        };
        assert!(be_wcet.validate(1).is_err());
        let be_budget = RegulationConfig {
            period: 100,
            partition: true,
            classes: vec![ClassSpec {
                rt: false,
                budget: 3,
                wcet: None,
            }],
        };
        assert!(be_budget.validate(1).is_err());

        // Zero-budget RT classes are explicitly allowed (pure demotion).
        RegulationConfig::new(100)
            .rt_class(0, None)
            .validate(1)
            .unwrap();
    }

    #[test]
    fn symmetric_tree_flattens_to_equal_shares() {
        let tree = ShareTree::symmetric(4, 16);
        assert_eq!(tree.num_threads(), 64);
        let shares = tree.effective_shares();
        assert!(shares.iter().all(|&s| (s - 1.0 / 64.0).abs() < 1e-15));
        assert_eq!(tree.tenant_of(0), 0);
        assert_eq!(tree.tenant_of(63), 3);
        assert_eq!(tree.tenant_threads(2), 32..48);
    }
}

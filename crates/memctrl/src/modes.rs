//! The controller's optional modes behind one set of hooks.
//!
//! Five optional modes sit on top of the paper's scheduler: fault
//! injection, the starvation watchdog, BLISS blacklisting, token-bucket
//! regulation and overload control. Each is one [`Mode`] variant, and the
//! controller holds the configured ones in a [`Modes`] collection whose
//! hooks it calls without naming a mode. The collection keeps one order —
//! fault, watchdog, BLISS, regulation, overload — and every hook runs in
//! it; the order is part of the bit-identity contract (a NACK storm
//! refuses before the overload gate sees the request, and request drops
//! free buffer entries before the watchdog and the overload detector read
//! occupancy). DESIGN.md §20 has the hook contract.

use crate::bliss::BlissState;
use crate::buffers::{Nack, ThreadBuffers};
use crate::config::McConfig;
use crate::controller::Completion;
use crate::overload::OverloadState;
use crate::regulate::RegulatorState;
use crate::request::{RequestKind, ThreadId};
use crate::slowdown::SlowdownEstimator;
use crate::stats::McStats;
use crate::SchedulerKind;
use fqms_obs::{Event, Observer};
use fqms_sim::clock::{DramCycle, NextEvent};
use fqms_sim::fault::{FaultInjector, FaultKind, FaultPlan};
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Runtime state of an attached fault plan. All episode timing is
/// precompiled in the injector; this struct only caches the consequences
/// of activation edges so hot-path predicates stay cheap `&self` reads.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    injector: FaultInjector,
    /// Per-global-bank stall deadline: the bank scheduler proposes nothing
    /// while `now < stall_until[bank]`.
    stall_until: Vec<u64>,
    /// Refresh is forced urgent while `now < pressure_until` (cached on
    /// the activation edge so `refresh_wanted` stays `&self`).
    pressure_until: u64,
}

/// Per-thread starvation watchdog (see `McConfig::starvation_threshold`).
/// Purely observational: it counts and reports stalls, never alters
/// scheduling.
#[derive(Debug, Clone)]
pub(crate) struct WatchdogState {
    threshold: u64,
    /// Last cycle each thread made progress (completion, or the first
    /// admission into an empty partition).
    last_progress: Vec<DramCycle>,
    /// True once the watchdog fired for the current stall episode; re-arms
    /// on the thread's next progress.
    tripped: Vec<bool>,
    /// Earliest cycle any untripped thread with pending work could reach
    /// its stall deadline (`u64::MAX` when none is armed). The per-cycle
    /// check is a single compare against this; the O(threads) deadline
    /// scan runs only when a deadline actually lands. May run stale-low
    /// (a thread progressed after the deadline was recorded), which costs
    /// one extra scan-and-recompute — never a missed trip: deadlines only
    /// move *later* on progress, and [`WatchdogState::progress`] pulls
    /// `next_due` down when a new deadline is armed.
    next_due: u64,
}

impl WatchdogState {
    /// Records progress for thread `t` and re-arms its trip detector.
    fn progress(&mut self, t: usize, now: DramCycle) {
        self.last_progress[t] = now;
        self.tripped[t] = false;
        // This progress arms a fresh deadline; pull the incremental scan
        // trigger down so the deadline cycle is actually checked
        // (essential when `next_due` had drained to `u64::MAX`).
        self.next_due = self
            .next_due
            .min(now.as_u64().saturating_add(self.threshold));
    }

    /// Fires for threads that hold pending work but made no progress for
    /// the threshold: one stat increment and one event per stall episode.
    /// Idle threads are skipped — their stale clocks are rewritten by the
    /// admission that makes them active again.
    fn check<O: Observer>(&mut self, now: u64, ctx: &mut CycleCtx<'_>, obs: &mut O) {
        if now < self.next_due {
            return;
        }
        let mut next = u64::MAX;
        for t in 0..self.last_progress.len() {
            if ctx.buffers[t].transactions_used() == 0 || self.tripped[t] {
                continue;
            }
            let due = self.last_progress[t]
                .as_u64()
                .saturating_add(self.threshold);
            if now >= due {
                self.tripped[t] = true;
                ctx.stats.thread_mut(ThreadId::new(t as u32)).starvations += 1;
                if O::ENABLED {
                    obs.on_event(&Event::StarvationDetected {
                        cycle: now,
                        thread: t as u32,
                        stalled_for: now - self.last_progress[t].as_u64(),
                    });
                }
            } else {
                next = next.min(due);
            }
        }
        self.next_due = next;
    }
}

/// One optional controller mode.
#[derive(Debug, Clone)]
pub(crate) enum Mode {
    /// Deterministic fault injection (`MemoryController::set_fault_plan`).
    Fault(FaultState),
    /// The starvation watchdog (`McConfig::starvation_threshold`).
    Watchdog(WatchdogState),
    /// The BLISS blacklist (`SchedulerKind::Bliss`, [`crate::bliss`]).
    Bliss(BlissState),
    /// Token-bucket regulation (`McConfig::regulation`,
    /// [`crate::regulate`]).
    Regulate(RegulatorState),
    /// Admission throttle and load shedder (`McConfig::overload`,
    /// [`crate::overload`]).
    Overload(OverloadState),
}

/// The controller state a mode reads or writes at a cycle boundary.
pub(crate) struct CycleCtx<'a> {
    pub stats: &'a mut McStats,
    pub buffers: &'a [ThreadBuffers],
    pub slowdown: &'a SlowdownEstimator,
    /// Transaction-buffer entries in use summed over threads.
    pub tx_used: usize,
    /// Receives the selectors of request drops due this cycle; the
    /// controller executes them before the next mode's boundary work.
    pub drops: &'a mut Vec<u64>,
}

/// What a mode's boundary work changed for the scheduler.
#[derive(Debug, Default)]
pub(crate) struct Boundary {
    /// Some thread's priority tier moved.
    pub tiers_changed: bool,
    /// This bank's memoized proposal is stale.
    pub dirty_bank: Option<usize>,
}

/// The buffer-full refusal for a request of `kind`.
pub(crate) fn buffer_full(kind: RequestKind) -> Nack {
    match kind {
        RequestKind::Write => Nack::WriteBufferFull,
        RequestKind::Read => Nack::TransactionBufferFull,
    }
}

impl Mode {
    /// Stable snapshot tag.
    fn tag(&self) -> u8 {
        match self {
            Mode::Fault(_) => 0,
            Mode::Watchdog(_) => 1,
            Mode::Bliss(_) => 2,
            Mode::Regulate(_) => 3,
            Mode::Overload(_) => 4,
        }
    }

    fn next_boundary(&self, now: DramCycle, ev: &mut NextEvent) {
        let mut at = |c: u64| ev.consider(DramCycle::new(c));
        match self {
            Mode::Fault(f) => {
                // Every episode start/end changes scheduling predicates.
                if let Some(b) = f.injector.next_boundary(now.as_u64()) {
                    at(b);
                }
                // Under refresh pressure the refresh machinery re-evaluates
                // every cycle (its readiness is not in the DRAM next-event
                // set when no deadline is due): step the whole episode.
                if now.as_u64() < f.pressure_until {
                    at(now.as_u64() + 1);
                }
            }
            // `next_due` is a never-late bound over every armed deadline.
            Mode::Watchdog(w) => at(w.next_due),
            Mode::Bliss(b) => at(b.next_clear()),
            Mode::Regulate(rg) => at(rg.next_replenish()),
            // Hog reclassification reads the estimator *at* the replenish
            // boundary and the detector reads occupancy *at* the window
            // boundary, so both are stepped.
            Mode::Overload(ov) => {
                at(ov.next_replenish());
                at(ov.next_window());
            }
        }
    }

    /// Boundary work for cycle `now`, before scheduling, so the boundary
    /// cycle already schedules and admits under the new state.
    pub(crate) fn on_cycle<O: Observer>(
        &mut self,
        now: DramCycle,
        ctx: &mut CycleCtx<'_>,
        obs: &mut O,
    ) -> Boundary {
        let n = now.as_u64();
        let mut fx = Boundary::default();
        match self {
            Mode::Fault(f) => {
                let mut injected = |kind, until, bank| {
                    if O::ENABLED {
                        obs.on_event(&Event::FaultInjected {
                            cycle: n,
                            kind,
                            until,
                            bank,
                        });
                    }
                };
                if let Some(e) = f.injector.activated(FaultKind::NackStorm, n) {
                    injected(FaultKind::NackStorm, e.end, None);
                }
                if let Some(e) = f.injector.activated(FaultKind::RefreshPressure, n) {
                    f.pressure_until = f.pressure_until.max(e.end);
                    injected(FaultKind::RefreshPressure, e.end, None);
                }
                if let Some(e) = f.injector.activated(FaultKind::BankStall, n) {
                    let bank = (e.selector % f.stall_until.len() as u64) as usize;
                    f.stall_until[bank] = f.stall_until[bank].max(e.end);
                    fx.dirty_bank = Some(bank);
                    injected(FaultKind::BankStall, e.end, Some(bank as u32));
                }
                f.injector.take_due(FaultKind::RequestDrop, n, ctx.drops);
            }
            Mode::Watchdog(w) => w.check(n, ctx, obs),
            Mode::Bliss(b) => fx.tiers_changed = b.maybe_clear(n),
            Mode::Regulate(rg) => fx.tiers_changed = rg.maybe_replenish(n),
            Mode::Overload(ov) => {
                ov.maybe_replenish(n, ctx.slowdown);
                if let Some((from, to)) = ov.maybe_evaluate(n, ctx.tx_used) {
                    if O::ENABLED {
                        let level = to.as_u8();
                        obs.on_event(&if to > from {
                            Event::SaturationEntered { cycle: n, level }
                        } else {
                            Event::SaturationExited { cycle: n, level }
                        });
                    }
                }
            }
        }
        fx
    }

    fn save(&self, w: &mut SectionWriter) {
        match self {
            Mode::Fault(f) => {
                f.injector.save(w);
                w.put_seq_len(f.stall_until.len());
                for &until in &f.stall_until {
                    w.put_u64(until);
                }
                w.put_u64(f.pressure_until);
            }
            Mode::Watchdog(wd) => {
                w.put_u64(wd.threshold);
                w.put_seq_len(wd.last_progress.len());
                for (&progress, &tripped) in wd.last_progress.iter().zip(&wd.tripped) {
                    w.put_u64(progress.as_u64());
                    w.put_bool(tripped);
                }
                w.put_u64(wd.next_due);
            }
            Mode::Bliss(b) => b.save(w),
            Mode::Regulate(rg) => rg.save(w),
            Mode::Overload(ov) => ov.save(w),
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        match self {
            Mode::Fault(f) => {
                f.injector.restore(r)?;
                let ns = r.seq_len()?;
                if ns != f.stall_until.len() {
                    return Err(r.malformed(format!(
                        "snapshot has {ns} bank-stall deadlines, controller has {}",
                        f.stall_until.len()
                    )));
                }
                for until in &mut f.stall_until {
                    *until = r.get_u64()?;
                }
                f.pressure_until = r.get_u64()?;
            }
            Mode::Watchdog(wd) => {
                let threshold = r.get_u64()?;
                if threshold != wd.threshold {
                    return Err(r.malformed(format!(
                        "watchdog threshold {threshold} != configured {}",
                        wd.threshold
                    )));
                }
                let nw = r.seq_len()?;
                if nw != wd.last_progress.len() {
                    return Err(r.malformed(format!(
                        "snapshot has {nw} watchdog clocks, controller has {}",
                        wd.last_progress.len()
                    )));
                }
                for t in 0..nw {
                    wd.last_progress[t] = DramCycle::new(r.get_u64()?);
                    wd.tripped[t] = r.get_bool()?;
                }
                wd.next_due = r.get_u64()?;
            }
            Mode::Bliss(b) => b.restore(r)?,
            Mode::Regulate(rg) => rg.restore(r)?,
            Mode::Overload(ov) => ov.restore(r)?,
        }
        Ok(())
    }
}

/// The configured modes, in hook order: fault, watchdog, BLISS,
/// regulation, overload.
#[derive(Debug, Clone)]
pub(crate) struct Modes(Vec<Mode>);

impl Modes {
    /// The modes `config` enables. A fault plan is attached separately
    /// ([`Modes::attach_fault`]).
    pub(crate) fn new(config: &McConfig) -> Self {
        let n = config.num_threads();
        let watchdog = config.starvation_threshold.map(|threshold| {
            Mode::Watchdog(WatchdogState {
                threshold,
                last_progress: vec![DramCycle::ZERO; n],
                tripped: vec![false; n],
                next_due: 0,
            })
        });
        let bliss = (config.scheduler == SchedulerKind::Bliss).then(|| {
            Mode::Bliss(BlissState::new(
                n,
                config.bliss_threshold,
                config.bliss_clear_interval,
            ))
        });
        let regulate = config
            .regulation
            .as_ref()
            .map(|reg| Mode::Regulate(RegulatorState::new(reg)));
        let overload = config
            .overload
            .as_ref()
            .map(|o| Mode::Overload(OverloadState::new(o, config.regulation.as_ref())));
        Modes(
            [watchdog, bliss, regulate, overload]
                .into_iter()
                .flatten()
                .collect(),
        )
    }

    /// Attaches a compiled fault plan over `banks` global banks, first in
    /// hook order. An empty plan detaches fault injection.
    pub(crate) fn attach_fault(&mut self, plan: &FaultPlan, banks: usize) {
        self.0.retain(|m| !matches!(m, Mode::Fault(_)));
        if !plan.is_empty() {
            let fault = FaultState {
                injector: FaultInjector::new(plan),
                stall_until: vec![0; banks],
                pressure_until: 0,
            };
            self.0.insert(0, Mode::Fault(fault));
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The `i`-th mode in hook order.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut Mode {
        &mut self.0[i]
    }

    pub(crate) fn fault_injector(&self) -> Option<&FaultInjector> {
        self.0.iter().find_map(|m| match m {
            Mode::Fault(f) => Some(&f.injector),
            _ => None,
        })
    }

    pub(crate) fn bliss(&self) -> Option<&BlissState> {
        self.0.iter().find_map(|m| match m {
            Mode::Bliss(b) => Some(b),
            _ => None,
        })
    }

    pub(crate) fn regulator(&self) -> Option<&RegulatorState> {
        self.0.iter().find_map(|m| match m {
            Mode::Regulate(rg) => Some(rg),
            _ => None,
        })
    }

    pub(crate) fn overload(&self) -> Option<&OverloadState> {
        self.0.iter().find_map(|m| match m {
            Mode::Overload(ov) => Some(ov),
            _ => None,
        })
    }

    /// Offers every mode's next boundary cycle to `ev`.
    pub(crate) fn next_boundary(&self, now: DramCycle, ev: &mut NextEvent) {
        for m in &self.0 {
            m.next_boundary(now, ev);
        }
    }

    /// True when some mode acts on admission attempts ([`Modes::admit`]
    /// or [`Modes::on_refused`] does something), so a refusal is more
    /// than the buffer check and a NACK count.
    pub(crate) fn watch_admission(&self) -> bool {
        self.0
            .iter()
            .any(|m| matches!(m, Mode::Fault(_) | Mode::Overload(_)))
    }

    /// The first mode's refusal of this submission, if any. A NACK storm
    /// refuses like a full buffer; the overload layer sheds before it
    /// throttles.
    pub(crate) fn admit(&mut self, thread: ThreadId, kind: RequestKind, now: u64) -> Option<Nack> {
        self.0.iter_mut().find_map(|m| match m {
            Mode::Fault(f) => f
                .injector
                .active(FaultKind::NackStorm, now)
                .map(|_| buffer_full(kind)),
            Mode::Overload(ov) => ov
                .shed_check(thread.as_u32(), kind == RequestKind::Write)
                .or_else(|| ov.throttle_check(thread.as_u32(), now)),
            _ => None,
        })
    }

    /// Bookkeeping for one refusal. Only buffer-full refusals feed the
    /// saturation detector, so shedding cannot sustain itself.
    pub(crate) fn on_refused(&mut self, nack: Nack) {
        for m in &mut self.0 {
            if let Mode::Overload(ov) = m {
                match nack {
                    Nack::Shed { .. } => ov.note_shed(),
                    Nack::Throttled { .. } => ov.note_throttled(),
                    _ => ov.note_buffer_nack(),
                }
            }
        }
    }

    /// Bookkeeping for one admission. `first` says the request landed in
    /// an empty partition, which starts the thread's pending-work epoch;
    /// admissions on top of a backlog are not progress.
    pub(crate) fn on_admitted(&mut self, thread: ThreadId, first: bool, now: DramCycle) {
        for m in &mut self.0 {
            match m {
                Mode::Watchdog(w) if first => w.progress(thread.as_usize(), now),
                // A hog-classified thread pays one admission token.
                Mode::Overload(ov) => ov.consume(thread.as_u32()),
                _ => {}
            }
        }
    }

    /// Counts one bank service (CAS issue) to `thread`; true when a
    /// priority tier moved (a BLISS blacklisting or a regulator demotion).
    pub(crate) fn on_service(&mut self, thread: ThreadId) -> bool {
        let mut changed = false;
        for m in &mut self.0 {
            changed |= match m {
                Mode::Bliss(b) => b.record_service(thread.as_u32()),
                Mode::Regulate(rg) => rg.consume(thread.as_u32()),
                _ => false,
            };
        }
        changed
    }

    /// Bookkeeping for one completion: watchdog progress, and the WCET
    /// check of a regulated thread (counted and reported above its bound).
    pub(crate) fn on_complete<O: Observer>(&mut self, c: &Completion, now: DramCycle, obs: &mut O) {
        for m in &mut self.0 {
            match m {
                Mode::Watchdog(w) => w.progress(c.thread.as_usize(), now),
                Mode::Regulate(rg) => {
                    let Some(bound) = rg.wcet_bound(c.thread.as_u32()) else {
                        continue;
                    };
                    if c.latency() > bound {
                        rg.note_violation();
                        if O::ENABLED {
                            obs.on_event(&Event::BoundExceeded {
                                cycle: now.as_u64(),
                                thread: c.thread.as_u32(),
                                id: c.id.as_u64(),
                                is_write: c.kind == RequestKind::Write,
                                latency: c.latency(),
                                bound,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The priority tier of `thread`: 1 when BLISS-blacklisted or outside
    /// its real-time budget, else 0. BLISS and regulation are mutually
    /// exclusive (`McConfig::validate`), so at most one mode demotes.
    pub(crate) fn tier(&self, thread: ThreadId) -> u8 {
        u8::from(self.0.iter().any(|m| match m {
            Mode::Bliss(b) => b.is_blacklisted(thread.as_u32()),
            Mode::Regulate(rg) => !rg.in_budget(thread.as_u32()),
            _ => false,
        }))
    }

    /// True while a mode forces refresh urgency (a refresh-pressure
    /// fault episode).
    pub(crate) fn refresh_forced(&self, now: DramCycle) -> bool {
        self.0
            .iter()
            .any(|m| matches!(m, Mode::Fault(f) if now.as_u64() < f.pressure_until))
    }

    /// Per-global-bank stall deadlines, when a mode stalls banks: the
    /// bank scheduler proposes nothing while `now < deadline`.
    pub(crate) fn stall_deadlines(&self) -> Option<&[u64]> {
        self.0.iter().find_map(|m| match m {
            Mode::Fault(f) => Some(f.stall_until.as_slice()),
            _ => None,
        })
    }

    /// One section per mode, tagged, in hook order.
    pub(crate) fn save(&self, w: &mut SectionWriter) {
        w.put_seq_len(self.0.len());
        for m in &self.0 {
            w.put_u8(m.tag());
            m.save(w);
        }
    }

    /// Restores [`Modes::save`]'s sections; the snapshot must carry
    /// exactly the modes this controller was built with.
    pub(crate) fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let n = r.seq_len()?;
        if n != self.0.len() {
            return Err(r.malformed(format!(
                "snapshot carries {n} controller modes, controller has {}",
                self.0.len()
            )));
        }
        for m in &mut self.0 {
            let tag = r.get_u8()?;
            if tag != m.tag() {
                return Err(r.malformed(format!(
                    "snapshot carries mode {tag} where the controller has mode {}",
                    m.tag()
                )));
            }
            m.restore(r)?;
        }
        Ok(())
    }
}

//! Differential scheduler tests (ISSUE satellite): the same seeded
//! request mixes are pushed through FCFS / FR-FCFS / FR-VFTF / FQ-VFTF
//! and the runs are compared *against each other* through the new
//! observability metrics sinks:
//!
//! 1. every scheduler services the same total number of requests
//!    (scheduling reorders work, it never creates or loses it);
//! 2. under an interference mix, FQ-VFTF keeps the QoS thread's read
//!    latency no worse than FR-FCFS (the paper's headline claim);
//! 3. the FQ bank scheduler's priority-inversion bound `x = tRAS` is
//!    never exceeded — replayed from the recorded event stream, not from
//!    controller internals.

use fqms_memctrl::engine::{
    interference_workload, simulate_serial, synthetic_workload, EngineSpec, SubmitEvent,
};
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::rng::SimRng;
use std::collections::HashMap;

fn spec_with(kind: SchedulerKind, channels: usize, threads: usize) -> EngineSpec {
    let mut spec = EngineSpec::paper(channels, threads);
    spec.config.scheduler = kind;
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec
}

/// Completed requests according to the metrics sink (not the controller's
/// own stats): the differential comparisons below are deliberately driven
/// through the observability layer.
fn sink_completed(sink: &MetricsSink) -> u64 {
    sink.iter().map(|(_, t)| t.completed()).sum()
}

#[test]
fn every_scheduler_services_the_same_total() {
    let events = synthetic_workload(4, 3_000, 0.4, 2006);
    let mut totals = Vec::new();
    for kind in SchedulerKind::all() {
        let spec = spec_with(kind, 2, 4);
        let report = simulate_serial(&spec, &events).unwrap();
        assert_eq!(report.unsubmitted, 0, "{kind}: mix failed to drain");
        let sink = &report.observations.as_ref().unwrap().metrics;
        let completed = sink_completed(sink);
        assert_eq!(
            completed as usize,
            events.len(),
            "{kind}: sink disagrees with the submitted mix"
        );
        assert_eq!(
            completed as usize,
            report.total_completed(),
            "{kind}: sink disagrees with the engine report"
        );
        totals.push((kind, completed));
    }
    let (_, first) = totals[0];
    for (kind, n) in &totals {
        assert_eq!(*n, first, "{kind} serviced a different total");
    }
}

#[test]
fn fq_vftf_bounds_qos_thread_latency_under_interference() {
    // Thread 0 is a light, high-locality QoS thread; threads 1..3 are
    // bandwidth hogs. Under FR-FCFS the hogs' row hits chain ahead of the
    // QoS thread; FQ-VFTF's virtual-finish-time ranking plus the
    // inversion bound must keep its mean read latency no worse.
    let events = interference_workload(4, 6_000, 0.05, 0.8, 2006);
    let mut mean_by_kind = HashMap::new();
    for kind in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
        let spec = spec_with(kind, 1, 4);
        let report = simulate_serial(&spec, &events).unwrap();
        assert_eq!(report.unsubmitted, 0, "{kind}: mix failed to drain");
        let sink = &report.observations.as_ref().unwrap().metrics;
        let qos = sink.thread(0);
        assert!(qos.read_latency.count() > 100, "{kind}: QoS thread starved");
        mean_by_kind.insert(kind.name(), qos.read_latency.mean());
    }
    let fr = mean_by_kind["FR-FCFS"];
    let fq = mean_by_kind["FQ-VFTF"];
    assert!(
        fq <= fr,
        "QoS thread read latency regressed under FQ-VFTF: {fq:.1} vs {fr:.1} cycles"
    );
}

/// A deliberately bank-contended mix: four threads over a tiny footprint
/// (256 lines), so row-hit chains form and activations regularly outlive
/// the inversion bound.
fn contended_workload(cycles: u64, seed: u64) -> Vec<SubmitEvent> {
    let mut rng = SimRng::new(seed);
    let mut events = Vec::new();
    for c in 1..=cycles {
        for t in 0..4u32 {
            if rng.chance(0.8) {
                let kind = if rng.chance(0.2) {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                events.push(SubmitEvent {
                    at: DramCycle::new(c),
                    thread: ThreadId::new(t),
                    kind,
                    phys: rng.next_below(256) * 64,
                });
            }
        }
    }
    events
}

/// A pending request reconstructed from the event stream.
#[derive(Clone, Copy)]
struct ReplayedRequest {
    bank: u32,
    vft: Option<f64>,
}

#[test]
fn inversion_bound_is_never_exceeded() {
    // Replay the recorded event stream and check the paper's bounded
    // priority-inversion property (Section 3.3) from the outside: once a
    // bank has been continuously active for `x = tRAS` cycles, any CAS it
    // issues must serve the earliest-virtual-finish-time request pending
    // on that bank — row hits may no longer chain ahead of it.
    let spec = spec_with(SchedulerKind::FqVftf, 1, 4);
    let x = spec
        .config
        .inversion_bound
        .resolve(spec.timing.t_ras)
        .expect("paper config bounds inversion");
    assert_eq!(x, 18, "paper bound is tRAS = 18 DRAM cycles");

    let events = contended_workload(4_000, 17);
    let report = simulate_serial(&spec, &events).unwrap();
    let obs = report.observations.as_ref().unwrap();
    assert!(
        obs.metrics.inversion_locks > 0,
        "bound never tripped: vacuous test"
    );

    for stream in &obs.event_streams {
        assert!(
            !stream.overflowed(),
            "ring too small: replay would be partial"
        );
        // Per-bank cycle of the most recent activate, while the bank is open.
        let mut active_since: HashMap<u32, u64> = HashMap::new();
        let mut pending: HashMap<u64, ReplayedRequest> = HashMap::new();
        let mut checked = 0u64;
        for ev in stream.iter() {
            match *ev {
                Event::Arrival { id, bank, .. } => {
                    pending.insert(id, ReplayedRequest { bank, vft: None });
                }
                Event::VftBound { id, vft, .. } => {
                    if let Some(r) = pending.get_mut(&id) {
                        r.vft = Some(vft);
                    }
                }
                Event::CommandIssued {
                    cycle,
                    kind,
                    bank,
                    id,
                    ..
                } => {
                    match kind {
                        fqms_dram::command::CommandKind::Activate => {
                            active_since.insert(bank.unwrap(), cycle);
                        }
                        fqms_dram::command::CommandKind::Precharge => {
                            active_since.remove(&bank.unwrap());
                        }
                        fqms_dram::command::CommandKind::Refresh => {
                            // Rank-wide: the event carries no bank, so
                            // conservatively forget every activation.
                            active_since.clear();
                        }
                        fqms_dram::command::CommandKind::Read
                        | fqms_dram::command::CommandKind::Write => {
                            let bank = bank.unwrap();
                            let id = id.expect("queued CAS has an owner");
                            let locked = active_since
                                .get(&bank)
                                .is_some_and(|&a| cycle.saturating_sub(a) >= x);
                            if locked {
                                let issued = pending[&id];
                                let issued_vft =
                                    issued.vft.expect("locked ranking binds every VFT");
                                for (&other_id, other) in &pending {
                                    if other_id == id || other.bank != bank {
                                        continue;
                                    }
                                    let other_vft =
                                        other.vft.expect("locked ranking binds every VFT");
                                    assert!(
                                        (other_vft, other_id) >= (issued_vft, id),
                                        "cycle {cycle}: bank {bank} active >= {x} cycles \
                                         issued CAS for request {id} (vft {issued_vft}) \
                                         past earlier-VFT request {other_id} (vft {other_vft})"
                                    );
                                }
                                checked += 1;
                            }
                            pending.remove(&id);
                        }
                    }
                }
                _ => {}
            }
        }
        assert!(checked > 0, "no CAS ever issued under lock: vacuous test");
    }
}

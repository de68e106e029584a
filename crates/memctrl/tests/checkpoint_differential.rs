//! Kill-and-resume differential suite (release gate): for every
//! scheduler × refresh policy × fault plan, killing a run at an arbitrary
//! cycle, checkpointing, and resuming must reproduce the uninterrupted
//! run **bit for bit** — same completions, same per-thread stats, same
//! recorded event streams and metrics. Corruption of the checkpoint must
//! fail with a typed error, never resume silently wrong.
//!
//! Kill cycles are drawn across the whole run (early, mid-epoch, at an
//! epoch boundary, late) because the checkpoint boundary logic differs at
//! each: an epoch split must be semantically invisible.

use fqms_memctrl::engine::{
    resume_parallel, resume_serial, simulate_parallel_checkpointed, simulate_serial,
    simulate_serial_checkpointed, synthetic_workload, EngineSpec, ResumeError, RetryPolicy,
};
use fqms_memctrl::policy::RefreshPolicy;
use fqms_memctrl::prelude::*;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};

/// Every fault class in one plan, windowed over the active part of the
/// run so kills land both inside and outside fault episodes.
fn faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::NackStorm,
            FaultWindow::new(300, 5_000),
            0.002,
            90,
        )
        .with(
            FaultKind::BankStall,
            FaultWindow::new(300, 5_000),
            0.002,
            110,
        )
        .with(
            FaultKind::RefreshPressure,
            FaultWindow::new(300, 5_000),
            0.001,
            70,
        )
        .with(
            FaultKind::RequestDrop,
            FaultWindow::new(300, 5_000),
            0.003,
            1,
        )
}

fn spec_for(
    scheduler: SchedulerKind,
    refresh: RefreshPolicy,
    plan: Option<FaultPlan>,
) -> EngineSpec {
    let mut spec = EngineSpec::paper(2, 4);
    spec.config.scheduler = scheduler;
    spec.config.refresh_policy = refresh;
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.fault_plan = plan.clone();
    if plan.is_some() {
        // Bounded retries so NACK storms exercise the port's retry state
        // across the kill boundary too.
        spec.retry = RetryPolicy::bounded(6, 2, 64);
    }
    spec
}

#[test]
fn kill_and_resume_is_bit_identical_across_the_config_matrix() {
    let schedulers = [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfs,
        SchedulerKind::FqVftf,
        SchedulerKind::Bliss,
        SchedulerKind::SdVftf,
    ];
    let refreshes = [
        RefreshPolicy::Strict,
        RefreshPolicy::Deferred { max_postponed: 4 },
    ];
    let events = synthetic_workload(4, 4_000, 0.4, 2006);

    for scheduler in schedulers {
        for refresh in refreshes {
            for plan in [None, Some(faults(11))] {
                let spec = spec_for(scheduler, refresh, plan.clone());
                let reference = simulate_serial(&spec, &events).unwrap();
                let ctx = format!("{scheduler:?}/{refresh:?}/faults={}", plan.is_some());
                // Early, mid-epoch, exactly-on-epoch-boundary, and late
                // kills, plus a kill at the boundary where the run drains
                // (the resume's interrupted window is empty); all must be
                // invisible after resume.
                for kill_at in [97, 1_500, 2_048, reference.cycles - 311, reference.cycles] {
                    let bytes = simulate_serial_checkpointed(&spec, &events, kill_at)
                        .unwrap_or_else(|e| panic!("{ctx}: checkpoint at {kill_at}: {e}"));
                    let resumed = resume_serial(&spec, &events, &bytes)
                        .unwrap_or_else(|e| panic!("{ctx}: resume from {kill_at}: {e}"));
                    assert_eq!(
                        reference, resumed,
                        "{ctx}: kill at {kill_at} changed the run"
                    );
                    // The PR 8 free-running executor joins the kill
                    // matrix: its checkpoint must be the same bytes, and
                    // its resume the same run.
                    let par_bytes = simulate_parallel_checkpointed(&spec, &events, kill_at, 3)
                        .unwrap_or_else(|e| panic!("{ctx}: parallel checkpoint at {kill_at}: {e}"));
                    assert_eq!(
                        bytes, par_bytes,
                        "{ctx}: parallel checkpoint bytes diverged at {kill_at}"
                    );
                    let resumed_par = resume_parallel(&spec, &events, &bytes, 3)
                        .unwrap_or_else(|e| panic!("{ctx}: parallel resume from {kill_at}: {e}"));
                    assert_eq!(
                        reference, resumed_par,
                        "{ctx}: parallel resume at {kill_at} changed the run"
                    );
                }
            }
        }
    }
}

#[test]
fn resume_rejects_cross_config_checkpoints() {
    // A checkpoint taken under one scheduler must not resume under
    // another: the fingerprint binds the bytes to the full spec.
    let events = synthetic_workload(4, 3_000, 0.4, 7);
    let fq = spec_for(SchedulerKind::FqVftf, RefreshPolicy::Strict, None);
    let bytes = simulate_serial_checkpointed(&fq, &events, 1_000).unwrap();

    let fr = spec_for(SchedulerKind::FrFcfs, RefreshPolicy::Strict, None);
    match resume_serial(&fr, &events, &bytes) {
        Err(ResumeError::Snapshot(fqms_sim::snapshot::SnapshotError::ConfigMismatch {
            ..
        })) => {}
        other => panic!("cross-scheduler resume not rejected: {other:?}"),
    }

    let deferred = spec_for(
        SchedulerKind::FqVftf,
        RefreshPolicy::Deferred { max_postponed: 4 },
        None,
    );
    assert!(
        resume_serial(&deferred, &events, &bytes).is_err(),
        "cross-refresh-policy resume not rejected"
    );

    let faulted = spec_for(
        SchedulerKind::FqVftf,
        RefreshPolicy::Strict,
        Some(faults(3)),
    );
    assert!(
        resume_serial(&faulted, &events, &bytes).is_err(),
        "cross-fault-plan resume not rejected"
    );

    // The new schedulers are bound into the fingerprint too: a BLISS
    // checkpoint (which serializes blacklist state) must not resume under
    // SD-VFTF (which does not), and vice versa.
    let bliss = spec_for(SchedulerKind::Bliss, RefreshPolicy::Strict, None);
    let bliss_bytes = simulate_serial_checkpointed(&bliss, &events, 1_000).unwrap();
    let sd = spec_for(SchedulerKind::SdVftf, RefreshPolicy::Strict, None);
    assert!(
        resume_serial(&sd, &events, &bliss_bytes).is_err(),
        "BLISS checkpoint resumed under SD-VFTF"
    );
    let sd_bytes = simulate_serial_checkpointed(&sd, &events, 1_000).unwrap();
    assert!(
        resume_serial(&bliss, &events, &sd_bytes).is_err(),
        "SD-VFTF checkpoint resumed under BLISS"
    );
}

//! Selection differential suite (release gate): the bank scheduler has
//! one selection path — the O(log n) tiered index in `select.rs` — and
//! it must make exactly the decisions of the O(n) linear scan it
//! replaced. Every scheduler kind, the refresh / fault /
//! binding / workload variants most likely to expose a candidate-set
//! divergence, and the two runtime priority-tier sources (the BLISS
//! blacklist and the real-time regulator) run over seeded schedules, and
//! each [`EngineReport`] is digested in full — completions, per-thread
//! stats, command logs (where enabled), observed event streams, and even
//! the `stepped_cycles` / `skipped_cycles` diagnostics — and compared
//! with the digest the linear scan produced on the same inputs, recorded
//! in [`LINEAR_DIGESTS`] when that scan was still a runtime path. Debug
//! builds additionally re-rank every bank queue linearly on every pick
//! and assert the indexed winner (`propose_reference` in the
//! controller).
//!
//! The suite also covers the hierarchical share tree end to end: a
//! two-level tenant → thread allocation must kill-and-resume bit
//! identically, and corrupted checkpoint bytes must fail with a typed
//! `SnapshotError`, never panic or resume silently wrong.

use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::engine::{
    adversarial_workload, interference_workload, realtime_workload, resume_serial, simulate_serial,
    simulate_serial_checkpointed, synthetic_workload, EngineReport, EngineSpec, ResumeError,
    RetryPolicy, SubmitEvent,
};
use fqms_memctrl::policy::{RefreshPolicy, RowPolicy, VftBinding};
use fqms_memctrl::prelude::*;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use fqms_sim::rng::{CaseRunner, SimRng};
use fqms_sim::snapshot::Fingerprint;

/// Digest of each labelled run under the linear reference scan
/// (`Fingerprint` of `format!("{report:?}")`, see [`digest`]). A change
/// that alters these reports on purpose must re-record the digests from
/// a debug build, where every pick is still checked against the linear
/// ranking.
const LINEAR_DIGESTS: &[(&str, u64)] = &[
    (
        "FR-FCFS/Deferred { max_postponed: 4 }/faults=false",
        0xe3c9ed7eeec9d43d,
    ),
    ("FR-FCFS/Strict/faults=false", 0x104850c9df6c8733),
    ("Open/FirstReady", 0xa4111366c8e7bf4e),
    ("adversarial/FR-VFTF", 0x2361189888967937),
    ("bliss/faults", 0xdcb7aab9540ab425),
    ("regulated/FCFS/faults=true", 0xa17da84a364e82ec),
    ("regulated/FR-FCFS/faults=false", 0x87a6d5130f0c5fb0),
    ("BLISS", 0x1fbfee87868bebe2),
    ("Closed/AtArrival", 0x2886923b384b2c7f),
    ("Closed/FirstReady", 0xe1b2c7fdc4639d28),
    ("FCFS", 0xf8158adb5948e0e1),
    ("FQ-VFTF", 0xf3312aea38344901),
    (
        "FQ-VFTF/Deferred { max_postponed: 4 }/faults=false",
        0x90da16ba89de054d,
    ),
    (
        "FQ-VFTF/Deferred { max_postponed: 4 }/faults=true",
        0xdb6875500b80fd0f,
    ),
    ("FQ-VFTF/Strict/faults=false", 0x21f4b6783a7af9ef),
    ("FQ-VFTF/Strict/faults=true", 0x57ee693eafe478b3),
    ("FR-FCFS", 0xb99e2053b4f2b0d7),
    (
        "FR-FCFS/Deferred { max_postponed: 4 }/faults=true",
        0x16897ee030e1e8f0,
    ),
    ("FR-FCFS/Strict/faults=true", 0x925fa48e010efd95),
    ("FR-VFTF", 0xbca774b54e3da9ff),
    ("Open/AtArrival", 0x8b7d6483133b9742),
    ("SD-VFTF", 0xa6832f7380e22bc2),
    (
        "SD-VFTF/Deferred { max_postponed: 4 }/faults=false",
        0x84a9369bb5ee2eb9,
    ),
    (
        "SD-VFTF/Deferred { max_postponed: 4 }/faults=true",
        0x0e49d472f36c0414,
    ),
    ("SD-VFTF/Strict/faults=false", 0x23d58c44ea577cd0),
    ("SD-VFTF/Strict/faults=true", 0x02f2ce154673e2ab),
    ("adversarial/FQ-VFTF", 0x3532d9e46f1fe0a4),
    ("adversarial/FR-FCFS", 0xf56b05b76c20f25e),
    ("adversarial/SD-VFTF", 0x6223a04c9f017217),
    ("bliss", 0x5a1250959381b4d3),
    ("bliss/cycle-by-cycle", 0x0df7d4afa7bd4dec),
    ("interference", 0x7eda3a6003106a9d),
    ("regulated/FCFS/faults=false", 0x87a6d5130f0c5fb0),
    ("regulated/FQ-VFTF/faults=false", 0x6bcaffc2540e6d89),
    ("regulated/FQ-VFTF/faults=true", 0xff58e38df28adb70),
    ("regulated/FR-FCFS/faults=true", 0xa17da84a364e82ec),
    ("regulated/SD-VFTF/faults=false", 0x6a4dfd501a6d5f50),
    ("regulated/SD-VFTF/faults=true", 0x87b8216ef11aacc5),
    ("tree/FQ-VFTF", 0xab2c8ab4e114de07),
    ("tree/FR-VFTF", 0x41f270844624fb3e),
    ("tree/SD-VFTF", 0xf2e0c7b2130710a2),
    ("regulated-mix/FCFS", 0x300fae773dc43b7e),
    ("regulated-mix/FR-FCFS", 0x13d2fe8f9d8bb414),
    ("regulated-mix/FQ-VFTF", 0x1ad499482d39e63d),
];

fn spec_with(kind: SchedulerKind, channels: usize, threads: usize) -> EngineSpec {
    let mut spec = EngineSpec::paper(channels, threads);
    spec.config.scheduler = kind;
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec
}

/// Every fault class in one plan, so drops, NACK storms, bank stalls and
/// refresh pressure all hit the selection index.
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

fn digest(report: &EngineReport) -> u64 {
    Fingerprint::new("select-differential")
        .push_str(&format!("{report:?}"))
        .finish()
}

/// Runs `spec` and demands the linear reference's digest for `label`.
/// Returns the report for extra assertions.
fn check(spec: EngineSpec, events: &[SubmitEvent], label: &str) -> EngineReport {
    let report = simulate_serial(&spec, events).unwrap();
    let &(_, want) = LINEAR_DIGESTS
        .iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("{label}: no linear-reference digest recorded"));
    assert_eq!(
        digest(&report),
        want,
        "{label}: indexed selection diverged from the linear reference"
    );
    report
}

#[test]
fn all_schedulers_agree_across_scan_kinds() {
    // Parameterized over the *whole* scheduler enum: every scheduler,
    // BLISS included, runs on the one indexed path and must reproduce
    // its linear-reference digest.
    let events = synthetic_workload(4, 4_000, 0.3, 2006);
    for kind in SchedulerKind::all() {
        let report = check(spec_with(kind, 2, 4), &events, kind.name());
        assert!(report.unsubmitted == 0, "{kind}: mix failed to drain");
        assert!(
            report.completions.iter().map(Vec::len).sum::<usize>() > 0,
            "{kind}: vacuous equivalence — nothing completed"
        );
    }
}

#[test]
fn refresh_and_fault_matrix_agrees_across_scan_kinds() {
    let events = synthetic_workload(4, 6_000, 0.25, 99);
    for refresh in [
        RefreshPolicy::Strict,
        RefreshPolicy::Deferred { max_postponed: 4 },
    ] {
        for plan in [None, Some(faults(11))] {
            for kind in [
                SchedulerKind::FrFcfs,
                SchedulerKind::FqVftf,
                SchedulerKind::SdVftf,
            ] {
                let mut spec = spec_with(kind, 2, 4);
                spec.timing = TimingParams::ddr2_667();
                spec.config.refresh_policy = refresh;
                spec.fault_plan = plan.clone();
                if plan.is_some() {
                    spec.retry = RetryPolicy::bounded(6, 2, 64);
                }
                let label = format!("{kind}/{refresh:?}/faults={}", plan.is_some());
                check(spec, &events, &label);
            }
        }
    }
}

#[test]
fn binding_and_row_policy_variants_agree_across_scan_kinds() {
    // At-arrival binding keys every entry at push (no bind pre-pass);
    // first-ready binding exercises the admission-ordered lazy pass.
    // Closed-row policy changes which tournament queries run per cycle.
    let events = synthetic_workload(4, 4_000, 0.2, 7);
    for (row, binding) in [
        (RowPolicy::Open, VftBinding::FirstReady),
        (RowPolicy::Closed, VftBinding::AtArrival),
        (RowPolicy::Open, VftBinding::AtArrival),
        (RowPolicy::Closed, VftBinding::FirstReady),
    ] {
        let mut spec = spec_with(SchedulerKind::FqVftf, 2, 4);
        spec.config.row_policy = row;
        spec.config.vft_binding = binding;
        check(spec, &events, &format!("{row:?}/{binding:?}"));
    }
}

#[test]
fn adversarial_inversion_lock_agrees_across_scan_kinds() {
    // The starvation-adversarial mix drives the priority-inversion lock
    // (locked-mode selection uses the global tournament min, the trickiest
    // indexed code path) and the watchdog.
    let events = adversarial_workload(&Geometry::paper(), 3, 20_000, 2006);
    for kind in [
        SchedulerKind::FrFcfs,
        SchedulerKind::FrVftf,
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
    ] {
        let mut spec = spec_with(kind, 1, 3);
        spec.config.starvation_threshold = Some(300);
        check(spec, &events, &format!("adversarial/{kind}"));
    }
}

#[test]
fn interference_mix_agrees_across_scan_kinds() {
    let events = interference_workload(4, 6_000, 0.05, 0.8, 2006);
    check(
        spec_with(SchedulerKind::FqVftf, 1, 4),
        &events,
        "interference",
    );
}

/// A two-level share tree equivalent to the paper's flat equal-share
/// setup on 4 threads: two tenants at 0.5, two equally-weighted threads
/// each.
fn two_tenant_spec(kind: SchedulerKind) -> EngineSpec {
    let mut spec = spec_with(kind, 2, 4);
    let tree = ShareTree::symmetric(2, 2);
    spec.config.shares = tree.effective_shares();
    spec.config.share_tree = Some(tree);
    spec
}

#[test]
fn hierarchical_share_tree_agrees_across_scan_kinds() {
    let events = synthetic_workload(4, 5_000, 0.3, 17);
    for kind in [
        SchedulerKind::FrVftf,
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
    ] {
        check(two_tenant_spec(kind), &events, &format!("tree/{kind}"));
    }
}

#[test]
fn hierarchical_indexed_kill_and_resume_is_bit_identical() {
    // Kill-and-resume with a share tree: the queue snapshot stores only
    // admission-ordered live entries; heaps, the
    // tournament, and the watchdog deadline cache are rebuilt or restored
    // such that the continuation is bit-exact, mid-epoch included.
    let events = synthetic_workload(4, 4_000, 0.4, 2006);
    for plan in [None, Some(faults(11))] {
        let mut spec = two_tenant_spec(SchedulerKind::FqVftf);
        spec.config.starvation_threshold = Some(300);
        spec.fault_plan = plan.clone();
        if plan.is_some() {
            spec.retry = RetryPolicy::bounded(6, 2, 64);
        }
        let reference = simulate_serial(&spec, &events).unwrap();
        let ctx = format!("tree/faults={}", plan.is_some());
        for kill_at in [97, 1_500, 2_048, reference.cycles - 311] {
            let bytes = simulate_serial_checkpointed(&spec, &events, kill_at)
                .unwrap_or_else(|e| panic!("{ctx}: checkpoint at {kill_at}: {e}"));
            let resumed = resume_serial(&spec, &events, &bytes)
                .unwrap_or_else(|e| panic!("{ctx}: resume from {kill_at}: {e}"));
            assert_eq!(
                reference, resumed,
                "{ctx}: kill at {kill_at} changed the run"
            );
        }
    }
}

fn bliss_spec() -> EngineSpec {
    let mut spec = spec_with(SchedulerKind::Bliss, 2, 4);
    spec.log_capacity = Some(1 << 20);
    spec
}

#[test]
fn bliss_matches_the_linear_reference() {
    // The blacklist tier moves a thread's queued entries between the
    // index's tiers at runtime (threshold crossings and clearing
    // intervals — the run spans two clearings), under faults and on the
    // cycle-by-cycle path too.
    let events = synthetic_workload(4, 25_000, 0.3, 2006);
    check(bliss_spec(), &events, "bliss");
    let mut spec = bliss_spec();
    spec.fault_plan = Some(faults(11));
    spec.retry = RetryPolicy::bounded(6, 2, 64);
    check(spec, &events, "bliss/faults");
    let mut spec = bliss_spec();
    spec.fast_forward = false;
    check(spec, &events, "bliss/cycle-by-cycle");
}

/// Two budgeted real-time threads and two best-effort threads, 2
/// channels, with the regulator as the tier source.
fn regulated_spec(kind: SchedulerKind) -> EngineSpec {
    let mut spec = EngineSpec::paper(2, 4);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.log_capacity = Some(1 << 20);
    let reg = RegulationConfig::new(1_500)
        .rt_class(4, None)
        .rt_class(4, None)
        .best_effort()
        .best_effort();
    spec.config = spec.config.with_regulation(reg);
    spec.config.scheduler = kind;
    spec
}

#[test]
fn regulated_runs_match_the_linear_reference() {
    // Budget exhaustion demotes a real-time thread and every replenish
    // boundary promotes it back; the FQ-VFTF locked pick must ignore the
    // tier yet carry it to the channel scheduler.
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfs,
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
    ] {
        for plan in [None, Some(faults(11))] {
            let mut spec = regulated_spec(kind);
            let reg = spec.config.regulation.clone().unwrap();
            let events = realtime_workload(&reg, 4, 20_000, 0.6, 31);
            spec.fault_plan = plan.clone();
            if plan.is_some() {
                spec.retry = RetryPolicy::bounded(6, 2, 64);
            }
            check(
                spec,
                &events,
                &format!("regulated/{kind}/faults={}", plan.is_some()),
            );
        }
    }
    // A row-conflict-heavy mix, so tiers interact with CAS-vs-RAS ranking.
    let events = synthetic_workload(4, 20_000, 0.3, 2006);
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfs,
        SchedulerKind::FqVftf,
    ] {
        check(
            regulated_spec(kind),
            &events,
            &format!("regulated-mix/{kind}"),
        );
    }
}

#[test]
fn corrupted_checkpoints_fail_typed_and_never_panic() {
    // Randomized truncations and bit flips over a mid-run checkpoint of
    // the share-tree configuration (so the damaged bytes cover
    // the queue, watchdog-deadline and stats sections). Every corruption
    // must yield a typed SnapshotError through resume — never a panic,
    // never a silent success.
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let events = synthetic_workload(4, 4_000, 0.4, 2006);
    let mut spec = two_tenant_spec(SchedulerKind::FqVftf);
    spec.config.starvation_threshold = Some(300);
    let pristine = simulate_serial_checkpointed(&spec, &events, 2_000).unwrap();
    resume_serial(&spec, &events, &pristine).expect("pristine checkpoint must resume");
    let n = pristine.len();
    assert!(n > 64, "checkpoint implausibly small: {n} bytes");

    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        Truncate(usize),
        BitFlip(usize, u8),
    }

    CaseRunner::new("checkpoint-corruption").cases(48).run(
        |rng: &mut SimRng| {
            if rng.next_below(2) == 0 {
                Mutation::Truncate(rng.next_below(n as u64) as usize)
            } else {
                Mutation::BitFlip(rng.next_below(n as u64) as usize, rng.next_below(8) as u8)
            }
        },
        |&m| match m {
            Mutation::Truncate(len) if len > 0 => {
                vec![Mutation::Truncate(len / 2), Mutation::Truncate(len - 1)]
            }
            Mutation::Truncate(_) => Vec::new(),
            Mutation::BitFlip(pos, bit) => {
                let mut c = Vec::new();
                if pos > 0 {
                    c.push(Mutation::BitFlip(pos / 2, bit));
                    c.push(Mutation::BitFlip(pos - 1, bit));
                }
                if bit > 0 {
                    c.push(Mutation::BitFlip(pos, 0));
                }
                c
            }
        },
        |&m| {
            let mut corrupt = pristine.clone();
            match m {
                Mutation::Truncate(len) => corrupt.truncate(len),
                Mutation::BitFlip(pos, bit) => corrupt[pos] ^= 1 << bit,
            }
            let outcome =
                catch_unwind(AssertUnwindSafe(|| resume_serial(&spec, &events, &corrupt)));
            match outcome {
                Err(_) => Err(format!("{m:?}: resume panicked")),
                Ok(Ok(_)) => Err(format!("{m:?}: corrupted checkpoint resumed")),
                Ok(Err(ResumeError::Snapshot(_)) | Err(ResumeError::Spec(_))) => Ok(()),
            }
        },
    );
}

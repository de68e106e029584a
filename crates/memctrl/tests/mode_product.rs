//! Mode-product suite (release gate): the controller's optional modes —
//! fault injection, the starvation watchdog, BLISS, token-bucket
//! regulation and overload control — run in every combination over
//! {FR-FCFS, FQ-VFTF, SD-VFTF, BLISS} × {flat, hierarchical shares}.
//! Regulation is never combined with BLISS (`McConfig::validate` rejects
//! the pair: both drive the priority tier).
//!
//! Every case is observed, so the mode events (`FaultInjected`,
//! `StarvationDetected`, `BoundExceeded`, `Saturation*`, `Throttled`,
//! `Shed`) are part of the report, and the serial report is digested in
//! full and compared with the digest recorded in [`DIGESTS`] before the
//! modes shared one controller interface. Each case must also
//!
//! * conserve requests: `completed + dropped + rejected + shed ==
//!   submitted`, with the schedule fully drained;
//! * give the same report on the cycle-by-cycle path (`fast_forward =
//!   false`, stepped/skipped counts aside), the free-running parallel
//!   path, and two kill-and-resume runs (one resumed serially, one in
//!   parallel).
//!
//! Release builds run the whole product; debug builds, where every bank
//! pick is also re-ranked linearly, run a spread of it.

use fqms_memctrl::engine::{
    interference_workload, resume_parallel, resume_serial, simulate_parallel, simulate_serial,
    simulate_serial_checkpointed, synthetic_workload, EngineReport, EngineSpec, RetryPolicy,
    SubmitEvent,
};
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use fqms_sim::snapshot::Fingerprint;

/// Digest of each case's serial report (`Fingerprint` of
/// `format!("{report:?}")`, see [`digest`]), recorded from the controller
/// that wired each mode in by hand. A change that alters these reports on
/// purpose must say why and re-record them.
const DIGESTS: &[(&str, u64)] = &[
    ("FR-FCFS", 0x1c05b421cb865c80),
    ("FR-FCFS/faults", 0x01b500a82316e5dc),
    ("FR-FCFS/watchdog", 0x178eb02d4a6f9ce9),
    ("FR-FCFS/watchdog/faults", 0xf42f7ab87ec0df6d),
    ("FR-FCFS/overload", 0xec9f9d6408229744),
    ("FR-FCFS/overload/faults", 0x5c251732231121a6),
    ("FR-FCFS/overload/watchdog", 0x0bf9ca79f1ba6662),
    ("FR-FCFS/overload/watchdog/faults", 0x11630e4068d5c6ab),
    ("FR-FCFS/reg", 0x772c7c0a68fc005e),
    ("FR-FCFS/reg/faults", 0xf8f7827d18de3f07),
    ("FR-FCFS/reg/watchdog", 0xfe56c57ad9cacd61),
    ("FR-FCFS/reg/watchdog/faults", 0x4129bbb9ed255e30),
    ("FR-FCFS/reg/overload", 0x8f1b22d0d73cd26d),
    ("FR-FCFS/reg/overload/faults", 0xfb2c8e48531480e2),
    ("FR-FCFS/reg/overload/watchdog", 0x2ccb5063c6b9e8c3),
    ("FR-FCFS/reg/overload/watchdog/faults", 0x34efcbf117a9d432),
    ("FR-FCFS/tree", 0x1c05b421cb865c80),
    ("FR-FCFS/tree/faults", 0x01b500a82316e5dc),
    ("FR-FCFS/tree/watchdog", 0x178eb02d4a6f9ce9),
    ("FR-FCFS/tree/watchdog/faults", 0xf42f7ab87ec0df6d),
    ("FR-FCFS/tree/overload", 0xec9f9d6408229744),
    ("FR-FCFS/tree/overload/faults", 0x5c251732231121a6),
    ("FR-FCFS/tree/overload/watchdog", 0x0bf9ca79f1ba6662),
    ("FR-FCFS/tree/overload/watchdog/faults", 0x11630e4068d5c6ab),
    ("FR-FCFS/tree/reg", 0x772c7c0a68fc005e),
    ("FR-FCFS/tree/reg/faults", 0xf8f7827d18de3f07),
    ("FR-FCFS/tree/reg/watchdog", 0xfe56c57ad9cacd61),
    ("FR-FCFS/tree/reg/watchdog/faults", 0x4129bbb9ed255e30),
    ("FR-FCFS/tree/reg/overload", 0x8f1b22d0d73cd26d),
    ("FR-FCFS/tree/reg/overload/faults", 0xfb2c8e48531480e2),
    ("FR-FCFS/tree/reg/overload/watchdog", 0x2ccb5063c6b9e8c3),
    (
        "FR-FCFS/tree/reg/overload/watchdog/faults",
        0x34efcbf117a9d432,
    ),
    ("FQ-VFTF", 0x63ad553ae2568363),
    ("FQ-VFTF/faults", 0x9e3a836b19f01b11),
    ("FQ-VFTF/watchdog", 0xf1f59baf88218300),
    ("FQ-VFTF/watchdog/faults", 0x762f6d440f7a7fd0),
    ("FQ-VFTF/overload", 0xecd8706f6d6845b4),
    ("FQ-VFTF/overload/faults", 0xd62b113eac9ae673),
    ("FQ-VFTF/overload/watchdog", 0x132eb652ac3ce63e),
    ("FQ-VFTF/overload/watchdog/faults", 0xf51a639e960dc0d8),
    ("FQ-VFTF/reg", 0x0232b5de7b9780fc),
    ("FQ-VFTF/reg/faults", 0x292a29b8c7c10826),
    ("FQ-VFTF/reg/watchdog", 0xfa67916fb0410757),
    ("FQ-VFTF/reg/watchdog/faults", 0x5727fa05fe4ba82e),
    ("FQ-VFTF/reg/overload", 0x7479ad331fd5d01a),
    ("FQ-VFTF/reg/overload/faults", 0x7db83e4804d1caff),
    ("FQ-VFTF/reg/overload/watchdog", 0x06b161eb11f6a07a),
    ("FQ-VFTF/reg/overload/watchdog/faults", 0xb77cab283fc3d9d7),
    ("FQ-VFTF/tree", 0x463791af99feecd4),
    ("FQ-VFTF/tree/faults", 0xc7cdbc4d83822dd9),
    ("FQ-VFTF/tree/watchdog", 0x0107ec754a2a28a0),
    ("FQ-VFTF/tree/watchdog/faults", 0xaab58936f3a4379f),
    ("FQ-VFTF/tree/overload", 0xd506b971a9570ee6),
    ("FQ-VFTF/tree/overload/faults", 0x5ac14dcc1bdd3314),
    ("FQ-VFTF/tree/overload/watchdog", 0xe9dd62d926bf2d76),
    ("FQ-VFTF/tree/overload/watchdog/faults", 0x1208a41d7c49b7e6),
    ("FQ-VFTF/tree/reg", 0x363d0df128e1f16a),
    ("FQ-VFTF/tree/reg/faults", 0x132ebaf11213d744),
    ("FQ-VFTF/tree/reg/watchdog", 0x39967605ae9c7e48),
    ("FQ-VFTF/tree/reg/watchdog/faults", 0xc5375ec9cd1998c6),
    ("FQ-VFTF/tree/reg/overload", 0x5fc28bc862853261),
    ("FQ-VFTF/tree/reg/overload/faults", 0x1e6434fcea5f5b44),
    ("FQ-VFTF/tree/reg/overload/watchdog", 0x062de5ffc99a758d),
    (
        "FQ-VFTF/tree/reg/overload/watchdog/faults",
        0x4517628730ee3f77,
    ),
    ("SD-VFTF", 0x5218436f5989ed9c),
    ("SD-VFTF/faults", 0x1f99eb8206ed2a77),
    ("SD-VFTF/watchdog", 0x50a11d0825befa84),
    ("SD-VFTF/watchdog/faults", 0x2d0821732e099414),
    ("SD-VFTF/overload", 0x0a2f3f0f57e6f388),
    ("SD-VFTF/overload/faults", 0xebf4dc0249528734),
    ("SD-VFTF/overload/watchdog", 0x57ec4e4ad50e06da),
    ("SD-VFTF/overload/watchdog/faults", 0x359931272038673a),
    ("SD-VFTF/reg", 0x0044b57407459d67),
    ("SD-VFTF/reg/faults", 0xdeeab9906b1b6ae3),
    ("SD-VFTF/reg/watchdog", 0xb11554d702c94627),
    ("SD-VFTF/reg/watchdog/faults", 0x73909db2dde96286),
    ("SD-VFTF/reg/overload", 0x44a8254e530205d5),
    ("SD-VFTF/reg/overload/faults", 0x02d180674381ddb2),
    ("SD-VFTF/reg/overload/watchdog", 0xdd56eed3fec6a0c0),
    ("SD-VFTF/reg/overload/watchdog/faults", 0xe2ca049733409854),
    ("SD-VFTF/tree", 0xa24fd10378bc3f5b),
    ("SD-VFTF/tree/faults", 0x2b4e2231c8ad3fae),
    ("SD-VFTF/tree/watchdog", 0x83fd4c1bab98ea60),
    ("SD-VFTF/tree/watchdog/faults", 0xdc6b534e53771689),
    ("SD-VFTF/tree/overload", 0xeeb51faa870ce66f),
    ("SD-VFTF/tree/overload/faults", 0x2cc73c335171f581),
    ("SD-VFTF/tree/overload/watchdog", 0x91ab4950369da99d),
    ("SD-VFTF/tree/overload/watchdog/faults", 0xcd5b47b6fb2a3c38),
    ("SD-VFTF/tree/reg", 0xe93f29d50b7f32b9),
    ("SD-VFTF/tree/reg/faults", 0xb78dcee5aa1eab00),
    ("SD-VFTF/tree/reg/watchdog", 0x1d58b3f1be2cdc0d),
    ("SD-VFTF/tree/reg/watchdog/faults", 0xc73d25be5cd18fea),
    ("SD-VFTF/tree/reg/overload", 0x19109f616d411efa),
    ("SD-VFTF/tree/reg/overload/faults", 0xa9f0819c234d20dd),
    ("SD-VFTF/tree/reg/overload/watchdog", 0xa821ba16ff0a1be0),
    (
        "SD-VFTF/tree/reg/overload/watchdog/faults",
        0x15ccb17c3180e52a,
    ),
    ("BLISS", 0xbfd1155dfb4e80a2),
    ("BLISS/faults", 0x7b855d4a3fca11f0),
    ("BLISS/watchdog", 0xc0a45cf072b0ab5a),
    ("BLISS/watchdog/faults", 0xcb43edacb147e016),
    ("BLISS/overload", 0x544bcf2810179a87),
    ("BLISS/overload/faults", 0xf91f4d0f0455e18e),
    ("BLISS/overload/watchdog", 0x9230e2563af308c2),
    ("BLISS/overload/watchdog/faults", 0xefb68340f3f3a747),
    ("BLISS/tree", 0xbfd1155dfb4e80a2),
    ("BLISS/tree/faults", 0x7b855d4a3fca11f0),
    ("BLISS/tree/watchdog", 0xc0a45cf072b0ab5a),
    ("BLISS/tree/watchdog/faults", 0xcb43edacb147e016),
    ("BLISS/tree/overload", 0x544bcf2810179a87),
    ("BLISS/tree/overload/faults", 0xf91f4d0f0455e18e),
    ("BLISS/tree/overload/watchdog", 0x9230e2563af308c2),
    ("BLISS/tree/overload/watchdog/faults", 0xefb68340f3f3a747),
];

/// One point of the mode product.
#[derive(Debug, Clone, Copy)]
struct Case {
    kind: SchedulerKind,
    tree: bool,
    regulate: bool,
    overload: bool,
    watchdog: bool,
    faults: bool,
}

impl Case {
    fn label(&self) -> String {
        let mut s = self.kind.name().to_string();
        for (on, name) in [
            (self.tree, "tree"),
            (self.regulate, "reg"),
            (self.overload, "overload"),
            (self.watchdog, "watchdog"),
            (self.faults, "faults"),
        ] {
            if on {
                s.push('/');
                s.push_str(name);
            }
        }
        s
    }
}

fn matrix() -> Vec<Case> {
    let mut cases = Vec::new();
    for kind in [
        SchedulerKind::FrFcfs,
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
        SchedulerKind::Bliss,
    ] {
        for tree in [false, true] {
            for regulate in [false, true] {
                if regulate && kind == SchedulerKind::Bliss {
                    continue;
                }
                for overload in [false, true] {
                    for watchdog in [false, true] {
                        for faults in [false, true] {
                            cases.push(Case {
                                kind,
                                tree,
                                regulate,
                                overload,
                                watchdog,
                                faults,
                            });
                        }
                    }
                }
            }
        }
    }
    cases
}

/// The cases this build checks: all of them in release, every 13th in
/// debug (13 is prime to the matrix size, so the stride walks every
/// factor's levels).
fn selected() -> Vec<Case> {
    let all = matrix();
    if cfg!(debug_assertions) {
        (0..all.len() / 13 + 1)
            .map(|k| all[k * 13 % all.len()])
            .collect()
    } else {
        all
    }
}

/// Every fault class in one plan.
fn faults() -> FaultPlan {
    FaultPlan::new(11)
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

fn spec(case: Case) -> EngineSpec {
    let mut spec = EngineSpec::paper(2, 4);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 18);
    spec.log_capacity = Some(1 << 12);
    spec.retry = RetryPolicy::bounded(6, 2, 64);
    if case.tree {
        // Unequal tenants and unequal weights, so the tree changes the
        // VTMS arithmetic of the share-driven schedulers.
        let tree = ShareTree {
            tenants: vec![
                TenantSpec {
                    share: 0.6,
                    weights: vec![1.0, 3.0],
                },
                TenantSpec::equal(0.4, 2),
            ],
        };
        spec.config = McConfig::hierarchical(case.kind, tree);
    }
    spec.config.scheduler = case.kind;
    // A short clearing interval so BLISS clears several times per run.
    spec.config.bliss_clear_interval = 2_000;
    if case.regulate {
        // Thread 1 carries a WCET bound tight enough to be exceeded, so
        // `BoundExceeded` is exercised; thread 2's budget is small enough
        // to be exhausted and replenished.
        let reg = RegulationConfig::new(1_000)
            .best_effort()
            .rt_class(8, Some(120))
            .rt_class(3, None)
            .best_effort()
            .partitioned(false);
        spec.config = spec.config.with_regulation(reg);
    }
    if case.overload {
        spec.config = spec.config.with_overload(
            OverloadConfig::new(4)
                .throttled(1_000, 4, 1.0)
                .shedding(500, 24, 8, 48, 8)
                .protect(0),
        );
    }
    if case.watchdog {
        spec.config.starvation_threshold = Some(300);
    }
    if case.faults {
        spec.fault_plan = Some(faults());
    }
    spec
}

/// A saturating interference flood followed by a sparse tail, so the
/// overload ladder climbs and falls back, the watchdog and BLISS see
/// idle stretches, and fast-forward has cycles to skip.
fn workload() -> Vec<SubmitEvent> {
    let mut events = interference_workload(4, 3_000, 0.05, 0.5, 2006);
    events.extend(
        synthetic_workload(4, 3_000, 0.02, 7)
            .into_iter()
            .map(|e| SubmitEvent {
                at: DramCycle::new(e.at.as_u64() + 3_000),
                ..e
            }),
    );
    events
}

fn digest(report: &EngineReport) -> u64 {
    Fingerprint::new("mode-product")
        .push_str(&format!("{report:?}"))
        .finish()
}

/// The report with the fast-forward diagnostics zeroed.
fn semantic(report: &EngineReport) -> EngineReport {
    EngineReport {
        stepped_cycles: 0,
        skipped_cycles: 0,
        ..report.clone()
    }
}

fn assert_conserves(report: &EngineReport, submitted: usize, ctx: &str) {
    assert_eq!(report.unsubmitted, 0, "{ctx}: schedule failed to drain");
    let dropped: u64 = report.per_thread.iter().map(|t| t.requests_dropped).sum();
    assert_eq!(
        report.total_completed() as u64
            + dropped
            + report.total_rejected() as u64
            + report.total_shed() as u64,
        submitted as u64,
        "{ctx}: completed + dropped + rejected + shed != submitted"
    );
}

#[test]
fn mode_product_is_bit_identical_and_conserving() {
    let events = workload();
    // Which mode events fired anywhere: faults injected, starvations,
    // WCET bounds exceeded, saturation entered and exited, throttles,
    // sheds. All must, or the product is vacuous.
    let mut fired = [false; 7];
    for case in selected() {
        let ctx = case.label();
        let spec = spec(case);
        let reference = simulate_serial(&spec, &events).unwrap();
        let m = &reference
            .observations
            .as_ref()
            .expect("observed run")
            .metrics;
        let sum = |f: fn(&ThreadSink) -> u64| m.iter().map(|(_, t)| f(t)).sum::<u64>();
        for (seen, count) in fired.iter_mut().zip([
            m.faults_injected,
            sum(|t| t.starvations),
            m.bound_violations,
            m.saturation_entries,
            m.saturation_exits,
            sum(|t| t.throttled),
            sum(|t| t.shed),
        ]) {
            *seen |= count > 0;
        }
        let got = digest(&reference);
        let &(_, want) = DIGESTS
            .iter()
            .find(|(l, _)| *l == ctx)
            .unwrap_or_else(|| panic!("{ctx}: no digest recorded (this run: {got:#018x})"));
        assert_eq!(got, want, "{ctx}: report diverged from the recorded digest");
        assert_conserves(&reference, events.len(), &ctx);
        assert!(
            reference.total_completed() > 0,
            "{ctx}: vacuous run — nothing completed"
        );

        let mut slow = spec.clone();
        slow.fast_forward = false;
        let slow = simulate_serial(&slow, &events).unwrap();
        assert_eq!(
            semantic(&slow),
            semantic(&reference),
            "{ctx}: cycle-by-cycle run diverged"
        );

        let par = simulate_parallel(&spec, &events, 2).unwrap();
        assert_eq!(par, reference, "{ctx}: parallel run diverged");

        let bytes = simulate_serial_checkpointed(&spec, &events, 1_500).unwrap();
        let resumed = resume_serial(&spec, &events, &bytes).unwrap();
        assert_eq!(
            resumed, reference,
            "{ctx}: serial resume from 1500 diverged"
        );

        let late = reference.cycles - 311;
        let bytes = simulate_serial_checkpointed(&spec, &events, late).unwrap();
        let resumed = resume_parallel(&spec, &events, &bytes, 2).unwrap();
        assert_eq!(
            resumed, reference,
            "{ctx}: parallel resume from {late} diverged"
        );
    }
    assert_eq!(fired, [true; 7], "some mode event never fired");
}

//! The paper's headline numbers (abstract / Sections 1 and 5), all in one
//! report:
//!
//! * two-core: QoS on 18/19 workloads (the miss, vpr, within 6%), mean
//!   +31% (max +76%) system performance over FR-FCFS, ~92% data-bus
//!   utilization;
//! * four-core: QoS for all threads of all workloads, mean +14% (max
//!   +41%), normalized target-bandwidth variance 0.2 → 0.0058.
//!
//! It is also the paper's regression gate: it exits nonzero when any of
//! these claims flips —
//!
//! * FQ-VFTF gives QoS (normalized IPC ≥ 0.98) on all but at most one
//!   two-core subject;
//! * the two-core average gain over FR-FCFS is positive;
//! * the four-core FQ-VFTF runs have no QoS miss;
//! * normalized-utilization variance collapses at least 10×;
//! * the Fig. 8 WL1 ordering inverts: art has the highest normalized IPC
//!   under FR-FCFS, ammp the highest under FQ-VFTF, where every thread
//!   reaches at least 1.
//!
//! The verdicts go to stderr, so the report on stdout is unchanged.

use fqms::prelude::*;
use fqms_bench::{paper_schedulers, run_length, seed, two_core_sweep};
use fqms_sim::stats::Summary;

fn main() {
    // Dropped on exit: prints wall-clock and skip-rate to the .log sidecar.
    let _run_log = fqms_bench::RunLog::new();
    let len = run_length();
    let seed = seed();

    println!("== Two-core headline (vs paper: QoS 18/19, +31% avg, +76% max, 92% bus) ==");
    let entries = two_core_sweep(&paper_schedulers(), len, seed);
    let fq: Vec<_> = entries
        .iter()
        .filter(|e| e.scheduler == SchedulerKind::FqVftf)
        .collect();
    let qos_met = fq.iter().filter(|e| e.subject_norm_ipc() >= 0.98).count();
    let worst = fq
        .iter()
        .map(|e| e.subject_norm_ipc())
        .fold(f64::INFINITY, f64::min);
    let mut improvements = Vec::new();
    let mut bus = 0.0;
    for e in &fq {
        let base = entries
            .iter()
            .find(|b| b.subject == e.subject && b.scheduler == SchedulerKind::FrFcfs)
            .unwrap_or_else(|| {
                panic!(
                    "headline: two-core sweep (seed {seed}) has no FR-FCFS baseline entry \
                     for subject \"{}\"",
                    e.subject
                )
            });
        improvements.push(e.hmean_norm_ipc() / base.hmean_norm_ipc() - 1.0);
        bus += e.metrics.data_bus_utilization;
    }
    let avg_imp = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let max_imp = improvements
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "QoS met on {}/{} workloads (worst normalized IPC {:.2})",
        qos_met,
        fq.len(),
        worst
    );
    println!(
        "FQ-VFTF improvement over FR-FCFS: avg {:+.0}%, max {:+.0}%",
        100.0 * avg_imp,
        100.0 * max_imp
    );
    println!(
        "FQ-VFTF avg data-bus utilization: {:.0}%",
        100.0 * bus / fq.len() as f64
    );

    println!();
    println!("== Four-core headline (vs paper: QoS all, +14% avg, +41% max, var .2 -> .0058) ==");
    let workloads = four_core_workloads();
    let mut improvements = Vec::new();
    let mut qos_misses = 0usize;
    let mut var = [Summary::new(), Summary::new()];
    // WL1's (thread, normalized IPC) pairs under FR-FCFS and FQ-VFTF.
    let mut wl1: [Vec<(String, f64)>; 2] = Default::default();
    for (w, mix) in workloads.iter().enumerate() {
        let baselines: Vec<f64> = mix
            .iter()
            .map(|p| {
                run_private_baseline(*p, 4, len.instructions, len.max_dram_cycles * 4, seed).ipc
            })
            .collect();
        let solos: Vec<ThreadMetrics> = mix
            .iter()
            .map(|p| run_solo(*p, len.instructions, len.max_dram_cycles, seed))
            .collect();
        let solo_utils: Vec<f64> = solos.iter().map(|s| s.bus_utilization).collect();
        let targets = target_utilizations(&solo_utils, &[0.25; 4]);
        let mut hm = [0.0f64; 2];
        for (si, sched) in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf]
            .iter()
            .enumerate()
        {
            let m = four_core_run(mix, *sched, len, seed);
            hm[si] = m.harmonic_mean_normalized_ipc(&baselines);
            for (t, tm) in m.threads.iter().enumerate() {
                if w == 0 {
                    wl1[si].push((tm.name.clone(), tm.ipc / baselines[t]));
                }
                if targets[t] > 0.0 {
                    var[si].record(tm.bus_utilization / targets[t]);
                }
                if *sched == SchedulerKind::FqVftf && tm.ipc / baselines[t] < 0.98 {
                    qos_misses += 1;
                }
            }
        }
        improvements.push(hm[1] / hm[0] - 1.0);
    }
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    let max = improvements
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    println!("FQ-VFTF QoS misses across all 16 threads: {qos_misses}");
    println!(
        "FQ-VFTF improvement over FR-FCFS: avg {:+.0}%, max {:+.0}%",
        100.0 * avg,
        100.0 * max
    );
    let var = var.map(|v| v.population_variance());
    println!(
        "normalized target-utilization variance: FR-FCFS {:.4}, FQ-VFTF {:.4}",
        var[0], var[1]
    );

    let top = |run: &[(String, f64)]| {
        run.iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| name.clone())
    };
    let failures: Vec<String> = [
        (
            qos_met + 1 >= fq.len(),
            format!("two-core QoS met on only {qos_met}/{}", fq.len()),
        ),
        (
            avg_imp > 0.0,
            format!("two-core average gain {avg_imp:+.3} is not positive"),
        ),
        (
            qos_misses == 0,
            format!("four-core FQ-VFTF missed QoS on {qos_misses} threads"),
        ),
        (
            var[0] >= 10.0 * var[1],
            format!(
                "variance {:.4} -> {:.4} collapses less than 10x",
                var[0], var[1]
            ),
        ),
        (
            top(&wl1[0]).as_deref() == Some("art")
                && top(&wl1[1]).as_deref() == Some("ammp")
                && wl1[1].iter().all(|(_, ipc)| *ipc >= 1.0),
            format!(
                "WL1 ordering did not invert: FR-FCFS {:?}, FQ-VFTF {:?}",
                wl1[0], wl1[1]
            ),
        ),
    ]
    .into_iter()
    .filter_map(|(holds, why)| (!holds).then_some(why))
    .collect();
    for why in &failures {
        eprintln!("GATE FAILED: {why}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!("# paper gate OK");
}

//! Scheduler-scaling study (ISSUE 6 figure): per-request scheduler cost
//! and hierarchical fairness from 64 to 4096 threads.
//!
//! A single-channel controller is driven closed-loop — every thread keeps
//! a fixed window of reads outstanding, refilled on completion, so the
//! bank queues stay saturated and their depth grows linearly with the
//! thread count. Each scale runs twice on the O(log n) tiered selection
//! index: once under FQ-VFTF and once under BLISS, whose blacklist tier
//! moves entries between the index's tiers at runtime. This binary
//! measures what a scheduling decision *costs* as queues deepen and
//! checks that FQ-VFTF's hierarchical fairness holds at every scale.
//!
//! Emits `BENCH_pr6.json` (schema documented in EXPERIMENTS.md,
//! overridable via `FQMS_BENCH_PR6`) and acts as a perf smoke gate:
//! exits nonzero if either scheduler's per-request cost grows by more
//! than 2x from the smallest to the largest scale, or if FQ-VFTF's
//! per-tenant relative service error versus the phi allocation exceeds
//! 5% at any scale (BLISS ignores shares, so it is not fairness-gated).

use fqms_bench::{f, header, row, seed};
use fqms_dram::command::{BankId, ColId, DramAddress, RankId, RowId};
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::rng::SimRng;
use std::time::Instant;

/// Outstanding reads per thread. Small enough that the per-thread buffer
/// partition never NACKs, large enough that every bank queue is deep.
const WINDOW: u32 = 2;

/// Timed repetitions per (scale, scheduler) point; the median is kept.
/// Repetitions sweep the whole grid in turn, so a burst of host noise
/// hits one repetition of many points rather than every repetition of
/// one. The median, not the minimum: on a shared host the minimum of a
/// cache-resident small scale drops further with every repetition than
/// that of a cache-missing large one, inflating the growth ratio.
const REPS: usize = 3;

/// The schedulers each scale runs under.
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::FqVftf, SchedulerKind::Bliss];

/// Threads per tenant in the symmetric share tree (64 threads → 4
/// tenants, 4096 threads → 256 tenants).
const THREADS_PER_TENANT: usize = 16;

struct ScaleResult {
    wall_s: f64,
    completed: u64,
    cycles: u64,
    /// Per-request scheduler cost in microseconds of wall clock.
    cost_us: f64,
    /// max over tenants of |service/total − share| / share.
    max_rel_err: f64,
    /// Same error one level down (per thread vs effective phi). Reported
    /// for transparency, not gated: the lightest threads complete only a
    /// handful of requests per run, so this is quantization-bound.
    max_thread_err: f64,
}

/// The benchmark's share tree: heterogeneous tenant shares and thread
/// weights drawn from the golden-ratio low-discrepancy sequence, so every
/// thread's effective phi is globally distinct (spread ~[1, 2) before
/// normalization). Heterogeneity is what the hierarchy is *for*, and it
/// keeps the virtual-finish times of different threads desynchronized:
/// with uniform phi and the paper's closed-row policy every request
/// carries an identical virtual service quantum, so the schedule
/// degenerates into permanent cross-thread ties that the deterministic
/// id tiebreak resolves the same way every round — a measurement
/// artifact, not a fairness property.
fn scale_tree(threads: usize) -> ShareTree {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let spread = |i: usize| 1.0 + (i as f64 * PHI).fract();
    let tenants = threads / THREADS_PER_TENANT;
    let raw: Vec<f64> = (0..tenants).map(spread).collect();
    let total: f64 = raw.iter().sum();
    ShareTree {
        tenants: (0..tenants)
            .map(|t| TenantSpec {
                share: raw[t] / total,
                weights: (0..THREADS_PER_TENANT)
                    .map(|i| spread(t * THREADS_PER_TENANT + i + tenants))
                    .collect(),
            })
            .collect(),
    }
}

/// Drives one controller closed-loop until `target` requests have
/// completed (bounded by a generous cycle cap) and reports wall-clock,
/// completions, and the per-tenant service error.
///
/// The horizon is denominated in *completed requests*, not cycles: fair
/// queuing's intrinsic unfairness is one service round (every thread's
/// window once), so the measured relative error shrinks as 1/rounds.
/// Sizing the run as a fixed number of rounds makes the fairness gate
/// scale-invariant instead of drowning large scales in partial-round
/// quantization.
fn run_scale(
    threads: usize,
    target: u64,
    scheduler: SchedulerKind,
    master_seed: u64,
) -> ScaleResult {
    let tree = scale_tree(threads);
    let config = McConfig::hierarchical(scheduler, tree.clone());
    let geometry = Geometry::paper();
    let mut mc = MemoryController::new(config, geometry, TimingParams::ddr2_800())
        .unwrap_or_else(|e| panic!("scaling: invalid config at {threads} threads: {e}"));
    let map = AddressMap::new(geometry, 64);
    let mut rng = SimRng::new(master_seed ^ threads as u64);
    // Each thread camps on one bank (thread mod banks) and touches a
    // random row per request. Camping keeps every thread *continuously
    // backlogged at its bank*, which is the regime where per-bank virtual
    // finish ordering delivers service proportional to phi; it also makes
    // each bank queue's depth grow linearly with the thread count, which
    // is exactly the load an O(n) scan would degrade on. (Scattering
    // requests over random banks instead would leave each thread absent
    // from most banks most of the time, and a window of 2 cannot keep
    // per-bank backlog — service then compresses toward equal regardless
    // of phi, measuring the workload, not the scheduler.)
    let submit = |mc: &mut MemoryController, t: u32, now: DramCycle, rng: &mut SimRng| {
        let addr = DramAddress {
            rank: RankId::new(0),
            bank: BankId::new(t % geometry.banks),
            row: RowId::new(rng.next_below(u64::from(geometry.rows)) as u32),
            col: ColId::new(rng.next_below(u64::from(geometry.cols)) as u32),
        };
        mc.try_submit(ThreadId::new(t), RequestKind::Read, map.encode(addr), now)
            .expect("window below the buffer partition size");
    };

    let t0 = Instant::now();
    let now0 = DramCycle::new(0);
    for t in 0..threads as u32 {
        for _ in 0..WINDOW {
            submit(&mut mc, t, now0, &mut rng);
        }
    }
    let mut completed = 0u64;
    let cap = target.saturating_mul(16);
    let mut c = 0u64;
    while completed < target {
        c += 1;
        assert!(
            c <= cap,
            "scaling: {threads} threads wedged before {target} completions"
        );
        let now = DramCycle::new(c);
        for done in mc.step(now) {
            completed += 1;
            // Closed loop: replace each completion from the same thread.
            submit(&mut mc, done.thread.as_u32(), now, &mut rng);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let tenants = mc.stats().tenant_totals(&tree);
    let total: u64 = tenants.iter().map(|t| t.reads_completed).sum();
    let max_rel_err = tenants
        .iter()
        .zip(tree.tenants.iter())
        .map(|(t, spec)| {
            let served = t.reads_completed as f64 / total as f64;
            (served - spec.share).abs() / spec.share
        })
        .fold(0.0f64, f64::max);
    let max_thread_err = mc
        .stats()
        .iter()
        .zip(tree.effective_shares())
        .map(|((_, t), phi)| {
            let served = t.reads_completed as f64 / total as f64;
            (served - phi).abs() / phi
        })
        .fold(0.0f64, f64::max);
    ScaleResult {
        wall_s,
        completed,
        cycles: c,
        cost_us: wall_s * 1e6 / completed as f64,
        max_rel_err,
        max_thread_err,
    }
}

/// One timed measurement of a point: `runs` back-to-back identical runs,
/// reported as their per-run average. Scaling `runs` inversely with the
/// thread count gives every point the same number of requests per
/// measurement, so a millisecond-long small-scale run is not compared
/// against a second-long large-scale one (a short run can land in a
/// quiet window of host noise that a long run always averages over).
fn measure(
    threads: usize,
    target: u64,
    scheduler: SchedulerKind,
    seed: u64,
    runs: usize,
) -> ScaleResult {
    let mut r = run_scale(threads, target, scheduler, seed);
    for _ in 1..runs {
        let again = run_scale(threads, target, scheduler, seed);
        assert_eq!(
            (again.completed, again.cycles),
            (r.completed, r.cycles),
            "{threads} threads: {scheduler} runs diverged"
        );
        r.wall_s += again.wall_s;
    }
    r.wall_s /= runs as f64;
    r.cost_us = r.wall_s * 1e6 / r.completed as f64;
    r
}

fn main() {
    let _run_log = fqms_bench::RunLog::new();
    let seed = seed();
    // Horizon in service rounds (window refills per thread). The
    // intrinsic FQ unfairness is one partial round, so the expected
    // relative error is ~0.5/rounds — comfortably under the 5% gate at
    // every setting below.
    let rounds: u64 = match std::env::var("FQMS_RUNLEN").as_deref() {
        Ok("quick") => 32,
        Ok("full") => 96,
        _ => 48,
    };

    println!("== scheduler scaling on the tiered selection index: FQ-VFTF and BLISS ==");
    header(&[
        "threads",
        "tenants",
        "cycles",
        "fq_us_per_req",
        "fq_rel_err",
        "bliss_cycles",
        "bliss_us_per_req",
    ]);

    let scales = [64usize, 256, 1024, 4096];
    // reps[scale][scheduler]: every repetition. The schedule is
    // deterministic, so every repetition must serve the same cycles.
    let mut reps: Vec<Vec<Vec<ScaleResult>>> = scales
        .iter()
        .map(|_| SCHEDULERS.iter().map(|_| Vec::new()).collect())
        .collect();
    for _ in 0..REPS {
        for (&threads, points) in scales.iter().zip(&mut reps) {
            let target = rounds * threads as u64 * u64::from(WINDOW);
            let runs = scales[scales.len() - 1] / threads;
            for (&scheduler, point) in SCHEDULERS.iter().zip(points.iter_mut()) {
                let r = measure(threads, target, scheduler, seed, runs);
                if let Some(first) = point.first() {
                    assert_eq!(
                        (r.completed, r.cycles),
                        (first.completed, first.cycles),
                        "{threads} threads: {scheduler} repetitions diverged"
                    );
                }
                point.push(r);
            }
        }
    }
    let median = |mut point: Vec<ScaleResult>| {
        point.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        point.swap_remove(point.len() / 2)
    };

    let mut entries = Vec::new();
    let mut fq_costs = Vec::new();
    let mut bliss_costs = Vec::new();
    let mut fairness_failed = false;
    for (&threads, points) in scales.iter().zip(reps) {
        let [fq, bliss] = <[Vec<ScaleResult>; 2]>::try_from(points)
            .ok()
            .expect("one point per scheduler")
            .map(median);
        if fq.max_rel_err > 0.05 {
            eprintln!(
                "FAIRNESS GATE FAILED: {threads} threads: FQ-VFTF tenant service \
                 error {:.4} exceeds 5%",
                fq.max_rel_err
            );
            fairness_failed = true;
        }
        row(&[
            threads.to_string(),
            (threads / THREADS_PER_TENANT).to_string(),
            fq.cycles.to_string(),
            f(fq.cost_us),
            f(fq.max_rel_err),
            bliss.cycles.to_string(),
            f(bliss.cost_us),
        ]);
        fq_costs.push(fq.cost_us);
        bliss_costs.push(bliss.cost_us);
        let run_json = |r: &ScaleResult| {
            format!(
                concat!(
                    "{{\"cycles\": {}, \"completed\": {}, \"wall_s\": {:.6}, ",
                    "\"us_per_request\": {:.4}, \"max_rel_service_err\": {:.6}, ",
                    "\"max_rel_thread_err\": {:.6}}}"
                ),
                r.cycles, r.completed, r.wall_s, r.cost_us, r.max_rel_err, r.max_thread_err,
            )
        };
        entries.push(format!(
            "    {{\"threads\": {}, \"tenants\": {}, \"fq_vftf\": {}, \"bliss\": {}}}",
            threads,
            threads / THREADS_PER_TENANT,
            run_json(&fq),
            run_json(&bliss),
        ));
    }

    let ratio = |costs: &[f64]| costs.last().unwrap() / costs.first().unwrap();
    let fq_ratio = ratio(&fq_costs);
    let bliss_ratio = ratio(&bliss_costs);
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"pr6_scaling\",\n  \"seed\": {},\n",
            "  \"workload\": {{\"generator\": \"closed_loop_bank_camping\", ",
            "\"window\": {}, \"kind\": \"read\"}},\n",
            "  \"controller\": {{\"schedulers\": [\"FQ-VFTF\", \"BLISS\"], \"channels\": 1, ",
            "\"geometry\": \"paper\", \"timing\": \"ddr2_800\", ",
            "\"threads_per_tenant\": {}}},\n",
            "  \"scales\": [\n{}\n  ],\n",
            "  \"gates\": {{\"fq_cost_ratio\": {:.4}, \"bliss_cost_ratio\": {:.4}, ",
            "\"cost_ratio_max\": 2.0, \"fq_fairness_err_max\": 0.05}}\n}}\n"
        ),
        seed,
        WINDOW,
        THREADS_PER_TENANT,
        entries.join(",\n"),
        fq_ratio,
        bliss_ratio,
    );
    let path = std::env::var("FQMS_BENCH_PR6").unwrap_or_else(|_| "BENCH_pr6.json".to_string());
    match fqms_sim::snapshot::write_atomic(std::path::Path::new(&path), json.as_bytes()) {
        Ok(()) => eprintln!("#bench_pr6_json\t{path}"),
        Err(e) => eprintln!("scaling: cannot write {path}: {e}"),
    }

    let mut failed = fairness_failed;
    for (name, cost_ratio) in [("FQ-VFTF", fq_ratio), ("BLISS", bliss_ratio)] {
        if cost_ratio > 2.0 {
            eprintln!(
                "PERF SMOKE FAILED: {name} per-request cost grew {cost_ratio:.2}x \
                 from {} to {} threads (gate: 2x)",
                scales[0],
                scales[scales.len() - 1]
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

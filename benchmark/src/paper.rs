//! The paper-path workload: the two-core subject × `art` platform of the
//! paper's Figures 5 and 7 run through `fqms::system::System`, and the
//! outside-in replica of `System::run` used by traced runs.

use crate::measure::{passes, EndToEnd, Round, Sample, REFERENCE_SEED};
use crate::stats::{median, MIN_BEYOND};
use crate::trace::{Tracer, Untraced, OBSERVED_EVENT_CAPACITY};
use fqms::experiment::run_jobs;
use fqms::metrics::{SystemMetrics, ThreadMetrics};
use fqms::system::{System, SystemBuilder};
use fqms_cpu::core::{Core, CoreConfig};
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::buffers::Nack;
use fqms_memctrl::config::McConfig;
use fqms_memctrl::multichannel::MultiChannelController;
use fqms_memctrl::policy::SchedulerKind;
use fqms_memctrl::port::MemoryPort;
use fqms_memctrl::request::{RequestId, RequestKind, ThreadId};
use fqms_sim::clock::{CpuCycle, DramCycle};
use fqms_sim::stats::harmonic_mean;
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::profile::WorkloadProfile;
use fqms_workloads::spec::by_name;
use std::hint::black_box;
use std::time::Instant;

/// Subjects, from memory-bound to compute-bound; each runs beside `art`.
pub const SUBJECTS: [&str; 4] = ["mcf", "equake", "vpr", "crafty"];
pub const BACKGROUND: &str = "art";
pub const INSTRUCTIONS: u64 = 100_000;
/// Cycle cap of the shared runs; the ×2 baselines get twice as long.
pub const MAX_DRAM_CYCLES: u64 = 40_000_000;
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::FrFcfs, SchedulerKind::FqVftf];
/// Fewest timed passes: a pass takes about 8 s, and a median needs a few.
const PASSES: usize = 4;
/// `SystemBuilder`'s default CPU:DRAM clock ratio.
const CPU_RATIO: u64 = 5;

/// One system of the sweep: a shared two-core run or a single-thread
/// private baseline on memory time-scaled ×2.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    subject: WorkloadProfile,
    background: Option<WorkloadProfile>,
    scheduler: SchedulerKind,
    time_scale: u64,
    max_cycles: u64,
}

impl Job {
    fn profiles(&self) -> Vec<WorkloadProfile> {
        std::iter::once(self.subject)
            .chain(self.background)
            .collect()
    }

    fn timing(&self) -> TimingParams {
        TimingParams::ddr2_800().time_scaled(self.time_scale)
    }

    fn builder(&self, seed: u64) -> SystemBuilder {
        SystemBuilder::new()
            .scheduler(self.scheduler)
            .timing(self.timing())
            .seed(seed)
            .workloads(self.profiles())
    }
}

fn profile(name: &str) -> WorkloadProfile {
    by_name(name).unwrap_or_else(|| panic!("profile {name} exists"))
}

/// The sweep: every subject with `art` under FR-FCFS and FQ-VFTF, then
/// the ×2 private baseline of every subject and of `art`.
pub fn jobs() -> Vec<Job> {
    let art = profile(BACKGROUND);
    let mut jobs = Vec::new();
    for name in SUBJECTS {
        for scheduler in SCHEDULERS {
            jobs.push(Job {
                subject: profile(name),
                background: Some(art),
                scheduler,
                time_scale: 1,
                max_cycles: MAX_DRAM_CYCLES,
            });
        }
    }
    for name in SUBJECTS.into_iter().chain([BACKGROUND]) {
        jobs.push(Job {
            subject: profile(name),
            background: None,
            scheduler: SchedulerKind::FrFcfs,
            time_scale: 2,
            max_cycles: 2 * MAX_DRAM_CYCLES,
        });
    }
    jobs
}

pub fn sizes_json() -> String {
    format!(
        "{{\"subjects\":{:?},\"background\":\"{BACKGROUND}\",\"systems\":{},\
         \"instructions\":{INSTRUCTIONS},\"max_dram_cycles\":{MAX_DRAM_CYCLES}}}",
        SUBJECTS,
        jobs().len()
    )
}

/// What one system's run produced: the library's metrics plus the
/// subject's load-miss latency tail (CPU cycles) and its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    pub metrics: SystemMetrics,
    pub subject_p99: u64,
    pub subject_samples: u64,
}

fn job_result(metrics: SystemMetrics, subject: &Core) -> JobResult {
    let h = subject.latency_histogram();
    JobResult {
        metrics,
        subject_p99: h.percentile(0.99),
        subject_samples: h.count(),
    }
}

/// Builds one system through the library.
fn build(job: &Job, seed: u64, observe: bool) -> Result<System, String> {
    let builder = job.builder(seed);
    if observe {
        builder.observe_events(OBSERVED_EVENT_CAPACITY).build()
    } else {
        builder.build()
    }
}

fn run(job: &Job, mut sys: System) -> JobResult {
    let metrics = sys.run(INSTRUCTIONS, job.max_cycles);
    job_result(metrics, sys.core(0))
}

fn build_all(jobs: &[Job], seed: u64, observe: bool) -> Result<Vec<System>, String> {
    jobs.iter().map(|job| build(job, seed, observe)).collect()
}

fn run_all(jobs: &[Job], systems: Vec<System>) -> Vec<JobResult> {
    jobs.iter()
        .zip(systems)
        .map(|(job, sys)| run(job, sys))
        .collect()
}

/// Builds every system, then runs them: results plus the seconds each
/// phase took.
fn serial_pass(
    jobs: &[Job],
    seed: u64,
    observe: bool,
) -> Result<(Vec<JobResult>, f64, f64), String> {
    let t = Instant::now();
    let systems = build_all(jobs, seed, observe)?;
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let results = black_box(run_all(jobs, systems));
    Ok((results, build_s, t.elapsed().as_secs_f64()))
}

/// The sweep on `workers` threads through `fqms::experiment::run_jobs`;
/// each job builds and runs its own system.
fn parallel_pass(jobs: &[Job], seed: u64, workers: usize) -> Result<Vec<JobResult>, String> {
    let work: Vec<_> = jobs
        .iter()
        .map(|job| move || build(job, seed, false).map(|sys| run(job, sys)))
        .collect();
    run_jobs(work, workers).into_iter().collect()
}

fn requests(results: &[JobResult]) -> u64 {
    results
        .iter()
        .flat_map(|r| &r.metrics.threads)
        .map(|t| t.mem_reads + t.mem_writes)
        .sum()
}

/// The paper's answers and the QoS tail from one pass's results.
struct Answers {
    /// Systems whose every thread reached the instruction target.
    completed_frac: f64,
    /// Worst FQ-VFTF subject's p99 load-miss latency, in DRAM cycles.
    qos_p99_cycles: f64,
    /// Lowest FQ-VFTF subject IPC over its ×2 baseline IPC.
    fq_qos_min_norm_ipc: f64,
    /// Mean over subjects of hmean normalized IPC, FQ-VFTF over FR-FCFS, − 1.
    fq_hmean_gain: f64,
}

fn answers(jobs: &[Job], results: &[JobResult]) -> Result<Answers, String> {
    let baseline = |p: &WorkloadProfile| -> f64 {
        jobs.iter()
            .zip(results)
            .find(|(j, _)| j.background.is_none() && j.subject.name == p.name)
            .map(|(_, r)| r.metrics.threads[0].ipc)
            .expect("every profile has a baseline job")
    };
    let hmean = |j: &Job, r: &JobResult| -> f64 {
        let bg = j.background.expect("shared job");
        harmonic_mean(&[
            r.metrics.threads[0].ipc / baseline(&j.subject),
            r.metrics.threads[1].ipc / baseline(&bg),
        ])
    };
    let shared = |kind: SchedulerKind| {
        jobs.iter()
            .zip(results)
            .filter(move |(j, _)| j.background.is_some() && j.scheduler == kind)
    };
    let completed = results
        .iter()
        .filter(|r| {
            r.metrics
                .threads
                .iter()
                .all(|t| t.instructions >= INSTRUCTIONS)
        })
        .count();
    let qos_p99_cycles = shared(SchedulerKind::FqVftf)
        .filter(|(_, r)| r.subject_samples >= 100 * MIN_BEYOND as u64)
        .map(|(_, r)| r.subject_p99 as f64 / CPU_RATIO as f64)
        .reduce(f64::max)
        .ok_or("no FQ-VFTF subject has enough misses for a p99")?;
    let fq_qos_min_norm_ipc = shared(SchedulerKind::FqVftf)
        .map(|(j, r)| r.metrics.threads[0].ipc / baseline(&j.subject))
        .reduce(f64::min)
        .expect("the sweep has FQ-VFTF runs");
    let gains: Vec<f64> = shared(SchedulerKind::FqVftf)
        .zip(shared(SchedulerKind::FrFcfs))
        .map(|((jf, rf), (jr, rr))| hmean(jf, rf) / hmean(jr, rr) - 1.0)
        .collect();
    Ok(Answers {
        completed_frac: completed as f64 / results.len() as f64,
        qos_p99_cycles,
        fq_qos_min_norm_ipc,
        fq_hmean_gain: gains.iter().sum::<f64>() / gains.len() as f64,
    })
}

/// The end-to-end passes: one untimed warm-up sweep on the reference
/// input, which gives the simulated answers, then timed sweeps on the
/// `seed` input, each followed by the parallel sweep, until `seconds` have
/// passed. A sweep builds and runs one system after the other, timing each
/// build (setup) and run (wall) on its own so that host-speed changes are
/// tracked within the sweep. The parallel sweep must equal the serial one,
/// and every sweep must reproduce the first exactly.
pub fn measure(seed: u64, seconds: f64, workers: usize) -> Result<EndToEnd, String> {
    let jobs = jobs();
    let (canonical, _, _) = serial_pass(&jobs, REFERENCE_SEED, false)?;
    let a = answers(&jobs, &canonical)?;
    let mut out = EndToEnd::after_warm_up()?;
    out.completed_frac = a.completed_frac;
    out.qos_p99_cycles = a.qos_p99_cycles;
    drop(canonical);

    let mut first: Option<Vec<JobResult>> = None;
    passes(seconds, PASSES, || {
        let (mut setup, mut wall) = (Sample::default(), Sample::default());
        let mut results = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let (sys, s) = out.clock.time(1, || build(job, seed, false));
            let (result, w) = out.clock.time(1, || sys.map(|sys| run(job, sys)));
            setup = setup + s;
            wall = wall + w;
            results.push(result?);
        }
        out.setup.push(setup);
        out.wall.push(wall);
        let (par, par_wall) = out
            .clock
            .time(workers, || parallel_pass(&jobs, seed, workers));
        out.par_wall.push(par_wall);
        out.check(par? == results);
        let first = first.get_or_insert_with(|| results.clone());
        out.check(results == *first);
        out.requests = requests(&results);
        Ok(())
    })?;
    let wall = median(&out.wall.iter().map(|s| s.norm).collect::<Vec<_>>());
    let instructions: u64 = first
        .iter()
        .flatten()
        .flat_map(|r| &r.metrics.threads)
        .map(|t| t.instructions)
        .sum();
    out.extra = vec![
        (
            "sim_minst_per_s",
            instructions as f64 / wall / 1e6,
            "Minst/s",
        ),
        ("fq_qos_min_norm_ipc", a.fq_qos_min_norm_ipc, "ratio"),
        ("fq_hmean_gain", a.fq_hmean_gain, "ratio"),
    ];
    Ok(out)
}

/// The trace-run rounds: each round times the opaque serial, parallel and
/// observed sweeps, then replays the sweep through the traced replica,
/// whose results must equal the opaque ones.
pub fn trace(
    seed: u64,
    seconds: f64,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let jobs = jobs();
    let (reference, _, _) = serial_pass(&jobs, seed, false)?;
    let mut round = Round::default();
    passes(seconds, 1, || {
        let (results, setup_s, wall_s) = serial_pass(&jobs, seed, false)?;
        round.check(results == reference);
        let t = Instant::now();
        let par = black_box(parallel_pass(&jobs, seed, workers)?);
        let par_s = t.elapsed().as_secs_f64();
        round.check(par == reference);
        let (observed, _, observed_s) = serial_pass(&jobs, seed, true)?;
        round.check(observed == reference);

        tracer.layers = Default::default();
        for (job, expected) in jobs.iter().zip(&reference) {
            let replayed = replica(job, seed, INSTRUCTIONS, tracer)?;
            round.check(&replayed == expected);
        }
        round.push(
            &tracer.layers,
            &Untraced {
                wall_s,
                serial_s: setup_s + wall_s,
                par_s,
                observed_s,
            },
        );
        Ok(())
    })?;
    Ok(round)
}

/// The controller seen through `MemoryPort`, timing every submit the
/// cores make.
struct TimedPort<'a> {
    mc: &'a mut MultiChannelController,
    tr: &'a mut Tracer,
    parent: Option<usize>,
    calls: u64,
}

impl MemoryPort for TimedPort<'_> {
    fn submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack> {
        let a = self.tr.now();
        let res = self.mc.try_submit(thread, kind, phys, now);
        let b = self.tr.now();
        self.calls += 1;
        let l = &mut self.tr.layers;
        l.submit.record(b - a);
        l.cpu_port_ns += b - a;
        match res {
            Ok(_) => l.accepted += 1,
            Err(Nack::Shed { .. }) => l.shed += 1,
            Err(Nack::Throttled { .. }) => {
                l.nacks += 1;
                l.throttled += 1;
            }
            Err(_) => l.nacks += 1,
        }
        self.tr.leaf(
            "port.submit",
            a,
            b,
            self.parent,
            res.ok().map(|id| id.as_u64()),
        );
        res
    }
}

/// Replays `SystemBuilder::build` and `System::run` for one job through
/// the cores' and controller's public calls, timing each into the tracer.
/// Mirrors `build`, `run_inner`, `step` and `metrics` in
/// `fqms::system`; the result is compared against the library's.
pub fn replica(
    job: &Job,
    seed: u64,
    instructions: u64,
    tr: &mut Tracer,
) -> Result<JobResult, String> {
    let setup_start = tr.now();
    let profiles = job.profiles();
    let n = profiles.len();
    let config = McConfig::with_shares(job.scheduler, vec![1.0 / n as f64; n]);
    let mut mc = MultiChannelController::new(1, config, Geometry::paper(), job.timing())?;
    let core_cfg = CoreConfig::paper();
    let mut cores = Vec::with_capacity(n);
    for (i, p) in profiles.iter().enumerate() {
        let trace = SyntheticTrace::for_thread(*p, seed, i as u32)?;
        let mut core = Core::new(core_cfg, ThreadId::new(i as u32), Box::new(trace))?;
        // `SystemBuilder::build`: about four passes over the footprint.
        let lines = p.footprint_bytes / core_cfg.l1d.line_bytes;
        let t = tr.now();
        core.prewarm_caches((4 * lines).min(4_000_000));
        tr.layers.prewarm_ns += tr.now() - t;
        cores.push(core);
    }

    let t0 = tr.now();
    tr.layers.setup_ns += t0 - setup_start;
    let system = tr.open("system.run", t0, None);
    for core in &mut cores {
        core.reset_stats();
    }
    mc.reset_stats(DramCycle::ZERO);
    let start = DramCycle::ZERO;
    let mut now = start;
    let mut finish_cycles: Vec<Option<u64>> = vec![None; n];
    let mut finish_insts = vec![0u64; n];
    let mut done = Vec::new();
    loop {
        // System::step: `CPU_RATIO` ticks of every core, one controller
        // step, then read completions routed back to their cores.
        now.tick();
        let base_cpu = now.as_u64() * CPU_RATIO;
        let a = tr.now();
        let batch = tr.open("cpu.ticks", a, system);
        let (mut ticks, mut useful) = (0, 0);
        let mut port = TimedPort {
            mc: &mut mc,
            tr: &mut *tr,
            parent: batch,
            calls: 0,
        };
        for sub in 0..CPU_RATIO {
            let now_cpu = CpuCycle::new(base_cpu + sub);
            for core in &mut cores {
                let (retired, calls) = (core.retired(), port.calls);
                core.tick(now_cpu, now, &mut port);
                ticks += 1;
                if core.retired() != retired || port.calls != calls {
                    useful += 1;
                }
            }
        }
        let b = tr.now();
        tr.close(batch, b);
        tr.layers.cpu_batch.record(b - a);
        tr.layers.ticks += ticks;
        tr.layers.useful_ticks += useful;

        done.clear();
        mc.step_into(now, &mut done);
        let c = tr.now();
        tr.layers.step.record(c - b);
        let step = tr.leaf("controller.step", b, c, system, None);
        for d in &done {
            tr.leaf("controller.complete", c, c, step, Some(d.id.as_u64()));
        }
        for d in &done {
            if d.kind == RequestKind::Read {
                let ready = CpuCycle::new(d.finish.as_u64() * CPU_RATIO + core_cfg.memory_overhead);
                let a = tr.now();
                cores[d.thread.as_usize()].on_completion(d, ready);
                let b = tr.now();
                tr.layers.on_completion.record(b - a);
                tr.leaf("cpu.on_completion", a, b, system, Some(d.id.as_u64()));
            }
        }

        // System::run_inner: each thread's finish line, then the cap.
        let mut all_done = true;
        for (i, core) in cores.iter().enumerate() {
            if finish_cycles[i].is_none() {
                if core.retired() >= instructions {
                    finish_cycles[i] = Some(core.cycles());
                    finish_insts[i] = core.retired();
                } else {
                    all_done = false;
                }
            }
        }
        if all_done {
            break;
        }
        if now - start >= job.max_cycles {
            for (i, core) in cores.iter().enumerate() {
                if finish_cycles[i].is_none() {
                    finish_cycles[i] = Some(core.cycles());
                    finish_insts[i] = core.retired();
                }
            }
            break;
        }
    }
    mc.finish(now);
    let t1 = tr.now();
    tr.close(system, t1);
    tr.layers.loop_ns += t1 - t0;

    // System::metrics.
    let elapsed = (now - start).max(1);
    let channels = mc.num_channels() as u64;
    let threads: Vec<ThreadMetrics> = cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let cycles = finish_cycles[i].unwrap_or(0).max(1);
            let insts = finish_insts[i];
            let mcs = mc.thread_stats(ThreadId::new(i as u32));
            ThreadMetrics {
                name: profiles[i].name.to_string(),
                instructions: insts,
                cpu_cycles: cycles,
                ipc: insts as f64 / cycles as f64,
                avg_read_latency: core.stats().avg_miss_latency(),
                p95_read_latency: core.latency_histogram().percentile(0.95),
                bus_utilization: mcs.bus_utilization(elapsed * channels),
                row_hit_rate: mcs.row_hit_rate(),
                mem_reads: mcs.reads_completed,
                mem_writes: mcs.writes_completed,
            }
        })
        .collect();
    let metrics = SystemMetrics {
        threads,
        elapsed_dram_cycles: elapsed,
        data_bus_utilization: mc.bus_busy_cycles() as f64 / (elapsed * channels) as f64,
        bank_utilization: mc.bank_busy_cycles() as f64
            / (elapsed * u64::from(mc.total_banks())) as f64,
    };

    let l = &mut tr.layers;
    for ch in 0..mc.num_channels() {
        let (acts, pres, reads, writes, refreshes) = mc.channel(ch).dram().command_counts();
        l.dram_cmds += acts + pres + reads + writes + refreshes;
    }
    l.requests += metrics
        .threads
        .iter()
        .map(|t| t.mem_reads + t.mem_writes)
        .sum::<u64>();
    l.stepped += mc.stepped_cycles();
    l.skipped += mc.skipped_cycles();
    l.bus_busy += mc.bus_busy_cycles();
    l.channel_cycles += elapsed * channels;
    for i in 0..n {
        let s = mc.thread_stats(ThreadId::new(i as u32));
        l.row_hits += s.row_hits;
        l.row_accesses += s.row_hits + s.row_closed + s.row_conflicts;
    }
    Ok(job_result(metrics, &cores[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replica must reproduce `System::run` exactly; a short run keeps
    /// the test fast (the prewarm is the same as the full workload's).
    #[test]
    fn replica_equals_system_run() {
        for subject in ["vpr", "mcf"] {
            for scheduler in SCHEDULERS {
                let job = Job {
                    subject: profile(subject),
                    background: Some(profile(BACKGROUND)),
                    scheduler,
                    time_scale: 1,
                    max_cycles: MAX_DRAM_CYCLES,
                };
                let mut sys = job.builder(3).build().unwrap();
                let expected = job_result(sys.run(2_000, job.max_cycles), sys.core(0));
                let mut tr = Tracer::new(1_000);
                let replayed = replica(&job, 3, 2_000, &mut tr).unwrap();
                assert_eq!(
                    replayed,
                    expected,
                    "{subject}+art under {}",
                    scheduler.name()
                );
                let l = &tr.layers;
                assert_eq!(l.ticks, l.cpu_batch.calls() * CPU_RATIO * 2);
                assert!(l.useful_ticks > 0 && l.useful_ticks <= l.ticks);
                assert_eq!(l.submit.calls(), l.accepted + l.nacks + l.shed);
            }
        }
    }
}

//! The engine-path workloads: open-loop submission schedules driven through
//! `fqms_memctrl::engine` (`simulate_serial` / `simulate_parallel`), and the
//! outside-in replica of its per-channel `drive` loop used by traced runs.

use crate::measure::{passes, EndToEnd, Round, REFERENCE_SEED};
use crate::stats::supported_p99;
use crate::trace::{Tracer, Untraced, OBSERVED_EVENT_CAPACITY};
use fqms_memctrl::buffers::Nack;
use fqms_memctrl::config::OverloadConfig;
use fqms_memctrl::controller::{Completion, MemoryController};
use fqms_memctrl::engine::{
    interference_workload, simulate_parallel, simulate_serial, synthetic_workload, EngineReport,
    EngineSpec, RetryPolicy, SubmitEvent,
};
use fqms_memctrl::multichannel::MultiChannelController;
use fqms_memctrl::request::ThreadId;
use fqms_memctrl::stats::ThreadStats;
use fqms_obs::NullObserver;
use fqms_sim::clock::DramCycle;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// The three engine workloads. Each stresses a different layer; see the
/// README for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// Saturated controller on 4 channels: the scheduler step dominates
    /// and most submits are NACKed; the first workload where the parallel
    /// executor has channels to spread.
    Dense,
    /// 64 channels of light QoS traffic: almost every cycle is skipped by
    /// `tick_until`, the scheduler does little and nothing is NACKed.
    Sparse,
    /// One channel flooded past its service rate with admission throttling
    /// and load shedding armed: typed `Throttled`/`Shed` refusals, bounded
    /// retries and a nonzero share of requests that never complete.
    Flood,
}

impl EngineWorkload {
    /// Simulated cycles of submissions the full-size workload generates.
    pub fn gen_cycles(self) -> u64 {
        match self {
            EngineWorkload::Dense => 150_000,
            EngineWorkload::Sparse => 4_000_000,
            EngineWorkload::Flood => 200_000,
        }
    }

    /// The submission schedule for `cycles` cycles (threads 1..3 are
    /// aggressors; thread 0 is the QoS reader in `Sparse` and `Flood`).
    pub fn events(self, seed: u64, cycles: u64) -> Vec<SubmitEvent> {
        match self {
            EngineWorkload::Dense => synthetic_workload(4, cycles, 0.6, seed),
            EngineWorkload::Sparse => interference_workload(4, cycles, 0.005, 0.015, seed),
            EngineWorkload::Flood => interference_workload(4, cycles, 0.05, 0.5, seed),
        }
    }

    /// The engine configuration, FQ-VFTF on the paper's Table 5 memory.
    pub fn spec(self) -> EngineSpec {
        match self {
            EngineWorkload::Dense => EngineSpec::paper(4, 4),
            EngineWorkload::Sparse => {
                let mut spec = EngineSpec::paper(64, 4);
                spec.max_cycles = 2 * self.gen_cycles();
                spec
            }
            EngineWorkload::Flood => {
                // The throttle+shed cell of the `overload` study.
                let mut spec = EngineSpec::paper(1, 4);
                spec.epoch_cycles = 512;
                spec.max_cycles = 20_000_000;
                spec.retry = RetryPolicy::bounded(1, 1, 8);
                spec.config = spec.config.with_overload(
                    OverloadConfig::new(4)
                        .throttled(1000, 8, 1.0)
                        .protect(0)
                        .shedding(500, 24, 8, 48, 8),
                );
                spec
            }
        }
    }

    /// Worker threads for the parallel pass: one per channel at most.
    pub fn workers(self, nproc: usize) -> usize {
        nproc.min(self.spec().num_channels).max(1)
    }

    /// The workload's sizes for the run record, as a JSON object.
    pub fn sizes_json(self, seed: u64) -> String {
        let spec = self.spec();
        format!(
            "{{\"gen_cycles\":{},\"requests\":{},\"channels\":{},\"threads\":{},\
             \"epoch_cycles\":{},\"max_cycles\":{}}}",
            self.gen_cycles(),
            self.events(seed, self.gen_cycles()).len(),
            spec.num_channels,
            spec.config.num_threads(),
            spec.epoch_cycles,
            spec.max_cycles
        )
    }
}

/// Checks that every submitted request is accounted for exactly once.
pub fn check_conservation(report: &EngineReport, submitted: usize) -> Result<(), String> {
    let dropped: u64 = report.per_thread.iter().map(|t| t.requests_dropped).sum();
    let accounted = report.total_completed()
        + dropped as usize
        + report.total_rejected()
        + report.total_shed()
        + report.unsubmitted;
    if accounted == submitted {
        Ok(())
    } else {
        Err(format!(
            "conservation broken: completed {} + dropped {dropped} + rejected {} + shed {} + \
             unsubmitted {} = {accounted} != submitted {submitted}",
            report.total_completed(),
            report.total_rejected(),
            report.total_shed(),
            report.unsubmitted
        ))
    }
}

/// p99 latency in DRAM cycles of thread 0's completions.
fn qos_p99(report: &EngineReport) -> Result<f64, String> {
    let mut lat: Vec<u64> = report
        .completions
        .iter()
        .flatten()
        .filter(|c| c.thread == ThreadId::new(0))
        .map(Completion::latency)
        .collect();
    lat.sort_unstable();
    supported_p99(&lat)
        .map(|p99| p99 as f64)
        .map_err(|e| format!("thread 0 latency: {e}"))
}

/// The end-to-end passes: one untimed warm-up on the reference input, which
/// gives the simulated answers, then timed passes on the `seed` input of
/// schedule generation (setup), `simulate_serial` and `simulate_parallel`
/// until `seconds` have passed; each section times several calls (see
/// `Clock`). Every report must obey conservation, the parallel one must
/// equal the serial one, and every pass must reproduce the first exactly.
pub fn measure(
    w: EngineWorkload,
    seed: u64,
    seconds: f64,
    workers: usize,
) -> Result<EndToEnd, String> {
    let spec = w.spec();
    let canonical = w.events(REFERENCE_SEED, w.gen_cycles());
    let answer = simulate_serial(&spec, &canonical)?;
    check_conservation(&answer, canonical.len())?;
    let mut out = EndToEnd::after_warm_up()?;
    out.completed_frac = answer.total_completed() as f64 / canonical.len() as f64;
    out.qos_p99_cycles = qos_p99(&answer)?;
    drop((canonical, answer));

    let events = w.events(seed, w.gen_cycles());
    let mut first: Option<EngineReport> = None;
    passes(seconds, 3, || {
        let (ev, setup) = out
            .clock
            .time_short_calls(|| w.events(seed, w.gen_cycles()));
        out.setup.push(setup);
        let (serial, wall) = out.clock.time_calls(1, || simulate_serial(&spec, &ev));
        out.wall.push(wall);
        let (par, par_wall) = out
            .clock
            .time_calls(workers, || simulate_parallel(&spec, &ev, workers));
        out.par_wall.push(par_wall);
        let serial = serial?;
        out.check(ev == events);
        out.check(par? == serial);
        out.check(check_conservation(&serial, ev.len()).is_ok());
        let first = first.get_or_insert_with(|| serial.clone());
        out.check(serial == *first);
        out.requests = serial.total_completed() as u64;
        Ok(())
    })?;
    Ok(out)
}

/// The trace-run rounds: each round times the opaque serial, parallel and
/// observed passes, then replays the schedule through the traced replica,
/// whose report must equal the opaque one.
pub fn trace(
    w: EngineWorkload,
    seed: u64,
    seconds: f64,
    workers: usize,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let spec = w.spec();
    let mut observed_spec = spec.clone();
    observed_spec.event_capacity = Some(OBSERVED_EVENT_CAPACITY);
    let events = w.events(seed, w.gen_cycles());
    let reference = simulate_serial(&spec, &events)?;
    let mut round = Round::default();
    passes(seconds, 1, || {
        let t = Instant::now();
        let serial = black_box(simulate_serial(&spec, &events)?);
        let wall_s = t.elapsed().as_secs_f64();
        round.check(serial == reference);
        let t = Instant::now();
        let par = black_box(simulate_parallel(&spec, &events, workers)?);
        let par_s = t.elapsed().as_secs_f64();
        round.check(par == reference);
        let t = Instant::now();
        let mut observed = black_box(simulate_serial(&observed_spec, &events)?);
        let observed_s = t.elapsed().as_secs_f64();
        observed.observations = None;
        round.check(observed == reference);

        tracer.layers = Default::default();
        let t0 = tracer.now();
        let ev = black_box(w.events(seed, w.gen_cycles()));
        tracer.layers.setup_ns = tracer.now() - t0;
        let replayed = replica(&spec, &ev, tracer)?;
        round.check(replayed == reference);
        round.push(
            &tracer.layers,
            &Untraced {
                wall_s,
                serial_s: wall_s,
                par_s,
                observed_s,
            },
        );
        Ok(())
    })?;
    Ok(round)
}

/// One channel of the replica: the controller plus its slice of the
/// schedule and the head-of-line retry state of its submission port.
struct Shard {
    mc: MemoryController,
    events: VecDeque<SubmitEvent>,
    head_retries: u32,
    head_ready_at: u64,
    rejected: Vec<SubmitEvent>,
    shed: Vec<SubmitEvent>,
    completions: Vec<Completion>,
}

/// Replays `simulate_serial` through the controller's public calls
/// (`try_submit`, `step_into`, `tick_until`), timing each into the tracer.
/// Mirrors `build_shards`, `run_serial`, `drive` and `merge` in
/// `fqms_memctrl::engine` and `fqms_sim::parallel`; the report is compared
/// against the library's, so any divergence fails the run.
pub fn replica(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    tr: &mut Tracer,
) -> Result<EngineReport, String> {
    if spec.log_capacity.is_some() || spec.event_capacity.is_some() || spec.fault_plan.is_some() {
        return Err("the replica covers unlogged, unobserved, fault-free specs only".into());
    }
    spec.config.validate()?;
    // Routing the schedule onto shards is part of `simulate_serial`'s wall.
    let t0 = tr.now();
    let pass = tr.open("engine.pass", t0, None);
    let channels = spec.num_channels;
    let mut shards = Vec::with_capacity(channels);
    for ch in 0..channels {
        let mut mc = MemoryController::new(spec.config.clone(), spec.geometry, spec.timing)?;
        mc.set_id_numbering(ch as u64, channels as u64);
        shards.push(Shard {
            mc,
            events: VecDeque::new(),
            head_retries: 0,
            head_ready_at: 0,
            rejected: Vec::new(),
            shed: Vec::new(),
            completions: Vec::new(),
        });
    }
    for ev in events {
        let (ch, local) =
            MultiChannelController::localize(spec.config.line_bytes, channels, ev.phys);
        shards[ch]
            .events
            .push_back(SubmitEvent { phys: local, ..*ev });
    }

    let mut done = vec![false; channels];
    let mut remaining = channels;
    let mut start = 0u64;
    while start < spec.max_cycles && remaining > 0 {
        let end = spec.max_cycles.min(start + spec.epoch_cycles);
        for (shard, d) in shards.iter_mut().zip(done.iter_mut()) {
            if *d {
                continue;
            }
            let span = tr.open("engine.drive", tr.now(), pass);
            let alive = drive(shard, spec, start, end, tr, span);
            tr.close(span, tr.now());
            if !alive {
                *d = true;
                remaining -= 1;
            }
        }
        start = end;
    }
    let t1 = tr.now();
    tr.close(pass, t1);
    tr.layers.loop_ns += t1 - t0;

    let cycles = start;
    let threads = spec.config.num_threads();
    let mut report = EngineReport {
        cycles,
        per_thread: vec![ThreadStats::default(); threads],
        completions: Vec::with_capacity(channels),
        command_logs: Vec::new(),
        bus_busy_cycles: 0,
        unsubmitted: 0,
        rejected: Vec::with_capacity(channels),
        shed: Vec::with_capacity(channels),
        stepped_cycles: 0,
        skipped_cycles: 0,
        observations: None,
    };
    let l = &mut tr.layers;
    for mut shard in shards {
        shard.mc.finish(DramCycle::new(cycles));
        for (t, agg) in report.per_thread.iter_mut().enumerate() {
            agg.merge(shard.mc.stats().thread(ThreadId::new(t as u32)));
        }
        let (acts, pres, reads, writes, refreshes) = shard.mc.dram().command_counts();
        l.dram_cmds += acts + pres + reads + writes + refreshes;
        report.bus_busy_cycles += shard.mc.dram().bus_busy_cycles();
        report.unsubmitted += shard.events.len();
        report.rejected.push(shard.rejected);
        report.shed.push(shard.shed);
        report.stepped_cycles += shard.mc.stepped_cycles();
        report.skipped_cycles += shard.mc.skipped_cycles();
        report.completions.push(shard.completions);
    }
    l.requests += report.total_completed() as u64;
    l.rejected += report.total_rejected() as u64;
    l.stepped += report.stepped_cycles;
    l.skipped += report.skipped_cycles;
    l.bus_busy += report.bus_busy_cycles;
    l.channel_cycles += cycles * channels as u64;
    for t in &report.per_thread {
        l.row_hits += t.row_hits;
        l.row_accesses += t.row_hits + t.row_closed + t.row_conflicts;
    }
    Ok(report)
}

/// Records a zero-length completion span under `parent` for each of `done`.
fn completion_spans(tr: &mut Tracer, done: &[Completion], at: u64, parent: Option<usize>) {
    for c in done {
        tr.leaf("controller.complete", at, at, parent, Some(c.id.as_u64()));
    }
}

/// One channel over the epoch window `(start, end]`: the engine's `drive`
/// with `NullObserver`, each controller call timed.
fn drive(
    sh: &mut Shard,
    spec: &EngineSpec,
    start: u64,
    end: u64,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> bool {
    let retry = spec.retry;
    let mut now = start;
    while now < end {
        let next_due = sh
            .events
            .front()
            .map_or(u64::MAX, |e| e.at.as_u64().max(sh.head_ready_at));
        if spec.fast_forward && next_due > now + 1 {
            let stop = end.min(next_due - 1);
            let before = sh.completions.len();
            let a = tr.now();
            sh.mc.tick_until(
                DramCycle::new(now),
                DramCycle::new(stop),
                &mut sh.completions,
            );
            let b = tr.now();
            tr.layers.tick_until.record(b - a);
            let span = tr.leaf("controller.tick_until", a, b, parent, None);
            completion_spans(tr, &sh.completions[before..], b, span);
            now = stop;
            continue;
        }
        now += 1;
        let cycle = DramCycle::new(now);
        while let Some(&ev) = sh.events.front() {
            if ev.at.as_u64() > now || sh.head_ready_at > now {
                break; // not due yet, or backing off
            }
            let a = tr.now();
            let res = sh.mc.try_submit(ev.thread, ev.kind, ev.phys, cycle);
            let b = tr.now();
            tr.layers.submit.record(b - a);
            tr.leaf("port.submit", a, b, parent, res.ok().map(|id| id.as_u64()));
            match res {
                Ok(_) => {
                    tr.layers.accepted += 1;
                    sh.events.pop_front();
                    sh.head_retries = 0;
                    sh.head_ready_at = 0;
                }
                Err(Nack::Shed { .. }) => {
                    tr.layers.shed += 1;
                    sh.shed.push(ev);
                    sh.events.pop_front();
                    sh.head_retries = 0;
                    sh.head_ready_at = 0;
                }
                Err(nack) => {
                    tr.layers.nacks += 1;
                    sh.head_retries += 1;
                    if retry.max_retries.is_some_and(|max| sh.head_retries > max) {
                        sh.rejected.push(ev);
                        sh.events.pop_front();
                        sh.head_retries = 0;
                        sh.head_ready_at = 0;
                        continue;
                    }
                    let mut delay = retry.delay(sh.head_retries);
                    if let Nack::Throttled { retry_after } = nack {
                        tr.layers.throttled += 1;
                        delay = delay.max(retry_after);
                    }
                    sh.head_ready_at = now + delay;
                    break;
                }
            }
        }
        let before = sh.completions.len();
        let a = tr.now();
        sh.mc
            .step_into(cycle, &mut sh.completions, &mut NullObserver);
        let b = tr.now();
        tr.layers.step.record(b - a);
        let span = tr.leaf("controller.step", a, b, parent, None);
        completion_spans(tr, &sh.completions[before..], b, span);
    }
    !(sh.events.is_empty() && sh.mc.is_idle())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small versions of all three workloads: the replica must reproduce
    /// `simulate_serial` exactly, including retries, throttle hints,
    /// rejections and sheds.
    #[test]
    fn replica_equals_simulate_serial() {
        for (w, cycles) in [
            (EngineWorkload::Dense, 4_000),
            (EngineWorkload::Sparse, 60_000),
            (EngineWorkload::Flood, 20_000),
        ] {
            let spec = w.spec();
            let events = w.events(11, cycles);
            let reference = simulate_serial(&spec, &events).unwrap();
            let mut tr = Tracer::new(1_000);
            let replayed = replica(&spec, &events, &mut tr).unwrap();
            assert_eq!(
                replayed.per_thread, reference.per_thread,
                "{w:?} per-thread stats"
            );
            assert_eq!(
                replayed.completions, reference.completions,
                "{w:?} completions"
            );
            assert_eq!(replayed.rejected, reference.rejected, "{w:?} rejected");
            assert_eq!(replayed.shed, reference.shed, "{w:?} shed");
            assert_eq!(replayed, reference, "{w:?} full report");
            check_conservation(&replayed, events.len()).unwrap();
            let l = &tr.layers;
            assert_eq!(l.requests as usize, reference.total_completed());
            assert_eq!(
                l.submit.calls(),
                l.accepted + l.shed + l.nacks,
                "{w:?} submit outcomes"
            );
            if w == EngineWorkload::Flood {
                assert!(l.throttled > 0, "flood must exercise the throttle hint");
                assert!(l.shed > 0, "flood must exercise shedding");
                assert!(l.rejected > 0, "flood must exercise bounded retries");
            }
        }
    }
}

//! Outside-in tracing: spans and per-call timings recorded around calls into
//! the layers' public functions, from the benchmark's own code only.
//!
//! A traced pass replays a workload through a replica of the library's top
//! loop (`System::step` or the engine's `drive`) so every call into the CPU
//! model, the submission port and the controller can be timed. The replicas
//! live in `paper.rs` and `engine.rs`; this module holds what they record
//! into and turns it into the per-layer metrics.

use crate::measure::Metric;
use fqms_sim::stats::Log2Histogram;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Event-ring capacity per channel for the observed pass behind
/// `obs.ns_per_req`.
pub const OBSERVED_EVENT_CAPACITY: usize = 4096;

/// Time spent in one instrumented call site.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    pub total_ns: u64,
    pub hist: Log2Histogram,
}

impl CallStats {
    pub fn record(&mut self, ns: u64) {
        self.total_ns += ns;
        self.hist.record(ns);
    }

    pub fn calls(&self) -> u64 {
        self.hist.count()
    }
}

/// One span: a timed call or a group of calls, in nanoseconds since the
/// tracer's origin. `parent` indexes the enclosing span in the buffer;
/// submit and completion spans carry the request id.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: Option<u64>,
}

/// Span buffer plus the counters one traced pass accumulates.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    pub layers: Layers,
}

impl Tracer {
    /// A tracer keeping at most `capacity` spans (the rest are counted as
    /// dropped; timings and counters still cover every call).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
            layers: Layers::default(),
        }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span whose end is set later by [`Tracer::close`], so its
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, start: u64, parent: Option<usize>) -> Option<usize> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: None,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>, end: u64) {
        if let Some(i) = span {
            self.spans[i].end = end;
        }
    }

    /// Records a finished span; returns its index for spans it caused.
    #[inline]
    pub fn leaf(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> Option<usize> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Writes the span buffer as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `id`, `parent`, optional `req`), then one summary line with the
    /// number of spans dropped once the buffer was full.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{i},\"parent\":{}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
            if let Some(r) = s.req {
                write!(out, ",\"req\":{r}")?;
            }
            writeln!(out, "}}")?;
        }
        writeln!(
            out,
            "{{\"summary\":true,\"spans\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        out.flush()
    }
}

/// What one traced pass measured in each layer. Times are host
/// nanoseconds; everything else is a simulated count.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Setup of the pass: building systems or generating the schedule.
    pub setup_ns: u64,
    /// Functional cache prewarming inside setup (System path only).
    pub prewarm_ns: u64,
    /// Wall time of the replayed loops, setup excluded.
    pub loop_ns: u64,
    /// All cores' ticks of one DRAM cycle, nested port calls included.
    pub cpu_batch: CallStats,
    /// Port time spent inside `cpu_batch` (the cores' own submits).
    pub cpu_port_ns: u64,
    pub ticks: u64,
    /// Ticks that retired an instruction or called the port.
    pub useful_ticks: u64,
    pub on_completion: CallStats,
    pub submit: CallStats,
    /// Refusals other than sheds (buffer full and throttled).
    pub nacks: u64,
    pub throttled: u64,
    pub shed: u64,
    pub accepted: u64,
    /// Requests the engine port abandoned after its retry budget.
    pub rejected: u64,
    pub step: CallStats,
    pub tick_until: CallStats,
    /// Requests completed (reads and writes).
    pub requests: u64,
    pub dram_cmds: u64,
    pub stepped: u64,
    pub skipped: u64,
    pub bus_busy: u64,
    /// Simulated cycles times channels: the bus-utilization denominator.
    pub channel_cycles: u64,
    pub row_hits: u64,
    pub row_accesses: u64,
}

/// Host times of the untraced passes a trace run makes alongside the
/// traced one, in seconds per pass.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// The opaque library call the traced pass replays.
    pub wall_s: f64,
    /// The serial time of the work the parallel pass does: `wall_s`, plus
    /// set-up where the parallel pass builds its systems too.
    pub serial_s: f64,
    pub par_s: f64,
    /// `wall_s` with observers attached.
    pub observed_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced pass, in the order and with the
/// names and units `BENCHMARK.json` declares.
pub fn per_layer(l: &Layers, u: &Untraced) -> Vec<Metric> {
    let reqs = l.requests as f64;
    let loop_ns = l.loop_ns as f64;
    let cpu_self = (l.cpu_batch.total_ns - l.cpu_port_ns) as f64;
    // Every timed call the loop makes directly; the cores' submits are
    // already inside `cpu_batch`.
    let children = l.cpu_batch.total_ns
        + l.on_completion.total_ns
        + l.step.total_ns
        + l.tick_until.total_ns
        + (l.submit.total_ns - l.cpu_port_ns);
    let attempts = l.submit.calls() as f64;
    let offered = (l.accepted + l.shed + l.rejected) as f64;
    vec![
        ("setup.build_s", l.setup_ns as f64 / 1e9, "s"),
        (
            "setup.prewarm_frac",
            ratio(l.prewarm_ns as f64, l.setup_ns as f64),
            "ratio",
        ),
        (
            "loop.self_ns_per_req",
            ratio(loop_ns - children as f64, reqs),
            "ns",
        ),
        ("cpu.tick_time_frac", ratio(cpu_self, loop_ns), "ratio"),
        ("cpu.ticks_per_req", ratio(l.ticks as f64, reqs), "count"),
        (
            "cpu.useful_tick_frac",
            ratio(l.useful_ticks as f64, l.ticks as f64),
            "ratio",
        ),
        (
            "cpu.on_completion_time_frac",
            ratio(l.on_completion.total_ns as f64, loop_ns),
            "ratio",
        ),
        (
            "port.submit_ns_per_req",
            ratio(l.submit.total_ns as f64, reqs),
            "ns",
        ),
        (
            "port.submit_ns_p50",
            l.submit.hist.percentile(0.50) as f64,
            "ns",
        ),
        (
            "port.submit_ns_p99",
            l.submit.hist.percentile(0.99) as f64,
            "ns",
        ),
        ("port.nack_frac", ratio(l.nacks as f64, attempts), "ratio"),
        (
            "port.throttled_frac",
            ratio(l.throttled as f64, attempts),
            "ratio",
        ),
        ("port.shed_frac", ratio(l.shed as f64, offered), "ratio"),
        (
            "port.rejected_frac",
            ratio(l.rejected as f64, offered),
            "ratio",
        ),
        (
            "controller.step_ns_per_req",
            ratio(l.step.total_ns as f64, reqs),
            "ns",
        ),
        (
            "controller.step_ns_p50",
            l.step.hist.percentile(0.50) as f64,
            "ns",
        ),
        (
            "controller.step_ns_p99",
            l.step.hist.percentile(0.99) as f64,
            "ns",
        ),
        (
            "controller.steps_per_req",
            ratio(l.step.calls() as f64, reqs),
            "count",
        ),
        (
            "controller.issue_per_step",
            ratio(l.dram_cmds as f64, l.stepped as f64),
            "ratio",
        ),
        (
            "controller.tick_until_time_frac",
            ratio(l.tick_until.total_ns as f64, loop_ns),
            "ratio",
        ),
        (
            "controller.tick_until_calls_per_req",
            ratio(l.tick_until.calls() as f64, reqs),
            "count",
        ),
        (
            "controller.skip_rate",
            ratio(l.skipped as f64, (l.stepped + l.skipped) as f64),
            "ratio",
        ),
        (
            "dram.cmds_per_req",
            ratio(l.dram_cmds as f64, reqs),
            "count",
        ),
        (
            "dram.row_hit_rate",
            ratio(l.row_hits as f64, l.row_accesses as f64),
            "ratio",
        ),
        (
            "dram.bus_util",
            ratio(l.bus_busy as f64, l.channel_cycles as f64),
            "ratio",
        ),
        ("parallel.speedup", ratio(u.serial_s, u.par_s), "ratio"),
        (
            "obs.ns_per_req",
            ratio((u.observed_s - u.wall_s) * 1e9, reqs),
            "ns",
        ),
        (
            "trace.overhead_frac",
            ratio(loop_ns / 1e9, u.wall_s) - 1.0,
            "ratio",
        ),
    ]
}

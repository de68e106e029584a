//! The FQMS repository benchmark: host cost and simulated QoS of the
//! paper path (`System`) and the engine path (`SubmitEvent` schedules),
//! end to end, plus an outside-in per-layer trace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--spans DIR] [--out FILE]
//! ```
//!
//! Each workload runs in a child process of its own, with the library's
//! environment switches removed, so the command-line arguments are its only
//! inputs and its peak memory is its own. Every metric prints as
//! `workload<TAB>metric<TAB>value<TAB>unit`; with one `--workload` the last
//! line is a JSON summary. See README.md for the metrics and workloads.

mod engine;
mod measure;
mod paper;
mod stats;
mod trace;

use engine::EngineWorkload;
use measure::{EndToEnd, Metric, Sample, REFERENCE_S, REFERENCE_SEED};
use stats::Timing;
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Workload names, in the order `BENCHMARK.json` declares them.
const WORKLOADS: [&str; 4] = [
    "paper_2core",
    "engine_dense",
    "engine_sparse",
    "engine_flood",
];

/// Environment variables the library reads (`SystemBuilder::build` turns
/// on observers or checkpoint writes for the first three; the figure bins
/// read the last two). Children run without them.
const SCRUBBED_ENV: [&str; 5] = [
    "FQMS_SIDECAR",
    "FQMS_CHECKPOINT_DIR",
    "FQMS_CHECKPOINT_EVERY",
    "FQMS_RUNLEN",
    "FQMS_SEED",
];

/// Spans kept per traced run; later calls are still timed and counted.
const SPAN_CAPACITY: usize = 65_536;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--spans DIR] [--out FILE]";

#[derive(Debug, Clone)]
struct Args {
    /// One workload, or every workload when `None`.
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: PathBuf,
    out: PathBuf,
    /// Set on the re-executed process that measures one workload.
    child: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20,
        trace: false,
        spans: PathBuf::from("bench_out"),
        out: PathBuf::from("bench_out/results.json"),
        child: false,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |max: u64| -> Result<u64, String> {
            value
                .parse::<u64>()
                .ok()
                .filter(|n| *n <= max)
                .ok_or(format!(
                    "{flag} takes a whole number up to {max}, not {value:?}"
                ))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        WORKLOADS
                            .into_iter()
                            .find(|w| *w == name)
                            .ok_or(format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?,
                    ),
                }
            }
            "--seed" => args.seed = number(u64::MAX / 2)?,
            "--seconds" => args.seconds = number(3600)?.max(1),
            "--trace" => args.trace = number(1)? == 1,
            "--spans" => args.spans = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A timed section over the passes: normalized and as measured.
#[derive(Debug, Clone, Copy)]
struct Timed {
    norm: Timing,
    raw: Timing,
}

impl Timed {
    fn of(samples: &[Sample]) -> Timed {
        let pick = |f: fn(&Sample) -> f64| Timing::of(&samples.iter().map(f).collect::<Vec<_>>());
        Timed {
            norm: pick(|s| s.norm),
            raw: pick(|s| s.raw),
        }
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` declares them.
/// Times are host-speed-normalized medians over the passes.
fn end_to_end(e: &EndToEnd, timings: &[(&'static str, Timed)]) -> Vec<Metric> {
    let t = |name: &str| {
        timings
            .iter()
            .find(|(n, _)| *n == name)
            .expect("timed")
            .1
            .norm
            .median
    };
    vec![
        ("setup_s", t("setup_s"), "s"),
        ("wall_s", t("wall_s"), "s"),
        (
            "host_ns_per_req",
            t("wall_s") * 1e9 / e.requests as f64,
            "ns",
        ),
        ("par_wall_s", t("par_wall_s"), "s"),
        ("peak_rss_mb", e.peak_rss_mb, "MiB"),
        ("completed_frac", e.completed_frac, "ratio"),
        ("qos_p99_cycles", e.qos_p99_cycles, "cycles"),
    ]
}

/// What one workload's run reports.
struct Outcome {
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
    timings: Vec<(&'static str, Timed)>,
    attempted: u64,
    failed: u64,
    sizes: String,
}

fn run_workload(name: &'static str, args: &Args) -> Result<Outcome, String> {
    let engine = match name {
        "paper_2core" => None,
        "engine_dense" => Some(EngineWorkload::Dense),
        "engine_sparse" => Some(EngineWorkload::Sparse),
        "engine_flood" => Some(EngineWorkload::Flood),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let seconds = args.seconds as f64;
    let sizes = engine.map_or_else(paper::sizes_json, |w| w.sizes_json(args.seed));
    let workers = engine.map_or(nproc(), |w| w.workers(nproc()));
    if args.trace {
        let mut tracer = trace::Tracer::new(SPAN_CAPACITY);
        let round = match engine {
            None => paper::trace(args.seed, seconds, workers, &mut tracer)?,
            Some(w) => engine::trace(w, args.seed, seconds, workers, &mut tracer)?,
        };
        let path = args.spans.join(format!("{name}.spans.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        return Ok(Outcome {
            metrics: round.medians(),
            extra: Vec::new(),
            timings: Vec::new(),
            attempted: round.attempted,
            failed: round.failed,
            sizes,
        });
    }
    let e = match engine {
        None => paper::measure(args.seed, seconds, workers)?,
        Some(w) => engine::measure(w, args.seed, seconds, workers)?,
    };
    let timings = vec![
        ("setup_s", Timed::of(&e.setup)),
        ("wall_s", Timed::of(&e.wall)),
        ("par_wall_s", Timed::of(&e.par_wall)),
    ];
    Ok(Outcome {
        metrics: end_to_end(&e, &timings),
        extra: e.extra.clone(),
        timings,
        attempted: e.attempted,
        failed: e.failed,
        sizes,
    })
}

/// A number as JSON (every digit Rust's shortest round-trip form keeps).
fn num(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(x.to_string())
    } else {
        Err(format!("non-finite measurement {x}"))
    }
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)?
        );
    }
    out.push('}');
    Ok(out)
}

/// Metrics that are parallel timings; with one CPU they are not a
/// measurement of parallel speed.
fn is_parallel(metric: &str) -> bool {
    metric == "par_wall_s" || metric == "parallel.speedup"
}

/// Measures one workload in this process and prints its lines.
fn child(args: &Args) -> Result<bool, String> {
    if let Some(var) = SCRUBBED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is set; run the benchmark without --child"));
    }
    let name = args.workload.ok_or("--child needs --workload")?;
    let o = run_workload(name, args)?;
    let resolved = nproc() > 1;
    for (metric, value, unit) in o.metrics.iter().chain(&o.extra) {
        let shown = if is_parallel(metric) && !resolved {
            "unresolved".to_string()
        } else {
            num(*value)?
        };
        println!("{name}\t{metric}\t{shown}\t{unit}");
    }
    let correct = o.failed == 0;
    let mut timings = String::from("{");
    for (i, (metric, t)) in o.timings.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let summary = |t: &Timing| -> Result<String, String> {
            Ok(format!(
                "\"median\": {}, \"q1\": {}, \"q3\": {}, \"rel_iqr\": {}, \"min\": {}, \
                 \"max\": {}, \"n\": {}",
                num(t.median)?,
                num(t.q1)?,
                num(t.q3)?,
                num(t.rel_iqr())?,
                num(t.min)?,
                num(t.max)?,
                t.n
            ))
        };
        let _ = write!(
            timings,
            "{sep}\"{metric}\": {{{}, \"raw\": {{{}}}}}",
            summary(&t.norm)?,
            summary(&t.raw)?
        );
    }
    timings.push('}');
    println!(
        "#record\t{{\"workload\": \"{name}\", \"sizes\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"reference_seed\": {REFERENCE_SEED}, \
         \"reference_s\": {REFERENCE_S}, \
         \"timings\": {timings}, \"metrics\": {}, \"extra\": {}}}",
        o.sizes,
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)?,
        metrics_json(&o.extra)?
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted.max(1),
        o.failed,
        metrics_json(&o.metrics)?
    );
    Ok(correct)
}

/// Runs one workload in a child process with the scrubbed environment,
/// relaying its lines (all of them when `single`, else all but the JSON
/// summary); returns its run record and whether it succeeded.
fn run_child(args: &Args, workload: &str, single: bool) -> Result<(Option<String>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(&args.spans)
        .stdout(Stdio::piped());
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let mut proc = cmd
        .spawn()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let mut record = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {workload}: {e}"))?;
        if let Some(r) = line.strip_prefix("#record\t") {
            record = Some(r.to_string());
        } else if single || !line.starts_with('{') {
            println!("{line}");
        }
    }
    let status = proc
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    Ok((record, status.success()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the selected workloads one child at a time and writes the run
/// record; the last stdout line of a single-workload run is its summary.
fn parent(args: &Args, selected: &[&'static str]) -> Result<bool, String> {
    let mut records = Vec::new();
    let mut ok = true;
    for w in selected {
        let (record, success) = run_child(args, w, selected.len() == 1)?;
        ok &= success;
        records.extend(record);
    }
    write_file(
        &args.out,
        &format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \
             \"parallel_resolved\": {}, \"workloads\": [{}]}}\n",
            args.seed,
            args.seconds,
            args.trace,
            nproc(),
            nproc() > 1,
            records.join(", ")
        ),
    )?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&'static str> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let result = if args.child {
        child(&args)
    } else {
        parent(&args, &selected)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{per_layer, Layers, Untraced};

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object: {self:?}"),
            }
        }

        fn names(&self, key: &str) -> Vec<String> {
            match self.get(key) {
                Json::Arr(items) => items
                    .iter()
                    .map(|i| match i.get("name") {
                        Json::Str(s) => s.clone(),
                        other => panic!("name is {other:?}"),
                    })
                    .collect(),
                other => panic!("{key} is {other:?}"),
            }
        }
    }

    fn parse(s: &str) -> Json {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing input");
        v
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.b[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            while self.b[self.i] != b'"' {
                if self.b[self.i] == b'\\' {
                    self.i += 1;
                }
                out.push(self.b[self.i] as char);
                self.i += 1;
            }
            self.i += 1;
            out
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.b[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut kv = Vec::new();
                    self.ws();
                    while self.b[self.i] != b'}' {
                        let k = self.string();
                        self.eat(b':');
                        kv.push((k, self.value()));
                        self.ws();
                        if self.b[self.i] == b',' {
                            self.i += 1;
                            self.ws();
                        }
                    }
                    self.i += 1;
                    Json::Obj(kv)
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    while self.b[self.i] != b']' {
                        items.push(self.value());
                        self.ws();
                        if self.b[self.i] == b',' {
                            self.i += 1;
                        }
                        self.ws();
                    }
                    self.i += 1;
                    Json::Arr(items)
                }
                b'"' => Json::Str(self.string()),
                b't' | b'f' | b'n' => {
                    let word: String = self.b[self.i..]
                        .iter()
                        .take_while(|c| c.is_ascii_alphabetic())
                        .map(|&c| c as char)
                        .collect();
                    self.i += word.len();
                    match word.as_str() {
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        "null" => Json::Null,
                        _ => panic!("bad literal {word}"),
                    }
                }
                _ => {
                    let start = self.i;
                    while self
                        .b
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE0123456789".contains(c))
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
                }
            }
        }
    }

    fn declared() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
    }

    fn emitted_end_to_end() -> Vec<Metric> {
        let e = EndToEnd::after_warm_up().unwrap();
        let s = Sample {
            raw: 1.0,
            norm: 1.0,
        };
        let t = Timed::of(&[s, s]);
        end_to_end(&e, &[("setup_s", t), ("wall_s", t), ("par_wall_s", t)])
    }

    fn emitted_per_layer() -> Vec<Metric> {
        let u = Untraced {
            wall_s: 1.0,
            serial_s: 1.0,
            par_s: 1.0,
            observed_s: 1.0,
        };
        per_layer(&Layers::default(), &u)
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn emitted_names_and_units_match_benchmark_json() {
        let json = declared();
        assert_eq!(json.names("workloads"), WORKLOADS.to_vec());
        for (key, emitted) in [
            ("end_to_end", emitted_end_to_end()),
            ("per_layer", emitted_per_layer()),
        ] {
            let names: Vec<&str> = emitted.iter().map(|m| m.0).collect();
            assert_eq!(json.names(key), names, "{key} names");
            let Json::Arr(items) = json.get(key) else {
                panic!("{key} is a list")
            };
            for (item, (name, _, unit)) in items.iter().zip(&emitted) {
                assert_eq!(
                    item.get("unit"),
                    &Json::Str(unit.to_string()),
                    "unit of {name}"
                );
                assert!(valid_name(name), "{name} is not a valid metric name");
            }
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
        let setup = match json.get("end_to_end") {
            Json::Arr(items) => items
                .iter()
                .find(|i| i.get("name") == &Json::Str("setup_s".into()))
                .expect("setup_s is declared")
                .clone(),
            _ => unreachable!(),
        };
        assert_eq!(setup.get("better"), &Json::Str("lower".into()));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload engine_flood --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some("engine_flood"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert_eq!(args("--workload all").unwrap().workload, None);
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds").is_err());
        assert!(args("--bogus 1").is_err());
    }
}

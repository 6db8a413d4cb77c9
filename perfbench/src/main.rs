//! The benchmark binary. `run.py` calls it in three modes and prints
//! the result line; each mode prints one JSON object on stdout.
//!
//! ```text
//! perfbench cold   --workload W --seed N --out DIR
//! perfbench warm   --workload W --seed N --seconds S --out DIR
//! perfbench traced --workload W --seed N --seconds S --out DIR
//! ```
//!
//! * `cold`: generate the feeds, then one `run_pipeline` pass in this
//!   fresh process, with the resident-set peak reset just before it.
//!   Prints `generate_s`, `pass_s` and `peak_rss_mb`.
//! * `warm`: after one warm-up round, alternates a `run_pipeline` pass
//!   and an untraced serial replay for `S` seconds. Prints the time of
//!   every timed pass of each.
//! * `traced`: alternates a `run_pipeline` pass, a traced replay and
//!   an untraced replay for `S` seconds. Prints the per-layer metrics,
//!   plus the counts that the workload's configuration and the run's
//!   length fix, and writes the last traced pass's spans to
//!   `DIR/<workload>.spans.jsonl`.
//!
//! Every pass is checked (see `checks.rs`); `attempted` and `failed`
//! count passes, and the exit code is 1 if any failed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dcs_netsim::{run_pipeline, DetectionReport};
use perfbench::checks::{check_match, check_replay, check_report, Expected};
use perfbench::replay::{replay, ReplayOutcome};
use perfbench::stats::{median, rss, tail};
use perfbench::trace::{write_spans, PassSummary, Span, SpanRecorder, Untraced};
use perfbench::workload::{Job, Workload};

/// Fewest timed rounds a warm or traced run makes, however short `S`.
const MIN_ROUNDS: usize = 3;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (cold, warm or traced)")?;
    let (mut workload, mut seed, mut seconds, mut out) = (None, 0u64, 10.0f64, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        out: out.ok_or("missing --out")?,
    })
}

/// Pass bookkeeping: every `run_pipeline` pass and every replay counts
/// as attempted, and as failed when any of its checks fails.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("check failed ({what}): {e}");
                None
            }
        }
    }
}

/// A replay pass passes when it ran, met the gate, and matches the
/// `run_pipeline` pass beside it.
fn checked_replay(
    job: &Job,
    expected: &Expected,
    report: &DetectionReport,
    outcome: Result<ReplayOutcome, String>,
) -> Result<ReplayOutcome, String> {
    let outcome = outcome?;
    check_replay(expected, &outcome)?;
    check_match(job, report, &outcome)?;
    Ok(outcome)
}

/// A JSON object built field by field.
struct Obj(String);

impl Obj {
    fn new() -> Self {
        Obj(String::new())
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let value = if value.is_finite() { value } else { 0.0 };
        self.raw(key, &format!("{value:?}"))
    }

    fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let list: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        self.raw(key, &format!("[{}]", list.join(",")))
    }

    fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    fn metric(&mut self, key: &str, value: f64, unit: &str) -> &mut Self {
        let mut m = Obj::new();
        m.num("value", value).raw("unit", &format!("\"{unit}\""));
        self.raw(key, &m.finish())
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn generate(args: &Args) -> (Job, f64) {
    let started = Instant::now();
    let job = args.workload.generate(args.seed, &args.out);
    (job, started.elapsed().as_secs_f64())
}

/// One timed `run_pipeline` pass over fresh copies of the feeds.
fn pipeline_pass(job: &Job) -> (DetectionReport, f64) {
    let feeds = job.feeds.clone();
    job.clear_sidecars();
    let started = Instant::now();
    let report = run_pipeline(feeds, job.config.clone());
    (report, started.elapsed().as_secs_f64())
}

fn cold(args: &Args) -> Result<(String, Tally), String> {
    let (job, generate_s) = generate(args);
    let feeds = job.feeds.clone();
    job.clear_sidecars();
    let before = rss::current_kb().ok_or("no VmRSS in /proc/self/status")?;
    rss::reset_peak().map_err(|e| format!("cannot reset the resident-set peak: {e}"))?;
    let started = Instant::now();
    let report = run_pipeline(feeds, job.config.clone());
    let pass_s = started.elapsed().as_secs_f64();
    let peak = rss::peak_kb().ok_or("no VmHWM in /proc/self/status")?;
    let mut tally = Tally::default();
    // Counted after the pass so its allocations cannot serve the pass.
    let expected = Expected::of(&job);
    tally.record("cold run_pipeline", check_report(&job, &expected, &report));
    job.clear_sidecars();
    let mut out = Obj::new();
    out.num("generate_s", generate_s)
        .num("pass_s", pass_s)
        .num("peak_rss_mb", peak.saturating_sub(before) as f64 / 1024.0)
        .int("segments", job.segments());
    Ok((out.finish(), tally))
}

fn warm(args: &Args) -> Result<(String, Tally), String> {
    let (job, _) = generate(args);
    let expected = Expected::of(&job);
    let mut tally = Tally::default();
    let (mut pipeline_s, mut serial_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    // Round 0 warms caches and the allocator and is not timed.
    for round in 0.. {
        if round > MIN_ROUNDS && started.elapsed() >= budget {
            break;
        }
        let (report, seconds) = pipeline_pass(&job);
        tally.record("run_pipeline", check_report(&job, &expected, &report));
        job.clear_sidecars();
        let t = Instant::now();
        let outcome = replay(&job, &mut Untraced);
        let replay_s = t.elapsed().as_secs_f64();
        tally.record(
            "serial replay",
            checked_replay(&job, &expected, &report, outcome),
        );
        if round > 0 {
            pipeline_s.push(seconds);
            serial_s.push(replay_s);
        }
    }
    job.clear_sidecars();
    let mut out = Obj::new();
    out.nums("pipeline_s", &pipeline_s)
        .nums("serial_s", &serial_s)
        .int("segments", job.segments())
        .int("updates", expected.updates);
    Ok((out.finish(), tally))
}

/// Per-layer numbers gathered over the traced run's rounds.
#[derive(Default)]
struct Gathered {
    passes: Vec<PassSummary>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    pipeline_s: Vec<f64>,
    restore_s: Vec<f64>,
    last_spans: Vec<Span>,
}

impl Gathered {
    fn per_pass(&self, f: impl Fn(&PassSummary) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>())
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.durations_ns.get(name).into_iter().flatten())
            .map(|&ns| ns as f64 * 1e-6)
            .collect()
    }
}

/// Adds `<stem>p50_ms` and `<stem>p90_ms` (or the highest percentile
/// with ten samples beyond it, noted on stderr) to the metrics, and
/// `<stem>samples` to the counts.
fn percentiles(m: &mut Obj, c: &mut Obj, stem: &str, samples: &[f64]) {
    let p90 = tail(samples, 0.9);
    if !samples.is_empty() && p90.quantile != 0.9 {
        eprintln!(
            "note: {stem}p90_ms is the p{:.0} over {} samples",
            p90.quantile * 100.0,
            p90.samples
        );
    }
    m.metric(&format!("{stem}p50_ms"), median(samples), "ms")
        .metric(&format!("{stem}p90_ms"), p90.value, "ms");
    c.int(&format!("{stem}samples"), samples.len() as u64);
}

fn traced(args: &Args) -> Result<(String, Tally), String> {
    let (job, generate_s) = generate(args);
    let expected = Expected::of(&job);
    let mut tally = Tally::default();
    let mut g = Gathered::default();
    let mut counts = None;
    let mut outcome_stats = (0u64, 0u64);
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    for round in 0.. {
        if round > MIN_ROUNDS && started.elapsed() >= budget {
            break;
        }
        // Both replays are checked against this round's pipeline pass.
        let (report, pipeline_s) = pipeline_pass(&job);
        let restore = tally.record("run_pipeline", check_report(&job, &expected, &report));
        job.clear_sidecars();
        let mut recorder = SpanRecorder::new();
        let t = Instant::now();
        let traced = replay(&job, &mut recorder);
        let traced_s = t.elapsed().as_secs_f64();
        if let Some(outcome) = tally.record(
            "traced replay",
            checked_replay(&job, &expected, &report, traced),
        ) {
            outcome_stats = (outcome.monitor.evaluations(), outcome.alarms.len() as u64);
            counts = Some(outcome.counts);
        }
        job.clear_sidecars();
        let t = Instant::now();
        let untraced = replay(&job, &mut Untraced);
        let untraced_s = t.elapsed().as_secs_f64();
        tally.record(
            "untraced replay",
            checked_replay(&job, &expected, &report, untraced),
        );
        if round == 0 {
            continue;
        }
        let spans = recorder.into_spans();
        g.passes.push(PassSummary::from_spans(&spans));
        g.last_spans = spans;
        g.traced_s.push(traced_s);
        g.untraced_s.push(untraced_s);
        g.pipeline_s.push(pipeline_s);
        g.restore_s.extend(restore.flatten());
    }
    job.clear_sidecars();
    let counts = counts.ok_or("no traced replay succeeded")?;
    write_span_file(&args.out, args.workload, &g.last_spans)?;

    let segments = job.segments() as f64;
    let updates = (expected.updates as f64).max(1.0);
    let untraced = median(&g.untraced_s);
    // Median over traced passes of the summed self time of one span name.
    let busy = |name: &str| g.per_pass(|p| p.self_s(name));
    let count = |n: u64| n as f64;
    // `m` holds what a change to the program can make better or worse;
    // `c` the counts that the workload's configuration or the run's
    // length fix, reported beside them without a direction.
    let (mut m, mut c) = (Obj::new(), Obj::new());
    m.metric("traffic.generate_s", generate_s, "s");
    let router_s = busy("router.batch");
    m.metric("router.busy_s", router_s, "s")
        .metric("router.ns_per_segment", router_s * 1e9 / segments, "ns")
        .metric(
            "router.live_flows_end",
            count(counts.live_flows_end),
            "count",
        );
    c.int("router.export_batches", counts.export_batches);
    m.metric("pipeline.overhead_s", median(&g.pipeline_s) - untraced, "s");
    c.int("pipeline.subbatches", counts.subbatches)
        .int("pipeline.subbatches_scalar", counts.subbatches_scalar);
    let tracking_s = busy("tracking.ingest");
    m.metric("tracking.busy_s", tracking_s, "s")
        .metric("tracking.ns_per_update", tracking_s * 1e9 / updates, "ns")
        .metric(
            "tracking.heap_adjusts_per_update",
            count(counts.heap_adjusts) / updates,
            "ratio",
        )
        .metric(
            "tracking.heap_bytes",
            count(counts.tracking_heap_bytes),
            "B",
        );
    m.metric("sharded.ingest_busy_s", busy("sharded.ingest"), "s")
        .metric("sharded.merged_s", busy("sharded.merged"), "s");
    percentiles(
        &mut m,
        &mut c,
        "sharded.merged_",
        &g.durations_ms("sharded.merged"),
    );
    c.int("sharded.merges", counts.merges);
    m.metric("monitor.judge_s", busy("monitor.judge"), "s");
    c.int("monitor.evaluations", outcome_stats.0)
        .int("monitor.alarms", outcome_stats.1);
    m.metric("window.advance_s", busy("window.advance"), "s");
    percentiles(
        &mut m,
        &mut c,
        "window.advance_",
        &g.durations_ms("window.advance"),
    );
    m.metric("window.top_k_s", busy("window.top_k"), "s")
        .metric("window.heap_bytes", count(counts.window_heap_bytes), "B");
    m.metric("persist.doc_s", busy("persist.doc"), "s")
        .metric("persist.save_s", busy("persist.save"), "s")
        .metric(
            "persist.save_p50_ms",
            median(&g.durations_ms("persist.save")),
            "ms",
        )
        .metric("persist.bytes", count(counts.checkpoint_bytes), "B")
        .metric("persist.restore_s", median(&g.restore_s), "s");
    c.int("persist.saves", counts.checkpoint_saves);
    m.metric("telemetry.snapshot_s", busy("telemetry.snapshot"), "s")
        .metric("telemetry.append_s", busy("telemetry.append"), "s");
    c.int("telemetry.lines", counts.telemetry_lines);
    let boundary = g.durations_ms("boundary");
    percentiles(&mut m, &mut c, "boundary.", &boundary);
    m.metric(
        "boundary.max_ms",
        boundary.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.metric("trace.coverage", g.per_pass(PassSummary::coverage), "ratio")
        .metric(
            "trace.overhead_frac",
            median(&g.traced_s) / untraced - 1.0,
            "ratio",
        );
    c.int("trace.passes", g.passes.len() as u64);
    let mut out = Obj::new();
    out.raw("metrics", &m.finish()).raw("counts", &c.finish());
    Ok((out.finish(), tally))
}

fn write_span_file(dir: &Path, workload: Workload, spans: &[Span]) -> Result<(), String> {
    let path = dir.join(format!("{}.spans.jsonl", workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    write_spans(&mut w, spans)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let result = match args.mode.as_str() {
        "cold" => cold(&args),
        "warm" => warm(&args),
        "traced" => traced(&args),
        other => Err(format!("unknown mode {other}")),
    };
    match result {
        Ok((body, tally)) => {
            let mut out = Obj::new();
            out.raw("result", &body)
                .int("attempted", tally.attempted)
                .int("failed", tally.failed);
            println!("{}", out.finish());
            if tally.failed > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! The traced replay on the benchmark's own workloads: spans nest,
//! self times are non-negative, the named layers cover at least 90% of
//! the wall time, and the replay agrees with `run_pipeline`. Run with
//! `--release`; a pass takes about a second.

use std::path::PathBuf;

use dcs_netsim::run_pipeline;
use perfbench::checks::{check_match, check_replay, check_report, Expected};
use perfbench::replay::replay;
use perfbench::trace::{
    check_nesting, self_times_ns, write_spans, PassSummary, SpanRecorder, Untraced,
};
use perfbench::workload::{Workload, ALL};

const SEED: u64 = 3;

/// A sidecar directory per test and workload: tests run in parallel and
/// must not share checkpoint or telemetry files.
fn sidecar_dir(test: &str, workload: Workload) -> PathBuf {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{}", workload.name()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn spans_nest_and_cover_the_wall_time() {
    for workload in ALL {
        let job = workload.generate(SEED, &sidecar_dir("nest", workload));
        job.clear_sidecars();
        let mut recorder = SpanRecorder::new();
        let outcome = replay(&job, &mut recorder).unwrap();
        let spans = recorder.into_spans();
        check_nesting(&spans).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        assert!(self_times_ns(&spans).iter().all(|&ns| ns >= 0));
        let summary = PassSummary::from_spans(&spans);
        assert!(
            summary.coverage() >= 0.90,
            "{}: layers cover {:.3} of the wall time",
            workload.name(),
            summary.coverage()
        );
        // One epoch per evaluation, the final boundary included.
        let last_epoch = spans.iter().map(|s| s.epoch).max().unwrap();
        assert_eq!(u64::from(last_epoch), outcome.monitor.evaluations());
        check_replay(&Expected::of(&job), &outcome).unwrap();
        job.clear_sidecars();
    }
}

#[test]
fn layer_spans_name_their_layer() {
    let workload = Workload::PulseWindow;
    let job = workload.generate(SEED, &sidecar_dir("names", workload));
    job.clear_sidecars();
    let mut recorder = SpanRecorder::new();
    replay(&job, &mut recorder).unwrap();
    let summary = PassSummary::from_spans(recorder.spans());
    for name in [
        "router.batch",
        "tracking.ingest",
        "window.advance",
        "window.top_k",
        "monitor.judge",
        "telemetry.snapshot",
        "telemetry.append",
        "boundary",
    ] {
        assert!(summary.count(name) > 0, "no {name} span");
    }
    assert_eq!(summary.count("sharded.ingest"), 0);
    let mut out = Vec::new();
    write_spans(&mut out, recorder.spans()).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), recorder.spans().len());
    assert!(text.lines().next().unwrap().contains("\"name\":\"pass\""));
    job.clear_sidecars();
}

#[test]
fn tracing_does_not_change_the_outcome() {
    for workload in ALL {
        let job = workload.generate(SEED, &sidecar_dir("outcome", workload));
        job.clear_sidecars();
        let traced = replay(&job, &mut SpanRecorder::new()).unwrap();
        job.clear_sidecars();
        let untraced = replay(&job, &mut Untraced).unwrap();
        assert_eq!(traced.alarms, untraced.alarms, "{}", workload.name());
        assert_eq!(traced.counts, untraced.counts, "{}", workload.name());
        job.clear_sidecars();
    }
}

#[test]
fn replay_matches_run_pipeline_and_passes_the_gate() {
    for workload in ALL {
        for seed in [SEED, SEED + 1] {
            let job = workload.generate(seed, &sidecar_dir("gate", workload));
            let expected = Expected::of(&job);
            job.clear_sidecars();
            let report = run_pipeline(job.feeds.clone(), job.config.clone());
            check_report(&job, &expected, &report)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            job.clear_sidecars();
            let untraced = replay(&job, &mut Untraced).unwrap();
            job.clear_sidecars();
            let traced = replay(&job, &mut SpanRecorder::new()).unwrap();
            for outcome in [untraced, traced] {
                check_replay(&expected, &outcome).unwrap();
                check_match(&job, &report, &outcome)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            }
            job.clear_sidecars();
        }
    }
}

#[test]
fn seeds_change_the_inputs_but_not_their_size() {
    let dir = sidecar_dir("seeds", Workload::FloodFanin);
    let a = Workload::FloodFanin.generate(1, &dir);
    let b = Workload::FloodFanin.generate(1, &dir);
    let c = Workload::FloodFanin.generate(2, &dir);
    assert_eq!(a.feeds, b.feeds);
    assert_ne!(a.feeds, c.feeds);
    assert_eq!(a.segments(), c.segments());
}

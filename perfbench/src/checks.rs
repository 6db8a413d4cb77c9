//! The correctness gate every pass must meet, and the check that the
//! serial replay still does what `run_pipeline` does.

use std::time::Instant;

use dcs_netsim::{DetectionReport, EdgeRouter, ShardedIngest};
use dcs_persist::{Checkpoint, CheckpointManager};

use crate::replay::ReplayOutcome;
use crate::workload::{Job, VICTIM};

/// What a correct pass over a job must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Segments offered.
    pub segments: u64,
    /// Updates the routers export when run serially over the feeds.
    pub updates: u64,
    /// Checkpoints a pass writes: one per `every` updates plus the
    /// final one (`None` without a checkpoint sidecar).
    pub checkpoints: Option<u64>,
}

impl Expected {
    /// Runs each feed through its own `EdgeRouter` to count the
    /// updates a pass must ingest.
    pub fn of(job: &Job) -> Self {
        let mut updates = 0u64;
        for (i, feed) in job.feeds.iter().enumerate() {
            let mut router = EdgeRouter::new(i as u32, job.config.half_open_timeout);
            for segment in feed {
                router.observe(segment);
            }
            let last_ts = feed.last().map_or(0, |s| s.timestamp);
            router.flush_expired(last_ts.saturating_add(1_000_000));
            updates += router.drain_exports().len() as u64;
        }
        Self {
            segments: job.segments(),
            updates,
            checkpoints: job
                .config
                .checkpoint
                .as_ref()
                .map(|c| updates / c.every.max(1) + 1),
        }
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks a `run_pipeline` report. On a checkpointing job this also
/// restores the final checkpoint and returns how long the restore took.
///
/// # Errors
///
/// Names the first check that failed.
pub fn check_report(
    job: &Job,
    expected: &Expected,
    report: &DetectionReport,
) -> Result<Option<f64>, String> {
    ensure(report.updates_ingested == expected.updates, || {
        format!(
            "updates_ingested {} != {} exported by the serial router replay",
            report.updates_ingested, expected.updates
        )
    })?;
    ensure(report.segments_observed == expected.segments, || {
        format!(
            "segments_observed {} != {} offered",
            report.segments_observed, expected.segments
        )
    })?;
    ensure(!report.restored_from_checkpoint, || {
        "the pass restored from a leftover checkpoint".to_string()
    })?;
    ensure(report.alarmed_destinations().contains(&VICTIM), || {
        format!("the victim {VICTIM:#x} raised no alarm")
    })?;
    let Some(want) = expected.checkpoints else {
        return Ok(None);
    };
    ensure(report.checkpoints_written == want, || {
        format!(
            "checkpoints_written {} != {want} expected",
            report.checkpoints_written
        )
    })?;
    let started = Instant::now();
    let restored = restore_merged(job)?;
    let restore_s = started.elapsed().as_secs_f64();
    ensure(restored == report.monitor.sketch().to_state(), || {
        "the restored final checkpoint merges to a different sketch than the report's".to_string()
    })?;
    Ok(Some(restore_s))
}

/// Loads the job's final checkpoint, restarts a sharded engine from it
/// and returns the state of its merged sketch.
fn restore_merged(job: &Job) -> Result<dcs_core::TrackingState, String> {
    let path = &job
        .config
        .checkpoint
        .as_ref()
        .ok_or("the job has no checkpoint sidecar")?
        .path;
    let doc = CheckpointManager::new(path)
        .load()
        .map_err(|e| format!("final checkpoint: {e}"))?;
    let Checkpoint::Sharded(doc) = doc else {
        return Err(format!(
            "final checkpoint is a {} document",
            doc.kind_name()
        ));
    };
    let mut engine = ShardedIngest::from_checkpoint(doc).map_err(|e| format!("restore: {e}"))?;
    let merged = engine
        .merged()
        .map_err(|e| format!("restored merge: {e}"))?;
    Ok(merged.to_state())
}

/// Checks a serial replay against the same expectations.
///
/// # Errors
///
/// Names the first check that failed.
pub fn check_replay(expected: &Expected, outcome: &ReplayOutcome) -> Result<(), String> {
    ensure(outcome.updates == expected.updates, || {
        format!(
            "replay exported {} updates, expected {}",
            outcome.updates, expected.updates
        )
    })?;
    ensure(outcome.segments == expected.segments, || {
        format!(
            "replay observed {} segments, expected {}",
            outcome.segments, expected.segments
        )
    })?;
    ensure(outcome.alarms.iter().any(|a| a.dest == VICTIM), || {
        format!("the victim {VICTIM:#x} raised no alarm in the replay")
    })?;
    if let Some(want) = expected.checkpoints {
        ensure(outcome.counts.checkpoint_saves == want, || {
            format!(
                "replay saved {} checkpoints, expected {want}",
                outcome.counts.checkpoint_saves
            )
        })?;
    }
    Ok(())
}

/// Checks that the replay matches `run_pipeline`: with one feed the
/// alarm lists are identical; with several, the channel's interleaving
/// varies, so only the final basic-sketch counters (which do not
/// depend on update order) must be equal.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_match(
    job: &Job,
    report: &DetectionReport,
    outcome: &ReplayOutcome,
) -> Result<(), String> {
    if job.feeds.len() == 1 {
        ensure(report.alarms == outcome.alarms, || {
            format!(
                "replay raised {} alarms, run_pipeline {}; the lists differ",
                outcome.alarms.len(),
                report.alarms.len()
            )
        })
    } else {
        ensure(
            report.monitor.sketch().sketch().to_state()
                == outcome.monitor.sketch().sketch().to_state(),
            || "replay and run_pipeline end with different sketch counters".to_string(),
        )
    }
}

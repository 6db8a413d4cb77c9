//! The serial replay: the job `run_pipeline` runs, driven from one
//! caller thread through the same public calls in the same order.
//!
//! Router side: `EdgeRouter::observe` until `batch_size` updates are
//! pending, then `drain_exports`; at the end of a feed
//! `flush_expired(last + 1_000_000)` and a final drain. With several
//! feeds the routers take turns, one batch each (the threaded pipeline
//! interleaves them in whatever order its channel delivers).
//!
//! Monitor side: each batch is cut at the next evaluation, snapshot or
//! checkpoint boundary and fed to `DdosMonitor::ingest_batch` or
//! `ShardedIngest::ingest`; at each boundary the replay evaluates
//! (`merged` / `EpochWindow::advance` + `top_k` / `evaluate*`), exports
//! a telemetry snapshot and saves a checkpoint exactly where
//! `pipeline.rs` does, including the final boundary and the final
//! merged sketch handed to the monitor.
//!
//! Every layer call sits inside a span of the [`Tracer`]; with
//! [`crate::trace::Untraced`] the spans compile away.

use dcs_core::{FlowUpdate, BATCH_MIN_ROUTED};
use dcs_netsim::{
    Alarm, DdosMonitor, EdgeRouter, EpochWindow, PipelineConfig, ShardedIngest, TcpSegment,
};
use dcs_persist::{Checkpoint, CheckpointManager};
use dcs_telemetry::{JsonlExporter, LogHistogram, TelemetrySnapshot};

use crate::trace::Tracer;
use crate::workload::Job;

/// Counts gathered at the layer boundaries during one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounts {
    /// Batches the routers exported (tails included).
    pub export_batches: u64,
    /// Flows the routers' handshake trackers still hold at the end.
    pub live_flows_end: u64,
    /// Ingest calls after cutting batches at boundaries.
    pub subbatches: u64,
    /// Of those, calls shorter than `BATCH_MIN_ROUTED` (the scalar path).
    pub subbatches_scalar: u64,
    /// Sharded `merged()` calls.
    pub merges: u64,
    /// Telemetry lines appended.
    pub telemetry_lines: u64,
    /// Checkpoints saved.
    pub checkpoint_saves: u64,
    /// Checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Heap bytes of the monitor's final tracking sketch.
    pub tracking_heap_bytes: u64,
    /// Heap-priority adjustments in the monitor's own sketch.
    pub heap_adjusts: u64,
    /// Heap bytes of the epoch window at the end (0 without a window).
    pub window_heap_bytes: u64,
}

/// What one replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Alarms raised, in evaluation order.
    pub alarms: Vec<Alarm>,
    /// Updates the routers exported, all of which were ingested.
    pub updates: u64,
    /// Segments the routers observed.
    pub segments: u64,
    /// The final monitor (holding the merged sketch in sharded mode).
    pub monitor: DdosMonitor,
    /// Layer counts.
    pub counts: LayerCounts,
}

/// One router working through its feed a batch at a time.
struct RouterFeed<'a> {
    router: EdgeRouter,
    feed: &'a [TcpSegment],
    pos: usize,
    done: bool,
}

impl<'a> RouterFeed<'a> {
    fn new(index: u32, feed: &'a [TcpSegment], timeout: Option<u64>) -> Self {
        Self {
            router: EdgeRouter::new(index, timeout),
            feed,
            pos: 0,
            done: false,
        }
    }

    /// Observes segments until a batch is due, or the feed ends and its
    /// tail is flushed. `None` once the feed is exhausted with nothing
    /// left to send.
    fn next_batch(&mut self, batch_size: usize, t: &mut impl Tracer) -> Option<Vec<FlowUpdate>> {
        let span = t.enter("router.batch");
        while self.pos < self.feed.len() {
            self.router.observe(&self.feed[self.pos]);
            self.pos += 1;
            if self.router.pending_exports() >= batch_size {
                let batch = self.router.drain_exports();
                t.exit(span);
                return Some(batch);
            }
        }
        let last_ts = self.feed.last().map_or(0, |s| s.timestamp);
        self.router.flush_expired(last_ts.saturating_add(1_000_000));
        let tail = self.router.drain_exports();
        self.done = true;
        t.exit(span);
        (!tail.is_empty()).then_some(tail)
    }
}

/// The monitor thread's state, as `pipeline.rs` keeps it.
struct MonitorSide {
    engine: Option<ShardedIngest>,
    monitor: DdosMonitor,
    window: Option<EpochWindow>,
    manager: Option<CheckpointManager>,
    exporter: Option<JsonlExporter>,
    save_latency: LogHistogram,
    alarms: Vec<Alarm>,
    ingested: u64,
    evaluate_every: u64,
    snapshot_every: u64,
    checkpoint_every: u64,
    next_eval: u64,
    next_snapshot: u64,
    next_checkpoint: u64,
    counts: LayerCounts,
}

fn elapsed_ns(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl MonitorSide {
    fn new(config: &PipelineConfig) -> Result<Self, String> {
        let engine = config
            .ingest_shards
            .map(|n| ShardedIngest::new(config.sketch.clone(), n.max(1)));
        let window = match &config.window {
            Some(policy) => Some(
                EpochWindow::new(config.sketch.clone(), policy.clone())
                    .map_err(|e| format!("window policy: {e}"))?,
            ),
            None => None,
        };
        let manager = config
            .checkpoint
            .as_ref()
            .map(|c| CheckpointManager::new(&c.path));
        let exporter = match &config.telemetry {
            Some(s) => Some(
                JsonlExporter::create(&s.path)
                    .map_err(|e| format!("telemetry sidecar {}: {e}", s.path.display()))?,
            ),
            None => None,
        };
        let evaluate_every = config.evaluate_every.max(1);
        let snapshot_every = config
            .telemetry
            .as_ref()
            .map_or(u64::MAX, |s| s.every.max(1));
        let checkpoint_every = config
            .checkpoint
            .as_ref()
            .map_or(u64::MAX, |c| c.every.max(1));
        Ok(Self {
            engine,
            monitor: DdosMonitor::new(config.sketch.clone(), config.policy.clone()),
            window,
            manager,
            exporter,
            save_latency: LogHistogram::default(),
            alarms: Vec::new(),
            ingested: 0,
            evaluate_every,
            snapshot_every,
            checkpoint_every,
            next_eval: evaluate_every,
            next_snapshot: snapshot_every,
            next_checkpoint: checkpoint_every,
            counts: LayerCounts::default(),
        })
    }

    /// Feeds one router batch, cut at every boundary it crosses.
    fn consume(&mut self, batch: &[FlowUpdate], t: &mut impl Tracer) -> Result<(), String> {
        let mut offset = 0usize;
        while offset < batch.len() {
            let remaining = batch.len() - offset;
            let until_boundary = (self.next_eval - self.ingested)
                .min(self.next_snapshot - self.ingested)
                .min(self.next_checkpoint - self.ingested);
            let take = usize::try_from(until_boundary)
                .unwrap_or(remaining)
                .min(remaining);
            let part = &batch[offset..offset + take];
            self.counts.subbatches += 1;
            if take < BATCH_MIN_ROUTED {
                self.counts.subbatches_scalar += 1;
            }
            match &mut self.engine {
                Some(eng) => {
                    let span = t.enter("sharded.ingest");
                    eng.ingest(part);
                    t.exit(span);
                }
                None => {
                    let span = t.enter("tracking.ingest");
                    self.monitor.ingest_batch(part);
                    t.exit(span);
                }
            }
            offset += take;
            self.ingested += take as u64;
            let eval = self.ingested >= self.next_eval;
            let snapshot = self.ingested >= self.next_snapshot;
            let checkpoint = self.ingested >= self.next_checkpoint;
            if eval || snapshot || checkpoint {
                let span = t.enter("boundary");
                if eval {
                    self.evaluate(t)?;
                    self.next_eval += self.evaluate_every;
                }
                if snapshot {
                    self.snapshot("pipeline", t)?;
                    self.next_snapshot += self.snapshot_every;
                }
                if checkpoint {
                    self.checkpoint(t)?;
                    self.next_checkpoint += self.checkpoint_every;
                }
                t.exit(span);
                if eval {
                    t.next_epoch();
                }
            }
        }
        Ok(())
    }

    /// One alarm evaluation (`evaluate_boundary` in `pipeline.rs`).
    fn evaluate(&mut self, t: &mut impl Tracer) -> Result<(), String> {
        let policy = self.monitor.policy().clone();
        let merged = match &mut self.engine {
            Some(eng) => {
                let span = t.enter("sharded.merged");
                let view = eng.merged();
                t.exit(span);
                self.counts.merges += 1;
                Some(view.map_err(|e| format!("sharded merge: {e}"))?)
            }
            None => None,
        };
        let alarms = match &mut self.window {
            Some(w) => {
                let cumulative = match &merged {
                    Some(view) => view.sketch(),
                    None => self.monitor.sketch().sketch(),
                };
                let span = t.enter("window.advance");
                let advanced = w.advance(cumulative);
                t.exit(span);
                advanced.map_err(|e| format!("window slide: {e}"))?;
                let span = t.enter("window.top_k");
                let top = w.top_k(policy.watch_top_k, policy.epsilon);
                t.exit(span);
                let span = t.enter("monitor.judge");
                let alarms = self.monitor.evaluate_top(&top);
                t.exit(span);
                alarms
            }
            None => {
                let span = t.enter("monitor.judge");
                let alarms = match &merged {
                    Some(view) => self.monitor.evaluate_snapshot(view),
                    None => self.monitor.evaluate(),
                };
                t.exit(span);
                alarms
            }
        };
        self.alarms.extend(alarms);
        Ok(())
    }

    /// One telemetry export (`boundary_snapshot` + `export_snapshot`).
    fn snapshot(&mut self, label: &str, t: &mut impl Tracer) -> Result<(), String> {
        if self.exporter.is_none() {
            return Ok(());
        }
        let span = t.enter("telemetry.snapshot");
        let mut snap = match &self.engine {
            Some(eng) => {
                let mut snap = eng.telemetry_snapshot(label);
                snap.set_counter("monitor_evaluations", self.monitor.evaluations());
                snap
            }
            None => self.monitor.telemetry_snapshot(label),
        };
        if let Some(w) = &self.window {
            let ring = w.window();
            snap.set_counter("window_epochs_held", ring.len() as u64);
            snap.set_counter("window_epochs_capacity", ring.epochs() as u64);
            snap.set_counter("window_epochs_rotated", ring.epochs_rotated());
        }
        if self.manager.is_some() {
            self.checkpoint_counters(&mut snap);
        }
        t.exit(span);
        if let Some(exp) = &mut self.exporter {
            let span = t.enter("telemetry.append");
            let appended = exp.append(&snap);
            t.exit(span);
            appended.map_err(|e| format!("telemetry append: {e}"))?;
            self.counts.telemetry_lines += 1;
        }
        Ok(())
    }

    fn checkpoint_counters(&self, snap: &mut TelemetrySnapshot) {
        snap.set_counter("checkpoints_written", self.counts.checkpoint_saves);
        snap.set_counter(
            "checkpoint_bytes_last",
            self.manager
                .as_ref()
                .map_or(0, CheckpointManager::bytes_last),
        );
        snap.set_counter(
            "checkpoint_save_p50_ns",
            self.save_latency.quantile_ns(0.5) as u64,
        );
        snap.set_counter(
            "checkpoint_save_p99_ns",
            self.save_latency.quantile_ns(0.99) as u64,
        );
    }

    /// One checkpoint (`boundary_checkpoint` + `write_checkpoint`).
    fn checkpoint(&mut self, t: &mut impl Tracer) -> Result<(), String> {
        if self.manager.is_none() {
            return Ok(());
        }
        let span = t.enter("persist.doc");
        let doc = match (&mut self.engine, &self.window) {
            (Some(eng), _) => Checkpoint::Sharded(eng.checkpoint()),
            (None, Some(w)) => Checkpoint::Window(w.to_checkpoint(self.monitor.sketch())),
            (None, None) => Checkpoint::Tracking(self.monitor.sketch().to_state()),
        };
        t.exit(span);
        if let Some(mgr) = &mut self.manager {
            let span = t.enter("persist.save");
            let started = std::time::Instant::now();
            let saved = mgr.save(&doc);
            self.save_latency.record(elapsed_ns(started));
            t.exit(span);
            let bytes = saved.map_err(|e| format!("checkpoint save: {e}"))?;
            self.counts.checkpoint_saves += 1;
            self.counts.checkpoint_bytes += bytes;
        }
        Ok(())
    }

    /// The final boundary, the shutdown merge, and the stop of the
    /// workers.
    fn finish(
        mut self,
        t: &mut impl Tracer,
    ) -> Result<(Vec<Alarm>, DdosMonitor, LayerCounts), String> {
        let span = t.enter("boundary");
        self.evaluate(t)?;
        self.checkpoint(t)?;
        self.snapshot("pipeline_final", t)?;
        t.exit(span);
        t.next_epoch();
        let span = t.enter("shutdown");
        if let Some(mut eng) = self.engine.take() {
            let merge = t.enter("sharded.merged");
            let view = eng.merged();
            t.exit(merge);
            self.counts.merges += 1;
            self.monitor
                .adopt_sketch(view.map_err(|e| format!("sharded merge at shutdown: {e}"))?);
            let stop = t.enter("sharded.stop");
            drop(eng);
            t.exit(stop);
        }
        t.exit(span);
        self.counts.tracking_heap_bytes = self.monitor.sketch().heap_bytes() as u64;
        self.counts.window_heap_bytes = self.window.as_ref().map_or(0, |w| w.heap_bytes() as u64);
        Ok((self.alarms, self.monitor, self.counts))
    }
}

/// Replays `job` serially under tracer `t`, inside one `pass` span.
///
/// # Errors
///
/// Any failure the pipeline would only warn about (a sidecar that
/// cannot be written, a failed merge or slide) fails the replay.
pub fn replay(job: &Job, t: &mut impl Tracer) -> Result<ReplayOutcome, String> {
    let config = &job.config;
    let batch_size = config.batch_size.max(1);
    let pass = t.enter("pass");
    let setup = t.enter("pipeline.setup");
    let mut routers: Vec<RouterFeed<'_>> = job
        .feeds
        .iter()
        .enumerate()
        .map(|(i, feed)| RouterFeed::new(i as u32, feed, config.half_open_timeout))
        .collect();
    let mut side = MonitorSide::new(config)?;
    t.exit(setup);
    let mut updates = 0u64;
    let mut export_batches = 0u64;
    while routers.iter().any(|r| !r.done) {
        for router in routers.iter_mut().filter(|r| !r.done) {
            if let Some(batch) = router.next_batch(batch_size, t) {
                export_batches += 1;
                updates += batch.len() as u64;
                side.consume(&batch, t)?;
            }
        }
    }
    let heap_adjusts = side.monitor.sketch().heap_adjusts();
    let (alarms, monitor, mut counts) = side.finish(t)?;
    t.exit(pass);
    counts.export_batches = export_batches;
    counts.heap_adjusts = heap_adjusts;
    counts.live_flows_end = routers
        .iter()
        .map(|r| r.router.tracker().live_flows() as u64)
        .sum();
    let segments = routers.iter().map(|r| r.router.segments_observed()).sum();
    Ok(ReplayOutcome {
        alarms,
        updates,
        segments,
        monitor,
        counts,
    })
}

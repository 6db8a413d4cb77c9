//! In-memory span recording around the calls the replay makes into
//! each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the
//! recorder's origin), the span that was open when it began, and the
//! evaluation epoch it belongs to: every span between two evaluation
//! boundaries shares one epoch id. The replay is single-threaded, so
//! spans nest strictly and a span's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// What the replay calls around each layer call. [`Untraced`] compiles
/// to nothing, so the untraced replay runs the same code without
/// clocks.
pub trait Tracer {
    /// Opens a span; the returned id closes it.
    fn enter(&mut self, name: &'static str) -> usize;
    /// Closes the span `id`, which must be the innermost open one.
    fn exit(&mut self, id: usize);
    /// Starts a new evaluation epoch for the spans that follow.
    fn next_epoch(&mut self);
}

/// The no-op tracer for untimed and wall-clock-only replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct Untraced;

impl Tracer for Untraced {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _id: usize) {}
    #[inline(always)]
    fn next_epoch(&mut self) {}
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Dotted name: the layer, then the call.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Evaluation epoch the span started in.
    pub epoch: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into memory.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u32,
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            epoch: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer for SpanRecorder {
    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let epoch = self.epoch;
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            epoch,
        });
        id
    }

    fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    fn next_epoch(&mut self) {
        self.epoch += 1;
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Negative only if a child escaped its parent, which
/// [`check_nesting`] rules out.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans
        .iter()
        .map(|s| i64::try_from(s.duration_ns()).unwrap_or(i64::MAX))
        .collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= i64::try_from(span.duration_ns()).unwrap_or(i64::MAX);
        }
    }
    own
}

/// Checks that every child lies inside its parent and that siblings
/// do not overlap.
///
/// # Errors
///
/// Describes the first violation found.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<Option<u64>> = vec![None; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        let Some(p) = span.parent else { continue };
        if p >= i {
            return Err(format!("span {i} ({}) names a later parent {p}", span.name));
        }
        let parent = &spans[p];
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) [{}, {}] escapes parent {p} ({}) [{}, {}]",
                span.name, span.start_ns, span.end_ns, parent.name, parent.start_ns, parent.end_ns
            ));
        }
        if last_child_end[p].is_some_and(|end| span.start_ns < end) {
            return Err(format!(
                "span {i} ({}) overlaps an earlier sibling",
                span.name
            ));
        }
        last_child_end[p] = Some(span.end_ns);
    }
    Ok(())
}

/// Grouping spans: they bracket layer calls but are not a layer.
pub const GROUPING: [&str; 3] = ["pass", "boundary", "shutdown"];

/// Per-name totals of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct PassSummary {
    /// Wall time of the root `pass` span.
    pub wall_ns: u64,
    /// Summed self time of every non-grouping span.
    pub layer_self_ns: u64,
    /// Per span name: (summed self time, number of spans).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Durations of individual spans by name, for percentiles.
    pub durations_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl PassSummary {
    /// Summarizes the spans of one pass (one root `pass` span).
    pub fn from_spans(spans: &[Span]) -> Self {
        let own = self_times_ns(spans);
        let mut summary = Self::default();
        for (span, &self_ns) in spans.iter().zip(&own) {
            let self_ns = u64::try_from(self_ns.max(0)).unwrap_or(0);
            if span.name == "pass" {
                summary.wall_ns += span.duration_ns();
                continue;
            }
            let entry = summary.by_name.entry(span.name).or_insert((0, 0));
            entry.0 += self_ns;
            entry.1 += 1;
            if !GROUPING.contains(&span.name) {
                summary.layer_self_ns += self_ns;
            }
            summary
                .durations_ns
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
        }
        summary
    }

    /// Summed self time of spans called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 * 1e-9)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(_, n)| n)
    }

    /// The layers' summed self time over the pass's wall time.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.layer_self_ns as f64 / self.wall_ns as f64
    }
}

/// Writes spans as JSON lines: index, name, start, end, parent, epoch.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
            s.name, s.start_ns, s.end_ns, s.epoch
        )?;
    }
    Ok(())
}

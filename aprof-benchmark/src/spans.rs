//! The benchmark's span recorder: with `--trace 1` every call the benchmark
//! makes into a layer of the system runs inside a span, kept in memory and
//! written out when the workload ends. Spans live in the benchmark's own
//! code only; the program under test carries none.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

/// One timed call: `op` ties together the spans of one benchmark operation
/// (a profiled program, a submission, a query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Spans {
    /// `None` when tracing is off: then no span reads the clock.
    epoch: Option<Instant>,
    next: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { epoch: enabled.then(Instant::now), next: AtomicU32::new(0), done: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// pass as the parent of the spans it opens.
    pub fn scope<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(epoch) = self.epoch else { return f(None) };
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = nanos(epoch);
        let out = f(Some(id));
        let end_ns = nanos(epoch);
        let span = Span { id, parent, op, name, start_ns, end_ns };
        self.done.lock().expect("a span recorder user panicked").push(span);
        out
    }

    /// Every finished span, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.done.lock().expect("a span recorder user panicked"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

fn nanos(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per layer in milliseconds: each span's duration minus the
/// part of it that its child spans cover.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// One JSON object per line.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span(0, None, "op.profile", 0, 100),
            span(1, Some(0), "vm.build", 10, 20),
            span(2, Some(0), "vm.run_with", 20, 70),
            span(3, Some(2), "core.inner", 30, 40),
            span(4, Some(0), "analysis.fit", 60, 90), // overlaps its sibling
        ];
        let self_ms = self_ms_by_layer(&spans);
        assert_eq!(self_ms["op"], 20.0 / 1e6);
        assert_eq!(self_ms["vm"], (10.0 + 40.0) / 1e6);
        assert_eq!(self_ms["core"], 10.0 / 1e6);
        assert_eq!(self_ms["analysis"], 30.0 / 1e6);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        assert!(spans.scope("vm.build", 1, None, |p| p.is_none()));
        assert!(spans.take().is_empty());
    }

    #[test]
    fn nested_scopes_link_parents() {
        let spans = Spans::new(true);
        spans.scope("op.profile", 7, None, |p| spans.scope("vm.build", 7, p, |_| ()));
        let done = spans.take();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].parent, Some(done[0].id));
        assert!(done[0].start_ns <= done[1].start_ns && done[1].end_ns <= done[0].end_ns);
        let line = to_jsonl("run-suite", &done[..1]);
        assert!(line.starts_with("{\"workload\": \"run-suite\", \"id\": 0, \"parent\": null, \"op\": 7,"));
    }
}

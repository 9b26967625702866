//! Recorded event streams and their replay.

use crate::{Event, EventKind, ThreadId, TimedEvent, Tool};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// A totally-ordered execution trace covering all threads.
///
/// Events are pushed in global order, as the serialized guest machine
/// issues them: `switchThread` events separate operations of different
/// threads, as assumed by the profiling algorithms of §4, and an event's
/// index is its place in that order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TimedEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event issued by `thread` at the end of the trace.
    pub fn push(&mut self, thread: ThreadId, event: Event) {
        self.events.push(TimedEvent { thread, event });
    }

    /// The events in total order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays every event into `tool`, then calls [`Tool::finish`].
    pub fn replay<T: Tool + ?Sized>(&self, tool: &mut T) {
        for te in &self.events {
            tool.dispatch(te.thread, te.event);
        }
        tool.finish();
    }

    /// Replays the trace in fixed-size batches via [`Tool::on_batch`],
    /// then calls [`Tool::finish`].
    ///
    /// Equivalent to [`replay`](Trace::replay) for every tool whose
    /// `on_batch` override preserves sequential semantics (the default
    /// does). Batches are `chunk_size` events, except that a batch is
    /// extended so it never ends on a [`Event::ThreadSwitch`]: a switch is
    /// always delivered in the same batch as the first operation of the
    /// thread switched to, letting overrides detect same-thread runs
    /// without carrying switch state across batch boundaries.
    ///
    /// A `chunk_size` of 0 is treated as 1. This is [`replay`](crate::replay)
    /// over the trace's events, so the batches are the ones any stream of
    /// the same events gets.
    pub fn replay_batched<T: Tool + ?Sized>(&self, tool: &mut T, chunk_size: usize) {
        let Ok(_) =
            replay(tool, self.events.iter().map(|te| Ok::<_, Infallible>((te.thread, te.event))), chunk_size);
    }

    /// Computes summary statistics over this trace.
    pub fn stats(&self) -> TraceStats {
        let mut by_kind = BTreeMap::new();
        let mut threads = std::collections::BTreeSet::new();
        for te in &self.events {
            *by_kind.entry(te.event.kind()).or_insert(0u64) += 1;
            threads.insert(te.thread);
        }
        TraceStats { events: self.events.len() as u64, threads: threads.len(), by_kind }
    }
}

impl FromIterator<(ThreadId, Event)> for Trace {
    fn from_iter<I: IntoIterator<Item = (ThreadId, Event)>>(iter: I) -> Self {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

impl Extend<(ThreadId, Event)> for Trace {
    fn extend<I: IntoIterator<Item = (ThreadId, Event)>>(&mut self, iter: I) {
        self.events.extend(iter.into_iter().map(|(thread, event)| TimedEvent { thread, event }));
    }
}

/// Replays `(thread, event)` pairs from a fallible source into `tool` in
/// batches via [`Tool::on_batch`], then calls [`Tool::finish`]. Returns the
/// number of events dispatched.
///
/// This is the entry point for any event stream that does not sit in
/// memory: a decoding iterator over an on-disk or socket wire trace, or any
/// other source that can fail; [`Trace::replay_batched`] runs it over an
/// in-memory trace. Memory use is bounded by one batch, independent of
/// stream length. Batches are `chunk_size` events (0 is treated as 1),
/// extended so they never end on an [`Event::ThreadSwitch`] — a switch is
/// always delivered in the same batch as the first operation of the thread
/// switched to.
///
/// # Errors
///
/// Stops at the first source error and returns it; events already
/// buffered for the current batch are dropped and [`Tool::finish`] is
/// *not* called, since the partial profile would be wrong.
pub fn replay<T, E, I>(tool: &mut T, events: I, chunk_size: usize) -> Result<u64, E>
where
    T: Tool + ?Sized,
    I: IntoIterator<Item = Result<(ThreadId, Event), E>>,
{
    let chunk_size = chunk_size.max(1);
    let mut dispatched = 0u64;
    let mut batch: Vec<TimedEvent> = Vec::with_capacity(chunk_size.min(1 << 16) + 8);
    for item in events {
        let (thread, event) = item?;
        dispatched += 1;
        batch.push(TimedEvent { thread, event });
        if batch.len() >= chunk_size && event.kind() != EventKind::ThreadSwitch {
            tool.on_batch(&batch);
            batch.clear();
        }
    }
    if !batch.is_empty() {
        tool.on_batch(&batch);
    }
    tool.finish();
    Ok(dispatched)
}

/// Summary statistics of a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total number of events.
    pub events: u64,
    /// Number of distinct threads appearing in the trace.
    pub threads: usize,
    /// Event count per [`EventKind`].
    pub by_kind: BTreeMap<EventKind, u64>,
}

impl TraceStats {
    /// Count of events of the given kind.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, RoutineId};
    use proptest::prelude::*;

    fn rd(a: u64) -> Event {
        Event::Read { addr: Addr::new(a) }
    }
    fn wr(a: u64) -> Event {
        Event::Write { addr: Addr::new(a) }
    }

    #[test]
    fn stats_counts_kinds_and_threads() {
        let mut t = Trace::new();
        t.push(ThreadId::new(0), Event::Call { routine: RoutineId::new(0) });
        t.push(ThreadId::new(0), rd(0));
        t.push(ThreadId::new(1), rd(1));
        t.push(ThreadId::new(1), Event::Return { routine: RoutineId::new(0) });
        let s = t.stats();
        assert_eq!(s.events, 4);
        assert_eq!(s.threads, 2);
        assert_eq!(s.count(EventKind::Read), 2);
        assert_eq!(s.count(EventKind::KernelRead), 0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: Trace = vec![(ThreadId::MAIN, rd(0))].into_iter().collect();
        t.extend(vec![(ThreadId::MAIN, wr(1))]);
        assert_eq!(t.len(), 2);
    }

    /// Records every batch a replay delivers, the callbacks it implies, and
    /// whether `finish` ran.
    #[derive(Default)]
    struct BatchLog {
        batches: Vec<Vec<TimedEvent>>,
        calls: crate::RecordingTool,
        finished: bool,
    }

    impl Tool for BatchLog {
        fn name(&self) -> &'static str {
            "batch-log"
        }
        fn on_batch(&mut self, events: &[TimedEvent]) {
            self.batches.push(events.to_vec());
            self.calls.on_batch(events);
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    /// Events with many thread switches, runs of them included: one in
    /// three is a switch.
    fn switchy_events() -> impl Strategy<Value = Vec<(ThreadId, Event)>> {
        prop::collection::vec((0u32..3, 0u8..6, 0u64..16), 0..200).prop_map(|raw| {
            raw.into_iter()
                .map(|(t, kind, a)| {
                    let event = match kind {
                        0 | 1 => Event::ThreadSwitch,
                        2 => wr(a),
                        3 => Event::BasicBlock { cost: a },
                        _ => rd(a),
                    };
                    (ThreadId::new(t), event)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // `replay` is the one body of the batch rule; `on_batch` overrides
        // see its batches, so the cut points are pinned, not just the
        // callbacks they imply.
        #[test]
        fn replay_cuts_batches_by_the_batch_rule(
            events in switchy_events(),
            chunk in 0usize..64,
            fail_at in prop::option::of(0usize..200),
        ) {
            let trace: Trace = events.iter().copied().collect();
            let mut sequential = crate::RecordingTool::new();
            trace.replay(&mut sequential);
            let mut whole = BatchLog::default();
            trace.replay_batched(&mut whole, chunk);

            prop_assert_eq!(whole.batches.concat(), trace.events());
            prop_assert_eq!(whole.calls.trace(), sequential.trace());
            prop_assert!(whole.finished);
            // A batch ends at its first event that makes it `chunk` long and
            // is not a switch; only the last batch may be short or end on one.
            let min = chunk.max(1);
            if let Some((last, rest)) = whole.batches.split_last() {
                prop_assert!(!last.is_empty());
                for batch in &whole.batches {
                    for te in batch.iter().take(batch.len().saturating_sub(1)).skip(min - 1) {
                        prop_assert_eq!(te.event.kind(), EventKind::ThreadSwitch, "{:?}", batch);
                    }
                }
                for batch in rest {
                    prop_assert!(batch.len() >= min, "short batch {:?}", batch);
                    let ends = batch.last().map(|te| te.event.kind());
                    prop_assert!(ends != Some(EventKind::ThreadSwitch), "{:?}", batch);
                }
            }

            let source = events
                .iter()
                .enumerate()
                .map(|(i, &pair)| if Some(i) == fail_at { Err(i) } else { Ok(pair) });
            let mut stream = BatchLog::default();
            let result = replay(&mut stream, source, chunk);
            match fail_at.filter(|&p| p < events.len()) {
                None => {
                    prop_assert_eq!(result, Ok(events.len() as u64));
                    prop_assert_eq!(&stream.batches, &whole.batches);
                    prop_assert!(stream.finished);
                }
                Some(p) => {
                    // The batches completed before the error are delivered;
                    // the partial one is dropped and `finish` never runs.
                    prop_assert_eq!(result, Err(p));
                    let mut end = 0;
                    let complete: Vec<_> = whole
                        .batches
                        .iter()
                        .take_while(|b| {
                            end += b.len();
                            end <= p
                        })
                        .cloned()
                        .collect();
                    prop_assert_eq!(&stream.batches, &complete);
                    prop_assert!(!stream.finished, "finish ran after a source error");
                }
            }
        }
    }

    #[test]
    fn replay_hits_finish() {
        struct Finisher {
            finished: bool,
        }
        impl Tool for Finisher {
            fn name(&self) -> &'static str {
                "finisher"
            }
            fn finish(&mut self) {
                self.finished = true;
            }
        }
        let t = Trace::new();
        let mut f = Finisher { finished: false };
        t.replay(&mut f);
        assert!(f.finished);
    }
}

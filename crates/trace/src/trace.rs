//! Recorded event streams and their replay.

use crate::{Event, EventKind, ThreadId, TimedEvent, Tool};
use std::collections::BTreeMap;

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

    /// The same as [`replay`](Trace::replay); `_chunk_size` is ignored.
    ///
    /// Kept only because `aprof-benchmark` times replay under this name.
    /// It goes when the benchmark calls [`replay`](Trace::replay).
    pub fn replay_batched<T: Tool + ?Sized>(&self, tool: &mut T, _chunk_size: usize) {
        self.replay(tool);
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

/// Replays `(thread, event)` pairs from a fallible source into `tool`, one
/// [`Tool::dispatch`] per event as it arrives, then calls [`Tool::finish`].
/// Returns the number of events dispatched.
///
/// This is the entry point for any event stream that does not sit in
/// memory: a decoding iterator over an on-disk or socket wire trace, or any
/// other source that can fail. It holds no event but the one it hands on,
/// so memory use does not grow with the stream. A tool sees exactly the
/// callbacks of [`Trace::replay`] over the same events, which are the ones
/// the guest machine issued.
///
/// # Errors
///
/// Stops at the first source error and returns it. The events before the
/// error have been dispatched; [`Tool::finish`] is *not* called, since the
/// partial profile would be wrong.
pub fn replay<T, E, I>(tool: &mut T, events: I) -> Result<u64, E>
where
    T: Tool + ?Sized,
    I: IntoIterator<Item = Result<(ThreadId, Event), E>>,
{
    let mut dispatched = 0u64;
    for item in events {
        let (thread, event) = item?;
        tool.dispatch(thread, event);
        dispatched += 1;
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

    /// Records the callbacks a replay delivers and how often `finish` ran.
    #[derive(Default)]
    struct Log {
        calls: crate::RecordingTool,
        finished: u32,
    }

    impl Tool for Log {
        fn name(&self) -> &'static str {
            "log"
        }
        fn dispatch(&mut self, thread: ThreadId, event: Event) {
            self.calls.dispatch(thread, event);
        }
        fn finish(&mut self) {
            self.finished += 1;
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

        // `replay` hands each event on as it arrives: a clean stream gets
        // the callbacks of `Trace::replay` and one `finish`; an error at
        // position p gets the first p events and no `finish`.
        #[test]
        fn replay_dispatches_each_event_then_finishes(
            events in switchy_events(),
            fail_at in prop::option::of(0usize..200),
        ) {
            let trace: Trace = events.iter().copied().collect();
            let mut sequential = crate::RecordingTool::new();
            trace.replay(&mut sequential);

            let source = events
                .iter()
                .enumerate()
                .map(|(i, &pair)| if Some(i) == fail_at { Err(i) } else { Ok(pair) });
            let mut stream = Log::default();
            let result = replay(&mut stream, source);
            match fail_at.filter(|&p| p < events.len()) {
                None => {
                    prop_assert_eq!(result, Ok(events.len() as u64));
                    prop_assert_eq!(stream.calls.trace(), sequential.trace());
                    prop_assert_eq!(stream.finished, 1);
                }
                Some(p) => {
                    prop_assert_eq!(result, Err(p));
                    prop_assert_eq!(stream.calls.trace(), &sequential.trace()[..p]);
                    prop_assert_eq!(stream.finished, 0, "finish ran after a source error");
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

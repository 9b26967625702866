//! Differential property tests: the wire format is a faithful, lossless
//! transport. Arbitrary traces survive text→wire→text round trips, and a
//! profiler fed by a `WireReader` produces a profile identical to one fed
//! by an in-memory `Trace::replay` — across chunk sizes from "one event
//! per chunk" to "everything in one chunk".

use aprof_core::{RmsProfiler, TrmsProfiler, DEFAULT_STREAM_BATCH};
use aprof_trace::{replay, textio, Addr, Event, RoutineId, RoutineTable, ThreadId, Trace};
use aprof_wire::{WireOptions, WireReader, WireWriter};
use proptest::prelude::*;

/// Chunk payload targets exercised by every property: 1 byte (every chunk
/// holds a single event), 2 bytes, the 4 KiB sweet spot, and 1 MiB (the
/// whole trace lands in one chunk).
const CHUNK_SIZES: [usize; 4] = [1, 2, 4096, 1 << 20];

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u32..8).prop_map(|r| Event::Call { routine: RoutineId::new(r) }),
        (0u32..8).prop_map(|r| Event::Return { routine: RoutineId::new(r) }),
        any::<u64>().prop_map(|a| Event::Read { addr: Addr::new(a) }),
        any::<u64>().prop_map(|a| Event::Write { addr: Addr::new(a) }),
        any::<u64>().prop_map(|a| Event::KernelRead { addr: Addr::new(a) }),
        any::<u64>().prop_map(|a| Event::KernelWrite { addr: Addr::new(a) }),
        (1u64..1000).prop_map(|c| Event::BasicBlock { cost: c }),
        Just(Event::ThreadSwitch),
        Just(Event::ThreadStart),
        Just(Event::ThreadExit),
    ]
}

fn build_trace(events: &[(u32, Event)]) -> Trace {
    let mut trace = Trace::new();
    for (t, e) in events {
        trace.push(ThreadId::new(*t), *e);
    }
    trace
}

/// Rewrites a random event sequence into one the profilers accept: every
/// `Return` closes the routine actually on top of its thread's stack, and
/// unmatched returns are dropped. (The wire codec itself is agnostic —
/// only the profiling differential needs well-formed call nesting.)
fn well_formed(events: &[(u32, Event)]) -> Trace {
    let mut stacks: std::collections::HashMap<u32, Vec<RoutineId>> = Default::default();
    let mut trace = Trace::new();
    for (t, e) in events {
        match e {
            Event::Return { .. } => {
                if let Some(routine) = stacks.entry(*t).or_default().pop() {
                    trace.push(ThreadId::new(*t), Event::Return { routine });
                }
            }
            Event::Call { routine } => {
                stacks.entry(*t).or_default().push(*routine);
                trace.push(ThreadId::new(*t), *e);
            }
            _ => trace.push(ThreadId::new(*t), *e),
        }
    }
    trace
}

fn routine_names() -> RoutineTable {
    let mut names = RoutineTable::new();
    for i in 0..8 {
        names.intern(&format!("routine_{i}"));
    }
    names
}

/// Encodes a trace into wire bytes with the given chunk payload target.
fn to_wire(trace: &Trace, names: &RoutineTable, chunk_bytes: usize) -> Vec<u8> {
    let opts = WireOptions { chunk_bytes, ..Default::default() };
    let mut writer = WireWriter::create(Vec::new(), names, opts).unwrap();
    for te in trace.events() {
        writer.push(te.thread, te.event).unwrap();
    }
    let (bytes, summary) = writer.finish().unwrap();
    assert_eq!(summary.events, trace.len() as u64);
    bytes
}

proptest! {
    /// text → wire → text is the identity on the rendered form.
    #[test]
    fn text_wire_text_roundtrip(
        events in prop::collection::vec((0u32..4, event_strategy()), 0..200),
    ) {
        let trace = build_trace(&events);
        let text = textio::to_text(&trace);
        let names = routine_names();
        for chunk_bytes in CHUNK_SIZES {
            let bytes = to_wire(&trace, &names, chunk_bytes);
            let decoded: Trace = WireReader::new(&bytes[..])
                .unwrap()
                .collect::<Result<Trace, _>>()
                .unwrap();
            prop_assert_eq!(
                &textio::to_text(&decoded),
                &text,
                "chunk_bytes {}", chunk_bytes
            );
        }
    }

    /// The index always describes the stream exactly, whatever the
    /// chunking.
    #[test]
    fn index_matches_stream(
        events in prop::collection::vec((0u32..4, event_strategy()), 0..120),
        chunk_bytes in prop_oneof![Just(1usize), Just(7), Just(64), Just(4096)],
    ) {
        let trace = build_trace(&events);
        let names = routine_names();
        let bytes = to_wire(&trace, &names, chunk_bytes);

        let mut reader = WireReader::new(&bytes[..]).unwrap();
        let decoded = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        let index = reader.index().unwrap();
        prop_assert_eq!(index.total_events, trace.len() as u64);
        let framed: u64 = index.entries.iter().map(|e| u64::from(e.events)).sum();
        prop_assert_eq!(framed, decoded.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A profiler consuming a WireReader computes the same rms and trms
    /// profiles as one replaying the in-memory trace.
    #[test]
    fn wire_fed_profiles_match_in_memory_replay(
        events in prop::collection::vec((0u32..4, event_strategy()), 0..150),
    ) {
        let trace = well_formed(&events);
        let names = routine_names();

        let mut trms_mem = TrmsProfiler::new();
        trace.replay(&mut trms_mem);
        let trms_expected = trms_mem.into_report(&names);

        let mut rms_mem = RmsProfiler::new();
        trace.replay(&mut rms_mem);
        let rms_expected = rms_mem.into_report(&names);

        for chunk_bytes in CHUNK_SIZES {
            let bytes = to_wire(&trace, &names, chunk_bytes);

            let mut reader = WireReader::new(&bytes[..]).unwrap();
            prop_assert_eq!(reader.routines().len(), names.len());
            let mut trms = TrmsProfiler::new();
            trms.consume_stream(&mut reader).unwrap();
            prop_assert_eq!(
                &trms.into_report(&names), &trms_expected,
                "trms, chunk_bytes {}", chunk_bytes
            );

            let mut rms = RmsProfiler::new();
            replay(&mut rms, WireReader::new(&bytes[..]).unwrap(), DEFAULT_STREAM_BATCH).unwrap();
            prop_assert_eq!(
                &rms.into_report(&names), &rms_expected,
                "rms, chunk_bytes {}", chunk_bytes
            );
        }
    }
}

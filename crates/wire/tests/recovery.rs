//! The recovery contract, property-tested: truncating a capture at an
//! *arbitrary* byte offset and running [`aprof_wire::recover`] salvages
//! exactly the CRC-valid chunk prefix, and replaying the salvage yields the
//! same-length prefix of the uncorrupted replay. This is the differential
//! behind `aprof recover`: a `kill -9` at any moment loses at most the open
//! chunk, never corrupts what was flushed, and never panics.

use aprof_trace::{Addr, Event, RoutineTable, ThreadId};
use aprof_wire::{recover, StopReason, WireError, WireOptions, WireReader, WireWriter};
use proptest::prelude::*;

/// A deterministic event stream: enough kinds and threads to exercise the
/// delta codec, sized by the generator.
fn sample_events(n: u64, salt: u64) -> (RoutineTable, Vec<(ThreadId, Event)>) {
    let mut names = RoutineTable::new();
    let f = names.intern("fib");
    let g = names.intern("gather");
    let mut events = Vec::new();
    for i in 0..n {
        let x = i.wrapping_mul(0x9E37_79B9).wrapping_add(salt);
        let t = ThreadId::new((x % 3) as u32);
        events.push((t, Event::Call { routine: if x % 2 == 0 { f } else { g } }));
        events.push((t, Event::BasicBlock { cost: 1 + x % 7 }));
        events.push((t, Event::Read { addr: Addr::new(x.wrapping_mul(13)) }));
        if x % 4 == 0 {
            events.push((t, Event::Write { addr: Addr::new(x.wrapping_mul(13) + 1) }));
        }
        events.push((t, Event::Return { routine: if x % 2 == 0 { f } else { g } }));
    }
    (names, events)
}

fn capture(names: &RoutineTable, events: &[(ThreadId, Event)], chunk_bytes: usize) -> Vec<u8> {
    let opts = WireOptions { chunk_bytes, ..Default::default() };
    let mut w = WireWriter::create(Vec::new(), names, opts).unwrap();
    for &(t, e) in events {
        w.push(t, e).unwrap();
    }
    w.finish().unwrap().0
}

/// Replays a (valid) wire file strictly.
fn replay(bytes: &[u8]) -> Vec<(ThreadId, Event)> {
    WireReader::new(bytes)
        .unwrap()
        .strict()
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every truncation offset: header cuts give a typed error; any
    /// other cut salvages exactly the chunks that fit completely inside the
    /// kept prefix, and the salvage replays to the corresponding prefix of
    /// the uncorrupted event stream.
    #[test]
    fn truncation_salvages_exactly_the_valid_chunk_prefix(
        n in 8u64..80,
        salt in any::<u64>(),
        chunk_bytes in 16usize..256,
        cut_sel in any::<u64>(),
    ) {
        let (names, events) = sample_events(n, salt);
        let pristine = capture(&names, &events, chunk_bytes);

        // Ground truth from the pristine file's own index.
        let (index, full_events) = {
            let mut r = WireReader::new(&pristine[..]).unwrap();
            let decoded: Vec<_> = r.by_ref().collect::<Result<_, _>>().unwrap();
            (r.index().unwrap().clone(), decoded)
        };
        prop_assert_eq!(&full_events, &events);
        let header_len = index.entries.first().map(|e| e.offset).unwrap_or(0) as usize;
        prop_assert!(header_len > 0, "multi-chunk sample expected");

        let cut = (cut_sel % (pristine.len() as u64 + 1)) as usize;
        let torn = &pristine[..cut];

        if cut < header_len {
            // Header damage is unrecoverable and must be a typed error,
            // never a panic.
            let err = recover(torn, &mut Vec::new()).unwrap_err();
            prop_assert!(
                matches!(
                    err,
                    WireError::UnexpectedEof { .. }
                        | WireError::BadMagic { .. }
                        | WireError::HeaderCorrupt { .. }
                ),
                "cut {} inside header gave {:?}", cut, err
            );
            return;
        }

        let mut out = Vec::new();
        let summary = recover(torn, &mut out).unwrap();

        // Exactly the chunks whose framing + payload fit inside the cut.
        let expect: Vec<_> = index
            .entries
            .iter()
            .take_while(|e| e.offset + 13 + u64::from(e.payload_len) <= cut as u64)
            .collect();
        prop_assert_eq!(summary.chunks as usize, expect.len());
        let expect_events: u64 = expect.iter().map(|e| u64::from(e.events)).sum();
        prop_assert_eq!(summary.events, expect_events);

        // The salvage is a fully valid file whose replay is the same-length
        // prefix of the uncorrupted replay.
        let salvaged = replay(&out);
        prop_assert_eq!(salvaged.len() as u64, expect_events);
        prop_assert_eq!(&salvaged[..], &events[..salvaged.len()]);

        // Recovering the salvage again is a byte-identical fixpoint.
        let mut again = Vec::new();
        let second = recover(&out[..], &mut again).unwrap();
        prop_assert!(second.was_intact());
        prop_assert_eq!(&again, &out);
    }

    /// Flipping one payload byte past the header never panics recovery,
    /// never yields events outside the pristine prefix contract, and keeps
    /// the longest prefix: everything a strict reader yields before its
    /// first error.
    #[test]
    fn single_corruption_keeps_salvage_a_valid_prefix(
        n in 8u64..40,
        salt in any::<u64>(),
        victim_sel in any::<u64>(),
    ) {
        let (names, events) = sample_events(n, salt);
        let mut bytes = capture(&names, &events, 48);
        let (index, _) = {
            let mut r = WireReader::new(&bytes[..]).unwrap();
            let decoded: Vec<_> = r.by_ref().collect::<Result<_, _>>().unwrap();
            (r.index().unwrap().clone(), decoded)
        };
        let header_len = index.entries[0].offset as usize;
        let victim = header_len + (victim_sel % ((bytes.len() - header_len) as u64)) as usize;
        bytes[victim] ^= 0x41;

        let mut out = Vec::new();
        let summary = recover(&bytes[..], &mut out).unwrap();
        let salvaged = replay(&out);
        prop_assert_eq!(salvaged.len() as u64, summary.events);
        prop_assert_eq!(&salvaged[..], &events[..salvaged.len()]);
        let strict: Vec<_> =
            WireReader::new(&bytes[..]).unwrap().strict().map_while(Result::ok).collect();
        prop_assert_eq!(&salvaged, &strict);
    }
}

/// The `Durable`-shaped crash (file ends exactly where the index would
/// begin) loses nothing.
#[test]
fn footerless_durable_shape_loses_nothing() {
    let (names, events) = sample_events(50, 7);
    let bytes = capture(&names, &events, 64);
    let footer_at = bytes.len() - 16;
    let index_offset =
        u64::from_le_bytes(bytes[footer_at..footer_at + 8].try_into().unwrap()) as usize;
    let mut out = Vec::new();
    let summary = recover(&bytes[..index_offset], &mut out).unwrap();
    assert_eq!(summary.stopped, StopReason::CleanEof);
    assert_eq!(replay(&out), events);
}

//! Fuzz-style robustness: no mutation of a wire file may panic the
//! decoder or produce a silently wrong event stream. Every single-bit
//! flip, every truncation point, and spliced/duplicated chunks must end in
//! a typed [`WireError`] or an explicitly reported skipped chunk.

use aprof_trace::{Addr, Event, RoutineTable, ThreadId};
use aprof_wire::{SkippedChunk, WireError, WireIndex, WireOptions, WireReader, WireWriter};

/// A small multi-chunk file (~a few hundred bytes, so exhaustive bit-flip
/// and truncation sweeps stay fast).
fn sample_file() -> Vec<u8> {
    let mut names = RoutineTable::new();
    let f = names.intern("f");
    let g = names.intern("g");
    let opts = WireOptions { chunk_bytes: 24, ..Default::default() };
    let mut w = WireWriter::create(Vec::new(), &names, opts).unwrap();
    for i in 0..40u64 {
        let t = ThreadId::new((i % 2) as u32);
        w.push(t, Event::Call { routine: if i % 2 == 0 { f } else { g } }).unwrap();
        w.push(t, Event::Read { addr: Addr::new(i * 8) }).unwrap();
        w.push(t, Event::Write { addr: Addr::new(i * 8 + 1) }).unwrap();
        w.push(t, Event::Return { routine: if i % 2 == 0 { f } else { g } }).unwrap();
    }
    let (bytes, summary) = w.finish().unwrap();
    assert!(summary.chunks >= 3, "want a multi-chunk sample, got {}", summary.chunks);
    bytes
}

/// The validated index of an intact file, as the reader reads it.
fn index_of(bytes: &[u8]) -> WireIndex {
    let mut reader = WireReader::new(bytes).unwrap();
    reader.by_ref().for_each(|item| {
        item.unwrap();
    });
    reader.index().unwrap().clone()
}

/// Decodes `bytes` leniently, returning the events, the skip reports, and
/// the terminal error if any. Any panic fails the test by propagating.
fn decode(bytes: &[u8]) -> (Vec<(ThreadId, Event)>, Vec<SkippedChunk>, Option<WireError>) {
    let mut reader = match WireReader::new(bytes) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Vec::new(), Some(e)),
    };
    let mut events = Vec::new();
    let mut error = None;
    for item in reader.by_ref() {
        match item {
            Ok(ev) => events.push(ev),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    (events, reader.skipped().to_vec(), error)
}

#[test]
fn every_single_bit_flip_is_detected() {
    let pristine = sample_file();
    let (reference, skipped, error) = decode(&pristine);
    assert!(skipped.is_empty() && error.is_none());

    let mut undetected = Vec::new();
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut mutated = pristine.clone();
            mutated[byte] ^= 1 << bit;
            let (events, skipped, error) = decode(&mutated);
            // The flip must be *accounted for*: either a typed error, or
            // at least one skipped chunk. A clean full decode of different
            // events would be a silent corruption — the one forbidden
            // outcome.
            if error.is_none() && skipped.is_empty() && events != reference {
                undetected.push((byte, bit));
            }
        }
    }
    assert!(
        undetected.is_empty(),
        "bit flips decoded cleanly to wrong events: {undetected:?}"
    );
}

#[test]
fn every_truncation_point_yields_a_typed_error() {
    let pristine = sample_file();
    for len in 0..pristine.len() {
        let (_, _, error) = decode(&pristine[..len]);
        let error = error.unwrap_or_else(|| {
            panic!("decoding a {len}-byte prefix of a {}-byte file succeeded", pristine.len())
        });
        // Truncation severs either a structure mid-read or the index.
        assert!(
            matches!(
                error,
                WireError::UnexpectedEof { .. }
                    | WireError::IndexCorrupt { .. }
                    | WireError::BadFooter { .. }
                    | WireError::ChunkCorrupt { .. }
            ),
            "prefix {len}: unexpected error class {error:?}"
        );
    }
}

#[test]
fn strict_mode_rejects_what_lenient_mode_skips() {
    let pristine = sample_file();
    // Flip a byte in the middle of the first chunk's payload (the header
    // is small: magic 8 + version 4 + len 4 + payload + crc 4; first
    // chunk framing follows). Locate it via the index.
    let index = index_of(&pristine);
    let entry = &index.entries[0];
    let mut mutated = pristine.clone();
    mutated[(entry.offset + 13) as usize + entry.payload_len as usize / 2] ^= 0x40;

    let (_, skipped, error) = decode(&mutated);
    assert!(error.is_none(), "lenient reader should recover: {error:?}");
    assert_eq!(skipped.len(), 1);
    assert_eq!(skipped[0].index, 0);

    let strict_err = WireReader::new(&mutated[..])
        .unwrap()
        .strict()
        .collect::<Result<Vec<_>, _>>()
        .unwrap_err();
    assert!(matches!(strict_err, WireError::ChunkCorrupt { index: 0, .. }));
}

#[test]
fn spliced_chunks_are_caught_by_the_index() {
    let pristine = sample_file();
    let index = index_of(&pristine);
    let (e0, e1) = (&index.entries[0], &index.entries[1]);
    let start = e0.offset as usize;
    let mid = e1.offset as usize;
    let end = mid + 13 + e1.payload_len as usize;

    // Duplicate chunk 1 over chunk 0's position? Sizes differ, so instead
    // splice: drop chunk 0 entirely.
    let mut dropped = Vec::new();
    dropped.extend_from_slice(&pristine[..start]);
    dropped.extend_from_slice(&pristine[mid..]);
    let (_, _, error) = decode(&dropped);
    assert!(
        matches!(error, Some(WireError::IndexCorrupt { .. }) | Some(WireError::BadFooter { .. })),
        "dropping a chunk must desync the index/footer, got {error:?}"
    );

    // Duplicate chunk 1 right after itself: chunk count disagrees.
    let mut duplicated = Vec::new();
    duplicated.extend_from_slice(&pristine[..end]);
    duplicated.extend_from_slice(&pristine[mid..]);
    let (_, _, error) = decode(&duplicated);
    assert!(
        matches!(error, Some(WireError::IndexCorrupt { .. }) | Some(WireError::BadFooter { .. })),
        "duplicating a chunk must desync the index/footer, got {error:?}"
    );
}

#[test]
fn arbitrary_garbage_never_panics() {
    // Deterministic xorshift so the test needs no RNG dependency.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 1, 7, 8, 16, 64, 256, 1024] {
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let (_, _, error) = decode(&bytes);
            assert!(error.is_some(), "garbage of length {len} decoded cleanly");
        }
    }
    // Garbage behind a valid magic+version prefix.
    let mut prefixed = Vec::new();
    prefixed.extend_from_slice(b"aprwire1");
    prefixed.extend_from_slice(&1u32.to_le_bytes());
    for _ in 0..64 {
        let mut bytes = prefixed.clone();
        bytes.extend((0..64).map(|_| next() as u8));
        let (_, _, error) = decode(&bytes);
        assert!(error.is_some(), "garbage header decoded cleanly");
    }
}

#[test]
fn profiles_from_damaged_files_are_never_silently_wrong() {
    use aprof_core::{RmsProfiler, DEFAULT_STREAM_BATCH};
    use aprof_trace::replay;

    let pristine = sample_file();
    let names = {
        let mut names = RoutineTable::new();
        names.intern("f");
        names.intern("g");
        names
    };
    let mut reference = RmsProfiler::new();
    replay(&mut reference, WireReader::new(&pristine[..]).unwrap(), DEFAULT_STREAM_BATCH).unwrap();
    let reference = reference.into_report(&names);

    let mut mismatches_without_evidence = 0;
    for byte in (0..pristine.len()).step_by(7) {
        let mut mutated = pristine.clone();
        mutated[byte] ^= 0x10;
        let mut reader = match WireReader::new(&mutated[..]) {
            Ok(r) => r,
            Err(_) => continue, // typed rejection: fine
        };
        let mut profiler = RmsProfiler::new();
        if replay(&mut profiler, &mut reader, DEFAULT_STREAM_BATCH).is_err() {
            continue; // typed rejection: fine
        }
        let evidence = !reader.skipped().is_empty();
        if profiler.into_report(&names) != reference && !evidence {
            mismatches_without_evidence += 1;
        }
    }
    assert_eq!(
        mismatches_without_evidence, 0,
        "a damaged file produced a different profile with no error and no skip report"
    );
}

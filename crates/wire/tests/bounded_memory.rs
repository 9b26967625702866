//! Acceptance check: replay memory is bounded by the chunk size, not the
//! trace size. A trace at least 64× larger than the chunk budget must
//! decode with a peak chunk buffer no bigger than the budget plus one
//! maximally-sized event of slack, and a corrupt length field must not
//! make the reader buffer what the stream never held.

use aprof_trace::{Addr, Event, RoutineTable, ThreadId};
use aprof_wire::{WireError, WireOptions, WireReader, WireWriter};

#[test]
fn peak_replay_memory_is_bounded_by_chunk_size() {
    const CHUNK_BYTES: usize = 1024;

    let mut names = RoutineTable::new();
    let f = names.intern("hot_loop");
    let opts = WireOptions { chunk_bytes: CHUNK_BYTES, ..Default::default() };
    let mut writer = WireWriter::create(Vec::new(), &names, opts).unwrap();

    // Wide random-looking addresses defeat delta compression, so the file
    // comfortably clears the 64×-chunk-size floor.
    let mut addr = 0x9e37_79b9u64;
    let mut pushed = 0u64;
    writer.push(ThreadId::MAIN, Event::Call { routine: f }).unwrap();
    while pushed < 40_000 {
        addr = addr.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        writer.push(ThreadId::MAIN, Event::Read { addr: Addr::new(addr) }).unwrap();
        writer.push(ThreadId::MAIN, Event::Write { addr: Addr::new(addr ^ 0xffff) }).unwrap();
        pushed += 2;
    }
    writer.push(ThreadId::MAIN, Event::Return { routine: f }).unwrap();
    let (bytes, summary) = writer.finish().unwrap();

    assert!(
        bytes.len() >= 64 * CHUNK_BYTES,
        "trace too small to be meaningful: {} bytes < 64 * {CHUNK_BYTES}",
        bytes.len()
    );

    let mut reader = WireReader::new(&bytes[..]).unwrap();
    let mut decoded = 0u64;
    for item in reader.by_ref() {
        item.unwrap();
        decoded += 1;
    }
    assert_eq!(decoded, summary.events);

    let stats = reader.stats();
    assert_eq!(stats.events, summary.events);
    assert_eq!(stats.chunks, summary.chunks);
    // The writer seals a chunk once the payload reaches the budget, so a
    // chunk can overshoot by at most one encoded event.
    assert!(
        stats.peak_chunk_bytes <= CHUNK_BYTES + aprof_wire::format::MAX_EVENT_BYTES,
        "peak chunk buffer {} exceeds chunk budget {CHUNK_BYTES}",
        stats.peak_chunk_bytes
    );
    assert!(summary.chunks >= 64, "expected >= 64 chunks, got {}", summary.chunks);
}

#[test]
fn index_entry_count_is_checked_before_the_entries_are_read() {
    let mut names = RoutineTable::new();
    let f = names.intern("f");
    let mut writer = WireWriter::create(Vec::new(), &names, WireOptions::default()).unwrap();
    writer.push(ThreadId::MAIN, Event::Call { routine: f }).unwrap();
    writer.push(ThreadId::MAIN, Event::Return { routine: f }).unwrap();
    let (bytes, summary) = writer.finish().unwrap();
    assert_eq!(summary.chunks, 1);

    // Keep the stream up to and including the index tag, claim 2^26 - 1
    // index entries, and end the source 64 KiB later.
    let footer = bytes.len() - 16;
    let index_at = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
    let mut forged = bytes[..=index_at].to_vec();
    forged.extend_from_slice(&((1u32 << 26) - 1).to_le_bytes());
    forged.resize(forged.len() + (64 << 10), 0);

    let mut reader = WireReader::new(&forged[..]).unwrap();
    let err = reader.by_ref().find_map(Result::err).expect("the forged index must fail");
    assert!(matches!(err, WireError::IndexCorrupt { .. }), "{err:?}");
    let read = reader.stats().bytes_read;
    assert!(read < 1024, "the reader took {read} bytes before rejecting the count");
}

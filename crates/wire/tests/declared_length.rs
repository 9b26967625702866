//! A chunk frame that declares a 64 MiB payload and then ends must cost the
//! reader what the stream held, not what the frame claimed. The daemon runs
//! this reader on every submitted body, so a short forged prefix must not
//! buy 64 MiB per connection.
//!
//! Peak memory is read from `VmHWM` in `/proc/self/status`, so this file
//! holds a single test and runs as its own process.

use aprof_trace::RoutineTable;
use aprof_wire::format::{CHUNK_TAG, MAX_CHUNK_BYTES};
use aprof_wire::{WireError, WireOptions, WireReader, WireWriter};

/// Peak resident set size of this process, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmHWM value")
}

#[test]
fn a_declared_chunk_length_is_not_allocated_before_its_bytes_arrive() {
    let mut names = RoutineTable::new();
    names.intern("f");
    let writer = WireWriter::create(Vec::new(), &names, WireOptions::default()).unwrap();
    let (empty, _) = writer.finish().unwrap();
    // An empty trace is its header, then the index; keep the header and
    // append one chunk frame (tag, event count, payload length, crc) that
    // declares the largest payload the format allows, then end the input.
    let footer = empty.len() - 16;
    let index_at = u64::from_le_bytes(empty[footer..footer + 8].try_into().unwrap()) as usize;
    let mut forged = empty[..index_at].to_vec();
    forged.push(CHUNK_TAG);
    forged.extend_from_slice(&1u32.to_le_bytes());
    forged.extend_from_slice(&(MAX_CHUNK_BYTES as u32).to_le_bytes());
    forged.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(forged.len(), 36);

    let before = vm_hwm_kib();
    let mut reader = WireReader::new(&forged[..]).unwrap();
    let err = reader.by_ref().find_map(Result::err).expect("the cut chunk must fail");
    let grown_kib = vm_hwm_kib().saturating_sub(before);

    assert!(matches!(err, WireError::UnexpectedEof { context: "chunk payload" }), "{err:?}");
    assert_eq!(reader.stats().bytes_read, 36);
    assert!(grown_kib < 16 << 10, "peak memory grew by {grown_kib} KiB on a 36-byte input");
}

//! Salvage of damaged wire captures.
//!
//! A capture that died mid-run — `kill -9`, power loss, a full disk — has a
//! valid header, a run of intact chunks, and then either nothing (no index,
//! no footer) or a torn chunk. Because chunk payloads are self-contained
//! (delta state resets per chunk) and individually CRC-guarded, the longest
//! decodable prefix is well defined: [`recover`] runs a strict
//! [`WireReader`] record by record, keeps exactly the leading run of chunks
//! it accepts, stops at the index tag without reading the index, and writes
//! a fresh capture with a rebuilt index and footer. The result is a fully
//! valid wire file that strict readers accept.
//!
//! Combined with [`FlushPolicy::Durable`](crate::FlushPolicy::Durable), this
//! bounds data loss to the one chunk that was open when the process died.

use crate::error::WireError;
use crate::format::{WireIndex, FOOTER_MAGIC};
use crate::reader::{Record, WireReader, RECORD_TAG};
use std::io::{Read, Write};

/// Why [`recover`]'s forward scan stopped accepting chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The index record was reached: every chunk in the file was intact.
    IndexReached,
    /// Input ended exactly at a record boundary — a footer-less capture
    /// whose last chunk is whole (the `Durable` crash shape).
    CleanEof,
    /// Input ended inside a record (torn framing or payload).
    Truncated {
        /// The structure being read when the bytes ran out.
        context: &'static str,
    },
    /// A chunk was structurally present but invalid (CRC mismatch, bad
    /// payload, oversized framing).
    BadChunk {
        /// Zero-based index of the rejected chunk.
        index: u32,
        /// What the validation found.
        reason: String,
    },
    /// A byte that is neither a chunk nor an index tag — the stream cannot
    /// be trusted past this point.
    BadTag {
        /// Offset of the unrecognized tag byte.
        offset: u64,
        /// The tag byte found.
        found: u8,
    },
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::IndexReached => write!(f, "reached the chunk index (file was intact)"),
            StopReason::CleanEof => write!(f, "input ended at a chunk boundary (missing index)"),
            StopReason::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            StopReason::BadChunk { index, reason } => {
                write!(f, "chunk {index} rejected: {reason}")
            }
            StopReason::BadTag { offset, found } => {
                write!(f, "unrecognized record tag 0x{found:02x} at byte {offset}")
            }
        }
    }
}

/// What [`recover`] salvaged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverSummary {
    /// Intact chunks copied to the output.
    pub chunks: u32,
    /// Events contained in those chunks.
    pub events: u64,
    /// Observed thread count (highest thread index + 1; 0 if no events).
    pub threads: u32,
    /// Bytes of the input prefix that were kept (header plus intact
    /// chunks). Everything past this offset was dropped.
    pub salvaged_bytes: u64,
    /// Total size of the rewritten output file.
    pub output_bytes: u64,
    /// Why the forward scan stopped.
    pub stopped: StopReason,
}

impl RecoverSummary {
    /// Whether the input needed no repair (scan reached the index record).
    pub fn was_intact(&self) -> bool {
        self.stopped == StopReason::IndexReached
    }
}

/// A source that keeps every byte it hands out, so [`recover`] copies the
/// header and each chunk exactly as the reader consumed them. Re-encoding
/// could change their bytes: varints need not be minimal.
struct Recording<R> {
    inner: R,
    taken: Vec<u8>,
}

impl<R: Read> Read for Recording<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

impl<R> Recording<R> {
    /// Writes out the bytes taken since the last call and returns how many.
    fn copy_to<W: Write>(&mut self, output: &mut W) -> std::io::Result<u64> {
        output.write_all(&self.taken)?;
        let n = self.taken.len() as u64;
        self.taken.clear();
        Ok(n)
    }
}

/// Where salvage stops for an error of the strict reader; an I/O error
/// stays an error.
fn stop_reason(e: WireError) -> Result<StopReason, WireError> {
    Ok(match e {
        WireError::UnexpectedEof { context: RECORD_TAG } => StopReason::CleanEof,
        WireError::UnexpectedEof { context } => StopReason::Truncated { context },
        WireError::ChunkCorrupt { index, reason } => StopReason::BadChunk { index, reason },
        WireError::ChunkTooLarge { index, len, .. } => StopReason::BadChunk {
            index,
            reason: format!("declared payload of {len} bytes exceeds the maximum"),
        },
        WireError::BadRecordTag { offset, found } => StopReason::BadTag { offset, found },
        other => return Err(other),
    })
}

/// Salvages the longest valid prefix of a damaged wire capture.
///
/// Validates the header (a capture with a corrupt header is unrecoverable —
/// the routine table is gone), then reads forward chunk by chunk with a
/// strict [`WireReader`], which verifies each chunk's framing, CRC-32 and
/// payload decode, and ignores any index the input may carry. The header
/// and every intact chunk are copied to `output` byte-for-byte, followed by
/// a freshly built index and footer, so the output is a complete,
/// strict-reader-valid wire file.
///
/// Reading a salvaged file replays exactly the events a strict reader
/// yields from the damaged input before its first error — the same events
/// a lossless reader would have produced from the undamaged capture,
/// truncated at a chunk boundary.
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] /
/// [`WireError::HeaderCorrupt`] / [`WireError::UnexpectedEof`] when the
/// header itself is unusable, and [`WireError::Io`] for real I/O failures
/// on either side. Damage *after* the header is not an error — it
/// determines where salvage stops, reported in
/// [`RecoverSummary::stopped`].
pub fn recover<R: Read, W: Write>(input: R, mut output: W) -> Result<RecoverSummary, WireError> {
    let mut reader = WireReader::new(Recording { inner: input, taken: Vec::new() })?.strict();
    // Input offset of the next record tag; also the output written so far.
    let mut kept = reader.inner.copy_to(&mut output)?;
    let stopped = loop {
        match reader.read_record() {
            Ok(Record::Chunk(_)) => kept += reader.inner.copy_to(&mut output)?,
            Ok(Record::Index(_)) => break StopReason::IndexReached,
            Err(e) => break stop_reason(e)?,
        }
    };

    // A fresh index and footer over exactly what was kept. A chunk the
    // reader rejected is already in `seen`: keep only the decoded ones.
    let chunks = reader.stats().chunks;
    let mut entries = std::mem::take(&mut reader.seen);
    entries.truncate(chunks as usize);
    let total_events = entries.iter().map(|e| u64::from(e.events)).sum();
    let threads = reader.max_thread;
    let index = WireIndex { entries, total_events, thread_count: threads };
    let mut tail = Vec::new();
    index.encode(&mut tail);
    tail.extend_from_slice(&kept.to_le_bytes());
    tail.extend_from_slice(FOOTER_MAGIC);
    output.write_all(&tail)?;
    output.flush()?;

    aprof_obs::counters::WIRE_RECOVERED_CHUNKS.add(u64::from(chunks));
    aprof_obs::counters::WIRE_RECOVERED_EVENTS.add(total_events);

    Ok(RecoverSummary {
        chunks,
        events: total_events,
        threads,
        salvaged_bytes: kept,
        output_bytes: kept + tail.len() as u64,
        stopped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WireOptions, WireReader, WireWriter};
    use aprof_trace::{Addr, Event, RoutineTable, ThreadId};

    fn capture(events: &[(ThreadId, Event)], chunk_bytes: usize) -> Vec<u8> {
        let opts = WireOptions { chunk_bytes, ..Default::default() };
        let mut w = WireWriter::create(Vec::new(), &RoutineTable::new(), opts).unwrap();
        for &(t, e) in events {
            w.push(t, e).unwrap();
        }
        w.finish().unwrap().0
    }

    fn sample_events(n: u64) -> Vec<(ThreadId, Event)> {
        (0..n)
            .map(|i| {
                let t = ThreadId::new((i % 3) as u32);
                (t, Event::Read { addr: Addr::new(i * 17) })
            })
            .collect()
    }

    fn replay(bytes: &[u8]) -> Vec<(ThreadId, Event)> {
        WireReader::new(bytes).unwrap().strict().collect::<Result<Vec<_>, _>>().unwrap()
    }

    #[test]
    fn intact_file_round_trips_unchanged() {
        let events = sample_events(100);
        let bytes = capture(&events, 64);
        let mut out = Vec::new();
        let summary = recover(&bytes[..], &mut out).unwrap();
        assert!(summary.was_intact());
        assert_eq!(summary.events, 100);
        assert_eq!(out, bytes, "recovering an intact file must be byte-identical");
    }

    #[test]
    fn footerless_capture_is_fully_salvaged() {
        let events = sample_events(60);
        let bytes = capture(&events, 64);
        // Chop at the index tag: the Durable crash shape.
        let index_offset =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
        let torn = &bytes[..index_offset as usize];
        let mut out = Vec::new();
        let summary = recover(torn, &mut out).unwrap();
        assert_eq!(summary.stopped, StopReason::CleanEof);
        assert_eq!(summary.events, 60);
        assert_eq!(replay(&out), events);
    }

    #[test]
    fn torn_chunk_is_dropped_prefix_survives() {
        let events = sample_events(60);
        let bytes = capture(&events, 64);
        let full = recover(&bytes[..], &mut Vec::new()).unwrap();
        assert!(full.chunks >= 3, "need several chunks, got {}", full.chunks);
        // Cut inside the *second* chunk's payload.
        let cut = {
            let mut r = WireReader::new(&bytes[..]).unwrap();
            for _ in r.by_ref() {}
            let idx = r.index().unwrap().clone();
            (idx.entries[1].offset + 13 + u64::from(idx.entries[1].payload_len) - 2) as usize
        };
        let mut out = Vec::new();
        let summary = recover(&bytes[..cut], &mut out).unwrap();
        assert_eq!(summary.stopped, StopReason::Truncated { context: "chunk payload" });
        assert_eq!(summary.chunks, 1);
        let salvaged = replay(&out);
        assert_eq!(salvaged[..], events[..salvaged.len()]);
    }

    #[test]
    fn corrupt_chunk_payload_stops_the_scan() {
        let events = sample_events(60);
        let mut bytes = capture(&events, 64);
        let idx = {
            let mut r = WireReader::new(&bytes[..]).unwrap();
            for _ in r.by_ref() {}
            r.index().unwrap().clone()
        };
        // Flip a payload byte of chunk 1; chunk 0 must still be salvaged.
        let victim = (idx.entries[1].offset + 13 + 1) as usize;
        bytes[victim] ^= 0xFF;
        let mut out = Vec::new();
        let summary = recover(&bytes[..], &mut out).unwrap();
        assert_eq!(summary.chunks, 1);
        assert!(matches!(summary.stopped, StopReason::BadChunk { index: 1, .. }));
        let salvaged = replay(&out);
        assert_eq!(salvaged.len() as u64, summary.events);
        assert_eq!(salvaged[..], events[..salvaged.len()]);
    }

    #[test]
    fn truncation_inside_header_is_a_typed_error() {
        let bytes = capture(&sample_events(10), 64);
        for cut in [0usize, 4, 8, 11, 15] {
            let err = recover(&bytes[..cut], &mut Vec::new()).unwrap_err();
            assert!(
                matches!(err, WireError::UnexpectedEof { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_routine_name_is_rejected_as_the_reader_rejects_it() {
        // A CRC-valid header whose routine table names "f" twice.
        let payload = [2u8, 1, b'f', 1, b'f'];
        let mut bytes = crate::format::MAGIC.to_vec();
        bytes.extend_from_slice(&crate::VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crate::crc32::crc32(&payload).to_le_bytes());
        let mut out = Vec::new();
        match recover(&bytes[..], &mut out) {
            Err(WireError::HeaderCorrupt { reason }) => {
                assert_eq!(reason, "duplicate routine name");
            }
            other => panic!("expected HeaderCorrupt, got {other:?}"),
        }
        assert!(out.is_empty(), "nothing may be salvaged from a corrupt header");
    }

    #[test]
    fn empty_salvage_is_still_a_valid_file() {
        let bytes = capture(&[], 64);
        // Keep only the header.
        let header_len = {
            let footer_at = bytes.len() - 16;
            u64::from_le_bytes(bytes[footer_at..footer_at + 8].try_into().unwrap()) as usize
        };
        let mut out = Vec::new();
        let summary = recover(&bytes[..header_len], &mut out).unwrap();
        assert_eq!(summary.chunks, 0);
        assert_eq!(summary.threads, 0);
        assert!(replay(&out).is_empty());
    }
}

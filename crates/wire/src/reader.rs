//! Streaming wire-trace replay: the one module that reads a header, a
//! chunk frame or an index.

use crate::crc32::crc32;
use crate::error::{SkippedChunk, WireError};
use crate::format::{
    decode_chunk_into, ChunkEntry, WireIndex, CHUNK_TAG, FOOTER_MAGIC, INDEX_TAG, MAGIC,
    MAX_CHUNK_BYTES, MAX_HEADER_BYTES, VERSION,
};
use crate::varint;
use aprof_trace::{Event, RoutineTable, ThreadId};
use std::io::Read;

/// Context of the [`WireError::UnexpectedEof`] raised when the input ends
/// where a record tag should start, i.e. on a record boundary.
pub(crate) const RECORD_TAG: &str = "record tag (file truncated before the chunk index)";

/// One record read by [`WireReader::read_record`].
pub(crate) enum Record {
    /// A chunk: `true` when its events are loaded, `false` when lenient
    /// recovery skipped it.
    Chunk(bool),
    /// The index tag, at this byte offset. The index itself is not read.
    Index(u64),
}

/// Progress counters of a [`WireReader`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReaderStats {
    /// Events decoded and yielded.
    pub events: u64,
    /// Chunks decoded successfully.
    pub chunks: u32,
    /// Chunks dropped by skip-and-report recovery.
    pub chunks_skipped: u32,
    /// Largest chunk payload buffered at any point — the reader's working
    /// memory is bounded by this plus the decoded form of one chunk,
    /// independent of file size.
    pub peak_chunk_bytes: usize,
    /// Bytes consumed from the underlying reader.
    pub bytes_read: u64,
}

/// Streaming decoder: iterates `(thread, event)` pairs out of a wire trace
/// while holding only one chunk in memory, so a multi-gigabyte trace
/// replays in O(chunk) space without ever materializing a
/// [`Trace`](aprof_trace::Trace).
///
/// Corrupt chunk *payloads* (CRC mismatch, bad varints, count skew) are
/// recovered by skipping the chunk and recording a [`SkippedChunk`] —
/// unless [`strict`](WireReader::strict) mode is on, in which case they
/// surface as [`WireError::ChunkCorrupt`]. Damage to the framing, header,
/// index or footer is never recoverable and always yields a typed error.
///
/// The iterator is fused: after yielding an `Err` it yields `None` forever.
#[derive(Debug)]
pub struct WireReader<R: Read> {
    pub(crate) inner: R,
    version: u32,
    routines: RoutineTable,
    strict: bool,
    payload: Vec<u8>,
    current: Vec<(ThreadId, Event)>,
    pos: usize,
    offset: u64,
    next_ordinal: u32,
    /// Framing of every chunk read so far, decoded or not.
    pub(crate) seen: Vec<ChunkEntry>,
    skipped: Vec<SkippedChunk>,
    index: Option<WireIndex>,
    /// Highest thread index + 1 over the decoded chunks.
    pub(crate) max_thread: u32,
    stats: ReaderStats,
    done: bool,
}

impl<R: Read> WireReader<R> {
    /// Reads and validates the file header, returning a reader positioned
    /// at the first chunk.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::HeaderCorrupt`], [`WireError::UnexpectedEof`] or
    /// [`WireError::Io`].
    pub fn new(inner: R) -> Result<Self, WireError> {
        let mut reader = WireReader {
            inner,
            version: 0,
            routines: RoutineTable::new(),
            strict: false,
            payload: Vec::new(),
            current: Vec::new(),
            pos: 0,
            offset: 0,
            next_ordinal: 0,
            seen: Vec::new(),
            skipped: Vec::new(),
            index: None,
            max_thread: 0,
            stats: ReaderStats::default(),
            done: false,
        };
        reader.read_header()?;
        Ok(reader)
    }

    /// Turns corrupt-chunk recovery off: payload corruption becomes a
    /// [`WireError::ChunkCorrupt`] instead of a skip-and-report.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Format version of the file being read.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The routine-name table embedded in the header.
    pub fn routines(&self) -> &RoutineTable {
        &self.routines
    }

    /// Chunks dropped so far by skip-and-report recovery.
    pub fn skipped(&self) -> &[SkippedChunk] {
        &self.skipped
    }

    /// Progress counters (final once the iterator is exhausted).
    pub fn stats(&self) -> ReaderStats {
        self.stats
    }

    /// The validated trailing index — available once iteration has reached
    /// the end of the file.
    pub fn index(&self) -> Option<&WireIndex> {
        self.index.as_ref()
    }

    fn read_exact_ctx(&mut self, buf: &mut [u8], context: &'static str) -> Result<(), WireError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::UnexpectedEof { context }
            } else {
                WireError::Io(e)
            }
        })?;
        self.offset += buf.len() as u64;
        self.stats.bytes_read = self.offset;
        Ok(())
    }

    fn read_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let mut b = [0u8; 4];
        self.read_exact_ctx(&mut b, context)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let mut b = [0u8; 8];
        self.read_exact_ctx(&mut b, context)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_header(&mut self) -> Result<(), WireError> {
        let mut magic = [0u8; 8];
        self.read_exact_ctx(&mut magic, "file magic")?;
        if &magic != MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        self.version = self.read_u32("header version")?;
        if self.version != VERSION {
            return Err(WireError::UnsupportedVersion {
                found: self.version,
                supported: VERSION,
            });
        }
        let corrupt =
            |reason: &str| WireError::HeaderCorrupt { reason: reason.to_owned() };
        let payload_len = self.read_u32("header length")?;
        if u64::from(payload_len) > MAX_HEADER_BYTES {
            return Err(corrupt("declared header length exceeds the format maximum"));
        }
        let mut payload = vec![0u8; payload_len as usize];
        self.read_exact_ctx(&mut payload, "header payload")?;
        let stored_crc = self.read_u32("header crc")?;
        if crc32(&payload) != stored_crc {
            return Err(corrupt("header crc mismatch"));
        }
        let mut pos = 0;
        let count =
            varint::read_u64(&payload, &mut pos).ok_or_else(|| corrupt("bad routine count"))?;
        if count > u64::from(u32::MAX) {
            return Err(corrupt("routine count exceeds u32"));
        }
        for _ in 0..count {
            let len = varint::read_u64(&payload, &mut pos)
                .ok_or_else(|| corrupt("bad routine name length"))?;
            let len = usize::try_from(len)
                .ok()
                .filter(|l| pos + l <= payload.len())
                .ok_or_else(|| corrupt("routine name past header end"))?;
            let name = std::str::from_utf8(&payload[pos..pos + len])
                .map_err(|_| corrupt("routine name is not utf-8"))?;
            pos += len;
            let before = self.routines.len();
            self.routines.intern(name);
            if self.routines.len() == before {
                return Err(corrupt("duplicate routine name"));
            }
        }
        if pos != payload.len() {
            return Err(corrupt("trailing bytes after the routine table"));
        }
        Ok(())
    }

    /// Loads the next decodable chunk into `self.current`.
    ///
    /// `Ok(true)`: a chunk is loaded. `Ok(false)`: the index and footer
    /// validated; the file is exhausted.
    fn load_next(&mut self) -> Result<bool, WireError> {
        loop {
            match self.read_record()? {
                Record::Chunk(true) => return Ok(true),
                Record::Chunk(false) => {} // skipped: keep scanning
                Record::Index(offset) => {
                    self.finish_at_index(offset)?;
                    return Ok(false);
                }
            }
        }
    }

    /// Reads one record tag, then the chunk it starts, or stops at the
    /// index tag. Input that ends at the tag fails with the
    /// [`RECORD_TAG`] context.
    pub(crate) fn read_record(&mut self) -> Result<Record, WireError> {
        let tag_offset = self.offset;
        let mut tag = [0u8; 1];
        self.read_exact_ctx(&mut tag, RECORD_TAG)?;
        match tag[0] {
            CHUNK_TAG => Ok(Record::Chunk(self.try_load_chunk(tag_offset)?)),
            INDEX_TAG => Ok(Record::Index(tag_offset)),
            found => Err(WireError::BadRecordTag { offset: tag_offset, found }),
        }
    }

    /// Reads one chunk record; returns `Ok(false)` when the chunk was
    /// skipped by lenient recovery.
    fn try_load_chunk(&mut self, tag_offset: u64) -> Result<bool, WireError> {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let events = self.read_u32("chunk event count")?;
        let payload_len = self.read_u32("chunk payload length")?;
        let stored_crc = self.read_u32("chunk crc")?;
        if u64::from(payload_len) > MAX_CHUNK_BYTES {
            return Err(WireError::ChunkTooLarge {
                index: ordinal,
                len: u64::from(payload_len),
                max: MAX_CHUNK_BYTES,
            });
        }
        self.payload.resize(payload_len as usize, 0);
        let mut payload = std::mem::take(&mut self.payload);
        let read = self.read_exact_ctx(&mut payload, "chunk payload");
        self.payload = payload;
        read?;
        self.stats.peak_chunk_bytes = self.stats.peak_chunk_bytes.max(self.payload.len());
        aprof_obs::counters::WIRE_BYTES_READ.add(13 + u64::from(payload_len));
        self.seen.push(ChunkEntry {
            offset: tag_offset,
            payload_len,
            events,
            crc: stored_crc,
        });
        let computed = crc32(&self.payload);
        let failure = if computed != stored_crc {
            Some(format!("payload crc mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"))
        } else {
            match decode_chunk_into(ordinal, &self.payload, events, &mut self.current) {
                Ok(()) => None,
                Err(WireError::ChunkCorrupt { reason, .. }) => Some(reason),
                Err(other) => return Err(other),
            }
        };
        if let Some(reason) = failure {
            self.current.clear();
            if self.strict {
                return Err(WireError::ChunkCorrupt { index: ordinal, reason });
            }
            self.stats.chunks_skipped += 1;
            aprof_obs::counters::WIRE_CHUNKS_SKIPPED.incr();
            self.skipped.push(SkippedChunk {
                index: ordinal,
                offset: tag_offset,
                claimed_events: events,
                reason,
            });
            return Ok(false);
        }
        for &(thread, _) in &self.current {
            self.max_thread = self.max_thread.max(thread.index() as u32 + 1);
        }
        self.pos = 0;
        self.stats.chunks += 1;
        aprof_obs::counters::WIRE_CHUNKS_DECODED.incr();
        aprof_obs::counters::WIRE_EVENTS_DECODED.add(self.current.len() as u64);
        Ok(true)
    }

    fn finish_at_index(&mut self, index_offset: u64) -> Result<(), WireError> {
        let corrupt = |reason: String| WireError::IndexCorrupt { reason };
        let count = self.read_u32("index entry count")?;
        // Checked before the count sizes anything, so a corrupt count
        // cannot make the reader buffer or read what the stream never held.
        if count as usize != self.seen.len() {
            return Err(corrupt(format!(
                "index describes {count} chunks, stream contained {}",
                self.seen.len()
            )));
        }
        // Re-serialize the body as read so the CRC covers exactly the
        // written bytes.
        let mut body = Vec::with_capacity(4 + count as usize * 20 + 12);
        body.extend_from_slice(&count.to_le_bytes());
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let entry = ChunkEntry {
                offset: self.read_u64("index entry offset")?,
                payload_len: self.read_u32("index entry length")?,
                events: self.read_u32("index entry event count")?,
                crc: self.read_u32("index entry crc")?,
            };
            body.extend_from_slice(&entry.offset.to_le_bytes());
            body.extend_from_slice(&entry.payload_len.to_le_bytes());
            body.extend_from_slice(&entry.events.to_le_bytes());
            body.extend_from_slice(&entry.crc.to_le_bytes());
            entries.push(entry);
        }
        let total_events = self.read_u64("index event total")?;
        let thread_count = self.read_u32("index thread count")?;
        body.extend_from_slice(&total_events.to_le_bytes());
        body.extend_from_slice(&thread_count.to_le_bytes());
        let stored_crc = self.read_u32("index crc")?;
        if crc32(&body) != stored_crc {
            return Err(corrupt("index crc mismatch".into()));
        }
        if entries != self.seen {
            return Err(corrupt("index entries disagree with the chunk framing".into()));
        }
        let framed_total: u64 = self.seen.iter().map(|e| u64::from(e.events)).sum();
        if total_events != framed_total {
            return Err(corrupt(format!(
                "index claims {total_events} events, chunk framing sums to {framed_total}"
            )));
        }
        if self.stats.chunks_skipped == 0 && thread_count != self.max_thread {
            return Err(corrupt(format!(
                "index claims {thread_count} threads, stream contained {}",
                self.max_thread
            )));
        }
        let stored_offset = self.read_u64("footer")?;
        let mut magic = [0u8; 8];
        self.read_exact_ctx(&mut magic, "footer")?;
        if &magic != FOOTER_MAGIC {
            return Err(WireError::BadFooter { reason: "bad footer magic".into() });
        }
        if stored_offset != index_offset {
            return Err(WireError::BadFooter {
                reason: format!(
                    "footer points at byte {stored_offset}, index is at byte {index_offset}"
                ),
            });
        }
        let mut probe = [0u8; 1];
        match self.inner.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => return Err(WireError::TrailingGarbage),
            Err(e) => return Err(WireError::Io(e)),
        }
        self.index = Some(WireIndex { entries, total_events, thread_count });
        Ok(())
    }
}

impl<R: Read> Iterator for WireReader<R> {
    type Item = Result<(ThreadId, Event), WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.current.len() {
                let item = self.current[self.pos];
                self.pos += 1;
                self.stats.events += 1;
                return Some(Ok(item));
            }
            if self.done {
                return None;
            }
            match self.load_next() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{WireOptions, WireWriter};
    use aprof_trace::Addr;

    fn sample_bytes(chunk_bytes: usize) -> (Vec<u8>, Vec<(ThreadId, Event)>) {
        let events: Vec<(ThreadId, Event)> = (0..100)
            .map(|i| {
                let t = ThreadId::new(i % 3);
                match i % 4 {
                    0 => (t, Event::Read { addr: Addr::new(u64::from(i) * 17) }),
                    1 => (t, Event::Write { addr: Addr::new(u64::from(i)) }),
                    2 => (t, Event::BasicBlock { cost: u64::from(i) }),
                    _ => (t, Event::ThreadSwitch),
                }
            })
            .collect();
        let mut names = RoutineTable::new();
        names.intern("alpha");
        names.intern("beta");
        let opts = WireOptions { chunk_bytes, ..Default::default() };
        let mut w = WireWriter::create(Vec::new(), &names, opts).unwrap();
        for &(t, e) in &events {
            w.push(t, e).unwrap();
        }
        let (bytes, _) = w.finish().unwrap();
        (bytes, events)
    }

    #[test]
    fn sequential_roundtrip_and_metadata() {
        let (bytes, events) = sample_bytes(32);
        let mut reader = WireReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.version(), VERSION);
        assert_eq!(reader.routines().len(), 2);
        assert_eq!(reader.routines().name(aprof_trace::RoutineId::new(1)), "beta");
        let decoded: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, events);
        let stats = reader.stats();
        assert_eq!(stats.events, events.len() as u64);
        assert_eq!(stats.chunks_skipped, 0);
        assert!(stats.chunks > 1, "multiple chunks expected");
        assert_eq!(stats.bytes_read, bytes.len() as u64);
        let index = reader.index().expect("index is validated at EOF");
        assert_eq!(index.total_events, events.len() as u64);
        assert_eq!(index.thread_count, 3);
    }

    #[test]
    fn corrupt_chunk_is_skipped_and_reported() {
        let (mut bytes, events) = sample_bytes(32);
        let mut pristine = WireReader::new(&bytes[..]).unwrap();
        pristine.by_ref().for_each(drop);
        let index = pristine.index().unwrap().clone();
        // Damage the middle of chunk 1's payload.
        let victim = &index.entries[1];
        let hit = (victim.offset + 13 + u64::from(victim.payload_len) / 2) as usize;
        bytes[hit] ^= 0xff;
        let mut reader = WireReader::new(&bytes[..]).unwrap();
        let decoded: Vec<_> = reader.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(reader.skipped().len(), 1);
        assert_eq!(reader.skipped()[0].index, 1);
        assert!(reader.skipped()[0].reason.contains("crc mismatch"));
        assert_eq!(
            decoded.len() as u64,
            events.len() as u64 - u64::from(victim.events)
        );
        // Strict mode turns the same damage into a hard error.
        let err = WireReader::new(&bytes[..])
            .unwrap()
            .strict()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err, WireError::ChunkCorrupt { index: 1, .. }));
    }

    #[test]
    fn version_skew_is_rejected() {
        let (mut bytes, _) = sample_bytes(64);
        bytes[8] = 0x2; // bump the little-endian version field
        match WireReader::new(&bytes[..]) {
            Err(WireError::UnsupportedVersion { found: 2, supported }) => {
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = WireReader::new(&b"not a wire trace"[..]).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
        let err = WireReader::new(&b"apr"[..]).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (mut bytes, _) = sample_bytes(64);
        bytes.push(0);
        let err = WireReader::new(&bytes[..]).unwrap().collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(matches!(err, WireError::TrailingGarbage));
    }

    #[test]
    fn iterator_is_fused_after_error() {
        let (bytes, _) = sample_bytes(64);
        let mut reader = WireReader::new(&bytes[..bytes.len() - 1]).unwrap();
        let mut saw_err = false;
        for item in reader.by_ref() {
            if item.is_err() {
                saw_err = true;
                break;
            }
        }
        assert!(saw_err);
        assert!(reader.next().is_none(), "fused after error");
    }
}

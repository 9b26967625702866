//! The byte-level layout of the `aprof-wire` format (version 1) and the
//! chunk payload codec shared by [`WireWriter`](crate::WireWriter) and
//! [`WireReader`](crate::WireReader).
//!
//! ```text
//! File   := Header Chunk* Index Footer
//! Header := MAGIC(8)="aprwire1" VERSION(u32 LE) PAYLOAD_LEN(u32 LE)
//!           HeaderPayload PAYLOAD_CRC32(u32 LE)
//! HeaderPayload := routine_count(varint) { name_len(varint) name(bytes) }*
//! Chunk  := 'C' EVENT_COUNT(u32 LE) PAYLOAD_LEN(u32 LE)
//!           PAYLOAD_CRC32(u32 LE) Payload
//! Index  := 'I' CHUNK_COUNT(u32 LE)
//!           { OFFSET(u64 LE) PAYLOAD_LEN(u32 LE) EVENT_COUNT(u32 LE)
//!             PAYLOAD_CRC32(u32 LE) }*
//!           TOTAL_EVENTS(u64 LE) THREAD_COUNT(u32 LE) INDEX_CRC32(u32 LE)
//! Footer := INDEX_OFFSET(u64 LE) MAGIC(8)="aprwidx1"
//! ```
//!
//! Chunk payloads are self-contained: the delta state (previous thread,
//! address, routine) resets at every chunk boundary, so a chunk can be
//! decoded in isolation — the basis of both corrupt-chunk skipping and
//! crash salvage. Each event is one tag byte (low 4 bits: event kind,
//! bit 4: "explicit thread id follows") plus varint operands; addresses and
//! routine ids are zigzag deltas against the previous value in the chunk.

use crate::error::WireError;
use crate::varint;
use aprof_trace::{Addr, Event, RoutineId, ThreadId};

/// Leading file magic (8 bytes).
pub const MAGIC: &[u8; 8] = b"aprwire1";

/// Trailing footer magic (8 bytes).
pub const FOOTER_MAGIC: &[u8; 8] = b"aprwidx1";

/// Format version written by this build.
pub const VERSION: u32 = 1;

/// Record tag starting every chunk.
pub const CHUNK_TAG: u8 = b'C';

/// Record tag starting the trailing index.
pub const INDEX_TAG: u8 = b'I';

/// Hard ceiling on one chunk's payload, protecting readers from corrupt
/// length fields demanding absurd allocations.
pub const MAX_CHUNK_BYTES: u64 = 64 << 20;

/// Hard ceiling on the header payload (routine tables are small).
pub const MAX_HEADER_BYTES: u64 = 16 << 20;

/// Worst-case encoded size of one event: tag + thread varint + operand
/// varint. A chunk is flushed once its payload reaches the configured
/// target, so payloads never exceed `target - 1 + MAX_EVENT_BYTES`.
pub const MAX_EVENT_BYTES: usize = 1 + 5 + varint::MAX_VARINT_BYTES;

/// Bytes of fixed chunk framing preceding each payload (tag + count + len +
/// crc).
pub const CHUNK_FRAMING_BYTES: u64 = 13;

const KIND_CALL: u8 = 0;
const KIND_RETURN: u8 = 1;
const KIND_READ: u8 = 2;
const KIND_WRITE: u8 = 3;
const KIND_KERNEL_READ: u8 = 4;
const KIND_KERNEL_WRITE: u8 = 5;
const KIND_BASIC_BLOCK: u8 = 6;
const KIND_THREAD_SWITCH: u8 = 7;
const KIND_THREAD_START: u8 = 8;
const KIND_THREAD_EXIT: u8 = 9;

const FLAG_THREAD: u8 = 0x10;
const TAG_RESERVED_MASK: u8 = 0xE0;

/// Per-chunk delta-coding state; reset at every chunk boundary so chunks
/// decode independently.
#[derive(Debug, Clone, Default)]
pub struct DeltaState {
    thread: Option<ThreadId>,
    addr: u64,
    routine: u64,
}

impl DeltaState {
    /// Fresh state, as at the start of a chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one event onto `buf`.
    pub fn encode(&mut self, buf: &mut Vec<u8>, thread: ThreadId, event: Event) {
        let (kind, operand) = match event {
            Event::Call { routine } => (KIND_CALL, Some(self.routine_delta(routine))),
            Event::Return { routine } => (KIND_RETURN, Some(self.routine_delta(routine))),
            Event::Read { addr } => (KIND_READ, Some(self.addr_delta(addr))),
            Event::Write { addr } => (KIND_WRITE, Some(self.addr_delta(addr))),
            Event::KernelRead { addr } => (KIND_KERNEL_READ, Some(self.addr_delta(addr))),
            Event::KernelWrite { addr } => (KIND_KERNEL_WRITE, Some(self.addr_delta(addr))),
            Event::BasicBlock { cost } => (KIND_BASIC_BLOCK, Some(cost)),
            Event::ThreadSwitch => (KIND_THREAD_SWITCH, None),
            Event::ThreadStart => (KIND_THREAD_START, None),
            Event::ThreadExit => (KIND_THREAD_EXIT, None),
        };
        let explicit_thread = self.thread != Some(thread);
        let tag = kind | if explicit_thread { FLAG_THREAD } else { 0 };
        buf.push(tag);
        if explicit_thread {
            varint::write_u64(buf, thread.index() as u64);
            self.thread = Some(thread);
        }
        if let Some(operand) = operand {
            varint::write_u64(buf, operand);
        }
    }

    /// Decodes one event from `buf` at `*pos`, advancing `*pos`.
    ///
    /// Errors are reported as plain strings; the caller folds them into a
    /// chunk-level [`WireError::ChunkCorrupt`].
    pub fn decode(
        &mut self,
        buf: &[u8],
        pos: &mut usize,
    ) -> Result<(ThreadId, Event), String> {
        let tag = *buf.get(*pos).ok_or("event tag past payload end")?;
        *pos += 1;
        if tag & TAG_RESERVED_MASK != 0 {
            return Err(format!("reserved bits set in event tag 0x{tag:02x}"));
        }
        if tag & FLAG_THREAD != 0 {
            let raw = varint::read_u64_fast(buf, pos).ok_or("bad thread id varint")?;
            let raw = u32::try_from(raw).map_err(|_| "thread id exceeds u32".to_owned())?;
            self.thread = Some(ThreadId::new(raw));
        }
        let thread = self
            .thread
            .ok_or("chunk's first event carries no thread id")?;
        let mut operand = || varint::read_u64_fast(buf, pos).ok_or("bad operand varint");
        let event = match tag & 0x0f {
            KIND_CALL => Event::Call { routine: self.routine_undelta(operand()?)? },
            KIND_RETURN => Event::Return { routine: self.routine_undelta(operand()?)? },
            KIND_READ => Event::Read { addr: self.addr_undelta(operand()?) },
            KIND_WRITE => Event::Write { addr: self.addr_undelta(operand()?) },
            KIND_KERNEL_READ => Event::KernelRead { addr: self.addr_undelta(operand()?) },
            KIND_KERNEL_WRITE => Event::KernelWrite { addr: self.addr_undelta(operand()?) },
            KIND_BASIC_BLOCK => Event::BasicBlock { cost: operand()? },
            KIND_THREAD_SWITCH => Event::ThreadSwitch,
            KIND_THREAD_START => Event::ThreadStart,
            KIND_THREAD_EXIT => Event::ThreadExit,
            other => return Err(format!("unknown event kind {other}")),
        };
        Ok((thread, event))
    }

    fn addr_delta(&mut self, addr: Addr) -> u64 {
        let delta = varint::zigzag(addr.raw().wrapping_sub(self.addr) as i64);
        self.addr = addr.raw();
        delta
    }

    fn addr_undelta(&mut self, raw: u64) -> Addr {
        self.addr = self.addr.wrapping_add(varint::unzigzag(raw) as u64);
        Addr::new(self.addr)
    }

    fn routine_delta(&mut self, routine: RoutineId) -> u64 {
        let delta = varint::zigzag((routine.index() as u64).wrapping_sub(self.routine) as i64);
        self.routine = routine.index() as u64;
        delta
    }

    fn routine_undelta(&mut self, raw: u64) -> Result<RoutineId, String> {
        self.routine = self.routine.wrapping_add(varint::unzigzag(raw) as u64);
        let id = u32::try_from(self.routine).map_err(|_| "routine id exceeds u32".to_owned())?;
        Ok(RoutineId::new(id))
    }
}

/// Decodes a full chunk payload into `out` (cleared first), verifying the
/// event count declared by the framing.
///
/// [`WireReader`](crate::WireReader) runs it on every chunk it reads.
///
/// # Errors
///
/// Returns [`WireError::ChunkCorrupt`] when the payload is structurally
/// invalid or decodes to a different number of events than `claimed`.
pub fn decode_chunk_into(
    index: u32,
    payload: &[u8],
    claimed: u32,
    out: &mut Vec<(ThreadId, Event)>,
) -> Result<(), WireError> {
    out.clear();
    // Pre-size for the claimed count, capped by the payload length (every
    // event costs at least its tag byte) so a corrupt count field cannot
    // demand an absurd allocation.
    out.reserve((claimed as usize).min(payload.len()));
    let corrupt = |reason: String| WireError::ChunkCorrupt { index, reason };
    let mut state = DeltaState::new();
    let mut pos = 0;
    while pos < payload.len() {
        let (thread, event) = state.decode(payload, &mut pos).map_err(corrupt)?;
        out.push((thread, event));
        if out.len() > claimed as usize {
            return Err(corrupt(format!("payload holds more than the {claimed} claimed events")));
        }
    }
    if out.len() != claimed as usize {
        return Err(corrupt(format!(
            "payload decoded to {} events, framing claims {claimed}",
            out.len()
        )));
    }
    Ok(())
}

/// One entry of the trailing chunk index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk's framing tag from the start of the file.
    pub offset: u64,
    /// Payload length in bytes (framing excluded).
    pub payload_len: u32,
    /// Events encoded in the payload.
    pub events: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// The decoded trailing index: per-chunk directory plus file totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireIndex {
    /// Chunk directory in file order.
    pub entries: Vec<ChunkEntry>,
    /// Total events across all chunks.
    pub total_events: u64,
    /// Observed thread count (highest thread index + 1; 0 for empty traces).
    pub thread_count: u32,
}

impl WireIndex {
    /// Serializes the index record (tag, body, CRC) onto `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(INDEX_TAG);
        let body_start = buf.len();
        buf.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            buf.extend_from_slice(&e.offset.to_le_bytes());
            buf.extend_from_slice(&e.payload_len.to_le_bytes());
            buf.extend_from_slice(&e.events.to_le_bytes());
            buf.extend_from_slice(&e.crc.to_le_bytes());
        }
        buf.extend_from_slice(&self.total_events.to_le_bytes());
        buf.extend_from_slice(&self.thread_count.to_le_bytes());
        let crc = crate::crc32::crc32(&buf[body_start..]);
        buf.extend_from_slice(&crc.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<(ThreadId, Event)> {
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(7));
        vec![
            (t0, Event::ThreadStart),
            (t0, Event::Call { routine: RoutineId::new(3) }),
            (t0, Event::BasicBlock { cost: 12 }),
            (t0, Event::Read { addr: Addr::new(0x1000) }),
            (t0, Event::Write { addr: Addr::new(0xfff) }),
            (t1, Event::ThreadSwitch),
            (t1, Event::KernelRead { addr: Addr::new(5) }),
            (t1, Event::KernelWrite { addr: Addr::new(u64::MAX) }),
            (t0, Event::ThreadSwitch),
            (t0, Event::Return { routine: RoutineId::new(3) }),
            (t0, Event::ThreadExit),
        ]
    }

    #[test]
    fn payload_roundtrip_covers_every_kind() {
        let events = all_events();
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        for &(t, e) in &events {
            enc.encode(&mut buf, t, e);
        }
        let mut out = Vec::new();
        decode_chunk_into(0, &buf, events.len() as u32, &mut out).unwrap();
        assert_eq!(out, events);
    }

    #[test]
    fn same_thread_runs_omit_thread_ids() {
        let t = ThreadId::new(2);
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        enc.encode(&mut buf, t, Event::ThreadSwitch);
        let first = buf.len();
        enc.encode(&mut buf, t, Event::ThreadSwitch);
        // First event: tag + thread varint; second: tag only.
        assert_eq!(first, 2);
        assert_eq!(buf.len() - first, 1);
    }

    #[test]
    fn delta_coding_keeps_nearby_addresses_small() {
        let t = ThreadId::MAIN;
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        enc.encode(&mut buf, t, Event::Read { addr: Addr::new(1 << 40) });
        let first = buf.len();
        enc.encode(&mut buf, t, Event::Read { addr: Addr::new((1 << 40) + 1) });
        // Neighbouring cell: tag + 1-byte delta.
        assert_eq!(buf.len() - first, 2);
    }

    #[test]
    fn count_mismatch_is_detected() {
        let mut buf = Vec::new();
        DeltaState::new().encode(&mut buf, ThreadId::MAIN, Event::ThreadStart);
        let mut out = Vec::new();
        assert!(matches!(
            decode_chunk_into(4, &buf, 2, &mut out),
            Err(WireError::ChunkCorrupt { index: 4, .. })
        ));
        assert!(matches!(
            decode_chunk_into(4, &buf, 0, &mut out),
            Err(WireError::ChunkCorrupt { index: 4, .. })
        ));
    }

    #[test]
    fn reserved_tag_bits_are_rejected() {
        let buf = [0xE0u8];
        let mut out = Vec::new();
        assert!(decode_chunk_into(0, &buf, 1, &mut out).is_err());
    }

    #[test]
    fn missing_leading_thread_is_rejected() {
        // A valid same-thread tag with no preceding explicit thread.
        let buf = [KIND_THREAD_SWITCH];
        let mut out = Vec::new();
        assert!(decode_chunk_into(0, &buf, 1, &mut out).is_err());
    }
}

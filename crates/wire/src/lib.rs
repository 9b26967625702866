//! `aprof-wire`: chunked binary trace format with streaming capture and
//! O(1)-memory replay.
//!
//! Text traces ([`aprof_trace::textio`]) are convenient but balloon to many
//! bytes per event and must be parsed whole. This crate defines a compact,
//! versioned on-disk format — magic, self-describing header, CRC-guarded
//! chunks of varint/delta-encoded events, and a trailing chunk index — so
//! that traces can be
//!
//! * **captured** as they happen ([`WireWriter`] appends events and seals
//!   fixed-size chunks; a crash loses at most the open chunk),
//! * **replayed** in bounded memory ([`WireReader`] iterates
//!   `(thread, event)` pairs holding one chunk at a time, so a
//!   multi-gigabyte trace replays without materializing a
//!   [`Trace`](aprof_trace::Trace)), and
//! * **salvaged** after a crash ([`recover`] keeps the longest run of
//!   intact chunks, which decode independently since delta state resets
//!   at chunk boundaries).
//!
//! [`WireReader`] is the only code that reads a wire file: [`recover`]
//! drives a strict reader record by record.
//!
//! Corruption is a first-class citizen: every structure is covered by a
//! CRC-32 or a cross-check, malformed input always yields a typed
//! [`WireError`] (never a panic, never a silently wrong profile), and a
//! damaged chunk *payload* is recovered by skip-and-report
//! ([`WireReader::skipped`]) rather than aborting the replay.
//!
//! The byte-level layout is documented in [`mod@format`].
//!
//! # Example
//!
//! ```
//! use aprof_trace::{Addr, Event, RoutineTable, ThreadId};
//! use aprof_wire::{WireOptions, WireReader, WireWriter};
//!
//! let mut routines = RoutineTable::new();
//! let main = routines.intern("main");
//!
//! let mut writer =
//!     WireWriter::create(Vec::new(), &routines, WireOptions::default()).unwrap();
//! let t0 = ThreadId::new(0);
//! writer.push(t0, Event::Call { routine: main }).unwrap();
//! writer.push(t0, Event::Read { addr: Addr::new(0x10) }).unwrap();
//! writer.push(t0, Event::Return { routine: main }).unwrap();
//! let (bytes, summary) = writer.finish().unwrap();
//! assert_eq!(summary.events, 3);
//!
//! let mut reader = WireReader::new(&bytes[..]).unwrap();
//! assert_eq!(reader.routines().name(main), "main");
//! let replayed: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
//! assert_eq!(replayed.len(), 3);
//! assert_eq!(replayed[1], (t0, Event::Read { addr: Addr::new(0x10) }));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crc32;
mod error;
pub mod format;
mod reader;
mod recover;
pub mod varint;
mod writer;

pub use error::{SkippedChunk, WireError};
pub use format::{ChunkEntry, WireIndex, MAX_CHUNK_BYTES, VERSION};
pub use reader::{ReaderStats, WireReader};
pub use recover::{recover, RecoverSummary, StopReason};
pub use writer::{
    DurableFile, FlushPolicy, WireOptions, WireSummary, WireWriter, DEFAULT_CHUNK_BYTES,
};

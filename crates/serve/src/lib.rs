//! `aprof-serve`: a multi-tenant streaming profiling service daemon.
//!
//! Everything the reproduction can do one-shot from the CLI — chunked
//! CRC-checked wire traces, streaming [`consume_stream`] replay, crash-safe
//! durable capture, fault plans, obs counters, HTML reports — is packaged
//! here as a long-running service:
//!
//! * **Streaming ingest.** Clients submit wire traces over unix or TCP
//!   sockets. The daemon tees the bytes to a durable spool file while
//!   decoding them incrementally ([`aprof_wire::WireReader`] works directly
//!   over a socket) and folding events into a per-stream [`TrmsProfiler`]
//!   as chunks arrive — the full trace is never materialized in memory.
//! * **Tenancy.** Streams are grouped by tenant. Each tenant's quota is an
//!   [`aprof_vm::ResourceLimits`]: `max_instructions` bounds the events the
//!   tenant may aggregate, `max_alloc_cells` bounds its spool footprint (in
//!   8-byte cells), and `trap` selects graceful refusal (`ERR` reply) vs.
//!   hard disconnect.
//! * **Backpressure.** A tenant may have at most `max_in_flight` streams
//!   decoding concurrently; further submissions block (bounded by
//!   `queue_timeout`) before being turned away busy.
//! * **Zero-data-loss commit.** A stream is acknowledged only after its
//!   trailing index validated, its spool file reached stable storage, and
//!   its profile joined the tenant aggregate — in that order. On restart
//!   the daemon replays the spool, so acknowledged data survives a kill at
//!   any instant, and re-submitting a committed stream id is an idempotent
//!   duplicate.
//! * **Determinism.** Each tenant keeps one running aggregate: every
//!   commit folds its stream in with [`ProfileReport::absorb`], and no
//!   per-stream report outlives its commit. Merging is exact and ignores
//!   order, so the aggregate is byte-identical (via
//!   [`ProfileReport::to_canonical_text`]) to the merged
//!   [`one_shot_profile`]s of the same traces, and to a one-shot
//!   `aprof-cli replay` of them, in any order, whatever order the streams
//!   committed or were recovered in.
//! * **Live endpoints.** The same sockets answer `obs.json`, tenant
//!   listings, canonical profiles and HTML reports — over the line
//!   protocol or plain HTTP `GET`.
//!
//! See `DESIGN.md` §12 for the architecture discussion and the wire
//! protocol grammar.
//!
//! [`consume_stream`]: aprof_core::TrmsProfiler::consume_stream

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::io::{self, Read};
use std::path::PathBuf;
use std::time::Duration;

use aprof_core::{ProfileReport, TrmsProfiler};
use aprof_faults::{FaultConfig, FaultPlan};
use aprof_vm::ResourceLimits;
use aprof_wire::{WireError, WireReader};

pub mod client;
mod protocol;
mod server;
mod spool;
mod supervisor;
mod tenant;

pub use client::{Ack, RetryPolicy, Target};
pub use server::{Server, ServerHandle};
pub use supervisor::BreakerConfig;
pub use tenant::TenantSummary;

/// Profiles one complete wire trace the way the daemon profiles a stream:
/// a strict reader, a fresh [`TrmsProfiler`] fed through
/// [`consume_stream`](TrmsProfiler::consume_stream), and a validated
/// trailing index. Returns the profile and its event count.
///
/// Startup recovery re-reads the spool with it, and it is the one-shot
/// oracle that a tenant's aggregate is checked against: the aggregate of
/// a set of streams is byte-identical to the
/// [`merge`](ProfileReport::merge) of their one-shot profiles.
///
/// # Errors
///
/// [`ServeError::Wire`] if the trace fails strict validation or ends
/// without a validated index; [`ServeError::Io`] if reading fails.
pub fn one_shot_profile(trace: impl Read) -> Result<(ProfileReport, u64), ServeError> {
    let mut reader = WireReader::new(trace)?.strict();
    let mut profiler = TrmsProfiler::new();
    let events = profiler.consume_stream(&mut reader)?;
    if reader.index().is_none() {
        return Err(ServeError::Wire(WireError::UnexpectedEof {
            context: "stream ended without a validated index",
        }));
    }
    Ok((profiler.into_report(reader.routines()), events))
}

/// How a submission may address a tenant or stream: 1–64 bytes, first byte
/// ASCII alphanumeric, rest alphanumeric or `.`/`_`/`-`. (The leading
/// alphanumeric keeps spool paths inside the spool directory.)
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes.iter().all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Path of the unix listening socket, if any.
    pub unix: Option<PathBuf>,
    /// TCP listen address (e.g. `127.0.0.1:0`), if any.
    pub tcp: Option<String>,
    /// Spool directory: one subdirectory per tenant, one `<stream>.wire`
    /// file per committed stream. Created if missing; replayed on startup.
    pub spool: PathBuf,
    /// Per-tenant cap on concurrently decoding streams; submissions beyond
    /// it wait (backpressure) up to [`ServeConfig::queue_timeout`].
    pub max_in_flight: usize,
    /// How long a submission may wait for an in-flight slot before being
    /// refused busy.
    pub queue_timeout: Duration,
    /// Per-tenant quota, expressed as VM resource limits:
    /// `max_instructions` = aggregated-event budget, `max_alloc_cells` =
    /// spool footprint in 8-byte cells, `trap` = refuse gracefully (`true`)
    /// or drop the connection (`false`).
    pub quota: ResourceLimits,
    /// Fault plan injected into the service paths (spool writes and commit
    /// stages, worker delays/panics, accept-loop panics). `None` in
    /// production.
    pub faults: Option<FaultConfig>,
    /// Overall wall-clock budget for one submission stream, half-close to
    /// ack. A peer dribbling bytes slower than this (slow-loris) is
    /// evicted with `ERR` and counted in `serve.shed.slow_evictions`.
    pub stream_deadline: Duration,
    /// Per-write socket timeout on server connections, so a peer that
    /// stops draining its response cannot pin a worker.
    pub write_timeout: Duration,
    /// Deterministic load-shedding thresholds.
    pub shed: ShedConfig,
    /// Per-tenant circuit-breaker policy.
    pub breaker: BreakerConfig,
}

/// Deterministic load-shedding thresholds: when any of these is crossed at
/// submission time the daemon refuses the stream with
/// `ERR busy retry-after <ms>` instead of degrading everyone. The checks
/// are pure functions of registry state, never of wall-clock sampling, so
/// a given load pattern sheds reproducibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedConfig {
    /// Daemon-wide ceiling on concurrently active connections; submissions
    /// arriving above it are shed. (Queries still answer — shedding only
    /// refuses new ingest work.)
    pub max_active_conns: usize,
    /// Total spool capacity across all tenants, in 8-byte cells;
    /// submissions are shed once committed spool usage reaches it
    /// (`u64::MAX` = unlimited).
    pub spool_capacity_cells: u64,
    /// Shed a tenant's submissions once its committed events reach this
    /// percentage of its event budget (100 = disabled; admission control
    /// already refuses at 100%).
    pub tenant_pressure_pct: u8,
    /// The `retry-after` hint attached to shed/busy refusals.
    pub retry_after: Duration,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            max_active_conns: 256,
            spool_capacity_cells: u64::MAX,
            tenant_pressure_pct: 100,
            retry_after: Duration::from_millis(250),
        }
    }
}

impl ServeConfig {
    /// A daemon serving `spool` with both listeners unset and default
    /// limits; set at least one of [`ServeConfig::unix`] /
    /// [`ServeConfig::tcp`] before starting.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        ServeConfig {
            unix: None,
            tcp: None,
            spool: spool.into(),
            max_in_flight: 8,
            queue_timeout: Duration::from_secs(10),
            quota: ResourceLimits { trap: true, ..ResourceLimits::default() },
            faults: None,
            stream_deadline: Duration::from_secs(120),
            write_timeout: Duration::from_secs(30),
            shed: ShedConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }

    pub(crate) fn fault_plan(&self) -> FaultPlan {
        match self.faults {
            Some(cfg) => FaultPlan::new(cfg),
            None => FaultPlan::disabled(),
        }
    }
}

/// Everything that can go wrong inside the daemon or its client.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or spool I/O failure.
    Io(io::Error),
    /// The submitted trace failed wire validation (CRC, framing, missing
    /// or corrupt index).
    Wire(WireError),
    /// The peer spoke something other than the `APROF/1` line protocol
    /// (or an over-long / malformed request line).
    Protocol(String),
    /// A per-tenant quota refused the submission.
    Quota(String),
    /// The submission was shed or timed out of the admission queue; the
    /// daemon suggests retrying after the hinted delay. This is the only
    /// *retryable* refusal — idempotent re-submission is safe.
    Busy {
        /// Suggested client-side wait before retrying.
        retry_after: Duration,
    },
    /// The tenant's circuit breaker is open (repeated recent failures);
    /// submissions are refused until a half-open probe succeeds.
    Quarantined,
    /// The stream blew its overall ingest deadline (slow-loris eviction).
    Deadline,
    /// The daemon is draining and no longer accepts submissions.
    Draining,
    /// The server replied `ERR` to a client call.
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Wire(e) => write!(f, "wire error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::Quota(msg) => write!(f, "quota exceeded: {msg}"),
            // The wire shape `busy retry-after <ms>` is parsed back by the
            // client (`ERR ` + this Display) — keep them in sync.
            ServeError::Busy { retry_after } => {
                write!(f, "busy retry-after {}", retry_after.as_millis())
            }
            ServeError::Quarantined => {
                write!(f, "quarantined: tenant disabled after repeated failures")
            }
            ServeError::Deadline => write!(f, "stream deadline exceeded: slow client evicted"),
            ServeError::Draining => write!(f, "daemon is draining"),
            ServeError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(valid_name("tenant-1"));
        assert!(valid_name("a"));
        assert!(valid_name("web.frontend_2"));
        assert!(!valid_name(""));
        assert!(!valid_name(".."));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("-dash"));
        assert!(!valid_name("has/slash"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }
}

//! Client side of the `APROF/1` protocol: submit traces, fetch profiles,
//! reports, obs snapshots and tenant listings, ping, shut down.

use crate::protocol::{read_line, Conn};
use crate::ServeError;
use aprof_faults::jittered_backoff;
use std::io::ErrorKind::{BrokenPipe, ConnectionReset};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::str::FromStr;
use std::thread;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A unix socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7071`.
    Tcp(String),
}

impl FromStr for Target {
    type Err = ServeError;

    /// Parses `unix:<path>` or `tcp:<host>:<port>` (a bare `host:port`
    /// also counts as TCP).
    fn from_str(s: &str) -> Result<Self, ServeError> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Target::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(Target::Tcp(addr.to_owned()))
        } else if s.contains(':') {
            Ok(Target::Tcp(s.to_owned()))
        } else {
            Err(ServeError::Protocol(format!(
                "cannot parse target {s:?}: expected unix:<path> or tcp:<host>:<port>"
            )))
        }
    }
}

impl Target {
    fn connect(&self) -> Result<Conn, ServeError> {
        let conn = match self {
            Target::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
            Target::Tcp(addr) => Conn::Tcp(TcpStream::connect(addr.as_str())?),
        };
        conn.set_read_timeout(Duration::from_secs(60))?;
        conn.set_write_timeout(Duration::from_secs(30))?;
        Ok(conn)
    }
}

/// The daemon's acknowledgement of a committed submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Events aggregated from the stream (0 for duplicates).
    pub events: u64,
    /// Chunks decoded (0 for duplicates).
    pub chunks: u64,
    /// The stream id was already committed; nothing was re-aggregated.
    pub duplicate: bool,
}

fn parse_reply_line(line: &str) -> Result<Vec<&str>, ServeError> {
    if let Some(rest) = line.strip_prefix("OK") {
        Ok(rest.split_whitespace().collect())
    } else if let Some(reason) = line.strip_prefix("ERR ") {
        Err(parse_err_reason(reason))
    } else {
        Err(ServeError::Protocol(format!("unparseable reply {line:?}")))
    }
}

/// Recovers typed refusals from the daemon's `ERR <reason>` wire shapes so
/// callers can tell retryable pressure (`busy retry-after <ms>`) from fatal
/// refusals (everything else). Unrecognized reasons stay
/// [`ServeError::Remote`].
fn parse_err_reason(reason: &str) -> ServeError {
    if let Some(rest) = reason.strip_prefix("busy retry-after ") {
        if let Ok(ms) = rest.trim().parse::<u64>() {
            return ServeError::Busy { retry_after: Duration::from_millis(ms) };
        }
    }
    if reason.starts_with("quarantined") {
        return ServeError::Quarantined;
    }
    ServeError::Remote(reason.to_owned())
}

fn field(words: &[&str], key: &str) -> Option<u64> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Submits one wire trace under `tenant`/`stream`, streaming `trace` to
/// the daemon, and returns the daemon's ack.
///
/// # Errors
///
/// I/O failures, daemon refusals (`ERR` replies surface as
/// [`ServeError::Remote`]) and malformed replies.
pub fn submit(
    target: &Target,
    tenant: &str,
    stream: &str,
    trace: &mut dyn Read,
) -> Result<Ack, ServeError> {
    let mut conn = target.connect()?;
    writeln!(conn, "APROF/1 SUBMIT tenant={tenant} stream={stream}")?;
    let sent =
        io::copy(trace, &mut conn).and_then(|_| conn.flush()).and_then(|()| conn.shutdown_write());
    let line = match sent {
        Ok(()) => read_line(&mut conn)?,
        // A daemon that refuses a stream early (shed, quarantine, quota, a
        // worker panic) replies and hangs up without reading the rest, so
        // the write fails: its reply, if it sent one, says why.
        Err(e) if matches!(e.kind(), BrokenPipe | ConnectionReset) => {
            read_line(&mut conn).map_err(|_| e)?
        }
        Err(e) => return Err(e.into()),
    };
    let words = parse_reply_line(&line)?;
    Ok(Ack {
        events: field(&words, "events").unwrap_or(0),
        chunks: field(&words, "chunks").unwrap_or(0),
        duplicate: field(&words, "duplicate").unwrap_or(0) == 1,
    })
}

/// Client-side retry policy for [`submit_retrying`]: bounded, seeded
/// exponential backoff with jitter. The daemon's `retry-after` hint is a
/// floor on each wait, the jittered schedule decorrelates competing
/// clients, and the seed makes any given client's schedule replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts (including the first); at least 1.
    pub attempts: u32,
    /// Base backoff window before the first retry.
    pub base: Duration,
    /// Ceiling on any single backoff wait.
    pub cap: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x9E37_79B9,
        }
    }
}

/// Submits with retries: `ERR busy retry-after <ms>` refusals and transport
/// I/O errors are retried (re-submission is idempotent — a stream that
/// actually committed resolves as a duplicate ack); every other refusal is
/// fatal immediately. `open` re-opens the trace bytes for each attempt.
///
/// # Errors
///
/// The last [`ServeError::Busy`]/[`ServeError::Io`] once attempts are
/// exhausted, or the first fatal error.
pub fn submit_retrying<R, F>(
    target: &Target,
    tenant: &str,
    stream: &str,
    policy: &RetryPolicy,
    mut open: F,
) -> Result<Ack, ServeError>
where
    R: Read,
    F: FnMut() -> Result<R, ServeError>,
{
    let attempts = policy.attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        let mut trace = open()?;
        match submit(target, tenant, stream, &mut trace) {
            Ok(ack) => return Ok(ack),
            Err(e @ (ServeError::Busy { .. } | ServeError::Io(_))) => {
                let jitter = jittered_backoff(policy.base, policy.cap, policy.seed, attempt);
                let wait = match &e {
                    ServeError::Busy { retry_after } => jitter.max(*retry_after),
                    _ => jitter,
                };
                last = Some(e);
                if attempt + 1 < attempts {
                    thread::sleep(wait);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| ServeError::Protocol("no submission attempts made".into())))
}

fn fetch_body(target: &Target, request: &str) -> Result<String, ServeError> {
    let mut conn = target.connect()?;
    writeln!(conn, "{request}")?;
    conn.flush()?;
    let line = read_line(&mut conn)?;
    let words = parse_reply_line(&line)?;
    let len = words
        .first()
        .and_then(|w| w.parse::<usize>().ok())
        .ok_or_else(|| ServeError::Protocol(format!("expected OK <len>, got OK {words:?}")))?;
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body)?;
    String::from_utf8(body).map_err(|_| ServeError::Protocol("body is not UTF-8".into()))
}

/// Fetches a tenant's aggregate as canonical profile text.
///
/// # Errors
///
/// [`ServeError::Remote`] for unknown tenants, plus transport failures.
pub fn fetch_profile(target: &Target, tenant: &str) -> Result<String, ServeError> {
    fetch_body(target, &format!("APROF/1 PROFILE tenant={tenant}"))
}

/// Fetches a tenant's aggregate as a standalone HTML report.
///
/// # Errors
///
/// As [`fetch_profile`].
pub fn fetch_report(target: &Target, tenant: &str) -> Result<String, ServeError> {
    fetch_body(target, &format!("APROF/1 REPORT tenant={tenant}"))
}

/// Fetches the daemon's live `obs.json` snapshot.
///
/// # Errors
///
/// Transport failures and malformed replies.
pub fn fetch_obs(target: &Target) -> Result<String, ServeError> {
    fetch_body(target, "APROF/1 OBS")
}

/// Fetches the tenant listing (one `name streams=… events=…` line each).
///
/// # Errors
///
/// Transport failures and malformed replies.
pub fn fetch_tenants(target: &Target) -> Result<String, ServeError> {
    fetch_body(target, "APROF/1 TENANTS")
}

/// Pings the daemon.
///
/// # Errors
///
/// Transport failures; an unexpected reply surfaces as
/// [`ServeError::Protocol`].
pub fn ping(target: &Target) -> Result<(), ServeError> {
    let mut conn = target.connect()?;
    writeln!(conn, "APROF/1 PING")?;
    conn.flush()?;
    let line = read_line(&mut conn)?;
    match line.as_str() {
        "OK pong" => Ok(()),
        other => Err(ServeError::Protocol(format!("unexpected ping reply {other:?}"))),
    }
}

/// Asks the daemon to shut down: gracefully draining in-flight streams
/// (`now = false`) or immediately (`now = true`).
///
/// # Errors
///
/// Transport failures and `ERR` replies.
pub fn shutdown(target: &Target, now: bool) -> Result<(), ServeError> {
    let mut conn = target.connect()?;
    let mode = if now { "now" } else { "drain" };
    writeln!(conn, "APROF/1 SHUTDOWN mode={mode}")?;
    conn.flush()?;
    let line = read_line(&mut conn)?;
    parse_reply_line(&line)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing() {
        assert_eq!("unix:/tmp/s.sock".parse::<Target>().unwrap(), Target::Unix("/tmp/s.sock".into()));
        assert_eq!("tcp:127.0.0.1:7071".parse::<Target>().unwrap(), Target::Tcp("127.0.0.1:7071".into()));
        assert_eq!("127.0.0.1:7071".parse::<Target>().unwrap(), Target::Tcp("127.0.0.1:7071".into()));
        assert!("nonsense".parse::<Target>().is_err());
    }

    #[test]
    fn reply_parsing() {
        let words = parse_reply_line("OK events=12 chunks=3").unwrap();
        assert_eq!(field(&words, "events"), Some(12));
        assert_eq!(field(&words, "chunks"), Some(3));
        assert_eq!(field(&words, "duplicate"), None);
        assert!(matches!(parse_reply_line("ERR nope"), Err(ServeError::Remote(_))));
        assert!(parse_reply_line("garbage").is_err());
    }

    #[test]
    fn typed_err_reasons() {
        assert!(matches!(
            parse_err_reason("busy retry-after 250"),
            ServeError::Busy { retry_after } if retry_after == Duration::from_millis(250)
        ));
        assert!(matches!(
            parse_err_reason("quarantined: tenant disabled after repeated failures"),
            ServeError::Quarantined
        ));
        assert!(matches!(parse_err_reason("busy retry-after soon"), ServeError::Remote(_)));
        assert!(matches!(parse_err_reason("wire error: bad crc"), ServeError::Remote(_)));
    }
}

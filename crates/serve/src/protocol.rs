//! The `APROF/1` line protocol and its HTTP `GET` sibling.
//!
//! Every connection starts with one LF-terminated request line:
//!
//! ```text
//! APROF/1 SUBMIT tenant=web stream=trace-001   ← then raw wire bytes + half-close
//! APROF/1 PING
//! APROF/1 TENANTS
//! APROF/1 PROFILE tenant=web                   ← canonical profile text
//! APROF/1 REPORT tenant=web                    ← HTML report
//! APROF/1 OBS                                  ← obs.json snapshot
//! APROF/1 SHUTDOWN mode=drain|now
//! ```
//!
//! Replies are `OK ...\n` / `ERR <reason>\n`; body-bearing replies are
//! `OK <len>\n` followed by exactly `len` bytes. A browser pointed at the
//! TCP listener works too: `GET /obs.json`, `/healthz`, `/tenants`,
//! `/profile/<tenant>` and `/report/<tenant>` answer minimal HTTP/1.0.

use crate::ServeError;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Longest accepted request line (bytes, LF included).
pub(crate) const MAX_LINE: usize = 4096;

/// A connection from either listener, unified behind `Read + Write`.
pub(crate) enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// Half-closes the write side, signalling end-of-request to the peer.
    pub(crate) fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
        }
    }

    /// Bounds every blocking read so a dead peer cannot pin a worker (and
    /// cannot stall a graceful drain) forever.
    pub(crate) fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
        }
    }

    /// Bounds every blocking write so a peer that stops draining its
    /// response (while keeping the connection alive) cannot pin a worker.
    pub(crate) fn set_write_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_write_timeout(Some(timeout)),
            Conn::Tcp(s) => s.set_write_timeout(Some(timeout)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Request {
    Submit { tenant: String, stream: String },
    Shutdown { now: bool },
    /// A read-only query, answered in the framing it was asked in.
    Query(Query, Framing),
}

/// A read-only request. `GET /healthz`, `/tenants`, `/profile/<tenant>`,
/// `/report/<tenant>` and `/obs.json` ask what `PING`, `TENANTS`,
/// `PROFILE`, `REPORT` and `OBS` ask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Query {
    Ping,
    Tenants,
    Profile { tenant: String },
    Report { tenant: String },
    Obs,
    /// A `GET` path that names no query, or no valid tenant name.
    NotFound,
}

/// How a query is answered: on the line protocol (`OK <len>` and the
/// body, or `ERR`) or as HTTP/1.0 (`200 OK` and the body, or `404`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    Line,
    Http,
}

/// Reads one LF-terminated line byte-at-a-time so no bytes beyond the line
/// are consumed (the wire body follows directly on `SUBMIT` connections).
/// The trailing LF (and optional CR) are stripped.
pub(crate) fn read_line<R: Read>(r: &mut R) -> Result<String, ServeError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = r.read(&mut byte)?;
        if n == 0 {
            return Err(ServeError::Protocol("connection closed mid-request-line".into()));
        }
        if byte[0] == b'\n' {
            break;
        }
        if line.len() >= MAX_LINE {
            return Err(ServeError::Protocol("request line too long".into()));
        }
        line.push(byte[0]);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ServeError::Protocol("request line is not UTF-8".into()))
}

fn kv<'a>(words: &'a [&'a str], key: &str) -> Option<&'a str> {
    words.iter().find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
}

fn require_name(words: &[&str], key: &str) -> Result<String, ServeError> {
    let value =
        kv(words, key).ok_or_else(|| ServeError::Protocol(format!("missing {key}=<name>")))?;
    if !crate::valid_name(value) {
        return Err(ServeError::Protocol(format!("invalid {key} name {value:?}")));
    }
    Ok(value.to_owned())
}

/// Parses one request line (already LF-stripped).
pub(crate) fn parse_request(line: &str) -> Result<Request, ServeError> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let query = |query| Ok(Request::Query(query, Framing::Line));
    match words.as_slice() {
        ["GET", path, ..] => Ok(Request::Query(http_query(path), Framing::Http)),
        ["APROF/1", verb, rest @ ..] => match *verb {
            "SUBMIT" => Ok(Request::Submit {
                tenant: require_name(rest, "tenant")?,
                stream: require_name(rest, "stream")?,
            }),
            "PING" => query(Query::Ping),
            "TENANTS" => query(Query::Tenants),
            "PROFILE" => query(Query::Profile { tenant: require_name(rest, "tenant")? }),
            "REPORT" => query(Query::Report { tenant: require_name(rest, "tenant")? }),
            "OBS" => query(Query::Obs),
            "SHUTDOWN" => match kv(rest, "mode").unwrap_or("drain") {
                "drain" => Ok(Request::Shutdown { now: false }),
                "now" => Ok(Request::Shutdown { now: true }),
                other => Err(ServeError::Protocol(format!("unknown shutdown mode {other:?}"))),
            },
            other => Err(ServeError::Protocol(format!("unknown verb {other:?}"))),
        },
        [] => Err(ServeError::Protocol("empty request line".into())),
        _ => Err(ServeError::Protocol("expected APROF/1 <VERB> or GET <path>".into())),
    }
}

/// The query a `GET` path asks. Tenant names are checked as `APROF/1`
/// checks them.
fn http_query(path: &str) -> Query {
    let tenant = |prefix| path.strip_prefix(prefix).filter(|t| crate::valid_name(t)).map(str::to_owned);
    match path {
        "/healthz" => Query::Ping,
        "/tenants" => Query::Tenants,
        "/obs.json" => Query::Obs,
        _ => match (tenant("/profile/"), tenant("/report/")) {
            (Some(tenant), _) => Query::Profile { tenant },
            (_, Some(tenant)) => Query::Report { tenant },
            _ => Query::NotFound,
        },
    }
}

/// Writes an `OK <len>\n<body>` framed reply.
pub(crate) fn write_body<W: Write>(w: &mut W, body: &str) -> io::Result<()> {
    writeln!(w, "OK {}", body.len())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Writes a minimal HTTP/1.0 response and flushes.
pub(crate) fn write_http<W: Write>(
    w: &mut W,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_submit_and_queries() {
        assert_eq!(
            parse_request("APROF/1 SUBMIT tenant=web stream=t-1").unwrap(),
            Request::Submit { tenant: "web".into(), stream: "t-1".into() }
        );
        assert_eq!(parse_request("APROF/1 PING").unwrap(), Request::Query(Query::Ping, Framing::Line));
        assert_eq!(
            parse_request("APROF/1 PROFILE tenant=web").unwrap(),
            Request::Query(Query::Profile { tenant: "web".into() }, Framing::Line)
        );
        assert_eq!(
            parse_request("APROF/1 SHUTDOWN mode=now").unwrap(),
            Request::Shutdown { now: true }
        );
        assert_eq!(
            parse_request("APROF/1 SHUTDOWN").unwrap(),
            Request::Shutdown { now: false }
        );
        assert_eq!(parse_request("GET /obs.json HTTP/1.1").unwrap(), Request::Query(Query::Obs, Framing::Http));
        assert_eq!(
            parse_request("GET /profile/..%2fx HTTP/1.1").unwrap(),
            Request::Query(Query::NotFound, Framing::Http)
        );
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(parse_request("").is_err());
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("APROF/1 SUBMIT tenant=web").is_err());
        assert!(parse_request("APROF/1 SUBMIT tenant=../x stream=s").is_err());
        assert!(parse_request("APROF/1 FROB").is_err());
    }

    #[test]
    fn read_line_stops_at_lf_and_leaves_rest() {
        let mut src = io::Cursor::new(b"APROF/1 PING\r\nBODY".to_vec());
        assert_eq!(read_line(&mut src).unwrap(), "APROF/1 PING");
        let mut rest = Vec::new();
        src.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"BODY");
    }

    #[test]
    fn read_line_bounds_length() {
        let long = vec![b'x'; MAX_LINE + 10];
        let mut src = io::Cursor::new(long);
        assert!(matches!(read_line(&mut src), Err(ServeError::Protocol(_))));
    }
}

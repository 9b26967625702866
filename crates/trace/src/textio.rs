//! Plain-text serialization of traces.
//!
//! The profiling algorithms of §4 are defined over recorded traces, so
//! traces are first-class artifacts: this module gives them a stable,
//! diff-able on-disk form. One event per line, `#` comments:
//!
//! ```text
//! # aprof trace v1
//! T0 call r0
//! T0 bb 1
//! T0 read 0x10
//! T1 switch
//! T1 kwrite 0x20
//! T0 ret r0
//! ```

use crate::{Addr, Event, RoutineId, ThreadId, Trace};
use std::fmt;
use std::io::{self, BufRead};

/// Header line written at the top of serialized traces.
pub const HEADER: &str = "# aprof trace v1";

/// A syntax error in a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// A failure while reading a serialized trace from an input stream: either
/// the stream itself broke or a line failed to parse.
#[derive(Debug)]
pub enum ReadTraceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line was syntactically invalid.
    Parse(ParseTraceError),
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "trace read error: {e}"),
            ReadTraceError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

impl From<ParseTraceError> for ReadTraceError {
    fn from(e: ParseTraceError) -> Self {
        ReadTraceError::Parse(e)
    }
}

/// Renders a trace in the text format (including the header line).
///
/// # Example
///
/// ```
/// use aprof_trace::{textio, Addr, Event, ThreadId, Trace};
/// let mut t = Trace::new();
/// t.push(ThreadId::MAIN, Event::Read { addr: Addr::new(16) });
/// let text = textio::to_text(&t);
/// assert!(text.contains("T0 read 0x10"));
/// let back = textio::from_reader(text.as_bytes()).unwrap();
/// assert_eq!(back.len(), 1);
/// ```
pub fn to_text(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(trace.len() * 16 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for te in trace.events() {
        let t = te.thread;
        match te.event {
            Event::Call { routine } => {
                let _ = writeln!(out, "{t} call {routine}");
            }
            Event::Return { routine } => {
                let _ = writeln!(out, "{t} ret {routine}");
            }
            Event::Read { addr } => {
                let _ = writeln!(out, "{t} read {addr}");
            }
            Event::Write { addr } => {
                let _ = writeln!(out, "{t} write {addr}");
            }
            Event::KernelRead { addr } => {
                let _ = writeln!(out, "{t} kread {addr}");
            }
            Event::KernelWrite { addr } => {
                let _ = writeln!(out, "{t} kwrite {addr}");
            }
            Event::BasicBlock { cost } => {
                let _ = writeln!(out, "{t} bb {cost}");
            }
            Event::ThreadSwitch => {
                let _ = writeln!(out, "{t} switch");
            }
            Event::ThreadStart => {
                let _ = writeln!(out, "{t} start");
            }
            Event::ThreadExit => {
                let _ = writeln!(out, "{t} exit");
            }
        }
    }
    out
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseTraceError> {
    Err(ParseTraceError { line, message: message.into() })
}

fn parse_thread(line: usize, tok: &str) -> Result<ThreadId, ParseTraceError> {
    match tok.strip_prefix('T').and_then(|d| d.parse::<u32>().ok()) {
        Some(n) => Ok(ThreadId::new(n)),
        None => err(line, format!("bad thread id `{tok}`")),
    }
}

fn parse_routine(line: usize, tok: &str) -> Result<RoutineId, ParseTraceError> {
    match tok.strip_prefix('r').and_then(|d| d.parse::<u32>().ok()) {
        Some(n) => Ok(RoutineId::new(n)),
        None => err(line, format!("bad routine id `{tok}`")),
    }
}

fn parse_addr(line: usize, tok: &str) -> Result<Addr, ParseTraceError> {
    let digits = tok.strip_prefix("0x").unwrap_or(tok);
    let radix = if tok.starts_with("0x") { 16 } else { 10 };
    match u64::from_str_radix(digits, radix) {
        Ok(v) => Ok(Addr::new(v)),
        Err(_) => err(line, format!("bad address `{tok}`")),
    }
}

/// Parses one line of the text format.
///
/// Returns `Ok(None)` for blank lines and `#` comments. `ln` is the
/// 1-based line number used in error messages.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] if the line is malformed.
pub fn parse_line(ln: usize, raw: &str) -> Result<Option<(ThreadId, Event)>, ParseTraceError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let thread = parse_thread(ln, parts.next().unwrap_or(""))?;
    let op = parts.next().unwrap_or("");
    let operand = parts.next();
    if parts.next().is_some() {
        return err(ln, "trailing tokens");
    }
    let need = |what: &str| -> Result<&str, ParseTraceError> {
        operand.ok_or(ParseTraceError { line: ln, message: format!("`{op}` needs {what}") })
    };
    let event = match op {
        "call" => Event::Call { routine: parse_routine(ln, need("a routine")?)? },
        "ret" => Event::Return { routine: parse_routine(ln, need("a routine")?)? },
        "read" => Event::Read { addr: parse_addr(ln, need("an address")?)? },
        "write" => Event::Write { addr: parse_addr(ln, need("an address")?)? },
        "kread" => Event::KernelRead { addr: parse_addr(ln, need("an address")?)? },
        "kwrite" => Event::KernelWrite { addr: parse_addr(ln, need("an address")?)? },
        "bb" => Event::BasicBlock {
            cost: need("a cost")?
                .parse()
                .map_err(|_| ParseTraceError { line: ln, message: "bad cost".into() })?,
        },
        "switch" => Event::ThreadSwitch,
        "start" => Event::ThreadStart,
        "exit" => Event::ThreadExit,
        other => return err(ln, format!("unknown event `{other}`")),
    };
    if matches!(event, Event::ThreadSwitch | Event::ThreadStart | Event::ThreadExit) && operand.is_some() {
        return err(ln, format!("`{op}` takes no operand"));
    }
    Ok(Some((thread, event)))
}

/// Parses the text format from a buffered reader, line by line, into a
/// [`Trace`], preserving order. Only one line is held in memory at a time,
/// so arbitrarily large inputs stream through without being materialized as
/// a single string.
///
/// # Errors
///
/// Returns [`ReadTraceError::Parse`] on malformed lines (the header is
/// optional and unknown `#`-comment lines are ignored) and
/// [`ReadTraceError::Io`] if the underlying reader fails.
///
/// # Example
///
/// ```
/// use aprof_trace::textio;
/// let trace = textio::from_reader("T0 read 0x10\nT0 switch\n".as_bytes()).unwrap();
/// assert_eq!(trace.len(), 2);
/// ```
pub fn from_reader<R: BufRead>(reader: R) -> Result<Trace, ReadTraceError> {
    let mut trace = Trace::new();
    let mut line = String::new();
    let mut reader = reader;
    let mut ln = 0;
    loop {
        ln += 1;
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(trace);
        }
        if let Some((thread, event)) = parse_line(ln, &line)? {
            trace.push(thread, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        t.push(t0, Event::ThreadStart);
        t.push(t0, Event::Call { routine: RoutineId::new(0) });
        t.push(t0, Event::BasicBlock { cost: 3 });
        t.push(t0, Event::Read { addr: Addr::new(0x10) });
        t.push(t0, Event::Write { addr: Addr::new(17) });
        t.push(t1, Event::ThreadSwitch);
        t.push(t1, Event::KernelWrite { addr: Addr::new(0x20) });
        t.push(t1, Event::KernelRead { addr: Addr::new(0x20) });
        t.push(t0, Event::ThreadSwitch);
        t.push(t0, Event::Return { routine: RoutineId::new(0) });
        t.push(t0, Event::ThreadExit);
        t
    }

    fn parse(text: &str) -> Result<Trace, ReadTraceError> {
        from_reader(text.as_bytes())
    }

    #[test]
    fn roundtrip_preserves_events() {
        let original = sample();
        let text = to_text(&original);
        let parsed = parse(&text).unwrap();
        let a: Vec<_> = original.events().iter().map(|e| (e.thread, e.event)).collect();
        let b: Vec<_> = parsed.events().iter().map(|e| (e.thread, e.event)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn header_and_comments_ignored() {
        let t = parse("# header\n\n# another\nT0 switch\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("T0 switch\nT0 frobnicate\n").unwrap_err();
        let ReadTraceError::Parse(e) = e else { panic!("expected parse error") };
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn bad_tokens_rejected() {
        assert!(parse("X0 read 0x1").is_err());
        assert!(parse("T0 read zz").is_err());
        assert!(parse("T0 call x1").is_err());
        assert!(parse("T0 bb nan").is_err());
        assert!(parse("T0 read").is_err());
        assert!(parse("T0 read 0x1 extra").is_err());
        assert!(parse("T0 switch now").is_err());
    }

    #[test]
    fn decimal_and_hex_addresses() {
        let t = parse("T0 read 16\nT0 read 0x10\n").unwrap();
        assert_eq!(t.events()[0].event, t.events()[1].event);
    }

    #[test]
    fn io_errors_are_surfaced() {
        struct Broken;
        impl io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let e = from_reader(io::BufReader::new(Broken)).unwrap_err();
        assert!(matches!(e, ReadTraceError::Io(_)));
    }
}

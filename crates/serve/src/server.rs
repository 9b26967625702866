//! The daemon: listeners, connection workers, ingest, drain.

use crate::protocol::{self, Conn, Framing, Query, Request};
use crate::spool::{bytes_to_cells, name_ordinal, Spool};
use crate::supervisor::{Backoff, BreakerBank, Outcome};
use crate::tenant::{Admission, Registry};
use crate::{ServeConfig, ServeError};
use aprof_analysis::{render_report, ReportInputs};
use aprof_core::{ProfileReport, TrmsProfiler};
use aprof_faults::{FaultPlan, WorkerFault};
use aprof_obs::counters;
use aprof_trace::{Event, ThreadId};
use aprof_wire::{WireError, WireReader};
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Lifecycle states (stored in `Shared::state`).
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPING: u8 = 2;

/// Per-read socket timeout: a silent peer cannot pin a worker (or stall a
/// drain) longer than this.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-write socket timeout: a peer that stops draining its response
/// cannot pin a worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Read-buffer capacity between the socket and the wire decoder.
const SOCKET_BUF: usize = 64 << 10;

/// How long a TCP submission stays open after its reply while the daemon
/// discards input it did not read (see `handle_submit`).
const LINGER: Duration = Duration::from_secs(2);

struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    spool: Spool,
    plan: FaultPlan,
    breakers: BreakerBank,
    state: AtomicU8,
    conn_seq: AtomicU64,
    active_conns: AtomicUsize,
    /// One per listener, in the order of `ServerHandle::accept_threads`.
    wakes: Vec<Wake>,
    drain: Mutex<Drain>,
    /// Signalled once shutdown has woken the listeners, on an immediate
    /// shutdown, and whenever `active_conns` drops to 0.
    drained: Condvar,
}

/// Shutdown progress, guarded by `Shared::drain`.
#[derive(Default)]
struct Drain {
    started: Option<Instant>,
    /// Set once shutdown has tried to wake every listener: `true` where
    /// the wake-up connection reached it.
    woken: Option<Vec<bool>>,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    fn lock_drain(&self) -> MutexGuard<'_, Drain> {
        self.drain.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_drained<'a>(&self, guard: MutexGuard<'a, Drain>) -> MutexGuard<'a, Drain> {
        self.drained.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    fn request_shutdown(&self, now: bool) {
        let target = if now { STOPPING } else { DRAINING };
        // Only ratchet upwards; record when the drain began.
        let first = {
            let mut drain = self.lock_drain();
            drain.started.get_or_insert_with(Instant::now);
            self.state.fetch_max(target, Ordering::SeqCst) == RUNNING
        };
        if first {
            // Each listener blocks in `accept`: connect once so it returns
            // and sees the new state. Not under the lock, since a connect
            // can wait for room in the listener's backlog.
            let woken = self.wakes.iter().map(Wake::wake).collect();
            self.lock_drain().woken = Some(woken);
        }
        self.drained.notify_all();
    }

    /// Called by each worker as it finishes; the last one out wakes a
    /// draining [`ServerHandle::wait`].
    fn conn_done(&self) {
        if self.active_conns.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Taking the lock orders this notify after a waiter's check.
            drop(self.lock_drain());
            self.drained.notify_all();
        }
    }
}

/// A bound listener; it blocks in `accept`.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }
}

/// Where shutdown connects to wake one listener.
enum Wake {
    /// The socket path and the identity of the file bound there. A later
    /// daemon on the same path replaces the file, and connecting to it
    /// would wake that daemon instead of this one.
    Unix(PathBuf, FileId),
    /// The bound address, with an unspecified IP mapped to loopback.
    Tcp(SocketAddr),
}

/// Device, inode and change time of a file.
type FileId = (u64, u64, i64, i64);

fn file_id(path: &Path) -> io::Result<FileId> {
    let m = std::fs::metadata(path)?;
    Ok((m.dev(), m.ino(), m.ctime(), m.ctime_nsec()))
}

/// Binds the configured listeners, each with its wake address.
fn bind_listeners(cfg: &ServeConfig) -> io::Result<Vec<(Listener, Wake)>> {
    let mut bound = Vec::new();
    if let Some(path) = &cfg.unix {
        // A stale socket file from a previous life would make bind fail.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        bound.push((Listener::Unix(listener), Wake::Unix(path.clone(), file_id(path)?)));
    }
    if let Some(addr) = &cfg.tcp {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        bound.push((Listener::Tcp(listener), Wake::Tcp(wake)));
    }
    Ok(bound)
}

impl Wake {
    /// The unix socket path, while the file there is still the one this
    /// daemon bound.
    fn own_path(&self) -> Option<&Path> {
        match self {
            Wake::Unix(path, id) if file_id(path).is_ok_and(|now| now == *id) => Some(path),
            _ => None,
        }
    }

    /// Connects once and hangs up. `false` if the listener is out of
    /// reach: its socket file is gone or belongs to another daemon.
    fn wake(&self) -> bool {
        match self {
            Wake::Unix(..) => self.own_path().is_some_and(|p| UnixStream::connect(p).is_ok()),
            Wake::Tcp(addr) => TcpStream::connect(addr).is_ok(),
        }
    }
}

/// The daemon type. [`Server::start`] is the only entry point.
pub struct Server;

/// A started daemon: join it with [`ServerHandle::wait`], stop it with
/// [`ServerHandle::shutdown`] (or a client `SHUTDOWN` request).
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    /// Spooled `.wire` files that failed validation during startup
    /// recovery (left on disk for inspection).
    pub damaged: Vec<(PathBuf, ServeError)>,
}

impl Server {
    /// Recovers the spool, binds the configured listeners and starts
    /// accepting connections.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        if cfg.unix.is_none() && cfg.tcp.is_none() {
            return Err(ServeError::Protocol("no listener configured".into()));
        }
        let plan = cfg.fault_plan();
        let spool = Spool::open(&cfg.spool, plan)?;
        let registry = Registry::new(&cfg);
        let damaged = spool.recover(&registry)?;
        let breakers = BreakerBank::new(cfg.breaker);
        let (listeners, wakes): (Vec<_>, Vec<_>) = bind_listeners(&cfg)?.into_iter().unzip();
        let tcp_addr = listeners.iter().find_map(|l| match l {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        });
        let shared = Arc::new(Shared {
            registry,
            spool,
            plan,
            breakers,
            state: AtomicU8::new(RUNNING),
            conn_seq: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            wakes,
            drain: Mutex::new(Drain::default()),
            drained: Condvar::new(),
            cfg,
        });
        let accept_threads = listeners
            .into_iter()
            .map(|listener| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || supervised_accept_loop(&shared, &listener))
            })
            .collect();
        Ok(ServerHandle { shared, accept_threads, tcp_addr, damaged })
    }
}

impl ServerHandle {
    /// The bound TCP address (useful with a `:0` listen spec).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Requests shutdown: `now = false` drains (stop accepting, let
    /// in-flight streams finish), `now = true` stops without waiting.
    pub fn shutdown(&self, now: bool) {
        self.shared.request_shutdown(now);
    }

    /// Blocks until the daemon shuts down (via [`ServerHandle::shutdown`]
    /// or a client `SHUTDOWN`), drains in-flight work unless the shutdown
    /// was immediate, and releases the listeners. Records the drain
    /// duration in `serve.drain_micros`.
    pub fn wait(self) -> Result<(), ServeError> {
        let shared = &self.shared;
        let mut drain = shared.lock_drain();
        let woken = loop {
            match &drain.woken {
                Some(woken) => break woken.clone(),
                None => drain = shared.wait_drained(drain),
            }
        };
        drop(drain);
        for (thread, woken) in self.accept_threads.into_iter().zip(woken) {
            // A listener the wake could not reach stays blocked in
            // `accept`; no client can reach it either, so it is detached.
            if woken {
                let _ = thread.join();
            }
        }
        // Listeners are gone. Drain the connections still in flight: each
        // releases its tenant slot before it leaves `active_conns`.
        let mut drain = shared.lock_drain();
        while shared.state() != STOPPING && shared.active_conns.load(Ordering::SeqCst) > 0 {
            drain = shared.wait_drained(drain);
        }
        let started = drain.started.unwrap_or_else(Instant::now);
        drop(drain);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        counters::SERVE_DRAIN_MICROS.store(micros);
        // A later daemon on the same path keeps its socket file.
        for path in shared.wakes.iter().filter_map(Wake::own_path) {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Supervisor for one listener: runs [`accept_loop`], and when the loop
/// body panics (injected accept faults, or a genuine bug) restarts it after
/// deterministic jittered exponential backoff instead of letting the
/// listener thread die silently. The loop only ends for real once the
/// daemon leaves `RUNNING`.
fn supervised_accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    let mut backoff = Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(100),
        shared.plan.config().seed,
    );
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| accept_loop(shared, listener, &mut backoff)));
        match run {
            Ok(()) => break,
            Err(_) => {
                if shared.state() != RUNNING {
                    break;
                }
                counters::SERVE_SUPERVISOR_LISTENER_RESTARTS.incr();
                thread::sleep(backoff.next_delay());
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener, backoff: &mut Backoff) {
    while shared.state() == RUNNING {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            // A blocking accept fails at once (EMFILE, ECONNABORTED, …):
            // back off rather than spin on it.
            Err(_) => {
                thread::sleep(backoff.next_delay());
                continue;
            }
        };
        if shared.state() != RUNNING {
            // Shutdown's wake-up, or a client that lost the race with it:
            // dropped unserved, before it draws an ordinal.
            break;
        }
        let ordinal = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
        // Accept-path fault class: panic *before* the connection is
        // handed to a worker, exercising the listener supervisor.
        // The connection drops un-served; the client sees a reset.
        if shared.plan.accept_fault(ordinal) {
            drop(conn);
            aprof_faults::injected_panic(format!(
                "injected panic in accept loop at connection {ordinal}"
            ));
        }
        backoff.reset();
        let shared = Arc::clone(shared);
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        thread::spawn(move || {
            // Contain both injected and genuine worker panics: one
            // bad connection must not take the daemon down. Panics
            // that escape this far were not attributable to a
            // submitting tenant (those are caught — and settled —
            // inside `handle_submit`), but they still count as
            // supervised worker deaths.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                handle_conn(&shared, conn, ordinal);
            }));
            if outcome.is_err() {
                counters::SERVE_SUPERVISOR_WORKER_PANICS.incr();
            }
            shared.conn_done();
        });
    }
}

fn handle_conn(shared: &Shared, mut conn: Conn, ordinal: u64) {
    counters::SERVE_CONNS_ACCEPTED.incr();
    let _ = conn.set_read_timeout(READ_TIMEOUT);
    let _ = conn.set_write_timeout(WRITE_TIMEOUT);
    let request = match protocol::read_line(&mut conn).and_then(|l| protocol::parse_request(&l)) {
        Ok(req) => req,
        Err(e) => {
            let _ = writeln!(conn, "ERR {e}");
            return;
        }
    };
    // Fault plan: the connection worker is the injection point for the
    // delay/panic classes (keyed by connection ordinal, first attempt).
    // Submissions re-draw the same decision inside their supervised
    // region so the panic is caught, attributed to the tenant, and
    // answered with an `ERR`; panics on query connections unwind to the
    // spawn-side catch instead.
    match shared.plan.worker_fault(ordinal, 1) {
        Some(WorkerFault::Panic) if !matches!(request, Request::Submit { .. }) => {
            aprof_faults::injected_panic(format!("injected panic in connection {ordinal}"));
        }
        Some(WorkerFault::Delay(d)) => thread::sleep(d),
        _ => {}
    }
    match request {
        Request::Submit { tenant, stream } => {
            handle_submit(shared, conn, &tenant, &stream, ordinal);
        }
        Request::Shutdown { now } => {
            // Reply first: an immediate stop lets `wait` return, and the
            // daemon exit, as soon as the listeners are woken.
            let _ = writeln!(conn, "OK {}", if now { "stopping" } else { "draining" });
            shared.request_shutdown(now);
        }
        Request::Query(query, framing) => answer(shared, conn, &query, framing),
    }
}

/// Answers a query in the framing it was asked in: [`render`] builds the
/// reply, and only the writers differ.
fn answer(shared: &Shared, mut conn: Conn, query: &Query, framing: Framing) {
    let _ = match framing {
        Framing::Line if *query == Query::Ping => writeln!(conn, "OK pong"),
        Framing::Line => match render(shared, query) {
            Ok((_, body)) => protocol::write_body(&mut conn, &body),
            Err(reason) => writeln!(conn, "ERR {reason}"),
        },
        Framing::Http => {
            // Politely consume the request headers before answering.
            for _ in 0..64 {
                if !matches!(protocol::read_line(&mut conn), Ok(line) if !line.is_empty()) {
                    break;
                }
            }
            match render(shared, query) {
                Ok((content_type, body)) => protocol::write_http(&mut conn, "200 OK", content_type, &body),
                Err(_) => protocol::write_http(&mut conn, "404 Not Found", "text/plain", "not found\n"),
            }
        }
    };
}

/// A query's body and its HTTP content type, or why there is none: a
/// tenant with no committed stream, or a path that names no query.
fn render(shared: &Shared, query: &Query) -> Result<(&'static str, String), String> {
    let aggregate =
        |tenant: &str| shared.registry.aggregate(tenant).ok_or_else(|| format!("unknown tenant {tenant:?}"));
    Ok(match query {
        Query::Ping => ("text/plain", "ok\n".to_owned()),
        Query::Tenants => ("text/plain", tenants_text(shared)),
        Query::Profile { tenant } => ("text/plain", aggregate(tenant)?.to_canonical_text()),
        Query::Report { tenant } => ("text/html", html_report(tenant, &*aggregate(tenant)?)),
        Query::Obs => ("application/json", aprof_obs::snapshot().to_json()),
        Query::NotFound => return Err("not found".to_owned()),
    })
}

fn tenants_text(shared: &Shared) -> String {
    let mut out = String::new();
    for t in shared.registry.summaries() {
        let _ = writeln!(
            out,
            "{} streams={} events={} spooled_cells={} in_flight={}",
            t.tenant, t.streams, t.events, t.spooled_cells, t.in_flight
        );
    }
    out
}

fn html_report(tenant: &str, report: &ProfileReport) -> String {
    let snap = aprof_obs::snapshot();
    let title = format!("tenant {tenant}");
    // Tenant profiles aggregate wire streams with no guest program in
    // hand, so the static-bound column stays empty.
    render_report(&ReportInputs { report, title: &title, obs: Some(&snap), top: 8, bounds: None })
}

/// A `Read` adapter that copies every byte it yields into the spool sink —
/// the stream is decoded and made durable in a single pass. It also carries
/// the stream's overall deadline: per-read socket timeouts bound each
/// *silent* stall, but a byte-dribbling slow-loris peer resets that clock
/// on every byte, so the tee enforces a wall-clock budget for the whole
/// stream and evicts the connection once it is spent.
struct Tee<'a, W: Write> {
    conn: &'a mut Conn,
    spool: W,
    copied: u64,
    deadline: Instant,
}

impl<W: Write> Read for Tee<'_, W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "stream deadline exceeded",
            ));
        }
        let n = self.conn.read(buf)?;
        if n > 0 {
            self.spool.write_all(&buf[..n])?;
            self.copied += n as u64;
        }
        Ok(n)
    }
}

/// Wraps the wire decoder with the tenant's event budget: the stream is
/// refused (mid-flight) as soon as it would push the tenant past its
/// `max_instructions` quota.
struct Metered<R: Read> {
    reader: WireReader<R>,
    budget: u64,
    seen: u64,
}

impl<R: Read> Iterator for Metered<R> {
    type Item = Result<(ThreadId, Event), ServeError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.reader.next()? {
            Ok(item) => {
                self.seen += 1;
                if self.seen > self.budget {
                    counters::SERVE_QUOTA_TRIPS.incr();
                    return Some(Err(ServeError::Quota(format!(
                        "stream exceeds the tenant's remaining event budget ({})",
                        self.budget
                    ))));
                }
                Some(Ok(item))
            }
            Err(e) => Some(Err(ServeError::Wire(e))),
        }
    }
}

/// Deterministic admission-time load shedding. Checked before any work is
/// done for the stream, so a shed costs the daemon one request-line parse
/// and one `ERR busy retry-after <ms>` write.
fn shed_check(shared: &Shared, tenant: &str) -> Option<ServeError> {
    let shed = &shared.cfg.shed;
    let busy = ServeError::Busy { retry_after: shed.retry_after };
    if shared.active_conns.load(Ordering::SeqCst) > shed.max_active_conns {
        counters::SERVE_SHED_CONN_PRESSURE.incr();
        return Some(busy);
    }
    if shared.registry.total_spooled_cells() >= shed.spool_capacity_cells {
        counters::SERVE_SHED_SPOOL_PRESSURE.incr();
        return Some(busy);
    }
    let pct = u64::from(shed.tenant_pressure_pct.min(100));
    if pct < 100 && shared.cfg.quota.max_instructions != u64::MAX {
        let used = shared.registry.tenant_events(tenant);
        if u128::from(used) * 100 >= u128::from(shared.cfg.quota.max_instructions) * u128::from(pct)
        {
            counters::SERVE_SHED_TENANT_PRESSURE.incr();
            return Some(busy);
        }
    }
    None
}

/// Maps a submission error to its breaker verdict: only failures that say
/// something about the *tenant's traces* (corrupt bytes, blown deadlines)
/// feed the circuit breaker; daemon-side trouble (I/O, quotas, pressure)
/// must not quarantine an innocent tenant.
fn breaker_verdict(e: &ServeError) -> Outcome {
    match e {
        ServeError::Wire(WireError::Io(_)) => Outcome::Indeterminate,
        ServeError::Wire(_) | ServeError::Deadline | ServeError::Protocol(_) => Outcome::Failure,
        _ => Outcome::Indeterminate,
    }
}

fn handle_submit(shared: &Shared, mut conn: Conn, tenant: &str, stream: &str, ordinal: u64) {
    // No reply is a hard disconnect (see `refusal`).
    let Some(reply) = submit_reply(shared, &mut conn, tenant, stream, ordinal) else { return };
    let _ = writeln!(conn, "{reply}");
    // Closing a TCP socket with unread input sends a reset, which can
    // overtake the reply and destroy it; refusals leave the body unread.
    // So half-close, then discard what the client still sends, for at
    // most `LINGER`. A unix socket keeps the reply readable either way.
    if let Conn::Tcp(_) = conn {
        let _ = conn.shutdown_write();
        let _ = conn.set_read_timeout(LINGER);
        let deadline = Instant::now() + LINGER;
        let mut sink = [0u8; 8192];
        while Instant::now() < deadline && matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Runs one submission and returns its reply line.
fn submit_reply(
    shared: &Shared,
    conn: &mut Conn,
    tenant: &str,
    stream: &str,
    ordinal: u64,
) -> Option<String> {
    if shared.state() != RUNNING {
        counters::SERVE_STREAMS_ABORTED.incr();
        return Some(format!("ERR {}", ServeError::Draining));
    }
    if let Some(e) = shed_check(shared, tenant) {
        counters::SERVE_STREAMS_ABORTED.incr();
        return Some(format!("ERR {e}"));
    }
    if let Err(e) = shared.breakers.admit(tenant) {
        counters::SERVE_STREAMS_ABORTED.incr();
        return Some(format!("ERR {e}"));
    }
    // From here on every path settles the breaker — an unsettled half-open
    // probe would wedge the tenant in quarantine — and settles it before
    // the reply, so a client that resubmits at once meets the breaker its
    // stream left behind.
    let run =
        catch_unwind(AssertUnwindSafe(|| submit_supervised(shared, conn, tenant, stream, ordinal)));
    match run {
        Ok((outcome, reply)) => {
            shared.breakers.settle(tenant, outcome);
            reply
        }
        Err(_) => {
            // The worker died mid-submission. The `SlotGuard` released the
            // tenant's in-flight slot during unwinding; finish the cleanup,
            // attribute the poison to the tenant, and keep serving.
            counters::SERVE_SUPERVISOR_WORKER_PANICS.incr();
            counters::SERVE_STREAMS_ABORTED.incr();
            shared.spool.discard_part(tenant, stream);
            shared.breakers.settle(tenant, Outcome::Failure);
            Some("ERR internal: worker panicked (supervised); stream discarded".to_owned())
        }
    }
}

/// The `ERR` reply to a refused stream. `None` when `trap = false`
/// selects a hard disconnect over a graceful quota refusal (the VM
/// limits' abort-vs-trap distinction).
fn refusal(shared: &Shared, e: &ServeError) -> Option<String> {
    (shared.cfg.quota.trap || !matches!(e, ServeError::Quota(_))).then(|| format!("ERR {e}"))
}

/// The supervised body of one submission. Returns the breaker verdict and
/// the reply line; the caller catches panics, settles the verdict, then
/// replies.
fn submit_supervised(
    shared: &Shared,
    conn: &mut Conn,
    tenant: &str,
    stream: &str,
    ordinal: u64,
) -> (Outcome, Option<String>) {
    // Worker fault classes re-drawn here (same pure decision as
    // `handle_conn`) so an injected panic lands inside the supervised
    // region.
    match shared.plan.worker_fault(ordinal, 1) {
        Some(WorkerFault::Panic) => {
            aprof_faults::injected_panic(format!("injected panic in connection {ordinal}"));
        }
        Some(WorkerFault::Delay(d)) => thread::sleep(d),
        None => {}
    }
    let admission = match shared.registry.admit(tenant, stream) {
        Ok(a) => a,
        Err(e) => {
            counters::SERVE_STREAMS_ABORTED.incr();
            return (breaker_verdict(&e), refusal(shared, &e));
        }
    };
    let slot = match admission {
        Admission::Duplicate => {
            // Drain the body so the peer's writes don't die on a reset,
            // then acknowledge idempotently.
            let _ = io::copy(conn, &mut io::sink());
            return (Outcome::Success, Some("OK events=0 chunks=0 duplicate=1".to_owned()));
        }
        Admission::Slot(slot) => slot,
    };

    let started = Instant::now();
    let outcome = match ingest(shared, conn, tenant, stream, slot.events_budget(), started) {
        Ok((events, chunks)) => {
            counters::SERVE_CHUNKS_AGGREGATED.add(u64::from(chunks));
            (Outcome::Success, Some(format!("OK events={events} chunks={chunks}")))
        }
        Err(e) => {
            shared.spool.discard_part(tenant, stream);
            counters::SERVE_STREAMS_ABORTED.incr();
            // A stream that errored after its wall-clock budget was a
            // slow-loris eviction, whatever the proximate error: the tee's
            // timeout, a read timeout, or a decode error on a half-starved
            // buffer.
            let e = if started.elapsed() >= shared.cfg.stream_deadline {
                counters::SERVE_SHED_SLOW_EVICTIONS.incr();
                ServeError::Deadline
            } else {
                e
            };
            (breaker_verdict(&e), refusal(shared, &e))
        }
    };
    drop(slot);
    outcome
}

/// The ingest pipeline for one admitted stream. On success the stream is
/// durable, aggregated and ready to acknowledge; on error the caller
/// discards the `.part` and reports.
fn ingest(
    shared: &Shared,
    conn: &mut Conn,
    tenant: &str,
    stream: &str,
    events_budget: u64,
    started: Instant,
) -> Result<(u64, u32), ServeError> {
    let part = shared.spool.create_part(tenant, stream)?;
    let mut tee = Tee {
        conn,
        spool: BufWriter::new(shared.plan.wrap_writer(part)),
        copied: 0,
        deadline: started + shared.cfg.stream_deadline,
    };
    let mut profiler = TrmsProfiler::new();
    let (events, chunks, names) = {
        let reader = WireReader::new(BufReader::with_capacity(SOCKET_BUF, &mut tee))?.strict();
        let mut metered = Metered { reader, budget: events_budget, seen: 0 };
        let events = aprof_trace::replay(&mut profiler, &mut metered)?;
        if metered.reader.index().is_none() {
            return Err(ServeError::Wire(WireError::UnexpectedEof {
                context: "stream ended without a validated index",
            }));
        }
        let chunks = metered.reader.stats().chunks;
        (events, chunks, metered.reader.routines().clone())
    };
    let Tee { spool, copied, .. } = tee;
    let part = spool
        .into_inner()
        .map_err(|e| ServeError::Io(io::Error::other(e.to_string())))?
        .into_inner();
    // Fsync fault class: a full disk surfaces here as well as on writes.
    if let Some(e) = shared.plan.sync_fault(name_ordinal(tenant, stream)) {
        return Err(e.into());
    }
    part.sync_data()?;
    drop(part);

    let report = profiler.into_report(&names);
    let cells = bytes_to_cells(copied);
    // Quota reservation first (it can refuse), durable rename second,
    // aggregation third, ack last — see `spool` module docs for why this
    // ordering keeps acknowledged data loss at zero.
    shared.registry.reserve(tenant, events, cells)?;
    if let Err(e) = shared.spool.commit(tenant, stream) {
        shared.registry.unreserve(tenant, events, cells);
        return Err(e);
    }
    shared.registry.commit(tenant, stream, &report, events);
    Ok((events, chunks))
}

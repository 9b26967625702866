//! The daemon: listeners, connection workers, ingest, drain.

use crate::protocol::{self, Conn, Request};
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
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Lifecycle states (stored in `Shared::state`).
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPING: u8 = 2;

/// How long an accept loop sleeps between polls of its non-blocking
/// listener (also the latency bound on noticing a shutdown request).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Per-read socket timeout: a silent peer cannot pin a worker (or stall a
/// drain) longer than this.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Read-buffer capacity between the socket and the wire decoder.
const SOCKET_BUF: usize = 64 << 10;

struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    spool: Spool,
    plan: FaultPlan,
    breakers: BreakerBank,
    state: AtomicU8,
    conn_seq: AtomicU64,
    active_conns: AtomicUsize,
    drain_started: Mutex<Option<Instant>>,
}

impl Shared {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self, now: bool) {
        let target = if now { STOPPING } else { DRAINING };
        // Only ratchet upwards; record when the drain began.
        let mut started = self.drain_started.lock().unwrap_or_else(|e| e.into_inner());
        if started.is_none() {
            *started = Some(Instant::now());
        }
        self.state.fetch_max(target, Ordering::SeqCst);
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
        let shared = Arc::new(Shared {
            registry,
            spool,
            plan,
            breakers,
            state: AtomicU8::new(RUNNING),
            conn_seq: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            drain_started: Mutex::new(None),
            cfg,
        });

        let mut accept_threads = Vec::new();
        if let Some(path) = shared.cfg.unix.clone() {
            // A stale socket file from a previous life would make bind fail.
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            listener.set_nonblocking(true)?;
            let shared = Arc::clone(&shared);
            accept_threads.push(thread::spawn(move || {
                supervised_accept_loop(&shared, || listener.accept().map(|(s, _)| Conn::Unix(s)));
            }));
        }
        let mut tcp_addr = None;
        if let Some(addr) = shared.cfg.tcp.clone() {
            let listener = TcpListener::bind(&addr)?;
            tcp_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let shared = Arc::clone(&shared);
            accept_threads.push(thread::spawn(move || {
                supervised_accept_loop(&shared, || listener.accept().map(|(s, _)| Conn::Tcp(s)));
            }));
        }
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
        for t in self.accept_threads {
            let _ = t.join();
        }
        // Listeners are gone. Drain the connections still in flight.
        if self.shared.state() != STOPPING {
            while self.shared.active_conns.load(Ordering::SeqCst) > 0
                || self.shared.registry.total_in_flight() > 0
            {
                thread::sleep(Duration::from_millis(5));
                if self.shared.state() == STOPPING {
                    break;
                }
            }
        }
        let started = self
            .shared
            .drain_started
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .unwrap_or_else(Instant::now);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        counters::SERVE_DRAIN_MICROS.store(micros);
        if let Some(path) = &self.shared.cfg.unix {
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
fn supervised_accept_loop<F>(shared: &Arc<Shared>, mut accept: F)
where
    F: FnMut() -> io::Result<Conn>,
{
    let mut backoff = Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(100),
        shared.plan.config().seed,
    );
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| accept_loop(shared, &mut accept)));
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

fn accept_loop<F>(shared: &Arc<Shared>, accept: &mut F)
where
    F: FnMut() -> io::Result<Conn>,
{
    while shared.state() == RUNNING {
        match accept() {
            Ok(conn) => {
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
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_conn(shared: &Shared, mut conn: Conn, ordinal: u64) {
    counters::SERVE_CONNS_ACCEPTED.incr();
    let _ = conn.set_read_timeout(READ_TIMEOUT);
    let _ = conn.set_write_timeout(shared.cfg.write_timeout);
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
        Request::Ping => {
            let _ = writeln!(conn, "OK pong");
        }
        Request::Tenants => {
            let _ = protocol::write_body(&mut conn, &tenants_text(shared));
        }
        Request::Profile { tenant } => match shared.registry.aggregate(&tenant) {
            Some(report) => {
                let _ = protocol::write_body(&mut conn, &report.to_canonical_text());
            }
            None => {
                let _ = writeln!(conn, "ERR unknown tenant {tenant:?}");
            }
        },
        Request::Report { tenant } => match shared.registry.aggregate(&tenant) {
            Some(report) => {
                let _ = protocol::write_body(&mut conn, &html_report(&tenant, &report));
            }
            None => {
                let _ = writeln!(conn, "ERR unknown tenant {tenant:?}");
            }
        },
        Request::Obs => {
            let _ = protocol::write_body(&mut conn, &aprof_obs::snapshot().to_json());
        }
        Request::Shutdown { now } => {
            shared.request_shutdown(now);
            let _ = writeln!(conn, "OK {}", if now { "stopping" } else { "draining" });
        }
        Request::Http { path } => handle_http(shared, conn, &path),
    }
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

fn handle_http(shared: &Shared, mut conn: Conn, path: &str) {
    // Politely consume the request headers before answering.
    for _ in 0..64 {
        match protocol::read_line(&mut conn) {
            Ok(line) if line.is_empty() => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let not_found = |mut conn: Conn| {
        let _ = protocol::write_http(&mut conn, "404 Not Found", "text/plain", "not found\n");
    };
    match path {
        "/healthz" => {
            let _ = protocol::write_http(&mut conn, "200 OK", "text/plain", "ok\n");
        }
        "/obs.json" => {
            let _ = protocol::write_http(
                &mut conn,
                "200 OK",
                "application/json",
                &aprof_obs::snapshot().to_json(),
            );
        }
        "/tenants" => {
            let _ = protocol::write_http(&mut conn, "200 OK", "text/plain", &tenants_text(shared));
        }
        _ => {
            if let Some(tenant) = path.strip_prefix("/profile/") {
                match shared.registry.aggregate(tenant) {
                    Some(report) => {
                        let _ = protocol::write_http(
                            &mut conn,
                            "200 OK",
                            "text/plain",
                            &report.to_canonical_text(),
                        );
                    }
                    None => not_found(conn),
                }
            } else if let Some(tenant) = path.strip_prefix("/report/") {
                match shared.registry.aggregate(tenant) {
                    Some(report) => {
                        let _ = protocol::write_http(
                            &mut conn,
                            "200 OK",
                            "text/html",
                            &html_report(tenant, &report),
                        );
                    }
                    None => not_found(conn),
                }
            } else {
                not_found(conn);
            }
        }
    }
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
    if shared.state() != RUNNING {
        counters::SERVE_STREAMS_ABORTED.incr();
        let _ = writeln!(conn, "ERR {}", ServeError::Draining);
        return;
    }
    if let Some(e) = shed_check(shared, tenant) {
        counters::SERVE_STREAMS_ABORTED.incr();
        let _ = writeln!(conn, "ERR {e}");
        return;
    }
    if let Err(e) = shared.breakers.admit(tenant) {
        counters::SERVE_STREAMS_ABORTED.incr();
        let _ = writeln!(conn, "ERR {e}");
        return;
    }
    // From here on every path settles the breaker — an unsettled half-open
    // probe would wedge the tenant in quarantine.
    let run = catch_unwind(AssertUnwindSafe(|| {
        submit_supervised(shared, &mut conn, tenant, stream, ordinal)
    }));
    match run {
        Ok(outcome) => shared.breakers.settle(tenant, outcome),
        Err(_) => {
            // The worker died mid-submission. The `SlotGuard` released the
            // tenant's in-flight slot during unwinding; finish the cleanup,
            // attribute the poison to the tenant, and keep serving.
            counters::SERVE_SUPERVISOR_WORKER_PANICS.incr();
            counters::SERVE_STREAMS_ABORTED.incr();
            shared.spool.discard_part(tenant, stream);
            shared.breakers.settle(tenant, Outcome::Failure);
            let _ = writeln!(conn, "ERR internal: worker panicked (supervised); stream discarded");
        }
    }
}

/// The supervised body of one submission; the caller catches panics and
/// settles the returned breaker verdict.
fn submit_supervised(
    shared: &Shared,
    conn: &mut Conn,
    tenant: &str,
    stream: &str,
    ordinal: u64,
) -> Outcome {
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
            // `trap = false` selects hard disconnects over graceful
            // refusals (the VM limits' abort-vs-trap distinction).
            if shared.cfg.quota.trap || !matches!(e, ServeError::Quota(_)) {
                let _ = writeln!(conn, "ERR {e}");
            }
            return breaker_verdict(&e);
        }
    };
    let slot = match admission {
        Admission::Duplicate => {
            // Drain the body so the peer's writes don't die on a reset,
            // then acknowledge idempotently.
            let _ = io::copy(conn, &mut io::sink());
            let _ = writeln!(conn, "OK events=0 chunks=0 duplicate=1");
            return Outcome::Success;
        }
        Admission::Slot(slot) => slot,
    };

    let started = Instant::now();
    let outcome = match ingest(shared, conn, tenant, stream, slot.events_budget(), started) {
        Ok((events, chunks)) => {
            counters::SERVE_CHUNKS_AGGREGATED.add(u64::from(chunks));
            let _ = writeln!(conn, "OK events={events} chunks={chunks}");
            Outcome::Success
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
            if shared.cfg.quota.trap || !matches!(e, ServeError::Quota(_)) {
                let _ = writeln!(conn, "ERR {e}");
            }
            breaker_verdict(&e)
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
        let events = profiler.consume_stream(&mut metered)?;
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

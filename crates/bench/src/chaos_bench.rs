//! The network-chaos soak behind `repro --chaos`: a live daemon under
//! combined network, I/O and panic fault plans, checked against the
//! one-shot replay oracle.
//!
//! One seed drives everything. The daemon runs with
//! [`FaultConfig::chaos`] (worker panics, accept-loop panics, spool
//! write/fsync/rename disk-full errors, delays); every client connection
//! is wrapped in a [`NetFaultPlan`] (mid-stream resets, short reads and
//! writes, byte-dribble slow-loris stalls, garbage bytes that claim
//! success), with the connection id derived from `(stream, attempt)` so
//! any individual connection's fault schedule replays exactly. Submitters
//! retry with deterministic jittered backoff, honouring the daemon's
//! `retry-after` hints and waiting out circuit-breaker cooldowns, while a
//! poller thread exercises the read endpoints throughout.
//!
//! Invariants checked:
//!
//! * every stream is eventually acknowledged, and each tenant's aggregate
//!   is **byte-identical** to the one-shot replay + merge oracle — acked
//!   data survives chaos with zero loss and zero double-counting (lost
//!   acks resolve as idempotent duplicates);
//! * the daemon never exits: it answers `PING`, serves the read
//!   endpoints, and survives a kill + restart with the same bytes;
//! * the obs counters reconcile with the injected-fault tally: the
//!   `faults.net.*` deltas account for at least this run's injections,
//!   and (for the default seed) panics were supervised, load was shed,
//!   and network faults actually fired — a quiet run would be vacuous.

use aprof_core::ProfileReport;
use aprof_faults::{jittered_backoff, FaultConfig, NetFaultConfig, NetFaultCounts, NetFaultPlan};
use aprof_serve::{client, one_shot_profile, BreakerConfig, ServeConfig, Server, Target};
use aprof_trace::RecordingTool;
use aprof_wire::{WireOptions, WireWriter};
use aprof_workloads::{by_name, WorkloadParams};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The default seed of `repro --chaos`; pinned by test to be non-vacuous
/// (it injects network faults, supervised panics and load sheds).
pub const DEFAULT_CHAOS_SEED: u64 = 0xC4A0;

/// Streams per soak when `APROF_CHAOS_CASES` is unset.
const DEFAULT_CASES: usize = 6;

/// Per-stream bound on submission attempts before the harness gives up.
/// Deliberately generous: under the chaos plan a single attempt can fail
/// for many independent reasons, and the wall-clock budget below is the
/// real bound.
const MAX_ATTEMPTS: u32 = 240;

/// Per-stream wall-clock bound (the harness's own watchdog, far above the
/// daemon's deadlines).
const STREAM_BUDGET: Duration = Duration::from_secs(60);

/// The workload rotation for the soaked streams.
const WORKLOADS: &[&str] =
    &["producer_consumer", "algo.insertion_sort", "algo.merge_sort", "algo.binary_search"];

fn chaos_cases() -> usize {
    std::env::var("APROF_CHAOS_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_CASES)
}

/// A scratch directory unique across runs and concurrent soaks.
fn scratch(seed: u64) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aprof-chaos-{}-{seed:x}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records one workload run into wire bytes (small chunks: more write ops,
/// more places for net faults to land).
fn record(name: &str, size: u64) -> Result<Vec<u8>, String> {
    let wl = by_name(name).ok_or_else(|| format!("{name} not registered"))?;
    let mut machine = wl.build(&WorkloadParams::new(size, 2));
    let names = machine.program().routines().clone();
    let mut recorder = RecordingTool::new();
    machine.run_with(&mut recorder).map_err(|e| format!("workload {name}: {e}"))?;
    let opts = WireOptions { chunk_bytes: 256, ..Default::default() };
    let mut writer =
        WireWriter::create(Vec::new(), &names, opts).map_err(|e| format!("header: {e}"))?;
    for te in recorder.into_trace() {
        writer.push(te.thread, te.event).map_err(|e| format!("push: {e}"))?;
    }
    Ok(writer.finish().map_err(|e| format!("finish: {e}"))?.0)
}

fn tenant_of(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        "alpha"
    } else {
        "beta"
    }
}

fn counter(name: &str) -> u64 {
    aprof_obs::snapshot().counter(name).unwrap_or(0)
}

/// Retries a clean-client call against the chaos daemon: its fault plan
/// panics workers on *any* connection, fetches included, so even control
/// traffic needs patience.
fn with_retries<T>(
    what: &str,
    mut f: impl FnMut() -> Result<T, aprof_serve::ServeError>,
) -> Result<T, String> {
    let mut last = String::new();
    for _ in 0..80 {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err(format!("{what} kept failing under chaos: {last}"))
}

/// Per-soak outcome statistics (for the rendered report).
#[derive(Default)]
struct SoakStats {
    attempts: u64,
    duplicate_acks: u64,
    busy_refusals: u64,
    quarantine_refusals: u64,
    error_replies: u64,
    io_failures: u64,
}

impl SoakStats {
    fn absorb(&mut self, other: &SoakStats) {
        self.attempts += other.attempts;
        self.duplicate_acks += other.duplicate_acks;
        self.busy_refusals += other.busy_refusals;
        self.quarantine_refusals += other.quarantine_refusals;
        self.error_replies += other.error_replies;
        self.io_failures += other.io_failures;
    }
}

/// One raw `APROF/1` submission through a fault-wrapped connection.
/// Returns the reply line (empty on bare close); the injected-fault tally
/// is absorbed whatever happens.
fn raw_submit(
    plan: &NetFaultPlan,
    sock: &Path,
    tenant: &str,
    stream: &str,
    body: &[u8],
    conn_id: u64,
    tally: &Mutex<NetFaultCounts>,
) -> std::io::Result<String> {
    let inner = UnixStream::connect(sock)?;
    inner.set_read_timeout(Some(Duration::from_secs(10)))?;
    inner.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut conn = plan.wrap(inner, conn_id);
    let result = (|| {
        conn.write_all(format!("APROF/1 SUBMIT tenant={tenant} stream={stream}\n").as_bytes())?;
        for chunk in body.chunks(512) {
            conn.write_all(chunk)?;
        }
        conn.flush()?;
        conn.get_ref().shutdown(Shutdown::Write)?;
        // Read the reply in buffered chunks (not byte-at-a-time) so the
        // short-read injector has something to shorten.
        let mut line = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let n = conn.read(&mut buf)?;
            if n == 0 {
                break;
            }
            line.extend_from_slice(&buf[..n]);
            if line.contains(&b'\n') || line.len() > 4096 {
                break;
            }
        }
        line.truncate(line.iter().position(|&b| b == b'\n').unwrap_or(line.len()));
        Ok(String::from_utf8_lossy(&line).into_owned())
    })();
    tally.lock().unwrap_or_else(|e| e.into_inner()).absorb(&conn.counts());
    result
}

/// Drives one stream to acknowledgement through the chaos, or reports why
/// it could not be.
#[allow(clippy::too_many_arguments)]
fn submit_until_acked(
    plan: &NetFaultPlan,
    sock: &Path,
    tenant: &str,
    stream: &str,
    body: &[u8],
    stream_idx: u64,
    seed: u64,
    tally: &Mutex<NetFaultCounts>,
) -> Result<SoakStats, String> {
    let started = Instant::now();
    let mut stats = SoakStats::default();
    for attempt in 0..MAX_ATTEMPTS {
        if started.elapsed() > STREAM_BUDGET {
            break;
        }
        stats.attempts += 1;
        let conn_id = stream_idx * 1000 + u64::from(attempt);
        let backoff =
            jittered_backoff(Duration::from_millis(20), Duration::from_millis(250), seed ^ stream_idx, attempt);
        match raw_submit(plan, sock, tenant, stream, body, conn_id, tally) {
            Ok(line) if line.starts_with("OK ") => {
                if line.contains("duplicate=1") {
                    stats.duplicate_acks += 1;
                }
                return Ok(stats);
            }
            Ok(line) if line.starts_with("ERR busy retry-after ") => {
                stats.busy_refusals += 1;
                let hinted = line
                    .rsplit(' ')
                    .next()
                    .and_then(|ms| ms.parse::<u64>().ok())
                    .map_or(Duration::ZERO, Duration::from_millis);
                std::thread::sleep(backoff.max(hinted));
            }
            Ok(line) if line.starts_with("ERR quarantined") => {
                stats.quarantine_refusals += 1;
                // Wait out the breaker cooldown, then contend for the
                // half-open probe.
                std::thread::sleep(backoff.max(Duration::from_millis(150)));
            }
            Ok(_) => {
                // Any other ERR (injected worker panic, garbage-corrupted
                // bytes, disk-full commit, drain) or a bare close: a fresh
                // attempt gets fresh fault draws.
                stats.error_replies += 1;
                std::thread::sleep(backoff);
            }
            Err(_) => {
                stats.io_failures += 1;
                std::thread::sleep(backoff);
            }
        }
    }
    Err(format!(
        "stream {tenant}/{stream} not acknowledged after {} attempts in {:?}",
        stats.attempts,
        started.elapsed()
    ))
}

/// Runs the chaos soak with the given seed and stream count; returns the
/// rendered report.
///
/// # Errors
///
/// Returns an error string when any invariant breaks: a stream that never
/// acks, an aggregate that differs from the oracle, data loss across the
/// restart, counters that fail to reconcile, or (for the
/// [default seed](DEFAULT_CHAOS_SEED)) a vacuously quiet run.
pub fn chaos_smoke_with(seed: u64, cases: usize) -> Result<String, String> {
    aprof_faults::install_quiet_hook();
    aprof_obs::enable();
    let cases = cases.max(2);
    let dir = scratch(seed);
    let sock = dir.join("daemon.sock");
    let spool = dir.join("spool");
    let target = Target::Unix(sock.clone());

    // Pre-record every stream and its oracle.
    let mut traces = Vec::new();
    for i in 0..cases {
        let name = WORKLOADS[i % WORKLOADS.len()];
        let size = 16 + ((i as u64) % 4) * 8;
        traces.push(record(name, size)?);
    }
    let oracle = |tenant: &str| -> Result<String, String> {
        let mut reports = Vec::new();
        // The merge ignores order, so the daemon's commit order, which
        // the chaos plan scrambles, need not be reproduced here.
        for (i, trace) in traces.iter().enumerate() {
            if tenant_of(i) == tenant {
                reports.push(one_shot_profile(&trace[..]).map_err(|e| format!("replay: {e}"))?.0);
            }
        }
        Ok(ProfileReport::merge(&reports).to_canonical_text())
    };

    let mut cfg = ServeConfig::new(&spool);
    cfg.unix = Some(sock.clone());
    cfg.faults = Some(FaultConfig::chaos(seed));
    cfg.shed.max_active_conns = 3;
    cfg.shed.retry_after = Duration::from_millis(25);
    cfg.stream_deadline = Duration::from_secs(30);
    cfg.breaker = BreakerConfig {
        failures: 8,
        window: Duration::from_secs(10),
        cooldown: Duration::from_millis(100),
    };
    let net_plan = NetFaultPlan::new(NetFaultConfig::chaos(seed ^ 0x4E45_5443));

    let before_net = [
        counter("faults.net.conn_resets"),
        counter("faults.net.short_reads"),
        counter("faults.net.short_writes"),
        counter("faults.net.dribbles"),
        counter("faults.net.garbage_writes"),
    ];
    let before_panics = counter("serve.supervisor.worker_panics");
    let before_restarts = counter("serve.supervisor.listener_restarts");
    let before_shed = counter("serve.shed.conn_pressure");

    let server = Server::start(cfg).map_err(|e| format!("start: {e}"))?;
    let tally = Mutex::new(NetFaultCounts::default());

    // Deterministic shed probe: park more silent connections than the
    // active-connection ceiling, then submit until the daemon sheds.
    let mut shed_seen = false;
    {
        let mut parked = Vec::new();
        for _ in 0..6 {
            if let Ok(c) = UnixStream::connect(&sock) {
                parked.push(c);
            }
        }
        std::thread::sleep(Duration::from_millis(150));
        for _ in 0..20 {
            match client::submit(&target, "alpha", "shed-probe", &mut &traces[0][..]) {
                Err(aprof_serve::ServeError::Busy { .. }) => {
                    shed_seen = true;
                    break;
                }
                // Anything else (injected accept panic, worker panic,
                // even a lucky commit) — keep probing.
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        drop(parked);
        std::thread::sleep(Duration::from_millis(200));
    }

    // Poller: hammer the read endpoints for the whole soak.
    let stop = AtomicBool::new(false);
    let poller_ok = AtomicU64::new(0);
    let stats = Mutex::new(SoakStats::default());
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                if client::fetch_obs(&target).is_ok() {
                    poller_ok.fetch_add(1, Ordering::SeqCst);
                }
                if client::fetch_tenants(&target).is_ok() {
                    poller_ok.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let submitters: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                let (net_plan, sock, tally, stats, failures) =
                    (&net_plan, &sock, &tally, &stats, &failures);
                scope.spawn(move || {
                    let stream = format!("s-{i:03}");
                    match submit_until_acked(
                        net_plan,
                        sock,
                        tenant_of(i),
                        &stream,
                        trace,
                        i as u64,
                        seed,
                        tally,
                    ) {
                        Ok(s) => stats.lock().unwrap_or_else(|e| e.into_inner()).absorb(&s),
                        Err(e) => failures.lock().unwrap_or_else(|e| e.into_inner()).push(e),
                    }
                })
            })
            .collect();
        // Keep the poller running until every submitter is done, so the
        // read endpoints are exercised *during* the chaos, not after it.
        for handle in submitters {
            let _ = handle.join();
        }
        stop.store(true, Ordering::SeqCst);
    });
    let stats = stats.into_inner().unwrap_or_else(|e| e.into_inner());
    let failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(f) = failures.first() {
        return Err(format!("{} stream(s) never acked; first: {f}", failures.len()));
    }

    // Invariant: byte-identical aggregates, despite every injected fault.
    let alpha = oracle("alpha")?;
    let beta = oracle("beta")?;
    let got_alpha = with_retries("fetch alpha", || client::fetch_profile(&target, "alpha"))?;
    let got_beta = with_retries("fetch beta", || client::fetch_profile(&target, "beta"))?;
    if got_alpha != alpha {
        return Err("tenant alpha's aggregate differs from the one-shot oracle".into());
    }
    if got_beta != beta {
        return Err("tenant beta's aggregate differs from the one-shot oracle".into());
    }

    // Invariant: no double-counting — resubmitting an acked stream is an
    // idempotent duplicate and changes nothing.
    let dup = with_retries("duplicate probe", || {
        client::submit(&target, tenant_of(0), "s-000", &mut &traces[0][..])
    })?;
    if !dup.duplicate {
        return Err("re-submission of an acked stream was not a duplicate".into());
    }
    if with_retries("post-duplicate fetch", || client::fetch_profile(&target, "alpha"))? != alpha {
        return Err("duplicate re-submission changed the aggregate".into());
    }
    with_retries("ping", || client::ping(&target))
        .map_err(|e| format!("daemon unhealthy after soak: {e}"))?;

    // Reconcile the obs counters against the harness's own injection
    // tally (global counters are monotonic and shared, so the delta must
    // account for at least everything this run injected).
    let tally = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    let after_net = [
        counter("faults.net.conn_resets"),
        counter("faults.net.short_reads"),
        counter("faults.net.short_writes"),
        counter("faults.net.dribbles"),
        counter("faults.net.garbage_writes"),
    ];
    let injected =
        [tally.resets, tally.short_reads, tally.short_writes, tally.dribbles, tally.garbage_writes];
    let labels = ["conn_resets", "short_reads", "short_writes", "dribbles", "garbage_writes"];
    for ((before, after), (label, mine)) in
        before_net.iter().zip(&after_net).zip(labels.iter().zip(&injected))
    {
        if after - before < *mine {
            return Err(format!(
                "faults.net.{label} moved by {} but the harness injected {mine}",
                after - before
            ));
        }
    }
    let worker_panics = counter("serve.supervisor.worker_panics") - before_panics;
    let listener_restarts = counter("serve.supervisor.listener_restarts") - before_restarts;
    let sheds = counter("serve.shed.conn_pressure") - before_shed;

    // Kill (no drain) and restart *clean* on the same spool: everything
    // acked must come back byte-identical.
    server.shutdown(true);
    server.wait().map_err(|e| format!("stop: {e}"))?;
    let sock2 = dir.join("daemon2.sock");
    let mut clean = ServeConfig::new(&spool);
    clean.unix = Some(sock2.clone());
    let target2 = Target::Unix(sock2);
    let reborn = Server::start(clean).map_err(|e| format!("restart: {e}"))?;
    if !reborn.damaged.is_empty() {
        return Err(format!("restart found {} damaged spool files", reborn.damaged.len()));
    }
    if client::fetch_profile(&target2, "alpha").map_err(|e| e.to_string())? != alpha
        || client::fetch_profile(&target2, "beta").map_err(|e| e.to_string())? != beta
    {
        return Err("aggregates changed across the restart".into());
    }
    reborn.shutdown(false);
    reborn.wait().map_err(|e| format!("drain: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);

    if seed == DEFAULT_CHAOS_SEED {
        // The default run must actually exercise the machinery.
        if injected.iter().sum::<u64>() == 0 {
            return Err("default seed injected no network faults; soak is vacuous".into());
        }
        if worker_panics + listener_restarts == 0 {
            return Err("default seed triggered no supervised panics; soak is vacuous".into());
        }
        if !shed_seen || sheds == 0 {
            return Err("default seed never shed load; soak is vacuous".into());
        }
    }

    let mut out = String::new();
    writeln!(out, "network-chaos soak (seed {seed:#x}, {cases} streams)").unwrap();
    writeln!(
        out,
        "  submissions: {} attempts for {cases} acks ({} duplicate acks from lost replies)",
        stats.attempts, stats.duplicate_acks
    )
    .unwrap();
    writeln!(
        out,
        "  refusals ridden out: {} busy, {} quarantined, {} other ERR, {} i/o failures",
        stats.busy_refusals, stats.quarantine_refusals, stats.error_replies, stats.io_failures
    )
    .unwrap();
    writeln!(
        out,
        "  injected net faults: {} resets, {} short reads, {} short writes, {} dribbles, {} garbage writes",
        tally.resets, tally.short_reads, tally.short_writes, tally.dribbles, tally.garbage_writes
    )
    .unwrap();
    writeln!(
        out,
        "  daemon-side: {worker_panics} supervised worker panics, {listener_restarts} listener restarts, {sheds} conn-pressure sheds"
    )
    .unwrap();
    writeln!(out, "  poller: {} successful endpoint reads during the soak", poller_ok.load(Ordering::SeqCst))
        .unwrap();
    writeln!(out, "  aggregates byte-identical to the one-shot oracle, before and after restart").unwrap();
    writeln!(out, "all chaos invariants held").unwrap();
    Ok(out)
}

/// Runs the chaos soak with `APROF_CHAOS_CASES` streams (default
/// {`DEFAULT_CASES`}).
///
/// # Errors
///
/// As [`chaos_smoke_with`].
pub fn chaos_smoke(seed: u64) -> Result<String, String> {
    chaos_smoke_with(seed, chaos_cases())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_chaos_soak_passes_and_is_not_vacuous() {
        let report = chaos_smoke_with(DEFAULT_CHAOS_SEED, 4).expect("chaos soak passes");
        assert!(report.contains("all chaos invariants held"), "{report}");
        assert!(report.contains("injected net faults"), "{report}");
    }

    #[test]
    fn alternate_seeds_hold_the_same_invariants() {
        for seed in [0x00DD_BA11, 0x5EED] {
            let report = chaos_smoke_with(seed, 3).expect("chaos soak passes");
            assert!(report.contains("all chaos invariants held"), "{report}");
        }
    }
}

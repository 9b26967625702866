//! In-process integration tests for the service daemon: protocol
//! round-trips, multi-tenant determinism against the one-shot replay
//! oracle, quotas, backpressure, and restart recovery.
//!
//! Obs counters are process-global and the test harness runs tests on
//! parallel threads, so counter assertions here are monotonic (`>=`,
//! before/after deltas) rather than exact.

use aprof_core::ProfileReport;
use aprof_faults::FaultConfig;
use aprof_serve::{
    client, one_shot_profile, RetryPolicy, ServeConfig, ServeError, Server, ServerHandle, Target,
};
use aprof_trace::{Event, NullTool, RoutineTable, ThreadId};
use aprof_vm::ResourceLimits;
use aprof_wire::{WireOptions, WireWriter};
use aprof_workloads::{by_name, WorkloadParams};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A fresh scratch directory per call (unique across tests and runs).
fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aprof-serve-test-{}-{label}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records one workload run into wire bytes, with small chunks so even
/// short submissions span several of them.
fn record_workload(name: &str, size: u64) -> Vec<u8> {
    let wl = by_name(name).expect("workload registered");
    let mut machine = wl.build(&WorkloadParams::new(size, 2));
    let names = machine.program().routines().clone();
    let mut writer = WireWriter::create(
        Vec::new(),
        &names,
        WireOptions { chunk_bytes: 1024, ..Default::default() },
    )
    .unwrap();
    machine.run_recording(&mut NullTool, &mut writer).expect("workload runs");
    writer.finish().unwrap().0
}

/// The CLI oracle: the merge of each trace's one-shot profile.
fn oracle_text(traces: &[&[u8]]) -> String {
    let reports: Vec<ProfileReport> =
        traces.iter().map(|t| one_shot_profile(*t).unwrap().0).collect();
    ProfileReport::merge(&reports).to_canonical_text()
}

fn unix_config(dir: &Path) -> (ServeConfig, Target) {
    let sock = dir.join("daemon.sock");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    cfg.unix = Some(sock.clone());
    (cfg, Target::Unix(sock))
}

/// The listener a test runs over: the unix socket of [`unix_config`], or
/// TCP on `127.0.0.1:0`.
#[derive(Debug, Clone, Copy)]
enum Listen {
    Unix,
    Tcp,
}

/// Starts a daemon with `cfg` listening only on `listen`, and returns it
/// with the client target that reaches it.
fn start_on(listen: Listen, dir: &Path, mut cfg: ServeConfig) -> (ServerHandle, Target) {
    match listen {
        Listen::Unix => {
            let sock = dir.join("daemon.sock");
            cfg.unix = Some(sock.clone());
            (Server::start(cfg).unwrap(), Target::Unix(sock))
        }
        Listen::Tcp => {
            cfg.tcp = Some("127.0.0.1:0".into());
            let server = Server::start(cfg).unwrap();
            let target = Target::Tcp(server.tcp_addr().unwrap().to_string());
            (server, target)
        }
    }
}

/// Joins the daemon on another thread, so that a shutdown which never
/// wakes a listener fails the test instead of hanging it.
fn wait_bounded(server: ServerHandle) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(server.wait()));
    let outcome = finished.recv_timeout(Duration::from_secs(10));
    outcome.expect("wait() did not return within 10 s").unwrap();
}

#[test]
fn unix_round_trip_profile_report_obs() {
    aprof_obs::enable();
    let dir = scratch("roundtrip");
    let (cfg, target) = unix_config(&dir);
    let server = Server::start(cfg).unwrap();
    assert!(server.damaged.is_empty());

    client::ping(&target).unwrap();

    let trace = record_workload("algo.insertion_sort", 48);
    let ack = client::submit(&target, "web", "s-001", &mut &trace[..]).unwrap();
    assert!(ack.events > 0 && ack.chunks > 0 && !ack.duplicate);

    // Live endpoints while the daemon runs.
    let profile = client::fetch_profile(&target, "web").unwrap();
    assert_eq!(profile, oracle_text(&[&trace]));
    let report = client::fetch_report(&target, "web").unwrap();
    assert!(
        report.contains("<!DOCTYPE html>") || report.contains("<html"),
        "not HTML: {}",
        &report[..80.min(report.len())]
    );
    let obs = client::fetch_obs(&target).unwrap();
    assert!(obs.contains("\"version\": 4"), "obs.json should be schema v4");
    assert!(obs.contains("serve.streams_committed"));
    let tenants = client::fetch_tenants(&target).unwrap();
    assert!(tenants.contains("web streams=1"), "unexpected listing: {tenants}");

    // Idempotent duplicate.
    let dup = client::submit(&target, "web", "s-001", &mut &trace[..]).unwrap();
    assert!(dup.duplicate);
    assert_eq!(client::fetch_profile(&target, "web").unwrap(), profile);

    // Unknown tenant is a remote error.
    assert!(client::fetch_profile(&target, "nobody").is_err());

    client::shutdown(&target, false).unwrap();
    wait_bounded(server);
    let snap = aprof_obs::snapshot();
    assert!(snap.counter("serve.streams_committed").unwrap_or(0) >= 1);
    assert!(snap.counter("serve.drain_micros").is_some());
}

#[test]
fn http_endpoints_over_tcp() {
    aprof_obs::enable();
    let dir = scratch("http");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    cfg.tcp = Some("127.0.0.1:0".into());
    let server = Server::start(cfg).unwrap();
    let addr = server.tcp_addr().unwrap();
    let target = Target::Tcp(addr.to_string());

    let trace = record_workload("algo.insertion_sort", 40);
    client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap();

    let get = |path: &str| -> String {
        use std::io::Read;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        body
    };
    assert!(get("/healthz").contains("200 OK"));
    let obs = get("/obs.json");
    assert!(obs.contains("application/json") && obs.contains("\"version\": 4"));
    assert!(get("/tenants").contains("web streams=1"));
    assert!(get("/profile/web").contains("aprof-profile v1"));
    assert!(get("/report/web").contains("text/html"));
    assert!(get("/profile/nobody").contains("404"));
    assert!(get("/nonsense").contains("404"));

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn concurrent_tenants_are_byte_identical_to_one_shot_replay() {
    aprof_obs::enable();
    let dir = scratch("concurrent");
    let (cfg, target) = unix_config(&dir);
    let server = Server::start(cfg).unwrap();

    // Two tenants, two distinct streams each, submitted concurrently.
    let traces: Vec<Vec<u8>> = [
        ("algo.insertion_sort", 36),
        ("algo.merge_sort", 24),
        ("producer_consumer", 20),
        ("algo.binary_search", 48),
    ]
    .iter()
    .map(|&(w, n)| record_workload(w, n))
    .collect();
    std::thread::scope(|scope| {
        for (i, trace) in traces.iter().enumerate() {
            let target = target.clone();
            scope.spawn(move || {
                let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
                let ack = client::submit(&target, tenant, &format!("s-{i:03}"), &mut &trace[..])
                    .unwrap();
                assert!(ack.events > 0);
            });
        }
    });

    // Expected: per-tenant merge of the one-shot replays, whatever the
    // arrival interleaving (s-000 and s-002 to alpha, s-001 and s-003 to
    // beta).
    let alpha = oracle_text(&[&traces[0], &traces[2]]);
    let beta = oracle_text(&[&traces[1], &traces[3]]);
    assert_eq!(client::fetch_profile(&target, "alpha").unwrap(), alpha);
    assert_eq!(client::fetch_profile(&target, "beta").unwrap(), beta);

    server.shutdown(false);
    wait_bounded(server);
}

/// A wire trace of one activation of `f` that costs `cost` blocks.
fn one_activation(cost: u64) -> Vec<u8> {
    let mut names = RoutineTable::new();
    let f = names.intern("f");
    let mut writer = WireWriter::create(Vec::new(), &names, WireOptions::default()).unwrap();
    for event in
        [Event::Call { routine: f }, Event::BasicBlock { cost }, Event::Return { routine: f }]
    {
        writer.push(ThreadId::new(0), event).unwrap();
    }
    writer.finish().unwrap().0
}

/// A valid trace of about 1 MB, larger than a unix socket's buffer.
fn oversized_trace() -> Vec<u8> {
    let mut names = RoutineTable::new();
    let f = names.intern("f");
    let mut writer = WireWriter::create(Vec::new(), &names, WireOptions::default()).unwrap();
    let t = ThreadId::new(0);
    writer.push(t, Event::Call { routine: f }).unwrap();
    for cost in 0..400_000 {
        writer.push(t, Event::BasicBlock { cost }).unwrap();
    }
    writer.push(t, Event::Return { routine: f }).unwrap();
    writer.finish().unwrap().0
}

#[test]
fn out_of_order_commits_past_2_53_match_the_one_shot_merge() {
    aprof_obs::enable();
    let dir = scratch("order");
    let (cfg, target) = unix_config(&dir);
    // The three squares pass 2^60. Added as f64 in commit order (s-2, s-0,
    // s-1) they round to one ULP more than in stream-id order.
    let traces: Vec<Vec<u8>> = [0, 12, 20].iter().map(|k| one_activation((1 << 30) + k)).collect();
    let expected = oracle_text(&[&traces[0], &traces[1], &traces[2]]);
    {
        let server = Server::start(cfg.clone()).unwrap();
        for i in [2, 0, 1] {
            client::submit(&target, "web", &format!("s-{i}"), &mut &traces[i][..]).unwrap();
        }
        assert_eq!(client::fetch_profile(&target, "web").unwrap(), expected);
        let dup = client::submit(&target, "web", "s-0", &mut &traces[0][..]).unwrap();
        assert!(dup.duplicate);
        assert_eq!(client::fetch_profile(&target, "web").unwrap(), expected);
        let tenants = client::fetch_tenants(&target).unwrap();
        assert!(tenants.contains("web streams=3"), "unexpected listing: {tenants}");
        server.shutdown(false);
        wait_bounded(server);
    }
    let server = Server::start(cfg).unwrap();
    assert!(server.damaged.is_empty());
    assert_eq!(client::fetch_profile(&target, "web").unwrap(), expected);
    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn restart_recovers_committed_streams_byte_identically() {
    aprof_obs::enable();
    let dir = scratch("recovery");
    let (cfg, target) = unix_config(&dir);

    let t1 = record_workload("algo.insertion_sort", 44);
    let t2 = record_workload("algo.merge_sort", 20);
    {
        let server = Server::start(cfg.clone()).unwrap();
        client::submit(&target, "web", "a-1", &mut &t1[..]).unwrap();
        client::submit(&target, "web", "a-2", &mut &t2[..]).unwrap();
        server.shutdown(true); // immediate stop, no graceful drain
        wait_bounded(server);
    }
    let expected = oracle_text(&[&t1, &t2]);

    // Simulate a mid-stream kill leftover: recovery must delete it and
    // must not let it perturb the aggregate.
    let part = cfg.spool.join("web").join("killed.part");
    std::fs::write(&part, b"half a stream").unwrap();

    let server = Server::start(cfg.clone()).unwrap();
    assert!(server.damaged.is_empty());
    assert!(!part.exists(), ".part leftovers are discarded on recovery");
    assert_eq!(client::fetch_profile(&target, "web").unwrap(), expected);

    // Re-submitting a recovered stream is still an idempotent duplicate.
    let dup = client::submit(&target, "web", "a-1", &mut &t1[..]).unwrap();
    assert!(dup.duplicate);
    assert_eq!(client::fetch_profile(&target, "web").unwrap(), expected);

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn damaged_spool_files_are_reported_not_dropped() {
    aprof_obs::enable();
    let dir = scratch("damaged");
    let (cfg, _target) = unix_config(&dir);
    let bad = cfg.spool.join("web").join("torn.wire");
    std::fs::create_dir_all(bad.parent().unwrap()).unwrap();
    std::fs::write(&bad, b"not a wire trace at all").unwrap();

    let server = Server::start(cfg).unwrap();
    assert_eq!(server.damaged.len(), 1);
    assert_eq!(server.damaged[0].0, bad);
    assert!(bad.exists(), "damaged files stay on disk for inspection");

    server.shutdown(true);
    wait_bounded(server);
}

#[test]
fn event_quota_refuses_oversized_streams() {
    aprof_obs::enable();
    let dir = scratch("quota");
    let (mut cfg, target) = unix_config(&dir);
    cfg.quota = ResourceLimits { max_instructions: 50, trap: true, ..ResourceLimits::default() };
    let server = Server::start(cfg.clone()).unwrap();

    let trace = record_workload("algo.insertion_sort", 48); // far over 50 events
    let before = aprof_obs::snapshot().counter("serve.quota_trips").unwrap_or(0);
    let err = client::submit(&target, "web", "big", &mut &trace[..]).unwrap_err();
    assert!(err.to_string().contains("quota"), "unexpected refusal: {err}");
    let after = aprof_obs::snapshot().counter("serve.quota_trips").unwrap_or(0);
    assert!(after > before, "a quota refusal must be counted");

    // Nothing was committed: no aggregate, no spool file.
    assert!(client::fetch_profile(&target, "web").is_err());
    assert!(!cfg.spool.join("web").join("big.wire").exists());
    assert!(!cfg.spool.join("web").join("big.part").exists());

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn spool_cells_quota_refuses_commit() {
    aprof_obs::enable();
    let dir = scratch("cells");
    let (mut cfg, target) = unix_config(&dir);
    cfg.quota = ResourceLimits { max_alloc_cells: 4, trap: true, ..ResourceLimits::default() };
    let server = Server::start(cfg.clone()).unwrap();

    let trace = record_workload("algo.insertion_sort", 40); // well over 32 bytes
    let err = client::submit(&target, "web", "fat", &mut &trace[..]).unwrap_err();
    assert!(err.to_string().contains("spool quota"), "unexpected refusal: {err}");
    assert!(!cfg.spool.join("web").join("fat.wire").exists());
    assert!(!cfg.spool.join("web").join("fat.part").exists());

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn backpressure_queues_then_refuses_busy() {
    aprof_obs::enable();
    let dir = scratch("busy");
    let (mut cfg, target) = unix_config(&dir);
    cfg.max_in_flight = 1;
    cfg.queue_timeout = Duration::from_millis(300);
    let server = Server::start(cfg).unwrap();
    let Target::Unix(sock) = &target else { unreachable!() };

    // Occupy the single slot: a submission that sends its header and then
    // stalls mid-body, holding its in-flight slot open.
    let mut stalled = std::os::unix::net::UnixStream::connect(sock).unwrap();
    writeln!(stalled, "APROF/1 SUBMIT tenant=web stream=slow").unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let it get admitted

    let trace = record_workload("algo.insertion_sort", 32);
    let before = aprof_obs::snapshot().counter("serve.backpressure_stalls").unwrap_or(0);
    let err = client::submit(&target, "web", "quick", &mut &trace[..]).unwrap_err();
    assert!(err.to_string().contains("busy"), "expected busy refusal, got: {err}");
    let after = aprof_obs::snapshot().counter("serve.backpressure_stalls").unwrap_or(0);
    assert!(after > before, "a stalled admission must be counted");

    // Release the slot (the stalled client aborts): the never-acked stream
    // must not appear, and new submissions must be admitted again.
    drop(stalled);
    std::thread::sleep(Duration::from_millis(100));
    let ack = client::submit(&target, "web", "quick", &mut &trace[..]).unwrap();
    assert!(ack.events > 0);
    let tenants = client::fetch_tenants(&target).unwrap();
    assert!(tenants.contains("web streams=1"), "only the acked stream counts: {tenants}");

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn draining_daemon_refuses_new_streams_then_stops() {
    for listen in [Listen::Unix, Listen::Tcp] {
        drain_then_stop(listen);
    }
}

fn drain_then_stop(listen: Listen) {
    aprof_obs::enable();
    let dir = scratch("drain");
    let (server, target) = start_on(listen, &dir, ServeConfig::new(dir.join("spool")));

    let trace = record_workload("algo.insertion_sort", 36);
    client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap();
    client::shutdown(&target, false).unwrap();
    wait_bounded(server);

    // Listeners are gone after the drain completes.
    assert!(client::ping(&target).is_err(), "{listen:?} still answers");
}

#[test]
fn unspecified_tcp_address_is_woken_through_loopback() {
    let dir = scratch("anyaddr");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    cfg.tcp = Some("0.0.0.0:0".into());
    // No connection ever arrives: only the shutdown's own wake-up, sent to
    // 127.0.0.1, can end the blocking accept. (Linux also routes a connect
    // to 0.0.0.0 to the local host, so there the mapping itself is not
    // what this test can tell apart.)
    let server = Server::start(cfg).unwrap();
    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn wait_returns_when_the_socket_file_is_removed() {
    let dir = scratch("unlinked");
    let (cfg, target) = unix_config(&dir);
    let Target::Unix(sock) = &target else { unreachable!() };
    let server = Server::start(cfg).unwrap();
    client::ping(&target).unwrap();
    std::fs::remove_file(sock).unwrap();
    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn a_second_daemon_on_the_same_path_outlives_the_first() {
    let dir = scratch("samepath");
    let (cfg, target) = unix_config(&dir);
    let first = Server::start(cfg.clone()).unwrap();
    // The second daemon unlinks the first one's live socket and binds its
    // own file at the same path.
    let mut second_cfg = cfg;
    second_cfg.spool = dir.join("spool2");
    let second = Server::start(second_cfg).unwrap();

    first.shutdown(false);
    wait_bounded(first);
    // The first daemon's exit left the second one's socket in place.
    client::ping(&target).unwrap();
    second.shutdown(false);
    wait_bounded(second);
    assert!(client::ping(&target).is_err());
}

#[test]
fn an_idle_daemon_answers_without_an_accept_delay() {
    let dir = scratch("idle");
    let (cfg, target) = unix_config(&dir);
    let server = Server::start(cfg).unwrap();
    let mut pings: Vec<Duration> = (0..21)
        .map(|_| {
            let t = Instant::now();
            client::ping(&target).unwrap();
            t.elapsed()
        })
        .collect();
    pings.sort();
    assert!(pings[10] < Duration::from_millis(5), "median ping {:?}", pings[10]);
    server.shutdown(false);
    wait_bounded(server);
}

/// Counter delta helper: obs counters are process-global, so assertions
/// compare before/after snapshots instead of absolute values.
fn counter(name: &str) -> u64 {
    aprof_obs::snapshot().counter(name).unwrap_or(0)
}

/// Waits (bounded) for a counter to reach `at_least`: some counters are
/// bumped just *after* the reply the client observed (breaker settling,
/// supervisor restart accounting), so equality right after an ack would
/// race.
fn wait_counter(name: &str, at_least: u64) {
    for _ in 0..100 {
        if counter(name) >= at_least {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("counter {name} never reached {at_least} (now {})", counter(name));
}

#[test]
fn worker_panics_are_supervised_and_feed_the_breaker() {
    aprof_obs::enable();
    let dir = scratch("panic");
    let (mut cfg, target) = unix_config(&dir);
    // Every connection worker draws an injected panic; the breaker trips
    // after two tenant-attributed failures.
    cfg.faults = Some(FaultConfig { panic_per_mille: 1000, ..FaultConfig::off(7) });
    cfg.breaker.failures = 2;
    cfg.breaker.cooldown = Duration::from_secs(60);
    let server = Server::start(cfg.clone()).unwrap();

    let trace = record_workload("algo.insertion_sort", 36);
    let panics_before = counter("serve.supervisor.worker_panics");
    let trips_before = counter("serve.breaker.trips");

    // Two panicked submissions: each is caught, answered with ERR, and
    // attributed to the tenant. The daemon never exits.
    for stream in ["s-1", "s-2"] {
        let err = client::submit(&target, "web", stream, &mut &trace[..]).unwrap_err();
        assert!(
            err.to_string().contains("worker panicked"),
            "expected a supervised-panic refusal, got: {err}"
        );
    }
    assert!(counter("serve.supervisor.worker_panics") >= panics_before + 2);
    assert!(counter("serve.breaker.trips") > trips_before);

    // Third submission is refused by the tripped breaker *before* any
    // worker runs — the typed Quarantined refusal round-trips the wire.
    let err = client::submit(&target, "web", "s-3", &mut &trace[..]).unwrap_err();
    assert!(matches!(err, ServeError::Quarantined), "expected quarantine, got: {err}");

    // Nothing was ever committed or spooled.
    assert!(!cfg.spool.join("web").join("s-1.wire").exists());
    assert!(!cfg.spool.join("web").join("s-1.part").exists());

    server.shutdown(true);
    wait_bounded(server);
}

#[test]
fn breaker_recovers_through_a_half_open_probe() {
    aprof_obs::enable();
    let dir = scratch("breaker");
    let (mut cfg, target) = unix_config(&dir);
    cfg.breaker.failures = 2;
    cfg.breaker.window = Duration::from_secs(30);
    cfg.breaker.cooldown = Duration::from_millis(50);
    let server = Server::start(cfg).unwrap();

    // Two corrupt streams (tenant-attributable wire failures) trip the
    // breaker for `web`.
    let mut bad = record_workload("algo.insertion_sort", 36);
    let mid = bad.len() / 2;
    bad[mid] ^= 0xff;
    for stream in ["b-1", "b-2"] {
        assert!(client::submit(&target, "web", stream, &mut &bad[..]).is_err());
    }
    let err = client::submit(&target, "web", "b-3", &mut &bad[..]).unwrap_err();
    assert!(matches!(err, ServeError::Quarantined), "expected quarantine, got: {err}");
    // Other tenants are unaffected by web's quarantine.
    let good = record_workload("algo.merge_sort", 20);
    client::submit(&target, "other", "ok-1", &mut &good[..]).unwrap();

    // After the cooldown one probe is admitted; its success closes the
    // breaker and the tenant serves normally again.
    std::thread::sleep(Duration::from_millis(80));
    let probes_before = counter("serve.breaker.half_open_probes");
    let recoveries_before = counter("serve.breaker.recoveries");
    let ack = client::submit(&target, "web", "g-1", &mut &good[..]).unwrap();
    assert!(ack.events > 0);
    assert!(counter("serve.breaker.half_open_probes") > probes_before);
    wait_counter("serve.breaker.recoveries", recoveries_before + 1);
    client::submit(&target, "web", "g-2", &mut &good[..]).unwrap();

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn listener_panics_restart_the_accept_loop() {
    for listen in [Listen::Unix, Listen::Tcp] {
        listener_restarts(listen);
    }
}

fn listener_restarts(listen: Listen) {
    aprof_obs::enable();
    let dir = scratch("listener");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    // Every accepted connection panics in the accept loop itself, before
    // a worker exists; the supervisor must keep restarting the loop.
    cfg.faults = Some(FaultConfig { accept_panic_per_mille: 1000, ..FaultConfig::off(11) });
    let (server, target) = start_on(listen, &dir, cfg);

    let restarts_before = counter("serve.supervisor.listener_restarts");
    for _ in 0..3 {
        // The TCP-level connect succeeds; the daemon then drops the
        // connection un-served, so the request itself errors.
        assert!(client::ping(&target).is_err());
    }
    // Each accept-loop panic must be a counted supervisor restart (the
    // count trails the client-visible drop by the catch/backoff window).
    wait_counter("serve.supervisor.listener_restarts", restarts_before + 3);

    // The daemon is still alive and stoppable through its handle.
    server.shutdown(true);
    wait_bounded(server);
}

#[test]
fn conn_pressure_sheds_with_retry_after() {
    for listen in [Listen::Unix, Listen::Tcp] {
        conn_pressure_sheds(listen);
    }
}

fn conn_pressure_sheds(listen: Listen) {
    aprof_obs::enable();
    let dir = scratch("shedconn");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    cfg.shed.max_active_conns = 0; // the submitting connection itself is over the ceiling
    cfg.shed.retry_after = Duration::from_millis(350);
    let (server, target) = start_on(listen, &dir, cfg);

    let shed_before = counter("serve.shed.conn_pressure");
    // The daemon sheds without reading the body. The second trace outgrows
    // the socket buffer, so the daemon hangs up while the client is still
    // writing it: the client must report the shed, not the broken pipe.
    for trace in [record_workload("algo.insertion_sort", 32), oversized_trace()] {
        let err = client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap_err();
        match err {
            ServeError::Busy { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(350), "retry-after hint round-trips");
            }
            other => panic!("expected a busy shed over {listen:?}, got: {other}"),
        }
    }
    assert!(counter("serve.shed.conn_pressure") >= shed_before + 2);
    // Queries are never shed — only ingest work is refused.
    client::ping(&target).unwrap();

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn spool_and_tenant_pressure_shed_deterministically() {
    aprof_obs::enable();
    let dir = scratch("shedspool");
    let (mut cfg, target) = unix_config(&dir);
    let trace = record_workload("algo.insertion_sort", 32);
    let (_, events) = one_shot_profile(&trace[..]).unwrap();
    // Spool capacity admits exactly one copy of the trace; tenant pressure
    // fires once a tenant holds `events` committed events (10% of a budget
    // of 10x). Either threshold alone would shed the second stream.
    cfg.shed.spool_capacity_cells = 1; // any committed stream saturates the spool
    cfg.quota = ResourceLimits {
        max_instructions: events * 10,
        trap: true,
        ..ResourceLimits::default()
    };
    cfg.shed.tenant_pressure_pct = 10;
    let server = Server::start(cfg).unwrap();

    client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap();
    let spool_before = counter("serve.shed.spool_pressure");
    let err = client::submit(&target, "web", "s-2", &mut &trace[..]).unwrap_err();
    assert!(matches!(err, ServeError::Busy { .. }), "expected busy shed, got: {err}");
    assert!(counter("serve.shed.spool_pressure") > spool_before, "spool headroom check fires first");

    server.shutdown(false);
    wait_bounded(server);

    // Same scenario with unlimited spool: now the *tenant-pressure* check
    // is what sheds the second stream (s-1 committed `events` events, 10%
    // of the 10x budget).
    let dir = scratch("shedtenant");
    let (mut cfg, target) = unix_config(&dir);
    cfg.quota = ResourceLimits {
        max_instructions: events * 10,
        trap: true,
        ..ResourceLimits::default()
    };
    cfg.shed.tenant_pressure_pct = 10;
    let server = Server::start(cfg).unwrap();
    client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap();
    let tenant_before = counter("serve.shed.tenant_pressure");
    let err = client::submit(&target, "web", "s-2", &mut &trace[..]).unwrap_err();
    assert!(matches!(err, ServeError::Busy { .. }), "expected busy shed, got: {err}");
    assert!(counter("serve.shed.tenant_pressure") > tenant_before);
    // A different tenant is under no pressure.
    client::submit(&target, "other", "s-1", &mut &trace[..]).unwrap();

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn submit_retrying_rides_out_backpressure() {
    aprof_obs::enable();
    let dir = scratch("retry");
    let (mut cfg, target) = unix_config(&dir);
    cfg.max_in_flight = 1;
    cfg.queue_timeout = Duration::from_millis(100);
    cfg.shed.retry_after = Duration::from_millis(50);
    let server = Server::start(cfg).unwrap();
    let Target::Unix(sock) = &target else { unreachable!() };

    // Hold the single in-flight slot open with a stalled submission.
    let mut stalled = std::os::unix::net::UnixStream::connect(sock).unwrap();
    writeln!(stalled, "APROF/1 SUBMIT tenant=web stream=slow").unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let trace = record_workload("algo.insertion_sort", 32);
    let policy = RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(50),
        cap: Duration::from_millis(200),
        seed: 42,
    };
    std::thread::scope(|scope| {
        let handle =
            scope.spawn(|| client::submit_retrying(&target, "web", "quick", &policy, || Ok(&trace[..])));
        // Release the slot while the retrying client is backing off.
        std::thread::sleep(Duration::from_millis(300));
        drop(stalled);
        let ack = handle.join().unwrap().expect("retries outlast the pressure");
        assert!(ack.events > 0);
    });

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn slow_loris_is_evicted_at_the_stream_deadline() {
    aprof_obs::enable();
    let dir = scratch("loris");
    let (mut cfg, target) = unix_config(&dir);
    cfg.stream_deadline = Duration::from_millis(250);
    let server = Server::start(cfg.clone()).unwrap();
    let Target::Unix(sock) = &target else { unreachable!() };

    let trace = record_workload("algo.insertion_sort", 40);
    let evictions_before = counter("serve.shed.slow_evictions");

    // Dribble the stream one byte at a time: each byte resets the per-read
    // socket timeout, so only the overall deadline can end this.
    let mut conn = std::os::unix::net::UnixStream::connect(sock).unwrap();
    writeln!(conn, "APROF/1 SUBMIT tenant=web stream=drip").unwrap();
    conn.flush().unwrap();
    for byte in trace.iter().take(12) {
        if conn.write_all(std::slice::from_ref(byte)).is_err() {
            break; // the daemon already evicted us
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    use std::io::Read as _;
    let _ = conn.read_to_string(&mut reply);
    assert!(
        reply.contains("deadline exceeded"),
        "expected a deadline eviction reply, got: {reply:?}"
    );
    assert!(counter("serve.shed.slow_evictions") > evictions_before);
    // The evicted stream left nothing behind.
    assert!(!cfg.spool.join("web").join("drip.part").exists());
    assert!(!cfg.spool.join("web").join("drip.wire").exists());
    // The daemon is healthy and the tenant can submit properly afterwards.
    let ack = client::submit(&target, "web", "ok", &mut &trace[..]).unwrap();
    assert!(ack.events > 0);

    server.shutdown(false);
    wait_bounded(server);
}

#[test]
fn corrupt_submission_is_refused_and_not_spooled() {
    aprof_obs::enable();
    let dir = scratch("corrupt");
    let (cfg, target) = unix_config(&dir);
    let server = Server::start(cfg.clone()).unwrap();

    // Flip a payload byte: strict decode must refuse, nothing committed.
    let mut trace = record_workload("algo.insertion_sort", 40);
    let mid = trace.len() / 2;
    trace[mid] ^= 0xff;
    assert!(
        client::submit(&target, "web", "bad", &mut &trace[..]).is_err(),
        "corrupt stream must be refused"
    );
    assert!(client::fetch_profile(&target, "web").is_err());
    assert!(!cfg.spool.join("web").join("bad.wire").exists());

    // A truncated stream (no trailing index) is refused too.
    let good = record_workload("algo.insertion_sort", 40);
    assert!(
        client::submit(&target, "web", "cut", &mut &good[..good.len() / 2]).is_err(),
        "truncated stream must be refused"
    );
    assert!(!cfg.spool.join("web").join("cut.wire").exists());

    server.shutdown(false);
    wait_bounded(server);
}

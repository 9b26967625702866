//! Bounded soak test: corpus-generated traces streamed concurrently into a
//! fault-injected daemon, with client-side connection drops and retries,
//! live endpoints polled throughout, and an in-process restart at the end.
//!
//! The zero-data-loss contract under test:
//!
//! * every *acknowledged* stream appears in its tenant's aggregate,
//! * the aggregate is byte-identical to a one-shot replay + merge of the
//!   acked streams, whatever order they committed in,
//! * and it stays byte-identical across a daemon restart on the same spool.
//!
//! `APROF_SOAK_CASES` scales the corpus (default 6, keeping CI bounded).

use aprof_core::ProfileReport;
use aprof_corpus::{CaseSpec, GenConfig};
use aprof_faults::FaultConfig;
use aprof_serve::{client, one_shot_profile, ServeConfig, ServeError, Server, Target};
use aprof_trace::NullTool;
use aprof_wire::{WireOptions, WireWriter};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn soak_cases() -> usize {
    std::env::var("APROF_SOAK_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aprof-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records one corpus case into wire bytes; `None` if the generated guest
/// does not run to completion (rare — the next seed is tried instead).
fn record_case(seed: u64, cfg: &GenConfig) -> Option<Vec<u8>> {
    let spec = CaseSpec::generate(seed, cfg);
    let mut machine = spec.build();
    let names = machine.program().routines().clone();
    let mut writer = WireWriter::create(
        Vec::new(),
        &names,
        WireOptions { chunk_bytes: 1024, ..Default::default() },
    )
    .unwrap();
    machine.run_recording(&mut NullTool, &mut writer).ok()?;
    Some(writer.finish().unwrap().0)
}

/// Submits with retries: the daemon's fault plan panics/delays workers and
/// corrupts spool writes, and every such failure surfaces to the client as
/// an error or dropped connection — so a real client would retry, and so
/// does this one. A `duplicate` ack means a previous attempt committed
/// right before its connection died; that still counts as acked.
///
/// The torn streams and worker panics count as tenant failures, so they can
/// trip the tenant's breaker. A `quarantined` refusal therefore waits out
/// the breaker `cooldown` before the next attempt, and the loop is bounded
/// by a deadline rather than an attempt count.
fn submit_with_retries(
    target: &Target,
    tenant: &str,
    stream: &str,
    trace: &[u8],
    cooldown: Duration,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        match client::submit(target, tenant, stream, &mut &trace[..]) {
            Ok(_ack) => return,
            Err(ServeError::Quarantined) => std::thread::sleep(cooldown),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("stream {tenant}/{stream} never got acknowledged within 60 s");
}

/// Queries retry too: the fault plan panics workers on *any* connection,
/// including profile fetches.
fn fetch_profile_retry(target: &Target, tenant: &str) -> String {
    for _ in 0..60 {
        match client::fetch_profile(target, tenant) {
            Ok(text) => return text,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("profile fetch for {tenant} kept failing");
}

fn fetch_tenants_retry(target: &Target) -> String {
    for _ in 0..60 {
        match client::fetch_tenants(target) {
            Ok(text) => return text,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("tenant listing kept failing");
}

/// A client-side fault: open a submission for an unrelated stream id, send
/// the header and half the body, then drop the connection without the
/// half-close. The daemon must abort it without acking or committing.
fn abort_mid_stream(target: &Target, tenant: &str, stream: &str, trace: &[u8]) {
    let Target::Unix(sock) = target else { unreachable!("soak uses a unix socket") };
    if let Ok(mut conn) = std::os::unix::net::UnixStream::connect(sock) {
        let _ = writeln!(conn, "APROF/1 SUBMIT tenant={tenant} stream={stream}");
        let _ = conn.write_all(&trace[..trace.len() / 2]);
        // dropped here: reset/EOF mid-body
    }
}

#[test]
fn soak_faulted_daemon_loses_no_acked_data() {
    aprof_obs::enable();
    aprof_faults::install_quiet_hook();
    let dir = scratch();
    let sock = dir.join("daemon.sock");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    cfg.unix = Some(sock.clone());
    cfg.faults = Some(FaultConfig::smoke(0x50AC)); // smoke plan: panics, delays, bad writes
    let target = Target::Unix(sock);

    // Corpus traces: alternate generator fragments across two tenants.
    let gens = [GenConfig::concurrent(), GenConfig::sequential(), GenConfig::mixed()];
    let mut traces: Vec<(String, String, Vec<u8>)> = Vec::new();
    let mut seed = 0x5eed_0001u64;
    while traces.len() < soak_cases() {
        let cfg_g = &gens[traces.len() % gens.len()];
        if let Some(bytes) = record_case(seed, cfg_g) {
            let tenant = if traces.len().is_multiple_of(2) { "tenant-a" } else { "tenant-b" };
            let stream = format!("case-{:03}", traces.len());
            traces.push((tenant.to_owned(), stream, bytes));
        }
        seed = seed.wrapping_add(1);
    }

    let server = Server::start(cfg.clone()).unwrap();

    // Concurrent submissions with injected client-side aborts, while a
    // poller keeps hitting the live endpoints mid-soak.
    let cooldown = cfg.breaker.cooldown;
    std::thread::scope(|scope| {
        for (tenant, stream, bytes) in &traces {
            let target = target.clone();
            scope.spawn(move || {
                abort_mid_stream(&target, tenant, &format!("{stream}-torn"), bytes);
                submit_with_retries(&target, tenant, stream, bytes, cooldown);
            });
        }
        let target = target.clone();
        scope.spawn(move || {
            for _ in 0..20 {
                if let Ok(obs) = client::fetch_obs(&target) {
                    assert!(obs.contains("\"version\": 4"));
                }
                let _ = client::fetch_tenants(&target);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
    });

    // Every acked stream must be present; torn streams must not be. The
    // aggregate must equal the one-shot replay + merge oracle, per tenant.
    let mut expected: Vec<(&str, String)> = Vec::new();
    for tenant in ["tenant-a", "tenant-b"] {
        let reports: Vec<ProfileReport> =
            traces.iter().filter(|(t, _, _)| t == tenant).map(|(_, _, b)| one_shot_profile(&b[..]).unwrap().0).collect();
        expected.push((tenant, ProfileReport::merge(&reports).to_canonical_text()));
    }
    for (tenant, text) in &expected {
        assert_eq!(
            &fetch_profile_retry(&target, tenant),
            text,
            "live aggregate for {tenant} drifted from the one-shot oracle"
        );
    }
    let tenants = fetch_tenants_retry(&target);
    assert!(!tenants.contains("-torn"), "an aborted stream leaked into the state: {tenants}");

    // Hard stop, then restart on the same spool — with faults off, as after
    // an operator intervention. The aggregates must come back byte-identical.
    server.shutdown(true);
    server.wait().unwrap();
    cfg.faults = None;
    let server = Server::start(cfg).unwrap();
    assert!(
        server.damaged.is_empty(),
        "spool damage after soak: {:?}",
        server.damaged
    );
    for (tenant, text) in &expected {
        assert_eq!(
            &client::fetch_profile(&target, tenant).unwrap(),
            text,
            "aggregate for {tenant} changed across restart"
        );
    }

    let snap = aprof_obs::snapshot();
    assert!(snap.counter("serve.streams_committed").unwrap_or(0) >= traces.len() as u64);
    assert!(snap.counter("serve.recovered_streams").unwrap_or(0) >= traces.len() as u64);

    server.shutdown(false);
    server.wait().unwrap();
}

//! Disk-full (ENOSPC) injection at each stage of the spool commit
//! pipeline — `.part` writes, the pre-rename fsync, and the durable
//! rename itself — asserting the same contract at every stage: the client
//! gets a clean `ERR`, nothing is left in the spool, the tenant aggregate
//! never contains the stream, and (for the rename stage, which follows the
//! registry's quota reservation) the reservation is handed back so a later
//! clean daemon on the same spool can accept the stream as *new*, not as a
//! duplicate.

use aprof_faults::FaultConfig;
use aprof_serve::{client, ServeConfig, Server, Target};
use aprof_trace::NullTool;
use aprof_wire::{WireOptions, WireWriter};
use aprof_workloads::{by_name, WorkloadParams};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aprof-serve-enospc-{}-{label}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn unix_config(dir: &Path) -> (ServeConfig, Target) {
    let sock = dir.join("daemon.sock");
    let mut cfg = ServeConfig::new(dir.join("spool"));
    cfg.unix = Some(sock.clone());
    (cfg, Target::Unix(sock))
}

/// Runs one disk-full stage: starts a daemon whose fault plan fails the
/// given commit stage on every stream, submits, and asserts the rollback
/// contract.
fn assert_stage_rolls_back(label: &str, faults: FaultConfig) {
    aprof_obs::enable();
    let dir = scratch(label);
    let (mut cfg, target) = unix_config(&dir);
    cfg.faults = Some(faults);
    let trace = record_workload("algo.insertion_sort", 36);

    {
        let server = Server::start(cfg.clone()).unwrap();
        let err = client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap_err();
        assert!(
            err.to_string().contains("disk full") || err.to_string().contains("i/o error"),
            "[{label}] expected an ENOSPC refusal, got: {err}"
        );
        // No half-committed state: no aggregate, no spool files.
        assert!(client::fetch_profile(&target, "web").is_err(), "[{label}] aggregate must be empty");
        assert!(!cfg.spool.join("web").join("s-1.wire").exists(), "[{label}] no .wire");
        assert!(!cfg.spool.join("web").join("s-1.part").exists(), "[{label}] no .part leftover");
        // The daemon survived the full disk and still answers.
        client::ping(&target).unwrap();
        server.shutdown(false);
        server.wait().unwrap();
    }

    // Restart *clean* on the same spool: the failed stream must not have
    // been latched anywhere — recovery finds nothing, and a re-submission
    // is a fresh commit, not a duplicate.
    cfg.faults = None;
    let server = Server::start(cfg.clone()).unwrap();
    assert!(server.damaged.is_empty(), "[{label}] rollback left damaged spool files");
    assert!(
        client::fetch_profile(&target, "web").is_err(),
        "[{label}] nothing must be recovered for the failed stream"
    );
    let ack = client::submit(&target, "web", "s-1", &mut &trace[..]).unwrap();
    assert!(ack.events > 0 && !ack.duplicate, "[{label}] retry must commit as a new stream");
    assert!(cfg.spool.join("web").join("s-1.wire").exists());
    server.shutdown(false);
    server.wait().unwrap();
}

#[test]
fn disk_full_during_part_writes_rolls_back() {
    // Every spool write fails: the stream dies before it ever decodes.
    assert_stage_rolls_back("write", FaultConfig { io_error_per_mille: 1000, ..FaultConfig::off(3) });
}

#[test]
fn disk_full_during_fsync_rolls_back() {
    // The stream decodes and validates, then the pre-rename fsync fails.
    assert_stage_rolls_back("sync", FaultConfig { sync_error_per_mille: 1000, ..FaultConfig::off(3) });
}

#[test]
fn disk_full_during_rename_rolls_back_registry_commit() {
    aprof_obs::enable();
    // The rename stage is the interesting one: the registry has already
    // reserved the stream's quota when the rename fails, so this pins the
    // hand-back path specifically.
    let injected_before =
        aprof_obs::snapshot().counter("faults.injected_commit_errors").unwrap_or(0);
    assert_stage_rolls_back(
        "rename",
        FaultConfig { rename_error_per_mille: 1000, ..FaultConfig::off(3) },
    );
    let injected_after =
        aprof_obs::snapshot().counter("faults.injected_commit_errors").unwrap_or(0);
    assert!(injected_after > injected_before, "injected commit errors must be counted");
}

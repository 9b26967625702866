//! Per-layer metrics, measured by ablation on a workload's own programs.
//! In-loop timers would perturb events that take nanoseconds, so each
//! layer runs on its own over the same inputs: the native run, then event
//! delivery to a do-nothing tool, then the shadow lookups, the profilers,
//! the wire codec, the socket copy and the spool commit.

use crate::stats::{median, quantile, sorted};
use crate::Program;
use aprof_analysis::bottleneck;
use aprof_core::{ProfileReport, RmsProfiler, TrmsProfiler, DEFAULT_STREAM_BATCH};
use aprof_shadow::ShadowMemory;
use aprof_trace::{Event, NullTool, RecordingTool, Trace};
use aprof_wire::{WireOptions, WireReader, WireWriter};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::thread;
use std::time::Instant;

/// Each probe runs this many times; the median counts.
const REPS: usize = 3;

/// The socket probe moves at least this many bytes, repeating the traces.
const SOCKET_BYTES: usize = 32 << 20;

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The median time of `REPS` runs of `f`, and the last run's result.
fn med_secs<R>(mut f: impl FnMut() -> Result<R, String>) -> Result<(R, f64), String> {
    med_secs_after(|| (), |()| f())
}

/// As `med_secs`, timing only `f` on what an untimed `prepare` returns.
fn med_secs_after<S, R>(
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S) -> Result<R, String>,
) -> Result<(R, f64), String> {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let input = prepare();
        let (out, s) = secs(|| f(input));
        last = Some(out?);
        times.push(s);
    }
    Ok((last.expect("REPS > 0"), median(&times)))
}

#[derive(Default)]
struct Totals {
    programs: f64,
    build_s: f64,
    native_s: f64,
    null_s: f64,
    blocks: f64,
    switches: f64,
    events: f64,
    trms_s: f64,
    rms_s: f64,
    report_s: f64,
    fit_s: f64,
    accesses: f64,
    shadow_s: f64,
    guest_bytes: f64,
    shadow_bytes: f64,
    renumberings: f64,
    encode_s: f64,
    decode_s: f64,
    wire_bytes: f64,
}

/// Runs every probe over `programs` and returns the per-layer metrics.
/// `merge_count` is how many stream reports the workload's aggregate
/// merges (the programs' reports are repeated to that count); `scratch`
/// holds the spool-commit probe's files.
pub fn probe(
    programs: &[Program],
    merge_count: usize,
    scratch: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut t = Totals::default();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for p in programs {
        let names = p.build().program().routines().clone();
        let (_, build_s) = med_secs(|| Ok(p.build()))?;
        // The machines are returned, so that freeing them is not timed.
        let ((outcome, machine), native_s) =
            med_secs_after(|| p.build(), |mut m| Ok((m.run_native().map_err(|e| e.to_string())?, m)))?;
        let guest_bytes = machine.memory().resident_bytes();
        let (_, null_s) = med_secs_after(
            || (p.build(), NullTool::new()),
            |(mut m, mut tool)| m.run_with(&mut tool).map(|_| m).map_err(|e| e.to_string()),
        )?;

        let mut rec = RecordingTool::new();
        p.build().run_with(&mut rec).map_err(|e| e.to_string())?;
        let trace: Trace = rec.into_trace().into_iter().map(|te| (te.thread, te.event)).collect();

        let (mut trms_times, mut report_times, mut report) = (Vec::new(), Vec::new(), None);
        for _ in 0..REPS {
            let mut profiler = TrmsProfiler::new();
            let ((), s) = secs(|| trace.replay_batched(&mut profiler, DEFAULT_STREAM_BATCH));
            trms_times.push(s);
            let (r, s) = secs(|| profiler.into_report(&names));
            report_times.push(s);
            report = Some(r);
        }
        let report = report.expect("REPS > 0");
        let (_, rms_s) = med_secs(|| {
            let mut profiler = RmsProfiler::new();
            trace.replay_batched(&mut profiler, DEFAULT_STREAM_BATCH);
            Ok(profiler)
        })?;
        let (_, fit_s) = med_secs(|| Ok(black_box(bottleneck::analyze(&report)).len()))?;

        let addrs: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|te| match te.event {
                Event::Read { addr } | Event::Write { addr } => Some(addr),
                _ => None,
            })
            .collect();
        let (_, shadow_s) = med_secs(|| {
            let mut shadow: ShadowMemory<u64> = ShadowMemory::new();
            for (i, &addr) in addrs.iter().enumerate() {
                black_box(shadow.get_set(addr, i as u64));
            }
            Ok(shadow)
        })?;

        let (bytes, encode_s) = med_secs(|| {
            let mut writer =
                WireWriter::create(Vec::new(), &names, WireOptions::default()).map_err(|e| e.to_string())?;
            for te in trace.events() {
                writer.push(te.thread, te.event).map_err(|e| e.to_string())?;
            }
            writer.finish().map(|(bytes, _)| bytes).map_err(|e| e.to_string())
        })?;
        let (decoded, decode_s) = med_secs(|| {
            let reader = WireReader::new(&bytes[..]).map_err(|e| e.to_string())?.strict();
            let mut n = 0usize;
            for item in reader {
                black_box(item.map_err(|e| e.to_string())?);
                n += 1;
            }
            Ok(n)
        })?;
        if decoded != trace.len() {
            return Err(format!("{}: decoded {decoded} of {} events", p.workload.name, trace.len()));
        }

        t.programs += 1.0;
        t.build_s += build_s;
        t.native_s += native_s;
        t.null_s += null_s;
        t.blocks += outcome.total_blocks as f64;
        t.switches += outcome.switches as f64;
        t.events += trace.len() as f64;
        t.trms_s += median(&trms_times);
        t.rms_s += rms_s;
        t.report_s += median(&report_times);
        t.fit_s += fit_s;
        t.accesses += addrs.len() as f64;
        t.shadow_s += shadow_s;
        t.guest_bytes += guest_bytes as f64;
        t.shadow_bytes += report.global.shadow_bytes as f64;
        t.renumberings += report.global.renumberings as f64;
        t.encode_s += encode_s;
        t.decode_s += decode_s;
        t.wire_bytes += bytes.len() as f64;
        reports.push(report);
        traces.push(bytes);
    }
    if reports.is_empty() {
        return Err("no programs to probe".into());
    }

    let socket_ns_per_byte = socket_probe(&traces)?;
    let fsync_rename_ms_p50 = fsync_probe(&traces, scratch)?;
    let all: Vec<ProfileReport> = reports.iter().cycle().take(merge_count.max(1)).cloned().collect();
    let (merged, merge_s) = med_secs(|| Ok(ProfileReport::merge(&all)))?;
    let (_, canonical_s) = med_secs(|| Ok(merged.to_canonical_text()))?;

    Ok(BTreeMap::from([
        ("vm.ns_per_block", t.native_s / t.blocks * 1e9),
        ("vm.build_us_per_program", t.build_s / t.programs * 1e6),
        ("vm.switches_per_kblock", t.switches / t.blocks * 1e3),
        ("trace.delivery_ns_per_event", (t.null_s - t.native_s) / t.events * 1e9),
        ("shadow.ns_per_access", t.shadow_s / t.accesses * 1e9),
        ("shadow.space_factor", (t.guest_bytes + t.shadow_bytes) / t.guest_bytes),
        ("core.trms_ns_per_event", t.trms_s / t.events * 1e9),
        ("core.rms_ns_per_event", t.rms_s / t.events * 1e9),
        ("core.renumberings", t.renumberings),
        ("core.report_ms", t.report_s / t.programs * 1e3),
        ("core.merge_ms", merge_s * 1e3),
        ("core.merge_streams", all.len() as f64),
        ("core.canonical_text_ms", canonical_s * 1e3),
        ("analysis.fit_ms", t.fit_s / t.programs * 1e3),
        ("wire.encode_ns_per_event", t.encode_s / t.events * 1e9),
        ("wire.decode_ns_per_event", t.decode_s / t.events * 1e9),
        ("wire.bytes_per_event", t.wire_bytes / t.events),
        ("serve.socket_ns_per_byte", socket_ns_per_byte),
        ("serve.fsync_rename_ms_p50", fsync_rename_ms_p50),
    ]))
}

/// Nanoseconds per byte to copy the encoded traces through a
/// `UnixStream::pair`, a writer thread feeding a reader.
fn socket_probe(traces: &[Vec<u8>]) -> Result<f64, String> {
    let per_pass: usize = traces.iter().map(Vec::len).sum();
    let passes = SOCKET_BYTES.div_ceil(per_pass.max(1));
    let (_, s) = med_secs(|| {
        let (mut tx, mut rx) = UnixStream::pair().map_err(|e| e.to_string())?;
        thread::scope(|scope| {
            let writer = scope.spawn(move || -> std::io::Result<()> {
                for _ in 0..passes {
                    for bytes in traces {
                        tx.write_all(bytes)?;
                    }
                }
                Ok(())
            });
            let mut buf = vec![0u8; 64 << 10];
            let mut got = 0usize;
            loop {
                match rx.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => got += n,
                    Err(e) => return Err(e.to_string()),
                }
            }
            writer.join().expect("socket probe writer panicked").map_err(|e| e.to_string())?;
            if got != passes * per_pass {
                return Err(format!("socket probe moved {got} of {} bytes", passes * per_pass));
            }
            Ok(())
        })
    })?;
    Ok(s / (passes * per_pass) as f64 * 1e9)
}

/// Median milliseconds to make one trace-sized file durable the way the
/// spool commits a stream: write, `sync_data`, rename, directory sync.
fn fsync_probe(traces: &[Vec<u8>], scratch: &Path) -> Result<f64, String> {
    let dir = scratch.join("fsync-probe");
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (part, wire) = (dir.join("probe.part"), dir.join("probe.wire"));
    let mut samples = Vec::with_capacity(traces.len() * REPS);
    for bytes in traces {
        for _ in 0..REPS {
            let (res, s) = secs(|| -> std::io::Result<()> {
                let mut f = File::create(&part)?;
                f.write_all(bytes)?;
                f.sync_data()?;
                fs::rename(&part, &wire)?;
                File::open(&dir)?.sync_data()
            });
            res.map_err(|e| format!("fsync probe: {e}"))?;
            samples.push(s * 1e3);
        }
    }
    fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(quantile(&sorted(&samples), 0.5))
}

//! Wire-format benchmark: the machinery behind `BENCH_wire.json`.
//!
//! Captures one deterministic workload run, then measures the chunked
//! binary trace format against the text format on the axes the design
//! cares about: encode and decode throughput (events per second), and
//! wire-vs-text size ratio.

use crate::driver::Json;
use crate::{bench_size, best_of};
use aprof_trace::{textio, RecordingTool, Trace};
use aprof_wire::{WireOptions, WireReader, WireSummary, WireWriter};
use aprof_workloads::{by_name, WorkloadParams};

/// The reference workload captured for the measurement. `350.md` is the
/// molecular-dynamics analog: address-heavy and multi-threaded.
const WORKLOAD: &str = "350.md";

/// Chunk payload target for the benchmark. The 64 KiB default would hold
/// the whole benchmark trace in one chunk; 4 KiB yields several chunks, so
/// per-chunk framing and CRC work is part of what is timed, while staying
/// in the format's realistic operating range.
const BENCH_CHUNK_BYTES: usize = 4096;

/// Generates the `BENCH_wire.json` report.
///
/// All phases re-use one captured event stream, so the encode, decode and
/// size numbers describe the same trace.
pub fn wire_report() -> Json {
    wire_report_sized(bench_size())
}

fn wire_report_sized(size: u64) -> Json {
    let wl = by_name(WORKLOAD).expect("reference workload registered");
    let params = WorkloadParams::new(size, 4);
    let mut machine = wl.build(&params);
    let names = machine.program().routines().clone();
    let mut recorder = RecordingTool::new();
    machine.run_with(&mut recorder).expect("workload runs");

    let mut trace = Trace::new();
    for te in recorder.into_trace() {
        trace.push(te.thread, te.event);
    }
    let events = trace.len() as u64;

    let encode = || -> (Vec<u8>, WireSummary) {
        let mut writer =
            WireWriter::create(
                Vec::new(),
                &names,
                WireOptions { chunk_bytes: BENCH_CHUNK_BYTES, ..Default::default() },
            )
            .expect("header writes");
        for te in trace.events() {
            writer.push(te.thread, te.event).expect("event encodes");
        }
        writer.finish().expect("trace seals")
    };
    let encode_secs = best_of(7, || {
        encode();
    });
    let (wire, summary) = encode();
    let text = textio::to_text(&trace);

    let decode_secs = best_of(7, || {
        let reader = WireReader::new(&wire[..]).expect("valid file");
        let mut decoded = 0u64;
        for r in reader {
            r.expect("valid event");
            decoded += 1;
        }
        assert_eq!(decoded, events);
    });

    let text_decode_secs = best_of(7, || {
        let parsed = textio::from_reader(text.as_bytes()).expect("valid text");
        assert_eq!(parsed.len() as u64, events);
    });

    let ev = events as f64;
    Json::Obj(vec![
        ("benchmark".into(), Json::Str("wire trace format".into())),
        ("workload".into(), Json::Str(WORKLOAD.into())),
        ("size".into(), Json::Int(size)),
        ("events".into(), Json::Int(events)),
        ("chunks".into(), Json::Int(u64::from(summary.chunks))),
        ("chunk_bytes".into(), Json::Int(BENCH_CHUNK_BYTES as u64)),
        ("wire_bytes".into(), Json::Int(wire.len() as u64)),
        ("text_bytes".into(), Json::Int(text.len() as u64)),
        ("wire_vs_text_size_ratio".into(), Json::Num(wire.len() as f64 / text.len() as f64)),
        ("encode_events_per_sec".into(), Json::Num(ev / encode_secs)),
        ("decode_events_per_sec".into(), Json::Num(ev / decode_secs)),
        ("text_decode_events_per_sec".into(), Json::Num(ev / text_decode_secs)),
        ("decode_vs_text_speedup".into(), Json::Num(text_decode_secs / decode_secs)),
        (
            "note".into(),
            Json::Str("one captured run of the reference workload, best-of-7 timings".into()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_report_has_sane_fields() {
        let report = wire_report_sized(48);
        let rendered = report.render();
        for key in ["wire_vs_text_size_ratio", "decode_events_per_sec", "chunks"] {
            assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
        }
        let Json::Obj(fields) = &report else { panic!("report is an object") };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(Json::Num(ratio)) = get("wire_vs_text_size_ratio") else {
            panic!("ratio missing")
        };
        assert!(*ratio > 0.0 && *ratio < 1.0, "wire should be smaller than text: {ratio}");
        let Some(Json::Int(events)) = get("events") else { panic!("events missing") };
        assert!(*events > 0);
    }
}

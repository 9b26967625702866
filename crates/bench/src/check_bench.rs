//! Static-verifier benchmark: the machinery behind `BENCH_check.json`.
//!
//! The verifier gates every `run`/`record`/`asm` invocation, so its cost
//! must stay a small fraction of the work it fronts. This report measures
//! full-verification throughput (guest instructions checked per second) on
//! the largest bundled workload and compares a complete check against one
//! traced capture run of the same program — the cheapest downstream action
//! the check could delay.

use crate::driver::Json;
use crate::{bench_size, best_of};
use aprof_check::check_program;
use aprof_trace::RecordingTool;
use aprof_workloads::{by_name, WorkloadParams};
use std::time::Instant;

/// The reference workload verified for the measurement. `mysqld` is the
/// largest program in the registry: the most functions, blocks and
/// concurrency structure, so it exercises every analysis pass.
const WORKLOAD: &str = "mysqld";

/// Generates the `BENCH_check.json` report.
///
/// Verification is a function of the program alone, so the check timings
/// are independent of workload size; `size` only scales the capture run
/// the check is compared against. The verdict fields double as a guard:
/// the report generation fails if the reference workload ever stops
/// verifying clean.
pub fn check_report() -> Json {
    check_report_sized(bench_size())
}

fn check_report_sized(size: u64) -> Json {
    let wl = by_name(WORKLOAD).expect("reference workload registered");
    let params = WorkloadParams::new(size, 4);

    let build_secs = best_of(3, || {
        wl.build(&params);
    });
    let mut machine = wl.build(&params);

    let report = check_program(machine.program());
    assert!(!report.has_errors(), "reference workload must verify clean");
    let stats = report.stats;

    let check_secs = best_of(3, || {
        let r = check_program(machine.program());
        assert_eq!(r.stats.instrs, stats.instrs);
    });

    let mut recorder = RecordingTool::new();
    let capture_t = Instant::now();
    machine.run_with(&mut recorder).expect("workload runs");
    let capture_secs = capture_t.elapsed().as_secs_f64().max(1e-9);
    let events = recorder.into_trace().len() as u64;

    Json::Obj(vec![
        ("benchmark".into(), Json::Str("static verifier".into())),
        ("workload".into(), Json::Str(WORKLOAD.into())),
        ("size".into(), Json::Int(size)),
        ("functions".into(), Json::Int(stats.functions as u64)),
        ("blocks".into(), Json::Int(stats.blocks as u64)),
        ("instrs".into(), Json::Int(stats.instrs as u64)),
        ("errors".into(), Json::Int(report.count(aprof_check::Severity::Error) as u64)),
        ("warnings".into(), Json::Int(report.count(aprof_check::Severity::Warning) as u64)),
        ("notes".into(), Json::Int(report.count(aprof_check::Severity::Note) as u64)),
        ("check_secs".into(), Json::Num(check_secs)),
        ("check_instrs_per_sec".into(), Json::Num(stats.instrs as f64 / check_secs)),
        ("build_secs".into(), Json::Num(build_secs)),
        ("capture_secs".into(), Json::Num(capture_secs)),
        ("capture_events".into(), Json::Int(events)),
        ("check_vs_capture_ratio".into(), Json::Num(check_secs / capture_secs)),
        (
            "note".into(),
            Json::Str(
                "best-of-3 full verification of the largest bundled workload \
                 (structure, dataflow fixpoint, call-graph, concurrency passes) \
                 against one traced capture run of the same program; \
                 check_vs_capture_ratio is the gating overhead the verifier \
                 adds ahead of the cheapest profiled execution"
                    .into(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_report_has_sane_fields() {
        let report = check_report_sized(32);
        let rendered = report.render();
        for key in ["check_instrs_per_sec", "check_vs_capture_ratio", "instrs", "errors"] {
            assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
        }
        let Json::Obj(fields) = &report else { panic!("report is an object") };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(Json::Int(errors)) = get("errors") else { panic!("errors missing") };
        assert_eq!(*errors, 0, "reference workload must verify clean");
        let Some(Json::Num(rate)) = get("check_instrs_per_sec") else { panic!("rate missing") };
        assert!(*rate > 0.0);
        let Some(Json::Int(instrs)) = get("instrs") else { panic!("instrs missing") };
        assert!(*instrs > 0);
    }
}

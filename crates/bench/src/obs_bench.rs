//! Observability-overhead benchmark: the machinery behind `BENCH_obs.json`.
//!
//! Measures the cost of the `--observe` self-metrics layer by timing the
//! same deterministic profiled workload run with the layer off (baseline)
//! and on (observed), best-of-N each, and reporting the relative overhead.
//! The design target is < 5%: the observed path pays one local integer bump
//! per event inside the VM's `ObsTool` and touches the shared atomics only
//! at coarse boundaries (every 4096 basic blocks, per shadow allocation,
//! once at profiler finish).

use crate::driver::Json;
use crate::{bench_size, best_of};
use aprof_core::TrmsProfiler;
use aprof_workloads::{by_name, WorkloadParams};

/// The reference workload. `350.md` is the molecular-dynamics analog:
/// address-heavy and multi-threaded, so the per-event hook cost dominates.
const WORKLOAD: &str = "350.md";

/// Timed runs per configuration; best-of filters scheduler noise.
const RUNS: usize = 5;

/// One full profiled run of the reference workload; returns the activation
/// count so the two configurations can be checked for identical work.
fn profiled_run(size: u64) -> u64 {
    let wl = by_name(WORKLOAD).expect("reference workload registered");
    let params = WorkloadParams::new(size, 4);
    let mut machine = wl.build(&params);
    let names = machine.program().routines().clone();
    let mut profiler = TrmsProfiler::new();
    machine.run_with(&mut profiler).expect("workload runs");
    let (report, _) = profiler.into_report_and_cct(&names);
    report.global.activations
}

/// Generates the `BENCH_obs.json` report.
///
/// Both configurations run the identical deterministic workload under the
/// trms profiler; only the global observe switch differs. The observed
/// configuration also reports the event count the self-metrics layer saw,
/// as a sanity check that it was actually on.
pub fn obs_report() -> Json {
    obs_report_sized(bench_size())
}

fn obs_report_sized(size: u64) -> Json {
    // One warm-up run outside the timings: first touch pays one-time page
    // faults and lazy-init costs that belong to neither configuration.
    let activations = profiled_run(size);

    aprof_obs::disable();
    let baseline_secs = best_of(RUNS, || {
        assert_eq!(profiled_run(size), activations);
    });

    aprof_obs::reset();
    aprof_obs::enable();
    let observed_secs = best_of(RUNS, || {
        assert_eq!(profiled_run(size), activations);
    });
    let snap = aprof_obs::snapshot();
    aprof_obs::disable();
    aprof_obs::reset();

    let vm_events = snap.counter("vm.events").unwrap_or(0);
    let overhead = observed_secs / baseline_secs - 1.0;
    Json::Obj(vec![
        ("benchmark".into(), Json::Str("observability overhead".into())),
        ("workload".into(), Json::Str(WORKLOAD.into())),
        ("size".into(), Json::Int(size)),
        ("runs_per_config".into(), Json::Int(RUNS as u64)),
        ("activations".into(), Json::Int(activations)),
        ("observed_vm_events".into(), Json::Int(vm_events)),
        ("baseline_secs".into(), Json::Num(baseline_secs)),
        ("observed_secs".into(), Json::Num(observed_secs)),
        ("overhead_percent".into(), Json::Num(overhead * 100.0)),
        ("target_percent".into(), Json::Num(5.0)),
        ("within_target".into(), Json::Bool(overhead < 0.05)),
        (
            "note".into(),
            Json::Str(
                "best-of-N wall-clock of identical deterministic profiled runs \
                 with the self-metrics layer off vs on; negative overhead means \
                 the difference is below timing noise"
                    .into(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_has_sane_fields() {
        let report = obs_report_sized(48);
        let rendered = report.render();
        for key in ["overhead_percent", "baseline_secs", "observed_vm_events", "within_target"] {
            assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
        }
        let Json::Obj(fields) = &report else { panic!("report is an object") };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(Json::Int(events)) = get("observed_vm_events") else {
            panic!("observed_vm_events missing")
        };
        assert!(*events > 0, "self-metrics layer saw no events while enabled");
        let Some(Json::Num(baseline)) = get("baseline_secs") else { panic!("baseline missing") };
        assert!(*baseline > 0.0);
    }
}

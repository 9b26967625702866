//! Bound-inference benchmark: the machinery behind `BENCH_bound.json`.
//!
//! The bound pass runs per-PR over every example and bundled workload in
//! CI and inside the corpus fuzzer's fifth oracle, so its throughput
//! matters: the acceptance floor is one million guest instructions
//! analyzed per second. This report measures full inference (dominators,
//! natural loops, trip classification, SCC recursion analysis, bottom-up
//! summaries) over the largest bundled workload, plus an aggregate sweep
//! across the whole registry.

use crate::driver::Json;
use crate::best_of;
use aprof_bound::{infer_program, Bound};
use aprof_workloads::{all, by_name, WorkloadParams};

/// The reference workload analyzed for the headline number. `mysqld` is
/// the largest program in the registry: the most functions, blocks and
/// loop structure, so it exercises every analysis phase.
const WORKLOAD: &str = "mysqld";

/// Generates the `BENCH_bound.json` report.
///
/// Inference is a function of the program alone (no execution), so the
/// timings are workload-size independent; size only affects the build.
pub fn bound_report() -> Json {
    let wl = by_name(WORKLOAD).expect("reference workload registered");
    let params = WorkloadParams::new(64, 4);
    let machine = wl.build(&params);
    let program = machine.program();

    let report = infer_program(program);
    let stats = report.stats;
    let unknown = report.bounds.iter().filter(|b| b.bound == Bound::Unknown).count();

    let infer_secs = best_of(5, || {
        let r = infer_program(program);
        assert_eq!(r.stats.instrs, stats.instrs);
    });

    // Aggregate sweep: every registered workload once, instruction-weighted.
    let registry: Vec<_> = all().iter().map(|w| w.build(&params)).collect();
    let sweep_instrs: u64 = registry
        .iter()
        .flat_map(|m| m.program().functions())
        .map(|f| f.blocks.iter().map(|b| b.instrs.len() as u64 + 1).sum::<u64>())
        .sum();
    let sweep_secs = best_of(3, || {
        for m in &registry {
            infer_program(m.program());
        }
    });

    Json::Obj(vec![
        ("benchmark".into(), Json::Str("bound inference".into())),
        ("workload".into(), Json::Str(WORKLOAD.into())),
        ("functions".into(), Json::Int(stats.functions as u64)),
        ("blocks".into(), Json::Int(stats.blocks as u64)),
        ("instrs".into(), Json::Int(stats.instrs as u64)),
        ("loops".into(), Json::Int(stats.loops as u64)),
        ("unknown_bounds".into(), Json::Int(unknown as u64)),
        ("infer_secs".into(), Json::Num(infer_secs)),
        ("infer_instrs_per_sec".into(), Json::Num(stats.instrs as f64 / infer_secs)),
        ("sweep_workloads".into(), Json::Int(registry.len() as u64)),
        ("sweep_instrs".into(), Json::Int(sweep_instrs)),
        ("sweep_secs".into(), Json::Num(sweep_secs)),
        ("sweep_instrs_per_sec".into(), Json::Num(sweep_instrs as f64 / sweep_secs)),
        (
            "note".into(),
            Json::Str(
                "best-of-5 full bound inference (dominators, natural loops, \
                 trip classification, SCC recursion analysis, interprocedural \
                 summaries) over the largest bundled workload, plus a \
                 best-of-3 sweep across the whole workload registry; the \
                 acceptance floor is 1e6 instrs/sec on the headline number"
                    .into(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_report_meets_throughput_floor() {
        let report = bound_report();
        let Json::Obj(fields) = &report else { panic!("report is an object") };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(Json::Num(rate)) = get("infer_instrs_per_sec") else { panic!("rate missing") };
        assert!(*rate > 0.0);
        let Some(Json::Num(sweep)) = get("sweep_instrs_per_sec") else { panic!("sweep missing") };
        assert!(*sweep > 0.0);
        // The 1M instrs/s acceptance floor is a property of the release
        // artifact (CI: `repro --bench-bound-json`); an unoptimized test
        // binary sits within a small factor of it, so only enforce the
        // floor when optimizations are on.
        if !cfg!(debug_assertions) {
            assert!(*rate >= 1e6, "bound inference below 1M instrs/s: {rate}");
            assert!(*sweep >= 1e6, "registry sweep below 1M instrs/s: {sweep}");
        }
        let Some(Json::Int(instrs)) = get("instrs") else { panic!("instrs missing") };
        assert!(*instrs > 0);
    }
}

//! A `--quick` run (run lengths divided by 20) of every workload through
//! the real binary, untraced and traced: each must finish without a failed
//! operation or check. The binary and `BENCHMARK.json` must agree both ways
//! on the workload names and on the metric names and units.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// The value of the string field `field` in a flat JSON object text.
fn field<'a>(obj: &'a str, field: &str) -> Option<&'a str> {
    let key = format!("\"{field}\": \"");
    let rest = &obj[obj.find(&key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of each object in the array under `key` (unit empty for
/// workloads).
fn declared(key: &str) -> BTreeSet<(String, String)> {
    let body = &DECLARED[DECLARED.find(&format!("\"{key}\"")).expect("section present")..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let name = field(obj, "name").expect("every entry has a name");
            (name.to_owned(), field(obj, "unit").unwrap_or_default().to_owned())
        })
        .collect()
}

/// `(name, unit)` of each metric of a result line.
fn emitted(line: &str) -> BTreeSet<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    // Every piece but the last ends with a quoted metric name; every piece
    // but the first starts with that metric's value and unit.
    let pieces: Vec<&str> = metrics.split(": {\"value\"").collect();
    pieces
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').nth(1).expect("quoted metric name");
            (name.to_owned(), field(w[1], "unit").expect("a unit").to_owned())
        })
        .collect()
}

fn benchmark(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aprof-benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark runs")
}

/// The workload names the binary lists in its usage text.
fn listed_workloads(dir: &Path) -> BTreeSet<(String, String)> {
    let out = benchmark(dir, &["--workload", "?"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find_map(|l| l.strip_prefix("workloads: ")).expect("a workload list");
    let names = &line[..line.find(" (").expect("list end")];
    names.split(' ').map(|n| (n.to_owned(), String::new())).collect()
}

fn run(dir: &Path, workload: &str, trace: &str) -> String {
    let out = benchmark(dir, &["--workload", workload, "--seed", "3", "--quick", "--trace", trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

#[test]
fn quick_runs_fail_nothing_and_print_the_declared_metrics() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("aprof-benchmark-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let workloads = declared("workloads");
    assert_eq!(listed_workloads(&dir), workloads, "workloads of the binary and BENCHMARK.json");
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(&dir, workload, trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            assert_eq!(emitted(&line), declared(section), "{workload} --trace {trace}");
        }
    }
    let layers =
        std::fs::read_to_string(dir.join("target/aprof-benchmark/layers.json")).expect("layers.json");
    for (workload, _) in &workloads {
        assert!(layers.contains(&format!("\"{workload}\": {{")), "layers.json lacks {workload}");
    }
    for (metric, _) in declared("per_layer") {
        assert!(layers.contains(&format!("\"{metric}\": ")), "layers.json lacks {metric}");
    }
}

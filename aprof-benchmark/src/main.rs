//! `aprof-benchmark`: the end-to-end and per-layer benchmark of both
//! profiling paths of aprof-rs — offline `aprof-cli run` (build, profiled
//! run, report, fitted cost curves) and the `aprof-serve` daemon (capture,
//! submit, ack, tenant profile).
//!
//! ```text
//! aprof-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Without `--workload`, every workload runs, each in a child process of
//! its own. The last line of standard output is a JSON result. README.md
//! defines every workload and metric.

#![forbid(unsafe_code)]

mod daemon;
mod layers;
mod offline;
mod serve;
mod spans;
mod stats;

use aprof_vm::Machine;
use aprof_workloads::{Workload, WorkloadParams};
use spans::Spans;
use stats::{quantile, tail_quantile, Rng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Where the benchmark writes, relative to the directory it runs in.
const OUT_DIR: &str = "target/aprof-benchmark";

/// Run length when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// `--quick` divides every run length by this.
const QUICK_DIVISOR: f64 = 20.0;

type RunFn = fn(&Ctx) -> Result<Outcome, String>;

/// The workloads, by the names `BENCHMARK.json` declares.
const WORKLOADS: &[(&str, RunFn)] = &[
    ("run-kvstore", offline::run_kvstore),
    ("run-suite", offline::run_suite),
    ("serve-bulk", serve::bulk),
    ("serve-mixed", serve::mixed),
];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("profile_blocks_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("slowdown_vs_native", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("vm.ns_per_block", "ns"),
    ("vm.build_us_per_program", "us"),
    ("vm.switches_per_kblock", "count"),
    ("trace.delivery_ns_per_event", "ns"),
    ("shadow.ns_per_access", "ns"),
    ("shadow.space_factor", "x"),
    ("core.trms_ns_per_event", "ns"),
    ("core.rms_ns_per_event", "ns"),
    ("core.report_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.canonical_text_ms", "ms"),
    ("analysis.fit_ms", "ms"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("wire.bytes_per_event", "B"),
    ("serve.socket_ns_per_byte", "ns"),
    ("serve.fsync_rename_ms_p50", "ms"),
];

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|&(n, _)| n).collect();
    format!(
        "usage: aprof-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         workloads: {} (all of them when --workload is absent)",
        names.join(" ")
    )
}

/// A guest program: a registered workload and its parameters.
#[derive(Debug, Clone, Copy)]
pub struct Program {
    pub workload: Workload,
    pub params: WorkloadParams,
}

impl Program {
    pub fn build(&self) -> Machine {
        self.workload.build(&self.params)
    }
}

/// What a workload runs with.
pub struct Ctx {
    pub seed: u64,
    /// The run length each workload's fixed amount of work is sized to.
    pub seconds: f64,
    pub spans: Spans,
    /// Spools, sockets and probe files; removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }

    /// How many units of work make `--seconds` at `per_second` (at least 1).
    pub fn count(&self, per_second: f64) -> usize {
        ((self.seconds * per_second).round() as usize).max(1)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.tmp);
    }
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// Operations that failed and checks that did not hold.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics and workload-specific detail, for `layers.json`.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation or check, reporting a failure on stderr.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// The median of latencies `ms` (non-empty). Their tail (the highest
/// percentile the sample count supports, see `tail_quantile`), that
/// percentile and the sample count go into `layers` under `keys`.
pub fn summarize(out: &mut Outcome, keys: [&'static str; 3], ms: &[f64]) -> f64 {
    let sorted = stats::sorted(ms);
    let q = tail_quantile(sorted.len());
    out.layers.insert(keys[0], quantile(&sorted, q));
    out.layers.insert(keys[1], q);
    out.layers.insert(keys[2], sorted.len() as f64);
    quantile(&sorted, 0.5)
}

/// `op_p50_ms`, with the tail beside it in `layers.json`. The tail is
/// reported, not bounded: on a shared 2-core VM, interference lasting
/// seconds moves p90 of the offline workloads by up to 2x from run to run.
pub fn set_latency(out: &mut Outcome, ms: &[f64]) {
    let p50 = summarize(out, ["op.tail_ms", "op.tail_quantile", "op.samples"], ms);
    out.metrics.insert("op_p50_ms", p50);
}

/// The process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args { workload: None, seed: 1, seconds: DEFAULT_SECONDS, traced: false };
        let mut quick = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => parsed.workload = Some(value()?.clone()),
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    parsed.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--quick" => quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if quick {
            parsed.seconds /= QUICK_DIVISOR;
        }
        Ok(parsed)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("daemon") {
        daemon::main(&args[1..])
    } else {
        match Args::parse(&args) {
            Ok(a) => match &a.workload {
                Some(name) => run_one(name, &a),
                None => run_all(&a),
            },
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                2
            }
        }
    };
    std::process::exit(code);
}

/// Runs one workload in this process and prints its result line.
fn run_one(name: &str, args: &Args) -> i32 {
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        eprintln!("unknown workload `{name}`\n{}", usage());
        return 2;
    };
    let dir = Path::new(OUT_DIR);
    let tmp = dir.join(format!("tmp-{name}-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return 1;
    }
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, spans: Spans::new(args.traced), tmp };
    let outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return 1;
        }
    };
    let declared = if args.traced { PER_LAYER } else { END_TO_END };
    let values = if args.traced { &outcome.layers } else { &outcome.metrics };
    let line = match result_json(&outcome, declared, values) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("{name}: {e}");
            return 1;
        }
    };
    eprint!("{}", summary(name, args, &outcome));
    let written = if args.traced {
        write_traced(dir, name, args, &ctx, &outcome)
    } else {
        let record: String = outcome.metrics.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        fs::write(dir.join(format!("{name}.e2e.txt")), record)
    };
    if let Err(e) = written {
        eprintln!("{name}: cannot write under {OUT_DIR}: {e}");
        return 1;
    }
    println!("{line}");
    if outcome.failed == 0 {
        0
    } else {
        1
    }
}

/// Runs every workload in a child process of its own (traced runs after
/// an untraced one, so `layers.json` can state the tracing overhead).
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return 1;
        }
    };
    let traces: &[&str] = if args.traced { &["0", "1"] } else { &["0"] };
    let (mut attempted, mut failed, mut all_ok) = (0u64, 0u64, true);
    let mut results = Vec::new();
    for &(name, _) in WORKLOADS {
        for &trace in traces {
            let child = Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let line = match child {
                Ok(o) => {
                    all_ok &= o.status.success();
                    String::from_utf8_lossy(&o.stdout).lines().last().unwrap_or_default().to_owned()
                }
                Err(e) => {
                    eprintln!("cannot run {name}: {e}");
                    all_ok = false;
                    String::new()
                }
            };
            attempted += json_u64(&line, "attempted").unwrap_or(0);
            failed += json_u64(&line, "failed").unwrap_or(0);
            let line = if line.starts_with('{') { line } else { "null".to_owned() };
            let key = if trace == "1" { format!("{name}/traced") } else { name.to_owned() };
            results.push(format!("\"{key}\": {line}"));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        all_ok && failed == 0,
        results.join(", ")
    );
    if all_ok {
        0
    } else {
        1
    }
}

/// The first whole number stored under `"key": ` in a flat JSON text.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let key = format!("\"{key}\": ");
    let at = text.find(&key)? + key.len();
    text[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// The result line: every declared metric, by name, with its unit.
fn result_json(
    out: &Outcome,
    declared: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match values.get(name) {
            Some(v) if v.is_finite() => {
                metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
            }
            Some(v) => return Err(format!("metric {name} is {v}")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn summary(name: &str, args: &Args, out: &Outcome) -> String {
    let mut s = format!(
        "[{name}] seed {} seconds {}{}: attempted {}, failed {}\n",
        args.seed,
        args.seconds,
        if args.traced { " traced" } else { "" },
        out.attempted,
        out.failed
    );
    for (k, v) in &out.metrics {
        let unit = END_TO_END.iter().find(|(n, _)| n == k).map_or("", |(_, u)| u);
        let _ = writeln!(s, "  {k:<30} {v:>16.4} {unit}");
    }
    for (k, v) in &out.layers {
        let unit = PER_LAYER.iter().find(|(n, _)| n == k).map_or("", |(_, u)| u);
        let _ = writeln!(s, "  {k:<30} {v:>16.4} {unit}");
    }
    s
}

/// `{"k": v, ...}`, with non-finite values as `null`.
fn number_object<'a>(entries: impl IntoIterator<Item = (&'a str, f64)>) -> String {
    let fields: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| if v.is_finite() { format!("\"{k}\": {v}") } else { format!("\"{k}\": null") })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Writes this workload's spans and layer figures, then rebuilds the
/// combined `spans.jsonl` and `layers.json` over every workload traced so
/// far in `dir`.
fn write_traced(dir: &Path, name: &str, args: &Args, ctx: &Ctx, out: &Outcome) -> std::io::Result<()> {
    let spans = ctx.spans.take();
    fs::write(dir.join(format!("{name}.spans.jsonl")), spans::to_jsonl(name, &spans))?;
    // The tracing overhead compares these end-to-end numbers with the
    // latest untraced run of the same workload, when there is one.
    let untraced: BTreeMap<String, f64> = fs::read_to_string(dir.join(format!("{name}.e2e.txt")))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_owned(), v.parse().ok()?))
        })
        .collect();
    let overhead = if untraced.is_empty() {
        "null".to_owned()
    } else {
        number_object(out.metrics.iter().filter_map(|(&k, &v)| {
            let base = untraced.get(k)?;
            Some((k, (v - base) / base * 100.0))
        }))
    };
    let self_ms = spans::self_ms_by_layer(&spans);
    let entry = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"spans\": {}, \"self_ms\": {}, \"end_to_end\": {}, \"trace_overhead_pct\": {overhead}, \"layers\": {}}}",
        args.seed,
        args.seconds,
        spans.len(),
        number_object(self_ms.iter().map(|(&k, &v)| (k, v))),
        number_object(out.metrics.iter().map(|(&k, &v)| (k, v))),
        number_object(out.layers.iter().map(|(&k, &v)| (k, v))),
    );
    fs::write(dir.join(format!("{name}.layers.json")), entry)?;

    let (mut layers, mut all_spans) = (Vec::new(), String::new());
    for &(w, _) in WORKLOADS {
        if let Ok(entry) = fs::read_to_string(dir.join(format!("{w}.layers.json"))) {
            layers.push(format!("\"{w}\": {entry}"));
        }
        if let Ok(lines) = fs::read_to_string(dir.join(format!("{w}.spans.jsonl"))) {
            all_spans.push_str(&lines);
        }
    }
    fs::write(dir.join("layers.json"), format!("{{{}}}\n", layers.join(",\n")))?;
    fs::write(dir.join("spans.jsonl"), all_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut out = Outcome { attempted: 3, failed: 0, ..Outcome::default() };
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            out.metrics.insert(name, i as f64 + 0.25);
        }
        let line = result_json(&out, END_TO_END, &out.metrics).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(json_u64(&line, "attempted"), Some(3));
        assert_eq!(json_u64(&line, "missing"), None);
        out.metrics.remove("peak_rss_mb");
        assert!(result_json(&out, END_TO_END, &out.metrics).is_err());
        out.metrics.insert("peak_rss_mb", f64::NAN);
        assert!(result_json(&out, END_TO_END, &out.metrics).is_err());
    }

    #[test]
    fn arguments() {
        let args = |s: &str| Args::parse(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
        let a = args("--workload run-suite --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_deref(), a.seed, a.seconds, a.traced), (Some("run-suite"), 7, 10.0, true));
        let a = args("--quick").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (None, 1, DEFAULT_SECONDS / QUICK_DIVISOR, false)
        );
        assert!(args("--trace 2").is_err());
        assert!(args("--traced").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }
}

//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro all                  # every experiment
//! repro table1 fig4          # selected experiments
//! repro --list               # available experiment ids
//! repro --jobs 8 all         # shard measurements over 8 worker threads
//! repro --bench-json         # write BENCH_parallel_driver.json and exit
//!   (alias: --bench-parallel-driver-json)
//! repro --bench-wire-json    # write BENCH_wire.json and exit
//! repro --bench-gate         # re-measure and compare dimensionless
//!                            # metrics against the committed BENCH_*.json
//!                            # baselines; exit 1 on a >20% regression
//! repro --bench-check-json   # write BENCH_check.json and exit
//! repro --bench-bound-json   # write BENCH_bound.json and exit
//! repro --bench-obs-json     # write BENCH_obs.json and exit
//! repro --faults             # run the fault-injection smoke and exit
//! repro --faults --fault-seed 7   # same, with a chosen fault seed
//! repro --corpus             # run the fuzzed-corpus differential smoke
//! repro --corpus --corpus-seed 9  # same, with a chosen corpus seed
//! repro --chaos              # run the network-chaos soak and exit
//! repro --chaos --chaos-seed 0xC4A0  # same, with a chosen chaos seed
//!   (APROF_CHAOS_CASES scales the stream count)
//! ```
//!
//! Rendered text goes to stdout; CSV data is written under `results/`.
//! Set `APROF_BENCH_SIZE` to scale the Table 1 / Fig. 14 workload size and
//! `APROF_JOBS` (or `--jobs`) to control the worker-thread count.

use aprof_bench::{driver, run_experiments, EXPERIMENTS};
use std::io::Write as _;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<&str> = Vec::new();
    let mut bench_json = false;
    let mut bench_wire_json = false;
    let mut bench_gate = false;
    let mut bench_check_json = false;
    let mut bench_bound_json = false;
    let mut bench_obs_json = false;
    let mut faults = false;
    let mut fault_seed = aprof_bench::DEFAULT_FAULT_SEED;
    let mut corpus = false;
    let mut corpus_seed = aprof_bench::DEFAULT_CORPUS_SEED;
    let mut chaos = false;
    let mut chaos_seed = aprof_bench::DEFAULT_CHAOS_SEED;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for id in EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "--jobs" | "-j" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                };
                driver::set_jobs(n);
            }
            "--faults" => faults = true,
            "--corpus" => corpus = true,
            "--chaos" => chaos = true,
            "--chaos-seed" => chaos_seed = parse_seed("--chaos-seed", it.next()),
            "--corpus-seed" => corpus_seed = parse_seed("--corpus-seed", it.next()),
            "--fault-seed" => fault_seed = parse_seed("--fault-seed", it.next()),
            "--bench-json" | "--bench-parallel-driver-json" => bench_json = true,
            "--bench-wire-json" => bench_wire_json = true,
            "--bench-gate" => bench_gate = true,
            "--bench-check-json" => bench_check_json = true,
            "--bench-bound-json" => bench_bound_json = true,
            "--bench-obs-json" => bench_obs_json = true,
            other => selected.push(other),
        }
    }
    if chaos {
        match aprof_bench::chaos_smoke(chaos_seed) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("chaos soak failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if corpus {
        match aprof_bench::corpus_smoke(corpus_seed) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("corpus smoke failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if faults {
        match aprof_bench::fault_smoke(fault_seed) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(e) => {
                eprintln!("fault smoke failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if bench_gate {
        let read = |p: &str| {
            std::fs::read_to_string(p).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {p}: {e}");
                std::process::exit(2);
            })
        };
        let driver_baseline = read("BENCH_parallel_driver.json");
        let wire_baseline = read("BENCH_wire.json");
        match aprof_bench::bench_gate(
            &driver_baseline,
            &wire_baseline,
            driver::jobs(),
            aprof_bench::DEFAULT_GATE_TOLERANCE,
        ) {
            Ok(report) => {
                print!("{report}");
                return;
            }
            Err(report) => {
                eprint!("{report}");
                std::process::exit(1);
            }
        }
    }
    let results_dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(results_dir) {
        eprintln!("cannot create results/: {e}");
        std::process::exit(1);
    }
    if bench_wire_json {
        write_report("BENCH_wire.json", &aprof_bench::wire_report().render());
        return;
    }
    if bench_check_json {
        write_report("BENCH_check.json", &aprof_bench::check_report().render());
        return;
    }
    if bench_bound_json {
        write_report("BENCH_bound.json", &aprof_bench::bound_report().render());
        return;
    }
    if bench_obs_json {
        write_report("BENCH_obs.json", &aprof_bench::obs_report().render());
        return;
    }
    if bench_json {
        let report = aprof_bench::parallel_driver_report(driver::jobs());
        write_report("BENCH_parallel_driver.json", &report.render());
        return;
    }
    if selected.is_empty() || selected.contains(&"all") {
        selected = EXPERIMENTS.to_vec();
    }
    let outputs = match run_experiments(&selected) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut failed = false;
    for output in outputs {
        println!("==============================================================");
        println!("{}", output.title);
        println!("==============================================================");
        println!("{}", output.text);
        for (file, csv) in &output.csv {
            let path = results_dir.join(file);
            match std::fs::File::create(&path).and_then(|mut f| f.write_all(csv.as_bytes())) {
                Ok(()) => println!("  wrote {}", path.display()),
                Err(e) => {
                    eprintln!("  failed to write {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        println!();
    }
    if failed {
        std::process::exit(1);
    }
}

/// Parses `flag`'s value as a decimal or `0x`-hex seed; a missing or
/// malformed value exits with status 2.
fn parse_seed(flag: &str, value: Option<&String>) -> u64 {
    let parsed = value.map(|v| v.trim()).and_then(|v| match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    });
    parsed.unwrap_or_else(|| {
        eprintln!("{flag} needs an integer (decimal or 0x-hex)");
        std::process::exit(2);
    })
}

/// Writes a rendered report to `file` in the working directory; a failed
/// write exits with status 1.
fn write_report(file: &str, json: &str) {
    match std::fs::write(file, json) {
        Ok(()) => println!("wrote {file}"),
        Err(e) => {
            eprintln!("cannot write {file}: {e}");
            std::process::exit(1);
        }
    }
}

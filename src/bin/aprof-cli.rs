//! `aprof-cli` — run guest programs or bundled workloads under any tool of
//! the suite, and inspect input-sensitive profiles.
//!
//! ```text
//! aprof-cli list
//! aprof-cli run --workload mysqld --size 160 --threads 3 --plot mysql_select
//! aprof-cli run --workload 350.md --tool helgrind
//! aprof-cli run --workload vips --policy external --top 5
//! aprof-cli run --workload dedup --cct
//! aprof-cli run --workload mysqld --bottlenecks
//! aprof-cli asm program.s --plot my_function
//! aprof-cli run --workload producer_consumer --save-trace trace.txt
//! aprof-cli record trace.wire --workload mysqld --size 160
//! aprof-cli record trace.wire --workload mysqld --durable
//! aprof-cli replay trace.wire --tool rms
//! aprof-cli trace-info trace.wire
//! aprof-cli recover torn.wire salvaged.wire
//! aprof-cli report report.html --workload mysqld --observe
//! aprof-cli replay trace.wire --report report.html
//! aprof-cli run --workload dedup --observe --obs-json metrics.json
//! aprof-cli replay t1.wire t2.wire --profile-out merged.profile
//! aprof-cli check program.s --deny-lints
//! aprof-cli check --workloads
//! aprof-cli fuzz --seed 1 --cases 256
//! aprof-cli fuzz --seed 7 --cases 64 --faults --jobs 4
//! aprof-cli serve --spool /var/aprof --unix /run/aprof.sock
//! aprof-cli submit --to unix:/run/aprof.sock --tenant web t.wire
//! aprof-cli submit --to tcp:127.0.0.1:7071 --profile web
//! ```

use aprof::analysis::render::{render_plot, Table};
use aprof::analysis::{fit_best, CostPlot, Metric, PlotKind, ReportInputs};
use aprof::core::{InputPolicy, ProfileReport, TrmsProfiler};
use aprof::tools::{CallgrindTool, HelgrindTool, MemcheckTool};
use aprof::trace::{replay, textio, EventKind, RecordingTool, RoutineTable, Trace};
use aprof::faults::FaultConfig;
use aprof::serve::{
    client as serve_client, BreakerConfig, RetryPolicy, ServeConfig, ServeError, Server, Target,
};
use aprof::vm::{asm, Machine, ResourceLimits};
use aprof::wire::{
    recover, DurableFile, FlushPolicy, WireOptions, WireReader, WireWriter, DEFAULT_CHUNK_BYTES,
};
use aprof::workloads::{all, by_name, WorkloadParams};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom};

/// Exit status of a command whose stdout was closed, as a shell reports a
/// process ended by SIGPIPE (128 + 13).
const CLOSED_STDOUT: i32 = 141;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `print!` panics when stdout's reader has gone (`… | head`); that ends
    // the command quietly. Every other panic keeps its message and status.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload_as_str().is_some_and(is_closed_stdout) {
            report(info);
        }
    }));
    let code = match std::panic::catch_unwind(|| dispatch(&args)) {
        Ok(code) => code,
        Err(payload) if payload.downcast_ref().is_some_and(|m: &String| is_closed_stdout(m)) => CLOSED_STDOUT,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    std::process::exit(code);
}

/// Whether a panic message is std's report of a write to a closed stdout.
fn is_closed_stdout(message: &str) -> bool {
    message.starts_with("failed printing to stdout") && message.contains("Broken pipe")
}

fn dispatch(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => with_observe(&args[1..], cmd_run),
        Some("asm") => with_observe(&args[1..], cmd_asm),
        Some("record") => with_observe(&args[1..], cmd_record),
        Some("replay") => with_observe(&args[1..], cmd_replay),
        Some("trace-info") => with_observe(&args[1..], cmd_trace_info),
        Some("recover") => with_observe(&args[1..], cmd_recover),
        Some("report") => with_observe(&args[1..], cmd_report),
        Some("bench") => with_observe(&args[1..], cmd_bench),
        Some("serve") => with_observe(&args[1..], cmd_serve),
        Some("submit") => with_observe(&args[1..], cmd_submit),
        Some("fuzz") => with_observe(&args[1..], cmd_fuzz),
        Some("check") => cmd_check(&args[1..]),
        Some("bound") => cmd_bound(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            2
        }
    }
}

/// Wraps a command with the observability lifecycle: `--observe` (or an
/// explicit `--obs-json PATH`) turns the self-metrics layer on before the
/// command runs and writes the counter/span snapshot as JSON when it ends —
/// whatever the exit code, so failed runs can still be diagnosed.
fn with_observe(args: &[String], f: impl FnOnce(&[String]) -> i32) -> i32 {
    let obs_path = args
        .iter()
        .position(|a| a == "--obs-json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let observe = obs_path.is_some() || args.iter().any(|a| a == "--observe");
    if observe {
        aprof::obs::enable();
    }
    let code = f(args);
    if observe {
        let path = obs_path.unwrap_or_else(|| "obs.json".into());
        let snap = aprof::obs::snapshot();
        match snap.write_json(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("[obs] wrote self-metrics to {path}"),
            Err(e) => eprintln!("[obs] cannot write {path}: {e}"),
        }
        aprof::obs::disable();
    }
    code
}

const USAGE: &str = "\
aprof-cli — input-sensitive profiling

commands:
  list                         registered workloads and tools
  run  --workload NAME [opts]  run a bundled workload under a tool
  asm  FILE [opts]             run a guest assembly program under a tool
  record FILE --workload NAME  run a workload, profiling it live while
                               streaming its event trace to FILE in the
                               binary wire format; `record FILE PROG.s`
                               records an assembly program instead
  replay FILES [opts]          profile previously saved traces (wire or
                               text format, detected automatically; wire
                               traces stream in O(chunk) memory); several
                               wire traces merge into one aggregate
                               profile, byte-identical to a service
                               tenant's aggregate of the same streams
                               (--cct needs a single trace)
  trace-info FILE              inspect a saved trace: format, events,
                               chunks, threads, and any corrupt chunks
                               skipped during decode
  recover IN [OUT]             salvage a truncated or corrupt wire trace:
                               re-scan IN for CRC-valid chunks and write
                               them with a fresh index and footer to OUT
                               (default IN.recovered)
  report OUT.html [opts]       render a self-contained HTML report (cost
                               plots, fitted curves, CDFs, bottleneck
                               verdicts); profile `--workload NAME` live,
                               or pass a saved TRACE file to replay
  bench [IDS|all] [opts]       regenerate the paper's tables and figures
                               (--jobs N shards measurements over N worker
                               threads; --list shows experiment ids)
  check FILES [opts]           statically verify and lint guest assembly
                               programs without running them; `--workloads`
                               also checks every bundled workload
  bound FILES [opts]           infer a static symbolic cost bound per
                               routine (Const, Log, Linear, Linearithmic,
                               Poly(k), Exponential, Unknown) by loop and
                               recursion analysis; stable `prog: routine:
                               bound` lines suit golden-file diffs
  fuzz [opts]                  generate a seeded corpus of guest programs
                               and run every one through the differential
                               oracles (naive-vs-engine, wire round-trip,
                               static-vs-dynamic, bound-vs-fit); failures
                               are shrunk to a minimal program
  serve --spool DIR [opts]     run the multi-tenant profiling service
                               daemon: concurrent wire-trace submissions
                               over unix/tcp sockets, per-tenant
                               aggregation and quotas, crash-safe spool,
                               live profile/report/obs.json endpoints
  submit --to TARGET [opts]    talk to a running daemon: submit TRACE
                               files, fetch profiles, reports, obs.json
                               and tenant listings, ping, shut down

options:
  --size N          workload size          (default 96)
  --threads T       worker threads         (default 4)
  --seed S          device seed            (default 0x5eed)
  --tool NAME       trms | rms | memcheck | callgrind | helgrind
                                           (default trms; rms profiles the
                                           thread-oblivious metric only)
  --policy P        full | external | thread | none   (default full)
  --cct             aggregate per calling context and show hot contexts
  --top N           routines/contexts to print        (default 10)
  --plot ROUTINE    ASCII worst-case cost plots (rms and trms) + fits
  --bottlenecks     rank routines by asymptotic-bottleneck severity
  --save-trace FILE record the event stream to FILE (text format)
  --chunk-bytes N   wire chunk payload target for `record` (default 65536)
  --durable         record: flush + fsync after every sealed chunk, so a
                    crash (even power loss) costs at most the open chunk;
                    `recover` restores such a capture losslessly
  --strict          replay: abort on corrupt chunks instead of skipping
  --profile-out FILE  replay: also write the (merged) profile as canonical
                    text — the byte-stable format the service daemon
                    serves from its PROFILE endpoint
  --csv FILE        also write the routine summary as CSV to FILE
  --no-check        run/asm/record: skip the static verifier (which
                    otherwise refuses programs with hard errors)
  --report FILE     run/asm/record/replay: also write the HTML report
  --observe         enable profiler self-metrics (counters and tracing
                    spans); writes obs.json at exit and emits periodic
                    [obs] progress lines to stderr
  --obs-json FILE   where --observe writes its snapshot (implies
                    --observe; default obs.json)

check options:
  --deny-lints      treat warnings (W1xx) as rejections, like errors
  --races           also print static race candidates (N2xx notes)
  --workloads       verify every bundled workload program as well
  --bounds          also run the aprof-bound cost-bound inference and
                    print its B-code diagnostics (B301 inferred-bound
                    notes, B302-B304 analysis limits)
  --json            machine-readable diagnostics: one JSON object per
                    diagnostic (code, severity, span, message) on stdout;
                    verdict summaries move to stderr
  --explain CODE    print the extended explanation for a diagnostic code
                    (E001-E007, W101-W110, N201, B301-B306) and exit

bound options:
  --workloads       also infer bounds for every bundled workload program
  --workload NAME   add one bundled workload (repeatable)
  --diagnostics     print the B-code diagnostics rustc-style as well
  --json            one JSON object per routine instead of text lines

fuzz options:
  --seed N          base corpus seed                      (default 1)
  --cases K         generated programs to run             (default 256)
  --jobs J          worker threads (0 = all cores); the report is
                    byte-identical for every J            (default 0)
  --profile P       generator profile: mixed | sequential | concurrent |
                    kernel                                (default mixed)
  --faults          additionally run the crash/recover/replay differential
                    on every case (torn captures must salvage to exact
                    replayable prefixes)
  --mutate M        plant a profiler bug to test the harness itself:
                    drop-kernel-input | drop-read:N | scale-cost:N
                    (the sweep must then FAIL and shrink the reproducer)

serve options:
  --unix PATH       listen on a unix socket at PATH
  --tcp ADDR        listen on ADDR (host:port; port 0 picks one and the
                    daemon prints it)
  --spool DIR       durable spool directory (required); committed streams
                    are replayed from it on startup
  --max-in-flight N per-tenant concurrently decoding streams (default 8)
  --queue-timeout-ms N  how long a submission waits out backpressure
                    before a busy refusal             (default 10000)
  --max-events N    per-tenant aggregated-event quota (default unlimited)
  --max-spool-cells N  per-tenant spool quota in 8-byte cells
                                                      (default unlimited)
  --hard-quota      drop connections on quota refusal instead of replying
                    with a graceful ERR
  --fault-seed N    inject the seeded smoke fault plan into the ingest
                    path (soak testing)
  --stream-deadline-ms N  evict submissions still streaming after N ms
                    (slow-loris guard)                  (default 120000)
  --max-conns N     shed new work beyond N live connections with
                    `ERR busy retry-after`              (default 256)
  --spool-capacity-cells N  shed submissions once the whole spool holds
                    this many 8-byte cells              (default unlimited)
  --retry-after-ms N  the retry hint attached to busy refusals
                                                        (default 250)
  --breaker-failures N  tenant failures within the window that trip its
                    circuit breaker                     (default 5)
  --breaker-window-ms N  sliding failure window         (default 30000)
  --breaker-cooldown-ms N  quarantine before a half-open probe
                                                        (default 3000)
  the daemon serves until `submit --shutdown` (drain) or --shutdown-now

submit options:
  --to TARGET       unix:PATH | tcp:HOST:PORT          (required)
  --tenant NAME     tenant for submitted traces        (default: default)
  --stream NAME     stream id for a single submitted trace
                    (default: the trace file's stem; ids are idempotent —
                    resubmitting a committed id is a no-op duplicate)
  --profile TENANT  fetch the tenant's aggregate as canonical text
  --report TENANT   fetch the tenant's aggregate as an HTML report
  --obs             fetch the daemon's live obs.json
  --tenants         fetch the tenant listing
  --ping            health-check the daemon
  --out FILE        write fetched bodies to FILE instead of stdout
  --shutdown        ask the daemon to drain and stop
  --shutdown-now    ask the daemon to stop immediately
  --retries N       retry busy refusals and transport drops up to N extra
                    times with jittered backoff, honouring the daemon's
                    retry-after hint (idempotent: a stream that committed
                    before its ack was lost resolves as a duplicate)
                                                        (default 0)
  --retry-base-ms N base backoff window between retries (default 50)
  submit exit codes: 0 success; 1 fatal (bad trace, quota, quarantined,
  daemon unreachable); 2 usage; 75 still busy after the retry budget
  (EX_TEMPFAIL — reschedule and resubmit)
";

struct Opts {
    workload: Option<String>,
    size: u64,
    threads: u32,
    seed: u64,
    tool: String,
    policy: InputPolicy,
    cct: bool,
    bottlenecks: bool,
    top: usize,
    plot: Option<String>,
    save_trace: Option<String>,
    chunk_bytes: usize,
    durable: bool,
    strict: bool,
    profile_out: Option<String>,
    csv: Option<String>,
    no_check: bool,
    report: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        size: 96,
        threads: 4,
        seed: 0x5eed,
        tool: "trms".into(),
        policy: InputPolicy::full(),
        cct: false,
        bottlenecks: false,
        top: 10,
        plot: None,
        save_trace: None,
        chunk_bytes: DEFAULT_CHUNK_BYTES,
        durable: false,
        strict: false,
        profile_out: None,
        csv: None,
        no_check: false,
        report: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--size" => o.size = value("--size")?.parse().map_err(|e| format!("--size: {e}"))?,
            "--threads" => {
                o.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--tool" => o.tool = value("--tool")?,
            "--policy" => {
                o.policy = match value("--policy")?.as_str() {
                    "full" => InputPolicy::full(),
                    "external" => InputPolicy::external_only(),
                    "thread" => InputPolicy::thread_only(),
                    "none" => InputPolicy::rms_only(),
                    other => return Err(format!("unknown policy `{other}`")),
                }
            }
            "--cct" => o.cct = true,
            "--bottlenecks" => o.bottlenecks = true,
            "--top" => o.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--plot" => o.plot = Some(value("--plot")?),
            "--save-trace" => o.save_trace = Some(value("--save-trace")?),
            "--chunk-bytes" => {
                o.chunk_bytes = value("--chunk-bytes")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--chunk-bytes needs a positive integer".to_string())?
            }
            "--durable" => o.durable = true,
            "--strict" => o.strict = true,
            "--profile-out" => o.profile_out = Some(value("--profile-out")?),
            "--csv" => o.csv = Some(value("--csv")?),
            "--no-check" => o.no_check = true,
            "--report" => o.report = Some(value("--report")?),
            // Consumed by `with_observe` before dispatch; accepted here so
            // they can sit anywhere on the command line.
            "--observe" => {}
            "--obs-json" => {
                value("--obs-json")?;
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => o.positional.push(other.to_owned()),
        }
    }
    Ok(o)
}

fn cmd_list() -> i32 {
    let mut table = Table::new(vec![
        "workload".into(),
        "family".into(),
        "description".into(),
    ]);
    for wl in all() {
        table.row(vec![
            wl.name.to_owned(),
            wl.family.label().to_owned(),
            wl.description.to_owned(),
        ]);
    }
    println!("{}", table.render());
    println!("tools: trms (default), rms, memcheck, callgrind, helgrind");
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(name) = opts.workload.clone() else {
        eprintln!("run requires --workload NAME (see `aprof-cli list`)");
        return 2;
    };
    let Some(wl) = by_name(&name) else {
        eprintln!("unknown workload `{name}` (see `aprof-cli list`)");
        return 2;
    };
    let params = WorkloadParams { size: opts.size, threads: opts.threads, seed: opts.seed };
    let machine = wl.build(&params);
    if !verifier_admits(machine.program(), &name, opts.no_check) {
        return 1;
    }
    drive(machine, &opts)
}

fn cmd_asm(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(path) = opts.positional.first() else {
        eprintln!("asm requires a FILE argument");
        return 2;
    };
    match machine_from_asm(path, opts.no_check) {
        Ok(machine) => drive(machine, &opts),
        Err(code) => code,
    }
}

/// Parses, verifies (unless `no_check`) and loads an assembly file.
fn machine_from_asm(path: &str, no_check: bool) -> Result<Machine, i32> {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return Err(1);
        }
    };
    let module = match asm::parse_module(&source) {
        Ok(m) => m,
        Err(e) => {
            eprint!("{}", aprof::check::render_parse_error(&e, &source, path));
            return Err(1);
        }
    };
    if !no_check {
        let report = aprof::check::check_module(&module);
        if report.has_errors() {
            for d in &report.diagnostics {
                if d.severity == aprof::check::Severity::Error {
                    eprint!("{}", d.render_source(&report.names, &module.map, &source, path));
                }
            }
            eprintln!(
                "{path}: rejected by the static verifier ({} errors); \
                 pass --no-check to run anyway",
                report.count(aprof::check::Severity::Error)
            );
            return Err(1);
        }
    }
    match module.into_program() {
        Ok(p) => Ok(Machine::new(p)),
        Err(e) => {
            eprintln!("{e}");
            Err(1)
        }
    }
}

/// The pre-run verifier gate for `run`/`record`: refuses programs with
/// hard errors unless `--no-check` was given. Lints never block a run.
fn verifier_admits(program: &aprof::vm::ir::Program, what: &str, no_check: bool) -> bool {
    if no_check {
        return true;
    }
    let report = aprof::check::check_program(program);
    if !report.has_errors() {
        return true;
    }
    for d in &report.diagnostics {
        if d.severity == aprof::check::Severity::Error {
            eprint!("{}", d.render(&report.names));
        }
    }
    eprintln!(
        "{what}: rejected by the static verifier ({} errors); \
         pass --no-check to run anyway",
        report.count(aprof::check::Severity::Error)
    );
    false
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One diagnostic as a single-line JSON object. The span carries the
/// `file:line` position when a source map is at hand, and always the IR
/// coordinate (function name, block, instruction).
fn diagnostic_json(
    program: &str,
    d: &aprof::check::Diagnostic,
    names: &[String],
    source: Option<(&aprof::vm::asm::SourceMap, &str)>,
) -> String {
    let func = names.get(d.func).map(String::as_str).unwrap_or("?");
    let line = source.and_then(|(map, _)| match d.block {
        Some(b) => map.line_of(d.func, b, d.instr),
        None => map.functions.get(d.func).map(|f| f.header_line),
    });
    let mut span = format!("\"func\": {}", json_str(func));
    if let Some(b) = d.block {
        span.push_str(&format!(", \"block\": {b}"));
    }
    if let Some(i) = d.instr {
        span.push_str(&format!(", \"instr\": {i}"));
    }
    if let Some(l) = line.filter(|&l| l > 0) {
        span.push_str(&format!(", \"file\": {}, \"line\": {l}", json_str(program)));
    }
    format!(
        "{{\"code\": {}, \"severity\": {}, \"program\": {}, \"span\": {{{span}}}, \"message\": {}}}",
        json_str(d.code),
        json_str(&d.severity.to_string()),
        json_str(program),
        json_str(&d.message)
    )
}

/// Runs the bound inference for one program and prints its diagnostics
/// (text or JSON); returns the report for further rendering.
fn print_bound_diagnostics(
    what: &str,
    functions: &[aprof::vm::ir::Function],
    names: &[String],
    json: bool,
    source: Option<(&aprof::vm::asm::SourceMap, &str)>,
) -> aprof::bound::BoundReport {
    let report = aprof::bound::infer_functions(functions);
    for d in &report.diagnostics {
        if json {
            println!("{}", diagnostic_json(what, d, names, source));
        } else if let Some((map, src)) = source {
            print!("{}", d.render_source(names, map, src, what));
        } else {
            print!("{}", d.render(names));
        }
    }
    report
}

fn cmd_check(args: &[String]) -> i32 {
    let mut deny_lints = false;
    let mut races = false;
    let mut workloads = false;
    let mut json = false;
    let mut bounds = false;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny-lints" => deny_lints = true,
            "--races" => races = true,
            "--workloads" => workloads = true,
            "--json" => json = true,
            "--bounds" => bounds = true,
            "--explain" => {
                let Some(code) = it.next() else {
                    eprintln!("--explain requires a diagnostic CODE (e.g. W104)");
                    return 2;
                };
                return match aprof::check::explain(code) {
                    Some(text) => {
                        print!("{text}");
                        0
                    }
                    None => {
                        eprintln!(
                            "unknown diagnostic code `{code}`; known codes: {}",
                            aprof::check::CODES
                                .iter()
                                .map(|c| c.code)
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        2
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return 2;
            }
            other => files.push(other),
        }
    }
    if files.is_empty() && !workloads {
        eprintln!("check requires assembly FILES and/or --workloads (or --explain CODE)");
        return 2;
    }
    let mut failed = false;
    for path in files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        match asm::parse_module(&source) {
            Err(e) => {
                if json {
                    println!(
                        "{{\"code\": \"E001\", \"severity\": \"error\", \"program\": {}, \
                         \"span\": {{\"line\": {}}}, \"message\": {}}}",
                        json_str(path),
                        e.line,
                        json_str(&e.message)
                    );
                    eprintln!("{path}: rejected (parse error)");
                } else {
                    print!("{}", aprof::check::render_parse_error(&e, &source, path));
                    println!("{path}: rejected (parse error)");
                }
                failed = true;
            }
            Ok(module) => {
                let report = aprof::check::check_module(&module);
                if json {
                    for d in &report.diagnostics {
                        if d.severity == aprof::check::Severity::Note && !races {
                            continue;
                        }
                        println!(
                            "{}",
                            diagnostic_json(path, d, &report.names, Some((&module.map, &source)))
                        );
                    }
                    failed |= report.rejects(deny_lints);
                    eprintln!(
                        "{path}: {}",
                        if report.rejects(deny_lints) { "rejected" } else { "ok" }
                    );
                } else {
                    failed |=
                        print_check_report(path, &report, deny_lints, races, |d| {
                            d.render_source(&report.names, &module.map, &source, path)
                        });
                }
                if bounds && !report.has_errors() {
                    print_bound_diagnostics(
                        path,
                        &module.functions,
                        &report.names,
                        json,
                        Some((&module.map, &source)),
                    );
                }
            }
        }
    }
    if workloads {
        let params = WorkloadParams { size: 96, threads: 4, seed: 0x5eed };
        for wl in all() {
            let machine = wl.build(&params);
            let report = aprof::check::check_program(machine.program());
            if json {
                for d in &report.diagnostics {
                    if d.severity == aprof::check::Severity::Note && !races {
                        continue;
                    }
                    println!("{}", diagnostic_json(wl.name, d, &report.names, None));
                }
                failed |= report.rejects(deny_lints);
                eprintln!(
                    "{}: {}",
                    wl.name,
                    if report.rejects(deny_lints) { "rejected" } else { "ok" }
                );
            } else {
                failed |= print_check_report(wl.name, &report, deny_lints, races, |d| {
                    d.render(&report.names)
                });
            }
            if bounds && !report.has_errors() {
                print_bound_diagnostics(
                    wl.name,
                    machine.program().functions(),
                    &report.names,
                    json,
                    None,
                );
            }
        }
    }
    if failed {
        1
    } else {
        0
    }
}

fn cmd_bound(args: &[String]) -> i32 {
    let mut workloads = false;
    let mut picked: Vec<&str> = Vec::new();
    let mut diagnostics = false;
    let mut json = false;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workloads" => workloads = true,
            "--workload" => {
                let Some(name) = it.next() else {
                    eprintln!("--workload requires a NAME");
                    return 2;
                };
                picked.push(name);
            }
            "--diagnostics" => diagnostics = true,
            "--json" => json = true,
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return 2;
            }
            other => files.push(other),
        }
    }
    if files.is_empty() && !workloads && picked.is_empty() {
        eprintln!("bound requires assembly FILES, --workload NAME, and/or --workloads");
        return 2;
    }

    // Stable output: one `program: routine: bound` line per routine, in
    // function order — the format CI diffs against committed golden files.
    let print_report = |what: &str, report: &aprof::bound::BoundReport| {
        for rb in &report.bounds {
            if json {
                println!(
                    "{{\"program\": {}, \"routine\": {}, \"bound\": {}, \"recursive\": {}}}",
                    json_str(what),
                    json_str(&rb.name),
                    json_str(&rb.bound.notation()),
                    rb.recursive
                );
            } else {
                println!(
                    "{what}: {}: {}{}",
                    rb.name,
                    rb.bound.notation(),
                    if rb.recursive { " (recursive)" } else { "" }
                );
            }
        }
    };

    let mut failed = false;
    for path in files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let module = match asm::parse_module(&source) {
            Ok(m) => m,
            Err(e) => {
                print!("{}", aprof::check::render_parse_error(&e, &source, path));
                eprintln!("{path}: rejected (parse error)");
                failed = true;
                continue;
            }
        };
        let check = aprof::check::check_module(&module);
        if check.has_errors() {
            for d in &check.diagnostics {
                if d.severity == aprof::check::Severity::Error {
                    print!("{}", d.render_source(&check.names, &module.map, &source, path));
                }
            }
            eprintln!("{path}: rejected by the static verifier; bounds not inferred");
            failed = true;
            continue;
        }
        let report = if diagnostics {
            print_bound_diagnostics(
                path,
                &module.functions,
                &check.names,
                json,
                Some((&module.map, &source)),
            )
        } else {
            aprof::bound::infer_functions(&module.functions)
        };
        print_report(path, &report);
    }

    let params = WorkloadParams { size: 96, threads: 4, seed: 0x5eed };
    let selected: Vec<_> = if workloads {
        all().into_iter().collect()
    } else {
        let mut sel = Vec::new();
        for name in &picked {
            match by_name(name) {
                Some(wl) => sel.push(wl),
                None => {
                    eprintln!("unknown workload `{name}` (see `aprof-cli list`)");
                    return 2;
                }
            }
        }
        sel
    };
    for wl in selected {
        let machine = wl.build(&params);
        let names: Vec<String> =
            machine.program().functions().iter().map(|f| f.name.clone()).collect();
        let report = if diagnostics {
            print_bound_diagnostics(wl.name, machine.program().functions(), &names, json, None)
        } else {
            aprof::bound::infer_functions(machine.program().functions())
        };
        print_report(wl.name, &report);
    }
    if failed {
        1
    } else {
        0
    }
}

/// Prints one program's diagnostics and verdict line; true if rejected.
fn print_check_report(
    what: &str,
    report: &aprof::check::CheckReport,
    deny_lints: bool,
    races: bool,
    render: impl Fn(&aprof::check::Diagnostic) -> String,
) -> bool {
    use aprof::check::Severity;
    for d in &report.diagnostics {
        if d.severity == Severity::Note && !races {
            continue;
        }
        print!("{}", render(d));
    }
    let (e, w, n) =
        (report.count(Severity::Error), report.count(Severity::Warning), report.count(Severity::Note));
    let rejected = report.rejects(deny_lints);
    let verdict = if rejected { "rejected" } else { "ok" };
    println!(
        "{what}: {verdict} ({e} errors, {w} warnings, {n} notes; \
         {} functions, {} blocks, {} instrs)",
        report.stats.functions, report.stats.blocks, report.stats.instrs
    );
    if races && !report.races.is_empty() {
        println!(
            "{what}: {} race-candidate location(s); cells {:?}{}",
            report.races.groups,
            report.races.cells,
            if report.races.dynamic_regions { " plus dynamic regions" } else { "" }
        );
    }
    rejected
}

/// Opens a saved trace and tells wire traces apart from text ones by the
/// leading magic. The returned reader is positioned at byte 0.
fn open_trace(path: &str) -> Result<(BufReader<File>, bool), String> {
    let mut file = File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut magic = [0u8; 8];
    let is_wire = match file.read_exact(&mut magic) {
        Ok(()) => &magic == aprof::wire::format::MAGIC,
        Err(_) => false, // shorter than any wire header: treat as text
    };
    file.seek(SeekFrom::Start(0)).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok((BufReader::new(file), is_wire))
}

fn cmd_record(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(path) = opts.positional.first() else {
        eprintln!("record requires an output FILE argument");
        return 2;
    };
    let machine = if let Some(name) = opts.workload.clone() {
        let Some(wl) = by_name(&name) else {
            eprintln!("unknown workload `{name}` (see `aprof-cli list`)");
            return 2;
        };
        let params = WorkloadParams { size: opts.size, threads: opts.threads, seed: opts.seed };
        let machine = wl.build(&params);
        if !verifier_admits(machine.program(), &name, opts.no_check) {
            return 1;
        }
        machine
    } else if let Some(asm_path) = opts.positional.get(1).cloned() {
        match machine_from_asm(&asm_path, opts.no_check) {
            Ok(m) => m,
            Err(code) => return code,
        }
    } else {
        eprintln!("record requires --workload NAME or an assembly FILE (see `aprof-cli list`)");
        return 2;
    };
    let names = machine.program().routines().clone();
    let file = match File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    };
    let flush = if opts.durable { FlushPolicy::Durable } else { FlushPolicy::OnFinish };
    let options = WireOptions { chunk_bytes: opts.chunk_bytes, flush };
    if opts.durable {
        // Durable capture: every sealed chunk is flushed *and* fsynced, so
        // a crash at any moment costs at most the currently open chunk.
        drive_record(machine, &names, &opts, path, BufWriter::new(DurableFile::new(file)), options)
    } else {
        drive_record(machine, &names, &opts, path, BufWriter::new(file), options)
    }
}

/// The recording loop of `cmd_record`, generic over the sink so the
/// durable and plain paths share one implementation.
fn drive_record<W: std::io::Write>(
    mut machine: Machine,
    names: &RoutineTable,
    opts: &Opts,
    path: &str,
    sink: W,
    options: WireOptions,
) -> i32 {
    let mut writer = match WireWriter::create(sink, names, options) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    };
    let bounds = opts.report.as_ref().map(|_| bound_notations(machine.program()));
    let mut profiler = build_profiler(opts);
    if let Err(e) = machine.run_recording(&mut profiler, &mut writer) {
        eprintln!("guest error: {e}");
        return 1;
    }
    match writer.finish() {
        Ok((_, s)) => println!(
            "recorded {} events in {} chunks ({} bytes, {} threads) to {path}",
            s.events, s.chunks, s.bytes, s.threads
        ),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    report_profiler(profiler, names, opts, bounds.as_ref());
    0
}

fn cmd_recover(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(input) = opts.positional.first() else {
        eprintln!("recover requires an input FILE argument");
        return 2;
    };
    let out_path =
        opts.positional.get(1).cloned().unwrap_or_else(|| format!("{input}.recovered"));
    let infile = match File::open(input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return 1;
        }
    };
    let outfile = match File::create(&out_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            return 1;
        }
    };
    match recover(BufReader::new(infile), BufWriter::new(outfile)) {
        Ok(s) => {
            println!(
                "salvaged {} chunks, {} events, {} threads ({} input bytes kept) \
                 to {out_path} ({} bytes)",
                s.chunks, s.events, s.threads, s.salvaged_bytes, s.output_bytes
            );
            if s.was_intact() {
                println!("input was already intact");
            } else {
                println!("scan stopped: {}", s.stopped);
            }
            0
        }
        Err(e) => {
            eprintln!("cannot recover {input}: {e} (the header is required; only chunk \
                       damage is recoverable)");
            1
        }
    }
}

fn cmd_replay(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if opts.positional.is_empty() {
        eprintln!("replay requires at least one FILE argument");
        return 2;
    }
    if opts.positional.len() > 1 {
        return replay_merged(&opts);
    }
    let Some(report) = report_trace_file(&opts.positional[0], &opts) else { return 1 };
    // `--profile-out` gets the profile in merged form, the bytes a merge of
    // this one trace writes.
    match &opts.profile_out {
        Some(out) => write_profile_out(out, &ProfileReport::merge(&[report])),
        None => 0,
    }
}

/// Opens one saved trace (wire or text, auto-detected) and profiles it;
/// `Err` is the message to print. Wire traces stream chunk by chunk: the
/// profile is computed in O(chunk) memory, `--strict` refuses corrupt
/// chunks instead of skipping them with a warning, and routine names come
/// from the embedded table. Text traces carry no routine names (`None`),
/// so they report placeholder ids.
fn profile_trace_file(path: &str, opts: &Opts) -> Result<(TrmsProfiler, Option<RoutineTable>), String> {
    let (file, is_wire) = open_trace(path)?;
    let mut profiler = build_profiler(opts);
    if !is_wire {
        let trace = textio::from_reader(file).map_err(|e| format!("{path}: {e}"))?;
        trace.replay(&mut profiler);
        return Ok((profiler, None));
    }
    let mut reader = WireReader::new(file).map_err(|e| format!("{path}: {e}"))?;
    if opts.strict {
        reader = reader.strict();
    }
    replay(&mut profiler, &mut reader).map_err(|e| format!("{path}: {e}"))?;
    for skipped in reader.skipped() {
        eprintln!("warning: {path}: skipped corrupt {skipped}");
    }
    Ok((profiler, Some(reader.routines().clone())))
}

/// Profiles one saved trace and reports it with every report option;
/// `None` when it cannot be profiled (the message is printed).
fn report_trace_file(path: &str, opts: &Opts) -> Option<ProfileReport> {
    match profile_trace_file(path, opts) {
        Ok((profiler, names)) => Some(report_profiler(profiler, &names.unwrap_or_default(), opts, None)),
        Err(e) => {
            eprintln!("{e}");
            None
        }
    }
}

/// The merge path of `cmd_replay`: one profile per wire trace, merged,
/// then reported with every report option. The merge matches routines by
/// name, so text traces, which carry none, are refused. The merge ignores
/// order, and a service tenant's aggregate folds its streams by the same
/// rule, so replaying a tenant's spooled streams in any order reproduces
/// its `PROFILE` endpoint byte for byte.
fn replay_merged(opts: &Opts) -> i32 {
    if opts.cct {
        eprintln!("--cct needs a single trace: calling-context trees do not merge");
        return 2;
    }
    let mut merged = ProfileReport::default();
    for path in &opts.positional {
        match profile_trace_file(path, opts) {
            Ok((profiler, Some(names))) => merged.absorb(&profiler.into_report(&names)),
            Ok((_, None)) => {
                eprintln!(
                    "{path}: profile merging requires wire traces (the text format carries no routine names)"
                );
                return 1;
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    report_sections(&merged, "merged replay", opts, None);
    match &opts.profile_out {
        Some(out) => write_profile_out(out, &merged),
        None => 0,
    }
}

/// Writes a merged-form profile to `path` as canonical text; returns the
/// exit code.
fn write_profile_out(path: &str, merged: &ProfileReport) -> i32 {
    match std::fs::write(path, merged.to_canonical_text()) {
        Ok(()) => {
            println!("wrote canonical profile to {path}");
            0
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            1
        }
    }
}

fn cmd_report(args: &[String]) -> i32 {
    let mut opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(out) = opts.positional.first().cloned() else {
        eprintln!("report requires an output HTML file argument");
        return 2;
    };
    opts.report = Some(out);
    if let Some(name) = opts.workload.clone() {
        // Live run: profile the workload under trms, then render.
        let Some(wl) = by_name(&name) else {
            eprintln!("unknown workload `{name}` (see `aprof-cli list`)");
            return 2;
        };
        let params = WorkloadParams { size: opts.size, threads: opts.threads, seed: opts.seed };
        let mut machine = wl.build(&params);
        if !verifier_admits(machine.program(), &name, opts.no_check) {
            return 1;
        }
        let names = machine.program().routines().clone();
        let bounds = bound_notations(machine.program());
        let mut profiler = build_profiler(&opts);
        if let Err(e) = machine.run_with(&mut profiler) {
            eprintln!("guest error: {e}");
            return 1;
        }
        report_profiler(profiler, &names, &opts, Some(&bounds));
        return 0;
    }
    // Offline: render from a previously saved trace.
    let Some(path) = opts.positional.get(1) else {
        eprintln!("report requires --workload NAME or a saved TRACE file");
        return 2;
    };
    report_trace_file(path, &opts).map_or(1, |_| 0)
}

fn cmd_trace_info(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let Some(path) = opts.positional.first() else {
        eprintln!("trace-info requires a FILE argument");
        return 2;
    };
    let (file, is_wire) = match open_trace(path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut by_kind = std::collections::BTreeMap::new();
    if is_wire {
        let mut reader = match WireReader::new(file) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        if opts.strict {
            reader = reader.strict();
        }
        println!("format: wire v{}", reader.version());
        println!("routines: {}", reader.routines().len());
        for item in reader.by_ref() {
            match item {
                Ok((_, event)) => *by_kind.entry(event.kind()).or_insert(0u64) += 1,
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
        let stats = reader.stats();
        println!("events: {}", stats.events);
        println!("chunks: {} decoded, {} skipped", stats.chunks, stats.chunks_skipped);
        if let Some(index) = reader.index() {
            println!("threads: {}", index.thread_count);
        }
        println!("file bytes: {}", stats.bytes_read);
        println!("peak chunk bytes: {}", stats.peak_chunk_bytes);
        print_kind_counts(&by_kind);
        for skipped in reader.skipped() {
            println!("skipped corrupt {skipped}");
        }
        if !reader.skipped().is_empty() {
            return 1;
        }
    } else {
        let trace = match textio::from_reader(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let stats = trace.stats();
        println!("format: text");
        println!("events: {}", stats.events);
        println!("threads: {}", stats.threads);
        by_kind = stats.by_kind;
        print_kind_counts(&by_kind);
    }
    0
}

fn print_kind_counts(by_kind: &std::collections::BTreeMap<EventKind, u64>) {
    for (kind, count) in by_kind {
        println!("  {kind:?}: {count}");
    }
}

fn cmd_bench(args: &[String]) -> i32 {
    let mut selected: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for id in aprof::bench::EXPERIMENTS {
                    println!("{id}");
                }
                return 0;
            }
            "--jobs" | "-j" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer");
                    return 2;
                };
                aprof::bench::set_jobs(n);
            }
            // Consumed by `with_observe` before dispatch.
            "--observe" => {}
            "--obs-json" => {
                it.next();
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return 2;
            }
            other => selected.push(other),
        }
    }
    if selected.is_empty() || selected.contains(&"all") {
        selected = aprof::bench::EXPERIMENTS.to_vec();
    }
    match aprof::bench::run_experiments(&selected) {
        Ok(outputs) => {
            for output in outputs {
                println!("{}\n", output.title);
                println!("{}", output.text);
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn cmd_serve(args: &[String]) -> i32 {
    let mut cfg: Option<ServeConfig> = None;
    let mut unix: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut max_in_flight = 8usize;
    let mut queue_timeout_ms = 10_000u64;
    let mut max_events = u64::MAX;
    let mut max_spool_cells = u64::MAX;
    let mut hard_quota = false;
    let mut fault_seed: Option<u64> = None;
    let mut stream_deadline_ms: Option<u64> = None;
    let mut max_conns: Option<usize> = None;
    let mut spool_capacity_cells: Option<u64> = None;
    let mut retry_after_ms: Option<u64> = None;
    let mut breaker_failures: Option<u32> = None;
    let mut breaker_window_ms: Option<u64> = None;
    let mut breaker_cooldown_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        let parsed = match a.as_str() {
            "--spool" => value("--spool").map(|v| cfg = Some(ServeConfig::new(v))),
            "--unix" => value("--unix").map(|v| unix = Some(v)),
            "--tcp" => value("--tcp").map(|v| tcp = Some(v)),
            "--max-in-flight" => value("--max-in-flight")
                .and_then(|v| v.parse().map_err(|e| format!("--max-in-flight: {e}")))
                .map(|v| max_in_flight = v),
            "--queue-timeout-ms" => value("--queue-timeout-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--queue-timeout-ms: {e}")))
                .map(|v| queue_timeout_ms = v),
            "--max-events" => value("--max-events")
                .and_then(|v| v.parse().map_err(|e| format!("--max-events: {e}")))
                .map(|v| max_events = v),
            "--max-spool-cells" => value("--max-spool-cells")
                .and_then(|v| v.parse().map_err(|e| format!("--max-spool-cells: {e}")))
                .map(|v| max_spool_cells = v),
            "--hard-quota" => {
                hard_quota = true;
                Ok(())
            }
            "--fault-seed" => value("--fault-seed")
                .and_then(|v| v.parse().map_err(|e| format!("--fault-seed: {e}")))
                .map(|v| fault_seed = Some(v)),
            "--stream-deadline-ms" => value("--stream-deadline-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--stream-deadline-ms: {e}")))
                .map(|v| stream_deadline_ms = Some(v)),
            "--max-conns" => value("--max-conns")
                .and_then(|v| v.parse().map_err(|e| format!("--max-conns: {e}")))
                .map(|v| max_conns = Some(v)),
            "--spool-capacity-cells" => value("--spool-capacity-cells")
                .and_then(|v| v.parse().map_err(|e| format!("--spool-capacity-cells: {e}")))
                .map(|v| spool_capacity_cells = Some(v)),
            "--retry-after-ms" => value("--retry-after-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--retry-after-ms: {e}")))
                .map(|v| retry_after_ms = Some(v)),
            "--breaker-failures" => value("--breaker-failures")
                .and_then(|v| v.parse().map_err(|e| format!("--breaker-failures: {e}")))
                .map(|v| breaker_failures = Some(v)),
            "--breaker-window-ms" => value("--breaker-window-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--breaker-window-ms: {e}")))
                .map(|v| breaker_window_ms = Some(v)),
            "--breaker-cooldown-ms" => value("--breaker-cooldown-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--breaker-cooldown-ms: {e}")))
                .map(|v| breaker_cooldown_ms = Some(v)),
            // Consumed by `with_observe` before dispatch.
            "--observe" => Ok(()),
            "--obs-json" => value("--obs-json").map(|_| ()),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let Some(mut cfg) = cfg else {
        eprintln!("serve requires --spool DIR");
        return 2;
    };
    cfg.unix = unix.clone().map(Into::into);
    cfg.tcp = tcp;
    cfg.max_in_flight = max_in_flight;
    cfg.queue_timeout = std::time::Duration::from_millis(queue_timeout_ms);
    cfg.quota = ResourceLimits {
        max_instructions: max_events,
        max_alloc_cells: max_spool_cells,
        trap: !hard_quota,
    };
    cfg.faults = fault_seed.map(FaultConfig::smoke);
    if let Some(ms) = stream_deadline_ms {
        cfg.stream_deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = max_conns {
        cfg.shed.max_active_conns = n;
    }
    if let Some(n) = spool_capacity_cells {
        cfg.shed.spool_capacity_cells = n;
    }
    if let Some(ms) = retry_after_ms {
        cfg.shed.retry_after = std::time::Duration::from_millis(ms);
    }
    let defaults = BreakerConfig::default();
    cfg.breaker = BreakerConfig {
        failures: breaker_failures.unwrap_or(defaults.failures),
        window: breaker_window_ms
            .map_or(defaults.window, std::time::Duration::from_millis),
        cooldown: breaker_cooldown_ms
            .map_or(defaults.cooldown, std::time::Duration::from_millis),
    };
    // The daemon always self-observes: its obs.json endpoint is live even
    // without --observe (which additionally writes a snapshot at exit).
    aprof::obs::enable();
    let spool = cfg.spool.clone();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start daemon: {e}");
            return 1;
        }
    };
    for (path, e) in &server.damaged {
        eprintln!("warning: damaged spool file {}: {e}", path.display());
    }
    println!("aprof-serve: spool {}", spool.display());
    if let Some(path) = &unix {
        println!("listening on unix:{path}");
    }
    if let Some(addr) = server.tcp_addr() {
        println!("listening on tcp:{addr}");
    }
    println!("ready (stop with `aprof-cli submit --to TARGET --shutdown`)");
    match server.wait() {
        Ok(()) => {
            println!("daemon stopped");
            0
        }
        Err(e) => {
            eprintln!("daemon error: {e}");
            1
        }
    }
}

fn cmd_submit(args: &[String]) -> i32 {
    let mut to: Option<String> = None;
    let mut tenant = "default".to_owned();
    let mut stream: Option<String> = None;
    let mut profile: Option<String> = None;
    let mut report: Option<String> = None;
    let mut out: Option<String> = None;
    let mut want_obs = false;
    let mut want_tenants = false;
    let mut want_ping = false;
    let mut shutdown: Option<bool> = None;
    let mut retries = 0u32;
    let mut retry_base_ms = 50u64;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        let parsed = match a.as_str() {
            "--to" => value("--to").map(|v| to = Some(v)),
            "--tenant" => value("--tenant").map(|v| tenant = v),
            "--stream" => value("--stream").map(|v| stream = Some(v)),
            "--profile" => value("--profile").map(|v| profile = Some(v)),
            "--report" => value("--report").map(|v| report = Some(v)),
            "--out" => value("--out").map(|v| out = Some(v)),
            "--obs" => {
                want_obs = true;
                Ok(())
            }
            "--tenants" => {
                want_tenants = true;
                Ok(())
            }
            "--ping" => {
                want_ping = true;
                Ok(())
            }
            "--shutdown" => {
                shutdown = Some(false);
                Ok(())
            }
            "--shutdown-now" => {
                shutdown = Some(true);
                Ok(())
            }
            "--retries" => value("--retries")
                .and_then(|v| v.parse().map_err(|e| format!("--retries: {e}")))
                .map(|v| retries = v),
            "--retry-base-ms" => value("--retry-base-ms")
                .and_then(|v| v.parse().map_err(|e| format!("--retry-base-ms: {e}")))
                .map(|v| retry_base_ms = v),
            // Consumed by `with_observe` before dispatch.
            "--observe" => Ok(()),
            "--obs-json" => value("--obs-json").map(|_| ()),
            other if other.starts_with("--") => Err(format!("unknown option `{other}`")),
            other => {
                files.push(other.to_owned());
                Ok(())
            }
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let Some(to) = to else {
        eprintln!("submit requires --to unix:PATH | tcp:HOST:PORT");
        return 2;
    };
    let target: Target = match to.parse() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if stream.is_some() && files.len() > 1 {
        eprintln!("--stream names a single trace; submitting several derives ids from file stems");
        return 2;
    }
    if files.is_empty() && profile.is_none() && report.is_none() && !want_obs && !want_tenants
        && !want_ping && shutdown.is_none()
    {
        eprintln!("submit: nothing to do (pass TRACE files or a query flag)");
        return 2;
    }
    if want_ping {
        if let Err(e) = serve_client::ping(&target) {
            eprintln!("ping failed: {e}");
            return 1;
        }
        println!("pong");
    }
    for path in &files {
        let stream_id = match &stream {
            Some(s) => s.clone(),
            None => {
                let Some(stem) = std::path::Path::new(path).file_stem().and_then(|s| s.to_str())
                else {
                    eprintln!("{path}: cannot derive a stream id; pass --stream NAME");
                    return 2;
                };
                stem.to_owned()
            }
        };
        let policy = RetryPolicy {
            attempts: retries.saturating_add(1),
            base: std::time::Duration::from_millis(retry_base_ms),
            ..RetryPolicy::default()
        };
        let open = || {
            File::open(path).map(BufReader::new).map_err(|e| {
                ServeError::Io(std::io::Error::new(
                    e.kind(),
                    format!("cannot read {path}: {e}"),
                ))
            })
        };
        match serve_client::submit_retrying(&target, &tenant, &stream_id, &policy, open) {
            Ok(ack) if ack.duplicate => {
                println!("{tenant}/{stream_id}: already committed (duplicate)");
            }
            Ok(ack) => {
                println!(
                    "{tenant}/{stream_id}: committed {} events in {} chunks",
                    ack.events, ack.chunks
                );
            }
            // Transient backpressure that outlived the retry budget: a
            // deliberate exit code (EX_TEMPFAIL) so wrappers can reschedule
            // instead of treating it as data loss.
            Err(e @ ServeError::Busy { .. }) => {
                eprintln!("{tenant}/{stream_id}: {e} (daemon is shedding load; try --retries)");
                return 75;
            }
            Err(e) => {
                eprintln!("{tenant}/{stream_id}: {e}");
                return 1;
            }
        }
    }
    let mut fetched: Vec<(String, String)> = Vec::new();
    if let Some(t) = &profile {
        match serve_client::fetch_profile(&target, t) {
            Ok(text) => fetched.push((format!("profile {t}"), text)),
            Err(e) => {
                eprintln!("profile {t}: {e}");
                return 1;
            }
        }
    }
    if let Some(t) = &report {
        match serve_client::fetch_report(&target, t) {
            Ok(text) => fetched.push((format!("report {t}"), text)),
            Err(e) => {
                eprintln!("report {t}: {e}");
                return 1;
            }
        }
    }
    if want_obs {
        match serve_client::fetch_obs(&target) {
            Ok(text) => fetched.push(("obs.json".to_owned(), text)),
            Err(e) => {
                eprintln!("obs: {e}");
                return 1;
            }
        }
    }
    if want_tenants {
        match serve_client::fetch_tenants(&target) {
            Ok(text) => fetched.push(("tenants".to_owned(), text)),
            Err(e) => {
                eprintln!("tenants: {e}");
                return 1;
            }
        }
    }
    if let Some(path) = &out {
        let body: String = fetched.into_iter().map(|(_, text)| text).collect();
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("wrote fetched output to {path}");
    } else {
        for (_what, text) in &fetched {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
        }
    }
    if let Some(now) = shutdown {
        if let Err(e) = serve_client::shutdown(&target, now) {
            eprintln!("shutdown: {e}");
            return 1;
        }
        println!("shutdown requested ({})", if now { "immediate" } else { "drain" });
    }
    0
}

/// Parses `--mutate` values: `drop-kernel-input`, `drop-read:N`,
/// `scale-cost:N`.
fn parse_mutation(value: &str) -> Result<aprof::corpus::Mutation, String> {
    use aprof::corpus::Mutation;
    if value == "drop-kernel-input" {
        return Ok(Mutation::DropKernelInput);
    }
    if let Some(n) = value.strip_prefix("drop-read:") {
        let n: u64 = n.parse().map_err(|e| format!("--mutate {value}: {e}"))?;
        if n == 0 {
            return Err("--mutate drop-read:N needs N >= 1".into());
        }
        return Ok(Mutation::DropEveryNthRead(n));
    }
    if let Some(n) = value.strip_prefix("scale-cost:") {
        let n: u64 = n.parse().map_err(|e| format!("--mutate {value}: {e}"))?;
        if n == 0 {
            return Err("--mutate scale-cost:N needs N >= 1".into());
        }
        return Ok(Mutation::ScaleNthCost(n));
    }
    Err(format!(
        "unknown mutation `{value}` (drop-kernel-input | drop-read:N | scale-cost:N)"
    ))
}

fn cmd_fuzz(args: &[String]) -> i32 {
    let mut config = aprof::corpus::FuzzConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        let parsed = match a.as_str() {
            "--seed" => value("--seed")
                .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                .map(|v| config.seed = v),
            "--cases" => value("--cases")
                .and_then(|v| v.parse().map_err(|e| format!("--cases: {e}")))
                .map(|v| config.cases = v),
            "--jobs" | "-j" => value("--jobs")
                .and_then(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
                .map(|v| config.jobs = v),
            "--profile" => value("--profile").and_then(|v| {
                aprof::corpus::GenConfig::by_name(&v)
                    .map(|p| config.profile = p)
                    .ok_or(format!("unknown profile `{v}` (mixed | sequential | concurrent | kernel)"))
            }),
            "--faults" => {
                config.faults = true;
                Ok(())
            }
            "--mutate" => value("--mutate")
                .and_then(|v| parse_mutation(&v))
                .map(|m| config.mutation = Some(m)),
            // Consumed by `with_observe` before dispatch.
            "--observe" => Ok(()),
            "--obs-json" => value("--obs-json").map(|_| ()),
            other => Err(format!("unknown option `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let outcome = aprof::corpus::run_fuzz(&config);
    println!("{}", outcome.report);
    if outcome.failures.is_empty() {
        0
    } else {
        1
    }
}

fn build_profiler(opts: &Opts) -> TrmsProfiler {
    // `--tool rms` profiles the thread-oblivious metric regardless of the
    // selected policy: rms is exactly the trms under the rms-only policy.
    let policy = if matches!(opts.tool.as_str(), "rms" | "rms-only") {
        InputPolicy::rms_only()
    } else {
        opts.policy
    };
    TrmsProfiler::builder().policy(policy).calling_contexts(opts.cct).build()
}

fn drive(mut machine: Machine, opts: &Opts) -> i32 {
    let names = machine.program().routines().clone();
    let bounds = opts.report.as_ref().map(|_| bound_notations(machine.program()));
    if let Some(path) = &opts.save_trace {
        let mut rec = RecordingTool::new();
        if let Err(e) = machine.run_with(&mut rec) {
            eprintln!("guest error: {e}");
            return 1;
        }
        let mut trace = Trace::new();
        for e in rec.trace() {
            trace.push(e.thread, e.event);
        }
        if let Err(e) = std::fs::write(path, textio::to_text(&trace)) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        println!("saved {} events to {path}", trace.len());
        let mut profiler = build_profiler(opts);
        trace.replay(&mut profiler);
        report_profiler(profiler, &names, opts, bounds.as_ref());
        return 0;
    }
    match opts.tool.as_str() {
        "trms" | "rms" | "rms-only" => {
            let mut profiler = build_profiler(opts);
            if let Err(e) = machine.run_with(&mut profiler) {
                eprintln!("guest error: {e}");
                return 1;
            }
            report_profiler(profiler, &names, opts, bounds.as_ref());
            0
        }
        "memcheck" => {
            let mut tool = MemcheckTool::new();
            if let Err(e) = machine.run_with(&mut tool) {
                eprintln!("guest error: {e}");
                return 1;
            }
            let r = tool.report();
            println!(
                "memcheck: {} reads of undefined cells ({} distinct cells), {} shadow bytes",
                r.undefined_reads, r.distinct_cells, r.shadow_bytes
            );
            0
        }
        "callgrind" => {
            let mut tool = CallgrindTool::new();
            if let Err(e) = machine.run_with(&mut tool) {
                eprintln!("guest error: {e}");
                return 1;
            }
            let report = tool.into_report(&names);
            let mut table = Table::new(vec![
                "routine".into(),
                "calls".into(),
                "exclusive".into(),
                "inclusive".into(),
            ]);
            for (name, costs) in report.hottest().into_iter().take(opts.top) {
                table.row(vec![
                    name.to_owned(),
                    costs.calls.to_string(),
                    costs.exclusive.to_string(),
                    costs.inclusive.to_string(),
                ]);
            }
            println!("{}", table.render());
            0
        }
        "helgrind" => {
            let mut tool = HelgrindTool::new();
            if let Err(e) = machine.run_with(&mut tool) {
                eprintln!("guest error: {e}");
                return 1;
            }
            let r = tool.report();
            println!("helgrind: {} racy accesses on {} cells", r.races, r.racy_cells);
            0
        }
        other => {
            eprintln!("unknown tool `{other}`");
            2
        }
    }
}

/// Writes the self-contained HTML report. The self-metrics section is
/// filled only when the run was observed (`--observe`).
fn write_html_report(
    report: &ProfileReport,
    title: &str,
    path: &str,
    top: usize,
    bounds: Option<&std::collections::BTreeMap<String, String>>,
) {
    let snap = aprof::obs::is_enabled().then(aprof::obs::snapshot);
    let html = aprof::analysis::render_report(&ReportInputs {
        report,
        title,
        obs: snap.as_ref(),
        top,
        bounds,
    });
    match std::fs::write(path, html) {
        Ok(()) => println!("wrote HTML report to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Routine-name → static bound notation (`aprof-bound`) for the HTML
/// report's "static bound" column. Only run paths have a guest program;
/// trace-replay paths render the column as em-dashes.
fn bound_notations(program: &aprof::vm::ir::Program) -> std::collections::BTreeMap<String, String> {
    aprof::bound::infer_program(program)
        .bounds
        .into_iter()
        .map(|b| {
            let mut s = b.bound.notation();
            if b.recursive {
                s.push_str(" (recursive)");
            }
            (b.name, s)
        })
        .collect()
}

fn report_profiler(
    profiler: TrmsProfiler,
    names: &RoutineTable,
    opts: &Opts,
    bounds: Option<&std::collections::BTreeMap<String, String>>,
) -> ProfileReport {
    let (report, cct) = profiler.into_report_and_cct(names);
    // Title the HTML page after the workload, else the first non-output
    // positional (the trace or assembly file), else a generic label.
    let title = opts
        .workload
        .clone()
        .or_else(|| {
            opts.positional.iter().find(|p| Some(p.as_str()) != opts.report.as_deref()).cloned()
        })
        .unwrap_or_else(|| "run".into());
    report_sections(&report, &title, opts, bounds);
    if let Some(cct) = cct {
        println!("hot calling contexts:");
        let mut table = Table::new(vec![
            "context".into(),
            "calls".into(),
            "cost".into(),
            "distinct trms".into(),
        ]);
        for ctx in cct.hottest(names).into_iter().take(opts.top) {
            table.row(vec![
                ctx.path,
                ctx.calls.to_string(),
                ctx.total_cost.to_string(),
                ctx.distinct_trms.to_string(),
            ]);
        }
        println!("{}", table.render());
    }
    report
}

/// Prints the summary of `report` and every section the options ask for:
/// `--csv`, `--report` (titled `title`), `--bottlenecks` and `--plot`.
fn report_sections(
    report: &ProfileReport,
    title: &str,
    opts: &Opts,
    bounds: Option<&std::collections::BTreeMap<String, String>>,
) {
    print_summary(report, opts);
    if let Some(path) = &opts.report {
        write_html_report(report, title, path, opts.top, bounds);
    }
    if opts.bottlenecks {
        let entries = aprof::analysis::bottleneck::analyze(report);
        println!("asymptotic bottleneck analysis:");
        println!("{}", aprof::analysis::bottleneck::render(&entries, opts.top));
    }
    if let Some(routine) = &opts.plot {
        match report.routine_by_name(routine) {
            Some(rr) => {
                for metric in [Metric::Rms, Metric::Trms] {
                    let plot = CostPlot::from_report(rr, metric, PlotKind::WorstCase);
                    println!("{}", render_plot(&plot));
                    if let Some(fit) = fit_best(&plot.xy()) {
                        println!(
                            "  fitted growth vs {}: {} (r2 = {:.4})\n",
                            metric.label(),
                            fit.model.notation(),
                            fit.r2
                        );
                    }
                }
            }
            None => eprintln!("routine `{routine}` not found in the profile"),
        }
    }
}

fn summary_table(report: &ProfileReport, limit: usize) -> Table {
    let mut routines: Vec<_> = report.routines.iter().collect();
    // Ties break by name: one trace and a merge of several list the same
    // routines in different orders.
    routines.sort_by(|a, b| {
        b.merged.total_cost.cmp(&a.merged.total_cost).then_with(|| a.name.cmp(&b.name))
    });
    let mut table = Table::new(vec![
        "routine".into(),
        "calls".into(),
        "cost".into(),
        "|trms|".into(),
        "|rms|".into(),
        "richness".into(),
        "volume".into(),
        "thr%".into(),
        "ext%".into(),
    ]);
    for r in routines.iter().take(limit) {
        let (thr, ext) = r.induced_fractions();
        table.row(vec![
            r.name.clone(),
            r.merged.calls.to_string(),
            r.merged.total_cost.to_string(),
            r.distinct_trms().to_string(),
            r.distinct_rms().to_string(),
            format!("{:.2}", r.profile_richness()),
            format!("{:.3}", r.input_volume()),
            format!("{:.1}", 100.0 * thr),
            format!("{:.1}", 100.0 * ext),
        ]);
    }
    table
}

fn print_summary(report: &ProfileReport, opts: &Opts) {
    println!("{}", summary_table(report, opts.top).render());
    if let Some(path) = &opts.csv {
        let csv = summary_table(report, usize::MAX).to_csv();
        match std::fs::write(path, csv) {
            Ok(()) => println!("wrote routine summary to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    let g = &report.global;
    let (tp, ep) = g.induced_split();
    println!(
        "{} activations, {} reads ({} induced: {:.1}% thread, {:.1}% external), \
         {} renumberings, {} shadow bytes\n",
        g.activations,
        g.reads,
        g.induced_thread + g.induced_external,
        tp,
        ep,
        g.renumberings,
        g.shadow_bytes
    );
}

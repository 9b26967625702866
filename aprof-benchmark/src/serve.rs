//! The service path: traces captured from guest programs are submitted to
//! an `aprof-serve` daemon over a unix socket, acknowledged once durable,
//! and read back as the tenant's profile.

use crate::daemon::Daemon;
use crate::offline::{replay_identity, SETUPS};
use crate::spans::SpanId;
use crate::stats::{drive_open_loop, median, ms, open_loop_schedule, Rng, Sample, WallClock};
use crate::{json_u64, layers, set_latency, summarize, Ctx, Outcome, Program};
use aprof_core::{ProfileReport, TrmsProfiler};
use aprof_serve::{client, Ack, ServeError, Target};
use aprof_trace::NullTool;
use aprof_wire::{WireOptions, WireReader, WireWriter};
use aprof_workloads::{by_name, WorkloadParams};
use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

/// Concurrent submitters in serve-bulk (one tenant each) and preloaders in
/// serve-mixed: the load comes from one process using at most this many
/// threads and connections, one per core of a 2-core machine.
const CLIENTS: usize = 2;

/// serve-bulk submissions per second of `--seconds`, all submitters
/// together.
const BULK_SUBMITS_PER_S: f64 = 40.0;

/// The programs serve-bulk captures (0.3–1M events each): workload,
/// threads and size. The seed picks their device data and their order.
const BULK_PROGRAMS: [(&str, u32, u64); 8] = [
    ("kvstore", 2, 336),
    ("kvstore", 2, 464),
    ("half_induced", 4, 400),
    ("half_induced", 4, 480),
    ("algo.matmul", 4, 224),
    ("algo.matmul", 4, 224),
    ("vips", 4, 320),
    ("vips", 4, 320),
];

/// The small programs serve-mixed captures, each under this many seeds.
const MIXED_PROGRAMS: [&str; 3] = ["webserv", "docpipe", "mysqld"];
const MIXED_SEEDS: usize = 4;

/// serve-mixed: submissions per second, and profile queries per second.
/// Each query clones and merges every committed stream under the registry
/// lock, so queries cost more as the run goes on; at this rate the query
/// path stays below saturation for the whole run.
const MIXED_SUBMIT_RATE: f64 = 25.0;
const MIXED_QUERY_RATE: f64 = 10.0;

/// serve-mixed: streams preloaded per second of `--seconds` (200 at the
/// default 20 s).
const MIXED_PRELOAD_PER_S: f64 = 10.0;

const MIXED_TENANT: &str = "mixed";

/// Pings timed for `serve.ping_ms_p50` in traced runs.
const PINGS: usize = 25;

/// Alternating native and capture runs per program for
/// `slowdown_vs_native`: at least this many pairs ...
const SLOWDOWN_PAIRS: usize = 5;
/// ... and enough of them that the native runs add up to this long. At
/// 0.05 s, the ratio of the small serve-mixed programs swung 9% between
/// runs of one seed, following the host's memory contention.
const SLOWDOWN_NATIVE_S: f64 = 0.2;

/// serve-bulk submitters wait a seeded 0–20 ms between an ack and their
/// next submission, so arrivals do not lock onto the phase of the daemon's
/// 20 ms accept poll.
const BULK_THINK_S: f64 = 0.02;

/// One captured trace and what the benchmark knows of its program.
struct Captured {
    program: Program,
    bytes: Vec<u8>,
    events: u64,
    blocks: u64,
    exit_value: Option<i64>,
    /// Seconds from the start of the recorded run to the sealed trace.
    capture_s: f64,
}

/// Runs `program` streaming its events into a wire trace, as a client of
/// the daemon captures one.
fn capture(ctx: &Ctx, program: Program, op: u64, parent: Option<SpanId>) -> Result<Captured, String> {
    let mut machine = program.build();
    let names = machine.program().routines().clone();
    let start = Instant::now();
    let mut writer =
        WireWriter::create(Vec::new(), &names, WireOptions::default()).map_err(|e| e.to_string())?;
    let outcome = ctx
        .spans
        .scope("vm.run_recording", op, parent, |_| machine.run_recording(&mut NullTool::new(), &mut writer))
        .map_err(|e| format!("{}: {e}", program.workload.name))?;
    let (bytes, summary) = writer.finish().map_err(|e| e.to_string())?;
    Ok(Captured {
        program,
        bytes,
        events: summary.events,
        blocks: outcome.total_blocks,
        exit_value: outcome.exit_value,
        capture_s: start.elapsed().as_secs_f64(),
    })
}

fn capture_all(ctx: &Ctx, programs: &[Program], parent: Option<SpanId>) -> Result<Vec<Captured>, String> {
    programs.iter().enumerate().map(|(i, &p)| capture(ctx, p, i as u64, parent)).collect()
}

/// Capture time over native time: per program, the median over native and
/// capture runs that alternate which goes first; over the programs, the
/// geometric mean, so that each program counts once however short it is.
/// Every run must agree with the trace the workload submits.
fn capture_slowdown(ctx: &Ctx, out: &mut Outcome, traces: &[Captured]) -> Result<f64, String> {
    let mut log_sum = 0.0;
    for (i, c) in traces.iter().enumerate() {
        let (mut native_total, mut ratios) = (0.0, Vec::new());
        for rep in 0.. {
            if rep >= SLOWDOWN_PAIRS && native_total >= SLOWDOWN_NATIVE_S {
                break;
            }
            let native = || {
                let mut machine = c.program.build();
                let start = Instant::now();
                let run = machine.run_native().map_err(|e| e.to_string())?;
                Ok::<_, String>((run.exit_value, run.total_blocks, start.elapsed().as_secs_f64()))
            };
            let captured = || {
                let again = capture(ctx, c.program, i as u64, None)?;
                Ok::<_, String>((again.exit_value, again.blocks, again.capture_s))
            };
            let (n, r) = if (i + rep).is_multiple_of(2) {
                let n = native()?;
                (n, captured()?)
            } else {
                let r = captured()?;
                (native()?, r)
            };
            let agree = n.0 == c.exit_value && n.1 == c.blocks && r.0 == c.exit_value && r.1 == c.blocks;
            out.tally(agree, || format!("{}: native and recorded runs disagree", c.program.workload.name));
            native_total += n.2;
            ratios.push(r.2 / n.2);
        }
        log_sum += median(&ratios).ln();
    }
    Ok((log_sum / traces.len() as f64).exp())
}

/// The profile a one-shot replay of a wire trace yields: the oracle for
/// one committed stream.
fn one_shot(bytes: &[u8]) -> Result<ProfileReport, String> {
    let mut reader = WireReader::new(bytes).map_err(|e| e.to_string())?.strict();
    let mut profiler = TrmsProfiler::new();
    profiler.consume_stream(&mut reader).map_err(|e| e.to_string())?;
    let names = reader.routines().clone();
    Ok(profiler.into_report(&names))
}

/// The daemon's profile of `tenant` must be byte-identical to
/// `ProfileReport::merge` of one-shot reports of its committed streams, in
/// lexicographic stream-id order.
fn check_tenant(
    out: &mut Outcome,
    target: &Target,
    tenant: &str,
    streams: &BTreeMap<String, usize>,
    oracles: &[ProfileReport],
) {
    let reports: Vec<ProfileReport> = streams.values().map(|&k| oracles[k].clone()).collect();
    let expected = ProfileReport::merge(&reports).to_canonical_text();
    let got = client::fetch_profile(target, tenant);
    let same = matches!(&got, Ok(text) if *text == expected);
    out.tally(same, || match got {
        Ok(_) => format!("tenant {tenant}: profile differs from the merged one-shot replays"),
        Err(e) => format!("tenant {tenant}: {e}"),
    });
}

fn submit(target: &Target, tenant: &str, stream: &str, trace: &Captured) -> Result<Ack, ServeError> {
    client::submit(target, tenant, stream, &mut &trace.bytes[..])
}

/// Whether an ack confirms a fresh commit of every event of `trace`.
fn acked_whole(ack: &Result<Ack, ServeError>, trace: &Captured) -> bool {
    matches!(ack, Ok(a) if a.events == trace.events && !a.duplicate)
}

fn obs_snapshot(ctx: &Ctx, target: &Target) -> Result<Option<String>, String> {
    if !ctx.traced() {
        return Ok(None);
    }
    client::fetch_obs(target).map(Some).map_err(|e| format!("obs.json: {e}"))
}

/// Daemon counter deltas over the measured part of the run.
fn record_obs(out: &mut Outcome, before: Option<String>, after: Option<String>) {
    let (Some(before), Some(after)) = (before, after) else { return };
    let counter = |obs: &str, name: &str| json_u64(obs, name).map_or(0.0, |v| v as f64);
    let delta = |names: &[&str]| names.iter().map(|n| counter(&after, n) - counter(&before, n)).sum::<f64>();
    out.layers.insert("serve.streams_committed", delta(&["serve.streams_committed"]));
    out.layers.insert("serve.streams_aborted", delta(&["serve.streams_aborted"]));
    out.layers.insert("serve.backpressure_stalls", delta(&["serve.backpressure_stalls"]));
    out.layers.insert(
        "serve.shed_total",
        delta(&[
            "serve.shed.conn_pressure",
            "serve.shed.spool_pressure",
            "serve.shed.tenant_pressure",
            "serve.shed.slow_evictions",
        ]),
    );
}

/// The close of a serve workload: with tracing, time pings while the
/// daemon is still up; drain it and record its peak RSS; with tracing, run
/// the layer probes and attribute the median ack; then check that live
/// and replayed profiles agree. `acks` holds (trace, ack ms) per commit.
fn finish(
    ctx: &Ctx,
    out: &mut Outcome,
    daemon: Daemon,
    traces: &[Captured],
    merge_count: usize,
    acks: &[(usize, f64)],
) -> Result<(), String> {
    let mut ping_ms = Vec::new();
    if ctx.traced() {
        for i in 0..PINGS {
            let start = Instant::now();
            ctx.spans
                .scope("serve.ping", i as u64, None, |_| client::ping(daemon.target()))
                .map_err(|e| format!("ping: {e}"))?;
            ping_ms.push(ms(start.elapsed()));
        }
    }
    let peak = daemon.shutdown()?;
    out.metrics.insert("peak_rss_mb", peak);
    if ctx.traced() {
        let programs: Vec<Program> = traces.iter().map(|t| t.program).collect();
        let probed = layers::probe(&programs, merge_count, &ctx.tmp)?;
        let ping_p50 = median(&ping_ms);
        let mut by_events: Vec<&(usize, f64)> = acks.iter().collect();
        by_events.sort_by_key(|(k, _)| traces[*k].events);
        if let Some(&&(k, _)) = by_events.get(by_events.len() / 2) {
            let t = &traces[k];
            let stages_ms = ping_p50
                + probed["serve.socket_ns_per_byte"] * t.bytes.len() as f64 / 1e6
                + (probed["wire.decode_ns_per_event"] + probed["core.trms_ns_per_event"]) * t.events as f64
                    / 1e6
                + probed["serve.fsync_rename_ms_p50"];
            let ack_p50 = median(&acks.iter().map(|&(_, a)| a).collect::<Vec<_>>());
            out.layers.insert("serve.ack_unattributed_ms", ack_p50 - stages_ms);
        }
        out.layers.insert("serve.ping_ms_p50", ping_p50);
        out.layers.extend(probed);
    }
    let first = traces[0].program;
    let identical = replay_identity(&first)?;
    out.tally(identical, || {
        format!("{}: live profile differs from a replay of its recorded events", first.workload.name)
    });
    Ok(())
}

/// A `count`-long sequence that cycles through a seeded permutation of
/// `0..n`, so every trace is used equally often whatever the seed.
fn balanced(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    perm.into_iter().cycle().take(count).collect()
}

/// Sets a daemon up `SETUPS` times, draining all but the last. Returns the
/// last daemon and its companion data with the median set-up time.
fn set_up<T>(
    mut setup: impl FnMut(usize) -> Result<(Daemon, T), String>,
) -> Result<(Daemon, T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let start = Instant::now();
        let (daemon, data) = setup(k)?;
        times.push(start.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            return Ok((daemon, data, median(&times)));
        }
        daemon.shutdown()?;
    }
    unreachable!("SETUPS > 0")
}

struct Submission {
    trace: usize,
    start: Duration,
    end: Duration,
    ack: Result<Ack, ServeError>,
}

/// `serve-bulk`: a closed loop of large submissions from two tenants.
pub fn bulk(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = ctx.rng(0);
    let programs = BULK_PROGRAMS
        .iter()
        .map(|&(name, threads, size)| {
            let workload = by_name(name).ok_or(format!("{name} is not registered"))?;
            Ok(Program { workload, params: WorkloadParams { size, threads, seed: rng.next_u64() } })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let (daemon, traces, setup_s) = set_up(|k| {
        ctx.spans.scope("setup.serve", k as u64, None, |parent| {
            let spool = ctx.tmp.join(format!("spool-{k}"));
            let mut daemon = Daemon::spawn(&spool, &ctx.tmp.join(format!("d{k}.sock")))?;
            let traces = capture_all(ctx, &programs, parent)?;
            ctx.spans.scope("serve.ready", k as u64, parent, |_| daemon.wait_ready())?;
            // Two uncounted submissions warm the daemon up.
            for (i, t) in traces.iter().take(2).enumerate() {
                ctx.spans
                    .scope("serve.submit", i as u64, parent, |_| {
                        submit(daemon.target(), "warmup", &format!("w{i}"), t)
                    })
                    .map_err(|e| format!("warm-up submission: {e}"))?;
            }
            Ok((daemon, traces))
        })
    })?;
    let slowdown = capture_slowdown(ctx, &mut out, &traces)?;
    let target = daemon.target().clone();
    let obs_before = obs_snapshot(ctx, &target)?;

    let per_client = ctx.count(BULK_SUBMITS_PER_S / CLIENTS as f64);
    let orders: Vec<Vec<usize>> =
        (0..CLIENTS).map(|_| balanced(&mut rng, traces.len(), per_client)).collect();
    let t0 = Instant::now();
    let results: Vec<Vec<Submission>> = thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                let (traces, target) = (&traces, &target);
                let mut think = ctx.rng(1 + c as u64);
                s.spawn(move || {
                    let tenant = format!("bulk{c}");
                    order
                        .iter()
                        .enumerate()
                        .map(|(j, &k)| {
                            thread::sleep(Duration::from_secs_f64(think.unit() * BULK_THINK_S));
                            let start = t0.elapsed();
                            let op = (c * per_client + j) as u64;
                            let ack = ctx.spans.scope("serve.submit", op, None, |_| {
                                submit(target, &tenant, &format!("s{j:06}"), &traces[k])
                            });
                            Submission { trace: k, start, end: t0.elapsed(), ack }
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a submitter panicked")).collect()
    });
    let obs_after = obs_snapshot(ctx, &target)?;

    let window = results.iter().flatten().map(|s| s.end).max().unwrap_or_default()
        - results.iter().flatten().map(|s| s.start).min().unwrap_or_default();
    let (mut blocks, mut events) = (0, 0);
    let mut acks = Vec::new();
    let oracles = traces.iter().map(|t| one_shot(&t.bytes)).collect::<Result<Vec<_>, _>>()?;
    for (c, subs) in results.iter().enumerate() {
        let tenant = format!("bulk{c}");
        let mut committed = BTreeMap::new();
        for (j, s) in subs.iter().enumerate() {
            let t = &traces[s.trace];
            let ok = acked_whole(&s.ack, t);
            out.tally(ok, || format!("{tenant}/s{j:06}: {:?}", s.ack));
            if ok {
                committed.insert(format!("s{j:06}"), s.trace);
                blocks += t.blocks;
                events += t.events;
                acks.push((s.trace, ms(s.end - s.start)));
            }
        }
        check_tenant(&mut out, &target, &tenant, &committed, &oracles);
    }
    if acks.is_empty() {
        return Err("no submission was acknowledged".into());
    }
    record_obs(&mut out, obs_before, obs_after);

    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("profile_blocks_per_s", blocks as f64 / window.as_secs_f64());
    out.metrics.insert("slowdown_vs_native", slowdown);
    set_latency(&mut out, &acks.iter().map(|&(_, a)| a).collect::<Vec<_>>());
    out.layers.insert("serve.ingest_events_per_s", events as f64 / window.as_secs_f64());
    finish(ctx, &mut out, daemon, &traces, per_client, &acks)?;
    Ok(out)
}

/// `serve-mixed`: an open loop of small submissions beside profile
/// queries on one tenant, after a preload and a daemon restart.
pub fn mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = ctx.rng(0);
    let mut programs = Vec::with_capacity(MIXED_PROGRAMS.len() * MIXED_SEEDS);
    for name in MIXED_PROGRAMS {
        let workload = by_name(name).ok_or(format!("{name} is not registered"))?;
        for _ in 0..MIXED_SEEDS {
            let params = WorkloadParams { seed: rng.next_u64(), ..WorkloadParams::default() };
            programs.push(Program { workload, params });
        }
    }
    let preload = balanced(&mut rng, programs.len(), ctx.count(MIXED_PRELOAD_PER_S));

    let (daemon, (traces, recover_s), setup_s) = set_up(|k| {
        ctx.spans.scope("setup.serve", k as u64, None, |parent| {
            let spool = ctx.tmp.join(format!("spool-{k}"));
            let socket = ctx.tmp.join(format!("d{k}.sock"));
            let mut first = Daemon::spawn(&spool, &socket)?;
            let traces = capture_all(ctx, &programs, parent)?;
            ctx.spans.scope("serve.ready", k as u64, parent, |_| first.wait_ready())?;
            let target = first.target().clone();
            thread::scope(|s| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let (traces, target, preload) = (&traces, &target, &preload);
                        s.spawn(move || {
                            (c..preload.len()).step_by(CLIENTS).try_for_each(|i| {
                                let stream = format!("p-{i:06}");
                                ctx.spans
                                    .scope("serve.submit", i as u64, parent, |_| {
                                        submit(target, MIXED_TENANT, &stream, &traces[preload[i]])
                                    })
                                    .map(drop)
                                    .map_err(|e| format!("preload {stream}: {e}"))
                            })
                        })
                    })
                    .collect();
                handles.into_iter().try_for_each(|h| h.join().expect("a preloader panicked"))
            })?;
            ctx.spans.scope("serve.drain", k as u64, parent, |_| first.shutdown())?;
            let restart = Instant::now();
            let mut daemon = Daemon::spawn(&spool, &socket)?;
            ctx.spans.scope("serve.recover", k as u64, parent, |_| daemon.wait_ready())?;
            Ok((daemon, (traces, restart.elapsed().as_secs_f64())))
        })
    })?;
    let slowdown = capture_slowdown(ctx, &mut out, &traces)?;
    let target = daemon.target().clone();
    let obs_before = obs_snapshot(ctx, &target)?;

    let count = ctx.count(MIXED_SUBMIT_RATE);
    let order = balanced(&mut rng, traces.len(), count);
    let submit_dues = open_loop_schedule(&mut rng, MIXED_SUBMIT_RATE, count);
    let query_dues = open_loop_schedule(&mut rng, MIXED_QUERY_RATE, ctx.count(MIXED_QUERY_RATE));
    let t0 = Instant::now();
    let (submits, queries): (Vec<Sample>, Vec<Sample>) = thread::scope(|s| {
        let (traces, target, order) = (&traces, &target, &order);
        let (submit_dues, query_dues) = (&submit_dues, &query_dues);
        let writer = s.spawn(move || {
            drive_open_loop(submit_dues, &mut WallClock(t0), |j| {
                let ack = ctx.spans.scope("serve.submit", j as u64, None, |_| {
                    submit(target, MIXED_TENANT, &format!("w-{j:06}"), &traces[order[j]])
                });
                acked_whole(&ack, &traces[order[j]])
            })
        });
        let reader = s.spawn(move || {
            drive_open_loop(query_dues, &mut WallClock(t0), |j| {
                let profile = ctx.spans.scope("serve.query", (count + j) as u64, None, |_| {
                    client::fetch_profile(target, MIXED_TENANT)
                });
                matches!(profile, Ok(text) if !text.is_empty())
            })
        });
        (writer.join().expect("the submitter panicked"), reader.join().expect("the querier panicked"))
    });
    let obs_after = obs_snapshot(ctx, &target)?;

    let mut committed: BTreeMap<String, usize> =
        preload.iter().enumerate().map(|(i, &k)| (format!("p-{i:06}"), k)).collect();
    let (mut blocks, mut events) = (0, 0);
    let mut acks = Vec::new();
    for (j, s) in submits.iter().enumerate() {
        out.tally(s.ok, || format!("{MIXED_TENANT}/w-{j:06} was not acknowledged whole"));
        if s.ok {
            let t = &traces[order[j]];
            committed.insert(format!("w-{j:06}"), order[j]);
            blocks += t.blocks;
            events += t.events;
            acks.push((order[j], ms(s.latency)));
        }
    }
    for (j, q) in queries.iter().enumerate() {
        out.tally(q.ok, || format!("query {j} of {MIXED_TENANT} failed"));
    }
    if acks.is_empty() {
        return Err("no submission was acknowledged".into());
    }
    let oracles = traces.iter().map(|t| one_shot(&t.bytes)).collect::<Result<Vec<_>, _>>()?;
    check_tenant(&mut out, &target, MIXED_TENANT, &committed, &oracles);
    record_obs(&mut out, obs_before, obs_after);

    // The open loop fixes the arrival rate, so the run's wall time says
    // nothing of the daemon; its throughput is per second spent waiting
    // for acks.
    let ack_ms: Vec<f64> = acks.iter().map(|&(_, a)| a).collect();
    let ack_s = ack_ms.iter().sum::<f64>() / 1e3;
    let all: Vec<f64> = submits.iter().chain(&queries).map(|s| ms(s.latency)).collect();
    let late: Vec<f64> = submits.iter().chain(&queries).map(|s| ms(s.late)).collect();
    let query_ms: Vec<f64> = queries.iter().map(|s| ms(s.latency)).collect();
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("profile_blocks_per_s", blocks as f64 / ack_s);
    out.metrics.insert("slowdown_vs_native", slowdown);
    set_latency(&mut out, &all);
    let ack_p50 =
        summarize(&mut out, ["serve.ack_tail_ms", "serve.ack_tail_quantile", "serve.ack_samples"], &ack_ms);
    out.layers.insert("serve.ack_p50_ms", ack_p50);
    let query_p50 = summarize(
        &mut out,
        ["serve.query_tail_ms", "serve.query_tail_quantile", "serve.query_samples"],
        &query_ms,
    );
    out.layers.insert("serve.query_p50_ms", query_p50);
    let late_p50 = summarize(
        &mut out,
        ["loadgen.late_tail_ms", "loadgen.late_tail_quantile", "loadgen.late_samples"],
        &late,
    );
    out.layers.insert("loadgen.late_p50_ms", late_p50);
    out.layers.insert("serve.recover_s", recover_s);
    out.layers.insert("serve.ingest_events_per_s", events as f64 / ack_s);
    finish(ctx, &mut out, daemon, &traces, committed.len(), &acks)?;
    Ok(out)
}

//! Self-metrics for the profiler itself: counters, tracing spans, progress
//! heartbeats, and a machine-readable `obs.json` snapshot.
//!
//! The paper's methodology only pays off if the profiler's *own* overhead is
//! known, not estimated: this crate is the zero-dependency observability
//! layer the rest of the workspace reports into. It is wired through the VM
//! interpreter, the rms/trms profilers, the shadow memory, the wire
//! writer/reader and the parallel bench driver, and surfaces via the CLI's
//! `--observe` flag.
//!
//! Everything here is globally off by default and designed to cost nearly
//! nothing while disabled: counters are static [`AtomicU64`]s behind a single
//! relaxed [`AtomicBool`] check, and [`span!`] guards skip the clock read
//! entirely when disabled. Instrumentation sites count at *coarse*
//! granularity (per basic block, per chunk, per allocation — never per
//! memory event), which keeps the measured `--observe` overhead under the
//! 5% budget recorded in `BENCH_obs.json`.
//!
//! # Example
//!
//! ```
//! aprof_obs::reset();
//! aprof_obs::enable();
//!
//! // counters: named statics, updated from anywhere
//! aprof_obs::counters::VM_BLOCKS.add(3);
//!
//! // spans: RAII timing guards aggregated by name
//! {
//!     let _span = aprof_obs::span!("demo.work");
//!     // ... the timed region ...
//! }
//!
//! let snap = aprof_obs::snapshot();
//! assert_eq!(snap.counter("vm.blocks"), Some(3));
//! assert_eq!(snap.spans.iter().filter(|s| s.name == "demo.work").count(), 1);
//! assert!(snap.to_json().starts_with("{\n  \"version\": 4"));
//! aprof_obs::disable();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema version of the `obs.json` document emitted by [`Snapshot::to_json`].
///
/// v2 added the robustness counters: `wire.durable_syncs`,
/// `wire.recovered_*`, `driver.retries`/`driver.panics_caught`/
/// `driver.degraded_jobs`, `vm.resource_traps` and the `faults.*` family.
/// v3 added the service-daemon family: `serve.conns_accepted`,
/// `serve.active_tenants`, `serve.streams_committed`/`streams_aborted`,
/// `serve.chunks_aggregated`/`events_aggregated`,
/// `serve.backpressure_stalls`, `serve.quota_trips`,
/// `serve.recovered_streams` and `serve.drain_micros`.
/// v4 added the self-healing-service families: `serve.supervisor.*`
/// (worker panics contained, listener restarts), `serve.breaker.*`
/// (circuit-breaker trips/rejections/half-open probes/recoveries),
/// `serve.shed.*` (load-shedding by pressure cause plus slow-loris
/// evictions), `faults.net.*` (injected network faults) and
/// `faults.injected_commit_errors`.
pub const SCHEMA_VERSION: u32 = 4;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the observability layer on. Counters and spans start recording.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the observability layer off. Recorded values are kept (see
/// [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the observability layer is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A named monotonic counter. All counters live in [`counters`] as statics;
/// call sites update them directly and [`snapshot`] collects them all.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter. Only used for the statics in [`counters`].
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// The dotted taxonomy name, e.g. `"wire.chunks_flushed"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when observability is enabled; no-op otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 when observability is enabled; no-op otherwise.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Raises the counter to `v` if `v` is larger (a high-watermark gauge,
    /// used for e.g. peak queue depth). No-op while disabled.
    #[inline]
    pub fn record_max(&self, v: u64) {
        if is_enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Overwrites the counter (a point-in-time gauge, used for values that
    /// are computed once at finish, e.g. shadow-memory footprints). No-op
    /// while disabled.
    #[inline]
    pub fn store(&self, v: u64) {
        if is_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (readable even while disabled).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The counter taxonomy. Names are dotted `layer.metric` pairs; the full
/// schema is specified in `DESIGN.md` §9.
pub mod counters {
    use super::Counter;

    /// Basic blocks interpreted by the guest VM.
    pub static VM_BLOCKS: Counter = Counter::new("vm.blocks");
    /// Events dispatched from the VM to the installed tool/sink.
    pub static VM_EVENTS: Counter = Counter::new("vm.events");
    /// Context switches performed by the VM's round-robin scheduler.
    pub static VM_THREAD_SWITCHES: Counter = Counter::new("vm.thread_switches");

    /// Routine activations (calls) seen by the rms/trms profilers.
    pub static PROF_ACTIVATIONS: Counter = Counter::new("prof.activations");
    /// §4.4 counter renumberings triggered by timestamp overflow.
    pub static PROF_RENUMBERINGS: Counter = Counter::new("prof.renumberings");
    /// Bytes held in profiler shadow memories at finish (gauge).
    pub static PROF_SHADOW_BYTES: Counter = Counter::new("prof.shadow_bytes");

    /// Page-directory doublings of the paged shadow memory (the name
    /// predates that design).
    pub static SHADOW_SECONDARY_ALLOCS: Counter = Counter::new("shadow.secondary_allocs");
    /// Pages allocated by the paged shadow memory (the name predates that
    /// design).
    pub static SHADOW_CHUNK_ALLOCS: Counter = Counter::new("shadow.chunk_allocs");

    /// Chunks sealed and flushed by the wire writer.
    pub static WIRE_CHUNKS_FLUSHED: Counter = Counter::new("wire.chunks_flushed");
    /// Payload bytes written by the wire writer (pre-index/footer).
    pub static WIRE_BYTES_WRITTEN: Counter = Counter::new("wire.bytes_written");
    /// Events encoded by the wire writer.
    pub static WIRE_EVENTS_WRITTEN: Counter = Counter::new("wire.events_written");
    /// Chunks decoded successfully by the wire reader.
    pub static WIRE_CHUNKS_DECODED: Counter = Counter::new("wire.chunks_decoded");
    /// Events decoded by the wire reader.
    pub static WIRE_EVENTS_DECODED: Counter = Counter::new("wire.events_decoded");
    /// Damaged chunks skipped by the lenient wire reader (CRC/decode
    /// failures survived via skip-and-report).
    pub static WIRE_CHUNKS_SKIPPED: Counter = Counter::new("wire.chunks_skipped");
    /// Compressed bytes consumed by the wire reader.
    pub static WIRE_BYTES_READ: Counter = Counter::new("wire.bytes_read");

    /// Chunk flushes that also forced the sink to stable storage
    /// (`FlushPolicy::Durable`).
    pub static WIRE_DURABLE_SYNCS: Counter = Counter::new("wire.durable_syncs");
    /// CRC-valid chunks salvaged from a damaged capture by `recover`.
    pub static WIRE_RECOVERED_CHUNKS: Counter = Counter::new("wire.recovered_chunks");
    /// Events contained in salvaged chunks.
    pub static WIRE_RECOVERED_EVENTS: Counter = Counter::new("wire.recovered_events");

    /// Jobs completed by the parallel measurement driver.
    pub static DRIVER_JOBS: Counter = Counter::new("driver.jobs");
    /// Jobs a worker claimed beyond its first (work actually *stolen* from
    /// the shared cursor rather than handed out at spawn).
    pub static DRIVER_STEALS: Counter = Counter::new("driver.steals");
    /// Peak number of jobs still unclaimed when a worker went looking
    /// (high-watermark of the shared queue depth).
    pub static DRIVER_QUEUE_DEPTH_PEAK: Counter = Counter::new("driver.queue_depth_peak");
    /// Extra attempts spent by the hardened driver after a failed attempt.
    pub static DRIVER_RETRIES: Counter = Counter::new("driver.retries");
    /// Worker panics contained by the hardened driver's isolation boundary.
    pub static DRIVER_PANICS_CAUGHT: Counter = Counter::new("driver.panics_caught");
    /// Jobs that exhausted their retry budget and were reported degraded.
    pub static DRIVER_DEGRADED_JOBS: Counter = Counter::new("driver.degraded_jobs");

    /// Guest runs stopped gracefully by a VM resource limit (instruction or
    /// allocation budget).
    pub static VM_RESOURCE_TRAPS: Counter = Counter::new("vm.resource_traps");

    /// Sink I/O errors injected by the fault plan.
    pub static FAULTS_INJECTED_IO_ERRORS: Counter = Counter::new("faults.injected_io_errors");
    /// Short (partial) sink writes injected by the fault plan.
    pub static FAULTS_INJECTED_SHORT_WRITES: Counter =
        Counter::new("faults.injected_short_writes");
    /// Worker panics injected by the fault plan.
    pub static FAULTS_INJECTED_PANICS: Counter = Counter::new("faults.injected_panics");
    /// Worker delays injected by the fault plan.
    pub static FAULTS_INJECTED_DELAYS: Counter = Counter::new("faults.injected_delays");

    /// Connections accepted by the service daemon (unix + tcp).
    pub static SERVE_CONNS_ACCEPTED: Counter = Counter::new("serve.conns_accepted");
    /// Tenants currently holding at least one aggregated stream (gauge).
    pub static SERVE_ACTIVE_TENANTS: Counter = Counter::new("serve.active_tenants");
    /// Streams fully validated, spooled durably and folded into a tenant
    /// aggregate.
    pub static SERVE_STREAMS_COMMITTED: Counter = Counter::new("serve.streams_committed");
    /// Submissions rejected or broken off before commit (protocol errors,
    /// truncated streams, quota trips, injected faults).
    pub static SERVE_STREAMS_ABORTED: Counter = Counter::new("serve.streams_aborted");
    /// Wire chunks aggregated by the daemon across all tenants.
    pub static SERVE_CHUNKS_AGGREGATED: Counter = Counter::new("serve.chunks_aggregated");
    /// Events aggregated by the daemon across all tenants.
    pub static SERVE_EVENTS_AGGREGATED: Counter = Counter::new("serve.events_aggregated");
    /// Times a submission had to wait because its tenant was at the
    /// in-flight budget (one per stalled admission, not per retry).
    pub static SERVE_BACKPRESSURE_STALLS: Counter = Counter::new("serve.backpressure_stalls");
    /// Submissions refused because a per-tenant quota (event budget or
    /// spool cells) was exhausted.
    pub static SERVE_QUOTA_TRIPS: Counter = Counter::new("serve.quota_trips");
    /// Spooled streams replayed back into tenant aggregates on daemon
    /// restart.
    pub static SERVE_RECOVERED_STREAMS: Counter = Counter::new("serve.recovered_streams");
    /// Microseconds the last graceful drain took (gauge).
    pub static SERVE_DRAIN_MICROS: Counter = Counter::new("serve.drain_micros");

    /// Worker panics caught and contained by the connection supervisor
    /// (the daemon replied `ERR` and kept serving).
    pub static SERVE_SUPERVISOR_WORKER_PANICS: Counter =
        Counter::new("serve.supervisor.worker_panics");
    /// Listener (accept-loop) restarts performed by the supervisor after a
    /// panic, each preceded by jittered exponential backoff.
    pub static SERVE_SUPERVISOR_LISTENER_RESTARTS: Counter =
        Counter::new("serve.supervisor.listener_restarts");

    /// Per-tenant circuit breakers tripped open (N failures in the sliding
    /// window).
    pub static SERVE_BREAKER_TRIPS: Counter = Counter::new("serve.breaker.trips");
    /// Submissions refused `ERR quarantined` by an open breaker.
    pub static SERVE_BREAKER_REJECTIONS: Counter = Counter::new("serve.breaker.rejections");
    /// Probe submissions admitted through a half-open breaker.
    pub static SERVE_BREAKER_PROBES: Counter = Counter::new("serve.breaker.half_open_probes");
    /// Breakers closed again after a successful half-open probe.
    pub static SERVE_BREAKER_RECOVERIES: Counter = Counter::new("serve.breaker.recoveries");

    /// Submissions shed `ERR busy retry-after` because the daemon-wide
    /// active-connection ceiling was crossed.
    pub static SERVE_SHED_CONN_PRESSURE: Counter = Counter::new("serve.shed.conn_pressure");
    /// Submissions shed because spool headroom ran out.
    pub static SERVE_SHED_SPOOL_PRESSURE: Counter = Counter::new("serve.shed.spool_pressure");
    /// Submissions shed because the tenant neared its event budget.
    pub static SERVE_SHED_TENANT_PRESSURE: Counter = Counter::new("serve.shed.tenant_pressure");
    /// Streams evicted for blowing the per-stream overall deadline
    /// (slow-loris defence).
    pub static SERVE_SHED_SLOW_EVICTIONS: Counter = Counter::new("serve.shed.slow_evictions");

    /// Disk-full errors injected at the spool fsync/rename commit stages.
    pub static FAULTS_INJECTED_COMMIT_ERRORS: Counter =
        Counter::new("faults.injected_commit_errors");
    /// Connection resets injected by the network fault plan.
    pub static FAULTS_NET_RESETS: Counter = Counter::new("faults.net.conn_resets");
    /// Short reads injected by the network fault plan.
    pub static FAULTS_NET_SHORT_READS: Counter = Counter::new("faults.net.short_reads");
    /// Short writes injected by the network fault plan.
    pub static FAULTS_NET_SHORT_WRITES: Counter = Counter::new("faults.net.short_writes");
    /// Single-byte dribble stalls injected by the network fault plan.
    pub static FAULTS_NET_DRIBBLES: Counter = Counter::new("faults.net.dribbles");
    /// Garbage-byte writes injected by the network fault plan.
    pub static FAULTS_NET_GARBAGE: Counter = Counter::new("faults.net.garbage_writes");

    /// Every counter in the taxonomy, in report order.
    pub static ALL: &[&Counter] = &[
        &VM_BLOCKS,
        &VM_EVENTS,
        &VM_THREAD_SWITCHES,
        &VM_RESOURCE_TRAPS,
        &PROF_ACTIVATIONS,
        &PROF_RENUMBERINGS,
        &PROF_SHADOW_BYTES,
        &SHADOW_SECONDARY_ALLOCS,
        &SHADOW_CHUNK_ALLOCS,
        &WIRE_CHUNKS_FLUSHED,
        &WIRE_BYTES_WRITTEN,
        &WIRE_EVENTS_WRITTEN,
        &WIRE_CHUNKS_DECODED,
        &WIRE_EVENTS_DECODED,
        &WIRE_CHUNKS_SKIPPED,
        &WIRE_BYTES_READ,
        &WIRE_DURABLE_SYNCS,
        &WIRE_RECOVERED_CHUNKS,
        &WIRE_RECOVERED_EVENTS,
        &DRIVER_JOBS,
        &DRIVER_STEALS,
        &DRIVER_QUEUE_DEPTH_PEAK,
        &DRIVER_RETRIES,
        &DRIVER_PANICS_CAUGHT,
        &DRIVER_DEGRADED_JOBS,
        &FAULTS_INJECTED_IO_ERRORS,
        &FAULTS_INJECTED_SHORT_WRITES,
        &FAULTS_INJECTED_PANICS,
        &FAULTS_INJECTED_DELAYS,
        &FAULTS_INJECTED_COMMIT_ERRORS,
        &FAULTS_NET_RESETS,
        &FAULTS_NET_SHORT_READS,
        &FAULTS_NET_SHORT_WRITES,
        &FAULTS_NET_DRIBBLES,
        &FAULTS_NET_GARBAGE,
        &SERVE_CONNS_ACCEPTED,
        &SERVE_ACTIVE_TENANTS,
        &SERVE_STREAMS_COMMITTED,
        &SERVE_STREAMS_ABORTED,
        &SERVE_CHUNKS_AGGREGATED,
        &SERVE_EVENTS_AGGREGATED,
        &SERVE_BACKPRESSURE_STALLS,
        &SERVE_QUOTA_TRIPS,
        &SERVE_RECOVERED_STREAMS,
        &SERVE_DRAIN_MICROS,
        &SERVE_SUPERVISOR_WORKER_PANICS,
        &SERVE_SUPERVISOR_LISTENER_RESTARTS,
        &SERVE_BREAKER_TRIPS,
        &SERVE_BREAKER_REJECTIONS,
        &SERVE_BREAKER_PROBES,
        &SERVE_BREAKER_RECOVERIES,
        &SERVE_SHED_CONN_PRESSURE,
        &SERVE_SHED_SPOOL_PRESSURE,
        &SERVE_SHED_TENANT_PRESSURE,
        &SERVE_SHED_SLOW_EVICTIONS,
    ];
}

#[derive(Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

static SPANS: Mutex<BTreeMap<&'static str, SpanAgg>> = Mutex::new(BTreeMap::new());

/// RAII guard produced by [`span!`]: times the enclosing scope and folds the
/// elapsed time into the per-name aggregate on drop. Construct via the
/// macro, not directly.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Starts a span. When observability is disabled this never reads the
    /// clock and the drop is free.
    pub fn begin(name: &'static str) -> Self {
        let start = is_enabled().then(Instant::now);
        Self { name, start }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        let agg = spans.entry(self.name).or_default();
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(ns);
        agg.max_ns = agg.max_ns.max(ns);
    }
}

/// Opens a named timing span for the enclosing scope.
///
/// ```
/// aprof_obs::enable();
/// let _span = aprof_obs::span!("phase.replay");
/// aprof_obs::disable();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::begin($name)
    };
}

/// Zeroes every counter and clears all span aggregates. Use between
/// benchmark phases or tests; does not change the enabled flag.
pub fn reset() {
    for c in counters::ALL {
        c.reset();
    }
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Aggregated timings of one span name in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct SpanSnapshot {
    /// Span name as given to [`span!`].
    pub name: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Longest single entry, in nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of every counter and span aggregate.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter in taxonomy order.
    pub counters: Vec<(String, u64)>,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value by dotted name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders the snapshot as the `obs.json` document:
    ///
    /// ```json
    /// {
    ///   "version": 4,
    ///   "counters": { "vm.blocks": 123, ... },
    ///   "spans": [ { "name": "...", "count": 1, "total_ns": 5, "max_ns": 5 } ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {SCHEMA_VERSION},\n"));
        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"max_ns\": {} }}",
                s.name, s.count, s.total_ns, s.max_ns
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`Snapshot::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating or writing the file.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Captures the current value of every counter and span aggregate.
pub fn snapshot() -> Snapshot {
    let counters = counters::ALL
        .iter()
        .map(|c| (c.name().to_string(), c.get()))
        .collect();
    let spans = SPANS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, agg)| SpanSnapshot {
            name: (*name).to_string(),
            count: agg.count,
            total_ns: agg.total_ns,
            max_ns: agg.max_ns,
        })
        .collect();
    Snapshot { counters, spans }
}

/// A rate-limited progress reporter: [`Heartbeat::tick`] invokes its message
/// closure and prints to stderr at most once per interval, and only while
/// observability is enabled. The closure is not even called between beats,
/// so formatting cost is bounded by the interval, not the call rate.
pub struct Heartbeat {
    every: Duration,
    last: Option<Instant>,
}

impl Heartbeat {
    /// A heartbeat that prints at most once per `every`.
    pub fn new(every: Duration) -> Self {
        Self { every, last: None }
    }

    /// The default cadence used by the VM and CLI (one line per second).
    pub fn per_second() -> Self {
        Self::new(Duration::from_secs(1))
    }

    /// Prints `[obs] {msg()}` to stderr if the interval has elapsed since
    /// the last beat. The first tick only arms the timer (so short runs
    /// stay silent).
    pub fn tick(&mut self, msg: impl FnOnce() -> String) {
        if !is_enabled() {
            return;
        }
        let now = Instant::now();
        match self.last {
            None => self.last = Some(now),
            Some(last) if now.duration_since(last) >= self.every => {
                self.last = Some(now);
                eprintln!("[obs] {}", msg());
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag, counters and span table are process-global, and the
    // test harness runs tests on parallel threads: serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_counters_do_not_move() {
        let _l = serial();
        reset();
        disable();
        counters::VM_BLOCKS.add(5);
        counters::VM_BLOCKS.incr();
        counters::DRIVER_QUEUE_DEPTH_PEAK.record_max(9);
        assert_eq!(counters::VM_BLOCKS.get(), 0);
        assert_eq!(counters::DRIVER_QUEUE_DEPTH_PEAK.get(), 0);
    }

    #[test]
    fn enabled_counters_accumulate_and_reset() {
        let _l = serial();
        reset();
        enable();
        counters::WIRE_CHUNKS_FLUSHED.add(2);
        counters::WIRE_CHUNKS_FLUSHED.incr();
        counters::DRIVER_QUEUE_DEPTH_PEAK.record_max(4);
        counters::DRIVER_QUEUE_DEPTH_PEAK.record_max(2);
        counters::PROF_SHADOW_BYTES.store(77);
        let snap = snapshot();
        assert_eq!(snap.counter("wire.chunks_flushed"), Some(3));
        assert_eq!(snap.counter("driver.queue_depth_peak"), Some(4));
        assert_eq!(snap.counter("prof.shadow_bytes"), Some(77));
        assert_eq!(snap.counter("no.such.counter"), None);
        reset();
        assert_eq!(counters::WIRE_CHUNKS_FLUSHED.get(), 0);
        disable();
    }

    #[test]
    fn spans_aggregate_by_name() {
        let _l = serial();
        reset();
        enable();
        for _ in 0..3 {
            let _g = span!("test.loop");
        }
        let snap = snapshot();
        let s = snap.spans.iter().find(|s| s.name == "test.loop").unwrap();
        assert_eq!(s.count, 3);
        assert!(s.max_ns <= s.total_ns);
        disable();
        reset();
    }

    #[test]
    fn json_shape_is_stable() {
        let _l = serial();
        reset();
        enable();
        counters::VM_BLOCKS.add(1);
        let _g = span!("test.json");
        drop(_g);
        let json = snapshot().to_json();
        assert!(json.contains("\"version\": 4"));
        assert!(json.contains("\"vm.blocks\": 1"));
        assert!(json.contains("\"name\": \"test.json\""));
        assert!(json.ends_with("}\n"));
        disable();
        reset();
    }

    #[test]
    fn heartbeat_is_silent_when_disabled() {
        let _l = serial();
        disable();
        let mut hb = Heartbeat::new(Duration::from_millis(0));
        let mut called = false;
        hb.tick(|| {
            called = true;
            String::new()
        });
        assert!(!called);
    }

    /// DESIGN.md §9 and the code must agree: the §9.2 table lists exactly
    /// the counters of `counters::ALL`, in order, and §9.3 documents the
    /// current `SCHEMA_VERSION` and counter count.
    #[test]
    fn design_md_counter_taxonomy_does_not_drift() {
        let design = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../DESIGN.md"
        ))
        .expect("DESIGN.md readable from crates/obs");
        let section = |heading: &str, next: &str| -> &str {
            let start = design.find(heading).unwrap_or_else(|| panic!("no {heading}"));
            let len = design[start..].find(next).unwrap_or_else(|| panic!("no {next}"));
            &design[start..start + len]
        };

        let table: Vec<&str> = section("### 9.2 ", "### 9.3 ")
            .lines()
            .filter_map(|row| row.strip_prefix("| `"))
            .flat_map(|row| {
                let first_cell = row.split(" |").next().unwrap_or_default();
                first_cell.split('`').step_by(2)
            })
            .collect();
        let code: Vec<&str> = counters::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(table, code, "DESIGN.md §9.2 counter table vs counters::ALL");

        let schema = section("### 9.3 ", "### 9.4 ");
        for want in [
            format!("schema (version {SCHEMA_VERSION})"),
            format!("\"version\": {SCHEMA_VERSION}"),
            format!("(all {},", counters::ALL.len()),
        ] {
            assert!(schema.contains(&want), "DESIGN.md §9.3 lacks {want:?}");
        }
    }
}

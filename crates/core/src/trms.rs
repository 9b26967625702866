//! The read/write timestamping algorithm (§4.2–4.3 of the paper).

use crate::cct::{Cct, CctNodeId};
use crate::profile::{ActivationRecord, GlobalStats, ProfileReport, RoutineThreadProfile};
use crate::renumber::{self, RenumberScheme};
use crate::InputPolicy;
use aprof_shadow::ShadowMemory;
use aprof_trace::{Addr, Event, RoutineId, RoutineTable, ThreadId, TimedEvent, Tool};
use std::collections::BTreeMap;

/// Default counter limit: 32-bit timestamps, as stored by the paper's
/// three-level shadow memory chunks.
const DEFAULT_COUNTER_LIMIT: u64 = u32::MAX as u64;

/// Events per [`Tool::on_batch`] delivery used by
/// [`TrmsProfiler::consume_stream`] — large enough to amortize dispatch,
/// small enough to stay cache-resident.
pub const DEFAULT_STREAM_BATCH: usize = 4096;

/// One entry of a per-thread shadow run-time stack.
///
/// `S_t[i]` in the paper: the routine id, the activation timestamp, the cost
/// counter at entry, and the *partial* metric values satisfying Invariant 2
/// (the metric of the i-th pending activation is the suffix sum of
/// partials). Induced-access and read counters are *inclusive*: a child's
/// counters are folded into its parent when it returns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) routine: RoutineId,
    pub(crate) node: CctNodeId,
    pub(crate) ts: u64,
    pub(crate) cost_at_entry: u64,
    pub(crate) partial_trms: i64,
    pub(crate) partial_rms: i64,
    pub(crate) reads: u64,
    pub(crate) induced_thread: u64,
    pub(crate) induced_external: u64,
}

/// Per-thread profiler state: the thread's access-timestamp shadow memory
/// `ts_t`, its shadow stack `S_t`, and its basic-block cost counter.
#[derive(Debug, Default)]
pub(crate) struct ThreadState {
    pub(crate) ts: ShadowMemory<u64>,
    pub(crate) stack: Vec<Frame>,
    pub(crate) cost: u64,
}

impl ThreadState {
    /// Largest stack index `j` with `S_t[j].ts <= lts`, i.e. the deepest
    /// pending activation that had already accessed the cell (frame
    /// timestamps are strictly increasing with depth, so binary search —
    /// the `O(log d_t)` step of procedure `read`).
    fn deepest_at_or_before(&self, lts: u64) -> Option<usize> {
        let n = self.stack.partition_point(|f| f.ts <= lts);
        n.checked_sub(1)
    }
}

/// Configures and builds a [`TrmsProfiler`].
///
/// # Example
///
/// ```
/// use aprof_core::{InputPolicy, TrmsProfiler};
/// let profiler = TrmsProfiler::builder()
///     .policy(InputPolicy::external_only())
///     .counter_limit(1 << 20)
///     .log_activations(true)
///     .build();
/// assert_eq!(profiler.policy(), InputPolicy::external_only());
/// ```
#[derive(Debug, Clone)]
pub struct TrmsBuilder {
    policy: InputPolicy,
    counter_limit: u64,
    scheme: RenumberScheme,
    log_activations: bool,
    calling_contexts: bool,
}

impl Default for TrmsBuilder {
    fn default() -> Self {
        TrmsBuilder {
            policy: InputPolicy::full(),
            counter_limit: DEFAULT_COUNTER_LIMIT,
            scheme: RenumberScheme::Paper,
            log_activations: false,
            calling_contexts: false,
        }
    }
}

impl TrmsBuilder {
    /// Selects which induced first-accesses count as input (default: all).
    pub fn policy(mut self, policy: InputPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the timestamp value at which the counter "overflows" and global
    /// renumbering (§4.4) runs. Defaults to `u32::MAX`, modelling the
    /// paper's 32-bit shadow timestamps; tests use small limits to exercise
    /// renumbering cheaply.
    ///
    /// # Panics
    ///
    /// Panics if `limit < 16` (renumbering needs headroom for the stamps it
    /// assigns).
    pub fn counter_limit(mut self, limit: u64) -> Self {
        assert!(limit >= 16, "counter limit too small");
        self.counter_limit = limit;
        self
    }

    /// Selects the renumbering algorithm (default: the paper's §4.4 scheme).
    pub fn renumber_scheme(mut self, scheme: RenumberScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Additionally logs one [`ActivationRecord`] per completed activation
    /// (used by differential tests; off by default).
    pub fn log_activations(mut self, log: bool) -> Self {
        self.log_activations = log;
        self
    }

    /// Additionally aggregates profiles per *calling context* in a
    /// [`Cct`], so the same routine called from different sites gets
    /// separate cost curves (extension; off by default).
    pub fn calling_contexts(mut self, enable: bool) -> Self {
        self.calling_contexts = enable;
        self
    }

    /// Builds the profiler.
    pub fn build(self) -> TrmsProfiler {
        TrmsProfiler {
            policy: self.policy,
            counter_limit: self.counter_limit,
            scheme: self.scheme,
            log_activations: self.log_activations,
            cct: if self.calling_contexts { Some(Cct::new()) } else { None },
            count: 0,
            next_renumber: self.counter_limit,
            wts: ShadowMemory::new(),
            threads: Vec::new(),
            profiles: BTreeMap::new(),
            global: GlobalStats::default(),
            activations: Vec::new(),
            finished: false,
        }
    }
}

/// The multithreaded input-sensitive profiler (`aprof-trms`).
///
/// Implements the read/write timestamping algorithm of §4.2 with the
/// external-input extension of §4.3 and the counter-renumbering procedure of
/// §4.4, producing thread-sensitive per-routine profiles that map every
/// distinct input-size value (both trms and rms) to cost statistics.
///
/// Drive it with guest-machine execution or [`Trace::replay`], then call
/// [`into_report`](TrmsProfiler::into_report).
///
/// [`Trace::replay`]: aprof_trace::Trace::replay
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct TrmsProfiler {
    policy: InputPolicy,
    counter_limit: u64,
    scheme: RenumberScheme,
    log_activations: bool,
    /// Per-calling-context profile aggregation, when enabled.
    cct: Option<Cct>,
    /// Global counter: total thread switches + routine activations (+ kernel
    /// writes, which also bump it per Fig. 12).
    count: u64,
    /// Counter value that triggers the next renumbering attempt.
    next_renumber: u64,
    /// Global shadow memory `wts`: packed `(timestamp << 1) | kernel_bit` of
    /// the latest write to each cell by any thread or by the kernel.
    wts: ShadowMemory<u64>,
    threads: Vec<ThreadState>,
    profiles: BTreeMap<(ThreadId, RoutineId), RoutineThreadProfile>,
    global: GlobalStats,
    activations: Vec<ActivationRecord>,
    finished: bool,
}

impl Default for TrmsProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl TrmsProfiler {
    /// Creates a profiler with the full [`InputPolicy`] and default settings.
    pub fn new() -> Self {
        TrmsBuilder::default().build()
    }

    /// Creates a profiler with the given input policy.
    pub fn with_policy(policy: InputPolicy) -> Self {
        TrmsBuilder::default().policy(policy).build()
    }

    /// Starts configuring a profiler.
    pub fn builder() -> TrmsBuilder {
        TrmsBuilder::default()
    }

    /// The input policy in force.
    pub fn policy(&self) -> InputPolicy {
        self.policy
    }

    /// The current global counter value (mainly for tests).
    pub fn counter(&self) -> u64 {
        self.count
    }

    /// Number of renumberings performed so far.
    pub fn renumberings(&self) -> u64 {
        self.global.renumberings
    }

    /// The per-activation log (empty unless
    /// [`log_activations`](TrmsBuilder::log_activations) was enabled).
    pub fn activations(&self) -> &[ActivationRecord] {
        &self.activations
    }

    /// The calling-context tree (populated only when built with
    /// [`calling_contexts(true)`](TrmsBuilder::calling_contexts)).
    pub fn cct(&self) -> Option<&Cct> {
        self.cct.as_ref()
    }

    /// Finalizes the session and returns both the flat report and the
    /// calling-context tree (if context aggregation was enabled).
    pub fn into_report_and_cct(mut self, names: &RoutineTable) -> (ProfileReport, Option<Cct>) {
        self.finish();
        self.global.shadow_bytes = self.shadow_bytes();
        let cct = self.cct.take();
        (ProfileReport::assemble("aprof-trms", self.profiles, self.global, names), cct)
    }

    /// Resident bytes of all shadow memories (global + per-thread), the
    /// space measure used by Table 1 and Fig. 14b.
    pub fn shadow_bytes(&self) -> u64 {
        let mut stats = self.wts.stats();
        for t in &self.threads {
            stats = stats.merged(t.ts.stats());
        }
        stats.bytes as u64
    }

    /// Consumes a fallible event stream (e.g. a wire-trace decoder) with
    /// [`aprof_trace::replay`] in [`DEFAULT_STREAM_BATCH`]-event batches, so
    /// traces far larger than memory profile in bounded space. Returns the
    /// events consumed.
    ///
    /// # Errors
    ///
    /// Stops at the first source error and returns it; the profile is not
    /// finalized in that case.
    pub fn consume_stream<E, I>(&mut self, events: I) -> Result<u64, E>
    where
        I: IntoIterator<Item = Result<(ThreadId, Event), E>>,
    {
        aprof_trace::replay(self, events, DEFAULT_STREAM_BATCH)
    }

    /// Finalizes the session (unwinding any still-pending activations) and
    /// assembles the report.
    pub fn into_report(mut self, names: &RoutineTable) -> ProfileReport {
        self.finish();
        self.global.shadow_bytes = self.shadow_bytes();
        ProfileReport::assemble("aprof-trms", self.profiles, self.global, names)
    }

    fn state(&mut self, thread: ThreadId) -> &mut ThreadState {
        let idx = thread.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, ThreadState::default);
        }
        &mut self.threads[idx]
    }

    /// Bumps the global counter, renumbering first if it would exceed the
    /// configured limit.
    ///
    /// Renumbering compacts timestamps to a range proportional to the number
    /// of pending activations, so it cannot shrink the counter below
    /// `4 * (pending + 2)`. If the stacks are too deep for the configured
    /// limit (possible only with the tiny limits used in tests — the default
    /// `u32::MAX` leaves room for a billion pending activations), the next
    /// attempt is deferred until the counter doubles; timestamps are stored
    /// as `u64`, so correctness is never at risk, only the modelled 32-bit
    /// compactness.
    fn tick(&mut self) {
        if self.count >= self.next_renumber {
            renumber::run(self.scheme, &mut self.threads, &mut self.wts, &mut self.count);
            self.global.renumberings += 1;
            self.next_renumber = self.counter_limit.max(self.count * 2);
        }
        self.count += 1;
    }

    /// Procedure `read` of Fig. 11, shared by thread reads and kernel reads
    /// (§4.3 treats a `kernelRead` as a read implicitly performed by the
    /// thread). Also maintains the rms partials, which ignore induced
    /// accesses, so both metrics come out of one pass.
    fn on_read(&mut self, thread: ThreadId, addr: Addr) {
        let count = self.count;
        let policy = self.policy;
        let packed = self.wts.get(addr);
        let st = self.state(thread);
        let (induced_thread, induced_external) = Self::apply_read(st, count, policy, packed, addr);
        if induced_thread {
            self.global.induced_thread += 1;
        }
        if induced_external {
            self.global.induced_external += 1;
        }
    }

    /// The thread-state half of procedure `read`: everything except the
    /// `wts` lookup and the global induced counters, so the batched read
    /// path can run it under a split borrow of `self`. Returns whether the
    /// read was an induced (thread, external) first-access.
    fn apply_read(
        st: &mut ThreadState,
        count: u64,
        policy: InputPolicy,
        packed: u64,
        addr: Addr,
    ) -> (bool, bool) {
        let (w_ts, w_kernel) = (packed >> 1, packed & 1 == 1);
        let mut induced_thread = false;
        let mut induced_external = false;
        // Combined lines 1 and 12 of procedure read: fetch the thread's last
        // access timestamp and stamp the cell with the current counter in
        // one shadow-table traversal.
        let lts = st.ts.get_set(addr, count);
        if let Some(top) = st.stack.len().checked_sub(1) {
            st.stack[top].reads += 1;
            // Line 1 of procedure read: ts_t[l] < wts[l] means the cell
            // was written more recently than the thread's last access —
            // an induced first-access (had the thread itself performed
            // the last write, ts_t[l] would equal wts[l]).
            let induced = w_ts > lts;
            if induced && policy.counts(w_kernel) {
                // Induced first-access: new input for the topmost
                // activation *and all its ancestors* (Invariant 2 makes
                // the suffix-sum increment implicit).
                st.stack[top].partial_trms += 1;
                if w_kernel {
                    st.stack[top].induced_external += 1;
                    induced_external = true;
                } else {
                    st.stack[top].induced_thread += 1;
                    induced_thread = true;
                }
            } else if lts < st.stack[top].ts {
                // Plain first access: the activation (and its completed
                // descendants) never touched the cell. New input for the
                // topmost activation and for every ancestor deeper than
                // the most recent one that already accessed the cell.
                st.stack[top].partial_trms += 1;
                if lts != 0 {
                    if let Some(j) = st.deepest_at_or_before(lts) {
                        st.stack[j].partial_trms -= 1;
                    }
                }
            }
            // rms accounting: identical first-access rule, no induced
            // branch (Definition 1 ignores inter-thread writes).
            if lts < st.stack[top].ts {
                st.stack[top].partial_rms += 1;
                if lts != 0 {
                    if let Some(j) = st.deepest_at_or_before(lts) {
                        st.stack[j].partial_rms -= 1;
                    }
                }
            }
        }
        (induced_thread, induced_external)
    }

    fn unwind(&mut self, thread: ThreadId) {
        while self
            .threads
            .get(thread.index())
            .map(|st| !st.stack.is_empty())
            .unwrap_or(false)
        {
            let routine = self.threads[thread.index()].stack.last().expect("nonempty").routine;
            self.on_return(thread, routine);
        }
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId) {
        let st = self.state(thread);
        let Some(frame) = st.stack.pop() else { return };
        debug_assert_eq!(frame.routine, routine, "return does not match topmost activation");
        debug_assert!(frame.partial_trms >= 0, "topmost trms partial must be a true trms value");
        debug_assert!(frame.partial_rms >= 0, "topmost rms partial must be a true rms value");
        let cost = st.cost - frame.cost_at_entry;
        let trms = frame.partial_trms.max(0) as u64;
        let rms = frame.partial_rms.max(0) as u64;

        // Invariant 2 maintenance: fold the completed child's partials (and
        // inclusive counters) into its parent.
        if let Some(parent) = st.stack.last_mut() {
            parent.partial_trms += frame.partial_trms;
            parent.partial_rms += frame.partial_rms;
            parent.reads += frame.reads;
            parent.induced_thread += frame.induced_thread;
            parent.induced_external += frame.induced_external;
        }

        let profile = self.profiles.entry((thread, frame.routine)).or_default();
        profile.record(trms, rms, cost);
        profile.reads += frame.reads;
        profile.induced_thread += frame.induced_thread;
        profile.induced_external += frame.induced_external;
        if let Some(cct) = self.cct.as_mut() {
            cct.record(frame.node, trms, rms, cost);
        }

        self.global.activations += 1;
        self.global.sum_trms += trms;
        self.global.sum_rms += rms;

        if self.log_activations {
            self.activations.push(ActivationRecord {
                thread,
                routine: frame.routine,
                trms,
                rms,
                cost,
            });
        }
    }
}

impl Tool for TrmsProfiler {
    fn name(&self) -> &'static str {
        "aprof-trms"
    }

    fn thread_start(&mut self, thread: ThreadId) {
        self.state(thread);
    }

    fn thread_exit(&mut self, thread: ThreadId) {
        // Activations still pending when the thread dies are recorded with
        // the input and cost they accumulated so far.
        self.unwind(thread);
    }

    fn thread_switch(&mut self, _thread: ThreadId) {
        // `count` is increased at each thread switch (§4.2, data structures).
        self.tick();
    }

    fn basic_block(&mut self, thread: ThreadId, cost: u64) {
        self.state(thread).cost += cost;
    }

    fn call(&mut self, thread: ThreadId, routine: RoutineId) {
        // Procedure call of Fig. 11: count++ and a fresh stack entry whose
        // timestamp is the new counter value.
        self.tick();
        let count = self.count;
        let parent_node = self
            .threads
            .get(thread.index())
            .and_then(|st| st.stack.last())
            .map(|f| f.node)
            .unwrap_or(CctNodeId::ROOT);
        let node = match self.cct.as_mut() {
            Some(cct) => cct.child(parent_node, routine),
            None => CctNodeId::ROOT,
        };
        let st = self.state(thread);
        let cost_at_entry = st.cost;
        st.stack.push(Frame {
            routine,
            node,
            ts: count,
            cost_at_entry,
            partial_trms: 0,
            partial_rms: 0,
            reads: 0,
            induced_thread: 0,
            induced_external: 0,
        });
    }

    fn ret(&mut self, thread: ThreadId, routine: RoutineId) {
        self.on_return(thread, routine);
    }

    fn read(&mut self, thread: ThreadId, addr: Addr) {
        self.global.reads += 1;
        self.on_read(thread, addr);
    }

    /// Batched dispatch with a same-thread read-run fast path.
    ///
    /// Thread reads neither tick the global counter nor touch `wts`, so
    /// within a run of consecutive `Read` events by one thread the counter,
    /// policy and thread-state lookup are loop-invariant: the run is
    /// processed with one `state()` resolution and one split borrow,
    /// accumulating the global induced/read counters once per run. All
    /// other events (and reads by a thread that just switched in) fall back
    /// to one-at-a-time [`dispatch`](Tool::dispatch), so observable
    /// behaviour is identical to sequential replay.
    fn on_batch(&mut self, events: &[TimedEvent]) {
        let mut i = 0;
        while i < events.len() {
            let te = &events[i];
            if !matches!(te.event, Event::Read { .. }) {
                self.dispatch(te.thread, te.event);
                i += 1;
                continue;
            }
            let thread = te.thread;
            let mut j = i + 1;
            while j < events.len()
                && events[j].thread == thread
                && matches!(events[j].event, Event::Read { .. })
            {
                j += 1;
            }
            self.global.reads += (j - i) as u64;
            let count = self.count;
            let policy = self.policy;
            self.state(thread); // materialize the slot once for the run
            let idx = thread.index();
            let (mut induced_thread, mut induced_external) = (0u64, 0u64);
            for te in &events[i..j] {
                let Event::Read { addr } = te.event else { unreachable!() };
                let packed = self.wts.get(addr);
                let (it, ie) =
                    Self::apply_read(&mut self.threads[idx], count, policy, packed, addr);
                induced_thread += it as u64;
                induced_external += ie as u64;
            }
            self.global.induced_thread += induced_thread;
            self.global.induced_external += induced_external;
            i = j;
        }
    }

    fn write(&mut self, thread: ThreadId, addr: Addr) {
        // Procedure write of Fig. 11: both the thread-local and the global
        // timestamp become the current counter value (so a subsequent read
        // by the same thread is *not* induced), writer tagged as a thread.
        self.global.writes += 1;
        let count = self.count;
        self.state(thread).ts.set(addr, count);
        self.wts.set(addr, count << 1);
    }

    fn kernel_read(&mut self, thread: ThreadId, addr: Addr) {
        // Fig. 12: a kernelRead is a read implicitly performed by the
        // thread, as if the system call were a normal subroutine.
        self.global.kernel_reads += 1;
        self.on_read(thread, addr);
    }

    fn kernel_write(&mut self, _thread: ThreadId, addr: Addr) {
        // Fig. 12: bump the counter and give the buffer cell a global write
        // timestamp larger than any thread-specific timestamp, tagged as a
        // kernel write. The thread-local timestamp is *not* touched, so only
        // buffer cells the thread actually reads later count as external
        // input.
        self.global.kernel_writes += 1;
        self.tick();
        let count = self.count;
        self.wts.set(addr, (count << 1) | 1);
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let n = self.threads.len();
        for idx in 0..n {
            self.unwind(ThreadId::new(idx as u32));
        }
        if aprof_obs::is_enabled() {
            aprof_obs::counters::PROF_ACTIVATIONS.add(self.global.activations);
            aprof_obs::counters::PROF_RENUMBERINGS.add(self.global.renumberings);
            aprof_obs::counters::PROF_SHADOW_BYTES.record_max(self.shadow_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aprof_trace::{Event, Trace};

    fn names3() -> (RoutineTable, RoutineId, RoutineId, RoutineId) {
        let mut t = RoutineTable::new();
        let f = t.intern("f");
        let g = t.intern("g");
        let h = t.intern("h");
        (t, f, g, h)
    }

    /// Figure 1a: f in T1 reads x twice; g in T2 overwrites x in between.
    /// rms_f = 1, trms_f = 2.
    #[test]
    fn figure_1a() {
        let (_names, f, g, _) = names3();
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let x = Addr::new(0x100);
        let mut tr = Trace::new();
        tr.push(t1, Event::Call { routine: f });
        tr.push(t1, Event::Read { addr: x });
        tr.push(t2, Event::ThreadSwitch);
        tr.push(t2, Event::Call { routine: g });
        tr.push(t2, Event::Write { addr: x });
        tr.push(t2, Event::Return { routine: g });
        tr.push(t1, Event::ThreadSwitch);
        tr.push(t1, Event::Read { addr: x });
        tr.push(t1, Event::Return { routine: f });

        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        let recs = p.activations().to_vec();
        let f_rec = recs.iter().find(|r| r.routine == f).unwrap();
        assert_eq!(f_rec.trms, 2);
        assert_eq!(f_rec.rms, 1);
    }

    /// Figure 1b: f reads x, h (child of f) reads x after T2 writes it, then
    /// f reads x again. rms_f = rms_h = 1; trms_f = 2 (first access + the
    /// induced access via h); trms_h = 1; f's third read is NOT induced
    /// because f already accessed x through its descendant h.
    #[test]
    fn figure_1b() {
        let (names, f, g, h) = names3();
        let _ = &names;
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let x = Addr::new(0x200);
        let mut tr = Trace::new();
        tr.push(t1, Event::Call { routine: f });
        tr.push(t1, Event::Read { addr: x });
        tr.push(t2, Event::ThreadSwitch);
        tr.push(t2, Event::Call { routine: g });
        tr.push(t2, Event::Write { addr: x });
        tr.push(t2, Event::Return { routine: g });
        tr.push(t1, Event::ThreadSwitch);
        tr.push(t1, Event::Call { routine: h });
        tr.push(t1, Event::Read { addr: x });
        tr.push(t1, Event::Return { routine: h });
        tr.push(t1, Event::Read { addr: x });
        tr.push(t1, Event::Return { routine: f });

        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        let recs = p.activations().to_vec();
        let f_rec = recs.iter().find(|r| r.routine == f).unwrap();
        let h_rec = recs.iter().find(|r| r.routine == h).unwrap();
        assert_eq!(h_rec.trms, 1, "h's read is an induced first-access");
        assert_eq!(h_rec.rms, 1, "for plain rms, h's read is h's own first access");
        assert_eq!(f_rec.trms, 2, "first access + induced access via h; third read free");
        assert_eq!(f_rec.rms, 1);
    }

    /// Example 2 fine point: a cell first written by another thread and then
    /// read is classified as an *induced* first-access (not a plain one).
    #[test]
    fn cross_thread_first_read_is_induced() {
        let (names, f, g, _) = names3();
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let x = Addr::new(1);
        let mut tr = Trace::new();
        tr.push(t2, Event::Call { routine: g });
        tr.push(t2, Event::Write { addr: x });
        tr.push(t1, Event::ThreadSwitch);
        tr.push(t1, Event::Call { routine: f });
        tr.push(t1, Event::Read { addr: x });
        tr.push(t1, Event::Return { routine: f });
        let mut p = TrmsProfiler::new();
        tr.replay(&mut p);
        let report = p.into_report(&names);
        assert_eq!(report.global.induced_thread, 1);
        assert_eq!(report.global.induced_external, 0);
    }

    /// Kernel writes only count for cells actually read afterwards (Fig. 3 /
    /// Example 4): load 2n cells via kernelWrite, read only n of them.
    #[test]
    fn external_read_counts_only_consumed_cells() {
        let mut names = RoutineTable::new();
        let er = names.intern("externalRead");
        let t = ThreadId::new(0);
        let b0 = Addr::new(0x10);
        let b1 = Addr::new(0x11);
        let n = 7u64;
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: er });
        for _ in 0..n {
            tr.push(t, Event::KernelWrite { addr: b0 });
            tr.push(t, Event::KernelWrite { addr: b1 });
            tr.push(t, Event::Read { addr: b0 }); // only b[0] is processed
        }
        tr.push(t, Event::Return { routine: er });
        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        let rec = p.activations()[0];
        assert_eq!(rec.trms, n, "trms = n induced (external) first-accesses");
        assert_eq!(rec.rms, 1, "rms = 1: same cell re-read");
        assert_eq!(p.activations().len(), 1);
    }

    /// Outbound I/O: kernelRead behaves as a read by the thread.
    #[test]
    fn kernel_read_is_a_thread_read() {
        let mut names = RoutineTable::new();
        let f = names.intern("send");
        let t = ThreadId::new(0);
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: f });
        for i in 0..4 {
            tr.push(t, Event::Write { addr: Addr::new(i) });
        }
        for i in 0..4 {
            tr.push(t, Event::KernelRead { addr: Addr::new(i) });
        }
        tr.push(t, Event::Return { routine: f });
        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        let rec = p.activations()[0];
        // The cells were first *written* by f itself, so they are not input.
        assert_eq!(rec.trms, 0);
        assert_eq!(rec.rms, 0);
    }

    /// Inequality 1: trms >= rms for every activation, on a small random-ish
    /// trace with nesting.
    #[test]
    fn trms_dominates_rms() {
        let (names, f, g, h) = names3();
        let _ = &names;
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let mut tr = Trace::new();
        tr.push(t1, Event::Call { routine: f });
        for i in 0..20u64 {
            tr.push(t1, Event::Call { routine: g });
            tr.push(t1, Event::Read { addr: Addr::new(i % 5) });
            tr.push(t1, Event::Write { addr: Addr::new(100 + i) });
            tr.push(t1, Event::Return { routine: g });
            tr.push(t2, Event::ThreadSwitch);
            tr.push(t2, Event::Call { routine: h });
            tr.push(t2, Event::Write { addr: Addr::new(i % 5) });
            tr.push(t2, Event::Return { routine: h });
            tr.push(t1, Event::ThreadSwitch);
        }
        tr.push(t1, Event::Return { routine: f });
        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        for rec in p.activations() {
            assert!(rec.trms >= rec.rms, "Inequality 1 violated: {rec:?}");
        }
    }

    /// Nested calls: partial-sum bookkeeping attributes first accesses to
    /// the right ancestors (the PLDI'12 mechanics).
    #[test]
    fn nested_first_access_attribution() {
        let (names, f, g, _) = names3();
        let t = ThreadId::new(0);
        let x = Addr::new(7);
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: f });
        tr.push(t, Event::Read { addr: x }); // first access by f
        tr.push(t, Event::Call { routine: g });
        tr.push(t, Event::Read { addr: x }); // first access by g, NOT new for f
        tr.push(t, Event::Return { routine: g });
        tr.push(t, Event::Return { routine: f });
        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        let recs = p.activations().to_vec();
        let g_rec = recs.iter().find(|r| r.routine == g).unwrap();
        let f_rec = recs.iter().find(|r| r.routine == f).unwrap();
        assert_eq!(g_rec.rms, 1);
        assert_eq!(f_rec.rms, 1, "f must not double-count x read by g");
        assert_eq!(f_rec.trms, 1);
        let _ = names;
    }

    /// Cost accounting: inclusive basic-block costs per activation.
    #[test]
    fn inclusive_cost() {
        let (names, f, g, _) = names3();
        let _ = &names;
        let t = ThreadId::new(0);
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: f });
        tr.push(t, Event::BasicBlock { cost: 3 });
        tr.push(t, Event::Call { routine: g });
        tr.push(t, Event::BasicBlock { cost: 5 });
        tr.push(t, Event::Return { routine: g });
        tr.push(t, Event::BasicBlock { cost: 2 });
        tr.push(t, Event::Return { routine: f });
        let mut p = TrmsProfiler::builder().log_activations(true).build();
        tr.replay(&mut p);
        let recs = p.activations().to_vec();
        assert_eq!(recs.iter().find(|r| r.routine == g).unwrap().cost, 5);
        assert_eq!(recs.iter().find(|r| r.routine == f).unwrap().cost, 10);
    }

    /// Pending activations are recorded at finish (with partial data).
    #[test]
    fn finish_unwinds_pending() {
        let (names, f, _, _) = names3();
        let t = ThreadId::new(0);
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: f });
        tr.push(t, Event::Read { addr: Addr::new(0) });
        let mut p = TrmsProfiler::new();
        tr.replay(&mut p);
        let report = p.into_report(&names);
        assert_eq!(report.global.activations, 1);
        assert_eq!(report.routine(f).unwrap().merged.calls, 1);
    }

    /// The rms side of the report is identical regardless of input policy.
    #[test]
    fn rms_is_policy_independent() {
        let (names, f, g, _) = names3();
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let mut tr = Trace::new();
        tr.push(t1, Event::Call { routine: f });
        for i in 0..10u64 {
            tr.push(t1, Event::Read { addr: Addr::new(i % 3) });
            tr.push(t2, Event::ThreadSwitch);
            tr.push(t2, Event::Call { routine: g });
            tr.push(t2, Event::Write { addr: Addr::new(i % 3) });
            tr.push(t2, Event::Return { routine: g });
            tr.push(t1, Event::ThreadSwitch);
        }
        tr.push(t1, Event::Return { routine: f });
        let run = |policy| {
            let mut p = TrmsProfiler::with_policy(policy);
            tr.replay(&mut p);
            p.into_report(&names)
        };
        let full = run(InputPolicy::full());
        let none = run(InputPolicy::rms_only());
        let rms_full: Vec<_> = full.routine(f).unwrap().rms_curve();
        let rms_none: Vec<_> = none.routine(f).unwrap().rms_curve();
        assert_eq!(rms_full, rms_none);
        // And with all induced sources disabled, trms degenerates to rms.
        assert_eq!(none.routine(f).unwrap().trms_curve(), rms_none);
    }
}

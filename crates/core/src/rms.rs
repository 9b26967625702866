//! The sequential rms profiler (`aprof-rms`, the PLDI 2012 tool).

use crate::profile::{ActivationRecord, GlobalStats, ProfileReport, RoutineThreadProfile};
use aprof_trace::{Addr, RoutineId, RoutineTable, ThreadId, Tool};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct RmsFrame {
    routine: RoutineId,
    ts: u64,
    cost_at_entry: u64,
    partial_rms: i64,
    reads: u64,
}

#[derive(Debug, Default)]
struct RmsThread {
    /// Per-thread counter (bumped on calls only — no thread switches or
    /// global state in the sequential algorithm).
    count: u64,
    ts: aprof_shadow::ShadowMemory<u64>,
    stack: Vec<RmsFrame>,
    cost: u64,
}

impl RmsThread {
    fn deepest_at_or_before(&self, lts: u64) -> Option<usize> {
        self.stack.partition_point(|f| f.ts <= lts).checked_sub(1)
    }
}

/// The original input-sensitive profiler of Coppa et al. (PLDI 2012):
/// computes the **read memory size** only, treating every thread as an
/// independent sequential computation.
///
/// It keeps no global shadow memory and ignores thread switches and kernel
/// events entirely, so it is cheaper than [`TrmsProfiler`](crate::TrmsProfiler)
/// in both time and space — this is the `aprof-rms` column of Table 1. Its
/// blind spots are exactly the paper's motivation: repeated reads of cells
/// rewritten by other threads or refilled by the kernel contribute nothing
/// to the rms, which can make cost plots collapse (Fig. 7a) or suggest
/// spurious asymptotic trends (Figs. 4–5).
///
/// In its reports the trms curve of each routine equals the rms curve (the
/// metric it computes), keeping [`ProfileReport`] uniform across tools.
///
/// # Example
///
/// ```
/// use aprof_core::RmsProfiler;
/// use aprof_trace::{Addr, Event, RoutineTable, ThreadId, Trace};
/// let mut names = RoutineTable::new();
/// let f = names.intern("f");
/// let mut tr = Trace::new();
/// tr.push(ThreadId::MAIN, Event::Call { routine: f });
/// tr.push(ThreadId::MAIN, Event::Read { addr: Addr::new(0) });
/// tr.push(ThreadId::MAIN, Event::Read { addr: Addr::new(0) });
/// tr.push(ThreadId::MAIN, Event::Read { addr: Addr::new(1) });
/// tr.push(ThreadId::MAIN, Event::Return { routine: f });
/// let mut p = RmsProfiler::new();
/// tr.replay(&mut p);
/// let report = p.into_report(&names);
/// assert_eq!(report.routine(f).unwrap().rms_curve()[0].0, 2);
/// ```
#[derive(Debug, Default)]
pub struct RmsProfiler {
    threads: Vec<RmsThread>,
    profiles: BTreeMap<(ThreadId, RoutineId), RoutineThreadProfile>,
    global: GlobalStats,
    activations: Vec<ActivationRecord>,
    log_activations: bool,
    finished: bool,
}

impl RmsProfiler {
    /// Creates a sequential rms profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a profiler that additionally logs one [`ActivationRecord`]
    /// per completed activation.
    pub fn with_activation_log() -> Self {
        RmsProfiler { log_activations: true, ..Self::default() }
    }

    /// The per-activation log (empty unless enabled).
    pub fn activations(&self) -> &[ActivationRecord] {
        &self.activations
    }

    /// Resident bytes of the per-thread shadow memories.
    pub fn shadow_bytes(&self) -> u64 {
        self.threads.iter().map(|t| t.ts.stats().bytes as u64).sum()
    }

    /// Finalizes the session and assembles the report.
    pub fn into_report(mut self, names: &RoutineTable) -> ProfileReport {
        self.finish();
        self.global.shadow_bytes = self.shadow_bytes();
        ProfileReport::assemble("aprof-rms", self.profiles, self.global, names)
    }

    fn state(&mut self, thread: ThreadId) -> &mut RmsThread {
        let idx = thread.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, RmsThread::default);
        }
        &mut self.threads[idx]
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId) {
        let st = self.state(thread);
        let Some(frame) = st.stack.pop() else { return };
        debug_assert_eq!(frame.routine, routine);
        debug_assert!(frame.partial_rms >= 0);
        let cost = st.cost - frame.cost_at_entry;
        let rms = frame.partial_rms.max(0) as u64;
        if let Some(parent) = st.stack.last_mut() {
            parent.partial_rms += frame.partial_rms;
            parent.reads += frame.reads;
        }
        let profile = self.profiles.entry((thread, frame.routine)).or_default();
        profile.record(rms, rms, cost);
        profile.reads += frame.reads;
        self.global.activations += 1;
        self.global.sum_rms += rms;
        self.global.sum_trms += rms;
        if self.log_activations {
            self.activations.push(ActivationRecord { thread, routine: frame.routine, trms: rms, rms, cost });
        }
    }

    fn unwind(&mut self, thread: ThreadId) {
        while self.threads.get(thread.index()).map(|st| !st.stack.is_empty()).unwrap_or(false) {
            let routine = self.threads[thread.index()].stack.last().expect("nonempty").routine;
            self.on_return(thread, routine);
        }
    }
}

impl Tool for RmsProfiler {
    fn name(&self) -> &'static str {
        "aprof-rms"
    }

    fn call(&mut self, thread: ThreadId, routine: RoutineId) {
        let st = self.state(thread);
        st.count += 1;
        let ts = st.count;
        let cost_at_entry = st.cost;
        st.stack.push(RmsFrame { routine, ts, cost_at_entry, partial_rms: 0, reads: 0 });
    }

    fn ret(&mut self, thread: ThreadId, routine: RoutineId) {
        self.on_return(thread, routine);
    }

    fn read(&mut self, thread: ThreadId, addr: Addr) {
        // Procedure `read` of the sequential algorithm. Fetches the cell's
        // last-access timestamp and stamps it with the current counter in
        // one shadow-table traversal.
        self.global.reads += 1;
        let st = self.state(thread);
        let lts = st.ts.get_set(addr, st.count);
        if let Some(top) = st.stack.len().checked_sub(1) {
            st.stack[top].reads += 1;
            if lts < st.stack[top].ts {
                st.stack[top].partial_rms += 1;
                if lts != 0 {
                    if let Some(j) = st.deepest_at_or_before(lts) {
                        st.stack[j].partial_rms -= 1;
                    }
                }
            }
        }
    }

    fn write(&mut self, thread: ThreadId, addr: Addr) {
        self.global.writes += 1;
        let st = self.state(thread);
        let count = st.count;
        st.ts.set(addr, count);
    }

    fn thread_exit(&mut self, thread: ThreadId) {
        self.unwind(thread);
    }

    fn basic_block(&mut self, thread: ThreadId, cost: u64) {
        self.state(thread).cost += cost;
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for idx in 0..self.threads.len() {
            self.unwind(ThreadId::new(idx as u32));
        }
        if aprof_obs::is_enabled() {
            aprof_obs::counters::PROF_ACTIVATIONS.add(self.global.activations);
            aprof_obs::counters::PROF_SHADOW_BYTES.record_max(self.shadow_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aprof_trace::{Event, Trace};

    /// rms ignores cross-thread writes: the consumer of Fig. 2 has rms 1.
    #[test]
    fn blind_to_thread_input() {
        let mut names = RoutineTable::new();
        let produce = names.intern("produce");
        let consume = names.intern("consume");
        let (p, c) = (ThreadId::new(0), ThreadId::new(1));
        let x = Addr::new(1);
        let mut tr = Trace::new();
        tr.push(c, Event::Call { routine: consume });
        for _ in 0..8 {
            tr.push(p, Event::ThreadSwitch);
            tr.push(p, Event::Call { routine: produce });
            tr.push(p, Event::Write { addr: x });
            tr.push(p, Event::Return { routine: produce });
            tr.push(c, Event::ThreadSwitch);
            tr.push(c, Event::Read { addr: x });
        }
        tr.push(c, Event::Return { routine: consume });
        let mut prof = RmsProfiler::new();
        tr.replay(&mut prof);
        let report = prof.into_report(&names);
        assert_eq!(
            report.routine(consume).unwrap().rms_curve(),
            vec![(1, {
                let mut s = crate::CostStats::default();
                s.record(0);
                s
            })]
        );
    }

    /// rms ignores kernel refills: the buffered reader of Fig. 3 has rms 1.
    #[test]
    fn blind_to_external_input() {
        let mut names = RoutineTable::new();
        let er = names.intern("externalRead");
        let t = ThreadId::MAIN;
        let b0 = Addr::new(0);
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: er });
        for _ in 0..5 {
            tr.push(t, Event::KernelWrite { addr: b0 });
            tr.push(t, Event::Read { addr: b0 });
        }
        tr.push(t, Event::Return { routine: er });
        let mut prof = RmsProfiler::with_activation_log();
        tr.replay(&mut prof);
        assert_eq!(prof.activations()[0].rms, 1);
    }

    /// Nested activations: per-activation first-access semantics.
    #[test]
    fn nested_rms() {
        let mut names = RoutineTable::new();
        let f = names.intern("f");
        let g = names.intern("g");
        let t = ThreadId::MAIN;
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: f });
        tr.push(t, Event::Read { addr: Addr::new(0) });
        tr.push(t, Event::Call { routine: g });
        tr.push(t, Event::Read { addr: Addr::new(0) }); // first for g, old for f
        tr.push(t, Event::Read { addr: Addr::new(1) }); // first for both
        tr.push(t, Event::Return { routine: g });
        tr.push(t, Event::Return { routine: f });
        let mut prof = RmsProfiler::with_activation_log();
        tr.replay(&mut prof);
        let recs = prof.activations().to_vec();
        let g_rms = recs.iter().find(|r| r.routine == g).unwrap().rms;
        let f_rms = recs.iter().find(|r| r.routine == f).unwrap().rms;
        assert_eq!(g_rms, 2);
        assert_eq!(f_rms, 2);
    }

    /// Writes preceding reads make cells non-input (they were produced by
    /// the routine itself).
    #[test]
    fn write_then_read_is_not_input() {
        let mut names = RoutineTable::new();
        let f = names.intern("f");
        let t = ThreadId::MAIN;
        let mut tr = Trace::new();
        tr.push(t, Event::Call { routine: f });
        tr.push(t, Event::Write { addr: Addr::new(9) });
        tr.push(t, Event::Read { addr: Addr::new(9) });
        tr.push(t, Event::Return { routine: f });
        let mut prof = RmsProfiler::with_activation_log();
        tr.replay(&mut prof);
        assert_eq!(prof.activations()[0].rms, 0);
    }
}

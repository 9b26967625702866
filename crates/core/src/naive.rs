//! The naive set-based algorithm (Fig. 10) — a differential-testing oracle.

use crate::profile::{ActivationRecord, GlobalStats, ProfileReport, RoutineThreadProfile};
use crate::InputPolicy;
use aprof_trace::{Addr, RoutineId, RoutineTable, ThreadId, Tool};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Who performed the latest write to a memory cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    Thread(ThreadId),
    Kernel,
}

#[derive(Debug)]
struct NaiveFrame {
    routine: RoutineId,
    cost_at_entry: u64,
    /// Cells ever accessed by this activation or its descendants (first
    /// accesses in the rms sense are detected by absence from this set).
    accessed: HashSet<u64>,
    trms: u64,
    rms: u64,
    reads: u64,
    induced_thread: u64,
    induced_external: u64,
}

#[derive(Debug, Default)]
struct NaiveThread {
    stack: Vec<NaiveFrame>,
    cost: u64,
    /// Cells this thread has accessed since their latest write (by anyone).
    /// `addr ∈ accessed_since_write` is equivalent to `ts_t[addr] >=
    /// wts[addr]` in the timestamping algorithm.
    accessed_since_write: HashSet<u64>,
}

/// The simple-minded trms/rms profiler of Fig. 10.
///
/// Maintains, for every pending routine activation, an explicit set of the
/// memory cells the activation has accessed, instead of the timestamping
/// machinery of §4.2 — "extremely time- and space-consuming", as the paper
/// notes, but obviously faithful to Definitions 1–3. It exists as the
/// oracle against which the efficient [`TrmsProfiler`](crate::TrmsProfiler)
/// is differentially tested (unit tests here, property tests in
/// `tests/differential.rs`).
///
/// # Example
///
/// ```
/// use aprof_core::NaiveProfiler;
/// use aprof_trace::{Addr, Event, RoutineTable, ThreadId, Trace};
/// let mut names = RoutineTable::new();
/// let f = names.intern("f");
/// let mut tr = Trace::new();
/// tr.push(ThreadId::MAIN, Event::Call { routine: f });
/// tr.push(ThreadId::MAIN, Event::Read { addr: Addr::new(0) });
/// tr.push(ThreadId::MAIN, Event::Return { routine: f });
/// let mut oracle = NaiveProfiler::new();
/// tr.replay(&mut oracle);
/// assert_eq!(oracle.activations()[0].rms, 1);
/// ```
#[derive(Debug)]
pub struct NaiveProfiler {
    policy: InputPolicy,
    threads: Vec<NaiveThread>,
    last_writer: HashMap<u64, Writer>,
    profiles: BTreeMap<(ThreadId, RoutineId), RoutineThreadProfile>,
    global: GlobalStats,
    activations: Vec<ActivationRecord>,
    finished: bool,
}

impl Default for NaiveProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl NaiveProfiler {
    /// Creates an oracle with the full input policy.
    pub fn new() -> Self {
        Self::with_policy(InputPolicy::full())
    }

    /// Creates an oracle with the given input policy.
    pub fn with_policy(policy: InputPolicy) -> Self {
        NaiveProfiler {
            policy,
            threads: Vec::new(),
            last_writer: HashMap::new(),
            profiles: BTreeMap::new(),
            global: GlobalStats::default(),
            activations: Vec::new(),
            finished: false,
        }
    }

    /// Per-activation records, in completion order (always logged).
    pub fn activations(&self) -> &[ActivationRecord] {
        &self.activations
    }

    /// Finalizes and assembles the report.
    pub fn into_report(mut self, names: &RoutineTable) -> ProfileReport {
        self.finish();
        ProfileReport::assemble("aprof-naive", self.profiles, self.global, names)
    }

    fn state(&mut self, thread: ThreadId) -> &mut NaiveThread {
        let idx = thread.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, NaiveThread::default);
        }
        &mut self.threads[idx]
    }

    /// A write to `addr` invalidates "accessed since write" for every thread
    /// except (optionally) the writer itself.
    fn invalidate(&mut self, addr: Addr, writer: Writer) {
        for (idx, t) in self.threads.iter_mut().enumerate() {
            if Writer::Thread(ThreadId::new(idx as u32)) != writer {
                t.accessed_since_write.remove(&addr.raw());
            }
        }
        self.last_writer.insert(addr.raw(), writer);
    }

    fn on_read(&mut self, thread: ThreadId, addr: Addr) {
        let policy = self.policy;
        let written = self.last_writer.get(&addr.raw()).copied();
        let st = self.state(thread);
        if st.stack.is_empty() {
            st.accessed_since_write.insert(addr.raw());
            return;
        }
        let induced_by = match written {
            Some(w) if !st.accessed_since_write.contains(&addr.raw()) => Some(w),
            _ => None,
        };
        let counted_induced = match induced_by {
            Some(Writer::Kernel) => policy.external,
            Some(Writer::Thread(_)) => policy.thread_induced,
            None => false,
        };
        if let Some(top) = st.stack.last_mut() {
            top.reads += 1;
        }
        for frame in st.stack.iter_mut() {
            if counted_induced {
                // New input for the activation and all its ancestors.
                frame.trms += 1;
            } else if !frame.accessed.contains(&addr.raw()) {
                frame.trms += 1;
            }
            if !frame.accessed.contains(&addr.raw()) {
                frame.rms += 1;
            }
            frame.accessed.insert(addr.raw());
        }
        let mut external = false;
        if counted_induced {
            external = matches!(induced_by, Some(Writer::Kernel));
            if let Some(top) = st.stack.last_mut() {
                if external {
                    top.induced_external += 1;
                } else {
                    top.induced_thread += 1;
                }
            }
        }
        st.accessed_since_write.insert(addr.raw());
        if counted_induced {
            if external {
                self.global.induced_external += 1;
            } else {
                self.global.induced_thread += 1;
            }
        }
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId) {
        let st = self.state(thread);
        let Some(frame) = st.stack.pop() else { return };
        debug_assert_eq!(frame.routine, routine);
        let cost = st.cost - frame.cost_at_entry;
        // Inclusive counters roll up into the parent.
        if let Some(parent) = st.stack.last_mut() {
            parent.reads += frame.reads;
            parent.induced_thread += frame.induced_thread;
            parent.induced_external += frame.induced_external;
        }
        let profile = self.profiles.entry((thread, frame.routine)).or_default();
        profile.record(frame.trms, frame.rms, cost);
        profile.reads += frame.reads;
        profile.induced_thread += frame.induced_thread;
        profile.induced_external += frame.induced_external;
        self.global.activations += 1;
        self.global.sum_trms += frame.trms;
        self.global.sum_rms += frame.rms;
        self.activations.push(ActivationRecord {
            thread,
            routine: frame.routine,
            trms: frame.trms,
            rms: frame.rms,
            cost,
        });
    }

    fn unwind(&mut self, thread: ThreadId) {
        while self.threads.get(thread.index()).map(|st| !st.stack.is_empty()).unwrap_or(false) {
            let routine = self.threads[thread.index()].stack.last().expect("nonempty").routine;
            self.on_return(thread, routine);
        }
    }
}

impl Tool for NaiveProfiler {
    fn name(&self) -> &'static str {
        "aprof-naive"
    }

    fn call(&mut self, thread: ThreadId, routine: RoutineId) {
        let st = self.state(thread);
        let cost_at_entry = st.cost;
        st.stack.push(NaiveFrame {
            routine,
            cost_at_entry,
            accessed: HashSet::new(),
            trms: 0,
            rms: 0,
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

    fn write(&mut self, thread: ThreadId, addr: Addr) {
        self.global.writes += 1;
        // The writer's own pending activations have now "accessed" the cell.
        let st = self.state(thread);
        for frame in st.stack.iter_mut() {
            frame.accessed.insert(addr.raw());
        }
        st.accessed_since_write.insert(addr.raw());
        self.invalidate(addr, Writer::Thread(thread));
    }

    fn kernel_read(&mut self, thread: ThreadId, addr: Addr) {
        self.global.kernel_reads += 1;
        self.on_read(thread, addr);
    }

    fn kernel_write(&mut self, _thread: ThreadId, addr: Addr) {
        self.global.kernel_writes += 1;
        self.invalidate(addr, Writer::Kernel);
    }

    fn basic_block(&mut self, thread: ThreadId, cost: u64) {
        self.state(thread).cost += cost;
    }

    fn thread_exit(&mut self, thread: ThreadId) {
        self.unwind(thread);
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for idx in 0..self.threads.len() {
            self.unwind(ThreadId::new(idx as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aprof_trace::{Event, Trace};

    /// The producer/consumer pattern of Fig. 2 under the oracle.
    #[test]
    fn producer_consumer_oracle() {
        let mut names = RoutineTable::new();
        let produce = names.intern("produceData");
        let consume = names.intern("consumeData");
        let (prod, cons) = (ThreadId::new(0), ThreadId::new(1));
        let x = Addr::new(0x40);
        let n = 9;
        let mut tr = Trace::new();
        tr.push(cons, Event::Call { routine: consume });
        for _ in 0..n {
            tr.push(prod, Event::ThreadSwitch);
            tr.push(prod, Event::Call { routine: produce });
            tr.push(prod, Event::Write { addr: x });
            tr.push(prod, Event::Return { routine: produce });
            tr.push(cons, Event::ThreadSwitch);
            tr.push(cons, Event::Read { addr: x });
        }
        tr.push(cons, Event::Return { routine: consume });
        let mut oracle = NaiveProfiler::new();
        tr.replay(&mut oracle);
        let rec = oracle.activations().iter().find(|r| r.routine == consume).unwrap();
        assert_eq!(rec.trms, n);
        assert_eq!(rec.rms, 1);
        let _ = names;
    }

    /// With the rms-only policy the oracle's trms equals its rms.
    #[test]
    fn rms_only_policy_degenerates() {
        let mut names = RoutineTable::new();
        let f = names.intern("f");
        let g = names.intern("g");
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let mut tr = Trace::new();
        tr.push(t1, Event::Call { routine: f });
        for i in 0..6u64 {
            tr.push(t1, Event::Read { addr: Addr::new(i % 2) });
            tr.push(t2, Event::ThreadSwitch);
            tr.push(t2, Event::Call { routine: g });
            tr.push(t2, Event::Write { addr: Addr::new(i % 2) });
            tr.push(t2, Event::Return { routine: g });
            tr.push(t1, Event::ThreadSwitch);
        }
        tr.push(t1, Event::Return { routine: f });
        let mut oracle = NaiveProfiler::with_policy(InputPolicy::rms_only());
        tr.replay(&mut oracle);
        for rec in oracle.activations() {
            assert_eq!(rec.trms, rec.rms);
        }
        let _ = names;
    }

    /// Reads outside any activation are tolerated (they only refresh the
    /// thread's accessed-since-write state).
    #[test]
    fn read_outside_activation_is_ignored() {
        let mut tr = Trace::new();
        tr.push(ThreadId::MAIN, Event::Read { addr: Addr::new(3) });
        let mut oracle = NaiveProfiler::new();
        tr.replay(&mut oracle);
        assert!(oracle.activations().is_empty());
    }
}

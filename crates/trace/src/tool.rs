//! The instrumentation callback interface implemented by analysis tools.

use crate::{Addr, Event, RoutineId, ThreadId, TimedEvent};

/// A Valgrind-style dynamic-analysis tool.
///
/// The guest machine (`aprof-vm`) calls these hooks while executing a guest
/// program; recorded [`Trace`](crate::Trace)s call them during
/// [replay](crate::Trace::replay). All callbacks have empty default bodies so
/// a tool only implements the events it cares about, mirroring how Valgrind
/// tools register callbacks for a subset of VEX events.
///
/// Threads are *serialized*: callbacks are never issued concurrently, and a
/// [`thread_switch`](Tool::thread_switch) callback separates the callbacks of
/// different threads, as guaranteed by Valgrind's serialized execution model
/// (§5 of the paper).
///
/// # Example
///
/// A tool that counts memory reads:
///
/// ```
/// use aprof_trace::{Addr, ThreadId, Tool};
///
/// #[derive(Default)]
/// struct ReadCounter {
///     reads: u64,
/// }
///
/// impl Tool for ReadCounter {
///     fn name(&self) -> &'static str {
///         "read-counter"
///     }
///     fn read(&mut self, _t: ThreadId, _addr: Addr) {
///         self.reads += 1;
///     }
/// }
///
/// let mut tool = ReadCounter::default();
/// tool.read(ThreadId::MAIN, Addr::new(0));
/// assert_eq!(tool.reads, 1);
/// ```
pub trait Tool {
    /// Short, stable identifier of the tool (e.g. `"aprof-trms"`).
    fn name(&self) -> &'static str;

    /// A new thread began execution.
    fn thread_start(&mut self, thread: ThreadId) {
        let _ = thread;
    }

    /// A thread finished execution.
    fn thread_exit(&mut self, thread: ThreadId) {
        let _ = thread;
    }

    /// The scheduler switched execution to `thread`.
    ///
    /// Issued between any two operations performed by different threads.
    fn thread_switch(&mut self, thread: ThreadId) {
        let _ = thread;
    }

    /// One basic block completed on `thread`, charging `cost` cost units.
    fn basic_block(&mut self, thread: ThreadId, cost: u64) {
        let _ = (thread, cost);
    }

    /// `thread` activated `routine`.
    fn call(&mut self, thread: ThreadId, routine: RoutineId) {
        let _ = (thread, routine);
    }

    /// The topmost activation (`routine`) of `thread` completed.
    fn ret(&mut self, thread: ThreadId, routine: RoutineId) {
        let _ = (thread, routine);
    }

    /// `thread` read the memory cell `addr`.
    fn read(&mut self, thread: ThreadId, addr: Addr) {
        let _ = (thread, addr);
    }

    /// `thread` wrote the memory cell `addr`.
    fn write(&mut self, thread: ThreadId, addr: Addr) {
        let _ = (thread, addr);
    }

    /// The kernel read cell `addr` on behalf of `thread` (outbound I/O).
    fn kernel_read(&mut self, thread: ThreadId, addr: Addr) {
        let _ = (thread, addr);
    }

    /// The kernel wrote cell `addr` on behalf of `thread` (inbound I/O).
    fn kernel_write(&mut self, thread: ThreadId, addr: Addr) {
        let _ = (thread, addr);
    }

    /// `parent` spawned `child` (delivered before `child` first runs).
    ///
    /// Synchronization callbacks exist for tools that track happens-before
    /// relations (e.g. race detectors); the input-sensitive profilers ignore
    /// them, exactly as the paper's algorithm ignores synchronization
    /// operations.
    fn spawned(&mut self, parent: ThreadId, child: ThreadId) {
        let _ = (parent, child);
    }

    /// `thread` joined `target` (delivered when the join completes).
    fn joined(&mut self, thread: ThreadId, target: ThreadId) {
        let _ = (thread, target);
    }

    /// `thread` acquired the mutex identified by `lock`.
    fn lock_acquired(&mut self, thread: ThreadId, lock: i64) {
        let _ = (thread, lock);
    }

    /// `thread` released the mutex identified by `lock`.
    fn lock_released(&mut self, thread: ThreadId, lock: i64) {
        let _ = (thread, lock);
    }

    /// `thread` posted (V) on semaphore `sem`.
    fn sem_posted(&mut self, thread: ThreadId, sem: i64) {
        let _ = (thread, sem);
    }

    /// `thread` completed a wait (P) on semaphore `sem`.
    fn sem_waited(&mut self, thread: ThreadId, sem: i64) {
        let _ = (thread, sem);
    }

    /// Execution finished; flush any pending state.
    fn finish(&mut self) {}

    /// Dispatches one event to the matching callback.
    ///
    /// This is the glue used by [`Trace::replay`](crate::Trace::replay)
    /// and [`replay`](crate::replay); implementors normally do not override
    /// it.
    fn dispatch(&mut self, thread: ThreadId, event: Event) {
        match event {
            Event::Call { routine } => self.call(thread, routine),
            Event::Return { routine } => self.ret(thread, routine),
            Event::Read { addr } => self.read(thread, addr),
            Event::Write { addr } => self.write(thread, addr),
            Event::KernelRead { addr } => self.kernel_read(thread, addr),
            Event::KernelWrite { addr } => self.kernel_write(thread, addr),
            Event::BasicBlock { cost } => self.basic_block(thread, cost),
            Event::ThreadSwitch => self.thread_switch(thread),
            Event::ThreadStart => self.thread_start(thread),
            Event::ThreadExit => self.thread_exit(thread),
        }
    }
}

/// The do-nothing tool (the `nulgrind` analog).
///
/// Measures pure instrumentation-dispatch overhead: every event is delivered
/// and immediately discarded.
///
/// # Example
///
/// ```
/// use aprof_trace::{NullTool, ThreadId, Tool};
/// let mut tool = NullTool::new();
/// tool.basic_block(ThreadId::MAIN, 1);
/// assert_eq!(tool.name(), "nulgrind");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTool;

impl NullTool {
    /// Creates the null tool.
    pub fn new() -> Self {
        NullTool
    }
}

impl Tool for NullTool {
    fn name(&self) -> &'static str {
        "nulgrind"
    }
}

/// A tool that records every event it receives into a [`Trace`](crate::Trace)-like
/// buffer of [`TimedEvent`]s, in arrival order.
///
/// Useful for capturing the event stream of a guest-machine run so it can be
/// replayed into several tools, and in tests.
///
/// # Example
///
/// ```
/// use aprof_trace::{Addr, RecordingTool, ThreadId, Tool};
/// let mut rec = RecordingTool::new();
/// rec.write(ThreadId::MAIN, Addr::new(1));
/// rec.read(ThreadId::MAIN, Addr::new(1));
/// assert_eq!(rec.trace().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordingTool {
    events: Vec<TimedEvent>,
}

impl RecordingTool {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in arrival order.
    pub fn trace(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the recorded events.
    pub fn into_trace(self) -> Vec<TimedEvent> {
        self.events
    }

    fn record(&mut self, thread: ThreadId, event: Event) {
        self.events.push(TimedEvent { thread, event });
    }
}

impl Tool for RecordingTool {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn thread_start(&mut self, thread: ThreadId) {
        self.record(thread, Event::ThreadStart);
    }

    fn thread_exit(&mut self, thread: ThreadId) {
        self.record(thread, Event::ThreadExit);
    }

    fn thread_switch(&mut self, thread: ThreadId) {
        self.record(thread, Event::ThreadSwitch);
    }

    fn basic_block(&mut self, thread: ThreadId, cost: u64) {
        self.record(thread, Event::BasicBlock { cost });
    }

    fn call(&mut self, thread: ThreadId, routine: RoutineId) {
        self.record(thread, Event::Call { routine });
    }

    fn ret(&mut self, thread: ThreadId, routine: RoutineId) {
        self.record(thread, Event::Return { routine });
    }

    fn read(&mut self, thread: ThreadId, addr: Addr) {
        self.record(thread, Event::Read { addr });
    }

    fn write(&mut self, thread: ThreadId, addr: Addr) {
        self.record(thread, Event::Write { addr });
    }

    fn kernel_read(&mut self, thread: ThreadId, addr: Addr) {
        self.record(thread, Event::KernelRead { addr });
    }

    fn kernel_write(&mut self, thread: ThreadId, addr: Addr) {
        self.record(thread, Event::KernelWrite { addr });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tool_ignores_everything() {
        let mut t = NullTool::new();
        t.dispatch(ThreadId::MAIN, Event::Read { addr: Addr::new(1) });
        t.dispatch(ThreadId::MAIN, Event::ThreadExit);
        t.finish();
    }

    #[test]
    fn recorder_preserves_order_and_threads() {
        let mut rec = RecordingTool::new();
        let t1 = ThreadId::new(1);
        rec.dispatch(ThreadId::MAIN, Event::Call { routine: RoutineId::new(0) });
        rec.dispatch(t1, Event::Write { addr: Addr::new(9) });
        let tr = rec.trace();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].thread, ThreadId::MAIN);
        assert_eq!(tr[1].thread, t1);
        assert_eq!(tr[1].event, Event::Write { addr: Addr::new(9) });
    }

    #[test]
    fn dispatch_covers_all_variants() {
        let mut rec = RecordingTool::new();
        let events = [
            Event::Call { routine: RoutineId::new(0) },
            Event::Return { routine: RoutineId::new(0) },
            Event::Read { addr: Addr::new(0) },
            Event::Write { addr: Addr::new(0) },
            Event::KernelRead { addr: Addr::new(0) },
            Event::KernelWrite { addr: Addr::new(0) },
            Event::BasicBlock { cost: 1 },
            Event::ThreadSwitch,
            Event::ThreadStart,
            Event::ThreadExit,
        ];
        for e in events {
            rec.dispatch(ThreadId::MAIN, e);
        }
        assert_eq!(rec.trace().len(), events.len());
        for (te, e) in rec.trace().iter().zip(events.iter()) {
            assert_eq!(&te.event, e);
        }
        assert_eq!(rec.clone().into_trace().len(), events.len());
    }
}

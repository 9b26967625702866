//! The interpreter: serialized multithreaded execution with instrumentation.
//!
//! The hot loop is **direct-threaded**: guest blocks are pre-decoded into
//! flat [`DecodedOp`] arrays (see [`crate::dispatch`]) and executed through
//! a function-pointer handler table ([`Tbl`]), monomorphized per [`Tool`]
//! type and per register-checking mode. The table handlers are the only
//! implementation of const, mov, bin, cmp, load and store. Anything that can
//! block, call, spawn, allocate or touch devices escapes to the
//! `match`-based [`Exec::instr`] path, which keeps the blocking/waker
//! protocol in one place.

use crate::device::DeviceTable;
use crate::dispatch::{DecodeMode, DecodedOp, DecodedProgram, C_COMPLEX, N_CODES};
use crate::error::{ResourceKind, VmError};
use crate::ir::{BinOp, CmpOp, FuncId, Instr, Program, Reg, Terminator};
use crate::memory::GuestMemory;
use aprof_trace::{Addr, NullTool, RoutineId, ThreadId, Tool};
use std::collections::{HashMap, VecDeque};

/// Tunables of a [`Machine`].
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Scheduler quantum in basic blocks: a thread runs at most this many
    /// blocks before the (fair, round-robin) scheduler rotates to the next
    /// runnable thread, mirroring Valgrind's fair thread scheduler (§5).
    pub quantum: u64,
    /// Execution budget in basic blocks; exceeded budgets abort the run
    /// with [`VmError::BlockBudgetExceeded`] (a runaway-guest backstop).
    pub max_blocks: u64,
    /// Maximum number of threads ever spawned.
    pub max_threads: usize,
    /// When set, reading a register that was never written in the current
    /// activation raises [`VmError::UseBeforeDef`] instead of silently
    /// yielding the zero the register file is initialized with. Off by
    /// default — guest programs may rely on zero-initialized registers;
    /// the static verifier's differential tests turn it on to observe
    /// use-before-def dynamically.
    pub strict_regs: bool,
    /// Resource budgets (instructions, allocation cells) and whether their
    /// exhaustion traps gracefully or errors. Unlimited by default.
    pub limits: ResourceLimits,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            quantum: 64,
            max_blocks: u64::MAX,
            max_threads: 1 << 16,
            strict_regs: false,
            limits: ResourceLimits::default(),
        }
    }
}

/// Resource budgets enforced while a guest runs. Used as per-workload
/// watchdogs by the hardened measurement driver: a pathological or runaway
/// workload is stopped after a bounded amount of work instead of hanging a
/// whole sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Instruction budget across all threads (`u64::MAX` = unlimited).
    pub max_instructions: u64,
    /// Total cells the guest may `alloc` across the run (`u64::MAX` =
    /// unlimited).
    pub max_alloc_cells: u64,
    /// How exhaustion surfaces. `false` (the default): the run aborts with
    /// [`VmError::ResourceExhausted`]. `true`: the scheduler stops
    /// dispatching and the run returns `Ok` with [`RunOutcome::trap`] set —
    /// a *graceful trap* that keeps the partial per-thread totals, so
    /// callers can report a degraded measurement instead of losing the run.
    pub trap: bool,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits { max_instructions: u64::MAX, max_alloc_cells: u64::MAX, trap: false }
    }
}

impl ResourceLimits {
    /// A trapping instruction budget — the hardened driver's watchdog shape.
    pub fn instruction_watchdog(max_instructions: u64) -> Self {
        ResourceLimits { max_instructions, trap: true, ..Self::default() }
    }
}

/// The typed record of a graceful resource trap (see
/// [`ResourceLimits::trap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceTrap {
    /// Which budget ran out.
    pub resource: ResourceKind,
    /// The budget that was exhausted.
    pub limit: u64,
}

impl std::fmt::Display for ResourceTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "guest stopped at the {} {} budget", self.limit, self.resource)
    }
}

/// Result of one guest run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Return value of the entry function (`None` for a bare `ret`).
    pub exit_value: Option<i64>,
    /// Basic blocks executed across all threads (the cost metric).
    pub total_blocks: u64,
    /// Thread switches performed by the scheduler.
    pub switches: u64,
    /// Per-thread outcomes, indexed by thread id.
    pub threads: Vec<ThreadOutcome>,
    /// Set when the run was stopped gracefully by a resource budget
    /// ([`ResourceLimits::trap`]); the totals above then cover the partial
    /// run up to the trap.
    pub trap: Option<ResourceTrap>,
}

/// Per-thread summary of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadOutcome {
    /// The thread.
    pub thread: ThreadId,
    /// Basic blocks it executed.
    pub blocks: u64,
    /// Its entry function's return value.
    pub result: Option<i64>,
}

/// The tee of [`Machine::run_recording`]: every event goes to the live tool
/// and then to the capture tool. A wire-trace capture ignores the sync
/// callbacks (spawn/join/lock/sem): they are scheduling metadata, not part
/// of the wire event vocabulary, and the profilers ignore them too, which
/// is what keeps live and replayed profiles identical.
struct Tee<'a, C: Tool + ?Sized> {
    tool: &'a mut dyn Tool,
    capture: &'a mut C,
}

impl<C: Tool + ?Sized> Tool for Tee<'_, C> {
    fn name(&self) -> &'static str {
        self.tool.name()
    }
    fn thread_start(&mut self, t: ThreadId) {
        self.tool.thread_start(t);
        self.capture.thread_start(t);
    }
    fn thread_exit(&mut self, t: ThreadId) {
        self.tool.thread_exit(t);
        self.capture.thread_exit(t);
    }
    fn thread_switch(&mut self, t: ThreadId) {
        self.tool.thread_switch(t);
        self.capture.thread_switch(t);
    }
    fn basic_block(&mut self, t: ThreadId, cost: u64) {
        self.tool.basic_block(t, cost);
        self.capture.basic_block(t, cost);
    }
    fn call(&mut self, t: ThreadId, r: RoutineId) {
        self.tool.call(t, r);
        self.capture.call(t, r);
    }
    fn ret(&mut self, t: ThreadId, r: RoutineId) {
        self.tool.ret(t, r);
        self.capture.ret(t, r);
    }
    fn read(&mut self, t: ThreadId, a: Addr) {
        self.tool.read(t, a);
        self.capture.read(t, a);
    }
    fn write(&mut self, t: ThreadId, a: Addr) {
        self.tool.write(t, a);
        self.capture.write(t, a);
    }
    fn kernel_read(&mut self, t: ThreadId, a: Addr) {
        self.tool.kernel_read(t, a);
        self.capture.kernel_read(t, a);
    }
    fn kernel_write(&mut self, t: ThreadId, a: Addr) {
        self.tool.kernel_write(t, a);
        self.capture.kernel_write(t, a);
    }
    fn spawned(&mut self, parent: ThreadId, child: ThreadId) {
        self.tool.spawned(parent, child);
        self.capture.spawned(parent, child);
    }
    fn joined(&mut self, t: ThreadId, target: ThreadId) {
        self.tool.joined(t, target);
        self.capture.joined(t, target);
    }
    fn lock_acquired(&mut self, t: ThreadId, lock: i64) {
        self.tool.lock_acquired(t, lock);
        self.capture.lock_acquired(t, lock);
    }
    fn lock_released(&mut self, t: ThreadId, lock: i64) {
        self.tool.lock_released(t, lock);
        self.capture.lock_released(t, lock);
    }
    fn sem_posted(&mut self, t: ThreadId, sem: i64) {
        self.tool.sem_posted(t, sem);
        self.capture.sem_posted(t, sem);
    }
    fn sem_waited(&mut self, t: ThreadId, sem: i64) {
        self.tool.sem_waited(t, sem);
        self.capture.sem_waited(t, sem);
    }
}

/// Wrapper tool installed under `--observe`: counts blocks/events/switches
/// into plain locals and folds them into the global [`aprof_obs`] counters
/// (plus a rate-limited stderr heartbeat) once per [`OBS_FLUSH_BLOCKS`]
/// blocks and at drop. Per-event cost while observing is a local integer
/// bump; when observability is disabled this type is never constructed.
struct ObsTool<'a, S: Tool + ?Sized> {
    inner: &'a mut S,
    blocks: u64,
    events: u64,
    switches: u64,
    heartbeat: aprof_obs::Heartbeat,
}

const OBS_FLUSH_BLOCKS: u64 = 4096;

impl<'a, S: Tool + ?Sized> ObsTool<'a, S> {
    fn new(inner: &'a mut S) -> Self {
        ObsTool {
            inner,
            blocks: 0,
            events: 0,
            switches: 0,
            heartbeat: aprof_obs::Heartbeat::per_second(),
        }
    }

    fn flush(&mut self) {
        use aprof_obs::counters as c;
        c::VM_BLOCKS.add(self.blocks);
        c::VM_EVENTS.add(self.events);
        c::VM_THREAD_SWITCHES.add(self.switches);
        self.blocks = 0;
        self.events = 0;
        self.switches = 0;
        self.heartbeat.tick(|| {
            format!(
                "vm: {} blocks, {} events, {} thread switches",
                c::VM_BLOCKS.get(),
                c::VM_EVENTS.get(),
                c::VM_THREAD_SWITCHES.get()
            )
        });
    }
}

impl<S: Tool + ?Sized> Drop for ObsTool<'_, S> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<S: Tool + ?Sized> Tool for ObsTool<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn thread_start(&mut self, t: ThreadId) {
        self.events += 1;
        self.inner.thread_start(t);
    }
    fn thread_exit(&mut self, t: ThreadId) {
        self.events += 1;
        self.inner.thread_exit(t);
    }
    fn thread_switch(&mut self, t: ThreadId) {
        self.events += 1;
        self.switches += 1;
        self.inner.thread_switch(t);
    }
    fn basic_block(&mut self, t: ThreadId, cost: u64) {
        self.events += 1;
        self.blocks += 1;
        if self.blocks >= OBS_FLUSH_BLOCKS {
            self.flush();
        }
        self.inner.basic_block(t, cost);
    }
    fn call(&mut self, t: ThreadId, r: RoutineId) {
        self.events += 1;
        self.inner.call(t, r);
    }
    fn ret(&mut self, t: ThreadId, r: RoutineId) {
        self.events += 1;
        self.inner.ret(t, r);
    }
    fn read(&mut self, t: ThreadId, a: Addr) {
        self.events += 1;
        self.inner.read(t, a);
    }
    fn write(&mut self, t: ThreadId, a: Addr) {
        self.events += 1;
        self.inner.write(t, a);
    }
    fn kernel_read(&mut self, t: ThreadId, a: Addr) {
        self.events += 1;
        self.inner.kernel_read(t, a);
    }
    fn kernel_write(&mut self, t: ThreadId, a: Addr) {
        self.events += 1;
        self.inner.kernel_write(t, a);
    }
    fn spawned(&mut self, parent: ThreadId, child: ThreadId) {
        self.events += 1;
        self.inner.spawned(parent, child);
    }
    fn joined(&mut self, t: ThreadId, target: ThreadId) {
        self.events += 1;
        self.inner.joined(t, target);
    }
    fn lock_acquired(&mut self, t: ThreadId, lock: i64) {
        self.events += 1;
        self.inner.lock_acquired(t, lock);
    }
    fn lock_released(&mut self, t: ThreadId, lock: i64) {
        self.events += 1;
        self.inner.lock_released(t, lock);
    }
    fn sem_posted(&mut self, t: ThreadId, sem: i64) {
        self.events += 1;
        self.inner.sem_posted(t, sem);
    }
    fn sem_waited(&mut self, t: ThreadId, sem: i64) {
        self.events += 1;
        self.inner.sem_waited(t, sem);
    }
}

#[derive(Debug, Clone)]
struct ActFrame {
    func: FuncId,
    block: usize,
    idx: usize,
    bb_counted: bool,
    regs: Vec<i64>,
    /// Which registers have been written in this activation. Empty unless
    /// [`MachineConfig::strict_regs`] is set.
    init: Vec<bool>,
    ret_dst: Option<Reg>,
}

impl ActFrame {
    /// Reads register `r`. Under `STRICT`, a register never written in this
    /// activation is a [`VmError::UseBeforeDef`] of thread `tid`.
    #[inline(always)]
    fn get<const STRICT: bool>(&self, tid: ThreadId, r: u16) -> Result<i64, VmError> {
        if STRICT && !self.init[r as usize] {
            return Err(VmError::UseBeforeDef { thread: tid, func: self.func, reg: Reg(r) });
        }
        Ok(self.regs[r as usize])
    }

    /// Writes register `r`, marking it written under `STRICT`.
    #[inline(always)]
    fn set<const STRICT: bool>(&mut self, r: u16, v: i64) {
        self.regs[r as usize] = v;
        if STRICT {
            self.init[r as usize] = true;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Blocked,
    Done,
}

#[derive(Debug)]
struct ThreadCtx {
    id: ThreadId,
    frames: Vec<ActFrame>,
    status: Status,
    started: bool,
    result: Option<i64>,
    blocks: u64,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<usize>,
    waiters: VecDeque<usize>,
}

#[derive(Debug, Default)]
struct SemState {
    value: i64,
    waiters: VecDeque<usize>,
}

/// What a scheduling slice ended with.
enum Slice {
    /// Quantum exhausted; thread still runnable.
    Preempted,
    /// Thread blocked on a lock/semaphore/join.
    Blocked,
    /// Thread finished.
    Exited,
}

/// An instrumented interpreter for guest [`Program`]s.
///
/// Threads are **serialized**: exactly one guest thread executes at a time,
/// under a deterministic fair round-robin scheduler, so analysis tools never
/// see concurrent callbacks — the same execution model Valgrind gives the
/// paper's profiler (§5). Determinism makes every experiment reproducible:
/// the same program, devices and configuration yield the identical event
/// stream.
///
/// # Example
///
/// Run a program under the trms profiler:
///
/// ```
/// use aprof_core::TrmsProfiler;
/// use aprof_vm::{asm, Machine};
///
/// let program = asm::parse(
///     "func main() regs=2 {\n
///      bb0:\n
///        r0 = const 123\n
///        r1 = alloc r0\n
///        store r0, r1, 0\n
///        r0 = load r1, 0\n
///        ret r0\n
///      }",
/// )?;
/// let names = program.routines().clone();
/// let mut machine = Machine::new(program);
/// let mut profiler = TrmsProfiler::new();
/// let outcome = machine.run_with(&mut profiler)?;
/// assert_eq!(outcome.exit_value, Some(123));
/// let report = profiler.into_report(&names);
/// assert_eq!(report.global.writes, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    program: Program,
    memory: GuestMemory,
    devices: DeviceTable,
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine for `program` with default configuration and no
    /// devices.
    pub fn new(program: Program) -> Self {
        Machine {
            program,
            memory: GuestMemory::new(),
            devices: DeviceTable::new(),
            config: MachineConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: MachineConfig) -> Self {
        self.config = config;
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> MachineConfig {
        self.config
    }

    /// Registers a device, returning the file descriptor guests use.
    pub fn add_device(&mut self, device: Box<dyn crate::device::Device>) -> i64 {
        self.devices.register(device)
    }

    /// The device table (for post-run inspection of sinks/files).
    pub fn devices(&self) -> &DeviceTable {
        &self.devices
    }

    /// The guest memory (for post-run inspection).
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the program without instrumentation — the "native" baseline of
    /// Table 1. The interpreter is monomorphized for [`NullTool`], so its
    /// empty callbacks compile away.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on guest deadlock, lock misuse, bad file
    /// descriptors or an exceeded block budget.
    pub fn run_native(&mut self) -> Result<RunOutcome, VmError> {
        self.run_inner(&mut NullTool)
    }

    /// Runs the program delivering every instrumentation event to `tool`
    /// through dynamic dispatch (and calling [`Tool::finish`] at the end),
    /// so even a do-nothing tool pays the dispatch cost `nulgrind` pays
    /// under Valgrind.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_native`](Machine::run_native).
    pub fn run_with(&mut self, tool: &mut dyn Tool) -> Result<RunOutcome, VmError> {
        let outcome = self.run_inner(tool);
        tool.finish();
        outcome
    }

    /// Runs the program delivering every instrumentation event to `tool`
    /// *and then* to `capture`, calling [`Tool::finish`] on both at the end.
    ///
    /// The usual capture is an `aprof_wire::WireWriter` (streaming capture:
    /// chunks are sealed and written while the guest runs, so the trace
    /// never resides in memory). The caller should create the writer from
    /// [`Program::routines`](crate::ir::Program::routines) so routine names
    /// travel with the trace, and must call `WireWriter::finish` after the
    /// run to seal the file — that is also where any capture i/o error
    /// latched during the run is reported.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_native`](Machine::run_native). Capture i/o
    /// failures do not abort the guest.
    pub fn run_recording<C: Tool + ?Sized>(
        &mut self,
        tool: &mut dyn Tool,
        capture: &mut C,
    ) -> Result<RunOutcome, VmError> {
        let outcome = self.run_inner(&mut Tee { tool: &mut *tool, capture: &mut *capture });
        tool.finish();
        capture.finish();
        outcome
    }

    fn run_inner<S: Tool + ?Sized>(&mut self, tool: &mut S) -> Result<RunOutcome, VmError> {
        if aprof_obs::is_enabled() {
            let _span = aprof_obs::span!("vm.run");
            return self.run_exec(&mut ObsTool::new(tool));
        }
        self.run_exec(tool)
    }

    fn run_exec<S: Tool + ?Sized>(&mut self, tool: &mut S) -> Result<RunOutcome, VmError> {
        // Strict-register mode decodes unfused: each simple op then runs
        // through its own checked handler, the reference that fusion is
        // tested against.
        let strict = self.config.strict_regs;
        let mode = if strict { DecodeMode::Plain } else { DecodeMode::Fused };
        let decoded = DecodedProgram::build(&self.program, mode);
        let mut exec = Exec {
            program: &self.program,
            memory: &mut self.memory,
            devices: &mut self.devices,
            config: self.config,
            threads: Vec::new(),
            locks: HashMap::new(),
            sems: HashMap::new(),
            joiners: HashMap::new(),
            runq: VecDeque::new(),
            total_blocks: 0,
            switches: 0,
            instructions: 0,
            alloc_cells: 0,
        };
        exec.spawn_thread(self.program.entry(), Vec::new())
            .expect("first thread is always under the limit");
        if strict {
            exec.run::<S, true>(&decoded, tool)
        } else {
            exec.run::<S, false>(&decoded, tool)
        }
    }
}

struct Exec<'m> {
    program: &'m Program,
    memory: &'m mut GuestMemory,
    devices: &'m mut DeviceTable,
    config: MachineConfig,
    threads: Vec<ThreadCtx>,
    locks: HashMap<i64, LockState>,
    sems: HashMap<i64, SemState>,
    joiners: HashMap<usize, Vec<usize>>,
    runq: VecDeque<usize>,
    total_blocks: u64,
    switches: u64,
    instructions: u64,
    alloc_cells: u64,
}

impl<'m> Exec<'m> {
    fn spawn_thread(&mut self, func: FuncId, args: Vec<i64>) -> Result<usize, VmError> {
        if self.threads.len() >= self.config.max_threads {
            return Err(VmError::TooManyThreads { limit: self.config.max_threads, func });
        }
        let idx = self.threads.len();
        let f = self.program.function(func);
        let mut regs = vec![0i64; f.regs as usize];
        regs[..args.len()].copy_from_slice(&args);
        let init = self.init_set(f.regs as usize, args.len());
        self.threads.push(ThreadCtx {
            id: ThreadId::new(idx as u32),
            frames: vec![ActFrame {
                func,
                block: 0,
                idx: 0,
                bb_counted: false,
                regs,
                init,
                ret_dst: None,
            }],
            status: Status::Ready,
            started: false,
            result: None,
            blocks: 0,
        });
        self.runq.push_back(idx);
        Ok(idx)
    }

    /// Builds the written-register set for a fresh activation: the first
    /// `args` registers hold parameters and count as written. Empty (no
    /// tracking) unless strict-register mode is on.
    fn init_set(&self, regs: usize, args: usize) -> Vec<bool> {
        if !self.config.strict_regs {
            return Vec::new();
        }
        let mut init = vec![false; regs];
        init[..args].fill(true);
        init
    }

    fn wake(&mut self, t: usize) {
        self.threads[t].status = Status::Ready;
        self.runq.push_back(t);
    }

    fn run<S: Tool + ?Sized, const STRICT: bool>(
        &mut self,
        dp: &DecodedProgram,
        tool: &mut S,
    ) -> Result<RunOutcome, VmError> {
        let mut last: Option<usize> = None;
        let mut trap: Option<ResourceTrap> = None;
        while let Some(t) = self.runq.pop_front() {
            debug_assert_eq!(self.threads[t].status, Status::Ready);
            if last.is_some() && last != Some(t) {
                self.switches += 1;
                tool.thread_switch(self.threads[t].id);
            }
            last = Some(t);
            if !self.threads[t].started {
                self.threads[t].started = true;
                tool.thread_start(self.threads[t].id);
                // The entry function of a thread is an activation too.
                let func = self.threads[t].frames[0].func;
                tool.call(self.threads[t].id, RoutineId::new(func.0));
            }
            let sliced = match self.slice::<S, STRICT>(t, dp, tool) {
                Ok(s) => s,
                Err(VmError::ResourceExhausted { resource, limit })
                    if self.config.limits.trap =>
                {
                    // Graceful trap: stop scheduling and keep the partial
                    // run; threads still blocked at this point are the
                    // trap's fault, not a guest deadlock.
                    aprof_obs::counters::VM_RESOURCE_TRAPS.incr();
                    trap = Some(ResourceTrap { resource, limit });
                    break;
                }
                Err(e) => return Err(e),
            };
            match sliced {
                Slice::Preempted => self.runq.push_back(t),
                Slice::Blocked => {}
                Slice::Exited => {
                    tool.thread_exit(self.threads[t].id);
                    if let Some(waiters) = self.joiners.remove(&t) {
                        for w in waiters {
                            // The join instruction has completed.
                            self.advance(w);
                            self.wake(w);
                            tool.joined(self.threads[w].id, self.threads[t].id);
                        }
                    }
                }
            }
        }
        if trap.is_none() {
            if let Some(blocked) = self.deadlocked() {
                return Err(VmError::Deadlock { blocked });
            }
        }
        Ok(RunOutcome {
            exit_value: self.threads[0].result,
            total_blocks: self.total_blocks,
            switches: self.switches,
            threads: self
                .threads
                .iter()
                .map(|t| ThreadOutcome { thread: t.id, blocks: t.blocks, result: t.result })
                .collect(),
            trap,
        })
    }

    fn deadlocked(&self) -> Option<Vec<ThreadId>> {
        let blocked: Vec<ThreadId> = self
            .threads
            .iter()
            .filter(|t| t.status == Status::Blocked)
            .map(|t| t.id)
            .collect();
        if blocked.is_empty() {
            None
        } else {
            Some(blocked)
        }
    }

    /// Advances the blocked-instruction pointer of `t` past the instruction
    /// it was blocked on (used when a wake-up completes the instruction on
    /// the blocked thread's behalf).
    fn advance(&mut self, t: usize) {
        let frame = self.threads[t].frames.last_mut().expect("blocked thread has a frame");
        frame.idx += 1;
    }

    /// Runs thread `t` for up to one quantum.
    ///
    /// The inner loop is the direct-threaded dispatch: decoded simple ops
    /// go through the [`Tbl`] function-pointer table without re-resolving
    /// the frame position; [`C_COMPLEX`] slots escape to [`Exec::instr`].
    /// The loop keeps the instruction index in a local and writes it back
    /// to the frame only at escape points — before a complex op (whose
    /// blocking/waker protocol reads `frame.idx`) and at the terminator.
    /// `STRICT` selects the use-before-def-checking instantiation of every
    /// step (see [`MachineConfig::strict_regs`]).
    fn slice<S: Tool + ?Sized, const STRICT: bool>(
        &mut self,
        t: usize,
        dp: &DecodedProgram,
        tool: &mut S,
    ) -> Result<Slice, VmError> {
        let tid = self.threads[t].id;
        let mut budget = self.config.quantum;
        'blocks: loop {
            // Charge the basic block on first entry (not on re-entry after
            // an intra-block blocking instruction).
            {
                let frame = self.threads[t].frames.last_mut().expect("live thread has a frame");
                if !frame.bb_counted {
                    frame.bb_counted = true;
                    self.threads[t].blocks += 1;
                    self.total_blocks += 1;
                    if self.total_blocks > self.config.max_blocks {
                        return Err(VmError::BlockBudgetExceeded {
                            limit: self.config.max_blocks,
                        });
                    }
                    tool.basic_block(tid, 1);
                }
            }
            let (func, block, mut idx) = {
                let frame = self.threads[t].frames.last().expect("frame");
                (frame.func, frame.block, frame.idx)
            };
            let ops = dp.block(func.index(), block);
            while idx < ops.len() {
                let (code, adv) = (ops[idx].code, ops[idx].adv);
                if code == C_COMPLEX {
                    // `Exec::instr` reads and advances `frame.idx` itself
                    // (and wakers advance it for blocked instructions), so
                    // sync the local index first.
                    self.threads[t].frames.last_mut().expect("frame").idx = idx;
                    let program = self.program;
                    let instr = &program.function(func).blocks[block].instrs[idx];
                    match self.instr::<S, STRICT>(t, tid, instr, tool)? {
                        // Control may have moved (call pushed a frame);
                        // re-resolve from the top.
                        Flow::Next => continue 'blocks,
                        Flow::Blocked => {
                            self.threads[t].status = Status::Blocked;
                            return Ok(Slice::Blocked);
                        }
                        Flow::Yielded => return Ok(Slice::Preempted),
                    }
                }
                (Tbl::<S, STRICT>::TABLE[code as usize])(self, tool, t, tid, ops, idx)?;
                idx += adv as usize;
            }
            self.threads[t].frames.last_mut().expect("frame").idx = idx;
            // Terminator — charged against the instruction budget too, so a
            // pure-jump loop cannot outrun the watchdog.
            self.charge_instruction()?;
            let bb = &self.program.function(func).blocks[block];
            match &bb.term {
                Terminator::Jmp(b) => {
                    let frame = self.threads[t].frames.last_mut().expect("frame");
                    frame.block = b.index();
                    frame.idx = 0;
                    frame.bb_counted = false;
                }
                Terminator::Br { cond, then_to, else_to } => {
                    let frame = self.threads[t].frames.last_mut().expect("frame");
                    let taken =
                        if frame.get::<STRICT>(tid, cond.0)? != 0 { then_to } else { else_to };
                    frame.block = taken.index();
                    frame.idx = 0;
                    frame.bb_counted = false;
                }
                Terminator::Ret { value } => {
                    let frame = self.threads[t].frames.pop().expect("frame");
                    let result = value.map(|r| frame.get::<STRICT>(tid, r.0)).transpose()?;
                    tool.ret(tid, RoutineId::new(frame.func.0));
                    match self.threads[t].frames.last_mut() {
                        Some(caller) => {
                            if let (Some(dst), Some(v)) = (frame.ret_dst, result) {
                                caller.set::<STRICT>(dst.0, v);
                            }
                        }
                        None => {
                            self.threads[t].result = result;
                            self.threads[t].status = Status::Done;
                            return Ok(Slice::Exited);
                        }
                    }
                }
            }
            budget -= 1;
            if budget == 0 {
                return Ok(Slice::Preempted);
            }
        }
    }

    /// Counts one executed instruction (or terminator) against the
    /// instruction budget.
    fn charge_instruction(&mut self) -> Result<(), VmError> {
        self.instructions += 1;
        if self.instructions > self.config.limits.max_instructions {
            return Err(VmError::ResourceExhausted {
                resource: ResourceKind::Instructions,
                limit: self.config.limits.max_instructions,
            });
        }
        Ok(())
    }

    /// Executes one instruction that decodes to [`C_COMPLEX`]: calls,
    /// threading and synchronization, allocation and device I/O.
    fn instr<S: Tool + ?Sized, const STRICT: bool>(
        &mut self,
        t: usize,
        tid: ThreadId,
        instr: &Instr,
        tool: &mut S,
    ) -> Result<Flow, VmError> {
        self.charge_instruction()?;
        if STRICT {
            // Operand checks happen up front, before any side effect. A
            // blocked instruction re-checks on resume; that is idempotent.
            let mut uses = Vec::new();
            instr.uses_into(&mut uses);
            let frame = frame_mut(self, t);
            for r in uses {
                frame.get::<true>(tid, r.0)?;
            }
        }
        // Most instructions complete and advance the pointer; blocking ones
        // leave it in place so they re-execute (or are completed by a waker).
        macro_rules! regs {
            () => {
                self.threads[t].frames.last_mut().expect("frame").regs
            };
        }
        match instr {
            Instr::Const { .. }
            | Instr::Mov { .. }
            | Instr::Bin { .. }
            | Instr::Cmp { .. }
            | Instr::Load { .. }
            | Instr::Store { .. } => unreachable!("simple ops run through the handler table"),
            Instr::Alloc { dst, len } => {
                let n = regs!()[len.0 as usize].max(0) as u64;
                self.alloc_cells = self.alloc_cells.saturating_add(n);
                if self.alloc_cells > self.config.limits.max_alloc_cells {
                    // Checked before touching guest memory, so a single
                    // absurd request cannot force the allocation through.
                    return Err(VmError::ResourceExhausted {
                        resource: ResourceKind::AllocCells,
                        limit: self.config.limits.max_alloc_cells,
                    });
                }
                let base = self.memory.alloc(n);
                regs!()[dst.0 as usize] = base.raw() as i64;
            }
            Instr::Call { dst, func, args } => {
                let argv: Vec<i64> = {
                    let r = &regs!();
                    args.iter().map(|a| r[a.0 as usize]).collect()
                };
                // The caller resumes after the call.
                self.advance(t);
                let f = self.program.function(*func);
                let mut regs = vec![0i64; f.regs as usize];
                regs[..argv.len()].copy_from_slice(&argv);
                tool.call(tid, RoutineId::new(func.0));
                let init = self.init_set(f.regs as usize, argv.len());
                self.threads[t].frames.push(ActFrame {
                    func: *func,
                    block: 0,
                    idx: 0,
                    bb_counted: false,
                    regs,
                    init,
                    ret_dst: *dst,
                });
                return Ok(Flow::Next);
            }
            Instr::Spawn { dst, func, args } => {
                let argv: Vec<i64> = {
                    let r = &regs!();
                    args.iter().map(|a| r[a.0 as usize]).collect()
                };
                let handle = self.spawn_thread(*func, argv)?;
                tool.spawned(tid, ThreadId::new(handle as u32));
                regs!()[dst.0 as usize] = handle as i64;
            }
            Instr::Join { thread } => {
                let handle = regs!()[thread.0 as usize];
                let target = usize::try_from(handle)
                    .ok()
                    .filter(|&h| h < self.threads.len())
                    .ok_or(VmError::BadThreadHandle { thread: tid, handle })?;
                if self.threads[target].status != Status::Done {
                    self.joiners.entry(target).or_default().push(t);
                    return Ok(Flow::Blocked);
                }
                tool.joined(tid, self.threads[target].id);
            }
            Instr::Acquire { lock } => {
                let key = regs!()[lock.0 as usize];
                let state = self.locks.entry(key).or_default();
                match state.holder {
                    None => {
                        state.holder = Some(t);
                        tool.lock_acquired(tid, key);
                    }
                    Some(_) => {
                        state.waiters.push_back(t);
                        return Ok(Flow::Blocked);
                    }
                }
            }
            Instr::Release { lock } => {
                let key = regs!()[lock.0 as usize];
                let state = self.locks.entry(key).or_default();
                if state.holder != Some(t) {
                    return Err(VmError::LockNotHeld { thread: tid, lock: key });
                }
                let next = match state.waiters.pop_front() {
                    Some(next) => {
                        state.holder = Some(next);
                        Some(next)
                    }
                    None => {
                        state.holder = None;
                        None
                    }
                };
                tool.lock_released(tid, key);
                if let Some(next) = next {
                    // Complete the waiter's Acquire on its behalf.
                    self.advance(next);
                    self.wake(next);
                    tool.lock_acquired(self.threads[next].id, key);
                }
            }
            Instr::SemInit { sem, value } => {
                let (key, v) = {
                    let r = &regs!();
                    (r[sem.0 as usize], r[value.0 as usize])
                };
                self.sems.insert(key, SemState { value: v, waiters: VecDeque::new() });
            }
            Instr::SemPost { sem } => {
                let key = regs!()[sem.0 as usize];
                let state = self.sems.entry(key).or_default();
                let next = match state.waiters.pop_front() {
                    Some(next) => Some(next),
                    None => {
                        state.value += 1;
                        None
                    }
                };
                tool.sem_posted(tid, key);
                if let Some(next) = next {
                    // Hand the permit straight to a waiter.
                    self.advance(next);
                    self.wake(next);
                    tool.sem_waited(self.threads[next].id, key);
                }
            }
            Instr::SemWait { sem } => {
                let key = regs!()[sem.0 as usize];
                let state = self.sems.entry(key).or_default();
                if state.value > 0 {
                    state.value -= 1;
                    tool.sem_waited(tid, key);
                } else {
                    state.waiters.push_back(t);
                    return Ok(Flow::Blocked);
                }
            }
            Instr::Yield => {
                self.advance(t);
                return Ok(Flow::Yielded);
            }
            Instr::SysRead { dst, fd, buf, len } => {
                let (fdv, base, n) = {
                    let r = &regs!();
                    (r[fd.0 as usize], r[buf.0 as usize], r[len.0 as usize])
                };
                let device = self
                    .devices
                    .get_mut(fdv)
                    .ok_or(VmError::BadFileDescriptor { thread: tid, fd: fdv })?;
                let mut moved = 0i64;
                for i in 0..n.max(0) {
                    match device.read_cell() {
                        Some(v) => {
                            let a = Addr::new((base.wrapping_add(i)) as u64);
                            tool.kernel_write(tid, a);
                            self.memory.write(a, v);
                            moved += 1;
                        }
                        None => break,
                    }
                }
                regs!()[dst.0 as usize] = moved;
            }
            Instr::SysWrite { dst, fd, buf, len } => {
                let (fdv, base, n) = {
                    let r = &regs!();
                    (r[fd.0 as usize], r[buf.0 as usize], r[len.0 as usize])
                };
                if self.devices.get_mut(fdv).is_none() {
                    return Err(VmError::BadFileDescriptor { thread: tid, fd: fdv });
                }
                let mut moved = 0i64;
                for i in 0..n.max(0) {
                    let a = Addr::new((base.wrapping_add(i)) as u64);
                    tool.kernel_read(tid, a);
                    let v = self.memory.read(a);
                    let device = self.devices.get_mut(fdv).expect("checked above");
                    device.write_cell(v);
                    moved += 1;
                }
                regs!()[dst.0 as usize] = moved;
            }
        }
        if STRICT {
            // `Call` returned early above: its destination only becomes
            // defined when the callee returns a value (see the `Ret` arm).
            if let Some(d) = instr.def() {
                frame_mut(self, t).init[d.0 as usize] = true;
            }
        }
        self.advance(t);
        Ok(Flow::Next)
    }
}

enum Flow {
    Next,
    Blocked,
    Yielded,
}

// ---------------------------------------------------------------------------
// Direct-threaded dispatch: effect functions, handlers and the table.
//
// Every *simple* (non-blocking, infallible-but-for-the-budget) opcode has one
// `e_*` effect function holding its semantics, a `h_*` plain handler
// (charge + effect), and possibly membership in a `h_fuse_*` superinstruction
// handler (charge + effect, twice, reading the second op's operands from the
// filler slot — see `crate::dispatch` for the invariants). Effects are
// generic over `STRICT`: the checked instantiation reads every source
// register through `ActFrame::get` (in `Instr::uses_into` order) before it
// applies the effect, and marks the destination written after. Handlers
// never touch `ActFrame::idx`; the dispatch loop in `slice` advances by
// `DecodedOp::adv` on success.
// ---------------------------------------------------------------------------

/// Uniform signature of a table handler: execute the decoded op(s) at
/// `ops[idx]` for thread `t`, charging the instruction budget.
type Handler<S> =
    fn(&mut Exec<'_>, &mut S, usize, ThreadId, &[DecodedOp], usize) -> Result<(), VmError>;

/// The handler table, monomorphized per [`Tool`] type and checking mode
/// (generics cannot carry `static`s, but associated consts work).
struct Tbl<S: ?Sized, const STRICT: bool>(std::marker::PhantomData<S>);

impl<S: Tool + ?Sized, const STRICT: bool> Tbl<S, STRICT> {
    /// Indexed by decoded opcode; order must match the `C_*` constants in
    /// [`crate::dispatch`].
    const TABLE: [Handler<S>; N_CODES] = [
        h_const::<S, STRICT>,
        h_mov::<S, STRICT>,
        h_load::<S, STRICT>,
        h_store::<S, STRICT>,
        h_add::<S, STRICT>,
        h_sub::<S, STRICT>,
        h_mul::<S, STRICT>,
        h_div::<S, STRICT>,
        h_rem::<S, STRICT>,
        h_and::<S, STRICT>,
        h_or::<S, STRICT>,
        h_xor::<S, STRICT>,
        h_shl::<S, STRICT>,
        h_shr::<S, STRICT>,
        h_min::<S, STRICT>,
        h_max::<S, STRICT>,
        h_ceq::<S, STRICT>,
        h_cne::<S, STRICT>,
        h_clt::<S, STRICT>,
        h_cle::<S, STRICT>,
        h_cgt::<S, STRICT>,
        h_cge::<S, STRICT>,
        h_fuse_const_const::<S, STRICT>,
        h_fuse_add_load::<S, STRICT>,
        h_fuse_add_add::<S, STRICT>,
        h_fuse_const_add::<S, STRICT>,
        h_fuse_const_cgt::<S, STRICT>,
    ];
}

#[inline(always)]
fn frame_mut<'a>(ex: &'a mut Exec<'_>, t: usize) -> &'a mut ActFrame {
    ex.threads[t].frames.last_mut().expect("live thread has a frame")
}

#[inline(always)]
fn e_const<S: Tool + ?Sized, const STRICT: bool>(
    ex: &mut Exec<'_>,
    _tool: &mut S,
    t: usize,
    _tid: ThreadId,
    op: &DecodedOp,
) -> Result<(), VmError> {
    frame_mut(ex, t).set::<STRICT>(op.dst, op.imm);
    Ok(())
}

#[inline(always)]
fn e_mov<S: Tool + ?Sized, const STRICT: bool>(
    ex: &mut Exec<'_>,
    _tool: &mut S,
    t: usize,
    tid: ThreadId,
    op: &DecodedOp,
) -> Result<(), VmError> {
    let f = frame_mut(ex, t);
    let v = f.get::<STRICT>(tid, op.a)?;
    f.set::<STRICT>(op.dst, v);
    Ok(())
}

#[inline(always)]
fn e_load<S: Tool + ?Sized, const STRICT: bool>(
    ex: &mut Exec<'_>,
    tool: &mut S,
    t: usize,
    tid: ThreadId,
    op: &DecodedOp,
) -> Result<(), VmError> {
    let base = frame_mut(ex, t).get::<STRICT>(tid, op.a)?;
    let a = Addr::new(base.wrapping_add(op.imm) as u64);
    tool.read(tid, a);
    let v = ex.memory.read(a);
    frame_mut(ex, t).set::<STRICT>(op.dst, v);
    Ok(())
}

#[inline(always)]
fn e_store<S: Tool + ?Sized, const STRICT: bool>(
    ex: &mut Exec<'_>,
    tool: &mut S,
    t: usize,
    tid: ThreadId,
    op: &DecodedOp,
) -> Result<(), VmError> {
    let f = frame_mut(ex, t);
    let base = f.get::<STRICT>(tid, op.a)?;
    let v = f.get::<STRICT>(tid, op.b)?;
    let a = Addr::new(base.wrapping_add(op.imm) as u64);
    tool.write(tid, a);
    ex.memory.write(a, v);
    Ok(())
}

/// Generates one effect function per arithmetic/comparison opcode, so the
/// `eval` match constant-folds away inside each handler.
macro_rules! arith_effects {
    ($($name:ident = $op:expr;)*) => {$(
        #[inline(always)]
        fn $name<S: Tool + ?Sized, const STRICT: bool>(
            ex: &mut Exec<'_>,
            _tool: &mut S,
            t: usize,
            tid: ThreadId,
            op: &DecodedOp,
        ) -> Result<(), VmError> {
            let f = frame_mut(ex, t);
            let a = f.get::<STRICT>(tid, op.a)?;
            let b = f.get::<STRICT>(tid, op.b)?;
            f.set::<STRICT>(op.dst, $op.eval(a, b));
            Ok(())
        }
    )*};
}

arith_effects! {
    e_add = BinOp::Add;
    e_sub = BinOp::Sub;
    e_mul = BinOp::Mul;
    e_div = BinOp::Div;
    e_rem = BinOp::Rem;
    e_and = BinOp::And;
    e_or = BinOp::Or;
    e_xor = BinOp::Xor;
    e_shl = BinOp::Shl;
    e_shr = BinOp::Shr;
    e_min = BinOp::Min;
    e_max = BinOp::Max;
    e_ceq = CmpOp::Eq;
    e_cne = CmpOp::Ne;
    e_clt = CmpOp::Lt;
    e_cle = CmpOp::Le;
    e_cgt = CmpOp::Gt;
    e_cge = CmpOp::Ge;
}

macro_rules! plain_handlers {
    ($($h:ident = $e:ident;)*) => {$(
        fn $h<S: Tool + ?Sized, const STRICT: bool>(
            ex: &mut Exec<'_>,
            tool: &mut S,
            t: usize,
            tid: ThreadId,
            ops: &[DecodedOp],
            idx: usize,
        ) -> Result<(), VmError> {
            ex.charge_instruction()?;
            $e::<S, STRICT>(ex, tool, t, tid, &ops[idx])
        }
    )*};
}

plain_handlers! {
    h_const = e_const;
    h_mov = e_mov;
    h_load = e_load;
    h_store = e_store;
    h_add = e_add;
    h_sub = e_sub;
    h_mul = e_mul;
    h_div = e_div;
    h_rem = e_rem;
    h_and = e_and;
    h_or = e_or;
    h_xor = e_xor;
    h_shl = e_shl;
    h_shr = e_shr;
    h_min = e_min;
    h_max = e_max;
    h_ceq = e_ceq;
    h_cne = e_cne;
    h_clt = e_clt;
    h_cle = e_cle;
    h_cgt = e_cgt;
    h_cge = e_cge;
}

/// Superinstruction handlers: charge → effect → charge → effect, exactly the
/// sequence the two plain handlers would produce, so event order and
/// trap-at-budget behavior are identical with and without fusion. The second
/// op's operands come from the filler slot at `idx + 1`.
macro_rules! fused_handlers {
    ($($h:ident = $e1:ident + $e2:ident;)*) => {$(
        fn $h<S: Tool + ?Sized, const STRICT: bool>(
            ex: &mut Exec<'_>,
            tool: &mut S,
            t: usize,
            tid: ThreadId,
            ops: &[DecodedOp],
            idx: usize,
        ) -> Result<(), VmError> {
            ex.charge_instruction()?;
            $e1::<S, STRICT>(ex, tool, t, tid, &ops[idx])?;
            ex.charge_instruction()?;
            $e2::<S, STRICT>(ex, tool, t, tid, &ops[idx + 1])
        }
    )*};
}

fused_handlers! {
    h_fuse_const_const = e_const + e_const;
    h_fuse_add_load = e_add + e_load;
    h_fuse_add_add = e_add + e_add;
    h_fuse_const_add = e_const + e_add;
    h_fuse_const_cgt = e_const + e_cgt;
}

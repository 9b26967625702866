//! Integration tests for the guest machine: threading, synchronization,
//! kernel I/O, determinism, and instrumentation-event delivery.

use aprof_trace::{EventKind, RecordingTool, ThreadId, Tool};
use aprof_vm::builder::ProgramBuilder;
use aprof_vm::device::{FileDevice, SinkDevice};
use aprof_vm::ir::{FuncId, Reg};
use aprof_vm::{asm, Machine, MachineConfig, ResourceKind, ResourceLimits, ResourceTrap, VmError};

/// N workers each add their id into a shared cell under a lock; main joins
/// them all and returns the cell.
fn locked_adders(workers: i64) -> aprof_vm::ir::Program {
    let mut p = ProgramBuilder::new();
    let main = p.declare("main", 0);
    let worker = p.declare("worker", 2); // (shared_addr, my_value)
    {
        let mut f = p.function(worker);
        let addr = f.param(0);
        let v = f.param(1);
        let lock = f.const_temp(1);
        f.acquire(lock);
        let cur = f.temp();
        f.load(cur, addr, 0);
        f.add(cur, cur, v);
        f.store(cur, addr, 0);
        f.release(lock);
        f.ret(None);
    }
    {
        let mut f = p.function(main);
        let one = f.const_temp(1);
        let shared = f.temp();
        f.alloc(shared, one);
        let zero = f.const_temp(0);
        f.store(zero, shared, 0);
        let n = f.const_temp(workers);
        let handles = f.temp();
        f.alloc(handles, n);
        f.for_range(n, |f, i| {
            let h = f.temp();
            f.spawn(h, worker, &[shared, i]);
            let slot = f.temp();
            f.add(slot, handles, i);
            f.store(h, slot, 0);
        });
        f.for_range(n, |f, i| {
            let slot = f.temp();
            f.add(slot, handles, i);
            let h = f.temp();
            f.load(h, slot, 0);
            f.join(h);
        });
        let out = f.temp();
        f.load(out, shared, 0);
        f.ret(Some(out));
    }
    p.build().unwrap()
}

#[test]
fn spawn_join_and_locks() {
    let mut m = Machine::new(locked_adders(8));
    let out = m.run_native().unwrap();
    assert_eq!(out.exit_value, Some((0..8).sum::<i64>()));
    assert_eq!(out.threads.len(), 9);
    assert!(out.switches > 0, "workers must actually interleave");
}

#[test]
fn execution_is_deterministic() {
    let run = || {
        let mut m = Machine::new(locked_adders(4));
        let mut rec = RecordingTool::new();
        m.run_with(&mut rec).unwrap();
        rec.into_trace()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    assert_eq!(a, b);
}

#[test]
fn quantum_controls_interleaving() {
    let switches = |quantum| {
        let mut m = Machine::new(locked_adders(4))
            .with_config(MachineConfig { quantum, ..MachineConfig::default() });
        m.run_native().unwrap().switches
    };
    assert!(
        switches(1) > switches(1024),
        "a smaller quantum must cause more thread switches"
    );
}

#[test]
fn deadlock_is_detected() {
    // Two threads acquire two locks in opposite order, with yields to force
    // the interleaving that deadlocks.
    let src = r#"
func main() {
e:
    r0 = const 1
    r1 = const 2
    r2 = spawn ab(r0, r1)
    r3 = spawn ab(r1, r0)
    join r2
    join r3
    ret
}
func ab(2) {
e:
    acquire r0
    yield
    acquire r1
    release r1
    release r0
    ret
}
"#;
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { quantum: 1, ..MachineConfig::default() });
    match m.run_native() {
        Err(VmError::Deadlock { blocked }) => assert!(blocked.len() >= 2),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn release_without_hold_is_an_error() {
    let src = "func main() {\ne:\n r0 = const 7\n release r0\n ret\n}";
    let mut m = Machine::new(asm::parse(src).unwrap());
    assert!(matches!(m.run_native(), Err(VmError::LockNotHeld { lock: 7, .. })));
}

#[test]
fn bad_fd_is_an_error() {
    let src = "func main() {\ne:\n r0 = const 9\n r1 = sys_read r0, r0, r0\n ret\n}";
    let mut m = Machine::new(asm::parse(src).unwrap());
    assert!(matches!(m.run_native(), Err(VmError::BadFileDescriptor { fd: 9, .. })));
}

#[test]
fn bad_join_handle_is_an_error() {
    let src = "func main() {\ne:\n r0 = const 99\n join r0\n ret\n}";
    let mut m = Machine::new(asm::parse(src).unwrap());
    assert!(matches!(m.run_native(), Err(VmError::BadThreadHandle { handle: 99, .. })));
}

#[test]
fn block_budget_aborts_runaway_loops() {
    let src = "func main() {\nloop:\n jmp loop\n}";
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { max_blocks: 1000, ..MachineConfig::default() });
    assert!(matches!(m.run_native(), Err(VmError::BlockBudgetExceeded { limit: 1000 })));
}

#[test]
fn instruction_budget_aborts_runaway_loops() {
    // A pure-jump loop executes no `Instr`s at all: the budget must charge
    // terminators too, or this would spin forever.
    let src = "func main() {\nloop:\n jmp loop\n}";
    let limits = ResourceLimits { max_instructions: 500, ..ResourceLimits::default() };
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { limits, ..MachineConfig::default() });
    assert!(matches!(
        m.run_native(),
        Err(VmError::ResourceExhausted { resource: ResourceKind::Instructions, limit: 500 })
    ));
}

#[test]
fn instruction_watchdog_traps_gracefully_with_partial_totals() {
    let src = "func main() {\nloop:\n r0 = const 1\n jmp loop\n}";
    let mut m = Machine::new(asm::parse(src).unwrap()).with_config(MachineConfig {
        limits: ResourceLimits::instruction_watchdog(1000),
        ..MachineConfig::default()
    });
    let outcome = m.run_native().expect("trap mode must not error");
    let trap = outcome.trap.expect("budget must have tripped");
    assert_eq!(trap.resource, ResourceKind::Instructions);
    assert_eq!(trap.limit, 1000);
    // The partial run still carries its totals up to the trap.
    assert!(outcome.total_blocks > 0);
    assert!(outcome.total_blocks <= 1001);
    assert_eq!(outcome.exit_value, None);
}

#[test]
fn graceful_trap_is_deterministic() {
    let run = || {
        let mut m = Machine::new(locked_adders(4)).with_config(MachineConfig {
            limits: ResourceLimits::instruction_watchdog(30),
            ..MachineConfig::default()
        });
        m.run_native().unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "trapped runs must stop at the identical point");
    assert!(a.trap.is_some());
}

#[test]
fn trapped_multithreaded_run_is_not_misreported_as_deadlock() {
    // Workers block on the lock when the budget trips; without the trap
    // carve-out the scheduler would call that a deadlock.
    let mut m = Machine::new(locked_adders(8)).with_config(MachineConfig {
        quantum: 1,
        limits: ResourceLimits::instruction_watchdog(60),
        ..MachineConfig::default()
    });
    let outcome = m.run_native().expect("trap, not deadlock");
    assert!(outcome.trap.is_some());
}

#[test]
fn alloc_budget_stops_allocation_storms() {
    let src = r#"
func main() {
loop:
    r0 = const 4096
    r1 = alloc r0
    jmp loop
}
"#;
    let limits = ResourceLimits { max_alloc_cells: 1 << 20, ..ResourceLimits::default() };
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { limits, ..MachineConfig::default() });
    assert!(matches!(
        m.run_native(),
        Err(VmError::ResourceExhausted { resource: ResourceKind::AllocCells, .. })
    ));

    // Same storm under trap mode: a graceful partial outcome.
    let limits =
        ResourceLimits { max_alloc_cells: 1 << 20, trap: true, ..ResourceLimits::default() };
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { limits, ..MachineConfig::default() });
    let outcome = m.run_native().unwrap();
    assert_eq!(outcome.trap.unwrap().resource, ResourceKind::AllocCells);
}

#[test]
fn unlimited_runs_report_no_trap() {
    let mut m = Machine::new(locked_adders(4));
    let outcome = m.run_native().unwrap();
    assert_eq!(outcome.trap, None);
    assert_eq!(outcome.exit_value, Some(1 + 2 + 3));
}

/// Strict mode, per simple opcode: the instruction budget is charged first,
/// then the source registers are checked in `Instr::uses_into` order (a
/// store's address before its value), so a read of a register never written
/// fails with `UseBeforeDef` naming it — unless the charge trapped first.
#[test]
fn strict_mode_checks_every_simple_op() {
    enum Expect {
        UseBeforeDef(u16),
        BudgetTrap,
    }
    use Expect::*;
    let free = u64::MAX; // no instruction budget
    let cases = [
        ("mov", "r1 = mov r0", free, UseBeforeDef(0)),
        ("bin", "r2 = const 1\n r3 = sub r2, r1", free, UseBeforeDef(1)),
        ("cmp", "r2 = const 1\n r3 = clt r1, r2", free, UseBeforeDef(1)),
        ("load", "r1 = load r0, 0", free, UseBeforeDef(0)),
        ("store value", "r2 = const 4\n r0 = alloc r2\n store r1, r0, 0", free, UseBeforeDef(1)),
        ("store address", "r2 = const 4\n store r2, r0, 0", free, UseBeforeDef(0)),
        ("store both", "store r1, r0, 0", free, UseBeforeDef(0)),
        ("budget first", "r2 = const 1\n r3 = add r2, r1", 1, BudgetTrap),
    ];
    for (name, body, max_instructions, expect) in cases {
        let src = format!("func main() regs=4 {{\nbb0:\n {body}\n ret\n}}");
        let limits = ResourceLimits { max_instructions, trap: true, ..ResourceLimits::default() };
        let cfg = MachineConfig { strict_regs: true, limits, ..MachineConfig::default() };
        let mut m = Machine::new(asm::parse(&src).unwrap()).with_config(cfg);
        match (m.run_native(), expect) {
            (Err(VmError::UseBeforeDef { thread, func, reg }), UseBeforeDef(r)) => {
                assert_eq!((thread, func, reg), (ThreadId::MAIN, FuncId(0), Reg(r)), "{name}");
            }
            (Ok(outcome), BudgetTrap) => {
                let trap = outcome.trap.unwrap_or_else(|| panic!("{name}: no trap"));
                assert_eq!(trap, ResourceTrap { resource: ResourceKind::Instructions, limit: 1 });
            }
            (got, _) => panic!("{name}: unexpected {got:?}"),
        }
    }
}

#[test]
fn sys_read_moves_device_data_into_memory() {
    let src = r#"
func main() {
e:
    r0 = const 0      # fd
    r1 = const 4      # len
    r2 = alloc r1
    r3 = sys_read r0, r2, r1
    r4 = load r2, 0
    r5 = load r2, 3
    r6 = add r4, r5
    ret r6
}
"#;
    let mut m = Machine::new(asm::parse(src).unwrap());
    m.add_device(Box::new(FileDevice::new(vec![10, 20, 30, 40])));
    let out = m.run_native().unwrap();
    assert_eq!(out.exit_value, Some(50));
}

#[test]
fn sys_read_stops_at_eof() {
    let src = r#"
func main() {
e:
    r0 = const 0
    r1 = const 10
    r2 = alloc r1
    r3 = sys_read r0, r2, r1
    ret r3
}
"#;
    let mut m = Machine::new(asm::parse(src).unwrap());
    m.add_device(Box::new(FileDevice::new(vec![1, 2, 3])));
    assert_eq!(m.run_native().unwrap().exit_value, Some(3));
}

#[test]
fn sys_write_pushes_memory_to_device() {
    let src = r#"
func main() {
e:
    r0 = const 0
    r1 = const 3
    r2 = alloc r1
    r3 = const 7
    store r3, r2, 0
    store r3, r2, 1
    store r3, r2, 2
    r4 = sys_write r0, r2, r1
    ret r4
}
"#;
    let mut m = Machine::new(asm::parse(src).unwrap());
    let fd = m.add_device(Box::new(SinkDevice::new()));
    let out = m.run_native().unwrap();
    assert_eq!(out.exit_value, Some(3));
    assert_eq!(m.devices().get(fd).unwrap().cells_written(), 3);
}

#[test]
fn kernel_events_are_delivered() {
    let src = r#"
func main() {
e:
    r0 = const 0
    r1 = const 2
    r2 = alloc r1
    r3 = sys_read r0, r2, r1
    r4 = sys_write r0, r2, r1
    ret
}
"#;
    let mut m = Machine::new(asm::parse(src).unwrap());
    m.add_device(Box::new(FileDevice::new(vec![5, 6])));
    let mut rec = RecordingTool::new();
    m.run_with(&mut rec).unwrap();
    let stats_of = |kind: EventKind| {
        rec.trace().iter().filter(|e| e.event.kind() == kind).count()
    };
    assert_eq!(stats_of(EventKind::KernelWrite), 2, "sys_read fills two cells");
    assert_eq!(stats_of(EventKind::KernelRead), 2, "sys_write drains two cells");
}

#[test]
fn call_and_return_events_balance() {
    let p = locked_adders(3);
    let mut m = Machine::new(p);
    let mut rec = RecordingTool::new();
    m.run_with(&mut rec).unwrap();
    let calls = rec.trace().iter().filter(|e| e.event.kind() == EventKind::Call).count();
    let rets = rec.trace().iter().filter(|e| e.event.kind() == EventKind::Return).count();
    assert_eq!(calls, rets, "every activation completes");
    assert!(calls >= 4, "main + 3 workers at minimum");
}

#[test]
fn basic_block_costs_match_outcome() {
    let mut m = Machine::new(locked_adders(2));
    struct BbCounter(u64);
    impl Tool for BbCounter {
        fn name(&self) -> &'static str {
            "bb-counter"
        }
        fn basic_block(&mut self, _t: aprof_trace::ThreadId, cost: u64) {
            self.0 += cost;
        }
    }
    let mut counter = BbCounter(0);
    let out = m.run_with(&mut counter).unwrap();
    assert_eq!(counter.0, out.total_blocks);
    let per_thread: u64 = out.threads.iter().map(|t| t.blocks).sum();
    assert_eq!(per_thread, out.total_blocks);
}

#[test]
fn native_and_instrumented_agree() {
    let run_native = {
        let mut m = Machine::new(locked_adders(5));
        m.run_native().unwrap()
    };
    let run_instr = {
        let mut m = Machine::new(locked_adders(5));
        let mut rec = RecordingTool::new();
        m.run_with(&mut rec).unwrap()
    };
    assert_eq!(run_native, run_instr, "instrumentation must not perturb execution");
}

/// The semaphore-based producer/consumer of the paper's Fig. 2, as a guest
/// program: produce n values through a single shared cell.
#[test]
fn semaphore_producer_consumer() {
    let src = r#"
func main() {
e:
    r0 = const 100    # empty sem key
    r1 = const 101    # full sem key
    r9 = const 1
    sem_init r0, r9   # empty = 1
    r8 = const 0
    sem_init r1, r8   # full = 0
    r2 = alloc r9     # shared cell x
    r3 = const 12     # n items
    r4 = spawn producer(r2, r3)
    r5 = spawn consumer(r2, r3)
    join r4
    join r5
    ret r3
}
func producer(2) {
e:
    r2 = const 0      # i
    jmp head
head:
    r3 = clt r2, r1
    br r3, body, exit
body:
    r4 = const 100
    sem_wait r4
    store r2, r0, 0   # produceData: write x
    r4 = const 101
    sem_post r4
    r5 = const 1
    r2 = add r2, r5
    jmp head
exit:
    ret
}
func consumer(2) {
e:
    r2 = const 0
    r6 = const 0      # acc
    jmp head
head:
    r3 = clt r2, r1
    br r3, body, exit
body:
    r4 = const 101
    sem_wait r4
    r5 = load r0, 0   # consumeData: read x
    r6 = add r6, r5
    r4 = const 100
    sem_post r4
    r7 = const 1
    r2 = add r2, r7
    jmp head
exit:
    ret r6
}
"#;
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { quantum: 3, ..MachineConfig::default() });
    let out = m.run_native().unwrap();
    assert_eq!(out.exit_value, Some(12));
    // The consumer thread accumulated 0+1+...+11.
    assert_eq!(out.threads[2].result, Some((0..12).sum::<i64>()));
}

/// Fairness: with a 1-block quantum, every runnable thread makes progress —
/// no thread is starved while others run (round-robin guarantee).
#[test]
fn scheduler_is_fair_round_robin() {
    // Three independent spinners, no synchronization at all.
    let src = r#"
func main() {
e:
    r9 = const 400
    r0 = spawn spin(r9)
    r1 = spawn spin(r9)
    r2 = spawn spin(r9)
    join r0
    join r1
    join r2
    ret
}
func spin(1) {
e:
    r1 = const 0
    jmp head
head:
    r2 = clt r1, r0
    br r2, body, out
body:
    r3 = const 1
    r1 = add r1, r3
    jmp head
out:
    ret
}
"#;
    struct Progress {
        seen: Vec<u64>,
        max_gap: u64,
        counter: u64,
        last: std::collections::HashMap<u32, u64>,
    }
    impl Tool for Progress {
        fn name(&self) -> &'static str {
            "progress"
        }
        fn basic_block(&mut self, t: aprof_trace::ThreadId, _cost: u64) {
            self.counter += 1;
            let idx = t.index() as u32;
            if (1..=3).contains(&idx) {
                if let Some(&prev) = self.last.get(&idx) {
                    self.max_gap = self.max_gap.max(self.counter - prev);
                }
                self.last.insert(idx, self.counter);
            }
            if (idx as usize) >= self.seen.len() {
                self.seen.resize(idx as usize + 1, 0);
            }
            self.seen[idx as usize] += 1;
        }
    }
    let mut m = Machine::new(asm::parse(src).unwrap())
        .with_config(MachineConfig { quantum: 1, ..MachineConfig::default() });
    let mut p = Progress {
        seen: Vec::new(),
        max_gap: 0,
        counter: 0,
        last: std::collections::HashMap::new(),
    };
    m.run_with(&mut p).unwrap();
    // All three spinners executed the same number of blocks.
    assert_eq!(p.seen[1], p.seen[2]);
    assert_eq!(p.seen[2], p.seen[3]);
    // While all three were live, no spinner waited more than ~one full
    // rotation of the run queue (4 threads x 1-block quantum + slack).
    assert!(p.max_gap <= 16, "a thread was starved: gap {}", p.max_gap);
}

#[test]
fn recording_run_replays_to_an_identical_profile() {
    use aprof_core::TrmsProfiler;
    use aprof_wire::{WireOptions, WireReader, WireWriter};

    let program = locked_adders(4);
    let names = program.routines().clone();

    // Live run, capturing the event stream to a wire trace on the side.
    let mut live = TrmsProfiler::new();
    let mut writer = WireWriter::create(
        Vec::new(),
        &names,
        WireOptions { chunk_bytes: 64, ..Default::default() },
    )
    .unwrap();
    let outcome = Machine::new(program.clone())
        .run_recording(&mut live, &mut writer)
        .unwrap();
    let (bytes, summary) = writer.finish().unwrap();
    assert!(summary.events > 0);
    assert!(summary.chunks > 1, "expected multiple chunks, got {}", summary.chunks);

    // The capture is a bystander: the live run matches an unrecorded run.
    let mut unrecorded = TrmsProfiler::new();
    let plain_outcome = Machine::new(program).run_with(&mut unrecorded).unwrap();
    assert_eq!(outcome, plain_outcome);
    assert_eq!(
        live.into_report(&names),
        unrecorded.into_report(&names),
        "recording must not perturb the live profile"
    );

    // Replaying the wire trace yields the identical profile. The embedded
    // routine table stands in for the program's.
    let mut reader = WireReader::new(&bytes[..]).unwrap();
    assert_eq!(reader.routines().len(), names.len());
    let mut replayed = TrmsProfiler::new();
    aprof_trace::replay(&mut replayed, &mut reader).unwrap();
    let mut live2 = TrmsProfiler::new();
    let mut m = Machine::new(locked_adders(4));
    m.run_with(&mut live2).unwrap();
    assert_eq!(replayed.into_report(&names), live2.into_report(&names));
}

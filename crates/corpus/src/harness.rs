//! The fuzzing harness: parallel case execution, shrinking, reporting.
//!
//! [`run_fuzz`] sweeps `cases` seeds derived from one base seed, runs every
//! generated program through the five [`oracle`](crate::oracle)s (optionally
//! on several worker threads), shrinks any failure to a (locally) minimal
//! CFG via the vendored proptest's
//! [`proptest::shrink::shrink_to_minimal`], and renders a
//! deterministic report.
//!
//! **Jobs invariance.** Workers claim case *indices* from a shared counter
//! and deposit results into an index-addressed slot table; rendering and
//! digest folding then walk the slots in index order. The report and the
//! digest are therefore byte-identical for any worker count — the property
//! `aprof-cli fuzz --jobs` is tested against in CI.
//!
//! With [`FuzzConfig::faults`] set, every case additionally runs a
//! crash-safety differential: its wire capture is torn at seeded offsets,
//! salvaged with [`aprof_wire::recover`], and the salvage is required to be
//! an exact event prefix of the original capture that replays identically —
//! plus one run under a seeded instruction budget (a graceful trap mid-run)
//! whose sealed capture must still round-trip strictly.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use aprof_core::{InputPolicy, TrmsProfiler};
use aprof_faults::{FaultConfig, FaultPlan};
use aprof_trace::{Event, RecordingTool, ThreadId, Trace};
use aprof_vm::asm;
use aprof_vm::ResourceLimits;
use aprof_wire::{recover, FlushPolicy, WireOptions, WireReader, WireWriter};
use proptest::shrink::shrink_to_minimal;
use proptest::TestRng;

use crate::gen::{CaseSpec, GenConfig};
use crate::oracle::{run_case_mutated, CaseReport, Mutation};

/// Cuts at or below this offset may tear the wire *header*, for which
/// [`recover`] documents a typed error instead of a salvage; the generated
/// routine tables (`main`, `h1`…) keep real headers well under this bound.
const HEADER_CUT_BOUND: usize = 64;

/// Torn-capture cut points tried per case in `--faults` mode.
const FAULT_CUTS: usize = 4;

/// Everything [`run_fuzz`] needs to know.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Base seed; case `i` uses a splitmix-derived seed.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    /// Generator profile.
    pub profile: GenConfig,
    /// Also run the crash/recover differential per case.
    pub faults: bool,
    /// Plant a profiler bug (mutation testing; see [`Mutation`]).
    pub mutation: Option<Mutation>,
    /// Shrink budget: candidates *tested* per failing case.
    pub shrink_steps: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 256,
            jobs: 0,
            profile: GenConfig::mixed(),
            faults: false,
            mutation: None,
            shrink_steps: 4000,
        }
    }
}

/// One failing case, already shrunk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Case index within the sweep.
    pub index: u64,
    /// The derived per-case seed.
    pub case_seed: u64,
    /// The original failure, as reported by the oracle.
    pub failure: String,
    /// The failure the minimal case reproduces (same oracle class unless
    /// shrinking crossed into a different, equally real, failure).
    pub minimal_failure: String,
    /// The minimal failing spec.
    pub minimal: CaseSpec,
    /// Basic blocks of the minimal CFG.
    pub minimal_blocks: usize,
    /// The minimal program, printed as guest assembly.
    pub minimal_asm: String,
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Cases run.
    pub cases: u64,
    /// Failures, in case-index order (empty = all oracles agreed).
    pub failures: Vec<FuzzFailure>,
    /// Events observed across all passing cases.
    pub events: u64,
    /// Order-sensitive digest over every case (jobs-invariant).
    pub digest: u64,
    /// The rendered, jobs-invariant report.
    pub report: String,
}

/// splitmix64: derives the per-case seed from (base, index).
fn case_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result slot for one case. The failure side is boxed: it carries the
/// shrunk spec and its printed assembly, far bigger than a clean report.
type Slot = Result<CaseReport, Box<FuzzFailure>>;

fn run_one(cfg: &FuzzConfig, index: u64) -> Slot {
    let seed = case_seed(cfg.seed, index);
    let spec = CaseSpec::generate(seed, &cfg.profile);
    let outcome = run_case_mutated(&spec, cfg.mutation)
        .map_err(|f| f.to_string())
        .and_then(|report| {
            if cfg.faults {
                crash_recovery_round(&spec, seed).map(|()| report)
            } else {
                Ok(report)
            }
        });
    match outcome {
        Ok(report) => Ok(report),
        Err(failure) => {
            // Shrink: keep any candidate that still fails the same pipeline.
            let mutation = cfg.mutation;
            let faults = cfg.faults;
            let still_fails = |cand: &CaseSpec| {
                run_case_mutated(cand, mutation).is_err()
                    || (faults && crash_recovery_round(cand, seed).is_err())
            };
            let minimal = shrink_to_minimal(spec, cfg.shrink_steps, still_fails);
            let minimal_failure = run_case_mutated(&minimal, mutation)
                .err()
                .map(|f| f.to_string())
                .or_else(|| {
                    faults.then(|| crash_recovery_round(&minimal, seed).err()).flatten()
                })
                .unwrap_or_else(|| "failure no longer reproduces (flaky oracle?)".into());
            Err(Box::new(FuzzFailure {
                index,
                case_seed: seed,
                failure,
                minimal_failure,
                minimal_blocks: minimal.block_count(),
                minimal_asm: asm::print(&minimal.program()),
                minimal,
            }))
        }
    }
}

/// The crash-safety differential for one case (see module docs): torn
/// captures must salvage to an exact, identically-replaying event prefix,
/// and a budget-trapped partial run must still round-trip strictly.
///
/// # Errors
///
/// Returns a description of the first violated crash-safety property.
pub fn crash_recovery_round(spec: &CaseSpec, salt: u64) -> Result<(), String> {
    let program = spec.program();
    // Small chunks so even short captures span several chunk boundaries.
    let options = WireOptions { chunk_bytes: 256, flush: FlushPolicy::OnFinish };

    let mut machine = spec.build();
    let mut rec = RecordingTool::new();
    let mut writer = WireWriter::create(Vec::new(), program.routines(), options)
        .map_err(|e| format!("crash-recovery: writer create failed: {e}"))?;
    machine
        .run_recording(&mut rec, &mut writer)
        .map_err(|e| format!("crash-recovery: reference run faulted: {e}"))?;
    let (bytes, _) = writer
        .finish()
        .map_err(|e| format!("crash-recovery: finish failed: {e}"))?;
    let events = rec.into_trace();
    let direct: Vec<(ThreadId, Event)> = events.iter().map(|te| (te.thread, te.event)).collect();

    // --- Torn-capture salvage: kill the file at seeded offsets. ---
    let mut rng = TestRng::from_seed(salt ^ 0xFA_17);
    for _ in 0..FAULT_CUTS {
        let cut = 1 + rng.below(bytes.len() as u64) as usize;
        let torn = &bytes[..cut];
        let mut salvaged = Vec::new();
        match recover(Cursor::new(torn), &mut salvaged) {
            Err(e) if cut <= HEADER_CUT_BOUND => {
                // Header cuts yield a typed error by contract.
                let _ = e;
                continue;
            }
            Err(e) => {
                return Err(format!(
                    "crash-recovery: recover failed on a body cut at {cut}/{}: {e}",
                    bytes.len()
                ));
            }
            Ok(summary) => {
                let prefix = read_strict(&salvaged).map_err(|e| {
                    format!("crash-recovery: strict read of salvage (cut {cut}) failed: {e}")
                })?;
                if prefix.len() as u64 != summary.events {
                    return Err(format!(
                        "crash-recovery: salvage summary says {} events, file has {}",
                        summary.events,
                        prefix.len()
                    ));
                }
                if prefix.len() > direct.len() || prefix[..] != direct[..prefix.len()] {
                    return Err(format!(
                        "crash-recovery: salvage (cut {cut}) is not a prefix of the capture \
                         ({} vs {} events)",
                        prefix.len(),
                        direct.len()
                    ));
                }
                // The salvaged prefix must replay exactly like the same
                // prefix of the direct capture.
                let a = trms_fingerprint(&prefix);
                let b = trms_fingerprint(&direct[..prefix.len()]);
                if a != b {
                    return Err(format!(
                        "crash-recovery: salvaged prefix (cut {cut}, {} events) replays \
                         differently from the direct prefix",
                        prefix.len()
                    ));
                }
            }
        }
    }

    // --- Graceful-trap partial capture: a seeded instruction budget stops
    // the guest mid-run; the sealed capture must still round-trip. ---
    let plan = FaultPlan::new(FaultConfig {
        seed: salt,
        budget_per_mille: 1000,
        vm_instruction_budget: 1 + rng.below(4000),
        ..FaultConfig::off(salt)
    });
    let budget = plan.vm_budget(0).expect("budget_per_mille=1000 always injects");
    let machine = spec.build();
    let mut config = machine.config();
    config.limits = ResourceLimits::instruction_watchdog(budget);
    let mut machine = machine.with_config(config);
    let mut rec = RecordingTool::new();
    let mut writer = WireWriter::create(Vec::new(), program.routines(), options)
        .map_err(|e| format!("crash-recovery: trap writer create failed: {e}"))?;
    machine
        .run_recording(&mut rec, &mut writer)
        .map_err(|e| format!("crash-recovery: budgeted run errored instead of trapping: {e}"))?;
    let (bytes, _) = writer
        .finish()
        .map_err(|e| format!("crash-recovery: trap finish failed: {e}"))?;
    let partial: Vec<(ThreadId, Event)> =
        rec.into_trace().iter().map(|te| (te.thread, te.event)).collect();
    let decoded = read_strict(&bytes)
        .map_err(|e| format!("crash-recovery: strict read of trap capture failed: {e}"))?;
    if decoded != partial {
        return Err(format!(
            "crash-recovery: trap capture round-trip diverges ({} vs {} events)",
            decoded.len(),
            partial.len()
        ));
    }
    Ok(())
}

fn read_strict(bytes: &[u8]) -> Result<Vec<(ThreadId, Event)>, String> {
    let reader = WireReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?.strict();
    let mut out = Vec::new();
    for item in reader {
        out.push(item.map_err(|e| e.to_string())?);
    }
    Ok(out)
}

/// Profile fingerprint of an event stream (activation log of the trms
/// engine under the full policy).
fn trms_fingerprint(events: &[(ThreadId, Event)]) -> Vec<(ThreadId, u64, u64, u64)> {
    let mut p = TrmsProfiler::builder().policy(InputPolicy::full()).log_activations(true).build();
    events.iter().copied().collect::<Trace>().replay(&mut p);
    p.activations().iter().map(|r| (r.thread, r.trms, r.rms, r.cost)).collect()
}

#[allow(clippy::cast_possible_truncation)]
fn fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for &b in &v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs the sweep. See the module docs for the jobs-invariance contract.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let jobs = if cfg.jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.jobs
    }
    .min(cfg.cases.max(1) as usize)
    .max(1);

    let mut slots: Vec<Option<Slot>> = Vec::new();
    slots.resize_with(cfg.cases as usize, || None);
    let slots = Mutex::new(slots);
    let next = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= cfg.cases {
                    break;
                }
                let slot = run_one(cfg, index);
                slots.lock().expect("no worker panics while holding the lock")[index as usize] =
                    Some(slot);
            });
        }
    });

    let slots = slots.into_inner().expect("workers joined");
    let mut failures = Vec::new();
    let mut events = 0u64;
    let mut wire_bytes = 0u64;
    let mut activations = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (index, slot) in slots.into_iter().enumerate() {
        let slot = slot.expect("every index below cases was claimed");
        match slot {
            Ok(report) => {
                events += report.events;
                wire_bytes += report.wire_bytes;
                activations += report.activations as u64;
                digest = fold(digest, report.digest);
            }
            Err(f) => {
                digest = fold(digest, 0xDEAD ^ f.case_seed ^ index as u64);
                failures.push(*f);
            }
        }
    }

    let mut report = String::new();
    report.push_str(&format!(
        "corpus: seed={} cases={} profile-threads<={} faults={}{}\n",
        cfg.seed,
        cfg.cases,
        cfg.profile.max_threads,
        cfg.faults,
        match cfg.mutation {
            Some(m) => format!(" mutation={m:?}"),
            None => String::new(),
        },
    ));
    report.push_str(&format!(
        "observed: {events} events, {activations} activations, {wire_bytes} wire bytes\n"
    ));
    for f in &failures {
        report.push_str(&format!(
            "FAIL case {} (seed {:#x}): {}\n  shrunk to {} blocks ({}): {}\n{}\n",
            f.index,
            f.case_seed,
            f.failure,
            f.minimal_blocks,
            f.minimal.summary(),
            f.minimal_failure,
            indent(&f.minimal_asm),
        ));
    }
    report.push_str(&format!(
        "result: {}/{} cases passed, digest {digest:016x}\n",
        cfg.cases - failures.len() as u64,
        cfg.cases,
    ));

    FuzzOutcome { cases: cfg.cases, failures, events, digest, report }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_passes_and_is_jobs_invariant() {
        let base = FuzzConfig { seed: 9, cases: 12, ..FuzzConfig::default() };
        let one = run_fuzz(&FuzzConfig { jobs: 1, ..base });
        assert!(one.failures.is_empty(), "{}", one.report);
        for jobs in [2, 4, 7] {
            let n = run_fuzz(&FuzzConfig { jobs, ..base });
            assert_eq!(n.report, one.report, "jobs={jobs} changed the report");
            assert_eq!(n.digest, one.digest, "jobs={jobs} changed the digest");
        }
    }

    #[test]
    fn case_seeds_are_spread() {
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|i| case_seed(1, i)).collect();
        assert_eq!(seeds.len(), 64, "derived seeds must not collide");
    }

    #[test]
    fn planted_bug_is_caught_and_shrunk() {
        let cfg = FuzzConfig {
            seed: 1,
            cases: 8,
            jobs: 2,
            profile: GenConfig::kernel(),
            mutation: Some(Mutation::DropKernelInput),
            ..FuzzConfig::default()
        };
        let outcome = run_fuzz(&cfg);
        assert!(!outcome.failures.is_empty(), "planted bug missed:\n{}", outcome.report);
        let best = outcome.failures.iter().map(|f| f.minimal_blocks).min().unwrap();
        assert!(best < 20, "expected a <20-block minimal CFG, got {best}:\n{}", outcome.report);
    }

    #[test]
    fn crash_recovery_round_passes_on_clean_cases() {
        for seed in 0..6 {
            let spec = CaseSpec::generate(case_seed(3, seed), &GenConfig::mixed());
            crash_recovery_round(&spec, seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

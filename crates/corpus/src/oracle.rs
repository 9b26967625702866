//! The differential oracles: five independent ways of checking one case.
//!
//! Every generated program is executed **once** (recording both the event
//! stream and its wire encoding from the same deterministic run) and the
//! observation is then cross-checked five ways:
//!
//! | oracle | under test            | reference                         |
//! |--------|-----------------------|-----------------------------------|
//! | A      | trms/rms profilers    | naive set-based re-execution      |
//! | B      | batched replay        | sequential replay                 |
//! | C      | wire round-trip       | directly captured event stream    |
//! | D      | dynamic VM faults     | aprof-check static verdicts       |
//! | E      | aprof-bound bounds    | growth fitted to the real profile |
//!
//! [`run_case`] passes only when all five agree. [`run_case_mutated`]
//! additionally corrupts the stream *seen by the profiler under test* (never
//! the one seen by the reference) — the mutation-testing hook that proves
//! the harness actually detects planted profiler bugs. Oracle E always
//! judges the *true* profile: a statically inferred bound must never sit
//! strictly below the growth the execution actually exhibited.

use std::io::Cursor;

use aprof_check::check_program;
use aprof_core::{InputPolicy, NaiveProfiler, RmsProfiler, TrmsProfiler};
use aprof_trace::{replay, Event, EventKind, RecordingTool, RoutineId, ThreadId, TimedEvent, Tool, Trace};
use aprof_wire::{WireOptions, WireReader, WireWriter};

use crate::gen::CaseSpec;

/// Which oracle rejected a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// A: trms/rms engine vs the naive set-based profiler.
    NaiveVsEngine,
    /// B: batched replay vs sequential replay.
    Batching,
    /// C: wire round-trip vs direct capture.
    Wire,
    /// D: aprof-check static verdicts vs dynamic VM behaviour.
    StaticVsDynamic,
    /// E: aprof-bound static cost bounds vs dynamically fitted growth.
    BoundVsFit,
}

impl Oracle {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::NaiveVsEngine => "naive-vs-engine",
            Oracle::Batching => "batched-vs-sequential",
            Oracle::Wire => "wire-roundtrip",
            Oracle::StaticVsDynamic => "static-vs-dynamic",
            Oracle::BoundVsFit => "bound-vs-fit",
        }
    }
}

/// A rejected case: the oracle that fired plus a human-readable reason.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The oracle that rejected the case.
    pub oracle: Oracle,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oracle {} failed: {}", self.oracle.name(), self.detail)
    }
}

/// Per-case observation summary (all five oracles passed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseReport {
    /// Events the run produced.
    pub events: u64,
    /// Bytes of the wire encoding.
    pub wire_bytes: u64,
    /// Activations the profilers observed.
    pub activations: usize,
    /// Order-sensitive digest of the event stream and profile (the
    /// cross-`--jobs` determinism witness).
    pub digest: u64,
}

/// A deliberately planted profiler bug: a corruption of the event stream
/// delivered to the profiler under test (oracles A and B) while the naive
/// reference sees the true stream. Used by mutation tests to prove the
/// harness detects real bugs; [`run_case`] never applies one.
///
/// Every mutation preserves call/return well-formedness, so the corrupted
/// stream is still *structurally* valid — only its profile is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop every kernel-write event (external input vanishes from trms).
    DropKernelInput,
    /// Drop every `n`-th plain read event (rms undercounts).
    DropEveryNthRead(u64),
    /// Double the cost of every `n`-th basic-block event.
    ScaleNthCost(u64),
}

impl Mutation {
    /// Applies the corruption to a copy of the stream.
    fn corrupt(self, events: &[TimedEvent]) -> Vec<TimedEvent> {
        let mut reads = 0u64;
        let mut blocks = 0u64;
        let mut out = Vec::with_capacity(events.len());
        for te in events {
            match (self, te.event) {
                (Mutation::DropKernelInput, Event::KernelWrite { .. }) => continue,
                (Mutation::DropEveryNthRead(n), Event::Read { .. }) => {
                    reads += 1;
                    if n > 0 && reads.is_multiple_of(n) {
                        continue;
                    }
                    out.push(*te);
                }
                (Mutation::ScaleNthCost(n), Event::BasicBlock { cost }) => {
                    blocks += 1;
                    if n > 0 && blocks.is_multiple_of(n) {
                        out.push(TimedEvent { event: Event::BasicBlock { cost: cost * 2 }, ..*te });
                    } else {
                        out.push(*te);
                    }
                }
                _ => out.push(*te),
            }
        }
        out
    }
}

/// One activation as compared across profilers.
type Activation = (ThreadId, RoutineId, u64, u64, u64);

fn replay_into<T: Tool>(tool: &mut T, events: &[TimedEvent]) {
    let trace: Trace = events.iter().map(|te| (te.thread, te.event)).collect();
    trace.replay(tool);
}

fn engine_activations(events: &[TimedEvent]) -> Vec<Activation> {
    let mut p = TrmsProfiler::builder().policy(InputPolicy::full()).log_activations(true).build();
    replay_into(&mut p, events);
    p.activations().iter().map(|r| (r.thread, r.routine, r.trms, r.rms, r.cost)).collect()
}

fn naive_activations(events: &[TimedEvent]) -> Vec<Activation> {
    let mut p = NaiveProfiler::with_policy(InputPolicy::full());
    replay_into(&mut p, events);
    p.activations().iter().map(|r| (r.thread, r.routine, r.trms, r.rms, r.cost)).collect()
}

/// Compares two activation logs, describing the first divergence.
fn diff_activations(kind: &str, got: &[Activation], want: &[Activation]) -> Option<String> {
    if got == want {
        return None;
    }
    if got.len() != want.len() {
        return Some(format!("{kind}: {} activations vs {} expected", got.len(), want.len()));
    }
    let (i, (g, w)) =
        got.iter().zip(want).enumerate().find(|(_, (g, w))| g != w).expect("lengths equal");
    Some(format!("{kind}: activation {i} diverges: got {g:?}, want {w:?}"))
}

/// Order-sensitive FNV-1a fold over the stream and the profile.
fn fold_digest(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn digest_case(events: &[TimedEvent], activations: &[Activation]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for te in events {
        h = fold_digest(h, &(te.thread.index() as u64).to_le_bytes());
        h = fold_digest(h, format!("{:?}", te.event).as_bytes());
    }
    for a in activations {
        h = fold_digest(h, format!("{a:?}").as_bytes());
    }
    h
}

/// Runs one case through all four oracles (no mutation).
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered.
pub fn run_case(spec: &CaseSpec) -> Result<CaseReport, OracleFailure> {
    run_case_mutated(spec, None)
}

/// Runs one case, optionally corrupting the stream the profiler under test
/// sees (mutation testing). See [`Mutation`].
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered; with a mutation planted
/// this is the *expected* outcome.
pub fn run_case_mutated(
    spec: &CaseSpec,
    mutation: Option<Mutation>,
) -> Result<CaseReport, OracleFailure> {
    // --- One deterministic execution, recorded twice (events + wire). ---
    let program = spec.program();

    // Oracle D, static half: generated programs are clean by construction,
    // so the verifier must admit them.
    let verdict = check_program(&program);
    if verdict.has_errors() {
        let codes: Vec<String> =
            verdict.diagnostics.iter().map(|d| d.render(&verdict.names)).collect();
        return Err(OracleFailure {
            oracle: Oracle::StaticVsDynamic,
            detail: format!("verifier rejected a generated program: {}", codes.join("; ")),
        });
    }

    let mut machine = spec.build();
    let mut rec = RecordingTool::new();
    let mut writer = WireWriter::create(Vec::new(), program.routines(), WireOptions::default())
        .map_err(|e| OracleFailure {
            oracle: Oracle::Wire,
            detail: format!("writer create failed: {e}"),
        })?;

    // Oracle D, dynamic half: the run is strict (use-before-def faults) and
    // budgeted; any fault on a verifier-admitted program is a disagreement.
    if let Err(e) = machine.run_recording(&mut rec, &mut writer) {
        return Err(OracleFailure {
            oracle: Oracle::StaticVsDynamic,
            detail: format!("verifier admitted the program but the run faulted: {e}"),
        });
    }
    let (bytes, summary) = writer.finish().map_err(|e| OracleFailure {
        oracle: Oracle::Wire,
        detail: format!("finish failed: {e}"),
    })?;
    let events = rec.into_trace();

    // The stream the profiler under test sees; the naive reference always
    // sees the true stream.
    let viewed: Vec<TimedEvent> = match mutation {
        Some(m) => m.corrupt(&events),
        None => events.clone(),
    };

    // --- Oracle A: engine vs naive re-execution. ---
    let engine = engine_activations(&viewed);
    let reference = naive_activations(&events);
    if let Some(d) = diff_activations("trms-engine vs naive", &engine, &reference) {
        return Err(OracleFailure { oracle: Oracle::NaiveVsEngine, detail: d });
    }
    // The lean rms profiler ignores kernel events by design, so its oracle
    // only applies to kernel-free streams (the `concurrent` profile).
    let kernel_free = !events
        .iter()
        .any(|te| matches!(te.event.kind(), EventKind::KernelRead | EventKind::KernelWrite));
    if kernel_free {
        let mut lean = RmsProfiler::with_activation_log();
        replay_into(&mut lean, &viewed);
        let lean: Vec<Activation> =
            lean.activations().iter().map(|r| (r.thread, r.routine, 0, r.rms, r.cost)).collect();
        let reference_rms: Vec<Activation> =
            reference.iter().map(|&(t, r, _, rms, cost)| (t, r, 0, rms, cost)).collect();
        if let Some(d) = diff_activations("lean-rms vs naive", &lean, &reference_rms) {
            return Err(OracleFailure { oracle: Oracle::NaiveVsEngine, detail: d });
        }
    }

    // --- Oracle B: batched replay vs sequential replay. ---
    // The chunk size is seed-derived so the corpus sweeps batch boundaries.
    let chunk = 1 + (spec.seed % 61) as usize;
    let mut batched = TrmsProfiler::builder().policy(InputPolicy::full()).log_activations(true).build();
    let src = viewed.iter().map(|te| Ok::<_, std::convert::Infallible>((te.thread, te.event)));
    let Ok(_) = replay(&mut batched, src, chunk);
    let batched: Vec<Activation> =
        batched.activations().iter().map(|r| (r.thread, r.routine, r.trms, r.rms, r.cost)).collect();
    if let Some(d) = diff_activations(&format!("batched(chunk={chunk}) vs sequential"), &batched, &engine)
    {
        return Err(OracleFailure { oracle: Oracle::Batching, detail: d });
    }

    // --- Oracle C: wire round-trip vs direct capture. ---
    let reader = WireReader::new(Cursor::new(&bytes[..]))
        .map_err(|e| OracleFailure {
            oracle: Oracle::Wire,
            detail: format!("reader rejected freshly written bytes: {e}"),
        })?
        .strict();
    let mut decoded = Vec::with_capacity(events.len());
    for item in reader {
        let (thread, event) = item.map_err(|e| OracleFailure {
            oracle: Oracle::Wire,
            detail: format!("decode error after {} events: {e}", decoded.len()),
        })?;
        decoded.push((thread, event));
    }
    let direct: Vec<(ThreadId, Event)> = events.iter().map(|te| (te.thread, te.event)).collect();
    if decoded != direct {
        let i = decoded
            .iter()
            .zip(&direct)
            .position(|(a, b)| a != b)
            .unwrap_or(decoded.len().min(direct.len()));
        return Err(OracleFailure {
            oracle: Oracle::Wire,
            detail: format!(
                "round-trip diverges at event {i}: decoded {:?}, captured {:?} ({} vs {} events)",
                decoded.get(i),
                direct.get(i),
                decoded.len(),
                direct.len()
            ),
        });
    }
    if summary.events != direct.len() as u64 {
        return Err(OracleFailure {
            oracle: Oracle::Wire,
            detail: format!(
                "writer summary counts {} events, capture has {}",
                summary.events,
                direct.len()
            ),
        });
    }

    // --- Oracle E: static cost bounds vs the fitted dynamic growth. ---
    // Judged on the *true* profile (mutations corrupt the stream under
    // test, not reality): the inferred bound of every routine must not sit
    // strictly below the growth model fitted to its (rms, cost) profile.
    let bound_report = aprof_bound::infer_program(&program);
    let mut points: Vec<Vec<(f64, f64)>> = vec![Vec::new(); program.functions().len()];
    for &(_, routine, _, rms, cost) in &reference {
        if let Some(p) = points.get_mut(routine.index()) {
            p.push((rms as f64, cost as f64));
        }
    }
    let comparisons = aprof_bound::compare(&bound_report, &points);
    if let Some(bad) = comparisons.iter().find(|c| c.verdict == aprof_bound::BoundVsFit::Unsound) {
        let fitted = bad
            .fit
            .as_ref()
            .map(|f| format!("{} (R²={:.4})", f.model.notation(), f.r2))
            .unwrap_or_else(|| "<no fit>".into());
        return Err(OracleFailure {
            oracle: Oracle::BoundVsFit,
            detail: format!(
                "routine {} ({}): static bound {} but {} activations fitted {}",
                bad.func,
                bad.name,
                bad.bound.notation(),
                bad.points,
                fitted
            ),
        });
    }

    Ok(CaseReport {
        events: direct.len() as u64,
        wire_bytes: bytes.len() as u64,
        activations: reference.len(),
        digest: digest_case(&events, &reference),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    #[test]
    fn clean_cases_pass_all_oracles() {
        for seed in 0..24 {
            let spec = CaseSpec::generate(seed, &GenConfig::mixed());
            let report = run_case(&spec)
                .unwrap_or_else(|f| panic!("seed {seed} ({}): {f}", spec.summary()));
            assert!(report.events > 0);
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let spec = CaseSpec::generate(11, &GenConfig::mixed());
        let a = run_case(&spec).expect("passes");
        let b = run_case(&spec).expect("passes");
        assert_eq!(a, b, "same spec must observe the identical run");
    }

    #[test]
    fn bound_oracle_is_sound_across_profiles() {
        // Oracle E runs inside run_case; a broad sweep over every generator
        // profile is the soundness regression for the bound inference.
        for (i, cfg) in [
            GenConfig::mixed(),
            GenConfig::sequential(),
            GenConfig::kernel(),
            GenConfig::concurrent(),
        ]
        .into_iter()
        .enumerate()
        {
            for seed in 0..12 {
                let spec = CaseSpec::generate(seed + 1000 * i as u64, &cfg);
                run_case(&spec)
                    .unwrap_or_else(|f| panic!("seed {seed} ({}): {f}", spec.summary()));
            }
        }
    }

    #[test]
    fn kernel_input_mutation_is_caught() {
        // A kernel-profile case always reads external input, so dropping
        // kernel writes must flip oracle A.
        let spec = CaseSpec::generate(3, &GenConfig::kernel());
        let failure = run_case_mutated(&spec, Some(Mutation::DropKernelInput))
            .expect_err("planted bug must be detected");
        assert_eq!(failure.oracle, Oracle::NaiveVsEngine, "{failure}");
    }

    #[test]
    fn cost_mutation_is_caught() {
        let spec = CaseSpec::generate(5, &GenConfig::sequential());
        let failure = run_case_mutated(&spec, Some(Mutation::ScaleNthCost(2)))
            .expect_err("planted cost bug must be detected");
        assert_eq!(failure.oracle, Oracle::NaiveVsEngine, "{failure}");
    }
}

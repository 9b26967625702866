//! Property test: merging profile reports ignores order and grouping.
//!
//! A service tenant folds each stream into its aggregate as it commits, so
//! commit order, recovery order and the one-shot CLI's argument order all
//! differ. The canonical text must not see the difference, even once the
//! sums of squared costs pass 2^53, where `f64` addition stops being exact.

use aprof_core::{GlobalStats, ProfileReport, RoutineReport, RoutineThreadProfile};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One activation: (routine, thread, trms, trms - rms, cost). Five
/// routine names shared by every report, so the reports overlap.
type Act = (u8, u32, u64, u64, u64);

fn acts() -> impl Strategy<Value = Vec<Act>> {
    prop::collection::vec((0u8..5, 0u32..4, 0u64..6, 0u64..3, 0u64..(1 << 40)), 0..12)
}

fn name(routine: u8) -> String {
    format!("r{routine}")
}

/// The report of one run. Routine ids follow `rotate`, not names, as a
/// profiler's interning order would.
fn report(acts: &[Act], rotate: usize) -> ProfileReport {
    let mut by_name: BTreeMap<u8, RoutineReport> = BTreeMap::new();
    let mut global = GlobalStats::default();
    for &(routine, thread, trms, less, cost) in acts {
        let rms = trms.saturating_sub(less);
        let entry = by_name.entry(routine).or_insert_with(|| RoutineReport {
            routine: 0,
            name: name(routine),
            merged: RoutineThreadProfile::default(),
            per_thread: BTreeMap::new(),
        });
        entry.merged.record(trms, rms, cost);
        entry.per_thread.entry(thread).or_default().record(trms, rms, cost);
        global.activations += 1;
        global.sum_trms += trms;
        global.sum_rms += rms;
    }
    let mut routines: Vec<RoutineReport> = by_name.into_values().collect();
    if !routines.is_empty() {
        let n = routines.len();
        routines.rotate_left(rotate % n);
    }
    for (id, routine) in routines.iter_mut().enumerate() {
        routine.routine = id as u32;
    }
    ProfileReport { tool: "aprof-trms".into(), routines, global }
}

/// A seeded Fisher-Yates permutation of `0..n`.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        order.swap(i, (seed >> 33) as usize % (i + 1));
    }
    order
}

/// Checks that every order, grouping and absorb sequence of `reports`
/// renders the same canonical text as their plain merge.
fn assert_order_free(reports: &[ProfileReport], perm_seed: u64, cuts: u64) {
    let base = ProfileReport::merge(reports).to_canonical_text();
    let order = permutation(reports.len(), perm_seed);
    let shuffled: Vec<ProfileReport> = order.iter().map(|&i| reports[i].clone()).collect();
    assert_eq!(ProfileReport::merge(&shuffled).to_canonical_text(), base, "permuted");

    // A merge of merges: cut the shuffled list where `cuts` has a bit set.
    let mut groups = Vec::new();
    let mut start = 0;
    for end in 1..=shuffled.len() {
        if end == shuffled.len() || cuts >> end & 1 == 1 {
            groups.push(ProfileReport::merge(&shuffled[start..end]));
            start = end;
        }
    }
    assert_eq!(ProfileReport::merge(&groups).to_canonical_text(), base, "grouped");

    // Absorbing into the first report itself, which is not in merged form
    // until its first absorb.
    if shuffled.len() > 1 {
        let mut folded = shuffled[0].clone();
        for report in &shuffled[1..] {
            folded.absorb(report);
        }
        assert_eq!(folded.to_canonical_text(), base, "absorbed");
    }
}

/// The former `f64` arithmetic: each report sums its squared costs in
/// activation order, and the merge adds the reports' sums in report order.
/// Keyed by (routine, thread or `None` for the merged profile, curve,
/// input size).
fn f64_fold(runs: &[Vec<Act>]) -> BTreeMap<(String, Option<u32>, &'static str, u64), f64> {
    let mut total = BTreeMap::new();
    for acts in runs {
        let mut run = BTreeMap::new();
        for &(routine, thread, trms, less, cost) in acts {
            let square = (cost as f64) * (cost as f64);
            for thread in [None, Some(thread)] {
                for (curve, value) in [("trms", trms), ("rms", trms.saturating_sub(less))] {
                    *run.entry((name(routine), thread, curve, value)).or_insert(0.0) += square;
                }
            }
        }
        for (key, sum) in run {
            *total.entry(key).or_insert(0.0) += sum;
        }
    }
    total
}

/// The curve lines a canonical text of `merged` holds, with each
/// `sum_sq_bits` taken from `reference` instead of from `merged`.
fn curve_lines(
    merged: &ProfileReport,
    reference: &BTreeMap<(String, Option<u32>, &'static str, u64), f64>,
) -> Vec<String> {
    let mut lines = Vec::new();
    for routine in &merged.routines {
        let profiles = std::iter::once((None, &routine.merged))
            .chain(routine.per_thread.iter().map(|(&t, p)| (Some(t), p)));
        for (thread, profile) in profiles {
            for (curve, points) in [("trms", &profile.trms), ("rms", &profile.rms)] {
                for (&value, s) in points {
                    let bits = reference[&(routine.name.clone(), thread, curve, value)].to_bits();
                    lines.push(format!(
                        "{curve} {value} count={} min={} max={} sum={} sum_sq_bits={bits:016x}",
                        s.count, s.min, s.max, s.sum
                    ));
                }
            }
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_ignores_order_and_grouping(
        runs in prop::collection::vec(acts(), 1..7),
        rotate in 0usize..5,
        perm_seed in any::<u64>(),
        cuts in any::<u64>(),
    ) {
        // Costs up to 2^40: one square passes 2^53.
        let big: Vec<ProfileReport> = runs.iter().map(|a| report(a, rotate)).collect();
        assert_order_free(&big, perm_seed, cuts);

        // Costs below 2^23: at most 72 squares below 2^46 per point keep
        // every sum below 2^53, where `f64` addition is exact, so the text
        // must also match the `f64` fold that `sum_sq` used to be.
        let small_runs: Vec<Vec<Act>> = runs
            .iter()
            .map(|acts| acts.iter().map(|&(r, t, trms, less, c)| (r, t, trms, less, c >> 17)))
            .map(Iterator::collect)
            .collect();
        let small: Vec<ProfileReport> = small_runs.iter().map(|a| report(a, rotate)).collect();
        assert_order_free(&small, perm_seed, cuts);
        let merged = ProfileReport::merge(&small);
        let text = merged.to_canonical_text();
        let actual: Vec<&str> =
            text.lines().filter(|l| l.contains("sum_sq_bits=")).map(str::trim).collect();
        prop_assert_eq!(actual, curve_lines(&merged, &f64_fold(&small_runs)));
    }
}

//! Collected profile data: performance tuples, per-routine curves, reports.

use aprof_trace::{RoutineId, RoutineTable, ThreadId};
use std::collections::BTreeMap;

/// Aggregate cost statistics of all activations of a routine that shared one
/// input-size value — one *performance point* of a cost plot.
///
/// # Example
///
/// ```
/// use aprof_core::CostStats;
/// let mut s = CostStats::default();
/// s.record(10);
/// s.record(4);
/// assert_eq!(s.count, 2);
/// assert_eq!(s.max, 10);
/// assert_eq!(s.min, 4);
/// assert_eq!(s.mean(), 7.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostStats {
    /// Number of activations observed with this input size.
    pub count: u64,
    /// Minimum cost among them.
    pub min: u64,
    /// Maximum cost (the worst-case running time plots of §3 use this).
    pub max: u64,
    /// Sum of costs (for average-cost plots).
    pub sum: u64,
    /// Sum of squared costs (for variance estimates). An exact integer,
    /// saturating at `u128::MAX`, so that merging statistics gives the same
    /// value in any order and any grouping.
    pub sum_sq: u128,
}

impl Default for CostStats {
    fn default() -> Self {
        CostStats { count: 0, min: u64::MAX, max: 0, sum: 0, sum_sq: 0 }
    }
}

impl CostStats {
    /// Folds the cost of one more activation into the statistics.
    pub fn record(&mut self, cost: u64) {
        self.count += 1;
        self.min = self.min.min(cost);
        self.max = self.max.max(cost);
        self.sum += cost;
        self.sum_sq = self.sum_sq.saturating_add(u128::from(cost) * u128::from(cost));
    }

    /// Mean cost.
    ///
    /// Returns `0.0` if no activation was recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Population variance of the cost.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq as f64 / self.count as f64 - m * m).max(0.0)
    }

    /// Merges another statistics value (e.g. the same input size observed on
    /// a different thread) into this one.
    pub fn merge(&mut self, other: &CostStats) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
    }
}

/// The profile of one routine as activated by one thread.
///
/// Routine profiles are *thread-sensitive* (§4): activations made by
/// different threads are kept distinct and can be merged afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutineThreadProfile {
    /// trms value → cost statistics (one entry per distinct trms value).
    pub trms: BTreeMap<u64, CostStats>,
    /// rms value → cost statistics.
    pub rms: BTreeMap<u64, CostStats>,
    /// Number of completed activations.
    pub calls: u64,
    /// Inclusive count of read operations (the activation plus descendants).
    pub reads: u64,
    /// Inclusive count of thread-induced first-accesses.
    pub induced_thread: u64,
    /// Inclusive count of external (kernel-write-induced) first-accesses.
    pub induced_external: u64,
    /// Sum of trms over all activations (for the input-volume metric).
    pub sum_trms: u64,
    /// Sum of rms over all activations.
    pub sum_rms: u64,
    /// Total inclusive cost over all activations.
    pub total_cost: u64,
}

impl RoutineThreadProfile {
    /// Records one completed activation.
    pub fn record(&mut self, trms: u64, rms: u64, cost: u64) {
        self.trms.entry(trms).or_default().record(cost);
        self.rms.entry(rms).or_default().record(cost);
        self.calls += 1;
        self.sum_trms += trms;
        self.sum_rms += rms;
        self.total_cost += cost;
    }

    /// Merges `other` (same routine, different thread) into `self`.
    pub fn merge(&mut self, other: &RoutineThreadProfile) {
        for (&k, v) in &other.trms {
            self.trms.entry(k).or_default().merge(v);
        }
        for (&k, v) in &other.rms {
            self.rms.entry(k).or_default().merge(v);
        }
        self.calls += other.calls;
        self.reads += other.reads;
        self.induced_thread += other.induced_thread;
        self.induced_external += other.induced_external;
        self.sum_trms += other.sum_trms;
        self.sum_rms += other.sum_rms;
        self.total_cost += other.total_cost;
    }
}

/// One completed routine activation, as optionally logged by the profilers.
///
/// Activation logs are the ground truth for differential tests between the
/// timestamping algorithm and the naive oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationRecord {
    /// Thread that performed the activation.
    pub thread: ThreadId,
    /// The activated routine.
    pub routine: RoutineId,
    /// Threaded read memory size of the activation.
    pub trms: u64,
    /// Read memory size of the activation.
    pub rms: u64,
    /// Inclusive cost (basic blocks) of the activation.
    pub cost: u64,
}

/// The merged profile of one routine (all threads), plus its attribution
/// counters — everything the paper's per-routine charts need.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineReport {
    /// Dense id of the routine.
    pub routine: u32,
    /// Routine name (resolved via the [`RoutineTable`] at report time).
    pub name: String,
    /// Merged profile across threads.
    pub merged: RoutineThreadProfile,
    /// Per-thread profiles, keyed by thread index.
    pub per_thread: BTreeMap<u32, RoutineThreadProfile>,
}

impl RoutineReport {
    /// The routine's trms cost curve: sorted `(input size, stats)` points.
    pub fn trms_curve(&self) -> Vec<(u64, CostStats)> {
        self.merged.trms.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// The routine's rms cost curve.
    pub fn rms_curve(&self) -> Vec<(u64, CostStats)> {
        self.merged.rms.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Number of distinct trms values collected (|trms_r| in §6.1).
    pub fn distinct_trms(&self) -> usize {
        self.merged.trms.len()
    }

    /// Number of distinct rms values collected (|rms_r|).
    pub fn distinct_rms(&self) -> usize {
        self.merged.rms.len()
    }

    /// Profile richness: `(|trms_r| - |rms_r|) / |rms_r|` (§6.1, metric 1).
    ///
    /// Positive when the trms yields more performance points; may be
    /// negative (rarely, per the paper) when distinct rms values collapse
    /// onto one trms value.
    pub fn profile_richness(&self) -> f64 {
        let r = self.distinct_rms();
        if r == 0 {
            return 0.0;
        }
        (self.distinct_trms() as f64 - r as f64) / r as f64
    }

    /// Input volume: `1 - Σ rms / Σ trms` over the routine's activations
    /// (§6.1, metric 2). In `[0, 1)`; 0 when no induced input exists.
    pub fn input_volume(&self) -> f64 {
        if self.merged.sum_trms == 0 {
            return 0.0;
        }
        1.0 - self.merged.sum_rms as f64 / self.merged.sum_trms as f64
    }

    /// Fraction of this routine's reads that were induced first-accesses,
    /// split as `(thread-induced, external)`; both in `[0, 1]`.
    pub fn induced_fractions(&self) -> (f64, f64) {
        if self.merged.reads == 0 {
            return (0.0, 0.0);
        }
        let r = self.merged.reads as f64;
        (self.merged.induced_thread as f64 / r, self.merged.induced_external as f64 / r)
    }
}

/// Whole-run counters (§6.1 metrics 3–4 and space accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GlobalStats {
    /// Total read operations observed.
    pub reads: u64,
    /// Total write operations observed.
    pub writes: u64,
    /// Total kernel-read cells observed.
    pub kernel_reads: u64,
    /// Total kernel-write cells observed.
    pub kernel_writes: u64,
    /// Induced first-accesses due to other threads (counted once each).
    pub induced_thread: u64,
    /// Induced first-accesses due to external input (counted once each).
    pub induced_external: u64,
    /// Completed activations.
    pub activations: u64,
    /// Σ trms over all activations.
    pub sum_trms: u64,
    /// Σ rms over all activations.
    pub sum_rms: u64,
    /// Number of timestamp renumberings performed (§4.4).
    pub renumberings: u64,
    /// Resident bytes of all shadow memories at the end of the run.
    pub shadow_bytes: u64,
}

impl GlobalStats {
    /// Percentage split of induced first-accesses as
    /// `(thread-induced %, external %)`; sums to 100 when any exist
    /// (Fig. 17).
    pub fn induced_split(&self) -> (f64, f64) {
        let total = self.induced_thread + self.induced_external;
        if total == 0 {
            return (0.0, 0.0);
        }
        (
            100.0 * self.induced_thread as f64 / total as f64,
            100.0 * self.induced_external as f64 / total as f64,
        )
    }

    /// Whole-run input volume: `1 - Σ rms / Σ trms` (§6.1, metric 2).
    pub fn input_volume(&self) -> f64 {
        if self.sum_trms == 0 {
            return 0.0;
        }
        1.0 - self.sum_rms as f64 / self.sum_trms as f64
    }

    /// Adds every counter of `other` into `self` (used when combining the
    /// reports of independent runs).
    pub fn accumulate(&mut self, other: &GlobalStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.kernel_reads += other.kernel_reads;
        self.kernel_writes += other.kernel_writes;
        self.induced_thread += other.induced_thread;
        self.induced_external += other.induced_external;
        self.activations += other.activations;
        self.sum_trms += other.sum_trms;
        self.sum_rms += other.sum_rms;
        self.renumberings += other.renumberings;
        self.shadow_bytes += other.shadow_bytes;
    }
}

/// The complete output of a profiling session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Name of the tool that produced the report.
    pub tool: String,
    /// Per-routine reports, sorted by routine id.
    pub routines: Vec<RoutineReport>,
    /// Whole-run counters.
    pub global: GlobalStats,
}

impl ProfileReport {
    /// Builds a report from raw per-(thread, routine) profiles.
    pub(crate) fn assemble(
        tool: &str,
        profiles: BTreeMap<(ThreadId, RoutineId), RoutineThreadProfile>,
        global: GlobalStats,
        names: &RoutineTable,
    ) -> ProfileReport {
        let mut by_routine: BTreeMap<RoutineId, RoutineReport> = BTreeMap::new();
        for ((thread, routine), profile) in profiles {
            let entry = by_routine.entry(routine).or_insert_with(|| RoutineReport {
                routine: routine.index() as u32,
                name: names.get_name(routine).map(str::to_owned).unwrap_or_else(|| routine.to_string()),
                merged: RoutineThreadProfile::default(),
                per_thread: BTreeMap::new(),
            });
            entry.merged.merge(&profile);
            entry.per_thread.insert(thread.index() as u32, profile);
        }
        ProfileReport { tool: tool.to_owned(), routines: by_routine.into_values().collect(), global }
    }

    /// Looks up the report of one routine.
    pub fn routine(&self, id: RoutineId) -> Option<&RoutineReport> {
        self.routines.iter().find(|r| r.routine == id.index() as u32)
    }

    /// Looks up the report of one routine by name.
    pub fn routine_by_name(&self, name: &str) -> Option<&RoutineReport> {
        self.routines.iter().find(|r| r.name == name)
    }

    /// Combines the reports of independent runs into one aggregate: a fold
    /// of [`ProfileReport::absorb`] over `reports`, starting from an empty
    /// report.
    ///
    /// Routines are matched **by name** (two runs of the same program may
    /// intern routines in different orders), per-thread profiles by thread
    /// index, and global counters are summed. The output assigns dense
    /// routine ids in lexicographic-name order, so the result is independent
    /// of the input runs' id assignment.
    ///
    /// Every statistic merges by an exact, commutative and associative
    /// operation ([`CostStats::sum_sq`] is an integer), so the result does
    /// not depend on the order of `reports` or on how they were grouped
    /// into earlier merges.
    ///
    /// An empty slice yields an empty report; the `tool` label is the first
    /// non-empty label among `reports`.
    #[must_use]
    pub fn merge(reports: &[ProfileReport]) -> ProfileReport {
        let mut merged = ProfileReport::default();
        for report in reports {
            merged.absorb(report);
        }
        merged
    }

    /// Folds `other` into `self`, leaving `self` equal to
    /// `ProfileReport::merge(&[self, other])`. Once `self` is in merged
    /// form (routines in name order with dense ids, as every merge leaves
    /// it), the cost is that of walking `other`, whatever `self` holds.
    pub fn absorb(&mut self, other: &ProfileReport) {
        let merged_form = self.routines.iter().enumerate().all(|(i, r)| r.routine == i as u32)
            && self.routines.windows(2).all(|w| w[0].name < w[1].name);
        if !merged_form {
            let raw = std::mem::take(self);
            self.absorb(&raw);
        }
        if self.tool.is_empty() {
            self.tool.clone_from(&other.tool);
        }
        self.global.accumulate(&other.global);
        let mut added = false;
        for routine in &other.routines {
            let at = match self.routines.binary_search_by(|r| r.name.as_str().cmp(&routine.name)) {
                Ok(at) => at,
                Err(at) => {
                    self.routines.insert(
                        at,
                        RoutineReport {
                            routine: 0,
                            name: routine.name.clone(),
                            merged: RoutineThreadProfile::default(),
                            per_thread: BTreeMap::new(),
                        },
                    );
                    added = true;
                    at
                }
            };
            let entry = &mut self.routines[at];
            entry.merged.merge(&routine.merged);
            for (&thread, profile) in &routine.per_thread {
                entry.per_thread.entry(thread).or_default().merge(profile);
            }
        }
        if added {
            for (id, routine) in self.routines.iter_mut().enumerate() {
                routine.routine = id as u32;
            }
        }
    }

    /// Renders the report as a stable, versioned text form suitable for
    /// byte-for-byte comparison between independently produced aggregates.
    ///
    /// Every counter and every point of every trms/rms curve is included.
    /// Each `sum_sq` prints as the bit pattern of its nearest `f64`, which
    /// is the value itself while it stays below 2^53.
    #[must_use]
    pub fn to_canonical_text(&self) -> String {
        use std::fmt::Write as _;
        fn profile_lines(out: &mut String, indent: &str, p: &RoutineThreadProfile) {
            let _ = writeln!(
                out,
                "{indent}calls={} reads={} induced_thread={} induced_external={} \
                 sum_trms={} sum_rms={} total_cost={}",
                p.calls, p.reads, p.induced_thread, p.induced_external, p.sum_trms, p.sum_rms, p.total_cost
            );
            for (label, curve) in [("trms", &p.trms), ("rms", &p.rms)] {
                for (value, stats) in curve {
                    let _ = writeln!(
                        out,
                        "{indent}{label} {value} count={} min={} max={} sum={} sum_sq_bits={:016x}",
                        stats.count,
                        stats.min,
                        stats.max,
                        stats.sum,
                        (stats.sum_sq as f64).to_bits()
                    );
                }
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "aprof-profile v1");
        let _ = writeln!(out, "tool {}", self.tool);
        let g = &self.global;
        let _ = writeln!(
            out,
            "global reads={} writes={} kernel_reads={} kernel_writes={} induced_thread={} \
             induced_external={} activations={} sum_trms={} sum_rms={} renumberings={} \
             shadow_bytes={}",
            g.reads,
            g.writes,
            g.kernel_reads,
            g.kernel_writes,
            g.induced_thread,
            g.induced_external,
            g.activations,
            g.sum_trms,
            g.sum_rms,
            g.renumberings,
            g.shadow_bytes
        );
        for routine in &self.routines {
            let _ = writeln!(out, "routine {} name={}", routine.routine, routine.name);
            profile_lines(&mut out, "  ", &routine.merged);
            for (thread, profile) in &routine.per_thread {
                let _ = writeln!(out, "  thread {thread}");
                profile_lines(&mut out, "    ", profile);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_stats_accumulate() {
        let mut s = CostStats::default();
        for c in [5, 1, 9] {
            s.record(c);
        }
        assert_eq!((s.count, s.min, s.max, s.sum), (3, 1, 9, 15));
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!(s.variance() > 0.0);
    }

    #[test]
    fn cost_stats_merge_identity() {
        let mut a = CostStats::default();
        a.record(3);
        let empty = CostStats::default();
        let before = a;
        a.merge(&empty);
        assert_eq!(a, before);
        let mut e = CostStats::default();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn routine_profile_distinct_points() {
        let mut p = RoutineThreadProfile::default();
        p.record(10, 5, 100);
        p.record(10, 6, 80);
        p.record(20, 6, 200);
        assert_eq!(p.trms.len(), 2);
        assert_eq!(p.rms.len(), 2);
        assert_eq!(p.calls, 3);
        assert_eq!(p.trms[&10].max, 100);
        assert_eq!(p.sum_trms, 40);
        assert_eq!(p.sum_rms, 17);
    }

    #[test]
    fn richness_and_volume() {
        let mut merged = RoutineThreadProfile::default();
        merged.record(2, 1, 10);
        merged.record(4, 2, 20);
        merged.record(6, 3, 30);
        let r = RoutineReport { routine: 0, name: "f".into(), merged, per_thread: BTreeMap::new() };
        // 3 distinct trms, 3 distinct rms -> richness 0
        assert_eq!(r.profile_richness(), 0.0);
        // volume = 1 - 6/12 = 0.5
        assert!((r.input_volume() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn global_split_sums_to_100() {
        let g = GlobalStats { induced_thread: 30, induced_external: 10, ..Default::default() };
        let (t, e) = g.induced_split();
        assert!((t + e - 100.0).abs() < 1e-9);
        assert!((t - 75.0).abs() < 1e-9);
    }

    #[test]
    fn global_split_empty_is_zero() {
        let g = GlobalStats::default();
        assert_eq!(g.induced_split(), (0.0, 0.0));
        assert_eq!(g.input_volume(), 0.0);
    }

    fn report_with(tool: &str, routines: &[(&str, u32, u64)]) -> ProfileReport {
        // (name, thread, trms) triples; each triple records one activation.
        let mut by_name: BTreeMap<&str, RoutineReport> = BTreeMap::new();
        for (i, &(name, thread, trms)) in routines.iter().enumerate() {
            let entry = by_name.entry(name).or_insert_with(|| RoutineReport {
                routine: i as u32,
                name: name.to_owned(),
                merged: RoutineThreadProfile::default(),
                per_thread: BTreeMap::new(),
            });
            entry.merged.record(trms, trms / 2, trms * 10);
            entry.per_thread.entry(thread).or_default().record(trms, trms / 2, trms * 10);
        }
        let global = GlobalStats {
            activations: routines.len() as u64,
            sum_trms: routines.iter().map(|&(_, _, t)| t).sum(),
            ..GlobalStats::default()
        };
        ProfileReport { tool: tool.into(), routines: by_name.into_values().collect(), global }
    }

    #[test]
    fn merge_matches_routines_by_name_and_sums_globals() {
        let a = report_with("trms", &[("f", 0, 4), ("g", 1, 6)]);
        let b = report_with("trms", &[("g", 1, 6), ("h", 0, 2)]);
        let merged = ProfileReport::merge(&[a, b]);
        assert_eq!(merged.tool, "trms");
        let names: Vec<&str> = merged.routines.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["f", "g", "h"]);
        // Dense ids in name order, regardless of input ids.
        assert_eq!(merged.routines.iter().map(|r| r.routine).collect::<Vec<_>>(), vec![0, 1, 2]);
        let g = merged.routine_by_name("g").unwrap();
        assert_eq!(g.merged.calls, 2);
        assert_eq!(g.per_thread[&1].calls, 2);
        assert_eq!(merged.global.activations, 4);
        assert_eq!(merged.global.sum_trms, 18);
    }

    #[test]
    fn merge_of_empty_slice_is_empty() {
        let merged = ProfileReport::merge(&[]);
        assert!(merged.routines.is_empty());
        assert_eq!(merged.global, GlobalStats::default());
    }

    #[test]
    fn canonical_text_is_stable_and_discriminating() {
        let a = report_with("trms", &[("f", 0, 4), ("g", 1, 6)]);
        let same = report_with("trms", &[("f", 0, 4), ("g", 1, 6)]);
        let diff = report_with("trms", &[("f", 0, 4), ("g", 1, 7)]);
        assert_eq!(a.to_canonical_text(), same.to_canonical_text());
        assert_ne!(a.to_canonical_text(), diff.to_canonical_text());
        let text = a.to_canonical_text();
        assert!(text.starts_with("aprof-profile v1\n"));
        assert!(text.contains("routine 0 name=f"));
        assert!(text.contains("sum_sq_bits="));
    }

    #[test]
    fn merge_then_text_equals_single_pass_in_fixed_order() {
        // Merging [a, b] must agree with itself when repeated — the fixed
        // order contract the service relies on.
        let a = report_with("trms", &[("f", 0, 4), ("g", 1, 6), ("g", 0, 3)]);
        let b = report_with("trms", &[("f", 1, 5)]);
        let once = ProfileReport::merge(&[a.clone(), b.clone()]);
        let twice = ProfileReport::merge(&[a, b]);
        assert_eq!(once.to_canonical_text(), twice.to_canonical_text());
    }
}

//! Global timestamp renumbering on counter overflow (§4.4 of the paper).
//!
//! The global counter is shared by all threads and is bumped on every call,
//! thread switch and kernel write, so long-running sessions overflow the
//! 32-bit timestamps held in shadow memory. Overflow would corrupt the
//! partial order between memory and routine timestamps, so the profiler
//! periodically renumbers every timestamp while preserving exactly the
//! comparisons the algorithm performs:
//!
//! * `ts_t[l]` vs routine timestamps `S_t[i].ts` of the same thread,
//! * `ts_t[l]` vs the global write timestamp `wts[l]` of the same location.
//!
//! Order between timestamps of *different* locations is irrelevant and may
//! change (the paper's key observation).
//!
//! Two schemes are provided:
//!
//! * [`RenumberScheme::Paper`] — the paper's algorithm: collect the (all
//!   distinct) timestamps of pending activations into a sorted array `A`;
//!   re-assign routine timestamps by rank; then re-assign each memory
//!   timestamp by locating the band `[A[q], A[q+1])` containing it and
//!   picking one of three slots inside the band according to whether
//!   `ts_t[l]` is less than, equal to, or greater than `wts[l]`. The paper
//!   spaces bands by 3; we use a stride of 4 so that band `q` owns slots
//!   `{4(q+1), 4(q+1)+1, 4(q+1)+2}` and the values `{1, 2, 3}` remain for
//!   timestamps older than every pending activation, keeping `0` free as
//!   the never-accessed sentinel.
//! * [`RenumberScheme::Exact`] — a straightforward order-preserving rank
//!   compaction of *every* live timestamp. Asymptotically heavier (it
//!   sorts all memory timestamps, not only the pending-activation ones) but
//!   obviously correct; it exists as a differential-testing oracle for the
//!   paper scheme.

use crate::trms::ThreadState;
use aprof_shadow::ShadowMemory;
use std::cmp::Ordering;

/// Which renumbering algorithm a [`TrmsProfiler`](crate::TrmsProfiler) uses
/// when its counter reaches the configured limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenumberScheme {
    /// The paper's §4.4 scheme (rank bands over pending-activation stamps).
    #[default]
    Paper,
    /// Exact rank compaction of all live timestamps (testing oracle).
    Exact,
}

/// Renumbers all timestamps, resetting `count` to a small value.
pub(crate) fn run(
    scheme: RenumberScheme,
    threads: &mut [ThreadState],
    wts: &mut ShadowMemory<u64>,
    count: &mut u64,
) {
    match scheme {
        RenumberScheme::Paper => paper(threads, wts, count),
        RenumberScheme::Exact => exact(threads, wts, count),
    }
}

/// Largest index `j` with `a[j] <= v`.
fn rank_le(a: &[u64], v: u64) -> Option<usize> {
    a.partition_point(|&x| x <= v).checked_sub(1)
}

fn paper(threads: &mut [ThreadState], wts: &mut ShadowMemory<u64>, count: &mut u64) {
    // Lines 1-4: collect the timestamps of all pending activations, across
    // all threads, in increasing order. They are all distinct because every
    // call consumes a fresh counter value.
    let mut a: Vec<u64> = threads.iter().flat_map(|t| t.stack.iter().map(|f| f.ts)).collect();
    a.sort_unstable();
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "activation timestamps must be distinct");

    let band = |q: Option<usize>| -> u64 {
        match q {
            Some(q) => 4 * (q as u64 + 1),
            None => 0,
        }
    };

    // Lines 9-17: re-assign thread-specific memory timestamps, consulting
    // the (still old) global write timestamps.
    for st in threads.iter_mut() {
        let wts_ref = &*wts;
        st.ts.for_each_mut(|addr, v| {
            let lts = *v;
            if lts == 0 {
                return; // never accessed by this thread
            }
            let packed = wts_ref.get(addr);
            let j = rank_le(&a, lts);
            *v = if packed == 0 {
                // Never written: only the order against routine timestamps
                // matters; any in-band slot works.
                if j.is_some() {
                    band(j) + 2
                } else {
                    2
                }
            } else {
                let w = packed >> 1;
                let q = rank_le(&a, w);
                if j != q {
                    // Different bands: band order alone preserves both the
                    // lts-vs-wts and the lts-vs-routine comparisons.
                    if j.is_some() {
                        band(j)
                    } else {
                        1
                    }
                } else {
                    // Same band: pick the slot encoding the lts-vs-wts
                    // relation (cases 1-3 of §4.4).
                    let b = band(q);
                    match lts.cmp(&w) {
                        Ordering::Less => {
                            if b == 0 {
                                1
                            } else {
                                b
                            }
                        }
                        Ordering::Equal => {
                            if b == 0 {
                                2
                            } else {
                                b + 1
                            }
                        }
                        Ordering::Greater => {
                            if b == 0 {
                                3
                            } else {
                                b + 2
                            }
                        }
                    }
                }
            };
        });
    }

    // Line 18: re-assign global write timestamps to the middle slot of
    // their band, preserving the kernel-writer tag.
    wts.for_each_mut(|_, v| {
        if *v == 0 {
            return;
        }
        let w = *v >> 1;
        let kernel = *v & 1;
        let new = match rank_le(&a, w) {
            Some(q) => 4 * (q as u64 + 1) + 1,
            None => 2,
        };
        *v = (new << 1) | kernel;
    });

    // Lines 5-8: re-assign routine timestamps by rank.
    for st in threads.iter_mut() {
        for f in st.stack.iter_mut() {
            let rank = a.binary_search(&f.ts).expect("pending activation timestamp must be in A");
            f.ts = 4 * (rank as u64 + 1);
        }
    }

    // Line 19: the counter restarts above every assigned stamp.
    *count = 4 * (a.len() as u64 + 2);
}

fn exact(threads: &mut [ThreadState], wts: &mut ShadowMemory<u64>, count: &mut u64) {
    // Gather every live timestamp value.
    let mut values: Vec<u64> = threads.iter().flat_map(|t| t.stack.iter().map(|f| f.ts)).collect();
    for st in threads.iter_mut() {
        st.ts.for_each_mut(|_, v| {
            if *v != 0 {
                values.push(*v);
            }
        });
    }
    wts.for_each_mut(|_, v| {
        if *v != 0 {
            values.push(*v >> 1);
        }
    });
    values.sort_unstable();
    values.dedup();

    let remap =
        |v: u64| -> u64 { (values.binary_search(&v).expect("live timestamp must be collected") as u64) + 1 };

    for st in threads.iter_mut() {
        for f in st.stack.iter_mut() {
            f.ts = remap(f.ts);
        }
        st.ts.for_each_mut(|_, v| {
            if *v != 0 {
                *v = remap(*v);
            }
        });
    }
    wts.for_each_mut(|_, v| {
        if *v != 0 {
            let kernel = *v & 1;
            *v = (remap(*v >> 1) << 1) | kernel;
        }
    });
    *count = values.len() as u64 + 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputPolicy, TrmsProfiler};
    use aprof_trace::{Addr, Event, RoutineId, RoutineTable, ThreadId, Trace};

    /// A trace with nesting, cross-thread writes and kernel I/O whose
    /// activation log must be identical with and without renumbering.
    fn busy_trace() -> (RoutineTable, Trace) {
        let mut names = RoutineTable::new();
        let f = names.intern("f");
        let g = names.intern("g");
        let h = names.intern("h");
        let (t1, t2) = (ThreadId::new(0), ThreadId::new(1));
        let mut tr = Trace::new();
        tr.push(t1, Event::Call { routine: f });
        for i in 0..50u64 {
            tr.push(t1, Event::Call { routine: g });
            tr.push(t1, Event::Read { addr: Addr::new(i % 7) });
            tr.push(t1, Event::Write { addr: Addr::new(64 + i % 11) });
            tr.push(t1, Event::Read { addr: Addr::new(64 + (i + 3) % 11) });
            if i % 4 == 0 {
                tr.push(t1, Event::KernelWrite { addr: Addr::new(128 + i % 5) });
                tr.push(t1, Event::Read { addr: Addr::new(128 + i % 5) });
            }
            tr.push(t1, Event::Return { routine: g });
            tr.push(t2, Event::ThreadSwitch);
            tr.push(t2, Event::Call { routine: h });
            tr.push(t2, Event::Write { addr: Addr::new(i % 7) });
            tr.push(t2, Event::Read { addr: Addr::new(64 + i % 11) });
            tr.push(t2, Event::Return { routine: h });
            tr.push(t1, Event::ThreadSwitch);
        }
        tr.push(t1, Event::Return { routine: f });
        (names, tr)
    }

    fn activations_with(limit: u64, scheme: RenumberScheme) -> (Vec<(RoutineId, u64, u64)>, u64) {
        let (_names, tr) = busy_trace();
        let mut p = TrmsProfiler::builder()
            .policy(InputPolicy::full())
            .counter_limit(limit)
            .renumber_scheme(scheme)
            .log_activations(true)
            .build();
        tr.replay(&mut p);
        let renumberings = p.renumberings();
        (p.activations().iter().map(|r| (r.routine, r.trms, r.rms)).collect(), renumberings)
    }

    #[test]
    fn renumbering_preserves_profiles_paper_scheme() {
        let (baseline, n0) = activations_with(u32::MAX as u64, RenumberScheme::Paper);
        assert_eq!(n0, 0, "baseline must not renumber");
        let (frequent, n1) = activations_with(32, RenumberScheme::Paper);
        assert!(n1 > 5, "small limit must trigger many renumberings, got {n1}");
        assert_eq!(baseline, frequent);
    }

    #[test]
    fn renumbering_preserves_profiles_exact_scheme() {
        let (baseline, _) = activations_with(u32::MAX as u64, RenumberScheme::Exact);
        let (frequent, n1) = activations_with(64, RenumberScheme::Exact);
        assert!(n1 > 0);
        assert_eq!(baseline, frequent);
    }

    #[test]
    fn paper_and_exact_schemes_agree() {
        let (paper, _) = activations_with(48, RenumberScheme::Paper);
        let (exact, _) = activations_with(48, RenumberScheme::Exact);
        assert_eq!(paper, exact);
    }

    #[test]
    fn rank_le_behaviour() {
        let a = [10u64, 20, 30];
        assert_eq!(rank_le(&a, 5), None);
        assert_eq!(rank_le(&a, 10), Some(0));
        assert_eq!(rank_le(&a, 29), Some(1));
        assert_eq!(rank_le(&a, 99), Some(2));
        assert_eq!(rank_le(&[], 7), None);
    }
}

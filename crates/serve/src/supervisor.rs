//! Supervision primitives: restart backoff for listener loops and the
//! per-tenant circuit breaker.
//!
//! The daemon's supervision tree is two levels deep. Each *listener* loop
//! runs under a supervisor that catches panics and restarts the loop after
//! jittered exponential backoff ([`Backoff`]); each *connection worker*
//! catches panics around the submission pipeline, attributes the failure to
//! the submitting tenant, and feeds the per-tenant [`BreakerBank`]. A
//! tenant that keeps poisoning workers trips its breaker open and is
//! quarantined (`ERR quarantined`) until a half-open probe succeeds —
//! one bad tenant cannot crash-loop the daemon or starve its neighbours.

use crate::ServeError;
use aprof_faults::jittered_backoff;
use aprof_obs::counters;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-tenant circuit-breaker policy: [`BreakerConfig::failures`] failures
/// within [`BreakerConfig::window`] trip the breaker open; after
/// [`BreakerConfig::cooldown`] one probe submission is admitted half-open,
/// and its outcome decides between closing the breaker and re-opening it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Failures within the sliding window that trip the breaker.
    pub failures: u32,
    /// Length of the sliding failure window.
    pub window: Duration,
    /// How long a tripped tenant stays quarantined before a half-open
    /// probe is allowed through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failures: 5,
            window: Duration::from_secs(30),
            cooldown: Duration::from_secs(3),
        }
    }
}

/// How a supervised submission ended, from the breaker's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The stream committed (or resolved as an idempotent duplicate).
    Success,
    /// A tenant-attributable failure: worker panic, corrupt/truncated
    /// wire bytes, or a blown stream deadline.
    Failure,
    /// Refused for reasons that say nothing about the tenant's traces
    /// (backpressure, quotas, daemon-side I/O): neither evidence of
    /// health nor of poison.
    Indeterminate,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open { since: Instant },
    /// One probe is in flight; further submissions stay rejected until it
    /// settles.
    HalfOpen,
}

#[derive(Debug)]
struct TenantBreaker {
    state: State,
    /// Failure timestamps inside the sliding window (pruned on record).
    failures: Vec<Instant>,
}

impl Default for TenantBreaker {
    fn default() -> Self {
        TenantBreaker { state: State::Closed, failures: Vec::new() }
    }
}

/// All tenants' breakers behind one lock. Queries are cheap (a map lookup)
/// and only submissions consult it — the read endpoints keep answering for
/// quarantined tenants.
pub(crate) struct BreakerBank {
    cfg: BreakerConfig,
    inner: Mutex<BTreeMap<String, TenantBreaker>>,
}

impl BreakerBank {
    pub(crate) fn new(cfg: BreakerConfig) -> BreakerBank {
        BreakerBank { cfg, inner: Mutex::new(BTreeMap::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, TenantBreaker>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gate for one submission. `Ok(())` admits (possibly as the half-open
    /// probe); `Err(Quarantined)` refuses. Every admitted submission MUST
    /// later be settled via [`BreakerBank::settle`], or a half-open probe
    /// would wedge its tenant.
    pub(crate) fn admit(&self, tenant: &str) -> Result<(), ServeError> {
        let mut inner = self.lock();
        let b = inner.entry(tenant.to_owned()).or_default();
        match b.state {
            State::Closed => Ok(()),
            State::Open { since } if since.elapsed() >= self.cfg.cooldown => {
                b.state = State::HalfOpen;
                counters::SERVE_BREAKER_PROBES.incr();
                Ok(())
            }
            State::Open { .. } | State::HalfOpen => {
                counters::SERVE_BREAKER_REJECTIONS.incr();
                Err(ServeError::Quarantined)
            }
        }
    }

    /// Settles an admitted submission. Success closes a half-open breaker
    /// ([`counters::SERVE_BREAKER_RECOVERIES`]); failure pushes the sliding
    /// window (tripping the breaker at the threshold) or re-opens a
    /// half-open one; an indeterminate outcome returns a consumed probe
    /// without penalty so the next submission may probe again.
    pub(crate) fn settle(&self, tenant: &str, outcome: Outcome) {
        let now = Instant::now();
        let mut inner = self.lock();
        let b = inner.entry(tenant.to_owned()).or_default();
        match (outcome, b.state) {
            (Outcome::Success, State::HalfOpen) => {
                b.state = State::Closed;
                b.failures.clear();
                counters::SERVE_BREAKER_RECOVERIES.incr();
            }
            (Outcome::Success, _) => {}
            (Outcome::Failure, State::HalfOpen) => {
                // The probe failed: straight back to quarantine for a full
                // cooldown. Counted as a fresh trip.
                b.state = State::Open { since: now };
                counters::SERVE_BREAKER_TRIPS.incr();
            }
            (Outcome::Failure, State::Closed) => {
                b.failures.push(now);
                let window = self.cfg.window;
                b.failures.retain(|t| now.duration_since(*t) <= window);
                if b.failures.len() >= self.cfg.failures.max(1) as usize {
                    b.state = State::Open { since: now };
                    b.failures.clear();
                    counters::SERVE_BREAKER_TRIPS.incr();
                }
            }
            (Outcome::Failure, State::Open { .. }) => {}
            (Outcome::Indeterminate, State::HalfOpen) => {
                // Give the probe back: re-open with an elapsed cooldown so
                // the very next submission may probe again.
                let since = now.checked_sub(self.cfg.cooldown).unwrap_or(now);
                b.state = State::Open { since };
            }
            (Outcome::Indeterminate, _) => {}
        }
    }
}

/// Deterministic jittered exponential backoff schedule for supervisor
/// restarts and accept errors: wraps [`jittered_backoff`] with an attempt
/// counter that [`Backoff::reset`] rewinds once the loop is healthy again.
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff { base, cap, seed, attempt: 0 }
    }

    /// The delay to sleep before the next restart; successive calls double
    /// the window up to the cap.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let d = jittered_backoff(self.base, self.cap, self.seed, self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        d
    }

    /// Rewinds the schedule: the next delay is drawn from `[base/2, base]`
    /// again. The accept loop calls it on each connection it hands to a
    /// worker.
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failures: 3,
            window: Duration::from_secs(10),
            cooldown: Duration::from_millis(20),
        }
    }

    #[test]
    fn trips_after_threshold_and_quarantines() {
        let bank = BreakerBank::new(cfg());
        for _ in 0..3 {
            bank.admit("t").unwrap();
            bank.settle("t", Outcome::Failure);
        }
        assert!(matches!(bank.admit("t"), Err(ServeError::Quarantined)));
        // Other tenants are unaffected.
        bank.admit("other").unwrap();
    }

    #[test]
    fn half_open_probe_recovers() {
        let bank = BreakerBank::new(cfg());
        for _ in 0..3 {
            bank.admit("t").unwrap();
            bank.settle("t", Outcome::Failure);
        }
        assert!(bank.admit("t").is_err());
        std::thread::sleep(Duration::from_millis(25));
        // First post-cooldown submission probes; a concurrent one is still
        // rejected until the probe settles.
        bank.admit("t").unwrap();
        assert!(bank.admit("t").is_err());
        bank.settle("t", Outcome::Success);
        bank.admit("t").unwrap();
        bank.settle("t", Outcome::Success);
    }

    #[test]
    fn failed_probe_reopens_and_indeterminate_returns_it() {
        let bank = BreakerBank::new(cfg());
        for _ in 0..3 {
            bank.admit("t").unwrap();
            bank.settle("t", Outcome::Failure);
        }
        std::thread::sleep(Duration::from_millis(25));
        bank.admit("t").unwrap();
        bank.settle("t", Outcome::Failure);
        // Re-opened: rejected again without waiting out a new cooldown.
        assert!(bank.admit("t").is_err());
        std::thread::sleep(Duration::from_millis(25));
        bank.admit("t").unwrap();
        // An indeterminate probe (e.g. shed busy) is returned without
        // penalty: the next submission may probe immediately.
        bank.settle("t", Outcome::Indeterminate);
        bank.admit("t").unwrap();
        bank.settle("t", Outcome::Success);
    }

    #[test]
    fn window_prunes_old_failures() {
        let bank = BreakerBank::new(BreakerConfig {
            failures: 3,
            window: Duration::from_millis(10),
            cooldown: Duration::from_secs(10),
        });
        for _ in 0..2 {
            bank.admit("t").unwrap();
            bank.settle("t", Outcome::Failure);
        }
        std::thread::sleep(Duration::from_millis(15));
        // The two old failures fell out of the window: one more does not
        // trip.
        bank.admit("t").unwrap();
        bank.settle("t", Outcome::Failure);
        bank.admit("t").unwrap();
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(64), 7);
        let mut last = Duration::ZERO;
        for _ in 0..10 {
            let d = b.next_delay();
            assert!(d <= Duration::from_millis(64));
            assert!(d >= Duration::from_micros(400), "{d:?}");
            last = d;
        }
        assert!(last >= Duration::from_millis(32), "{last:?}");
    }

    #[test]
    fn backoff_reset_rewinds_to_base() {
        let (base, cap) = (Duration::from_millis(1), Duration::from_millis(100));
        let mut b = Backoff::new(base, cap, 7);
        for _ in 0..10 {
            b.next_delay();
        }
        assert!(b.next_delay() >= cap / 2, "the delay never reached the cap");
        b.reset();
        let d = b.next_delay();
        assert!((base / 2..=base).contains(&d), "{d:?}");
    }
}

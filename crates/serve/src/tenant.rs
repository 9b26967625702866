//! Per-tenant state: aggregates, quotas, and the backpressure gate.

use crate::{ServeConfig, ServeError};
use aprof_core::ProfileReport;
use aprof_obs::counters;
use aprof_vm::ResourceLimits;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One tenant's committed state plus its in-flight accounting.
#[derive(Default)]
struct TenantState {
    /// Streams currently decoding (bounded by `max_in_flight`).
    in_flight: usize,
    /// Ids of the streams currently decoding. A stream id admits at most
    /// one submission at a time — concurrent retries of the same id would
    /// otherwise race on one `.part` spool file and could corrupt a
    /// commit; later arrivals wait out the first and then resolve as a
    /// duplicate or a fresh admission.
    active: BTreeSet<String>,
    /// Events of committed streams plus those reserved by streams between
    /// their quota check and their durable rename.
    events_total: u64,
    /// Spool footprint of committed and reserved streams, in 8-byte cells.
    spooled_cells: u64,
    /// Ids of the committed streams.
    committed: BTreeSet<String>,
    /// The committed streams' profiles, merged. Queries clone the `Arc`
    /// and render outside the lock; a commit copies the report only while
    /// such a clone is still alive.
    aggregate: Arc<ProfileReport>,
}

/// A row of the `TENANTS` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Committed streams.
    pub streams: usize,
    /// Events aggregated across those streams.
    pub events: u64,
    /// Spool footprint in 8-byte cells.
    pub spooled_cells: u64,
    /// Streams currently decoding.
    pub in_flight: usize,
}

/// What `admit` decided for a submission.
pub(crate) enum Admission<'a> {
    /// Proceed; the guard holds an in-flight slot and carries the event
    /// budget left at admission time.
    Slot(SlotGuard<'a>),
    /// The stream id is already committed — acknowledge idempotently
    /// without aggregating again.
    Duplicate,
}

/// The tenant registry: all tenant state behind one lock, plus the condvar
/// that parks submissions waiting out backpressure.
pub(crate) struct Registry {
    inner: Mutex<BTreeMap<String, TenantState>>,
    cv: Condvar,
    max_in_flight: usize,
    queue_timeout: Duration,
    quota: ResourceLimits,
    /// The retry-after hint carried by busy refusals.
    retry_after: Duration,
}

impl Registry {
    pub(crate) fn new(cfg: &ServeConfig) -> Registry {
        Registry {
            inner: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
            max_in_flight: cfg.max_in_flight.max(1),
            queue_timeout: cfg.queue_timeout,
            quota: cfg.quota,
            retry_after: cfg.shed.retry_after,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, TenantState>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits (or refuses) a submission for `tenant`/`stream`.
    ///
    /// Blocks while the tenant is at its in-flight cap — that wait *is* the
    /// backpressure: the daemon stops reading the socket, the kernel's
    /// buffers fill, and the client's writes stall. Waiting past
    /// `queue_timeout` refuses the stream busy. A stalled admission bumps
    /// `serve.backpressure_stalls` once, however many wakeups it takes.
    pub(crate) fn admit(&self, tenant: &str, stream: &str) -> Result<Admission<'_>, ServeError> {
        let deadline = Instant::now() + self.queue_timeout;
        let mut inner = self.lock();
        let mut stalled = false;
        loop {
            let state = inner.entry(tenant.to_owned()).or_default();
            if state.committed.contains(stream) {
                return Ok(Admission::Duplicate);
            }
            if state.events_total >= self.quota.max_instructions {
                counters::SERVE_QUOTA_TRIPS.incr();
                return Err(ServeError::Quota(format!(
                    "tenant {tenant} exhausted its event budget ({})",
                    self.quota.max_instructions
                )));
            }
            if state.in_flight < self.max_in_flight && !state.active.contains(stream) {
                state.in_flight += 1;
                state.active.insert(stream.to_owned());
                let budget = self.quota.max_instructions - state.events_total;
                return Ok(Admission::Slot(SlotGuard {
                    registry: self,
                    tenant: tenant.to_owned(),
                    stream: stream.to_owned(),
                    events_budget: budget,
                }));
            }
            if !stalled {
                stalled = true;
                counters::SERVE_BACKPRESSURE_STALLS.incr();
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Busy { retry_after: self.retry_after });
            }
            let (guard, _timeout) =
                self.cv.wait_timeout(inner, deadline - now).unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    fn release(&self, tenant: &str, stream: &str) {
        let mut inner = self.lock();
        if let Some(state) = inner.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
            state.active.remove(stream);
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Reserves a validated stream's events and spool cells before its
    /// durable rename, enforcing both quotas. Streams admitted together
    /// each got the whole budget left at admission, so the event budget is
    /// checked again here, against every reservation so far. A failed
    /// rename hands the reservation back with [`Registry::unreserve`]; a
    /// successful one is followed by [`Registry::commit`].
    pub(crate) fn reserve(&self, tenant: &str, events: u64, cells: u64) -> Result<(), ServeError> {
        let mut inner = self.lock();
        let state = inner.entry(tenant.to_owned()).or_default();
        if state.events_total.saturating_add(events) > self.quota.max_instructions {
            counters::SERVE_QUOTA_TRIPS.incr();
            return Err(ServeError::Quota(format!(
                "tenant {tenant} would exceed its event budget ({})",
                self.quota.max_instructions
            )));
        }
        if state.spooled_cells.saturating_add(cells) > self.quota.max_alloc_cells {
            counters::SERVE_QUOTA_TRIPS.incr();
            return Err(ServeError::Quota(format!(
                "tenant {tenant} would exceed its spool quota ({} cells)",
                self.quota.max_alloc_cells
            )));
        }
        state.events_total += events;
        state.spooled_cells += cells;
        Ok(())
    }

    /// Hands back a [`Registry::reserve`] whose durable rename failed.
    pub(crate) fn unreserve(&self, tenant: &str, events: u64, cells: u64) {
        if let Some(state) = self.lock().get_mut(tenant) {
            state.events_total = state.events_total.saturating_sub(events);
            state.spooled_cells = state.spooled_cells.saturating_sub(cells);
        }
    }

    /// Folds a reserved stream, now durably renamed, into its tenant's
    /// aggregate. The caller still holds the stream's in-flight slot, so a
    /// retry of the same id waits until the id is committed here.
    pub(crate) fn commit(&self, tenant: &str, stream: &str, report: &ProfileReport, events: u64) {
        let mut inner = self.lock();
        let state = inner.entry(tenant.to_owned()).or_default();
        Arc::make_mut(&mut state.aggregate).absorb(report);
        state.committed.insert(stream.to_owned());
        counters::SERVE_STREAMS_COMMITTED.incr();
        counters::SERVE_EVENTS_AGGREGATED.add(events);
        Self::count_active(&inner);
    }

    /// Re-installs a stream recovered from the spool (no quota checks — it
    /// was already admitted and committed in a previous life).
    pub(crate) fn restore(
        &self,
        tenant: &str,
        stream: &str,
        report: &ProfileReport,
        events: u64,
        cells: u64,
    ) {
        let mut inner = self.lock();
        let state = inner.entry(tenant.to_owned()).or_default();
        state.events_total += events;
        state.spooled_cells += cells;
        Arc::make_mut(&mut state.aggregate).absorb(report);
        state.committed.insert(stream.to_owned());
        Self::count_active(&inner);
    }

    fn count_active(inner: &BTreeMap<String, TenantState>) {
        let active = inner.values().filter(|t| !t.committed.is_empty()).count() as u64;
        counters::SERVE_ACTIVE_TENANTS.store(active);
    }

    /// The tenant's aggregate over its committed streams. `None` for
    /// unknown/empty tenants.
    pub(crate) fn aggregate(&self, tenant: &str) -> Option<Arc<ProfileReport>> {
        let inner = self.lock();
        let state = inner.get(tenant)?;
        (!state.committed.is_empty()).then(|| Arc::clone(&state.aggregate))
    }

    /// All tenants, in name order.
    pub(crate) fn summaries(&self) -> Vec<TenantSummary> {
        self.lock()
            .iter()
            .map(|(tenant, state)| TenantSummary {
                tenant: tenant.clone(),
                streams: state.committed.len(),
                events: state.events_total,
                spooled_cells: state.spooled_cells,
                in_flight: state.in_flight,
            })
            .collect()
    }

    /// Committed spool footprint across all tenants, in 8-byte cells (the
    /// load shedder's spool-headroom input).
    pub(crate) fn total_spooled_cells(&self) -> u64 {
        self.lock().values().map(|t| t.spooled_cells).sum()
    }

    /// Events a tenant has committed so far (the load shedder's
    /// tenant-pressure input; 0 for unknown tenants).
    pub(crate) fn tenant_events(&self, tenant: &str) -> u64 {
        self.lock().get(tenant).map_or(0, |t| t.events_total)
    }
}

/// RAII in-flight slot: released on drop, including on panic, so an
/// injected worker panic cannot leak a tenant's slot and wedge its queue.
pub(crate) struct SlotGuard<'a> {
    registry: &'a Registry,
    tenant: String,
    stream: String,
    events_budget: u64,
}

impl SlotGuard<'_> {
    /// Events this stream may still aggregate (budget snapshot at
    /// admission).
    pub(crate) fn events_budget(&self) -> u64 {
        self.events_budget
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.registry.release(&self.tenant, &self.stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn retry_in_the_commit_window_waits_then_is_admitted_fresh() {
        let registry = Registry::new(&ServeConfig::new("unused-spool"));
        let Ok(Admission::Slot(first)) = registry.admit("web", "s-1") else {
            panic!("the first submission must get a slot");
        };
        // The stream validated and reserved its quota; its durable rename
        // has not happened yet.
        registry.reserve("web", 10, 4).unwrap();
        let (tx, rx) = mpsc::channel();
        let retry = &registry;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let fresh = matches!(retry.admit("web", "s-1"), Ok(Admission::Slot(_)));
                tx.send(fresh).unwrap();
            });
            assert!(
                rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "a retry was answered before its stream was durable"
            );
            // The rename failed: the reservation goes back, the slot frees.
            registry.unreserve("web", 10, 4);
            drop(first);
            assert!(
                rx.recv().unwrap(),
                "the retry must be admitted fresh, not acked as a duplicate"
            );
        });
        let web = &registry.summaries()[0];
        assert_eq!((web.streams, web.events, web.spooled_cells), (0, 0, 0));
    }

    #[test]
    fn streams_admitted_together_cannot_overrun_the_event_quota() {
        let mut cfg = ServeConfig::new("unused-spool");
        cfg.quota.max_instructions = 100;
        let registry = Registry::new(&cfg);
        let Ok(Admission::Slot(first)) = registry.admit("web", "s-1") else {
            panic!("the first submission must get a slot");
        };
        let Ok(Admission::Slot(second)) = registry.admit("web", "s-2") else {
            panic!("the second submission must get a slot");
        };
        // Each admission saw the whole budget, so each stream may decode
        // 80 events; only one of them fits.
        assert_eq!((first.events_budget(), second.events_budget()), (100, 100));
        registry.reserve("web", 80, 1).unwrap();
        assert!(matches!(registry.reserve("web", 80, 1), Err(ServeError::Quota(_))));
        let web = &registry.summaries()[0];
        assert!(web.events <= 100, "the tenant holds {} of 100 events", web.events);
    }
}

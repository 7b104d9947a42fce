//! Raw monitors (§II-B c) and the LOCK agent's monitor ledger.
//!
//! "A raw monitor is a synchronization aid. We use a raw monitor to
//! synchronize access to global data, i.e., the overall profiling
//! statistics, which are updated upon thread termination."
//!
//! The [`MonitorLedger`] is the contention-observation plane the LOCK
//! agent enables (gated on `can_observe_raw_monitors`): every raw monitor
//! registers itself at creation, and while the ledger is enabled each
//! `RawMonitorEnter` records an acquisition, detects contention (the
//! entering thread differs from the monitor's previous owner), and charges
//! the modeled blocked cycles — the previous owner's last hold duration —
//! to the waiting thread's PCL clock inside a LOCK probe span. Disabled
//! (the default), the ledger costs one atomic load per enter, so SPA/IPA
//! runs are byte-identical to the pre-ledger VM.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

use jvmsim_faults::FaultSite;
use jvmsim_pcl::{ClockHandle, Timestamp};
use jvmsim_vm::{ThreadId, TraceEventKind, TraceSink};

use crate::env::{JvmtiEnv, ProbeKind};

/// Per-monitor contention statistics, as reported by
/// [`MonitorLedger::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorRow {
    /// The monitor's name (diagnostics; assigned at creation).
    pub name: String,
    /// Total acquisitions (`RawMonitorEnter` calls, charged or not).
    pub entries: u64,
    /// Acquisitions that found the monitor last held by a different
    /// thread — the deterministic contention model. Always ≤ `entries`.
    pub contended: u64,
    /// Modeled cycles threads spent blocked on this monitor (sum of the
    /// previous owner's hold duration over every contended entry).
    pub blocked_cycles: u64,
    /// Contention records diverted by the `monitor-ledger-corrupt` fault
    /// site: observed but deliberately not recorded.
    pub discarded: u64,
}

/// A snapshot of the whole ledger (what the LOCK agent's report renders).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Every registered monitor, in creation order.
    pub monitors: Vec<MonitorRow>,
    /// Blocked cycles charged per thread index — the other side of the
    /// double-entry ledger: `Σ per_thread_blocked == Σ monitors.blocked`.
    pub per_thread_blocked: Vec<u64>,
}

impl LedgerSnapshot {
    /// Total acquisitions across all monitors.
    pub fn total_entries(&self) -> u64 {
        self.monitors.iter().map(|m| m.entries).sum()
    }

    /// Total contended (recorded) acquisitions.
    pub fn total_contended(&self) -> u64 {
        self.monitors.iter().map(|m| m.contended).sum()
    }

    /// Total blocked cycles charged (per-monitor side).
    pub fn total_blocked(&self) -> u64 {
        self.monitors.iter().map(|m| m.blocked_cycles).sum()
    }

    /// Total discarded contention records (fault plane).
    pub fn total_discarded(&self) -> u64 {
        self.monitors.iter().map(|m| m.discarded).sum()
    }
}

#[derive(Debug, Default)]
struct MonitorState {
    name: String,
    entries: u64,
    contended: u64,
    blocked_cycles: u64,
    discarded: u64,
    last_owner: Option<usize>,
    last_hold_cycles: u64,
}

#[derive(Debug, Default)]
struct LedgerInner {
    monitors: Vec<MonitorState>,
    per_thread_blocked: Vec<u64>,
}

/// The raw-monitor observation plane (see module docs). One per
/// [`JvmtiEnv`] family; shared by every monitor the env creates.
#[derive(Default)]
pub struct MonitorLedger {
    enabled: AtomicBool,
    trace: OnceLock<Arc<dyn TraceSink>>,
    inner: Mutex<LedgerInner>,
}

impl std::fmt::Debug for MonitorLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorLedger")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MonitorLedger {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Is contention bookkeeping on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Adopt a trace sink: contended entries emit `MonitorContend` events.
    /// First caller wins (the ledger outlives any one agent).
    pub fn set_trace(&self, trace: Arc<dyn TraceSink>) {
        let _ = self.trace.set(trace);
    }

    /// Register a monitor, returning its stable id (creation order).
    pub(crate) fn register(&self, name: &str) -> usize {
        let mut g = self.inner.lock();
        let id = g.monitors.len();
        g.monitors.push(MonitorState {
            name: name.to_owned(),
            ..MonitorState::default()
        });
        id
    }

    /// Record one `RawMonitorEnter` by `thread` on monitor `id`; called
    /// only while enabled. Charges modeled blocked cycles to the waiting
    /// thread inside a LOCK probe span, so the wait lands in the
    /// `lock_probe` attribution bucket.
    fn note_enter(&self, env: &JvmtiEnv, id: usize, clock: &ClockHandle) {
        let thread = ThreadId::from_index(clock.id().index());
        let blocked = {
            let mut g = self.inner.lock();
            let s = &mut g.monitors[id];
            s.entries += 1;
            let contended = s.last_owner.is_some_and(|o| o != thread.index());
            if !contended {
                None
            } else if env.fault(FaultSite::MonitorLedgerCorrupt).is_some() {
                // Fault plane: the record is diverted, never silently lost
                // — `observed == recorded + discarded` stays balanced, and
                // the wait is not charged (a discarded record must not
                // perturb the clock it failed to account).
                s.discarded += 1;
                None
            } else {
                s.contended += 1;
                let blocked = s.last_hold_cycles;
                s.blocked_cycles += blocked;
                if thread.index() >= g.per_thread_blocked.len() {
                    g.per_thread_blocked.resize(thread.index() + 1, 0);
                }
                g.per_thread_blocked[thread.index()] += blocked;
                Some(blocked)
            }
        };
        if let Some(blocked) = blocked {
            let _span = env.probe_span(clock, ProbeKind::Lock);
            env.charge(clock, blocked);
            if let Some(trace) = self.trace.get() {
                let now = env.timestamp_unaccounted(clock);
                trace.record(thread, TraceEventKind::MonitorContend, now.cycles(), None);
            }
        }
    }

    /// Record a release: `thread` held monitor `id` for `held_cycles`.
    fn note_release(&self, id: usize, thread: usize, held_cycles: u64) {
        let mut g = self.inner.lock();
        let s = &mut g.monitors[id];
        s.last_owner = Some(thread);
        s.last_hold_cycles = held_cycles;
    }

    /// Snapshot every monitor and the per-thread blocked ledger.
    pub fn snapshot(&self) -> LedgerSnapshot {
        let g = self.inner.lock();
        LedgerSnapshot {
            monitors: g
                .monitors
                .iter()
                .map(|s| MonitorRow {
                    name: s.name.clone(),
                    entries: s.entries,
                    contended: s.contended,
                    blocked_cycles: s.blocked_cycles,
                    discarded: s.discarded,
                })
                .collect(),
            per_thread_blocked: g.per_thread_blocked.clone(),
        }
    }
}

/// A JVMTI raw monitor protecting a value of type `T`.
///
/// Entering charges the raw-monitor cost to the entering thread's clock, so
/// agent synchronization appears in the measured cycle counts.
pub struct RawMonitor<T> {
    name: String,
    env: JvmtiEnv,
    id: usize,
    data: Arc<Mutex<T>>,
}

impl<T> std::fmt::Debug for RawMonitor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawMonitor")
            .field("name", &self.name)
            .finish()
    }
}

impl<T> Clone for RawMonitor<T> {
    fn clone(&self) -> Self {
        RawMonitor {
            name: self.name.clone(),
            env: self.env.clone(),
            id: self.id,
            data: Arc::clone(&self.data),
        }
    }
}

impl<T> RawMonitor<T> {
    pub(crate) fn new(name: String, env: JvmtiEnv, initial: T) -> Self {
        let id = env.monitor_ledger().register(&name);
        RawMonitor {
            name,
            env,
            id,
            data: Arc::new(Mutex::new(initial)),
        }
    }

    /// Monitor name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `RawMonitorEnter` on behalf of the thread owning `clock`; the
    /// guard is `RawMonitorExit`.
    pub fn enter<'a>(&'a self, clock: &'a ClockHandle) -> MonitorGuard<'a, T> {
        self.env.charge(clock, self.env.costs().raw_monitor);
        let ledger = self.env.monitor_ledger();
        let enabled = ledger.is_enabled();
        if enabled {
            // Contention is observed *before* acquiring, like a real
            // monitor: the entering thread sees the previous owner.
            ledger.note_enter(&self.env, self.id, clock);
        }
        let guard = self.data.lock();
        // Hold time starts once the lock is held, on the owner's clock.
        let release = enabled.then(|| ReleaseNote {
            ledger,
            id: self.id,
            clock,
            entered: clock.timestamp(),
        });
        MonitorGuard { release, guard }
    }

    /// Lock without charging any thread — for post-run report extraction,
    /// when no benchmark thread is executing. Invisible to the ledger.
    pub fn enter_unaccounted(&self) -> MonitorGuard<'_, T> {
        MonitorGuard {
            release: None,
            guard: self.data.lock(),
        }
    }
}

struct ReleaseNote<'a> {
    ledger: &'a MonitorLedger,
    id: usize,
    clock: &'a ClockHandle,
    entered: Timestamp,
}

/// RAII guard for one raw-monitor acquisition (`RawMonitorExit` on drop).
/// Dereferences to the protected data; when the ledger is enabled, drop
/// records the hold duration that prices the *next* contended entry.
#[must_use = "the monitor is held only while the guard is alive"]
pub struct MonitorGuard<'a, T> {
    // Declared before `guard` so the release note (which reads the clock
    // and locks the ledger) runs while the monitor is still held.
    release: Option<ReleaseNote<'a>>,
    guard: MutexGuard<'a, T>,
}

impl<T> Deref for MonitorGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MonitorGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for MonitorGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(r) = self.release.take() {
            let now = r.clock.timestamp();
            r.ledger
                .note_release(r.id, r.clock.id().index(), now.cycles_since(r.entered));
        }
    }
}

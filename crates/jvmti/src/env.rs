//! The agent environment, agent trait, and attach protocol.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use jvmsim_faults::{FaultInjector, FaultSite};
use jvmsim_metrics::{Bucket, BucketGuard, CounterId, HistogramId, MetricsShard};
use jvmsim_pcl::{ClockHandle, Pcl, Timestamp};
use jvmsim_vm::cost::CostModel;
use jvmsim_vm::jni::{JniCallKey, JniEntryFn};
use jvmsim_vm::{
    AgentThread, AllocationView, EventMask, MethodView, NativeLibrary, Vm, VmEventSink,
};

use crate::caps::{Capabilities, EventType};
use crate::error::JvmtiError;
use crate::monitor::{MonitorLedger, RawMonitor};
use crate::tls::ThreadLocalStorage;

/// A JVMTI environment — the handle an agent keeps after load.
///
/// Cheap to clone; provides cycle-charged access to PCL timestamps,
/// thread-local storage and raw monitors, mirroring the services the
/// paper's C agents get from the real JVMTI + PCL. Thread-addressed
/// services take the thread's [`ClockHandle`] (an event callback finds it
/// in its [`AgentThread`]), so they charge and read the clock directly.
#[derive(Clone)]
pub struct JvmtiEnv {
    pcl: Pcl,
    costs: Arc<CostModel>,
    granted: Arc<RwLock<Capabilities>>,
    /// The VM's fault-injection plane (disabled unless a chaos run armed
    /// it): timestamp reads are where per-thread clock anomalies surface
    /// to agents.
    faults: Arc<FaultInjector>,
    /// The raw-monitor observation plane (disabled unless the LOCK agent
    /// enabled it; every monitor this env creates registers here).
    monitors: Arc<MonitorLedger>,
    /// Next thread-local storage key (one dense slot per key per thread).
    tls_keys: Arc<AtomicUsize>,
}

impl std::fmt::Debug for JvmtiEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JvmtiEnv")
            .field("granted", &*self.granted.read())
            .finish()
    }
}

impl JvmtiEnv {
    fn new(pcl: Pcl, costs: Arc<CostModel>, faults: Arc<FaultInjector>) -> Self {
        JvmtiEnv {
            pcl,
            costs,
            granted: Arc::new(RwLock::new(Capabilities::none())),
            faults,
            monitors: Arc::new(MonitorLedger::new()),
            tls_keys: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The cost model in force (agents charge themselves honestly with it).
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Capabilities granted so far.
    pub fn capabilities(&self) -> Capabilities {
        *self.granted.read()
    }

    /// Charge `cycles` of agent work to the thread owning `clock`.
    pub fn charge(&self, clock: &ClockHandle, cycles: u64) {
        clock.charge(cycles);
    }

    /// Read the thread's cycle counter — `PCL.getTimestamp(Thread)` —
    /// charging the read cost first (the read itself takes time, and that
    /// time is visible to the next read, exactly like a real `rdtsc` pair).
    pub fn timestamp(&self, clock: &ClockHandle) -> Timestamp {
        clock.charge(self.costs.timestamp_read);
        let ts = clock.timestamp();
        // Fault plane: a clock step-back anomaly — this reading observes
        // an instant *earlier* than the previous one. Agent meters must
        // saturate such intervals to zero, not underflow (pinned by the
        // chaos invariant checks).
        if let Some(entropy) = self.faults.inject(FaultSite::ClockStepBack) {
            return ts.rewound(entropy % 5_000 + 1);
        }
        ts
    }

    /// Read the thread's counter without charging (harness-side
    /// inspection).
    pub fn timestamp_unaccounted(&self, clock: &ClockHandle) -> Timestamp {
        clock.timestamp()
    }

    /// Open a self-timing probe span on the thread owning `clock`: until
    /// the returned guard drops, every cycle the clock charges is
    /// attributed to the probe's bucket rather than the workload, and on
    /// drop the span bumps the probe counter and records its own cycle
    /// cost in the probe-cost histogram. A no-op (still cheap and safe)
    /// when the clock mirrors no metric shard (no metrics registry).
    ///
    /// This is how probe cost self-attribution works: the probe bodies do
    /// not estimate their own overhead — the span measures it from the
    /// same virtual clock the workload runs on.
    pub fn probe_span<'a>(&self, clock: &'a ClockHandle, kind: ProbeKind) -> ProbeSpan<'a> {
        let state = clock.metrics().map(|shard| ProbeState {
            clock,
            shard,
            kind,
            start: clock.timestamp(),
            _guard: shard.enter(kind.bucket()),
        });
        ProbeSpan { state }
    }

    /// Consult the fault-injection plane at `site` — agents own their
    /// fault sites (the ALLOC site-table overflow, the LOCK ledger
    /// corruption) and consult them exactly like the VM consults its own.
    #[inline]
    pub fn fault(&self, site: FaultSite) -> Option<u64> {
        self.faults.inject(site)
    }

    /// Sum of every thread's cycle counter — the end-of-run tick the ALLOC
    /// agent prices lifetimes against (≥ any single thread's clock).
    pub fn total_cycles(&self) -> u64 {
        self.pcl.total_cycles()
    }

    /// The raw-monitor observation plane shared by every monitor this env
    /// creates.
    pub fn monitor_ledger(&self) -> &Arc<MonitorLedger> {
        &self.monitors
    }

    /// Allocate a thread-local storage key for agent data.
    pub fn create_tls<T: Send + 'static>(&self) -> ThreadLocalStorage<T> {
        ThreadLocalStorage::new(
            self.tls_keys.fetch_add(1, Ordering::Relaxed),
            self.costs.tls_access,
        )
    }

    /// Create a raw monitor protecting `initial`.
    pub fn create_raw_monitor<T>(&self, name: &str, initial: T) -> RawMonitor<T> {
        RawMonitor::new(name.to_owned(), self.clone(), initial)
    }
}

/// Which profiling approach a probe span belongs to (selects the
/// attribution bucket, counter and cost histogram in one go).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// An IPA transition probe (J2N/N2J bracket).
    Ipa,
    /// An SPA probe (`MethodEntry`/`MethodExit` body).
    Spa,
    /// An ALLOC allocation-event probe (site-table bookkeeping).
    Alloc,
    /// A LOCK contention probe (monitor-ledger bookkeeping + modeled wait).
    Lock,
}

impl ProbeKind {
    fn bucket(self) -> Bucket {
        match self {
            ProbeKind::Ipa => Bucket::IpaProbe,
            ProbeKind::Spa => Bucket::SpaProbe,
            ProbeKind::Alloc => Bucket::AllocProbe,
            ProbeKind::Lock => Bucket::LockProbe,
        }
    }

    fn counter(self) -> CounterId {
        match self {
            ProbeKind::Ipa => CounterId::IpaProbes,
            ProbeKind::Spa => CounterId::SpaProbes,
            ProbeKind::Alloc => CounterId::AllocProbes,
            ProbeKind::Lock => CounterId::LockProbes,
        }
    }

    fn histogram(self) -> HistogramId {
        match self {
            ProbeKind::Ipa => HistogramId::IpaProbeCycles,
            ProbeKind::Spa => HistogramId::SpaProbeCycles,
            ProbeKind::Alloc => HistogramId::AllocProbeCycles,
            ProbeKind::Lock => HistogramId::LockProbeCycles,
        }
    }
}

struct ProbeState<'a> {
    clock: &'a ClockHandle,
    shard: &'a MetricsShard,
    kind: ProbeKind,
    start: Timestamp,
    _guard: BucketGuard<'a>,
}

/// RAII guard for one probe activation (see [`JvmtiEnv::probe_span`]).
/// Dropping it closes the attribution scope, counts the probe, and records
/// the probe's measured cycle cost.
#[must_use = "a probe span attributes cost only while it is alive"]
pub struct ProbeSpan<'a> {
    state: Option<ProbeState<'a>>,
}

impl std::fmt::Debug for ProbeSpan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeSpan")
            .field("active", &self.state.is_some())
            .finish()
    }
}

impl Drop for ProbeSpan<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let end = state.clock.timestamp();
            state.shard.incr(state.kind.counter());
            state
                .shard
                .observe(state.kind.histogram(), end.cycles_since(state.start));
        }
    }
}

/// The set of events an agent enabled, one bit per [`EventType`].
#[derive(Debug, Clone, Copy, Default)]
struct EventSet(u8);

impl EventSet {
    fn insert(&mut self, event: EventType) {
        self.0 |= 1 << event as u8;
    }

    #[inline]
    fn contains(self, event: EventType) -> bool {
        self.0 & (1 << event as u8) != 0
    }
}

/// The `Agent_OnLoad` context: configuration that is only legal while the
/// agent is being attached.
pub struct AgentHost<'vm> {
    vm: &'vm mut Vm,
    env: JvmtiEnv,
    enabled: EventSet,
}

impl<'vm> AgentHost<'vm> {
    /// The environment handle to keep for the agent's lifetime.
    pub fn env(&self) -> JvmtiEnv {
        self.env.clone()
    }

    /// `AddCapabilities`.
    pub fn add_capabilities(&mut self, caps: Capabilities) {
        let mut g = self.env.granted.write();
        *g = g.with(caps);
    }

    /// `SetEventNotificationMode(JVMTI_ENABLE, event)`.
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] if the event's gating
    /// capability was not requested.
    pub fn enable_event(&mut self, event: EventType) -> Result<(), JvmtiError> {
        if !event.required_capability(self.env.capabilities()) {
            return Err(JvmtiError::MustPossessCapability(format!(
                "event {event} requires a capability that was not requested"
            )));
        }
        self.enabled.insert(event);
        Ok(())
    }

    /// `SetNativeMethodPrefix` (JVMTI 1.1).
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] without
    /// `can_set_native_method_prefix`; [`JvmtiError::IllegalArgument`] for
    /// an empty prefix.
    pub fn set_native_method_prefix(&mut self, prefix: &str) -> Result<(), JvmtiError> {
        if !self.env.capabilities().can_set_native_method_prefix {
            return Err(JvmtiError::MustPossessCapability(
                "can_set_native_method_prefix".into(),
            ));
        }
        if prefix.is_empty() {
            return Err(JvmtiError::IllegalArgument(
                "empty native method prefix".into(),
            ));
        }
        self.vm.register_native_prefix(prefix);
        Ok(())
    }

    /// Replace each of the 90 JNI `Call*Method*` functions through `wrap`
    /// (§II-B "JNI Function Interception"): `wrap` receives the function's
    /// identity and its current implementation and returns the replacement.
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] without
    /// `can_intercept_jni_calls`.
    pub fn intercept_jni_functions(
        &mut self,
        wrap: impl Fn(JniCallKey, JniEntryFn) -> JniEntryFn,
    ) -> Result<(), JvmtiError> {
        if !self.env.capabilities().can_intercept_jni_calls {
            return Err(JvmtiError::MustPossessCapability(
                "can_intercept_jni_calls".into(),
            ));
        }
        self.vm.jni_table_mut().intercept_all(wrap);
        Ok(())
    }

    /// Enable the raw-monitor observation plane: every `RawMonitorEnter`
    /// from now on is recorded in the [`MonitorLedger`] (the LOCK agent's
    /// data source).
    ///
    /// # Errors
    ///
    /// [`JvmtiError::MustPossessCapability`] without
    /// `can_observe_raw_monitors`.
    pub fn observe_raw_monitors(&mut self) -> Result<(), JvmtiError> {
        if !self.env.capabilities().can_observe_raw_monitors {
            return Err(JvmtiError::MustPossessCapability(
                "can_observe_raw_monitors".into(),
            ));
        }
        self.env.monitors.enable();
        Ok(())
    }

    /// `AddToBootstrapClassLoaderSearch` — the `-Xbootclasspath/p:` analog
    /// used to feed statically instrumented classes (including the rewritten
    /// `rt.jar`) to the VM.
    pub fn append_to_bootstrap_class_path<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (String, Vec<u8>)>,
    {
        self.vm.add_archive(entries);
    }

    /// Load the agent's own native library (e.g. the IPA bridge
    /// implementation) into the VM, immediately visible to resolution.
    ///
    /// Agent libraries are exempted from fault injection: their natives
    /// are measurement infrastructure (real JVMTI agent code runs outside
    /// the Java exception machinery), so the fault plane perturbs only
    /// application and JDK natives.
    pub fn load_agent_native_library(&mut self, mut lib: NativeLibrary) {
        lib.exempt_from_faults();
        self.vm.register_native_library(lib, true);
    }

    /// Escape hatch to the VM during `OnLoad` (used by tests and the
    /// harness; real agents should not need it).
    pub fn vm(&mut self) -> &mut Vm {
        self.vm
    }
}

/// A JVMTI agent. `on_load` is `Agent_OnLoad`; the event callbacks mirror
/// the JVMTI event set. Only events the agent enabled during `on_load` are
/// delivered, each with the [`AgentThread`] it happens on.
pub trait Agent: Send + Sync + 'static {
    /// Agent initialization: request capabilities, enable events, install
    /// interceptors, stash the [`JvmtiEnv`].
    ///
    /// # Errors
    ///
    /// Any [`JvmtiError`] aborts the attach.
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError>;

    /// `ThreadStart`.
    fn thread_start(&self, _thread: &mut AgentThread<'_>) {}
    /// `ThreadEnd`.
    fn thread_end(&self, _thread: &mut AgentThread<'_>) {}
    /// `MethodEntry`.
    fn method_entry(&self, _thread: &mut AgentThread<'_>, _method: MethodView<'_>) {}
    /// `MethodExit`.
    fn method_exit(
        &self,
        _thread: &mut AgentThread<'_>,
        _method: MethodView<'_>,
        _via_exception: bool,
    ) {
    }
    /// `VMDeath`, with every thread the VM created in id order (threads
    /// that never saw `ThreadEnd` still hold their thread-local storage).
    fn vm_death(&self, _threads: &mut [AgentThread<'_>]) {}
    /// `ClassFileLoadHook`: return replacement bytes to rewrite the class.
    fn class_file_load_hook(&self, _class_name: &str, _bytes: &[u8]) -> Option<Vec<u8>> {
        None
    }
    /// `Allocation`: the thread allocated one object.
    fn allocation(&self, _thread: &mut AgentThread<'_>, _alloc: AllocationView<'_>) {}
}

/// Adapter delivering VM events to the agent, filtered by what it enabled.
struct AgentSink {
    agent: Arc<dyn Agent>,
    enabled: EventSet,
}

impl VmEventSink for AgentSink {
    fn thread_start(&self, thread: &mut AgentThread<'_>) {
        if self.enabled.contains(EventType::ThreadStart) {
            self.agent.thread_start(thread);
        }
    }
    fn thread_end(&self, thread: &mut AgentThread<'_>) {
        if self.enabled.contains(EventType::ThreadEnd) {
            self.agent.thread_end(thread);
        }
    }
    fn vm_death(&self, threads: &mut [AgentThread<'_>]) {
        if self.enabled.contains(EventType::VmDeath) {
            self.agent.vm_death(threads);
        }
    }
    fn method_entry(&self, thread: &mut AgentThread<'_>, method: MethodView<'_>) {
        if self.enabled.contains(EventType::MethodEntry) {
            self.agent.method_entry(thread, method);
        }
    }
    fn method_exit(
        &self,
        thread: &mut AgentThread<'_>,
        method: MethodView<'_>,
        via_exception: bool,
    ) {
        if self.enabled.contains(EventType::MethodExit) {
            self.agent.method_exit(thread, method, via_exception);
        }
    }
    fn class_file_load(&self, class_name: &str, bytes: &[u8]) -> Option<Vec<u8>> {
        if self.enabled.contains(EventType::ClassFileLoadHook) {
            self.agent.class_file_load_hook(class_name, bytes)
        } else {
            None
        }
    }
    fn allocation(&self, thread: &mut AgentThread<'_>, alloc: AllocationView<'_>) {
        if self.enabled.contains(EventType::Allocation) {
            self.agent.allocation(thread, alloc);
        }
    }
}

/// Attach `agent` to `vm`: run `Agent_OnLoad`, install the event sink, and
/// set the VM event mask. If the agent enabled `MethodEntry`/`MethodExit`,
/// the mask disables JIT compilation — the cost the paper's SPA pays.
///
/// # Errors
///
/// Propagates any [`JvmtiError`] from the agent's `on_load`.
pub fn attach(vm: &mut Vm, agent: Arc<dyn Agent>) -> Result<JvmtiEnv, JvmtiError> {
    if vm.has_event_sink() {
        // A second agent would silently displace the first's sink while its
        // prefixes, interceptors and bridge library stayed installed.
        return Err(JvmtiError::IllegalArgument(
            "an agent is already attached to this VM".into(),
        ));
    }
    let env = JvmtiEnv::new(vm.pcl(), Arc::new(vm.cost().clone()), vm.fault_injector());
    let mut host = AgentHost {
        vm,
        env: env.clone(),
        enabled: EventSet::default(),
    };
    agent.on_load(&mut host)?;
    let enabled = host.enabled;
    let mask = EventMask {
        thread_events: enabled.contains(EventType::ThreadStart)
            || enabled.contains(EventType::ThreadEnd),
        method_events: enabled.contains(EventType::MethodEntry)
            || enabled.contains(EventType::MethodExit),
        vm_death: enabled.contains(EventType::VmDeath),
        class_file_load_hook: enabled.contains(EventType::ClassFileLoadHook),
        alloc_events: enabled.contains(EventType::Allocation),
    };
    vm.set_event_sink(Arc::new(AgentSink { agent, enabled }));
    vm.set_event_mask(mask);
    Ok(env)
}

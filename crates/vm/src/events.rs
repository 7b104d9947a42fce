//! Low-level VM event hooks.
//!
//! The VM exposes raw hook points; the `jvmsim-jvmti` crate layers the
//! JVMTI-shaped API (capabilities, environments, TLS, raw monitors) on top.
//! Keeping the trait here breaks the dependency cycle: the VM knows only
//! about an abstract sink, never about agents.

use std::any::Any;
use std::fmt;

use jvmsim_pcl::ClockHandle;

use crate::klass::MethodId;

/// Identifier of a VM (green) thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    /// Raw index of this thread in the VM's thread table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. The VM assigns real ids; this exists so
    /// sinks and their tests can synthesize events without a running VM.
    pub fn from_index(index: usize) -> Self {
        ThreadId(index as u32)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread#{}", self.0)
    }
}

/// The attached agent's thread-local storage on one thread: one dense slot
/// per TLS key, the analogue of the `void*` JVMTI keeps per environment
/// and thread. The VM owns it (in its thread table), so event delivery
/// reaches it through the thread index — no lock, no hash.
#[derive(Default)]
pub struct AgentLocals {
    slots: Vec<Option<Box<dyn Any + Send>>>,
}

impl fmt::Debug for AgentLocals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentLocals")
            .field("set", &self.slots.iter().filter(|s| s.is_some()).count())
            .finish()
    }
}

impl AgentLocals {
    /// Whether the slot for TLS key `key` holds a value.
    pub fn is_set(&self, key: usize) -> bool {
        self.slots.get(key).is_some_and(Option::is_some)
    }

    /// The slot for TLS key `key`, grown on first use.
    pub fn slot(&mut self, key: usize) -> &mut Option<Box<dyn Any + Send>> {
        if key >= self.slots.len() {
            self.slots.resize_with(key + 1, || None);
        }
        &mut self.slots[key]
    }
}

/// The thread an event is delivered on, as the agent sees it: its id, its
/// PCL clock and the agent's thread-local storage on it. Borrowed from the
/// VM's thread table for the duration of one callback.
#[derive(Debug)]
pub struct AgentThread<'a> {
    /// The thread's id.
    pub id: ThreadId,
    /// The thread's cycle clock (charges through it mirror into the
    /// thread's metric shard).
    pub clock: &'a ClockHandle,
    /// The agent's thread-local storage on this thread.
    pub locals: &'a mut AgentLocals,
}

/// Lightweight view of a method passed to event callbacks — the analogue of
/// the JVMTI `jmethodID` plus the metadata the paper's agents query
/// (`m.isNative()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodView<'a> {
    /// Stable method identifier.
    pub id: MethodId,
    /// Declaring class's internal name.
    pub class_name: &'a str,
    /// Method name.
    pub name: &'a str,
    /// Method descriptor string.
    pub descriptor: &'a str,
    /// The paper's `m.isNative()`.
    pub is_native: bool,
}

/// Which event categories the VM should dispatch.
///
/// Mirrors JVMTI event enabling. **Enabling method entry/exit events
/// disables JIT compilation** for the lifetime of the setting — the
/// documented HotSpot behaviour that makes SPA's overhead catastrophic
/// (§III of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask {
    /// `ThreadStart` / `ThreadEnd`.
    pub thread_events: bool,
    /// `MethodEntry` / `MethodExit` (forces interpreted-only execution).
    pub method_events: bool,
    /// `VMDeath`.
    pub vm_death: bool,
    /// `ClassFileLoadHook` (lets the sink rewrite classfile bytes before
    /// they are linked — the dynamic-instrumentation path of §IV).
    pub class_file_load_hook: bool,
    /// `Allocation` (the ALLOC agent's object-allocation hook; off for
    /// every other agent so the allocation fast path stays one branch).
    pub alloc_events: bool,
}

impl EventMask {
    /// All events off.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every event on (what SPA needs).
    pub fn all() -> Self {
        EventMask {
            thread_events: true,
            method_events: true,
            vm_death: true,
            class_file_load_hook: true,
            alloc_events: true,
        }
    }
}

/// One object allocation, as seen by the ALLOC agent's hook — the analogue
/// of JVMTI's `SampledObjectAlloc` payload, plus the *allocation site*
/// (class, method, bci) DJXPerf-style object-centric profilers key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationView<'a> {
    /// Internal name of the allocated object's class (or a synthetic label
    /// like `"long[]"` for arrays and `"java/lang/String"` for strings).
    pub class_name: &'a str,
    /// Modeled size of the allocation in bytes (see `HeapObject::model_bytes`).
    pub bytes: u64,
    /// Internal name of the class whose code performed the allocation.
    pub site_class: &'a str,
    /// Name of the method performing the allocation.
    pub site_method: &'a str,
    /// Bytecode index of the allocating instruction (0 for native sites).
    pub bci: u32,
}

/// Receiver of VM events. All methods have empty defaults so sinks override
/// only what they enable.
///
/// Callbacks take `&self` plus the [`AgentThread`] the event happens on:
/// per-thread agent state lives in that thread's [`AgentLocals`], shared
/// state behind interior mutability, exactly like a C JVMTI agent keeps
/// thread-local storage per thread and globals behind raw monitors.
/// Callbacks must not re-enter the VM.
pub trait VmEventSink: Send + Sync {
    /// A new thread is about to execute its initial method.
    fn thread_start(&self, _thread: &mut AgentThread<'_>) {}
    /// A thread finished its initial method (normally or exceptionally).
    fn thread_end(&self, _thread: &mut AgentThread<'_>) {}
    /// The VM is terminating; no events follow. `threads` holds every
    /// thread the VM created, in [`ThreadId`] order.
    fn vm_death(&self, _threads: &mut [AgentThread<'_>]) {}
    /// `thread` is entering `method` (bytecode *or* native).
    fn method_entry(&self, _thread: &mut AgentThread<'_>, _method: MethodView<'_>) {}
    /// `thread` is leaving `method`, by return or by exception.
    fn method_exit(
        &self,
        _thread: &mut AgentThread<'_>,
        _method: MethodView<'_>,
        _via_exception: bool,
    ) {
    }
    /// A classfile is about to be linked; return replacement bytes to
    /// rewrite it (dynamic instrumentation), or `None` to keep it.
    fn class_file_load(&self, _class_name: &str, _bytes: &[u8]) -> Option<Vec<u8>> {
        None
    }
    /// `thread` allocated one object (dispatched only when
    /// [`EventMask::alloc_events`] is set).
    fn allocation(&self, _thread: &mut AgentThread<'_>, _alloc: AllocationView<'_>) {}
}

/// A sink that ignores every event (useful as a baseline and in tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl VmEventSink for NullSink {}

/// Category of a transition-trace event.
///
/// `J2nBegin`/`N2jBegin` mark the starts of the spans the paper's IPA banks
/// time into; their `*End` counterparts close the spans. `MethodCompile`
/// marks a method's interpreted→compiled promotion (threshold or OSR), and
/// `ThreadStart`/`ThreadEnd` bracket each thread's lifetime — including the
/// primordial thread, which JVMTI itself never announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// Bytecode → native transition (wrapper's `J2N_Begin`).
    J2nBegin,
    /// Return from native back into the wrapper (`J2N_End`).
    J2nEnd,
    /// Native → bytecode transition (intercepted `Call*Method*` entry).
    N2jBegin,
    /// The intercepted JNI call returned (`N2J_End`).
    N2jEnd,
    /// A method became JIT-compiled (invocation threshold or OSR).
    MethodCompile,
    /// A VM thread began executing its initial method.
    ThreadStart,
    /// A VM thread finished its initial method.
    ThreadEnd,
    /// The ALLOC agent recorded an object allocation at a site.
    AllocSite,
    /// The LOCK agent observed a contended raw-monitor entry.
    MonitorContend,
    /// A method was promoted to the C1 quick tier.
    TierUpC1,
    /// A method was promoted to the C2 optimizing tier.
    TierUpC2,
    /// An on-stack replacement: a running activation was switched to the
    /// next tier at a hot loop back-edge.
    Osr,
    /// A deoptimization: exception unwinding demoted a compiled method
    /// back to the interpreter.
    Deopt,
}

impl TraceEventKind {
    /// Number of distinct kinds (for per-kind counter arrays).
    pub const COUNT: usize = 13;

    /// Dense index of this kind in `[0, COUNT)`.
    pub fn index(self) -> usize {
        match self {
            TraceEventKind::J2nBegin => 0,
            TraceEventKind::J2nEnd => 1,
            TraceEventKind::N2jBegin => 2,
            TraceEventKind::N2jEnd => 3,
            TraceEventKind::MethodCompile => 4,
            TraceEventKind::ThreadStart => 5,
            TraceEventKind::ThreadEnd => 6,
            TraceEventKind::AllocSite => 7,
            TraceEventKind::MonitorContend => 8,
            TraceEventKind::TierUpC1 => 9,
            TraceEventKind::TierUpC2 => 10,
            TraceEventKind::Osr => 11,
            TraceEventKind::Deopt => 12,
        }
    }

    /// Short stable label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::J2nBegin => "j2n_begin",
            TraceEventKind::J2nEnd => "j2n_end",
            TraceEventKind::N2jBegin => "n2j_begin",
            TraceEventKind::N2jEnd => "n2j_end",
            TraceEventKind::MethodCompile => "method_compile",
            TraceEventKind::ThreadStart => "thread_start",
            TraceEventKind::ThreadEnd => "thread_end",
            TraceEventKind::AllocSite => "alloc_site",
            TraceEventKind::MonitorContend => "monitor_contend",
            TraceEventKind::TierUpC1 => "tier_up_c1",
            TraceEventKind::TierUpC2 => "tier_up_c2",
            TraceEventKind::Osr => "osr",
            TraceEventKind::Deopt => "deopt",
        }
    }
}

/// Receiver of transition-trace events.
///
/// Like [`VmEventSink`] this trait lives in the VM crate so higher layers
/// (the `jvmsim-trace` recorder, agents) can plug in without a dependency
/// cycle. Implementations must be cheap and lock-light: `record` is called
/// from transition probes whose cost the agents deliberately keep off the
/// measured spans, and it must never re-enter the VM.
///
/// `cycles` is the emitting thread's PCL virtual-clock reading at the
/// event; successive events on one thread therefore carry non-decreasing
/// `cycles`. `method` is set only for the compilation-pipeline kinds
/// ([`TraceEventKind::MethodCompile`], the `TierUp*` pair,
/// [`TraceEventKind::Osr`] and [`TraceEventKind::Deopt`]).
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, thread: ThreadId, kind: TraceEventKind, cycles: u64, method: Option<MethodId>);
}

/// Receiver of timer samples (the system-specific profiling interface
/// `tprof`-style samplers use — §VI of the paper).
///
/// Unlike [`VmEventSink`], this is **not** a portable JVMTI facility: a
/// real sampler hooks OS timer signals and compares the PC against a map of
/// loaded code modules. The simulator models it as a periodic callback
/// carrying only what such a sampler can actually see: which thread was
/// running and whether the sampled "PC" was inside a native library.
pub trait SampleSink: Send + Sync {
    /// One timer tick on `thread`; `in_native` is true when the sample hit
    /// native-library code.
    fn sample(&self, thread: ThreadId, in_native: bool);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks() {
        assert_eq!(EventMask::none(), EventMask::default());
        let all = EventMask::all();
        assert!(all.thread_events && all.method_events && all.vm_death);
        assert!(all.class_file_load_hook);
    }

    #[test]
    fn null_sink_defaults() {
        let s = NullSink;
        let pcl = jvmsim_pcl::Pcl::new();
        let clock = pcl.handle(pcl.register_thread());
        let mut locals = AgentLocals::default();
        let mut thread = AgentThread {
            id: ThreadId(0),
            clock: &clock,
            locals: &mut locals,
        };
        s.thread_start(&mut thread);
        s.vm_death(std::slice::from_mut(&mut thread));
        assert_eq!(s.class_file_load("a/B", &[1, 2, 3]), None);
    }

    #[test]
    fn trace_kind_indices_are_dense_and_labels_unique() {
        use TraceEventKind::*;
        let kinds = [
            J2nBegin,
            J2nEnd,
            N2jBegin,
            N2jEnd,
            MethodCompile,
            ThreadStart,
            ThreadEnd,
            AllocSite,
            MonitorContend,
            TierUpC1,
            TierUpC2,
            Osr,
            Deopt,
        ];
        assert_eq!(kinds.len(), TraceEventKind::COUNT);
        let mut seen_idx = [false; TraceEventKind::COUNT];
        let mut labels = std::collections::HashSet::new();
        for k in kinds {
            assert!(!seen_idx[k.index()], "duplicate index for {k:?}");
            seen_idx[k.index()] = true;
            assert!(labels.insert(k.label()), "duplicate label for {k:?}");
        }
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(4).to_string(), "thread#4");
        assert_eq!(ThreadId(4).index(), 4);
    }
}

//! Method invocation and call-site resolution.
//!
//! [`Vm::invoke`] is the single funnel for *every* method activation —
//! bytecode or native, from bytecode (`invokestatic`/`invokevirtual`), from
//! native code (JNI `Call*Method*`), or from the harness. That is exactly
//! where JVMTI's `MethodEntry`/`MethodExit` events hang, so SPA sees every
//! activation, and it is where the JIT invocation counter lives. Bytecode
//! bodies run in the interpreter loop of `prepared.rs`; the resolvers
//! here are its inline-cache miss path.

use jvmsim_faults::FaultSite;
use jvmsim_metrics::{Bucket, CounterId};
use jvmsim_tiers::Tier;

use crate::events::ThreadId;
use crate::heap::HeapObject;
use crate::jni::{mangle, JniCallSpec, JniEnv};
use crate::klass::{CallSite, ClassId, MethodId, NativeBinding};
use crate::throw::JThrow;
use crate::value::Value;
use crate::vm::Vm;

impl Vm {
    /// Invoke `mid` with `args` (receiver first for instance methods) on
    /// `thread`. Dispatches `MethodEntry`/`MethodExit` events, maintains the
    /// call-depth guard, routes to native or bytecode execution.
    ///
    /// # Errors
    ///
    /// Returns the Java exception unwinding out of the callee, if any.
    pub(crate) fn invoke(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        args: Vec<Value>,
    ) -> Result<Value, JThrow> {
        self.stats.invocations += 1;
        self.metric_incr(thread, jvmsim_metrics::CounterId::Invocations);
        let depth = self.depth(thread);
        if depth >= self.max_call_depth() {
            return Err(self.throw_new(
                thread,
                "java/lang/StackOverflowError",
                "call depth exceeded",
            ));
        }
        self.set_depth(thread, depth + 1);
        let result = self.invoke_inner(thread, mid, args);
        self.set_depth(thread, depth);
        result
    }

    fn invoke_inner(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        args: Vec<Value>,
    ) -> Result<Value, JThrow> {
        let method_events = self.event_mask().method_events;
        if method_events {
            self.deliver(thread, |sink, cx, registry| {
                sink.method_entry(cx, registry.method_view(mid));
            });
        }
        let is_native = self.registry.method(mid).is_native();
        let result = if is_native {
            self.invoke_native(thread, mid, &args)
        } else {
            let jit_enabled = self.jit_enabled();
            let mode = self.effective_tiers_mode();
            let count = self.registry.note_invocation(mid);
            let mut tier = self.registry.effective_tier(mid, jit_enabled);
            // Promote one tier at a time at the invocation thresholds
            // (Interp→C1 at the C1 threshold, C1→C2 at the C2 threshold),
            // capped by the tiers mode's ceiling. `>=` rather than `==`:
            // a fault-aborted compile resets the counter, and a successful
            // promotion changes the tier so the lower threshold stops
            // applying — either way this fires at most once per call.
            if mode.allows_promotion_from(tier) {
                if let Some(threshold) = self.cost().tiers.invocation_threshold(tier) {
                    if count >= threshold {
                        if let Some(next) = tier.next() {
                            if self.tier_compile(thread, mid, next, false) {
                                tier = next;
                            }
                        }
                    }
                }
            }
            let overhead = self.cost().call_overhead(tier);
            self.charge(thread, overhead);
            self.note_tier_cycles(tier, overhead);
            self.execute(thread, mid, tier, args)
        };
        if method_events {
            let via_exception = result.is_err();
            self.deliver(thread, |sink, cx, registry| {
                sink.method_exit(cx, registry.method_view(mid), via_exception);
            });
        }
        result
    }

    // ------------------------------------------------------ tier pipeline

    /// Attribute `cycles` of bytecode-execution time (per-instruction
    /// charges and call overheads) to `tier`'s ground-truth column.
    pub(crate) fn note_tier_cycles(&mut self, tier: Tier, cycles: u64) {
        match tier {
            Tier::Interp => self.stats.interp_cycles += cycles,
            Tier::C1 => self.stats.c1_cycles += cycles,
            Tier::C2 => self.stats.c2_cycles += cycles,
        }
    }

    /// Compile `mid` at `target`, charging the compile cost to the calling
    /// thread under the tier's compile bucket. Returns `false` when the
    /// fault plane aborts the compile: half the cost is charged (the work
    /// thrown away), the invocation counter resets so the method must
    /// re-earn promotion, and the method stays at its current tier.
    pub(crate) fn tier_compile(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        target: Tier,
        osr: bool,
    ) -> bool {
        let insns = self.registry.insn_count(mid);
        let full = self.cost().tiers.compile_cost(target, insns);
        let aborted = self.faults_enabled() && self.fault(FaultSite::TierCompileAbort).is_some();
        let charged = if aborted { full / 2 } else { full };
        let bucket = match target {
            Tier::C1 => Bucket::C1Compile,
            _ => Bucket::C2Compile,
        };
        {
            let shard = self.thread_shard(thread);
            let _compile = shard.as_ref().map(|s| s.enter(bucket));
            self.charge(thread, charged);
        }
        match target {
            Tier::C1 => self.stats.c1_compile_cycles += charged,
            _ => self.stats.c2_compile_cycles += charged,
        }
        if aborted {
            self.stats.tier_compile_aborts += 1;
            self.metric_incr(thread, CounterId::TierCompileAborts);
            self.registry.reset_invocations(mid);
            return false;
        }
        let from = self.registry.tier_of(mid);
        self.registry.set_tier(mid, target);
        match target {
            Tier::C1 => {
                self.stats.c1_compiles += 1;
                self.metric_incr(thread, CounterId::C1Compiles);
            }
            _ => {
                self.stats.c2_compiles += 1;
                self.metric_incr(thread, CounterId::C2Compiles);
            }
        }
        // First departure from the interpreter still emits the legacy
        // MethodCompile event, so single-tier trace consumers keep working.
        if from == Tier::Interp {
            self.trace_emit(
                thread,
                crate::events::TraceEventKind::MethodCompile,
                Some(mid),
            );
        }
        let kind = match target {
            Tier::C1 => crate::events::TraceEventKind::TierUpC1,
            _ => crate::events::TraceEventKind::TierUpC2,
        };
        self.trace_emit(thread, kind, Some(mid));
        if osr {
            self.stats.osrs += 1;
            self.metric_incr(thread, CounterId::OsrReplacements);
            self.trace_emit(thread, crate::events::TraceEventKind::Osr, Some(mid));
        }
        true
    }

    /// Deoptimize `mid`: an exception is unwinding out of one of its
    /// compiled activations, so the compiled state is discarded and the
    /// method returns to the interpreter to re-earn promotion.
    pub(crate) fn deopt(&mut self, thread: ThreadId, mid: MethodId) {
        self.registry.set_tier(mid, Tier::Interp);
        self.registry.reset_invocations(mid);
        self.stats.deopts += 1;
        self.metric_incr(thread, CounterId::Deopts);
        self.trace_emit(thread, crate::events::TraceEventKind::Deopt, Some(mid));
    }

    // ----------------------------------------------------------- natives

    fn invoke_native(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        args: &[Value],
    ) -> Result<Value, JThrow> {
        self.stats.native_calls += 1;
        self.metric_incr(thread, jvmsim_metrics::CounterId::NativeCalls);
        // Resolve before charging so we know whether the target is agent
        // infrastructure: dispatching into a fault-exempt (agent bridge)
        // native is probe overhead, not workload time, and its cycles are
        // attributed to the configured agent bucket.
        let NativeBinding { f, fault_exempt } = self.resolve_native(thread, mid)?;
        let agent = if fault_exempt {
            self.agent_shard(thread)
        } else {
            None
        };
        let _agent = agent.as_ref().map(|(shard, bucket)| shard.enter(*bucket));
        let dispatch = self.cost().native_dispatch;
        self.charge(thread, dispatch);
        self.stats.native_cycles += dispatch;
        // Fault plane: a clock stall on the native dispatch path — the
        // native call takes anomalously long, visible to the agents as a
        // large J2N interval. Accounting must absorb it, not diverge.
        // Agent bridge natives are exempt: faults target application and
        // JDK natives, never the measurement infrastructure itself.
        if !fault_exempt {
            if let Some(entropy) = self.fault(FaultSite::ClockStall) {
                let stall = entropy % 50_000 + 1;
                self.charge(thread, stall);
                self.stats.native_cycles += stall;
            }
        }
        let mut env = JniEnv { vm: self, thread };
        let result = f(&mut env, args);
        // Fault plane: force an exception to unwind out of this native
        // frame at the instant it would have returned normally — the
        // abnormal path the paper's try/finally wrapper (§IV) must keep
        // balanced (J2N_End still fires on the exceptional exit).
        if !fault_exempt && result.is_ok() && self.fault(FaultSite::NativeUnwind).is_some() {
            return Err(self.throw_new(
                thread,
                "jvmsim/faults/InjectedNativeUnwind",
                "fault plane: forced unwind out of native method",
            ));
        }
        result
    }

    /// Bind a native method to a library symbol, honouring the JVMTI 1.1
    /// prefix-retry rule: if direct resolution fails and the method name
    /// starts with a registered prefix, retry with the prefix stripped.
    /// The binding, with whether its library is exempt from fault
    /// injection (agent instrumentation infrastructure), is kept in the
    /// method's slot on its class, so every later call is two vector
    /// indexes. Nothing unbinds a native, so the slot never goes stale.
    fn resolve_native(&mut self, thread: ThreadId, mid: MethodId) -> Result<NativeBinding, JThrow> {
        if let Some(binding) = &self.registry.get(mid.class).natives[mid.index as usize] {
            return Ok(binding.clone());
        }
        let (class_name, method_name) = {
            let rc = self.registry.get(mid.class);
            (
                rc.name.clone(),
                rc.methods[mid.index as usize].name().to_owned(),
            )
        };
        let mut tried = Vec::new();
        let mut candidates = vec![mangle(&class_name, &method_name)];
        for prefix in self.native_prefixes() {
            if let Some(stripped) = method_name.strip_prefix(prefix.as_str()) {
                candidates.push(mangle(&class_name, stripped));
            }
        }
        for symbol in candidates {
            for lib in self.loaded_libraries() {
                if let Some(f) = lib.lookup(&symbol) {
                    let binding = NativeBinding {
                        f,
                        fault_exempt: lib.is_fault_exempt(),
                    };
                    self.registry.get_mut(mid.class).natives[mid.index as usize] =
                        Some(binding.clone());
                    return Ok(binding);
                }
            }
            tried.push(symbol);
        }
        Err(self.throw_new(
            thread,
            "java/lang/UnsatisfiedLinkError",
            &format!("{class_name}.{method_name} (tried {})", tried.join(", ")),
        ))
    }

    // ------------------------------------------------------- JNI upcalls

    /// Perform the invocation a JNI `Call*Method*` function names — the
    /// default behaviour of every function-table entry.
    pub(crate) fn invoke_from_jni(
        &mut self,
        thread: ThreadId,
        spec: &JniCallSpec,
    ) -> Result<Value, JThrow> {
        use crate::jni::CallKind;
        let (mid, args) = match spec.key.kind {
            CallKind::Static => {
                let cid = self.ensure_loaded_or_throw(thread, &spec.class)?;
                let mid = self.resolve_or_throw(thread, cid, &spec.name, &spec.descriptor)?;
                if !self.registry.method(mid).is_static() {
                    return Err(self.throw_new(
                        thread,
                        "java/lang/NoSuchMethodError",
                        &format!("{}.{} is not static", spec.class, spec.name),
                    ));
                }
                (mid, spec.args.clone())
            }
            CallKind::Virtual => {
                let recv = spec.receiver.unwrap_or(Value::Null);
                let obj = match recv.as_ref_opt() {
                    Some(r) => r,
                    None => {
                        return Err(self.throw_new(
                            thread,
                            "java/lang/NullPointerException",
                            "null receiver in JNI call",
                        ))
                    }
                };
                let dyn_class = match self.heap().get(obj) {
                    HeapObject::Instance { class, .. } => *class,
                    _ => {
                        return Err(self.throw_new(
                            thread,
                            "java/lang/InternalError",
                            "JNI receiver is not an object instance",
                        ))
                    }
                };
                let mid = self.resolve_or_throw(thread, dyn_class, &spec.name, &spec.descriptor)?;
                let mut args = Vec::with_capacity(spec.args.len() + 1);
                args.push(recv);
                args.extend_from_slice(&spec.args);
                (mid, args)
            }
            CallKind::Nonvirtual => {
                let recv = spec.receiver.unwrap_or(Value::Null);
                if recv.as_ref_opt().is_none() {
                    return Err(self.throw_new(
                        thread,
                        "java/lang/NullPointerException",
                        "null receiver in JNI call",
                    ));
                }
                let cid = self.ensure_loaded_or_throw(thread, &spec.class)?;
                let mid = self.resolve_or_throw(thread, cid, &spec.name, &spec.descriptor)?;
                let mut args = Vec::with_capacity(spec.args.len() + 1);
                args.push(recv);
                args.extend_from_slice(&spec.args);
                (mid, args)
            }
        };
        // Arity check: a JNI caller passing the wrong number of arguments
        // must raise a Java-level error, not crash the VM.
        {
            let m = self.registry.method(mid);
            let expected = m.descriptor().param_slots() + usize::from(!m.is_static());
            if args.len() != expected {
                return Err(self.throw_new(
                    thread,
                    "java/lang/InternalError",
                    &format!(
                        "{}.{}{} called through JNI with {} argument(s), expected {}",
                        spec.class,
                        spec.name,
                        spec.descriptor,
                        args.len(),
                        expected
                    ),
                ));
            }
        }
        // Return-family check (`CallIntMethod` must target an int-returning
        // method, etc.).
        if !spec
            .key
            .ret
            .matches(self.registry.method(mid).descriptor().return_type())
        {
            return Err(self.throw_new(
                thread,
                "java/lang/InternalError",
                &format!(
                    "{} used for {}.{}{}",
                    spec.key.function_name(),
                    spec.class,
                    spec.name,
                    spec.descriptor
                ),
            ));
        }
        self.invoke(thread, mid, args)
    }

    pub(crate) fn ensure_loaded_or_throw(
        &mut self,
        thread: ThreadId,
        class: &str,
    ) -> Result<ClassId, JThrow> {
        self.ensure_loaded_on(thread, class)
            .map_err(|e| self.throw_new(thread, "java/lang/NoClassDefFoundError", &e.to_string()))
    }

    fn resolve_or_throw(
        &mut self,
        thread: ThreadId,
        cid: ClassId,
        name: &str,
        descriptor: &str,
    ) -> Result<MethodId, JThrow> {
        self.registry
            .resolve_method(cid, name, descriptor)
            .ok_or_else(|| {
                let class = self.registry.get(cid).name.clone();
                self.throw_new(
                    thread,
                    "java/lang/NoSuchMethodError",
                    &format!("{class}.{name}{descriptor}"),
                )
            })
    }

    // -------------------------------------------------------- call sites
    //
    // These run only on an inline-cache miss. `#[cold]` keeps the
    // compiler from inlining them into the interpreter loop, whose code
    // size and stack frame every Java call pays for.

    /// Resolve the `invokestatic` at pool index `idx` of `cur`, loading
    /// the target class (and running its `<clinit>`) on first use.
    #[cold]
    pub(crate) fn static_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<MethodId, JThrow> {
        let cs: CallSite = self
            .registry
            .get(cur)
            .callsites
            .get(&idx)
            .cloned()
            .expect("validated invokestatic has a callsite");
        let cid = self.ensure_loaded_or_throw(thread, &cs.class)?;
        let mid = self.resolve_or_throw(thread, cid, &cs.name, &cs.descriptor)?;
        if !self.registry.method(mid).is_static() {
            // The JVM raises IncompatibleClassChangeError here.
            return Err(self.throw_new(
                thread,
                "java/lang/NoSuchMethodError",
                &format!("invokestatic of instance method {}.{}", cs.class, cs.name),
            ));
        }
        Ok(mid)
    }

    /// Resolve the `invokevirtual` at pool index `idx` of `cur` against
    /// the receiver's dynamic class.
    #[cold]
    pub(crate) fn virtual_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
        receiver_class: ClassId,
    ) -> Result<MethodId, JThrow> {
        let cs: CallSite = self
            .registry
            .get(cur)
            .callsites
            .get(&idx)
            .cloned()
            .expect("validated invokevirtual has a callsite");
        let mid = self.resolve_or_throw(thread, receiver_class, &cs.name, &cs.descriptor)?;
        if self.registry.method(mid).is_static() {
            return Err(self.throw_new(
                thread,
                "java/lang/NoSuchMethodError",
                &format!("invokevirtual of static method {}.{}", cs.class, cs.name),
            ));
        }
        Ok(mid)
    }

    /// Resolve the static field at pool index `idx` of `cur` to its
    /// declaring class and slot, loading that class on first use.
    #[cold]
    pub(crate) fn static_field_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<(ClassId, usize), JThrow> {
        let fs = self
            .registry
            .get(cur)
            .fieldsites
            .get(&idx)
            .cloned()
            .expect("validated getstatic has a fieldsite");
        let cid = self.ensure_loaded_or_throw(thread, &fs.class)?;
        self.registry.resolve_static(cid, &fs.name).ok_or_else(|| {
            self.throw_new(
                thread,
                "java/lang/NoSuchFieldError",
                &format!("static {}.{}", fs.class, fs.name),
            )
        })
    }

    /// Resolve the instance field at pool index `idx` of `cur` to its
    /// slot in the instance layout.
    #[cold]
    pub(crate) fn instance_field_slot(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<usize, JThrow> {
        let fs = self
            .registry
            .get(cur)
            .fieldsites
            .get(&idx)
            .cloned()
            .expect("validated getfield has a fieldsite");
        // Resolve against the class the field reference *names* (JVM field
        // resolution is static): a superclass method referencing its own
        // `x` keeps touching the superclass slot even when a subclass
        // shadows the name. Layouts are prefix-preserving, so the declared
        // class's slot index is valid for every subclass instance.
        let cid = self.ensure_loaded_or_throw(thread, &fs.class)?;
        self.registry
            .resolve_instance_field(cid, &fs.name)
            .ok_or_else(|| {
                self.throw_new(
                    thread,
                    "java/lang/NoSuchFieldError",
                    &format!("{}.{}", fs.class, fs.name),
                )
            })
    }
}

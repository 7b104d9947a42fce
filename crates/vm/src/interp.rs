//! The bytecode interpreter and invocation machinery.
//!
//! [`Vm::invoke`] is the single funnel for *every* method activation —
//! bytecode or native, from bytecode (`invokestatic`/`invokevirtual`), from
//! native code (JNI `Call*Method*`), or from the harness. That is exactly
//! where JVMTI's `MethodEntry`/`MethodExit` events hang, so SPA sees every
//! activation, and it is where the JIT invocation counter lives.

use std::sync::Arc;

use jvmsim_classfile::{ArrayKind, Code, ExceptionHandler, Insn};
use jvmsim_faults::FaultSite;
use jvmsim_metrics::{Bucket, CounterId};
use jvmsim_tiers::Tier;

use crate::events::ThreadId;
use crate::heap::HeapObject;
use crate::jni::{mangle, JniCallSpec, JniEnv, NativeFn};
use crate::klass::{CallSite, ClassId, MethodId};
use crate::prepared::DispatchMode;
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
            match self.dispatch() {
                DispatchMode::Switch => self.execute(thread, mid, tier, args),
                DispatchMode::Threaded => self.execute_threaded(thread, mid, tier, args),
            }
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
        let (f, fault_exempt) = self.resolve_native(thread, mid)?;
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
    fn resolve_native(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
    ) -> Result<(NativeFn, bool), JThrow> {
        if let Some(binding) = self.native_binding(mid) {
            return Ok(binding);
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
                    let fault_exempt = lib.is_fault_exempt();
                    self.cache_native_binding(mid, f.clone(), fault_exempt);
                    return Ok((f, fault_exempt));
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

    pub(crate) fn static_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<(MethodId, u8, bool), JThrow> {
        if let Some(&hit) = self.static_call_cache.get(&(cur, idx)) {
            return Ok(hit);
        }
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
        let entry = (mid, cs.nargs as u8, cs.returns_value);
        self.static_call_cache.insert((cur, idx), entry);
        Ok(entry)
    }

    pub(crate) fn virtual_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
        receiver_class: ClassId,
    ) -> Result<(MethodId, u8, bool), JThrow> {
        if let Some(&hit) = self.virtual_call_cache.get(&(cur, idx, receiver_class)) {
            return Ok(hit);
        }
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
        let entry = (mid, cs.nargs as u8, cs.returns_value);
        self.virtual_call_cache
            .insert((cur, idx, receiver_class), entry);
        Ok(entry)
    }

    pub(crate) fn static_field_target(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<(ClassId, usize), JThrow> {
        if let Some(&hit) = self.static_field_cache.get(&(cur, idx)) {
            return Ok(hit);
        }
        let fs = self
            .registry
            .get(cur)
            .fieldsites
            .get(&idx)
            .cloned()
            .expect("validated getstatic has a fieldsite");
        let cid = self.ensure_loaded_or_throw(thread, &fs.class)?;
        let hit = self.registry.resolve_static(cid, &fs.name).ok_or_else(|| {
            self.throw_new(
                thread,
                "java/lang/NoSuchFieldError",
                &format!("static {}.{}", fs.class, fs.name),
            )
        })?;
        self.static_field_cache.insert((cur, idx), hit);
        Ok(hit)
    }

    pub(crate) fn instance_field_slot(
        &mut self,
        thread: ThreadId,
        cur: ClassId,
        idx: u16,
    ) -> Result<usize, JThrow> {
        if let Some(&slot) = self.instance_field_cache.get(&(cur, idx)) {
            return Ok(slot);
        }
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
        let slot = self
            .registry
            .resolve_instance_field(cid, &fs.name)
            .ok_or_else(|| {
                self.throw_new(
                    thread,
                    "java/lang/NoSuchFieldError",
                    &format!("{}.{}", fs.class, fs.name),
                )
            })?;
        self.instance_field_cache.insert((cur, idx), slot);
        Ok(slot)
    }

    // -------------------------------------------------------- frame loop

    pub(crate) fn handle_throw(
        &mut self,
        table: &[ExceptionHandler],
        pc: u32,
        t: JThrow,
        stack: &mut Vec<Value>,
    ) -> Option<u32> {
        let thrown_class = match self.heap().get(t.exception) {
            HeapObject::Instance { class, .. } => Some(*class),
            _ => None,
        };
        for h in table {
            if pc < h.start || pc >= h.end {
                continue;
            }
            let matches = match (&h.catch_class, thrown_class) {
                (None, _) => true,
                (Some(catch), Some(cls)) => self.is_subclass_of(cls, catch),
                (Some(_), None) => false,
            };
            if matches {
                stack.clear();
                stack.push(Value::Ref(t.exception));
                return Some(h.handler);
            }
        }
        None
    }

    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        tier: Tier,
        args: Vec<Value>,
    ) -> Result<Value, JThrow> {
        let cur = mid.class;
        let code: Arc<Code> = self.registry.get(cur).code[mid.index as usize]
            .clone()
            .expect("bytecode method has code");
        let clock = self.clock_handle(thread);
        let shard = clock.metrics().cloned();
        let mut tier = tier;
        let mut insn_cost = self.cost().insn(tier);
        // On-stack replacement: a long-running activation below the mode's
        // tier ceiling is promoted mid-run after enough backward branches.
        let mode = self.effective_tiers_mode();
        let osr_threshold = self.cost().tiers.osr_backedge_threshold;
        let mut osr_pending = mode.allows_promotion_from(tier);
        let mut backedges: u32 = 0;
        // Timer sampling: poll every few instructions (cheap when off).
        let sampling = self.sampler_interval().is_some();
        // The fault plane shares the poll cadence: asynchronous thread
        // death fires at the same safepoints a timer sample would.
        let fault_polls = self.faults_enabled();
        let polling = sampling || fault_polls;
        let mut insns_since_poll: u32 = 0;

        let mut locals = vec![Value::Int(0); code.max_locals as usize];
        locals[..args.len()].copy_from_slice(&args);
        let mut stack: Vec<Value> = Vec::with_capacity(code.max_stack as usize);
        let mut pc: u32 = 0;

        macro_rules! take_branch {
            ($t:expr) => {{
                let target: u32 = $t;
                if osr_pending && target <= pc {
                    backedges += 1;
                    if backedges >= osr_threshold {
                        backedges = 0;
                        if let Some(next) = tier.next() {
                            if self.tier_compile(thread, mid, next, true) {
                                tier = next;
                                insn_cost = self.cost().insn(tier);
                            }
                        }
                        osr_pending = mode.allows_promotion_from(tier);
                    }
                }
                pc = target;
                continue;
            }};
        }

        macro_rules! throw_or_handle {
            ($t:expr) => {{
                let t = $t;
                match self.handle_throw(&code.exception_table, pc, t, &mut stack) {
                    Some(h) => {
                        pc = h;
                        continue;
                    }
                    None => {
                        if tier.is_compiled() {
                            self.deopt(thread, mid);
                        }
                        return Err(t);
                    }
                }
            }};
        }

        macro_rules! jthrow {
            ($class:expr, $msg:expr) => {{
                let t = self.throw_new(thread, $class, $msg);
                throw_or_handle!(t)
            }};
        }

        loop {
            let insn = &code.insns[pc as usize];
            self.stats.insns += 1;
            if let Some(shard) = &shard {
                shard.incr(jvmsim_metrics::CounterId::InterpInsns);
            }
            clock.charge(insn_cost);
            self.note_tier_cycles(tier, insn_cost);
            if polling {
                insns_since_poll += 1;
                if insns_since_poll >= 32 {
                    insns_since_poll = 0;
                    if sampling {
                        self.poll_samples(thread, false);
                    }
                    // Fault plane: abrupt asynchronous thread death at a
                    // safepoint. Thrown as a normal Java error so it
                    // unwinds through every wrapper/interceptor bracket on
                    // the way out; an uncaught instance kills only this
                    // thread, never the VM.
                    if fault_polls && self.fault(FaultSite::ThreadDeath).is_some() {
                        jthrow!(
                            "java/lang/ThreadDeath",
                            "fault plane: asynchronous thread death"
                        );
                    }
                }
            }
            match insn {
                Insn::Nop => {}
                Insn::IConst(v) => stack.push(Value::Int(*v)),
                Insn::FConst(v) => stack.push(Value::Float(*v)),
                Insn::AConstNull => stack.push(Value::Null),
                Insn::Ldc(cp) => {
                    let key = (cur, cp.0);
                    let r = match self.ldc_cache.get(&key) {
                        Some(&r) => r,
                        None => {
                            let s = self.registry.get(cur).strings[&cp.0].clone();
                            let before = self.heap().len();
                            let r = self.heap_mut().intern_string(&s);
                            // Interning only allocates on a miss; an
                            // already-interned literal is not an event.
                            if self.alloc_events_on() && self.heap().len() > before {
                                let (sc, sm) = self.site_of(mid);
                                self.fire_allocation(thread, r, &sc, &sm, pc);
                            }
                            self.ldc_cache.insert(key, r);
                            r
                        }
                    };
                    stack.push(Value::Ref(r));
                }
                Insn::ILoad(s) | Insn::FLoad(s) | Insn::ALoad(s) => {
                    stack.push(locals[*s as usize]);
                }
                Insn::IStore(s) | Insn::FStore(s) | Insn::AStore(s) => {
                    locals[*s as usize] = stack.pop().expect("verified stack");
                }
                Insn::Pop => {
                    stack.pop();
                }
                Insn::Dup => {
                    let top = *stack.last().expect("verified stack");
                    stack.push(top);
                }
                Insn::Swap => {
                    let n = stack.len();
                    stack.swap(n - 1, n - 2);
                }
                Insn::IAdd
                | Insn::ISub
                | Insn::IMul
                | Insn::IShl
                | Insn::IShr
                | Insn::IUShr
                | Insn::IAnd
                | Insn::IOr
                | Insn::IXor => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    let r = match insn {
                        Insn::IAdd => a.wrapping_add(b),
                        Insn::ISub => a.wrapping_sub(b),
                        Insn::IMul => a.wrapping_mul(b),
                        Insn::IShl => a.wrapping_shl(b as u32 & 63),
                        Insn::IShr => a.wrapping_shr(b as u32 & 63),
                        Insn::IUShr => ((a as u64) >> (b as u32 & 63)) as i64,
                        Insn::IAnd => a & b,
                        Insn::IOr => a | b,
                        _ => a ^ b,
                    };
                    stack.push(Value::Int(r));
                }
                Insn::IDiv | Insn::IRem => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    if b == 0 {
                        jthrow!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if matches!(insn, Insn::IDiv) {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    stack.push(Value::Int(r));
                }
                Insn::INeg => {
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Insn::IInc { local, delta } => {
                    let v = locals[*local as usize].as_int();
                    locals[*local as usize] = Value::Int(v.wrapping_add(i64::from(*delta)));
                }
                Insn::FAdd | Insn::FSub | Insn::FMul | Insn::FDiv => {
                    let b = stack.pop().expect("verified").as_float();
                    let a = stack.pop().expect("verified").as_float();
                    let r = match insn {
                        Insn::FAdd => a + b,
                        Insn::FSub => a - b,
                        Insn::FMul => a * b,
                        _ => a / b,
                    };
                    stack.push(Value::Float(r));
                }
                Insn::FNeg => {
                    let a = stack.pop().expect("verified").as_float();
                    stack.push(Value::Float(-a));
                }
                Insn::I2F => {
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Float(a as f64));
                }
                Insn::F2I => {
                    let a = stack.pop().expect("verified").as_float();
                    stack.push(Value::Int(a as i64));
                }
                Insn::FCmp => {
                    let b = stack.pop().expect("verified").as_float();
                    let a = stack.pop().expect("verified").as_float();
                    // fcmpg: NaN compares greater.
                    let r = if a.is_nan() || b.is_nan() {
                        1
                    } else if a < b {
                        -1
                    } else {
                        i64::from(a > b)
                    };
                    stack.push(Value::Int(r));
                }
                Insn::Goto(t) => take_branch!(*t),
                Insn::If(cond, t) => {
                    let v = stack.pop().expect("verified").as_int();
                    if cond.eval(v.cmp(&0)) {
                        take_branch!(*t);
                    }
                }
                Insn::IfICmp(cond, t) => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    if cond.eval(a.cmp(&b)) {
                        take_branch!(*t);
                    }
                }
                Insn::IfNull(t) => {
                    let v = stack.pop().expect("verified");
                    if v.as_ref_opt().is_none() {
                        take_branch!(*t);
                    }
                }
                Insn::IfNonNull(t) => {
                    let v = stack.pop().expect("verified");
                    if v.as_ref_opt().is_some() {
                        take_branch!(*t);
                    }
                }
                Insn::TableSwitch {
                    low,
                    targets,
                    default,
                } => {
                    let k = stack.pop().expect("verified").as_int();
                    let off = k.wrapping_sub(*low);
                    let target = if off >= 0 && (off as usize) < targets.len() {
                        targets[off as usize]
                    } else {
                        *default
                    };
                    take_branch!(target);
                }
                Insn::InvokeStatic(cp) => {
                    let (callee, nargs, returns) = match self.static_target(thread, cur, cp.0) {
                        Ok(t) => t,
                        Err(t) => throw_or_handle!(t),
                    };
                    let split = stack.len() - nargs as usize;
                    let call_args = stack.split_off(split);
                    match self.invoke(thread, callee, call_args) {
                        Ok(v) => {
                            if returns {
                                stack.push(v);
                            }
                        }
                        Err(t) => throw_or_handle!(t),
                    }
                }
                Insn::InvokeVirtual(cp) => {
                    // Arity lookup needs the callsite before popping.
                    let nargs = self.registry.get(cur).callsites[&cp.0].nargs;
                    let split = stack.len() - nargs - 1;
                    let mut call_args = stack.split_off(split);
                    let recv = call_args[0];
                    let obj = match recv.as_ref_opt() {
                        Some(o) => o,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null receiver");
                        }
                    };
                    let dyn_class = match self.heap().get(obj) {
                        HeapObject::Instance { class, .. } => *class,
                        _ => {
                            jthrow!(
                                "java/lang/InternalError",
                                "invokevirtual receiver is not an object instance"
                            );
                        }
                    };
                    let (callee, _, returns) =
                        match self.virtual_target(thread, cur, cp.0, dyn_class) {
                            Ok(t) => t,
                            Err(t) => throw_or_handle!(t),
                        };
                    // call_args already has the receiver first.
                    match self.invoke(thread, callee, std::mem::take(&mut call_args)) {
                        Ok(v) => {
                            if returns {
                                stack.push(v);
                            }
                        }
                        Err(t) => throw_or_handle!(t),
                    }
                }
                Insn::Return => return Ok(Value::Null),
                Insn::IReturn | Insn::FReturn | Insn::AReturn => {
                    return Ok(stack.pop().expect("verified"));
                }
                Insn::New(cp) => {
                    let cid = match self.new_class_cache.get(&(cur, cp.0)) {
                        Some(&c) => c,
                        None => {
                            let name = self.registry.get(cur).classrefs[&cp.0].clone();
                            let c = match self.ensure_loaded_or_throw(thread, &name) {
                                Ok(c) => c,
                                Err(t) => throw_or_handle!(t),
                            };
                            self.new_class_cache.insert((cur, cp.0), c);
                            c
                        }
                    };
                    clock.charge(self.cost().alloc_object);
                    self.stats.allocations += 1;
                    let defaults = self.registry.get(cid).field_defaults();
                    let obj = self.heap_mut().alloc_instance(cid, defaults);
                    if self.alloc_events_on() {
                        let (sc, sm) = self.site_of(mid);
                        self.fire_allocation(thread, obj, &sc, &sm, pc);
                    }
                    stack.push(Value::Ref(obj));
                }
                Insn::GetField(cp) | Insn::PutField(cp) => {
                    let is_put = matches!(insn, Insn::PutField(_));
                    let value = if is_put {
                        Some(stack.pop().expect("verified"))
                    } else {
                        None
                    };
                    let recv = stack.pop().expect("verified");
                    let obj = match recv.as_ref_opt() {
                        Some(o) => o,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null field access");
                        }
                    };
                    if !matches!(self.heap().get(obj), HeapObject::Instance { .. }) {
                        jthrow!(
                            "java/lang/InternalError",
                            "field access on a non-object reference"
                        );
                    }
                    let slot = match self.instance_field_slot(thread, cur, cp.0) {
                        Ok(s) => s,
                        Err(t) => throw_or_handle!(t),
                    };
                    match self.heap_mut().get_mut(obj) {
                        HeapObject::Instance { fields, .. } => {
                            if let Some(v) = value {
                                fields[slot] = v;
                            } else {
                                let v = fields[slot];
                                stack.push(v);
                            }
                        }
                        _ => unreachable!("checked instance above"),
                    }
                }
                Insn::GetStatic(cp) | Insn::PutStatic(cp) => {
                    let is_put = matches!(insn, Insn::PutStatic(_));
                    let (cid, slot) = match self.static_field_target(thread, cur, cp.0) {
                        Ok(t) => t,
                        Err(t) => throw_or_handle!(t),
                    };
                    if is_put {
                        let v = stack.pop().expect("verified");
                        self.registry.get_mut(cid).statics[slot] = v;
                    } else {
                        stack.push(self.registry.get(cid).statics[slot]);
                    }
                }
                Insn::NewArray(kind) => {
                    let len = stack.pop().expect("verified").as_int();
                    if len < 0 {
                        jthrow!("java/lang/NegativeArraySizeException", &format!("{len}"));
                    }
                    let len = len as usize;
                    clock.charge(self.cost().alloc_array(len));
                    self.stats.allocations += 1;
                    let r = match kind {
                        ArrayKind::Int => self.heap_mut().alloc_int_array(len),
                        ArrayKind::Float => self.heap_mut().alloc_float_array(len),
                        ArrayKind::Ref => self.heap_mut().alloc_ref_array(len),
                    };
                    if self.alloc_events_on() {
                        let (sc, sm) = self.site_of(mid);
                        self.fire_allocation(thread, r, &sc, &sm, pc);
                    }
                    stack.push(Value::Ref(r));
                }
                Insn::IALoad | Insn::FALoad | Insn::AALoad => {
                    let index = stack.pop().expect("verified").as_int();
                    let arr = stack.pop().expect("verified");
                    let arr = match arr.as_ref_opt() {
                        Some(a) => a,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null array load");
                        }
                    };
                    if index < 0 {
                        jthrow!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("{index}")
                        );
                    }
                    let i = index as usize;
                    let loaded = match (insn, self.heap().get(arr)) {
                        (Insn::IALoad, HeapObject::IntArray(v)) => v.get(i).map(|&x| Value::Int(x)),
                        (Insn::FALoad, HeapObject::FloatArray(v)) => {
                            v.get(i).map(|&x| Value::Float(x))
                        }
                        (Insn::AALoad, HeapObject::RefArray(v)) => v.get(i).copied(),
                        _ => {
                            jthrow!("java/lang/InternalError", "array load kind mismatch");
                        }
                    };
                    match loaded {
                        Some(v) => stack.push(v),
                        None => {
                            jthrow!(
                                "java/lang/ArrayIndexOutOfBoundsException",
                                &format!("{index}")
                            );
                        }
                    }
                }
                Insn::IAStore | Insn::FAStore | Insn::AAStore => {
                    let value = stack.pop().expect("verified");
                    let index = stack.pop().expect("verified").as_int();
                    let arr = stack.pop().expect("verified");
                    let arr = match arr.as_ref_opt() {
                        Some(a) => a,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null array store");
                        }
                    };
                    if index < 0 {
                        jthrow!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("{index}")
                        );
                    }
                    let i = index as usize;
                    // Distinguish kind mismatch (ArrayStoreException) from
                    // out-of-bounds (ArrayIndexOutOfBoundsException).
                    enum StoreOutcome {
                        Ok,
                        OutOfBounds,
                        KindMismatch,
                    }
                    let outcome = match (insn, self.heap_mut().get_mut(arr)) {
                        (Insn::IAStore, HeapObject::IntArray(v)) => {
                            if i < v.len() {
                                v[i] = value.as_int();
                                StoreOutcome::Ok
                            } else {
                                StoreOutcome::OutOfBounds
                            }
                        }
                        (Insn::FAStore, HeapObject::FloatArray(v)) => {
                            if i < v.len() {
                                v[i] = value.as_float();
                                StoreOutcome::Ok
                            } else {
                                StoreOutcome::OutOfBounds
                            }
                        }
                        (Insn::AAStore, HeapObject::RefArray(v)) => {
                            if i < v.len() {
                                v[i] = value;
                                StoreOutcome::Ok
                            } else {
                                StoreOutcome::OutOfBounds
                            }
                        }
                        _ => StoreOutcome::KindMismatch,
                    };
                    match outcome {
                        StoreOutcome::Ok => {}
                        StoreOutcome::OutOfBounds => {
                            jthrow!(
                                "java/lang/ArrayIndexOutOfBoundsException",
                                &format!("{index}")
                            );
                        }
                        StoreOutcome::KindMismatch => {
                            jthrow!("java/lang/ArrayStoreException", "array store kind mismatch");
                        }
                    }
                }
                Insn::ArrayLength => {
                    let arr = stack.pop().expect("verified");
                    let arr = match arr.as_ref_opt() {
                        Some(a) => a,
                        None => {
                            jthrow!("java/lang/NullPointerException", "null arraylength");
                        }
                    };
                    match self.heap().get(arr).array_len() {
                        Some(n) => stack.push(Value::Int(n as i64)),
                        None => {
                            jthrow!("java/lang/InternalError", "arraylength of a non-array");
                        }
                    }
                }
                Insn::AThrow => {
                    let v = stack.pop().expect("verified");
                    match v.as_ref_opt() {
                        Some(r) => throw_or_handle!(JThrow::new(r)),
                        None => {
                            jthrow!("java/lang/NullPointerException", "throwing null");
                        }
                    }
                }
            }
            pc += 1;
        }
    }
}

//! The bytecode interpreter: prepared code, inline caches and the
//! execution loop.
//!
//! Each method body is *prepared* once, on first execution, into a dense
//! [`Op`] array (a jump table for the compiler to dispatch over), with
//! operands pre-decoded, call-site arity and returns-ness baked in, and
//! every resolution site given an [`InlineCache`] slot. The steady-state
//! path therefore does no hashing at all. Cycle charges and metrics
//! counter bumps are *batched* into locals and flushed before every
//! observable action (invokes, throws, allocations, sample polls, trace
//! emission, returns), so the per-instruction atomic read-modify-write on
//! the thread clock is gone while every clock reading an agent or the
//! trace can take stays exact. Preparation itself charges nothing: it
//! models the one-time threaded-code rewrite a template interpreter
//! performs at link time, not measured work.

use std::sync::Arc;

use jvmsim_classfile::{ArrayKind, Code, Cond, ExceptionHandler, Insn};
use jvmsim_faults::FaultSite;
use jvmsim_tiers::Tier;

use crate::events::ThreadId;
use crate::heap::HeapObject;
use crate::klass::{ClassId, MethodId, RuntimeClass};
use crate::throw::JThrow;
use crate::value::{ObjRef, Value};
use crate::vm::{AllocSite, Vm};

/// One inline-cache slot in the VM-wide arena. Ops carry `u32` indices
/// into the arena; a slot starts [`InlineCache::Empty`] and is filled on
/// first execution by the resolvers in `interp.rs`, which load classes
/// (charging their `<clinit>`) and raise linkage errors. A failed
/// resolution leaves the slot empty, so the next execution retries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InlineCache {
    /// Not yet resolved.
    Empty,
    /// `invokestatic` target.
    StaticCall(MethodId),
    /// Monomorphic `invokevirtual` entry: valid while the receiver's
    /// dynamic class matches (a different receiver re-resolves and
    /// re-caches — last-seen wins, which is deterministic).
    VirtualCall {
        /// Receiver class the cached target was resolved against.
        receiver: ClassId,
        /// Resolved callee.
        target: MethodId,
    },
    /// Instance-field slot index.
    InstanceField(usize),
    /// Static field: declaring class and slot.
    StaticField {
        /// Declaring class.
        class: ClassId,
        /// Slot in that class's statics.
        slot: usize,
    },
    /// Interned string for `ldc`.
    LdcStr(ObjRef),
    /// Resolved class for `new`.
    NewClass(ClassId),
}

/// A prepared (direct-threaded) instruction. One `Op` per source
/// [`Insn`], at the same index — branch targets, the exception table and
/// trace/alloc-site `bci`s carry over unchanged.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Nop,
    IConst(i64),
    FConst(f64),
    AConstNull,
    Ldc {
        ic: u32,
        cp: u16,
    },
    /// Unified `iload`/`fload`/`aload` (slots are untyped at runtime).
    Load(u16),
    /// Unified `istore`/`fstore`/`astore`.
    Store(u16),
    Pop,
    Dup,
    Swap,
    IAdd,
    ISub,
    IMul,
    IShl,
    IShr,
    IUShr,
    IAnd,
    IOr,
    IXor,
    IDiv,
    IRem,
    INeg,
    IInc {
        local: u16,
        delta: i32,
    },
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    I2F,
    F2I,
    FCmp,
    Goto(u32),
    If(Cond, u32),
    IfICmp(Cond, u32),
    IfNull(u32),
    IfNonNull(u32),
    TableSwitch {
        low: i64,
        targets: Box<[u32]>,
        default: u32,
    },
    InvokeStatic {
        ic: u32,
        cp: u16,
        nargs: u8,
        returns: bool,
    },
    InvokeVirtual {
        ic: u32,
        cp: u16,
        nargs: u8,
        returns: bool,
    },
    Return,
    /// Unified `ireturn`/`freturn`/`areturn`.
    ValueReturn,
    New {
        ic: u32,
        cp: u16,
    },
    GetField {
        ic: u32,
        cp: u16,
    },
    PutField {
        ic: u32,
        cp: u16,
    },
    GetStatic {
        ic: u32,
        cp: u16,
    },
    PutStatic {
        ic: u32,
        cp: u16,
    },
    NewArray(ArrayKind),
    ArrLoad(ArrayKind),
    ArrStore(ArrayKind),
    ArrayLength,
    AThrow,
}

/// A method body rewritten into [`Op`]s, cached per [`MethodId`] in its
/// class's `prepared` slot.
#[derive(Debug)]
pub(crate) struct PreparedCode {
    pub max_stack: u16,
    pub max_locals: u16,
    pub ops: Vec<Op>,
    pub exception_table: Vec<ExceptionHandler>,
}

/// The interpreter's own mutable state, one owned field of the VM.
#[derive(Debug, Default)]
pub(crate) struct Engine {
    /// Inline-cache slots the prepared ops index into (the prepared
    /// bodies themselves live in per-class slots).
    ic_arena: Vec<InlineCache>,
    /// Recycled `(locals, stack)` buffers for frames: the contiguous-stack
    /// discipline of a real template interpreter, instead of two heap
    /// allocations per activation.
    frame_pool: Vec<(Vec<Value>, Vec<Value>)>,
    /// Recycled argument vectors for call sites.
    arg_pool: Vec<Vec<Value>>,
}

fn alloc_ic(arena: &mut Vec<InlineCache>) -> u32 {
    let i = u32::try_from(arena.len()).expect("inline-cache arena overflow");
    arena.push(InlineCache::Empty);
    i
}

/// Rewrite `code` into threaded form, allocating inline-cache slots in
/// `arena`. Call-site arity and returns-ness come from the class's
/// pre-parsed [`crate::klass::CallSite`]s, so the execution loop never
/// touches the callsite map.
pub(crate) fn prepare(
    code: &Code,
    rc: &RuntimeClass,
    arena: &mut Vec<InlineCache>,
) -> PreparedCode {
    let mut ops = Vec::with_capacity(code.insns.len());
    for insn in &code.insns {
        let op = match insn {
            Insn::Nop => Op::Nop,
            Insn::IConst(v) => Op::IConst(*v),
            Insn::FConst(v) => Op::FConst(*v),
            Insn::AConstNull => Op::AConstNull,
            Insn::Ldc(cp) => Op::Ldc {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::ILoad(s) | Insn::FLoad(s) | Insn::ALoad(s) => Op::Load(*s),
            Insn::IStore(s) | Insn::FStore(s) | Insn::AStore(s) => Op::Store(*s),
            Insn::Pop => Op::Pop,
            Insn::Dup => Op::Dup,
            Insn::Swap => Op::Swap,
            Insn::IAdd => Op::IAdd,
            Insn::ISub => Op::ISub,
            Insn::IMul => Op::IMul,
            Insn::IShl => Op::IShl,
            Insn::IShr => Op::IShr,
            Insn::IUShr => Op::IUShr,
            Insn::IAnd => Op::IAnd,
            Insn::IOr => Op::IOr,
            Insn::IXor => Op::IXor,
            Insn::IDiv => Op::IDiv,
            Insn::IRem => Op::IRem,
            Insn::INeg => Op::INeg,
            Insn::IInc { local, delta } => Op::IInc {
                local: *local,
                delta: *delta,
            },
            Insn::FAdd => Op::FAdd,
            Insn::FSub => Op::FSub,
            Insn::FMul => Op::FMul,
            Insn::FDiv => Op::FDiv,
            Insn::FNeg => Op::FNeg,
            Insn::I2F => Op::I2F,
            Insn::F2I => Op::F2I,
            Insn::FCmp => Op::FCmp,
            Insn::Goto(t) => Op::Goto(*t),
            Insn::If(c, t) => Op::If(*c, *t),
            Insn::IfICmp(c, t) => Op::IfICmp(*c, *t),
            Insn::IfNull(t) => Op::IfNull(*t),
            Insn::IfNonNull(t) => Op::IfNonNull(*t),
            Insn::TableSwitch {
                low,
                targets,
                default,
            } => Op::TableSwitch {
                low: *low,
                targets: targets.clone().into_boxed_slice(),
                default: *default,
            },
            Insn::InvokeStatic(cp) => {
                let cs = rc
                    .callsites
                    .get(&cp.0)
                    .expect("validated invokestatic has a callsite");
                Op::InvokeStatic {
                    ic: alloc_ic(arena),
                    cp: cp.0,
                    nargs: cs.nargs as u8,
                    returns: cs.returns_value,
                }
            }
            Insn::InvokeVirtual(cp) => {
                let cs = rc
                    .callsites
                    .get(&cp.0)
                    .expect("validated invokevirtual has a callsite");
                Op::InvokeVirtual {
                    ic: alloc_ic(arena),
                    cp: cp.0,
                    nargs: cs.nargs as u8,
                    returns: cs.returns_value,
                }
            }
            Insn::Return => Op::Return,
            Insn::IReturn | Insn::FReturn | Insn::AReturn => Op::ValueReturn,
            Insn::New(cp) => Op::New {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::GetField(cp) => Op::GetField {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::PutField(cp) => Op::PutField {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::GetStatic(cp) => Op::GetStatic {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::PutStatic(cp) => Op::PutStatic {
                ic: alloc_ic(arena),
                cp: cp.0,
            },
            Insn::NewArray(kind) => Op::NewArray(*kind),
            Insn::IALoad => Op::ArrLoad(ArrayKind::Int),
            Insn::FALoad => Op::ArrLoad(ArrayKind::Float),
            Insn::AALoad => Op::ArrLoad(ArrayKind::Ref),
            Insn::IAStore => Op::ArrStore(ArrayKind::Int),
            Insn::FAStore => Op::ArrStore(ArrayKind::Float),
            Insn::AAStore => Op::ArrStore(ArrayKind::Ref),
            Insn::ArrayLength => Op::ArrayLength,
            Insn::AThrow => Op::AThrow,
        };
        ops.push(op);
    }
    PreparedCode {
        max_stack: code.max_stack,
        max_locals: code.max_locals,
        ops,
        exception_table: code.exception_table.clone(),
    }
}

impl Vm {
    /// The prepared body of `mid`, building (and caching) it on first use.
    /// The steady state is two vector indexes and an `Arc` bump — this
    /// runs on every bytecode invocation.
    pub(crate) fn prepared_code(&mut self, mid: MethodId) -> Arc<PreparedCode> {
        let rc = self.registry.get(mid.class);
        if let Some(p) = &rc.prepared[mid.index as usize] {
            return Arc::clone(p);
        }
        let code = rc.code[mid.index as usize]
            .as_deref()
            .expect("bytecode method has code");
        let p = Arc::new(prepare(code, rc, &mut self.engine.ic_arena));
        self.registry.get_mut(mid.class).prepared[mid.index as usize] = Some(Arc::clone(&p));
        p
    }

    /// Find the handler in `table` covering `pc` that catches `t`. On a
    /// match the operand stack is reset to the exception alone and the
    /// handler's pc is returned.
    fn handle_throw(
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

    /// The execution loop: run `mid`'s prepared body at `tier` on
    /// `thread`. Charges are accumulated in `pending_*` and flushed (clock,
    /// `InterpInsns` counter, `VmStats`) before every observable action, so
    /// every intermediate clock reading equals a per-instruction charge's.
    // `unused_assignments`: the flush before a `return` zeroes the pending
    // accumulators like every other flush; the zeroes are dead there.
    #[allow(clippy::too_many_lines, unused_assignments)]
    pub(crate) fn execute(
        &mut self,
        thread: ThreadId,
        mid: MethodId,
        tier: Tier,
        args: Vec<Value>,
    ) -> Result<Value, JThrow> {
        let cur = mid.class;
        let prepared = self.prepared_code(mid);
        let clock = self.clock_handle(thread);
        let shard = clock.metrics().cloned();
        let mut tier = tier;
        let mut insn_cost = self.cost().insn(tier);
        let mode = self.effective_tiers_mode();
        let osr_threshold = self.cost().tiers.osr_backedge_threshold;
        let mut osr_pending = mode.allows_promotion_from(tier);
        let mut backedges: u32 = 0;
        let sampling = self.sampler_interval().is_some();
        let fault_polls = self.faults_enabled();
        let polling = sampling || fault_polls;
        let mut insns_since_poll: u32 = 0;
        let mut pending_cycles: u64 = 0;
        let mut pending_insns: u64 = 0;

        // Frames come from the recycle pool: a template interpreter runs
        // on a contiguous thread stack, not one heap allocation per
        // activation. Contents are reset identically to a fresh frame.
        let (mut locals, mut stack) = self.engine.frame_pool.pop().unwrap_or_default();
        locals.clear();
        locals.resize(prepared.max_locals as usize, Value::Int(0));
        locals[..args.len()].copy_from_slice(&args);
        stack.clear();
        stack.reserve(prepared.max_stack as usize);
        {
            let mut args = args;
            args.clear();
            self.engine.arg_pool.push(args);
        }
        let mut pc: u32 = 0;

        macro_rules! flush {
            () => {{
                if pending_insns != 0 {
                    clock.charge(pending_cycles);
                    if let Some(shard) = &shard {
                        shard.add(jvmsim_metrics::CounterId::InterpInsns, pending_insns);
                    }
                    self.stats.insns += pending_insns;
                    self.note_tier_cycles(tier, pending_cycles);
                    pending_cycles = 0;
                    pending_insns = 0;
                }
            }};
        }

        macro_rules! take_branch {
            ($t:expr) => {{
                let target: u32 = $t;
                if osr_pending && target <= pc {
                    backedges += 1;
                    if backedges >= osr_threshold {
                        backedges = 0;
                        flush!();
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
                flush!();
                match self.handle_throw(&prepared.exception_table, pc, t, &mut stack) {
                    Some(h) => {
                        pc = h;
                        continue;
                    }
                    None => {
                        if tier.is_compiled() {
                            self.deopt(thread, mid);
                        }
                        self.engine
                            .frame_pool
                            .push((std::mem::take(&mut locals), std::mem::take(&mut stack)));
                        return Err(t);
                    }
                }
            }};
        }

        macro_rules! jthrow {
            ($class:expr, $msg:expr) => {{
                flush!();
                let t = self.throw_new(thread, $class, $msg);
                throw_or_handle!(t)
            }};
        }

        loop {
            let op = &prepared.ops[pc as usize];
            pending_cycles += insn_cost;
            pending_insns += 1;
            if polling {
                insns_since_poll += 1;
                if insns_since_poll >= 32 {
                    insns_since_poll = 0;
                    flush!();
                    if sampling {
                        self.poll_samples(thread, false);
                    }
                    if fault_polls && self.fault(FaultSite::ThreadDeath).is_some() {
                        jthrow!(
                            "java/lang/ThreadDeath",
                            "fault plane: asynchronous thread death"
                        );
                    }
                }
            }
            match op {
                Op::Nop => {}
                Op::IConst(v) => stack.push(Value::Int(*v)),
                Op::FConst(v) => stack.push(Value::Float(*v)),
                Op::AConstNull => stack.push(Value::Null),
                Op::Ldc { ic, cp } => {
                    let slot = *ic as usize;
                    let r = match self.engine.ic_arena[slot] {
                        InlineCache::LdcStr(r) => r,
                        _ => {
                            flush!();
                            // Interning allocates only the first time a
                            // text is interned; only that allocation is an
                            // event.
                            let (r, fresh) = self.intern_constant(cur, *cp);
                            if fresh {
                                self.fire_allocation(
                                    thread,
                                    r,
                                    AllocSite::Bytecode {
                                        method: mid,
                                        bci: pc,
                                    },
                                );
                            }
                            self.engine.ic_arena[slot] = InlineCache::LdcStr(r);
                            r
                        }
                    };
                    stack.push(Value::Ref(r));
                }
                Op::Load(s) => stack.push(locals[*s as usize]),
                Op::Store(s) => locals[*s as usize] = stack.pop().expect("verified stack"),
                Op::Pop => {
                    stack.pop();
                }
                Op::Dup => {
                    let top = *stack.last().expect("verified stack");
                    stack.push(top);
                }
                Op::Swap => {
                    let n = stack.len();
                    stack.swap(n - 1, n - 2);
                }
                Op::IAdd
                | Op::ISub
                | Op::IMul
                | Op::IShl
                | Op::IShr
                | Op::IUShr
                | Op::IAnd
                | Op::IOr
                | Op::IXor => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    let r = match op {
                        Op::IAdd => a.wrapping_add(b),
                        Op::ISub => a.wrapping_sub(b),
                        Op::IMul => a.wrapping_mul(b),
                        Op::IShl => a.wrapping_shl(b as u32 & 63),
                        Op::IShr => a.wrapping_shr(b as u32 & 63),
                        Op::IUShr => ((a as u64) >> (b as u32 & 63)) as i64,
                        Op::IAnd => a & b,
                        Op::IOr => a | b,
                        _ => a ^ b,
                    };
                    stack.push(Value::Int(r));
                }
                Op::IDiv | Op::IRem => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    if b == 0 {
                        jthrow!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if matches!(op, Op::IDiv) {
                        a.wrapping_div(b)
                    } else {
                        a.wrapping_rem(b)
                    };
                    stack.push(Value::Int(r));
                }
                Op::INeg => {
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Op::IInc { local, delta } => {
                    let v = locals[*local as usize].as_int();
                    locals[*local as usize] = Value::Int(v.wrapping_add(i64::from(*delta)));
                }
                Op::FAdd | Op::FSub | Op::FMul | Op::FDiv => {
                    let b = stack.pop().expect("verified").as_float();
                    let a = stack.pop().expect("verified").as_float();
                    let r = match op {
                        Op::FAdd => a + b,
                        Op::FSub => a - b,
                        Op::FMul => a * b,
                        _ => a / b,
                    };
                    stack.push(Value::Float(r));
                }
                Op::FNeg => {
                    let a = stack.pop().expect("verified").as_float();
                    stack.push(Value::Float(-a));
                }
                Op::I2F => {
                    let a = stack.pop().expect("verified").as_int();
                    stack.push(Value::Float(a as f64));
                }
                Op::F2I => {
                    let a = stack.pop().expect("verified").as_float();
                    stack.push(Value::Int(a as i64));
                }
                Op::FCmp => {
                    let b = stack.pop().expect("verified").as_float();
                    let a = stack.pop().expect("verified").as_float();
                    let r = if a.is_nan() || b.is_nan() {
                        1
                    } else if a < b {
                        -1
                    } else {
                        i64::from(a > b)
                    };
                    stack.push(Value::Int(r));
                }
                Op::Goto(t) => take_branch!(*t),
                Op::If(cond, t) => {
                    let v = stack.pop().expect("verified").as_int();
                    if cond.eval(v.cmp(&0)) {
                        take_branch!(*t);
                    }
                }
                Op::IfICmp(cond, t) => {
                    let b = stack.pop().expect("verified").as_int();
                    let a = stack.pop().expect("verified").as_int();
                    if cond.eval(a.cmp(&b)) {
                        take_branch!(*t);
                    }
                }
                Op::IfNull(t) => {
                    let v = stack.pop().expect("verified");
                    if v.as_ref_opt().is_none() {
                        take_branch!(*t);
                    }
                }
                Op::IfNonNull(t) => {
                    let v = stack.pop().expect("verified");
                    if v.as_ref_opt().is_some() {
                        take_branch!(*t);
                    }
                }
                Op::TableSwitch {
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
                Op::InvokeStatic {
                    ic,
                    cp,
                    nargs,
                    returns,
                } => {
                    let slot = *ic as usize;
                    let callee = match self.engine.ic_arena[slot] {
                        InlineCache::StaticCall(m) => m,
                        _ => {
                            flush!();
                            match self.static_target(thread, cur, *cp) {
                                Ok(m) => {
                                    self.engine.ic_arena[slot] = InlineCache::StaticCall(m);
                                    m
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    let split = stack.len() - *nargs as usize;
                    let mut call_args = self.engine.arg_pool.pop().unwrap_or_default();
                    call_args.extend(stack.drain(split..));
                    flush!();
                    match self.invoke(thread, callee, call_args) {
                        Ok(v) => {
                            if *returns {
                                stack.push(v);
                            }
                        }
                        Err(t) => throw_or_handle!(t),
                    }
                }
                Op::InvokeVirtual {
                    ic,
                    cp,
                    nargs,
                    returns,
                } => {
                    let split = stack.len() - *nargs as usize - 1;
                    let mut call_args = self.engine.arg_pool.pop().unwrap_or_default();
                    call_args.extend(stack.drain(split..));
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
                    let slot = *ic as usize;
                    let callee = match self.engine.ic_arena[slot] {
                        InlineCache::VirtualCall { receiver, target } if receiver == dyn_class => {
                            target
                        }
                        _ => {
                            flush!();
                            match self.virtual_target(thread, cur, *cp, dyn_class) {
                                Ok(m) => {
                                    self.engine.ic_arena[slot] = InlineCache::VirtualCall {
                                        receiver: dyn_class,
                                        target: m,
                                    };
                                    m
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    flush!();
                    match self.invoke(thread, callee, std::mem::take(&mut call_args)) {
                        Ok(v) => {
                            if *returns {
                                stack.push(v);
                            }
                        }
                        Err(t) => throw_or_handle!(t),
                    }
                }
                Op::Return => {
                    flush!();
                    self.engine.frame_pool.push((locals, stack));
                    return Ok(Value::Null);
                }
                Op::ValueReturn => {
                    flush!();
                    let v = stack.pop().expect("verified");
                    self.engine.frame_pool.push((locals, stack));
                    return Ok(v);
                }
                Op::New { ic, cp } => {
                    let slot = *ic as usize;
                    let cid = match self.engine.ic_arena[slot] {
                        InlineCache::NewClass(c) => c,
                        _ => {
                            flush!();
                            let name = self.registry.get(cur).classrefs[cp].clone();
                            let c = match self.ensure_loaded_or_throw(thread, &name) {
                                Ok(c) => c,
                                Err(t) => throw_or_handle!(t),
                            };
                            self.engine.ic_arena[slot] = InlineCache::NewClass(c);
                            c
                        }
                    };
                    flush!();
                    clock.charge(self.cost().alloc_object);
                    self.stats.allocations += 1;
                    let defaults = self.registry.get(cid).field_defaults();
                    let obj = self.heap_mut().alloc_instance(cid, defaults);
                    self.fire_allocation(
                        thread,
                        obj,
                        AllocSite::Bytecode {
                            method: mid,
                            bci: pc,
                        },
                    );
                    stack.push(Value::Ref(obj));
                }
                Op::GetField { ic, cp } | Op::PutField { ic, cp } => {
                    let is_put = matches!(op, Op::PutField { .. });
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
                    let slot = match self.engine.ic_arena[*ic as usize] {
                        InlineCache::InstanceField(s) => s,
                        _ => {
                            flush!();
                            match self.instance_field_slot(thread, cur, *cp) {
                                Ok(s) => {
                                    self.engine.ic_arena[*ic as usize] =
                                        InlineCache::InstanceField(s);
                                    s
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
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
                Op::GetStatic { ic, cp } | Op::PutStatic { ic, cp } => {
                    let is_put = matches!(op, Op::PutStatic { .. });
                    let (cid, slot) = match self.engine.ic_arena[*ic as usize] {
                        InlineCache::StaticField { class, slot } => (class, slot),
                        _ => {
                            flush!();
                            match self.static_field_target(thread, cur, *cp) {
                                Ok((class, slot)) => {
                                    self.engine.ic_arena[*ic as usize] =
                                        InlineCache::StaticField { class, slot };
                                    (class, slot)
                                }
                                Err(t) => throw_or_handle!(t),
                            }
                        }
                    };
                    if is_put {
                        let v = stack.pop().expect("verified");
                        self.registry.get_mut(cid).statics[slot] = v;
                    } else {
                        stack.push(self.registry.get(cid).statics[slot]);
                    }
                }
                Op::NewArray(kind) => {
                    let len = stack.pop().expect("verified").as_int();
                    if len < 0 {
                        jthrow!("java/lang/NegativeArraySizeException", &format!("{len}"));
                    }
                    let len = len as usize;
                    flush!();
                    clock.charge(self.cost().alloc_array(len));
                    self.stats.allocations += 1;
                    let r = match kind {
                        ArrayKind::Int => self.heap_mut().alloc_int_array(len),
                        ArrayKind::Float => self.heap_mut().alloc_float_array(len),
                        ArrayKind::Ref => self.heap_mut().alloc_ref_array(len),
                    };
                    self.fire_allocation(
                        thread,
                        r,
                        AllocSite::Bytecode {
                            method: mid,
                            bci: pc,
                        },
                    );
                    stack.push(Value::Ref(r));
                }
                Op::ArrLoad(kind) => {
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
                    let loaded = match (kind, self.heap().get(arr)) {
                        (ArrayKind::Int, HeapObject::IntArray(v)) => {
                            v.get(i).map(|&x| Value::Int(x))
                        }
                        (ArrayKind::Float, HeapObject::FloatArray(v)) => {
                            v.get(i).map(|&x| Value::Float(x))
                        }
                        (ArrayKind::Ref, HeapObject::RefArray(v)) => v.get(i).copied(),
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
                Op::ArrStore(kind) => {
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
                    enum StoreOutcome {
                        Ok,
                        OutOfBounds,
                        KindMismatch,
                    }
                    let outcome = match (kind, self.heap_mut().get_mut(arr)) {
                        (ArrayKind::Int, HeapObject::IntArray(v)) => {
                            if i < v.len() {
                                v[i] = value.as_int();
                                StoreOutcome::Ok
                            } else {
                                StoreOutcome::OutOfBounds
                            }
                        }
                        (ArrayKind::Float, HeapObject::FloatArray(v)) => {
                            if i < v.len() {
                                v[i] = value.as_float();
                                StoreOutcome::Ok
                            } else {
                                StoreOutcome::OutOfBounds
                            }
                        }
                        (ArrayKind::Ref, HeapObject::RefArray(v)) => {
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
                Op::ArrayLength => {
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
                Op::AThrow => {
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

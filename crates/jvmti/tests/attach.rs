//! Attach-protocol tests: capability enforcement, event filtering, TLS and
//! raw-monitor accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use jvmsim_classfile::builder::{single_method_class, ClassBuilder};
use jvmsim_classfile::MethodFlags;
use jvmsim_jvmti::{attach, Agent, AgentHost, Capabilities, EventType, JvmtiEnv, JvmtiError};
use jvmsim_vm::{AgentThread, MethodView, Value, Vm};

fn trivial_class() -> jvmsim_classfile::ClassFile {
    single_method_class("t/M", "main", "()V", |m| {
        m.invokestatic("t/M", "leaf", "()V").ret_void();
    })
    .map(|mut c| {
        // add the leaf
        let mut cb = ClassBuilder::new("tmp/X");
        let mut lm = cb.method("leaf", "()V", MethodFlags::STATIC);
        lm.ret_void();
        lm.finish().unwrap();
        let tmp = cb.finish().unwrap();
        let leaf = tmp.find_method("leaf", "()V").unwrap().clone();
        c.add_method(leaf).unwrap();
        c
    })
    .unwrap()
}

#[test]
fn enabling_gated_event_without_capability_fails_attach() {
    struct Bad;
    impl Agent for Bad {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            // No capabilities requested, MethodEntry is gated.
            host.enable_event(EventType::MethodEntry)?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    let err = attach(&mut vm, Arc::new(Bad)).unwrap_err();
    assert!(matches!(err, JvmtiError::MustPossessCapability(_)));
}

#[test]
fn prefix_requires_capability_and_nonempty() {
    struct NoCap;
    impl Agent for NoCap {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.set_native_method_prefix("$$x$$")?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    assert!(matches!(
        attach(&mut vm, Arc::new(NoCap)).unwrap_err(),
        JvmtiError::MustPossessCapability(_)
    ));

    struct EmptyPrefix;
    impl Agent for EmptyPrefix {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.add_capabilities(Capabilities::ipa());
            host.set_native_method_prefix("")?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    assert!(matches!(
        attach(&mut vm, Arc::new(EmptyPrefix)).unwrap_err(),
        JvmtiError::IllegalArgument(_)
    ));

    struct Good;
    impl Agent for Good {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.add_capabilities(Capabilities::ipa());
            host.set_native_method_prefix("$$x$$")?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    attach(&mut vm, Arc::new(Good)).unwrap();
    assert_eq!(vm.native_prefixes(), &["$$x$$".to_owned()]);
}

#[test]
fn jni_interception_requires_capability() {
    struct NoCap;
    impl Agent for NoCap {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.intercept_jni_functions(|_k, orig| orig)?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    assert!(matches!(
        attach(&mut vm, Arc::new(NoCap)).unwrap_err(),
        JvmtiError::MustPossessCapability(_)
    ));
}

#[test]
fn only_enabled_events_are_delivered() {
    #[derive(Default)]
    struct EntryOnly {
        entries: AtomicU64,
        exits: AtomicU64,
    }
    impl Agent for EntryOnly {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.add_capabilities(Capabilities::spa());
            host.enable_event(EventType::MethodEntry)?;
            // MethodExit deliberately NOT enabled.
            Ok(())
        }
        fn method_entry(&self, _t: &mut AgentThread<'_>, _m: MethodView<'_>) {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        fn method_exit(&self, _t: &mut AgentThread<'_>, _m: MethodView<'_>, _e: bool) {
            self.exits.fetch_add(1, Ordering::Relaxed);
        }
    }
    let agent = Arc::new(EntryOnly::default());
    let mut vm = Vm::new();
    vm.add_classfile(&trivial_class());
    attach(&mut vm, Arc::clone(&agent) as Arc<dyn Agent>).unwrap();
    vm.run("t/M", "main", "()V", vec![]).unwrap();
    assert_eq!(agent.entries.load(Ordering::Relaxed), 2); // main + leaf
    assert_eq!(agent.exits.load(Ordering::Relaxed), 0);
}

#[test]
fn attach_with_method_events_disables_jit() {
    struct Spa;
    impl Agent for Spa {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.add_capabilities(Capabilities::spa());
            host.enable_event(EventType::MethodEntry)?;
            host.enable_event(EventType::MethodExit)?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    assert!(vm.jit_enabled());
    attach(&mut vm, Arc::new(Spa)).unwrap();
    assert!(!vm.jit_enabled(), "method events must suppress the JIT");

    struct Ipa;
    impl Agent for Ipa {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.add_capabilities(Capabilities::ipa());
            host.enable_event(EventType::ThreadStart)?;
            host.enable_event(EventType::ThreadEnd)?;
            host.enable_event(EventType::VmDeath)?;
            Ok(())
        }
    }
    let mut vm = Vm::new();
    attach(&mut vm, Arc::new(Ipa)).unwrap();
    assert!(vm.jit_enabled(), "IPA-style agents leave the JIT on");
}

#[test]
fn tls_and_monitor_charge_the_acting_thread() {
    struct TlsAgent {
        env: OnceLock<JvmtiEnv>,
        observed: AtomicU64,
    }
    impl Agent for TlsAgent {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            host.enable_event(EventType::ThreadEnd)?;
            self.env.set(host.env()).ok();
            Ok(())
        }
        fn thread_end(&self, thread: &mut AgentThread<'_>) {
            let env = self.env.get().unwrap();
            let clock = thread.clock;
            let before = env.timestamp_unaccounted(clock);
            let tls = env.create_tls::<u64>();
            let v = tls.get_or_insert_with(thread, || 7);
            assert_eq!(*v, 7);
            let mon = env.create_raw_monitor("stats", 0u64);
            *mon.enter(clock) += 1;
            let t1 = env.timestamp(clock);
            let after = env.timestamp_unaccounted(clock);
            assert!(
                after.cycles() > before.cycles(),
                "agent work must cost cycles"
            );
            assert!(t1.cycles() <= after.cycles());
            self.observed.fetch_add(1, Ordering::Relaxed);
        }
    }
    let agent = Arc::new(TlsAgent {
        env: OnceLock::new(),
        observed: AtomicU64::new(0),
    });
    let mut vm = Vm::new();
    vm.add_classfile(&trivial_class());
    attach(&mut vm, Arc::clone(&agent) as Arc<dyn Agent>).unwrap();
    vm.run("t/M", "main", "()V", vec![]).unwrap();
    assert_eq!(agent.observed.load(Ordering::Relaxed), 1);
}

#[test]
fn tls_lifecycle() {
    struct Noop;
    impl Agent for Noop {
        fn on_load(&self, _h: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            Ok(())
        }
    }
    let mut vm = Vm::new();
    let env = attach(&mut vm, Arc::new(Noop)).unwrap();
    let pcl = jvmsim_pcl::Pcl::new();
    let clock = pcl.handle(pcl.register_thread());
    let mut locals = jvmsim_vm::AgentLocals::default();
    let mut t0 = AgentThread {
        id: jvmsim_vm::ThreadId::from_index(0),
        clock: &clock,
        locals: &mut locals,
    };

    let tls = env.create_tls::<Vec<u64>>();
    let other = env.create_tls::<u64>();
    assert!(!tls.is_set(&t0));
    assert!(tls.get(&mut t0).is_none());
    tls.put(&mut t0, vec![1, 2]);
    other.put(&mut t0, 9);
    assert!(tls.is_set(&t0));
    tls.get(&mut t0).unwrap().push(3);
    assert_eq!(*tls.get(&mut t0).unwrap(), vec![1, 2, 3]);
    assert_eq!(tls.remove(&mut t0), Some(vec![1, 2, 3]));
    assert!(tls.get(&mut t0).is_none());
    // Keys are independent slots.
    assert_eq!(other.remove(&mut t0), Some(9));
}

#[test]
fn bootstrap_classpath_and_agent_library() {
    struct Loader;
    impl Agent for Loader {
        fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            // Prepend an "instrumented" class and a native library.
            let class = single_method_class("boot/Injected", "f", "()I", |m| {
                m.iconst(5)
                    .invokestatic("boot/Injected", "nat", "(I)I")
                    .ireturn();
            })
            .unwrap();
            let mut with_native = class.clone();
            with_native
                .add_method(
                    jvmsim_classfile::MethodInfo::new_native("nat", "(I)I", MethodFlags::STATIC)
                        .unwrap(),
                )
                .unwrap();
            host.append_to_bootstrap_class_path(vec![(
                "boot/Injected".to_owned(),
                jvmsim_classfile::codec::encode(&with_native),
            )]);
            let mut lib = jvmsim_vm::NativeLibrary::new("agentlib");
            lib.register_method("boot/Injected", "nat", |_env, args| {
                Ok(Value::Int(args[0].as_int() * 11))
            });
            host.load_agent_native_library(lib);
            Ok(())
        }
    }
    let mut vm = Vm::new();
    attach(&mut vm, Arc::new(Loader)).unwrap();
    let r = vm
        .call_static("boot/Injected", "f", "()I", vec![])
        .unwrap()
        .unwrap();
    assert_eq!(r, Value::Int(55));
}

//! Thread-local storage: dense per-thread slots enumerate in thread-id
//! order, and every access charges exactly one `tls_access`.

use std::sync::{Arc, Mutex, OnceLock};

use jvmsim_classfile::builder::single_method_class;
use jvmsim_jvmti::ThreadLocalStorage;
use jvmsim_jvmti::{attach, Agent, AgentHost, Capabilities, EventType, JvmtiError};
use jvmsim_pcl::Pcl;
use jvmsim_vm::{AgentLocals, AgentThread, MethodView, ThreadId, Vm};

/// Keeps a value in TLS on every thread and never drops it (no
/// `ThreadEnd`), so all of them are still set at `VMDeath`.
#[derive(Default)]
struct Leftovers {
    lazy: OnceLock<ThreadLocalStorage<usize>>,
    late: OnceLock<ThreadLocalStorage<usize>>,
    /// `(thread, value)` per key, in the order `VMDeath` enumerated them.
    seen: Mutex<Vec<(usize, usize)>>,
}

impl Agent for Leftovers {
    fn on_load(&self, host: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
        host.add_capabilities(Capabilities::spa());
        host.enable_event(EventType::MethodEntry)?;
        host.enable_event(EventType::VmDeath)?;
        let env = host.env();
        self.lazy.set(env.create_tls()).ok();
        self.late.set(env.create_tls()).ok();
        Ok(())
    }

    fn method_entry(&self, thread: &mut AgentThread<'_>, _m: MethodView<'_>) {
        let id = thread.id.index();
        self.lazy.get().unwrap().get_or_insert_with(thread, || id);
    }

    fn vm_death(&self, threads: &mut [AgentThread<'_>]) {
        let (lazy, late) = (self.lazy.get().unwrap(), self.late.get().unwrap());
        // Insert into the second key newest thread first.
        for thread in threads.iter_mut().rev() {
            let id = thread.id.index();
            late.put(thread, 100 + id);
        }
        let mut seen = self.seen.lock().unwrap();
        for key in [lazy, late] {
            for thread in threads.iter_mut().filter(|t| key.is_set(t)) {
                let id = thread.id.index();
                seen.push((id, *key.get(thread).unwrap()));
            }
        }
    }
}

#[test]
fn vm_death_enumerates_thread_storage_in_thread_id_order() {
    let class = single_method_class("t/W", "main", "()V", |m| {
        m.ret_void();
    })
    .unwrap();
    let mut vm = Vm::new();
    vm.add_classfile(&class);
    for name in ["w1", "w2", "w3"] {
        vm.spawn_thread(name, "t/W", "main", "()V", vec![]);
    }
    let agent = Arc::new(Leftovers::default());
    attach(&mut vm, Arc::clone(&agent) as Arc<dyn Agent>).unwrap();
    vm.run("t/W", "main", "()V", vec![]).unwrap();
    let seen = agent.seen.lock().unwrap().clone();
    let lazy: Vec<_> = (0..4).map(|i| (i, i)).collect();
    let late: Vec<_> = (0..4).map(|i| (i, 100 + i)).collect();
    assert_eq!(seen, [lazy, late].concat());
}

#[test]
fn each_tls_access_charges_exactly_one_tls_access() {
    struct Noop;
    impl Agent for Noop {
        fn on_load(&self, _h: &mut AgentHost<'_>) -> Result<(), JvmtiError> {
            Ok(())
        }
    }
    let mut vm = Vm::new();
    let env = attach(&mut vm, Arc::new(Noop)).unwrap();
    let cost = env.costs().tls_access;
    assert!(cost > 0);
    let pcl = Pcl::new();
    let clock = pcl.handle(pcl.register_thread());
    let mut locals = AgentLocals::default();
    let mut thread = AgentThread {
        id: ThreadId::from_index(0),
        clock: &clock,
        locals: &mut locals,
    };
    let tls = env.create_tls::<u64>();
    let charged = |before: u64, accesses: u64| {
        assert_eq!(clock.cycles() - before, accesses * cost);
        clock.cycles()
    };
    let mut at = clock.cycles();

    assert!(tls.get(&mut thread).is_none());
    at = charged(at, 1);
    tls.put(&mut thread, 1);
    at = charged(at, 1);
    assert_eq!(tls.get(&mut thread).copied(), Some(1));
    at = charged(at, 1);
    assert!(tls.is_set(&thread));
    at = charged(at, 0);
    assert_eq!(tls.remove(&mut thread), Some(1));
    at = charged(at, 1);
    assert_eq!(tls.remove(&mut thread), None);
    at = charged(at, 1);
    // The lazy helper is a get, plus a put when it has to allocate.
    assert_eq!(*tls.get_or_insert_with(&mut thread, || 7), 7);
    at = charged(at, 2);
    assert_eq!(*tls.get_or_insert_with(&mut thread, || 8), 7);
    charged(at, 1);
}

//! Thread-local storage for agents (§II-B b).
//!
//! "Thread-local storage allows to associate a datastructure with each
//! thread. Our profiling agents keep the profiling statistics for each
//! thread in thread-local storage, which enables efficient update without
//! synchronization needs."
//!
//! The storage itself lives in the VM's thread table ([`AgentLocals`]):
//! each thread carries one dense slot per TLS key, and an event callback
//! reaches its thread's slots through the [`AgentThread`] it is handed —
//! an index, not a lock or a hash lookup.
//!
//! Every access charges the configured TLS cost to the accessing thread's
//! cycle clock, so agent bookkeeping shows up in the measurements exactly
//! as the real JVMTI `GetThreadLocalStorage` calls would.
//!
//! [`AgentLocals`]: jvmsim_vm::AgentLocals

use std::any::Any;
use std::marker::PhantomData;

use jvmsim_vm::AgentThread;

/// A typed thread-local storage key: one value of type `T` per thread.
pub struct ThreadLocalStorage<T> {
    key: usize,
    /// The cost model's `tls_access`, charged once per access.
    access_cycles: u64,
    _value: PhantomData<fn() -> T>,
}

impl<T> std::fmt::Debug for ThreadLocalStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadLocalStorage")
            .field("key", &self.key)
            .finish()
    }
}

impl<T: Send + 'static> ThreadLocalStorage<T> {
    pub(crate) fn new(key: usize, access_cycles: u64) -> Self {
        ThreadLocalStorage {
            key,
            access_cycles,
            _value: PhantomData,
        }
    }

    /// Charge one access to `thread` and return its slot for this key.
    fn access<'t>(&self, thread: &'t mut AgentThread<'_>) -> &'t mut Option<Box<dyn Any + Send>> {
        thread.clock.charge(self.access_cycles);
        thread.locals.slot(self.key)
    }

    /// `SetThreadLocalStorage`: associate `value` with `thread`.
    pub fn put(&self, thread: &mut AgentThread<'_>, value: T) {
        *self.access(thread) = Some(Box::new(value));
    }

    /// `GetThreadLocalStorage`: `thread`'s value, if set.
    pub fn get<'t>(&self, thread: &'t mut AgentThread<'_>) -> Option<&'t mut T> {
        self.access(thread).as_mut().and_then(|v| v.downcast_mut())
    }

    /// The paper's `GetThreadLocalStorage` helper: fetch, allocating on
    /// demand — required because the JVMTI "does not signal the
    /// ThreadStart event for the bootstrapping thread" (§III). Charges one
    /// access for the fetch and, when `make` runs, one more for the store.
    pub fn get_or_insert_with<'t>(
        &self,
        thread: &'t mut AgentThread<'_>,
        make: impl FnOnce() -> T,
    ) -> &'t mut T {
        let clock = thread.clock;
        let slot = self.access(thread);
        if slot.is_none() {
            let value = make();
            clock.charge(self.access_cycles);
            *slot = Some(Box::new(value));
        }
        slot.as_mut()
            .and_then(|v| v.downcast_mut())
            .expect("a TLS key holds values of its own type")
    }

    /// Whether `thread` holds a value, without charging it (harness-side
    /// inspection, e.g. at `VMDeath` to find threads that never ended).
    pub fn is_set(&self, thread: &AgentThread<'_>) -> bool {
        thread.locals.is_set(self.key)
    }

    /// Remove and return `thread`'s value (used at `ThreadEnd`).
    pub fn remove(&self, thread: &mut AgentThread<'_>) -> Option<T> {
        self.access(thread)
            .take()
            .and_then(|v| v.downcast().ok())
            .map(|v| *v)
    }
}

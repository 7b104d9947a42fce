//! Interpreter bench: host wall-clock of the bytecode interpreter across
//! all eight SPEC-style workloads.
//!
//! Runs at `--tiers interp-only` so every simulated cycle is interpreter
//! work and host wall-clock is dominated by bytecode dispatch. Program
//! generation is hoisted out of the timed region (it is workload
//! synthesis, not interpretation); the measured loop is VM construction,
//! class loading, and the full bytecode run.
//!
//! Set `JVMSIM_BENCH_SMOKE=1` (as CI does) to shrink sample counts for a
//! fast functional pass that still compiles and runs every workload.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use jvmsim_vm::{builtins, TiersMode, Value, Vm};
use workloads::{by_name, WorkloadProgram};

const WORKLOADS: [&str; 8] = [
    "compress",
    "jess",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
    "jbb",
];

const SIZE: i64 = 10;

fn smoke() -> bool {
    std::env::var_os("JVMSIM_BENCH_SMOKE").is_some()
}

/// One interpreter-only run of a pre-generated program; returns total
/// simulated cycles so the optimizer cannot discard the work.
fn run(program: &WorkloadProgram) -> u64 {
    let mut vm = Vm::new();
    vm.set_tiers_mode(TiersMode::InterpOnly);
    builtins::install(&mut vm);
    for class in &program.classes {
        vm.add_classfile(class);
    }
    for lib in &program.libraries {
        vm.register_native_library(lib.clone(), true);
    }
    vm.run(&program.entry_class, "main", "(I)I", vec![Value::Int(SIZE)])
        .unwrap_or_else(|e| panic!("{}: {e:?}", program.entry_class))
        .total_cycles
}

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp");
    if smoke() {
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(50));
        group.measurement_time(Duration::from_millis(200));
    } else {
        group.sample_size(10);
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_millis(1500));
    }
    for name in WORKLOADS {
        let program = by_name(name).unwrap().program();
        group.bench_function(name, |b| b.iter(|| run(&program)));
    }
    group.finish();
}

criterion_group!(interp, bench_interp);
criterion_main!(interp);

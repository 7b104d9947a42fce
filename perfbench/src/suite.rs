//! `suite_cold`: the full 40-cell matrix through `run_suite`, uncached.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jnativeprof::classfile::codec;
use jnativeprof::harness::AgentChoice;
use jnativeprof::instr::Archive;
use jnativeprof::metrics::MetricsRegistry;
use jnativeprof::nativeprof::IpaAgent;
use jnativeprof::session::{RunOutcome, Session};
use jnativeprof::vm::{builtins, TiersMode, Value};
use jnativeprof::workloads::{by_name, prepare_vm, ProblemSize, WorkloadProgram};
use jvmsim_cache::Digest;
use nativeprof_bench::{agents_artifact, run_suite, table1_artifact, table2_artifact};
use nativeprof_bench::{SuiteConfig, SuiteResult};

use crate::calib::Speed;
use crate::gen::{AGENTS, WORKLOADS};
use crate::report::{median, process_cpu_s, Tally};
use crate::trace::Tracer;
use crate::{Outcome, Values};

/// The paper's Table I size; the suite driver runs `jbb` at a tenth.
const SIZE: ProblemSize = ProblemSize::S100;

/// Cells in one pass: 8 workloads × 5 agents.
const CELLS: usize = WORKLOADS.len() * AGENTS.len();

/// SHA-256 of `table1.csv`, `table2.csv` and `agents.csv` for the s100
/// matrix at the full tier ceiling. Runs are virtual-cycle deterministic,
/// so any other digest means a pass produced different tables.
const ARTIFACT_DIGESTS: [&str; 3] = [
    "7b17ff30e348624733434552da05e7d704db41564ee52281ac9ea1dfc1069ad7",
    "3603e2d0bf7d017c744c4e985e68fe4e7f86ef2f920ffc2f03b2ca34143356a9",
    "8643a6c7bd160dd63d18086b13a0a28c58ee894012ec768f20aefae992624bd5",
];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn config(size: ProblemSize, jobs: usize) -> SuiteConfig {
    SuiteConfig::with_size(size).jobs(jobs)
}

/// A cell's problem size, as the suite driver scales it.
fn size_of(workload: &str) -> ProblemSize {
    let c = config(SIZE, 1);
    if workload == "jbb" {
        c.jbb_size
    } else {
        c.size
    }
}

/// The three table artifacts of a pass, as CSV text.
fn artifacts(result: &SuiteResult) -> [String; 3] {
    [
        table1_artifact(&result.table1, result.jbb).to_csv(),
        table2_artifact(&result.table2).to_csv(),
        agents_artifact(&result.agent_rows).to_csv(),
    ]
}

/// Count a pass's cells: a quarantined cell fails, and if any artifact
/// digest differs from the recorded one every cell of the pass fails.
fn check_pass(result: &SuiteResult) -> Tally {
    let digests = artifacts(result).map(|csv| Digest::of(csv.as_bytes()).to_hex());
    let failed = if digests == ARTIFACT_DIGESTS.map(str::to_owned) {
        result.failures.len().min(CELLS)
    } else {
        eprintln!("suite_cold: artifact digests {digests:?} differ from the recorded ones");
        CELLS
    };
    for f in &result.failures {
        eprintln!("suite_cold: quarantined cell: {f}");
    }
    Tally {
        attempted: CELLS as u64,
        failed: failed as u64,
    }
}

/// One set-up: synthesise every workload, then a size-1 warm-up pass.
/// Returns its CPU seconds.
fn setup_once(jobs: usize) -> (f64, Tally) {
    let cpu = process_cpu_s();
    for w in WORKLOADS {
        black_box(by_name(w).expect("known workload").program());
    }
    let warm = run_suite(config(ProblemSize::S1, jobs));
    let secs = process_cpu_s() - cpu;
    let tally = Tally {
        attempted: CELLS as u64,
        failed: warm.failures.len() as u64,
    };
    (secs, tally)
}

/// One timed pass: its wall and CPU seconds and the checked result.
fn pass(jobs: usize) -> (f64, f64, SuiteResult) {
    let (started, cpu) = (Instant::now(), process_cpu_s());
    let result = run_suite(config(SIZE, jobs));
    let cpu = process_cpu_s() - cpu;
    (started.elapsed().as_secs_f64(), cpu, result)
}

pub fn run(seconds: u64, jobs: usize, tracer: &Tracer) -> Outcome {
    let mut tally = Tally::default();
    let mut speed = Speed::new(jobs);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        speed.read();
        let (secs, t) = setup_once(jobs);
        setups.push(secs);
        tally.absorb(t);
    }
    let mut values = Values::new();
    if tracer.enabled() {
        values.insert("setup_s", median(&setups) / speed.median());
        traced(jobs, tracer, &mut values, &mut tally);
        return Outcome::new(tally, values);
    }
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while started.elapsed() < budget || cpus.is_empty() {
        speed.read();
        let (wall, cpu, result) = pass(jobs);
        tally.absorb(check_pass(&result));
        walls.push(wall);
        cpus.push(cpu);
    }
    speed.read();
    let slowdown = speed.median();
    values.insert("setup_s", median(&setups) / slowdown);
    values.insert("cells_per_cpu_s", CELLS as f64 * slowdown / median(&cpus));
    let ms = |v: &[f64]| v.iter().map(|s| (s * 1000.0).round()).collect::<Vec<_>>();
    eprintln!(
        "suite_cold: {} passes, CPU ms {:?}, wall ms {:?}, host slowdowns {:?}",
        cpus.len(),
        ms(&cpus),
        ms(&walls),
        speed.readings()
    );
    Outcome::new(tally, values)
}

/// The program's archive exactly as a session builds it: the boot
/// library plus the workload's classes.
pub fn encode_archive(program: &WorkloadProgram) -> Archive {
    let mut archive = Archive::new();
    for (name, bytes) in builtins::boot_archive() {
        archive
            .insert_bytes(name, bytes)
            .expect("unique boot class");
    }
    for class in &program.classes {
        archive.insert_class(class).expect("unique app class");
    }
    archive
}

/// Host time of one bare VM run (no agent, no session), µs, under a span
/// named `name`, and the bytecodes it executed.
fn vm_run(
    program: &WorkloadProgram,
    size: ProblemSize,
    tiers: TiersMode,
    tracer: &Tracer,
    name: &'static str,
    parent: Option<u64>,
) -> (f64, u64) {
    let mut vm = prepare_vm(program);
    vm.set_tiers_mode(tiers);
    let (outcome, us) = tracer.span(name, parent, |_| {
        vm.run(
            &program.entry_class,
            &program.entry_method,
            "(I)I",
            vec![Value::Int(i64::from(size.0))],
        )
        .expect("workload runs")
    });
    (us, outcome.stats.insns)
}

/// Per-workload layer costs, measured by calling each layer directly.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    synth: f64,
    encode: f64,
    decode: f64,
    instrument: f64,
    vm_full: f64,
    vm_interp: f64,
    insns: u64,
}

fn probe_layers(workload: &str, tracer: &Tracer, parent: Option<u64>) -> Layers {
    let w = by_name(workload).expect("known workload");
    let size = size_of(workload);
    let (program, synth) = tracer.span("workloads.synth", parent, |_| w.program());
    let (archive, encode) = tracer.span("classfile.encode", parent, |_| encode_archive(&program));
    let ((), decode) = tracer.span("classfile.decode", parent, |_| {
        for (_, bytes) in archive.iter() {
            black_box(codec::decode(bytes).expect("archive decodes"));
        }
    });
    let mut copy = archive.clone();
    let (_, instrument) = tracer.span("instr.instrument", parent, |_| {
        IpaAgent::new()
            .instrument_archive(&mut copy)
            .expect("instrumentation succeeds")
    });
    let (vm_full, insns) = vm_run(&program, size, TiersMode::Full, tracer, "vm.run", parent);
    let (vm_interp, _) = vm_run(
        &program,
        size,
        TiersMode::InterpOnly,
        tracer,
        "vm.run_interp_only",
        parent,
    );
    Layers {
        synth,
        encode,
        decode,
        instrument,
        vm_full,
        vm_interp,
        insns,
    }
}

/// One replayed cell: its host time and the run it produced.
struct CellRun {
    micros: f64,
    run: RunOutcome,
}

/// Replay the matrix cell by cell through `Session::run`, in the driver's
/// order and with its worker count, one span per cell.
fn replay_cells(jobs: usize, tracer: &Tracer) -> (Vec<CellRun>, f64) {
    let cells: Vec<(&str, &str)> = WORKLOADS
        .iter()
        .flat_map(|&w| AGENTS.iter().map(move |&a| (w, a)))
        .collect();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    let ((), wall) = tracer.span("suite.replay", None, |root| {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(workload, agent)) = cells.get(i) else {
                        break;
                    };
                    let w = by_name(workload).expect("known workload");
                    let choice = AgentChoice::parse(agent).expect("known agent");
                    let (run, micros) = tracer.span("cell", root, |_| {
                        Session::new(w.as_ref(), size_of(workload))
                            .agent(choice)
                            .tiers(TiersMode::Full)
                            .metrics(MetricsRegistry::new())
                            .run()
                            .expect("cell runs")
                    });
                    slots.lock().expect("cell slots poisoned")[i] = Some(CellRun { micros, run });
                });
            }
        });
    });
    let runs = slots
        .into_inner()
        .expect("cell slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every cell ran"))
        .collect();
    (runs, wall)
}

fn traced(jobs: usize, tracer: &Tracer, values: &mut Values, tally: &mut Tally) {
    // One untraced pass: the baseline of the tracing overhead, and the
    // tables `driver.assemble` rebuilds.
    let (w0, _, reference) = pass(jobs);
    tally.absorb(check_pass(&reference));
    let w0_us = w0 * 1e6;

    let (layers, _) = tracer.span("suite.layers", None, |root| {
        WORKLOADS
            .iter()
            .map(|w| probe_layers(w, tracer, root))
            .collect::<Vec<_>>()
    });
    let (cells, replay_us) = replay_cells(jobs, tracer);
    let (_, assemble) = tracer.span("driver.assemble", None, |_| artifacts(&reference));

    let agents = AGENTS.len();
    let cell = |w: usize, a: &str| {
        &cells[w * agents + AGENTS.iter().position(|x| *x == a).expect("agent")]
    };
    // The replayed pass is partitioned exactly. Agent delivery is the agent
    // cell minus the original cell of the same workload (SPA's original
    // baseline moved to the interp-only ceiling it forces; IPA's net of
    // its instrumentation). What an original cell spends beyond the
    // separately timed synth + encode + VM run (session set-up, metering,
    // attach) is paid by every cell of its workload: that is the
    // unattributed remainder.
    let (mut spa, mut ipa, mut alloc, mut lock) = ([0.0; 2], [0.0; 2], [0.0; 2], [0.0; 2]);
    let mut session_rest = 0.0;
    for (w, l) in layers.iter().enumerate() {
        let orig = cell(w, "original").micros;
        session_rest += orig - (l.synth + l.encode + l.vm_full);
        let s = cell(w, "spa");
        spa[0] += s.run.outcome.stats.events_dispatched as f64;
        spa[1] += s.micros - (orig - l.vm_full + l.vm_interp);
        let i = cell(w, "ipa");
        let profile = i.run.profile.as_ref().expect("IPA profile");
        ipa[0] += (profile.native_method_calls + profile.jni_calls) as f64;
        ipa[1] += i.micros - orig - l.instrument;
        let a = cell(w, "alloc");
        alloc[0] += a.run.alloc.as_ref().expect("ALLOC report").total_objects as f64;
        alloc[1] += a.micros - orig;
        let k = cell(w, "lock");
        lock[0] += k.run.lock.as_ref().expect("LOCK report").total_entries() as f64;
        lock[1] += k.micros - orig;
    }
    let sum = |f: fn(&Layers) -> f64| layers.iter().map(f).sum::<f64>();
    let per_cell = agents as f64;
    let synth = per_cell * sum(|l| l.synth);
    let encode = per_cell * sum(|l| l.encode);
    let instrument = sum(|l| l.instrument);
    let vm_orig = sum(|l| l.vm_full);
    let vm_agents = 3.0 * sum(|l| l.vm_full) + sum(|l| l.vm_interp);
    let insns = layers.iter().map(|l| l.insns).sum::<u64>() as f64;
    let cell_total: f64 = cells.iter().map(|c| c.micros).sum();
    let capacity = jobs as f64 * replay_us;
    let idle = capacity - cell_total;
    let unattributed = per_cell * session_rest;

    values.insert("workloads.synth_us", synth);
    values.insert("classfile.encode_us", encode);
    values.insert("classfile.decode_us", per_cell * sum(|l| l.decode));
    values.insert("instr.instrument_us", instrument);
    values.insert("vm.run_us", vm_orig);
    values.insert("vm.insns", insns);
    values.insert("vm.ns_per_insn", vm_orig * 1_000.0 / insns);
    values.insert("core.spa.events", spa[0]);
    values.insert("core.spa.ns_per_event", spa[1] * 1_000.0 / spa[0]);
    values.insert("core.ipa.events", ipa[0]);
    values.insert("core.ipa.ns_per_event", ipa[1] * 1_000.0 / ipa[0]);
    values.insert("agents.alloc.events", alloc[0]);
    values.insert("agents.alloc.ns_per_event", alloc[1] * 1_000.0 / alloc[0]);
    values.insert("agents.lock.events", lock[0]);
    values.insert("agents.lock.ns_per_event", lock[1] * 1_000.0 / lock[0]);
    values.insert("driver.assemble_us", assemble);
    values.insert("driver.parallel_eff", cell_total / capacity);
    values.insert("suite.unattributed_frac", unattributed / capacity);
    values.insert("trace.overhead_frac", (replay_us - w0_us) / w0_us);

    let row = |name: &str, us: f64| {
        println!(
            "  {name:<42} {:>12.1} ms {:>7.2} %",
            us / 1e3,
            100.0 * us / capacity
        );
    };
    println!(
        "suite_cold layer attribution of the traced pass: {jobs} jobs x {:.3} s wall = {:.1} ms \
         (untraced pass {w0:.3} s)",
        replay_us / 1e6,
        capacity / 1e3
    );
    row("workloads.synth (40 cells)", synth);
    row("classfile.encode (40 cells)", encode);
    row("instr.instrument (8 IPA cells)", instrument);
    row("vm.run (8 original cells)", vm_orig);
    row("vm.run baseline of 32 agent cells", vm_agents);
    row("core.spa delivery", spa[1]);
    row("core.ipa delivery", ipa[1]);
    row("agents.alloc delivery", alloc[1]);
    row("agents.lock delivery", lock[1]);
    row("driver idle (parallel slack)", idle);
    row("unattributed (session beyond the layers)", unattributed);
    println!("  driver.assemble after the pass: {:.1} us", assemble);
}

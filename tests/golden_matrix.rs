//! Golden pins for the 40-cell matrix at size 1: every cell's
//! `total_cycles`, its 9-bucket cycle ledger, the VM's event count and
//! the agent report it produced (SPA/IPA native profile, ALLOC site
//! table, LOCK monitor ledger).
//!
//! The values were produced by the event-delivery path that cloned the
//! sink, env and TLS context on every event. Delivery plumbing must cost
//! host time only, never a simulated cycle, so any change to it has to
//! reproduce these lines exactly.
//!
//! A second pin file crosses the same 40 cells with the three `--tiers`
//! settings (120 lines) and adds two digests per cell: one over the
//! `VmStats` oracle (per-tier cycle columns, compile and OSR counts
//! included) and one over the full transition-trace stream, cycles at
//! emission and all. Those lines were produced by, and checked against,
//! both the switch-dispatch reference interpreter and the threaded one
//! that replaced it, so the interpreter is pinned down to the last trace
//! event. Both tests read one shared run of the 120 cells; the 40 pins
//! are its default-tier lines.

use std::sync::{Arc, Mutex, OnceLock};

use jnativeprof::harness::AgentChoice;
use jnativeprof::metrics::{Bucket, MetricsRegistry};
use jnativeprof::session::{RunOutcome, Session};
use jnativeprof::vm::{MethodId, ThreadId, TiersMode, TraceEventKind, TraceSink};
use workloads::{by_name, ProblemSize};

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

const GOLDEN: &str = include_str!("golden/matrix_s1.txt");
const GOLDEN_TIERS: &str = include_str!("golden/matrix_tiers_s1.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_extend(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a report's `Debug` rendering: a compact pin of every field.
fn fnv(text: &str) -> u64 {
    fnv_extend(FNV_OFFSET, text)
}

/// Folds every trace event, in emission order, into one FNV-1a digest
/// (one `thread kind cycles method` line per event).
struct DigestSink(Mutex<u64>);

impl TraceSink for DigestSink {
    fn record(
        &self,
        thread: ThreadId,
        kind: TraceEventKind,
        cycles: u64,
        method: Option<MethodId>,
    ) {
        let mut hash = self.0.lock().unwrap();
        *hash = fnv_extend(*hash, &format!("{thread:?} {kind:?} {cycles} {method:?}\n"));
    }
}

fn line(workload: &str, run: &RunOutcome, ledger: [u64; Bucket::COUNT]) -> String {
    let mut out = format!(
        "{workload} {} total={} events={} ledger={ledger:?}",
        run.agent, run.outcome.total_cycles, run.outcome.stats.events_dispatched
    );
    if let Some(p) = &run.profile {
        let threads: Vec<String> = p
            .threads
            .iter()
            .map(|(name, s)| format!("{name}:{}/{}", s.bytecode, s.native))
            .collect();
        out += &format!(
            " bytecode={} native={} jni={} nmc={} threads=[{}]",
            p.total.bytecode,
            p.total.native,
            p.jni_calls,
            p.native_method_calls,
            threads.join(",")
        );
    }
    if let Some(a) = &run.alloc {
        out += &format!(
            " objects={} bytes={} sites={} overflow={} death_tick={} report={:016x}",
            a.total_objects,
            a.total_bytes,
            a.sites.len(),
            a.overflow_objects,
            a.death_tick,
            fnv(&format!("{a:?}"))
        );
    }
    if let Some(l) = &run.lock {
        out += &format!(
            " entries={} contended={} blocked={} report={:016x}",
            l.total_entries(),
            l.total_contended(),
            l.total_blocked_cycles(),
            fnv(&format!("{l:?}"))
        );
    }
    out
}

/// Every cell at every `--tiers` setting: the cell's pin line, then the
/// tiers label and the `VmStats` and trace-stream digests.
fn render() -> String {
    let agents = [
        AgentChoice::None,
        AgentChoice::Spa,
        AgentChoice::ipa(),
        AgentChoice::Alloc,
        AgentChoice::Lock,
    ];
    let mut out = String::new();
    for workload in WORKLOADS {
        let w = by_name(workload).expect("known workload");
        for agent in &agents {
            for tiers in TiersMode::ALL {
                let metrics = MetricsRegistry::new();
                let trace = Arc::new(DigestSink(Mutex::new(FNV_OFFSET)));
                let run = Session::new(w.as_ref(), ProblemSize::S1)
                    .agent(agent.clone())
                    .tiers(tiers)
                    .metrics(metrics.clone())
                    .trace(Arc::clone(&trace) as Arc<dyn TraceSink>)
                    .run()
                    .unwrap_or_else(|e| {
                        panic!("{workload}/{}/{}: {e}", agent.label(), tiers.label())
                    });
                let snapshot = metrics.snapshot();
                let ledger = Bucket::ALL.map(|b| snapshot.bucket_cycles(b));
                out += &format!(
                    "{} tiers={} stats={:016x} trace={:016x}\n",
                    line(workload, &run, ledger),
                    tiers.label(),
                    fnv(&format!("{:?}", run.outcome.stats)),
                    *trace.0.lock().unwrap()
                );
            }
        }
    }
    out
}

/// The rendering, computed once and shared by both tests.
fn rendered() -> &'static str {
    static RENDERED: OnceLock<String> = OnceLock::new();
    RENDERED.get_or_init(render)
}

fn assert_matches(golden: &str, file: &str, actual: &str) {
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "cell {i} drifted from tests/golden/{file}");
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "cell count changed; full rendering:\n{actual}"
    );
}

#[test]
fn tier_matrix_cells_match_the_golden_pins() {
    assert_matches(GOLDEN_TIERS, "matrix_tiers_s1.txt", rendered());
}

/// The default-tier lines, cut before the tiers-axis fields, are the
/// original 40-cell pins.
#[test]
fn matrix_cells_match_the_golden_pins() {
    let cut = format!(" tiers={} ", TiersMode::default().label());
    let actual: String = rendered()
        .lines()
        .filter_map(|l| l.split_once(&cut))
        .map(|(cell, _)| format!("{cell}\n"))
        .collect();
    assert_matches(GOLDEN, "matrix_s1.txt", &actual);
}

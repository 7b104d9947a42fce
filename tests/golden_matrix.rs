//! Golden pins for the 40-cell matrix at size 1: every cell's
//! `total_cycles`, its 9-bucket cycle ledger, the VM's event count and
//! the agent report it produced (SPA/IPA native profile, ALLOC site
//! table, LOCK monitor ledger).
//!
//! The values were produced by the event-delivery path that cloned the
//! sink, env and TLS context on every event. Delivery plumbing must cost
//! host time only, never a simulated cycle, so any change to it has to
//! reproduce these lines exactly.

use jnativeprof::harness::AgentChoice;
use jnativeprof::metrics::{Bucket, MetricsRegistry};
use jnativeprof::session::{RunOutcome, Session};
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

/// FNV-1a over a report's `Debug` rendering: a compact pin of every field.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
            let metrics = MetricsRegistry::new();
            let run = Session::new(w.as_ref(), ProblemSize::S1)
                .agent(agent.clone())
                .metrics(metrics.clone())
                .run()
                .unwrap_or_else(|e| panic!("{workload}/{}: {e}", agent.label()));
            let snapshot = metrics.snapshot();
            let ledger = Bucket::ALL.map(|b| snapshot.bucket_cycles(b));
            out += &line(workload, &run, ledger);
            out.push('\n');
        }
    }
    out
}

#[test]
fn matrix_cells_match_the_golden_pins() {
    let actual = render();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            got, want,
            "cell {i} drifted from tests/golden/matrix_s1.txt"
        );
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "cell count changed; full rendering:\n{actual}"
    );
}

//! Host-time benchmark of the jnativeprof workspace.
//!
//! ```text
//! jprof-perfbench --workload <suite_cold|serve_miss> --seed <n>
//!                 --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` records spans around every public layer call and reports
//! the per-layer metrics instead. The last stdout line is the JSON result.
//! See `NOTES.md` for what each workload exercises and why.

mod calib;
mod gen;
mod report;
mod serve;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_line, Tally};
use trace::Tracer;

/// Metric values a run measured, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// The workload's purity guard held.
    pub pure: bool,
}

impl Outcome {
    pub fn new(tally: Tally, values: Values) -> Outcome {
        Outcome {
            tally,
            values,
            pure: true,
        }
    }
}

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// all of them; see `NOTES.md` for what "operation" means per workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cells_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload
/// bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.synth_us", "us"),
    ("classfile.encode_us", "us"),
    ("classfile.decode_us", "us"),
    ("instr.instrument_us", "us"),
    ("vm.run_us", "us"),
    ("vm.insns", "count"),
    ("vm.ns_per_insn", "ns"),
    ("core.spa.events", "count"),
    ("core.spa.ns_per_event", "ns"),
    ("core.ipa.events", "count"),
    ("core.ipa.ns_per_event", "ns"),
    ("agents.alloc.events", "count"),
    ("agents.alloc.ns_per_event", "ns"),
    ("agents.lock.events", "count"),
    ("agents.lock.ns_per_event", "ns"),
    ("driver.assemble_us", "us"),
    ("driver.parallel_eff", "ratio"),
    ("suite.unattributed_frac", "ratio"),
    ("serve.http.parse_us", "us"),
    ("serve.spec.route_us", "us"),
    ("session.result_key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cell.decode_us", "us"),
    ("cell.row_json_us", "us"),
    ("serve.http.render_us", "us"),
    ("serve.client.cpu_p50_us", "us"),
    ("serve.client.cpu_p90_us", "us"),
    ("serve.client.wall_p50_us", "us"),
    ("serve.server.latency_p50_us", "us"),
    ("serve.server.latency_mean_us", "us"),
    ("session.run_us", "us"),
    ("cell.encode_us", "us"),
    ("cache.store_us", "us"),
    ("serve.queue_depth_hw", "count"),
    ("serve.miss_unattributed_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("trace.overhead_frac", "ratio"),
];

const USAGE: &str = "usage: jprof-perfbench --workload <suite_cold|serve_miss> \
                     --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let num = |s: String, name: &str| s.parse::<u64>().map_err(|_| format!("bad {name} '{s}'"));
    let args = Args {
        workload: take("--workload")?,
        seed: num(take("--seed")?, "--seed")?,
        seconds: num(take("--seconds")?, "--seconds")?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace '{other}'")),
        },
        work_dir: PathBuf::from(take("--work-dir")?),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The calibration child process: see `calib::slowdown`.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = argv.as_slice() {
        if flag == "--calibrate" {
            let threads = threads.parse().unwrap_or(1);
            println!("{}", calib::kernel_cpu_s(threads));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new(args.trace);
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let (seconds, seed) = (args.seconds, args.seed);
    let mut outcome = match args.workload.as_str() {
        "suite_cold" => suite::run(seconds, jobs, &tracer),
        "serve_miss" => serve::run_miss(seconds, jobs, seed, &work, &tracer),
        other => {
            eprintln!("unknown workload '{other}'\n{USAGE}");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome.values.insert("peak_rss_mb", report::peak_rss_mb());

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut complete = true;
    let metrics: Vec<(&str, f64, &str)> = list
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.values.get(name).copied();
            // An end-to-end metric is never legitimately absent; a
            // per-layer one is absent when the workload bypasses it.
            complete &= value.is_some() || args.trace;
            (name, value.unwrap_or(0.0), unit)
        })
        .collect();
    for name in outcome.values.keys() {
        assert!(
            report::valid_name(name) && END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name),
            "unlisted metric {name}"
        );
    }
    println!(
        "{} workload={} jobs={jobs} seed={seed} seconds={seconds}",
        if args.trace {
            "per-layer (traced)"
        } else {
            "end-to-end (untraced)"
        },
        args.workload
    );
    for (name, value, unit) in &metrics {
        let note = if outcome.values.contains_key(name) {
            ""
        } else {
            "  (bypassed)"
        };
        println!("  {name:<30} {value:>16.3} {unit}{note}");
    }
    if args.trace {
        let path = args
            .work_dir
            .join("spans")
            .join(format!("{}-seed{seed}.jsonl", args.workload));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} ({} recorded)",
                path.display(),
                tracer.spans().len()
            ),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    let tally = outcome.tally;
    let correct = outcome.pure && complete && tally.attempted > 0 && tally.failed == 0;
    println!("{}", result_line(correct, tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let metrics = END_TO_END.iter().chain(&PER_LAYER);
        for (name, unit) in metrics.clone() {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
            assert!(
                json.contains(&format!("\"unit\": \"{unit}\"")),
                "{unit} missing"
            );
        }
        for workload in ["suite_cold", "serve_miss"] {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        }
        assert_eq!(json.matches("\"name\":").count(), metrics.count() + 2);
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(report::valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
    }
}

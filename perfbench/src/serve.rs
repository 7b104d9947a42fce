//! `serve_miss`: an in-process daemon (`Server::start`, cache on) under
//! a closed loop over one keep-alive connection, every request a cold miss.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use jnativeprof::cell::{cell_row_json, decode_cell_entry, encode_cell_entry, CellQuantities};
use jnativeprof::metrics::{bucket_upper_bound, CounterId, GaugeId, HistogramId, MetricsSnapshot};
use jnativeprof::session::SessionSpec;
use jnativeprof::workloads::by_name;
use jvmsim_cache::{CacheStore, Plane};
use jvmsim_serve::client::{connect_with_retry, http_request};
use jvmsim_serve::http::RequestParser;
use jvmsim_serve::{ApiRequest, ApiResponse, ServeConfig, Server};

use crate::calib::Speed;
use crate::gen::{miss_grid, miss_round, miss_warmup, Identity};
use crate::report::{median, nearest_rank, process_cpu_s, Tally};
use crate::suite::encode_archive;
use crate::trace::Tracer;
use crate::{Outcome, Values};

/// A daemon with a fresh cache directory of its own.
struct Daemon {
    server: Server,
    dir: PathBuf,
    addr: String,
}

impl Daemon {
    fn start(dir: PathBuf, jobs: usize) -> Daemon {
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::open(&dir).expect("cache directory opens");
        let server = Server::start(ServeConfig {
            jobs,
            cache: Some(store),
            ..ServeConfig::default()
        })
        .expect("daemon starts on loopback");
        let addr = server.local_addr().to_string();
        Daemon { server, dir, addr }
    }

    /// The daemon's own serve-plane counters.
    fn snapshot(&self) -> MetricsSnapshot {
        self.server
            .metric_entries()
            .into_iter()
            .find(|e| e.benchmark == "serve")
            .expect("serve metric entry")
            .snapshot
    }

    /// The counters once the daemon has booked `requests` more requests
    /// than in `before`: it books a request after writing its response,
    /// so the last replies can reach the client first.
    fn settled(&self, before: &MetricsSnapshot, requests: u64) -> MetricsSnapshot {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let now = self.snapshot();
            if delta(&now, before, CounterId::ServeAccepted) >= requests
                || Instant::now() >= deadline
            {
                return now;
            }
            std::thread::yield_now();
        }
    }

    fn connect(&self) -> TcpStream {
        connect_with_retry(&self.addr, Duration::from_secs(5)).expect("connects")
    }

    fn stop(self) {
        drop(self.server.shutdown());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, id: CounterId) -> u64 {
    after.counter(id) - before.counter(id)
}

/// p50 of the daemon's `serve_latency_micros` histogram between two
/// snapshots, interpolated inside its log2 bucket.
fn histogram_p50(after: &MetricsSnapshot, before: &MetricsSnapshot) -> f64 {
    let (a, b) = (
        after.histogram(HistogramId::ServeLatencyMicros),
        before.histogram(HistogramId::ServeLatencyMicros),
    );
    let counts: Vec<u64> = a
        .buckets
        .iter()
        .zip(&b.buckets)
        .map(|(x, y)| x - y)
        .collect();
    let total: u64 = counts.iter().sum();
    let target = total.div_ceil(2);
    let mut below = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && below + c >= target {
            let lo = if i == 0 {
                0
            } else {
                bucket_upper_bound(i - 1) + 1
            } as f64;
            let hi = bucket_upper_bound(i) as f64;
            return lo + (hi - lo) * (target - below) as f64 / c as f64;
        }
        below += c;
    }
    0.0
}

/// What one closed-loop pass over a request list produced.
#[derive(Default)]
struct Round {
    /// CPU seconds the whole process (daemon and client) spent.
    cpu: f64,
    ok: u64,
    tally: Tally,
}

/// Per-request samples, µs: the CPU the whole process spent while the
/// request was in flight, and the client's round-trip wall time.
#[derive(Default)]
struct Samples {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

/// Send `ids` over one keep-alive connection, each request as soon as the
/// previous reply is in. With one request in flight, the process CPU
/// spent between send and reply is that request's cost. A request
/// succeeds only with a 200 whose body equals the batch row.
fn closed_loop(
    stream: &mut TcpStream,
    addr: &str,
    ids: &[Identity],
    refs: &HashMap<Identity, Reference>,
    tracer: &Tracer,
    samples: &mut Samples,
) -> Round {
    let mut round = Round::default();
    let cpu_started = process_cpu_s();
    let ((), _) = tracer.span("serve.round", None, |round_span| {
        for id in ids {
            let body = id.body();
            let (sent, cpu) = (Instant::now(), process_cpu_s());
            let (reply, _) = tracer.span("serve.request", round_span, |_| {
                http_request(stream, "POST", "/v1/run", Some(&body))
            });
            let cpu_us = (process_cpu_s() - cpu) * 1e6;
            let wall_us = sent.elapsed().as_nanos() as f64 / 1_000.0;
            match reply {
                Ok((status, text)) => {
                    samples.cpu.push(cpu_us);
                    samples.wall.push(wall_us);
                    round.ok += u64::from(status == 200);
                    round.tally.record(status == 200 && text == refs[id].row);
                }
                Err(e) => {
                    eprintln!("transport error: {e}");
                    round.tally.record(false);
                    *stream = connect_with_retry(addr, Duration::from_secs(5)).expect("reconnects");
                }
            }
        }
    });
    round.cpu = process_cpu_s() - cpu_started;
    round
}

/// The batch answer for one identity: its row, its quantities, and the
/// host time of the `Session` run that produced them.
struct Reference {
    row: String,
    cell: CellQuantities,
    run_us: f64,
}

/// Run every identity through a batch `Session` on `jobs` threads.
fn references(ids: &[Identity], jobs: usize, tracer: &Tracer) -> HashMap<Identity, Reference> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                while let Some(&id) = ids.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let spec = SessionSpec::parse(id.workload, id.agent, id.size, id.tiers)
                        .expect("valid identity");
                    let (run, run_us) = tracer.span("session.run", None, |_| spec.run());
                    let run = run.expect("batch run succeeds");
                    let cell = CellQuantities::from_run(&run);
                    let row = cell_row_json(id.workload, spec.agent.label(), id.size, &cell);
                    let r = Reference { row, cell, run_us };
                    out.lock().expect("reference map poisoned").insert(id, r);
                }
            });
        }
    });
    out.into_inner().expect("reference map poisoned")
}

/// Per-layer host times from replaying the daemon's request path through
/// the layers' public sans-io calls, plus each request's replayed total.
#[derive(Default)]
struct Replay {
    layers: BTreeMap<&'static str, Vec<f64>>,
    totals: Vec<f64>,
    /// Each replayed response checked against the batch row.
    tally: Tally,
}

impl Replay {
    fn put(&mut self, name: &'static str, us: f64) -> f64 {
        self.layers.entry(name).or_default().push(us);
        us
    }

    fn median(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |v| median(v))
    }
}

/// Replay the request path for `ids`. Warm (`hit`): parse, route,
/// `result_key`, cache lookup, entry decode, row JSON, render. Cold: the
/// lookup misses, the worker's recompute (the reference run's time), a
/// second `result_key`, entry encode and store replace the decode.
fn replay(
    ids: &[Identity],
    refs: &HashMap<Identity, Reference>,
    store: &CacheStore,
    hit: bool,
    tracer: &Tracer,
) -> Replay {
    let mut r = Replay::default();
    for id in ids {
        let reference = &refs[id];
        let body = id.body();
        // The bytes `jvmsim_serve::client::http_request` puts on the wire.
        let raw = format!(
            "POST /v1/run HTTP/1.1\r\nHost: jvmsim\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let ((), _) = tracer.span("replay.request", None, |root| {
            let mut total = 0.0;
            let (request, t) = tracer.span("serve.http.parse", root, |_| {
                let mut parser = RequestParser::new();
                parser.push(raw.as_bytes());
                parser.try_next()
            });
            total += r.put("serve.http.parse_us", t);
            let request = request.expect("request parses").expect("request complete");
            let (api, t) = tracer.span("serve.spec.route", root, |_| ApiRequest::parse(&request));
            total += r.put("serve.spec.route_us", t);
            let Ok(ApiRequest::Run(spec)) = api else {
                panic!("{id:?} does not route to /v1/run");
            };
            let (key, t) = tracer.span("session.result_key", root, |_| {
                spec.with_session(|s| s.result_key()).expect("key derives")
            });
            total += r.put("session.result_key_us", t);
            let (found, t) = tracer.span("cache.lookup", root, |_| {
                store.lookup(Plane::CellResult, &key)
            });
            total += r.put(
                if hit {
                    "cache.lookup_us"
                } else {
                    "cache.miss_lookup_us"
                },
                t,
            );
            let cell = if hit {
                let bytes = found.expect("prefilled entry");
                let (decoded, t) = tracer.span("cell.decode", root, |_| decode_cell_entry(&bytes));
                total += r.put("cell.decode_us", t);
                decoded.expect("entry decodes").0
            } else {
                assert!(found.is_none(), "{id:?} already cached");
                total += r.put("session.run_us", reference.run_us);
                let (_, t) = tracer.span("session.result_key", root, |_| {
                    spec.with_session(|s| s.result_key()).expect("key derives")
                });
                total += t;
                let (entry, t) = tracer.span("cell.encode", root, |_| {
                    encode_cell_entry(&reference.cell, &[])
                });
                total += r.put("cell.encode_us", t);
                let (stored, t) = tracer.span("cache.store", root, |_| {
                    store.store(Plane::CellResult, &key, &entry)
                });
                stored.expect("entry stores");
                total += r.put("cache.store_us", t);
                reference.cell.clone()
            };
            let (row, t) = tracer.span("cell.row_json", root, |_| {
                cell_row_json(&spec.workload, spec.agent.label(), spec.size.0, &cell)
            });
            total += r.put("cell.row_json_us", t);
            let (wire, t) = tracer.span("serve.http.render", root, |_| {
                ApiResponse::Row { row, hit }.into_parts().0.render()
            });
            total += r.put("serve.http.render_us", t);
            r.tally.record(wire.ends_with(reference.row.as_bytes()));
            r.totals.push(total);
        });
    }
    // The two layers `result_key` spends its time in, called alone.
    for w in crate::gen::WORKLOADS {
        let w = by_name(w).expect("known workload");
        let (program, t) = tracer.span("workloads.synth", None, |_| w.program());
        r.put("workloads.synth_us", t);
        let (_, t) = tracer.span("classfile.encode", None, |_| encode_archive(&program));
        r.put("classfile.encode_us", t);
    }
    r
}

fn put_replay(values: &mut Values, r: &Replay, names: &[&'static str]) {
    for &name in names {
        values.insert(name, r.median(name));
    }
}

fn cache_ratios(values: &mut Values, after: &MetricsSnapshot, before: &MetricsSnapshot) {
    let hits = delta(after, before, CounterId::CacheHits) as f64;
    let misses = delta(after, before, CounterId::CacheMisses) as f64;
    values.insert("cache.hit_ratio", hits / (hits + misses));
    values.insert(
        "serve.shed",
        delta(after, before, CounterId::ServeShed) as f64,
    );
}

/// `serve_miss`: every request is a lookup miss, a worker recompute and a
/// cache store. Each round is a fresh daemon with an empty cache that
/// consumes the whole grid once over one keep-alive connection.
pub fn run_miss(seconds: u64, jobs: usize, seed: u64, work: &Path, tracer: &Tracer) -> Outcome {
    let grid = miss_grid();
    let warmup = miss_warmup();
    let all: Vec<Identity> = grid.iter().chain(&warmup).copied().collect();
    let refs = references(&all, jobs, tracer);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut pure = true;
    let mut setups = Vec::new();
    let (mut rounds, mut traced_rounds) = (Vec::new(), 0);
    let (mut samples, mut traced_samples) = (Samples::default(), Samples::default());
    let (mut queue_hw, mut totals, mut totals_before) =
        (0, MetricsSnapshot::default(), MetricsSnapshot::default());
    let quiet = Tracer::new(false);
    let mut speed = Speed::new(jobs);
    let more = |rounds: usize, traced: usize| {
        started.elapsed() < budget || rounds < 2 || (tracer.enabled() && traced == 0)
    };
    while more(rounds.len(), traced_rounds) {
        let n = (rounds.len() + traced_rounds) as u64;
        let setup_cpu = process_cpu_s();
        let d = Daemon::start(work.join(format!("miss-{n}")), jobs);
        let mut stream = d.connect();
        let warm = closed_loop(
            &mut stream,
            &d.addr,
            &warmup,
            &refs,
            &quiet,
            &mut Samples::default(),
        );
        setups.push(process_cpu_s() - setup_cpu);
        tally.absorb(warm.tally);

        let sent: Vec<Identity> = miss_round(seed, n).into_iter().map(|i| grid[i]).collect();
        if sent.iter().collect::<HashSet<_>>().len() != sent.len() {
            eprintln!("serve_miss: purity broken: an identity repeats in round {n}");
            pure = false;
        }
        // Traced runs trace the second half of their rounds.
        let traced = tracer.enabled() && rounds.len() >= 2 && started.elapsed() >= budget / 2;
        let (round_tracer, sink) = if traced {
            (tracer, &mut traced_samples)
        } else {
            (&quiet, &mut samples)
        };
        let before = d.snapshot();
        let round = closed_loop(&mut stream, &d.addr, &sent, &refs, round_tracer, sink);
        let after = d.settled(&before, round.tally.attempted);
        let hits = delta(&after, &before, CounterId::ServeHits);
        let runs = delta(&after, &before, CounterId::ServeRunsExecuted);
        if hits != 0 || runs != sent.len() as u64 {
            eprintln!(
                "serve_miss: purity broken: {hits} hits, {runs} runs for {} requests",
                sent.len()
            );
            pure = false;
        }
        queue_hw = queue_hw.max(after.gauge(GaugeId::ServeQueueDepthHighwater));
        totals.absorb(&after);
        totals_before.absorb(&before);
        drop(stream);
        d.stop();
        speed.read();
        tally.absorb(round.tally);
        if traced {
            traced_rounds += 1;
        } else {
            rounds.push(round);
        }
    }
    let slowdown = speed.median();
    let (p50, p90) = (
        nearest_rank(&samples.cpu, 50.0) / slowdown,
        nearest_rank(&samples.cpu, 90.0) / slowdown,
    );
    let wall_p50 = nearest_rank(&samples.wall, 50.0);
    eprintln!(
        "serve_miss: {} untraced rounds of {} requests, {} samples; per request CPU at the \
         reference speed p50 {p50:.1} p90 {p90:.1} us, wall p50 {wall_p50:.1} p90 {:.1} us, \
         host slowdowns {:?}",
        rounds.len(),
        grid.len(),
        samples.cpu.len(),
        nearest_rank(&samples.wall, 90.0),
        speed.readings()
    );
    let mut values = Values::new();
    values.insert("setup_s", median(&setups) / slowdown);
    if tracer.enabled() {
        // Replay the cold path on a scratch store (every lookup misses and
        // stores), then the warm path on the store it filled: the lookup
        // with its SHA-256 verify and the entry decode that a hit pays.
        let dir = work.join("miss-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::open(&dir).expect("cache directory opens");
        let r = replay(&grid, &refs, &store, false, tracer);
        let warm = replay(&grid, &refs, &store, true, tracer);
        let _ = std::fs::remove_dir_all(&dir);
        tally.absorb(r.tally);
        tally.absorb(warm.tally);
        put_replay(
            &mut values,
            &r,
            &[
                "serve.http.parse_us",
                "serve.spec.route_us",
                "session.result_key_us",
                "session.run_us",
                "cell.encode_us",
                "cache.store_us",
                "cell.row_json_us",
                "serve.http.render_us",
                "workloads.synth_us",
                "classfile.encode_us",
            ],
        );
        put_replay(&mut values, &warm, &["cache.lookup_us", "cell.decode_us"]);
        values.insert(
            "serve.server.latency_p50_us",
            histogram_p50(&totals, &totals_before),
        );
        let (a, b) = (
            totals.histogram(HistogramId::ServeLatencyMicros),
            totals_before.histogram(HistogramId::ServeLatencyMicros),
        );
        let mean = (a.sum - b.sum) as f64 / (a.count - b.count) as f64;
        values.insert("serve.server.latency_mean_us", mean);
        // The replayed layers are timed by the wall clock on one thread,
        // so the remainder is taken from the client's wall-clock p50.
        let replayed = median(&r.totals);
        values.insert("serve.queue_depth_hw", queue_hw as f64);
        values.insert("serve.miss_unattributed_us", wall_p50 - replayed);
        values.insert("serve.client.cpu_p50_us", p50);
        values.insert("serve.client.cpu_p90_us", p90);
        values.insert("serve.client.wall_p50_us", wall_p50);
        let traced_p50 = nearest_rank(&traced_samples.cpu, 50.0) / slowdown;
        values.insert("trace.overhead_frac", (traced_p50 - p50) / p50);
        cache_ratios(&mut values, &totals, &totals_before);
        println!(
            "serve_miss request path at client wall p50 {wall_p50:.1} us: replayed layers \
             {replayed:.1} us, unattributed (queue wait + completion board) {:.1} us",
            wall_p50 - replayed
        );
    } else {
        let per_cpu_s: Vec<f64> = rounds.iter().map(|r| r.ok as f64 / r.cpu).collect();
        values.insert("cells_per_cpu_s", median(&per_cpu_s) * slowdown);
    }
    let mut out = Outcome::new(tally, values);
    out.pure = pure;
    out
}

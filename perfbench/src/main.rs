//! End-to-end, layer-attributed benchmark of WebFINDIT.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_lookup|federated_union|bulk_rw --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` one untraced window of `S` seconds gives the
//! end-to-end metrics. With `--trace 1` that window is followed by a
//! traced one of the same length, and the per-layer metrics come from
//! both. The last line of standard output is one JSON object; see
//! `perfbench/README.md` for every metric.

mod spans;
mod workloads;
mod world;

use spans::{median, per_op, percentile, Span, OP_READ, OP_WRITE};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{Bench, Client, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 3;
/// Equal time slices a window is split into; host steal is read at
/// every slice boundary.
const SLICES: usize = 10;
/// Fewest reads the quiet slices must hold: the p90 then has at least
/// 10 samples beyond it.
const QUIET_READS_MIN: usize = 100;
/// Fewest reads a p99 needs for 10 samples beyond it.
const P99_READS_MIN: usize = 1_000;
/// Ops one client traces before its traced window ends early: enough
/// for steady per-layer medians, and it keeps the span dump small.
const TRACED_OPS_MAX: usize = 5_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload point_lookup|federated_union|bulk_rw \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

struct Sample {
    class: &'static str,
    us: f64,
    ok: bool,
    /// Completion time, in seconds since the window started.
    at: f64,
}

struct Window {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    /// `cpu_jiffies` at the `SLICES + 1` slice boundaries.
    jiffies: Vec<(u64, u64)>,
    /// Nominal slice length in seconds.
    width: f64,
}

impl Window {
    fn slice(&self, s: &Sample) -> usize {
        ((s.at / self.width) as usize).min(SLICES - 1)
    }

    fn steal(&self) -> f64 {
        let (first, last) = (self.jiffies[0], self.jiffies[SLICES]);
        ratio((last.0 - first.0) as f64, (last.1 - first.1) as f64)
    }

    /// The slices the end-to-end figures come from: the least-stolen
    /// half of the window, widened in order of steal until they hold
    /// `QUIET_READS_MIN` reads. Time the hypervisor gives to other machines
    /// then moves the figures less than the program does.
    fn quiet(&self) -> [bool; SLICES] {
        let steal: Vec<f64> = self
            .jiffies
            .windows(2)
            .map(|w| ratio((w[1].0 - w[0].0) as f64, (w[1].1 - w[0].1) as f64))
            .collect();
        let mut reads = [0; SLICES];
        for s in self.samples.iter().filter(|s| s.ok && s.class == OP_READ) {
            reads[self.slice(s)] += 1;
        }
        let mut order: Vec<usize> = (0..SLICES).collect();
        order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
        let mut keep = [false; SLICES];
        let (mut taken, mut n) = (0, 0);
        for i in order {
            if taken >= SLICES / 2 && n >= QUIET_READS_MIN {
                break;
            }
            keep[i] = true;
            taken += 1;
            n += reads[i];
        }
        keep
    }

    /// Latencies of successful ops of `class`, in the kept slices.
    fn latencies(&self, class: &str, keep: &[bool; SLICES]) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && s.class == class && keep[self.slice(s)])
            .map(|s| s.us)
            .collect()
    }

    /// Completed ops per second over the kept slices.
    fn throughput(&self, keep: &[bool; SLICES]) -> f64 {
        let ops = self
            .samples
            .iter()
            .filter(|s| s.ok && keep[self.slice(s)])
            .count();
        let kept = keep.iter().filter(|k| **k).count();
        ops as f64 / (kept as f64 * self.width)
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Closed loop: each client sends its next statement when the previous
/// answer is back, until the window ends.
fn window(
    bench: &Bench,
    clients: &mut [Client],
    secs: u64,
    traced: bool,
    epoch: Instant,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(secs);
    let width = secs as f64 / SLICES as f64;
    let mut jiffies = Vec::new();
    let per_client: Vec<(Vec<Sample>, Vec<Span>)> = std::thread::scope(|s| {
        let jiffies = &mut jiffies;
        s.spawn(move || {
            for i in 0..=SLICES {
                let at = start + Duration::from_secs_f64(i as f64 * width);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                jiffies.push(cpu_jiffies());
            }
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut rec = spans::Recorder::new(epoch, c.id);
                    let mut samples = Vec::new();
                    while Instant::now() < deadline && !(traced && samples.len() >= TRACED_OPS_MAX)
                    {
                        let op = bench.next_op(c);
                        let r = if traced {
                            bench.run_traced(c, op, &mut rec)
                        } else {
                            bench.run_op(c, op)
                        };
                        let (us, ok) = match r {
                            Ok(us) => (us, true),
                            Err(e) => {
                                eprintln!("client {}: {op:?} failed: {e}", c.id);
                                (0.0, false)
                            }
                        };
                        samples.push(Sample {
                            class: op.class(),
                            us,
                            ok,
                            at: start.elapsed().as_secs_f64(),
                        });
                    }
                    (samples, rec.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut w = Window {
        samples: Vec::new(),
        spans: Vec::new(),
        jiffies,
        width,
    };
    for (samples, spans) in per_client {
        w.samples.extend(samples);
        w.spans.extend(spans);
    }
    w
}

/// Program counters read at the layer boundaries before and after the
/// untraced window.
#[derive(Default, Clone, Copy)]
struct Counters {
    requests: u64,
    bytes: u64,
    retries: u64,
    timeouts: u64,
    ior_hits: u64,
    ior_misses: u64,
    fragments: u64,
    rows_scanned: u64,
    index_hits: u64,
    subqueries: u64,
    rows_shipped: u64,
    wal_appends: u64,
    pages_flushed: u64,
    checkpoints: u64,
}

fn counters(bench: &Bench) -> Result<Counters, String> {
    let fed = bench.fed();
    let client = fed.client_orb().metrics().snapshot();
    let mut c = Counters {
        requests: client.requests_sent,
        bytes: client.bytes_sent + client.bytes_received,
        retries: client.retries,
        timeouts: client.timeouts,
        ior_hits: client.ior_cache_hits,
        ior_misses: client.ior_cache_misses,
        fragments: client.fragments_sent,
        subqueries: client.fed_subqueries,
        rows_shipped: client.fed_rows_shipped,
        ..Counters::default()
    };
    for name in fed.orb_names() {
        let m = fed
            .orb(&name)
            .map_err(|e| e.to_string())?
            .metrics()
            .snapshot();
        c.fragments += m.fragments_sent;
        c.rows_scanned += m.data_rows_scanned;
        c.index_hits += m.data_index_hits;
    }
    if let Some(st) = bench.world.db.lock().storage_stats() {
        c.wal_appends = st.wal_appends;
        c.pages_flushed = st.pages_flushed;
        c.checkpoints = st.checkpoints;
    }
    Ok(c)
}

impl Counters {
    fn since(self, a: Counters) -> Counters {
        Counters {
            requests: self.requests - a.requests,
            bytes: self.bytes - a.bytes,
            retries: self.retries - a.retries,
            timeouts: self.timeouts - a.timeouts,
            ior_hits: self.ior_hits - a.ior_hits,
            ior_misses: self.ior_misses - a.ior_misses,
            fragments: self.fragments - a.fragments,
            rows_scanned: self.rows_scanned - a.rows_scanned,
            index_hits: self.index_hits - a.index_hits,
            subqueries: self.subqueries - a.subqueries,
            rows_shipped: self.rows_shipped - a.rows_shipped,
            wal_appends: self.wal_appends - a.wal_appends,
            pages_flushed: self.pages_flushed - a.pages_flushed,
            checkpoints: self.checkpoints - a.checkpoints,
        }
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set (VmHWM) in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup_times = Vec::new();
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUP_RUNS {
        if let Some(old) = bench.take() {
            old.world.shutdown();
        }
        let t = Instant::now();
        bench = Some(Bench::setup(args.seed, args.workload)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let setup_s = median(&setup_times);
    // Read before the timed windows: what the loaded deployment needs.
    let setup_rss = rss_peak_mb();

    let mut clients: Vec<Client> = (0..args.workload.clients())
        .map(|id| bench.client(id))
        .collect();
    let epoch = Instant::now();
    let before = counters(&bench)?;
    let plain = window(&bench, &mut clients, args.seconds, false, epoch);
    let n = counters(&bench)?.since(before);
    let rows_out: u64 = clients.iter().map(|c| c.rows_out).sum();
    let traced = if args.trace {
        Some(window(&bench, &mut clients, args.seconds, true, epoch))
    } else {
        None
    };

    let mut acked: BTreeMap<i64, i64> = BTreeMap::new();
    for c in &clients {
        for (k, v) in &c.acked {
            *acked.entry(*k).or_default() += v;
        }
    }
    let mut failed = plain.failed() + traced.as_ref().map_or(0, Window::failed);
    let attempted = (plain.samples.len() + traced.as_ref().map_or(0, |t| t.samples.len())) as u64;
    let mut recovery_ms = 0.0;
    if args.workload == Workload::BulkRw {
        let (ms, bad) = bench.durability(&acked)?;
        recovery_ms = ms;
        failed += bad;
    }
    let rss = rss_peak_mb();
    bench.world.shutdown();

    let steal = plain.steal();
    let every = [true; SLICES];
    let quiet = plain.quiet();
    let reads = plain.latencies(OP_READ, &quiet);
    let all_reads = plain.latencies(OP_READ, &every);
    let writes = plain.latencies(OP_WRITE, &every);
    let ops = plain.samples.iter().filter(|s| s.ok).count() as f64;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("read_p50_us", median(&reads), "us"),
            ("throughput_ops_s", plain.throughput(&quiet), "1/s"),
            ("rss_setup_peak_mb", setup_rss, "MB"),
        ]);
    } else {
        let traced = traced.as_ref().expect("traced window ran");
        let ops_t = per_op(&traced.spans);
        let reads_t: Vec<_> = ops_t.iter().filter(|o| o.class == OP_READ).collect();
        let writes_t: Vec<_> = ops_t.iter().filter(|o| o.class == OP_WRITE).collect();
        // Median over the ops that have the layer (0 where none does).
        let layer = |set: &[&spans::OpTimes], f: &dyn Fn(&spans::OpTimes) -> Option<f64>| {
            median(&set.iter().filter_map(|o| f(o)).collect::<Vec<_>>())
        };
        let l = |name: &'static str| move |o: &spans::OpTimes| o.layers.get(name).copied();
        let orb_self = |o: &spans::OpTimes| {
            let get = |n| o.layers.get(n).copied();
            Some(
                get("orb.invoke")?
                    - get("connect.execute")?
                    - get("wire.encode")?
                    - get("wire.decode")?,
            )
        };
        let ship = |o: &spans::OpTimes| {
            Some(
                o.layers.get("core.fedquery.execute")?
                    - o.layers.get("core.federation.coalition_members")?,
            )
        };
        let traced_reads: Vec<f64> = reads_t.iter().map(|o| o.total_us).collect();
        let coverage: Vec<f64> = ops_t.iter().map(|o| o.covered_us / o.total_us).collect();
        let writes_n = writes.len() as f64;
        metrics.extend([
            (
                "tassili.parse_us",
                layer(&reads_t, &l("tassili.parse")),
                "us",
            ),
            (
                "orb.naming.resolve_us",
                layer(&reads_t, &l("orb.naming.resolve")),
                "us",
            ),
            (
                "orb.naming.ior_cache_hit_ratio",
                ratio(n.ior_hits as f64, (n.ior_hits + n.ior_misses) as f64),
                "ratio",
            ),
            (
                "orb.naming.resolves",
                (n.ior_hits + n.ior_misses) as f64,
                "count",
            ),
            ("orb.invoke_us", layer(&reads_t, &l("orb.invoke")), "us"),
            ("orb.self_us", layer(&reads_t, &orb_self), "us"),
            (
                "orb.requests_per_op",
                ratio(n.requests as f64, ops),
                "count",
            ),
            ("orb.bytes_per_op", ratio(n.bytes as f64, ops), "bytes"),
            (
                "orb.fragments_per_op",
                ratio(n.fragments as f64, ops),
                "count",
            ),
            ("orb.retries_per_op", ratio(n.retries as f64, ops), "count"),
            (
                "orb.timeouts_per_op",
                ratio(n.timeouts as f64, ops),
                "count",
            ),
            ("wire.encode_us", layer(&reads_t, &l("wire.encode")), "us"),
            ("wire.decode_us", layer(&reads_t, &l("wire.decode")), "us"),
            (
                "connect.execute_us",
                layer(&reads_t, &l("connect.execute")),
                "us",
            ),
            (
                "relstore.execute_us",
                layer(&reads_t, &l("relstore.execute")),
                "us",
            ),
            (
                "relstore.write_execute_us",
                layer(&writes_t, &l("relstore.execute")),
                "us",
            ),
            (
                "relstore.lock_wait_us",
                layer(&reads_t, &l("relstore.lock_wait")),
                "us",
            ),
            (
                "relstore.rows_scanned_per_row",
                ratio(n.rows_scanned as f64, rows_out as f64),
                "ratio",
            ),
            ("relstore.rows_out", rows_out as f64, "count"),
            (
                "relstore.index_hits_per_op",
                ratio(n.index_hits as f64, ops),
                "count",
            ),
            (
                "relstore.wal_appends_per_write",
                ratio(n.wal_appends as f64, writes_n),
                "count",
            ),
            (
                "relstore.pages_flushed_per_write",
                ratio(n.pages_flushed as f64, writes_n),
                "count",
            ),
            ("relstore.checkpoints", n.checkpoints as f64, "count"),
            ("relstore.recovery_ms", recovery_ms, "ms"),
            (
                "core.processor.decode_us",
                layer(&reads_t, &l("core.processor.decode")),
                "us",
            ),
            (
                "core.federation.coalition_members_us",
                layer(&reads_t, &l("core.federation.coalition_members")),
                "us",
            ),
            ("codb.members_us", layer(&reads_t, &l("codb.members")), "us"),
            (
                "core.fedquery.plan_us",
                layer(&reads_t, &l("core.fedquery.plan")),
                "us",
            ),
            (
                "core.fedquery.execute_us",
                layer(&reads_t, &l("core.fedquery.execute")),
                "us",
            ),
            ("core.fedquery.ship_us", layer(&reads_t, &ship), "us"),
            (
                "core.fedquery.subqueries_per_op",
                ratio(n.subqueries as f64, ops),
                "count",
            ),
            (
                "core.fedquery.rows_shipped_per_op",
                ratio(n.rows_shipped as f64, ops),
                "count",
            ),
            ("read_p90_us", percentile(&reads, 90.0), "us"),
            ("read_p99_us", percentile(&all_reads, 99.0), "us"),
            ("write_p50_us", median(&writes), "us"),
            ("write_p99_us", percentile(&writes, 99.0), "us"),
            (
                "error_rate",
                ratio(failed as f64, attempted as f64),
                "ratio",
            ),
            ("bench.ops", ops, "count"),
            ("bench.writes", writes_n, "count"),
            ("bench.traced_ops", ops_t.len() as f64, "count"),
            ("bench.stage_coverage", median(&coverage), "ratio"),
            (
                "bench.trace_overhead_pct",
                (ratio(median(&traced_reads), median(&all_reads)) - 1.0) * 100.0,
                "%",
            ),
            ("bench.client_threads", clients.len() as f64, "count"),
            ("bench.rss_run_peak_mb", rss, "MB"),
            ("host.steal_pct", steal * 100.0, "%"),
        ]);
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{:?}-seed{}.tsv", args.workload, args.seed));
        spans::dump(&path, &traced.spans).map_err(|e| format!("span dump: {e}"))?;
        println!(
            "span dump: {} ({} spans)",
            path.display(),
            traced.spans.len()
        );
    }
    if all_reads.len() < P99_READS_MIN {
        eprintln!(
            "perfbench: only {} reads, too few for a p99 with 10 samples beyond it",
            all_reads.len()
        );
    }
    println!(
        "workload {:?} seed {} clients {} reads {} (in the {} quietest slices) writes {} \
         failed {failed} of {attempted} host steal {:.2}%",
        args.workload,
        args.seed,
        clients.len(),
        reads.len(),
        quiet.iter().filter(|k| **k).count(),
        writes.len(),
        steal * 100.0
    );
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>14.3} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

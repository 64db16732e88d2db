//! `servebench` — an open-loop load generator for `prdnn-serve`.
//!
//! Starts an in-process server on an ephemeral port (or targets an
//! external one with `--addr`), then drives it with open-loop arrivals:
//! each client thread follows a fixed schedule of send times and measures
//! latency from the *scheduled* arrival, so server-side queueing shows up
//! in the tail instead of silently throttling the offered load (the
//! coordinated-omission-free methodology).
//!
//! Three workload mixes run by default, mirroring the serving layer's
//! request planes:
//!
//! * `eval_heavy` — 90% batched `eval`, 10% `lin_regions`, against one
//!   model version (the batcher's coalescing sweet spot).  It runs
//!   *twice*: once with span tracing at its most aggressive (`slow_ms`
//!   = 1, so nearly every request is promoted to the slow-trace log)
//!   and once with tracing off (`slow_ms` = 0), and the report prices
//!   the telemetry overhead as the difference in eval p50;
//! * `repair_heavy` — 60% `repair` submissions (each publishing a new
//!   version of a small model through the job queue) interleaved with 40%
//!   `eval` on `@latest`, exercising version churn under read traffic;
//! * `repair_heavy_durable` — the same mix against a server with a
//!   `--store-dir` write-ahead log, so every publish pays an fsync; the
//!   report adds a `durability` block (WAL/snapshot counters plus a
//!   measured cold-start `recovery_ms` from a fresh server on the same
//!   directory).
//!
//! Every mix's teardown scrapes the `metrics` endpoint and runs a full
//! Prometheus exposition lint over it: every line must parse, the
//! families announced by `# HELP` and `# TYPE` must be exactly the
//! server's metric registry (`prdnn_serve::metrics::families`) with its
//! kinds, every family must be sampled, counters must be integral, and
//! histogram series must be internally consistent (cumulative buckets
//! monotone, `+Inf` equal to `_count`, `_sum` present).  On quiesced in-process servers the lint
//! also cross-checks histogram counts against the server's own request
//! counters (e.g. `prdnn_request_seconds_count{kind="eval"}` must equal
//! `prdnn_eval_requests_total` exactly).  The per-mix report gains:
//!
//! * a `client_vs_server` block comparing send-measured client-side
//!   eval latency against the server's own residence histogram — the
//!   run fails if the server claims a larger median than clients saw;
//! * a `stages` block with count/mean/p50/p99 per instrumented stage
//!   (batcher queue wait, batch execution, gulp size, job queue wait,
//!   LP solve, WAL fsync, cache hit/miss service);
//! * `host_cores` and a `server` block (scrape-derived build version
//!   and uptime) stamping where and on what the numbers were taken.
//!
//! An opt-in `--mix cached` workload prices the per-version result
//! cache: a **cold** phase sends every request with a unique payload
//! (all misses), then a **hot** phase draws from a small shared payload
//! pool (all hits after each entry's first fill).  The phases run closed
//! loop — latency is measured from the send, not a schedule — because
//! the quantity of interest is the cost of the hit path itself, not
//! queueing.  The report compares hit vs miss p50/p90/p99 and computes
//! the hot-phase hit rate from the server's cache counters; the run
//! fails if that rate drops below 90% or a cache hit is not cheaper
//! than a miss at the median.
//!
//! A further opt-in mix measures **availability under wire chaos**:
//! `--mix chaos` runs an eval workload through a [`ChaosProxy`] across a
//! sweep of fault regimes (fault-free baseline, then delay, corrupt,
//! drop, sever, and everything at once), with every client wrapped in a
//! [`RetryingClient`].  Its report is per regime: success rate, retry /
//! reconnect / give-up counts, server-side sheds, and p50/p99 latency
//! *including* retries.
//!
//! Output is a JSON report (stdout, and `--out FILE`) with achieved
//! throughput and latency percentiles per mix, following the repo's
//! `BENCH_*.json` conventions.  `--trace-out FILE` additionally writes
//! the traced eval run's slow-request span chains (the server's `trace`
//! response) as a standalone JSON artifact.
//!
//! ```text
//! servebench [--secs N] [--rate RPS] [--clients N] [--threads N]
//!            [--mix eval|repair|durable|both|cached|chaos] [--addr HOST:PORT]
//!            [--store-dir DIR] [--out FILE] [--trace-out FILE]
//! ```
//!
//! `--store-dir` names the durable mix's log directory (default: a
//! scratch directory under the system tempdir, removed afterwards).  With
//! an external `--addr` the durable mix is skipped: durability lives in
//! the target server's own configuration.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig};
use prdnn_serve::chaos::{ChaosConfig, ChaosProxy};
use prdnn_serve::client::Client;
use prdnn_serve::metrics;
use prdnn_serve::protocol::{ErrorKind, ModelRef};
use prdnn_serve::server::{serve, ServerConfig, ServerHandle};
use prdnn_serve::{RetryPolicy, RetryingClient};
use serde::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traced `eval_heavy` run's slow threshold (ms): low enough that
/// essentially every request crosses it, so the run measures span
/// tracing *and* slow-log promotion at their most expensive, and the
/// `--trace-out` artifact has chains to show.
const TRACED_SLOW_MS: u64 = 1;

struct Args {
    secs: u64,
    rate: u64,
    clients: usize,
    mix: String,
    addr: Option<String>,
    store_dir: Option<String>,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 4,
        rate: 200,
        clients: 8,
        mix: "both".to_owned(),
        addr: None,
        store_dir: None,
        out: None,
        trace_out: None,
    };
    prdnn_bench::apply_threads_arg();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--secs" => args.secs = value("--secs").parse().expect("--secs"),
            "--rate" => args.rate = value("--rate").parse().expect("--rate"),
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--mix" => args.mix = value("--mix"),
            "--addr" => args.addr = Some(value("--addr")),
            "--store-dir" => args.store_dir = Some(value("--store-dir")),
            "--out" => args.out = Some(value("--out")),
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--threads" => {
                let _ = value("--threads"); // consumed by apply_threads_arg
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    args.clients = args.clients.max(1);
    args.rate = args.rate.max(1);
    args
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[derive(Default)]
struct Tally {
    sent: AtomicU64,
    ok: AtomicU64,
    overloaded: AtomicU64,
    deadline: AtomicU64,
    other_errors: AtomicU64,
}

struct MixReport {
    name: &'static str,
    elapsed: Duration,
    sent: u64,
    ok: u64,
    overloaded: u64,
    deadline: u64,
    other_errors: u64,
    latencies_ms: Vec<f64>,
    /// Send-measured (not schedule-measured) latencies of successful
    /// `eval` requests only, sorted: the client-side view that pairs
    /// with the server's `prdnn_request_seconds{kind="eval"}` histogram.
    eval_send_ms: Vec<f64>,
    versions_published: u64,
    /// Batcher gulp counters: (gulps, items drained, largest gulp).  The
    /// mean items-per-gulp is the coalescing factor the run achieved.
    gulp_stats: (u64, u64, u64),
    /// The linted teardown scrape; the report's `stages`, `server`, and
    /// `client_vs_server` blocks are derived from it.
    scrape: Scrape,
    /// The server's `trace` response at teardown (slow-request chains).
    slow_traces: Value,
    /// The slow threshold the mix's server ran with.
    slow_ms: u64,
    /// Present only for durable mixes with an in-process server.
    durability: Option<DurabilityReport>,
}

/// What durability cost (WAL traffic during the run) and what it bought
/// (a measured cold-start recovery of everything published).
struct DurabilityReport {
    wal_appends: u64,
    wal_bytes: u64,
    snapshots: u64,
    recovery_ms: f64,
    recovered_versions: u64,
    recovered_wal_records: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn equation_2_like_spec(tweak: u64) -> PointSpec {
    // Shift the target interval slightly per request so successive repairs
    // are distinct specs (distinct hashes, non-trivial deltas).
    let shift = (tweak % 8) as f64 * 0.005;
    let mut spec = PointSpec::new();
    spec.push(
        vec![0.5],
        OutputPolytope::scalar_interval(-1.0 + shift, -0.8 + shift),
    );
    spec.push(
        vec![1.5],
        OutputPolytope::scalar_interval(-0.2 - shift, 0.0 - shift),
    );
    spec
}

/// A parsed-and-linted Prometheus scrape: every sample keyed by its full
/// name (labels included), every announced family keyed by bare name.
struct Scrape {
    samples: BTreeMap<String, f64>,
    types: BTreeMap<String, String>,
}

/// `family_suffix` or `family_suffix{labels}` — the exposition name of
/// one histogram component sample.
fn suffixed(family: &str, suffix: &str, labels: &str) -> String {
    if labels.is_empty() {
        format!("{family}_{suffix}")
    } else {
        format!("{family}_{suffix}{{{labels}}}")
    }
}

impl Scrape {
    fn value(&self, name: &str) -> f64 {
        *self
            .samples
            .get(name)
            .unwrap_or_else(|| panic!("metrics scrape is missing {name}"))
    }

    fn counter(&self, name: &str) -> u64 {
        self.value(name) as u64
    }

    /// The version label stamped on `prdnn_build_info`.
    fn build_version(&self) -> String {
        self.samples
            .keys()
            .find_map(|k| {
                k.strip_prefix("prdnn_build_info{version=\"")
                    .and_then(|rest| rest.strip_suffix("\"}"))
            })
            .expect("scrape has no prdnn_build_info sample")
            .to_owned()
    }

    /// All of `family`'s series: label set (without `le`) → cumulative
    /// buckets as (upper bound, cumulative count), sorted by bound.
    fn histogram_series(&self, family: &str) -> BTreeMap<String, Vec<(f64, u64)>> {
        let prefix = format!("{family}_bucket{{");
        let mut series: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
        for (key, &value) in &self.samples {
            let Some(inner) = key
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix('}'))
            else {
                continue;
            };
            let mut le = None;
            let mut labels = Vec::new();
            // Label values here never contain commas or escaped quotes,
            // so a flat split is a faithful parse.
            for part in inner.split(',') {
                match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
                    Some(v) => le = Some(v.to_owned()),
                    None => labels.push(part),
                }
            }
            let le = le.unwrap_or_else(|| panic!("bucket sample without le: {key}"));
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .unwrap_or_else(|_| panic!("unparsable le {le:?} in {key}"))
            };
            series
                .entry(labels.join(","))
                .or_default()
                .push((le, value as u64));
        }
        for buckets in series.values_mut() {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        }
        series
    }

    /// The inclusive upper bound (in the family's native unit — seconds
    /// for latency families) of the bucket holding the rank-`ceil(q*n)`
    /// value, mirroring the server's own quantile rule.
    fn histogram_quantile(&self, family: &str, labels: &str, q: f64) -> f64 {
        let series = self.histogram_series(family);
        let buckets = series
            .get(labels)
            .unwrap_or_else(|| panic!("no histogram series {family}{{{labels}}}"));
        let count = buckets.last().map(|&(_, cum)| cum).unwrap_or(0);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        for &(le, cum) in buckets {
            if cum >= rank && le.is_finite() {
                return le;
            }
        }
        // Only reachable if the rank falls in +Inf (values clamped past
        // the histogram range); report the largest finite bound.
        buckets
            .iter()
            .rev()
            .find(|(le, _)| le.is_finite())
            .map(|&(le, _)| le)
            .unwrap_or(0.0)
    }
}

/// Parses and lints one metrics exposition: every line well-formed, the
/// announced families (`# HELP` and `# TYPE`) exactly the server's metric
/// registry with its kinds, every family sampled, counters integral,
/// histogram series internally consistent.  Panics (failing the bench) on
/// the first violation.
fn lint_scrape(text: &str) -> Scrape {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut samples: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed HELP line: {line:?}"));
            assert!(!help.is_empty(), "malformed HELP line: {line:?}");
            assert!(helps.insert(name.to_owned()), "duplicate HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed TYPE line: {line:?}"));
            assert!(
                types.insert(name.to_owned(), kind.to_owned()).is_none(),
                "duplicate TYPE for {name}"
            );
        } else if line.starts_with('#') || line.is_empty() {
            panic!("unexpected line in exposition: {line:?}");
        } else {
            let (name, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("malformed sample line: {line:?}"));
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric sample value: {line:?}"));
            assert!(
                value.is_finite() && value >= 0.0,
                "sample value out of range: {line:?}"
            );
            assert!(
                samples.insert(name.to_owned(), value).is_none(),
                "duplicate sample {name}"
            );
        }
    }

    // The announced families are exactly the registry's, with its kinds.
    let registry: BTreeMap<String, String> = metrics::families()
        .map(|f| (f.name.to_owned(), f.kind.to_owned()))
        .collect();
    assert_eq!(
        types, registry,
        "TYPE lines differ from the metric registry"
    );
    assert!(
        helps.iter().eq(registry.keys()),
        "HELP lines differ from the metric registry"
    );

    // Every sample belongs to an announced family (histograms through
    // their `_bucket`/`_sum`/`_count` series), and every family is sampled.
    let mut sampled = BTreeSet::new();
    for (name, value) in &samples {
        let base = name.split('{').next().unwrap();
        let family = if types.contains_key(base) {
            base
        } else {
            let stripped = base
                .strip_suffix("_bucket")
                .or_else(|| base.strip_suffix("_sum"))
                .or_else(|| base.strip_suffix("_count"))
                .unwrap_or_else(|| panic!("sample {name} has no TYPE"));
            assert_eq!(
                types.get(stripped).map(String::as_str),
                Some("histogram"),
                "sample {name} is a histogram component of an unannounced family"
            );
            stripped
        };
        if types[family] == "counter" {
            assert_eq!(
                value.fract(),
                0.0,
                "counter {name} is not integral: {value}"
            );
        }
        sampled.insert(family);
    }
    for family in types.keys() {
        assert!(
            sampled.contains(family.as_str()),
            "family {family} has no samples"
        );
    }

    let scrape = Scrape { samples, types };
    let hist_families = scrape
        .types
        .iter()
        .filter(|(_, kind)| kind.as_str() == "histogram")
        .map(|(name, _)| name);
    for family in hist_families {
        for (labels, buckets) in &scrape.histogram_series(family) {
            let (last_le, last_cum) = *buckets.last().unwrap();
            assert!(
                last_le.is_infinite(),
                "{family}{{{labels}}}: no +Inf bucket"
            );
            let count = scrape.counter(&suffixed(family, "count", labels));
            assert_eq!(
                last_cum, count,
                "{family}{{{labels}}}: +Inf bucket disagrees with _count"
            );
            let mut prev = (f64::NEG_INFINITY, 0u64);
            for &(le, cum) in buckets {
                assert!(
                    le > prev.0,
                    "{family}{{{labels}}}: bucket bounds not strictly increasing"
                );
                assert!(
                    cum >= prev.1,
                    "{family}{{{labels}}}: cumulative counts decreased at le={le}"
                );
                prev = (le, cum);
            }
            let sum = scrape.value(&suffixed(family, "sum", labels));
            if count == 0 {
                assert_eq!(
                    sum, 0.0,
                    "{family}{{{labels}}}: empty series with nonzero _sum"
                );
            }
        }
    }
    scrape
}

/// Invariants tying histogram counts to the server's own request
/// counters.  Exact equalities hold only once the request planes have
/// quiesced (all bench clients joined); repair jobs and their WAL
/// publishes may still be settling when the scrape renders, so the job
/// and WAL families are checked as inequalities whose direction is safe
/// under concurrent settling.
fn cross_check(s: &Scrape) {
    let hist = |family: &str, labels: &str| s.counter(&suffixed(family, "count", labels));
    assert_eq!(
        hist("prdnn_request_seconds", "kind=\"eval\""),
        s.counter("prdnn_eval_requests_total"),
        "eval e2e histogram count diverged from the eval request counter"
    );
    assert_eq!(
        hist("prdnn_request_seconds", "kind=\"lin_regions\""),
        s.counter("prdnn_lin_requests_total"),
        "lin_regions e2e histogram count diverged from the request counter"
    );
    assert_eq!(
        hist("prdnn_batch_queue_wait_seconds", ""),
        s.counter("prdnn_gulp_items_total"),
        "batch queue-wait histogram count diverged from drained items"
    );
    assert_eq!(
        hist("prdnn_gulp_size", ""),
        s.counter("prdnn_gulps_total"),
        "gulp-size histogram count diverged from the gulp counter"
    );
    assert_eq!(
        s.value("prdnn_gulp_size_sum") as u64,
        s.counter("prdnn_gulp_items_total"),
        "gulp-size histogram sum diverged from drained items"
    );
    assert_eq!(
        hist("prdnn_batch_exec_seconds", ""),
        s.counter("prdnn_eval_batches_total") + s.counter("prdnn_lin_batches_total"),
        "batch-exec histogram count diverged from executed batch groups"
    );
    assert!(
        hist("prdnn_job_queue_wait_seconds", "") <= s.counter("prdnn_jobs_submitted_total"),
        "more job queue-wait samples than jobs submitted"
    );
    assert!(
        hist("prdnn_lp_solve_seconds", "") <= s.counter("prdnn_jobs_submitted_total"),
        "more LP solve samples than jobs submitted"
    );
    assert!(
        hist("prdnn_wal_fsync_seconds", "") >= s.counter("prdnn_wal_appends_total"),
        "fewer WAL fsync samples than acknowledged WAL appends"
    );
    assert!(
        hist("prdnn_cache_service_seconds", "result=\"hit\"")
            <= s.counter("prdnn_cache_hits_total"),
        "more cache-hit service samples than cache hits"
    );
    assert!(
        hist("prdnn_cache_service_seconds", "result=\"miss\"")
            <= s.counter("prdnn_cache_misses_total"),
        "more cache-miss service samples than cache misses"
    );
}

/// Scrapes the metrics endpoint and runs the exposition lint.  The
/// cross-counter checks ([`cross_check`]) are the caller's to apply —
/// they assume a quiesced server.
fn scrape_metrics(client: &mut Client) -> Scrape {
    let text = client.metrics().expect("metrics request");
    lint_scrape(&text)
}

/// One stage's report block: sample count plus mean/p50/p99 derived
/// from the scrape's histogram.  Latency stages are in milliseconds;
/// `gulp_size` stays in items.
fn stage_json(s: &Scrape, family: &str, labels: &str, seconds: bool) -> Value {
    let count = s.counter(&suffixed(family, "count", labels));
    let sum = s.value(&suffixed(family, "sum", labels));
    let scale = if seconds { 1e3 } else { 1.0 };
    Value::obj([
        ("count", Value::Num(count as f64)),
        (
            "mean",
            Value::Num(if count == 0 {
                0.0
            } else {
                sum * scale / count as f64
            }),
        ),
        (
            "p50",
            Value::Num(s.histogram_quantile(family, labels, 0.50) * scale),
        ),
        (
            "p99",
            Value::Num(s.histogram_quantile(family, labels, 0.99) * scale),
        ),
    ])
}

/// The per-stage breakdown block shared by every mix report.
fn stages_json(s: &Scrape) -> Value {
    Value::obj([
        (
            "batch_queue_wait_ms",
            stage_json(s, "prdnn_batch_queue_wait_seconds", "", true),
        ),
        (
            "batch_exec_ms",
            stage_json(s, "prdnn_batch_exec_seconds", "", true),
        ),
        ("gulp_size", stage_json(s, "prdnn_gulp_size", "", false)),
        (
            "job_queue_wait_ms",
            stage_json(s, "prdnn_job_queue_wait_seconds", "", true),
        ),
        (
            "lp_solve_ms",
            stage_json(s, "prdnn_lp_solve_seconds", "", true),
        ),
        (
            "wal_fsync_ms",
            stage_json(s, "prdnn_wal_fsync_seconds", "", true),
        ),
        (
            "cache_hit_service_ms",
            stage_json(s, "prdnn_cache_service_seconds", "result=\"hit\"", true),
        ),
        (
            "cache_miss_service_ms",
            stage_json(s, "prdnn_cache_service_seconds", "result=\"miss\"", true),
        ),
    ])
}

/// The scrape-derived provenance block stamped into every mix report.
fn server_json(s: &Scrape, slow_ms: u64) -> Value {
    Value::obj([
        ("build_version", Value::Str(s.build_version())),
        ("uptime_s", Value::Num(s.value("prdnn_uptime_seconds"))),
        ("slow_ms", Value::Num(slow_ms as f64)),
    ])
}

/// Runs one mix against a fresh server (or the external `addr`) and
/// gathers the report.  `slow_ms` overrides the server's slow-trace
/// threshold (`None` keeps the default; ignored with `--addr`, whose
/// server this process does not configure).
fn run_mix(
    name: &'static str,
    args: &Args,
    repair_share_pct: u64,
    store_dir: Option<&std::path::Path>,
    slow_ms: Option<u64>,
) -> MixReport {
    let effective_slow_ms = slow_ms.unwrap_or(ServerConfig::default().slow_ms);
    let own_server: Option<ServerHandle> = if args.addr.is_none() {
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_connections: args.clients + 8,
            store_dir: store_dir.map(|p| p.to_path_buf()),
            ..ServerConfig::default()
        };
        config.slow_ms = effective_slow_ms;
        Some(serve(config).expect("ephemeral bind"))
    } else {
        None
    };
    let addr: SocketAddr = match (&own_server, &args.addr) {
        (Some(handle), _) => handle.addr(),
        (None, Some(addr)) => addr.parse().expect("--addr must be HOST:PORT"),
        (None, None) => unreachable!(),
    };

    // Model setup: an MLP for evals, the paper's N1 for repairs.  Loading
    // twice (both mixes share names) is fine on a fresh server; on an
    // external server the duplicate-load error is ignored.
    {
        let mut setup = Client::connect(addr).expect("connect for setup");
        let _ = setup.load_generator("bench-eval", "mlp:31:8x24x24x5");
        let _ = setup.load_generator("bench-repair", "n1");
    }

    let tally = Arc::new(Tally::default());
    let duration = Duration::from_secs(args.secs.max(1));
    let start = Instant::now();
    let per_client_rate = (args.rate as f64 / args.clients as f64).max(0.1);
    let clients = args.clients;
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let tally = Arc::clone(&tally);
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (Vec::new(), Vec::new()),
                };
                let mut latencies = Vec::new();
                let mut eval_send = Vec::new();
                let interval = Duration::from_secs_f64(1.0 / per_client_rate);
                // Stagger the clients' schedules so arrivals interleave
                // instead of lock-stepping.
                let phase = interval.mul_f64(c as f64 / clients as f64);
                let mut k = 0u64;
                loop {
                    let scheduled = start + phase + interval * (k as u32);
                    if scheduled.duration_since(start) >= duration {
                        break;
                    }
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    tally.sent.fetch_add(1, Ordering::Relaxed);
                    let roll = (k * 37 + c as u64 * 13) % 100;
                    let send_start = Instant::now();
                    let mut is_eval = false;
                    let result = if roll < repair_share_pct {
                        client
                            .repair(
                                &ModelRef::latest("bench-repair"),
                                0,
                                equation_2_like_spec(k),
                                RepairConfig::default(),
                            )
                            .map(|_| ())
                    } else if roll >= 90 {
                        client
                            .lin_regions(
                                &ModelRef::latest("bench-eval"),
                                vec![vec![
                                    vec![-1.0, 0.0, 0.1, 0.2, -0.1, 0.3, 0.0, 0.4],
                                    vec![1.0, 0.5, -0.1, 0.0, 0.2, -0.3, 0.1, -0.4],
                                ]],
                                Some(5_000),
                            )
                            .map(|_| ())
                    } else {
                        is_eval = true;
                        let inputs: Vec<Vec<f64>> = (0..4)
                            .map(|p| {
                                (0..8)
                                    .map(|i| ((k + p) * 8 + i) as f64 * 0.03 % 1.0 - 0.5)
                                    .collect()
                            })
                            .collect();
                        client
                            .eval(&ModelRef::latest("bench-eval"), inputs, Some(5_000))
                            .map(|_| ())
                    };
                    // Latency from the *scheduled* arrival (open loop).
                    let latency = scheduled.elapsed();
                    match result {
                        Ok(()) => {
                            tally.ok.fetch_add(1, Ordering::Relaxed);
                            latencies.push(latency.as_secs_f64() * 1e3);
                            if is_eval {
                                // Send-measured as well: the client-side
                                // number the server's residence histogram
                                // is compared against.
                                eval_send.push(send_start.elapsed().as_secs_f64() * 1e3);
                            }
                        }
                        Err(e) => match e.kind() {
                            Some(ErrorKind::Overloaded) => {
                                tally.overloaded.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(ErrorKind::DeadlineExceeded) => {
                                tally.deadline.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                tally.other_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                    }
                    k += 1;
                }
                (latencies, eval_send)
            })
        })
        .collect();

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut eval_send_ms: Vec<f64> = Vec::new();
    for w in workers {
        let (lats, evals) = w.join().expect("client thread panicked");
        latencies_ms.extend(lats);
        eval_send_ms.extend(evals);
    }
    let elapsed = start.elapsed();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    eval_send_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let (versions_published, gulp_stats, scrape, slow_traces, durability) = {
        let mut client = Client::connect(addr).expect("connect for teardown");
        let published = client
            .list_versions("bench-repair")
            .map(|v| v.len() as u64 - 1)
            .unwrap_or(0);
        let stats = client.stats().ok();
        let gulp_stats = stats
            .as_ref()
            .map(|s| (s.gulps, s.gulp_items, s.max_gulp))
            .unwrap_or((0, 0, 0));
        // Every mix doubles as a metrics-scrape check: malformed
        // exposition text fails the bench, not just some dashboard.  On
        // an in-process server the request planes have quiesced, so the
        // histogram-vs-counter invariants must hold exactly too.
        let scrape = scrape_metrics(&mut client);
        if own_server.is_some() {
            cross_check(&scrape);
        }
        let slow_traces = client.trace().expect("trace request");
        if own_server.is_some() && effective_slow_ms == 0 {
            assert_eq!(
                slow_traces.as_arr().map(|a| a.len()),
                Some(0),
                "{name}: slow_ms=0 must disable the slow-trace log"
            );
        }
        let owned = own_server.is_some();
        if let Some(handle) = own_server {
            client.shutdown_server().expect("shutdown");
            drop(client);
            handle.join().expect("server drain");
        }
        // Durability epilogue: cold-start a fresh server on the same
        // directory and time how long recovery (which runs before the
        // bind returns) takes to bring every published version back.
        let durability = match (store_dir, owned, stats) {
            (Some(dir), true, Some(stats)) => {
                let t0 = Instant::now();
                let handle = serve(ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    store_dir: Some(dir.to_path_buf()),
                    ..ServerConfig::default()
                })
                .expect("recovery bind");
                let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
                let mut probe = Client::connect(handle.addr()).expect("connect for recovery");
                let after = probe.stats().expect("recovery stats");
                assert!(
                    after.recovered_versions > published,
                    "recovery lost versions: {} recovered, {} published",
                    after.recovered_versions,
                    published + 1
                );
                probe.shutdown_server().expect("recovery shutdown");
                drop(probe);
                handle.join().expect("recovery drain");
                Some(DurabilityReport {
                    wal_appends: stats.wal_appends,
                    wal_bytes: stats.wal_bytes,
                    snapshots: stats.snapshots,
                    recovery_ms,
                    recovered_versions: after.recovered_versions,
                    recovered_wal_records: after.recovered_wal_records,
                })
            }
            _ => None,
        };
        (published, gulp_stats, scrape, slow_traces, durability)
    };

    // Client-vs-server teardown comparison: the server's own residence
    // histogram must not claim a larger median than clients measured
    // from the send — residence is a strict subset of what the client
    // sees (wire + serde on top).  The slack covers bucket resolution
    // (~3%) and scheduler noise on loaded CI hosts.
    let eval_hist_count =
        scrape.counter(&suffixed("prdnn_request_seconds", "count", "kind=\"eval\""));
    if eval_send_ms.len() >= 50 && eval_hist_count > 0 {
        let client_p50 = percentile(&eval_send_ms, 0.50);
        let server_p50 =
            scrape.histogram_quantile("prdnn_request_seconds", "kind=\"eval\"", 0.50) * 1e3;
        let slack = (client_p50 * 0.5).max(2.0);
        assert!(
            server_p50 <= client_p50 + slack,
            "{name}: server-side eval p50 {server_p50:.3}ms implausibly above \
             client-side {client_p50:.3}ms"
        );
    }

    MixReport {
        name,
        elapsed,
        sent: tally.sent.load(Ordering::Relaxed),
        ok: tally.ok.load(Ordering::Relaxed),
        overloaded: tally.overloaded.load(Ordering::Relaxed),
        deadline: tally.deadline.load(Ordering::Relaxed),
        other_errors: tally.other_errors.load(Ordering::Relaxed),
        latencies_ms,
        eval_send_ms,
        versions_published,
        gulp_stats,
        scrape,
        slow_traces,
        slow_ms: effective_slow_ms,
        durability,
    }
}

/// How many distinct payloads the hot phase cycles through.  Small
/// enough that the pool warms almost immediately (the first request for
/// each entry is the only miss), large enough that the phase is not one
/// degenerate key.
const CACHED_HOT_POOL: u64 = 16;

/// Cold-phase payload: unique per `(client, request)`, and offset away
/// from the hot pool's value range, so every request is a cache miss.
fn cached_cold_payload(c: usize, k: u64) -> Vec<Vec<f64>> {
    let tag = c as u64 * 1_000_003 + k;
    (0..4u64)
        .map(|p| {
            (0..8u64)
                .map(|i| (tag * 32 + p * 8 + i) as f64 * 1e-4 + 10.0)
                .collect()
        })
        .collect()
}

/// Hot-phase payload: drawn from a pool of [`CACHED_HOT_POOL`] payloads
/// shared by every client, so after each entry's first (miss) request
/// every recurrence — from any client — is a cache hit.
fn cached_hot_payload(_c: usize, k: u64) -> Vec<Vec<f64>> {
    let tag = k % CACHED_HOT_POOL;
    (0..4u64)
        .map(|p| {
            (0..8u64)
                .map(|i| ((tag * 32 + p * 8 + i) as f64 * 0.03) % 1.0 - 0.5)
                .collect()
        })
        .collect()
}

/// Runs one closed-loop phase of the cached mix: `clients` threads each
/// issue `per_client` evals back-to-back, measuring latency from the
/// send.  Returns the sorted latencies in milliseconds.
fn cached_phase(
    addr: SocketAddr,
    clients: usize,
    per_client: u64,
    payload: fn(usize, u64) -> Vec<Vec<f64>>,
) -> Vec<f64> {
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect for cached phase");
                let mut latencies = Vec::with_capacity(per_client as usize);
                for k in 0..per_client {
                    let inputs = payload(c, k);
                    let t0 = Instant::now();
                    client
                        .eval(&ModelRef::latest("bench-eval"), inputs, Some(10_000))
                        .expect("cached-mix eval");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().expect("cached client thread panicked"));
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    latencies
}

/// Runs the `eval_cached` mix and returns its JSON report.  Asserts the
/// acceptance bar inline: hot-phase hit rate at least 90%, and a cache
/// hit cheaper than a miss at the median.
fn run_cached_mix(args: &Args) -> Value {
    let own_server: Option<ServerHandle> = if args.addr.is_none() {
        Some(
            serve(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                max_connections: args.clients + 8,
                ..ServerConfig::default()
            })
            .expect("ephemeral bind"),
        )
    } else {
        None
    };
    let addr: SocketAddr = match (&own_server, &args.addr) {
        (Some(handle), _) => handle.addr(),
        (None, Some(addr)) => addr.parse().expect("--addr must be HOST:PORT"),
        (None, None) => unreachable!(),
    };
    {
        let mut setup = Client::connect(addr).expect("connect for setup");
        let _ = setup.load_generator("bench-eval", "mlp:31:8x24x24x5");
    }

    // Size the phases off the offered-load knobs: the hot phase is 4x
    // the cold one so pool warm-up (one miss per pool entry) is noise.
    let per_client = ((args.rate * args.secs.max(1)) as usize / args.clients).max(32) as u64;
    let start = Instant::now();
    let miss_latencies = cached_phase(addr, args.clients, per_client, cached_cold_payload);
    let mid = Client::connect(addr)
        .expect("connect for mid stats")
        .stats()
        .expect("mid stats");
    let hit_latencies = cached_phase(addr, args.clients, per_client * 4, cached_hot_payload);
    let elapsed = start.elapsed();

    let mut teardown = Client::connect(addr).expect("connect for teardown");
    let stats = teardown.stats().expect("server stats");
    let scrape = scrape_metrics(&mut teardown);
    if own_server.is_some() {
        cross_check(&scrape);
    }
    if let Some(handle) = own_server {
        teardown.shutdown_server().expect("shutdown");
        drop(teardown);
        handle.join().expect("server drain");
    }

    let hot_hits = stats.cache_hits - mid.cache_hits;
    let hot_total = hot_hits + (stats.cache_misses - mid.cache_misses);
    let hit_rate_hot = hot_hits as f64 / hot_total.max(1) as f64;
    let miss_p50 = percentile(&miss_latencies, 0.50);
    let hit_p50 = percentile(&hit_latencies, 0.50);
    assert!(
        hit_rate_hot >= 0.90,
        "eval_cached: hot-phase hit rate {hit_rate_hot:.3} below 0.90 \
         ({hot_hits}/{hot_total})"
    );
    assert!(
        hit_p50 < miss_p50,
        "eval_cached: hit p50 {hit_p50:.3}ms not below miss p50 {miss_p50:.3}ms"
    );

    Value::obj([
        ("mix", Value::Str("eval_cached".to_owned())),
        ("clients", Value::Num(args.clients as f64)),
        ("host_cores", Value::Num(host_cores() as f64)),
        ("duration_s", Value::Num(elapsed.as_secs_f64())),
        (
            "server",
            server_json(&scrape, ServerConfig::default().slow_ms),
        ),
        (
            "requests",
            Value::obj([
                ("cold", Value::Num(miss_latencies.len() as f64)),
                ("hot", Value::Num(hit_latencies.len() as f64)),
            ]),
        ),
        ("hit_rate_hot", Value::Num(hit_rate_hot)),
        (
            "cache",
            Value::obj([
                ("hits", Value::Num(stats.cache_hits as f64)),
                ("misses", Value::Num(stats.cache_misses as f64)),
                ("inserts", Value::Num(stats.cache_inserts as f64)),
                ("evictions", Value::Num(stats.cache_evictions as f64)),
                ("fill_skips", Value::Num(stats.cache_fill_skips as f64)),
                ("bytes", Value::Num(stats.cache_bytes as f64)),
            ]),
        ),
        (
            "latency_ms",
            Value::obj([
                ("miss_p50", Value::Num(miss_p50)),
                ("miss_p90", Value::Num(percentile(&miss_latencies, 0.90))),
                ("miss_p99", Value::Num(percentile(&miss_latencies, 0.99))),
                ("hit_p50", Value::Num(hit_p50)),
                ("hit_p90", Value::Num(percentile(&hit_latencies, 0.90))),
                ("hit_p99", Value::Num(percentile(&hit_latencies, 0.99))),
            ]),
        ),
        ("stages", stages_json(&scrape)),
    ])
}

/// One availability measurement: an eval workload pushed through a chaos
/// proxy under one fault regime, every client behind a retry policy.
struct ChaosRegimeReport {
    regime: &'static str,
    elapsed: Duration,
    sent: u64,
    ok: u64,
    retries: u64,
    reconnects: u64,
    giveups: u64,
    /// Server-side load shedding during the run: queue-full rejections
    /// plus connections turned away at the cap.
    sheds: u64,
    io_timeouts: u64,
    /// Proxy's own ledger: (connections, delayed, corrupted, dropped,
    /// truncated, severed).
    proxy: (u64, u64, u64, u64, u64, u64),
    latencies_ms: Vec<f64>,
    /// Teardown scrape over a direct (un-proxied) connection; format
    /// lint only — abandoned frames may still be settling when it runs,
    /// so the quiesce-only counter equalities are not asserted here.
    scrape: Scrape,
}

/// The fault-regime sweep: a fault-free baseline, each fault family in
/// isolation, then everything at once.  Per-mille rates are aggressive
/// enough that a few-second run sees every family fire.
fn chaos_regimes() -> Vec<(&'static str, ChaosConfig)> {
    vec![
        ("fault_free", ChaosConfig::fault_free(1)),
        (
            "delay",
            ChaosConfig {
                delay_per_mille: 300,
                max_delay_ms: 10,
                ..ChaosConfig::fault_free(2)
            },
        ),
        (
            "corrupt",
            ChaosConfig {
                corrupt_per_mille: 60,
                ..ChaosConfig::fault_free(3)
            },
        ),
        (
            "drop",
            ChaosConfig {
                drop_per_mille: 60,
                ..ChaosConfig::fault_free(4)
            },
        ),
        (
            "sever",
            ChaosConfig {
                sever_per_mille: 40,
                ..ChaosConfig::fault_free(5)
            },
        ),
        (
            "all_faults",
            ChaosConfig {
                sever_per_mille: 25,
                truncate_per_mille: 25,
                corrupt_per_mille: 40,
                drop_per_mille: 40,
                delay_per_mille: 150,
                max_delay_ms: 10,
                ..ChaosConfig::fault_free(6)
            },
        ),
    ]
}

/// Runs the eval workload through a chaos proxy under one fault regime
/// against a fresh in-process server, and reports availability.
fn run_chaos_regime(regime: &'static str, args: &Args, config: ChaosConfig) -> ChaosRegimeReport {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_connections: args.clients + 8,
        // Short enough that severed-mid-frame connections free their
        // slots well within the run.
        io_timeout_ms: 2_000,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    {
        let mut setup = Client::connect(handle.addr()).expect("connect for setup");
        setup
            .load_generator("bench-eval", "mlp:31:8x24x24x5")
            .expect("load eval model");
    }
    let mut proxy = ChaosProxy::start(handle.addr(), config).expect("start chaos proxy");
    let proxy_addr = proxy.addr();

    let duration = Duration::from_secs(args.secs.max(1));
    let start = Instant::now();
    let per_client_rate = (args.rate as f64 / args.clients as f64).max(0.1);
    let clients = args.clients;
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = RetryingClient::new(
                    proxy_addr,
                    RetryPolicy {
                        max_attempts: 8,
                        base_delay: Duration::from_millis(5),
                        max_delay: Duration::from_millis(100),
                        jitter_per_mille: 200,
                        seed: 100 + c as u64,
                    },
                    Duration::from_secs(1),
                );
                let mut latencies = Vec::new();
                let (mut sent, mut ok) = (0u64, 0u64);
                let interval = Duration::from_secs_f64(1.0 / per_client_rate);
                let phase = interval.mul_f64(c as f64 / clients as f64);
                let mut k = 0u64;
                loop {
                    let scheduled = start + phase + interval * (k as u32);
                    if scheduled.duration_since(start) >= duration {
                        break;
                    }
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    sent += 1;
                    let inputs: Vec<Vec<f64>> = vec![(0..8)
                        .map(|i| (k * 8 + i) as f64 * 0.03 % 1.0 - 0.5)
                        .collect()];
                    if client
                        .eval(
                            &ModelRef::latest("bench-eval"),
                            &inputs,
                            Some(1_000),
                            Duration::from_secs(2),
                        )
                        .is_ok()
                    {
                        ok += 1;
                        // Latency from the scheduled arrival, retries and
                        // backoff sleeps included: availability pricing.
                        latencies.push(scheduled.elapsed().as_secs_f64() * 1e3);
                    }
                    k += 1;
                }
                (sent, ok, latencies, client.stats)
            })
        })
        .collect();

    let (mut sent, mut ok) = (0u64, 0u64);
    let (mut retries, mut reconnects, mut giveups) = (0u64, 0u64, 0u64);
    let mut latencies_ms: Vec<f64> = Vec::new();
    for w in workers {
        let (s, o, lats, stats) = w.join().expect("chaos client thread panicked");
        sent += s;
        ok += o;
        latencies_ms.extend(lats);
        retries += stats.retries;
        reconnects += stats.reconnects;
        giveups += stats.giveups;
    }
    let elapsed = start.elapsed();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // Stats and shutdown over a *direct* connection — the report must not
    // depend on a stats frame surviving the proxy.
    let mut teardown = Client::connect(handle.addr()).expect("connect for teardown");
    let stats = teardown.stats().expect("server stats");
    let scrape = scrape_metrics(&mut teardown);
    teardown.shutdown_server().expect("shutdown");
    drop(teardown);
    handle.join().expect("server drain");
    let counters = proxy.counters();
    let proxy_counts = (
        counters.connections.load(Ordering::Relaxed),
        counters.delayed.load(Ordering::Relaxed),
        counters.corrupted.load(Ordering::Relaxed),
        counters.dropped.load(Ordering::Relaxed),
        counters.truncated.load(Ordering::Relaxed),
        counters.severed.load(Ordering::Relaxed),
    );
    proxy.shutdown();

    ChaosRegimeReport {
        regime,
        elapsed,
        sent,
        ok,
        retries,
        reconnects,
        giveups,
        sheds: stats.batch_shed + stats.jobs_shed + stats.conns_rejected,
        io_timeouts: stats.io_timeouts,
        proxy: proxy_counts,
        latencies_ms,
        scrape,
    }
}

fn chaos_report_to_json(r: &ChaosRegimeReport, args: &Args) -> Value {
    Value::obj([
        ("regime", Value::Str(r.regime.to_owned())),
        ("offered_rps", Value::Num(args.rate as f64)),
        ("duration_s", Value::Num(r.elapsed.as_secs_f64())),
        ("host_cores", Value::Num(host_cores() as f64)),
        (
            "server",
            server_json(&r.scrape, ServerConfig::default().slow_ms),
        ),
        ("sent", Value::Num(r.sent as f64)),
        ("completed", Value::Num(r.ok as f64)),
        (
            "success_rate",
            Value::Num(if r.sent == 0 {
                0.0
            } else {
                r.ok as f64 / r.sent as f64
            }),
        ),
        ("retries", Value::Num(r.retries as f64)),
        ("reconnects", Value::Num(r.reconnects as f64)),
        ("giveups", Value::Num(r.giveups as f64)),
        ("sheds", Value::Num(r.sheds as f64)),
        ("io_timeouts", Value::Num(r.io_timeouts as f64)),
        (
            "proxy",
            Value::obj([
                ("connections", Value::Num(r.proxy.0 as f64)),
                ("delayed", Value::Num(r.proxy.1 as f64)),
                ("corrupted", Value::Num(r.proxy.2 as f64)),
                ("dropped", Value::Num(r.proxy.3 as f64)),
                ("truncated", Value::Num(r.proxy.4 as f64)),
                ("severed", Value::Num(r.proxy.5 as f64)),
            ]),
        ),
        (
            "latency_ms",
            Value::obj([
                ("p50", Value::Num(percentile(&r.latencies_ms, 0.50))),
                ("p99", Value::Num(percentile(&r.latencies_ms, 0.99))),
                (
                    "max",
                    Value::Num(r.latencies_ms.last().copied().unwrap_or(0.0)),
                ),
            ]),
        ),
    ])
}

fn report_to_json(report: &MixReport, args: &Args) -> Value {
    let mut pairs = vec![
        ("mix", Value::Str(report.name.to_owned())),
        ("offered_rps", Value::Num(args.rate as f64)),
        ("clients", Value::Num(args.clients as f64)),
        ("host_cores", Value::Num(host_cores() as f64)),
        ("duration_s", Value::Num(report.elapsed.as_secs_f64())),
        ("server", server_json(&report.scrape, report.slow_ms)),
        ("sent", Value::Num(report.sent as f64)),
        ("completed", Value::Num(report.ok as f64)),
        (
            "throughput_rps",
            Value::Num(report.ok as f64 / report.elapsed.as_secs_f64()),
        ),
        ("overloaded", Value::Num(report.overloaded as f64)),
        ("deadline_exceeded", Value::Num(report.deadline as f64)),
        ("other_errors", Value::Num(report.other_errors as f64)),
        (
            "versions_published",
            Value::Num(report.versions_published as f64),
        ),
        (
            "batcher",
            Value::obj([
                ("gulps", Value::Num(report.gulp_stats.0 as f64)),
                ("gulp_items", Value::Num(report.gulp_stats.1 as f64)),
                (
                    "mean_gulp",
                    Value::Num(if report.gulp_stats.0 == 0 {
                        0.0
                    } else {
                        report.gulp_stats.1 as f64 / report.gulp_stats.0 as f64
                    }),
                ),
                ("max_gulp", Value::Num(report.gulp_stats.2 as f64)),
            ]),
        ),
        (
            "latency_ms",
            Value::obj([
                ("p50", Value::Num(percentile(&report.latencies_ms, 0.50))),
                ("p90", Value::Num(percentile(&report.latencies_ms, 0.90))),
                ("p99", Value::Num(percentile(&report.latencies_ms, 0.99))),
                (
                    "max",
                    Value::Num(report.latencies_ms.last().copied().unwrap_or(0.0)),
                ),
            ]),
        ),
        ("stages", stages_json(&report.scrape)),
        (
            "slow_traces",
            Value::Num(report.slow_traces.as_arr().map(|a| a.len()).unwrap_or(0) as f64),
        ),
    ];
    if !report.eval_send_ms.is_empty() {
        let quantile = |q| {
            report
                .scrape
                .histogram_quantile("prdnn_request_seconds", "kind=\"eval\"", q)
                * 1e3
        };
        let client_p50 = percentile(&report.eval_send_ms, 0.50);
        let server_p50 = quantile(0.50);
        pairs.push((
            "client_vs_server",
            Value::obj([
                (
                    "eval_requests",
                    Value::Num(report.eval_send_ms.len() as f64),
                ),
                ("client_p50_ms", Value::Num(client_p50)),
                (
                    "client_p99_ms",
                    Value::Num(percentile(&report.eval_send_ms, 0.99)),
                ),
                ("server_p50_ms", Value::Num(server_p50)),
                ("server_p99_ms", Value::Num(quantile(0.99))),
                ("p50_gap_ms", Value::Num(client_p50 - server_p50)),
            ]),
        ));
    }
    if let Some(d) = &report.durability {
        pairs.push((
            "durability",
            Value::obj([
                ("wal_appends", Value::Num(d.wal_appends as f64)),
                ("wal_bytes", Value::Num(d.wal_bytes as f64)),
                ("snapshots", Value::Num(d.snapshots as f64)),
                ("recovery_ms", Value::Num(d.recovery_ms)),
                (
                    "recovered_versions",
                    Value::Num(d.recovered_versions as f64),
                ),
                (
                    "recovered_wal_records",
                    Value::Num(d.recovered_wal_records as f64),
                ),
            ]),
        ));
    }
    Value::obj(pairs)
}

fn main() {
    let args = parse_args();
    let mut reports = Vec::new();
    // (traced, untraced) indices into `reports` for the overhead block.
    let mut eval_pair: Option<(usize, usize)> = None;
    if args.mix == "both" || args.mix == "eval" {
        reports.push(run_mix("eval_heavy", &args, 0, None, Some(TRACED_SLOW_MS)));
        if args.addr.is_none() {
            // Same workload with span tracing off: the pair prices the
            // telemetry overhead.  Meaningless against an external
            // server, whose slow_ms this process cannot set.
            let on = reports.len() - 1;
            reports.push(run_mix("eval_heavy_notrace", &args, 0, None, Some(0)));
            eval_pair = Some((on, reports.len() - 1));
        }
    }
    if args.mix == "both" || args.mix == "repair" {
        reports.push(run_mix("repair_heavy", &args, 60, None, None));
    }
    if (args.mix == "both" || args.mix == "durable") && args.addr.is_none() {
        // User-named directory, or a scratch one removed afterwards.
        let (dir, scratch) = match &args.store_dir {
            Some(dir) => (std::path::PathBuf::from(dir), false),
            None => (
                std::env::temp_dir().join(format!("servebench-wal-{}", std::process::id())),
                true,
            ),
        };
        std::fs::create_dir_all(&dir).expect("create --store-dir");
        reports.push(run_mix("repair_heavy_durable", &args, 60, Some(&dir), None));
        if scratch {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let cached_report = if args.mix == "cached" {
        Some(run_cached_mix(&args))
    } else {
        None
    };
    let mut chaos_reports = Vec::new();
    if args.mix == "chaos" {
        assert!(
            args.addr.is_none(),
            "--mix chaos drives its own in-process server; drop --addr"
        );
        for (regime, config) in chaos_regimes() {
            eprintln!("servebench: chaos regime {regime}");
            let report = run_chaos_regime(regime, &args, config);
            assert!(report.ok > 0, "{regime}: no request survived the chaos");
            chaos_reports.push(report);
        }
        // The baseline regime runs through the (fault-free) proxy and the
        // retry wrapper: anything lost there is a bug, not chaos.
        let baseline = &chaos_reports[0];
        assert_eq!(
            baseline.ok + baseline.giveups,
            baseline.sent,
            "fault-free regime lost requests without a give-up"
        );
    }
    assert!(
        !reports.is_empty() || !chaos_reports.is_empty() || cached_report.is_some(),
        "--mix must be eval, repair, durable, both, cached, or chaos (got {:?})",
        args.mix
    );
    for report in &reports {
        assert!(
            report.other_errors == 0,
            "{}: {} unexpected errors",
            report.name,
            report.other_errors
        );
        assert!(report.ok > 0, "{}: no request completed", report.name);
    }

    let mut doc_pairs = vec![
        ("bench", Value::Str("servebench".to_owned())),
        ("threads", Value::Num(prdnn_par::default_threads() as f64)),
        ("host_cores", Value::Num(host_cores() as f64)),
        (
            "mixes",
            Value::Arr(reports.iter().map(|r| report_to_json(r, &args)).collect()),
        ),
    ];
    if let Some((on, off)) = eval_pair {
        let p50_on = percentile(&reports[on].eval_send_ms, 0.50);
        let p50_off = percentile(&reports[off].eval_send_ms, 0.50);
        let overhead = p50_on - p50_off;
        // The design target is < 5% — the report carries the exact
        // fraction for trend-watching.  The hard gate is looser (half
        // the median, floored at 1ms) so scheduler noise on shared CI
        // hosts cannot flake the run, while a gross regression (tracing
        // on the hot path allocating or taking locks) still fails it.
        let budget = (p50_off * 0.5).max(1.0);
        assert!(
            overhead <= budget,
            "telemetry overhead implausible: traced eval p50 {p50_on:.3}ms vs \
             untraced {p50_off:.3}ms"
        );
        doc_pairs.push((
            "telemetry_overhead",
            Value::obj([
                ("eval_p50_traced_ms", Value::Num(p50_on)),
                ("eval_p50_untraced_ms", Value::Num(p50_off)),
                ("overhead_ms", Value::Num(overhead)),
                (
                    "overhead_frac",
                    Value::Num(if p50_off > 0.0 {
                        overhead / p50_off
                    } else {
                        0.0
                    }),
                ),
            ]),
        ));
    }
    if let Some(cached) = cached_report {
        doc_pairs.push(("cached", cached));
    }
    if !chaos_reports.is_empty() {
        doc_pairs.push((
            "chaos",
            Value::Arr(
                chaos_reports
                    .iter()
                    .map(|r| chaos_report_to_json(r, &args))
                    .collect(),
            ),
        ));
    }
    let doc = Value::obj(doc_pairs);
    let json = doc.to_json();
    println!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, &json).expect("writing --out file");
        eprintln!("servebench: wrote {path}");
    }
    if let Some(path) = &args.trace_out {
        // The traced run's slow-request chains as a standalone artifact;
        // prefer a mix that actually had tracing on.
        let traced = reports
            .iter()
            .find(|r| r.slow_ms > 0)
            .or_else(|| reports.first());
        let trace_doc = Value::obj([
            ("bench", Value::Str("servebench-trace".to_owned())),
            (
                "mix",
                Value::Str(traced.map(|r| r.name).unwrap_or("none").to_owned()),
            ),
            (
                "slow_ms",
                Value::Num(traced.map(|r| r.slow_ms).unwrap_or(0) as f64),
            ),
            ("host_cores", Value::Num(host_cores() as f64)),
            (
                "slow",
                traced
                    .map(|r| r.slow_traces.clone())
                    .unwrap_or(Value::Arr(Vec::new())),
            ),
        ]);
        std::fs::write(path, trace_doc.to_json()).expect("writing --trace-out file");
        eprintln!("servebench: wrote {path}");
    }
}

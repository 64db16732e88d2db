//! The `serve_mixed` workload: an in-process `prdnn-serve` (default
//! `ServerConfig`) holding the Task 2 digit model and the collision-avoidance
//! model, driven by two closed-loop client connections.
//!
//! Each connection sends a fixed, seeded sequence of reads: unique-payload
//! `eval` on the digit model (the cache-miss path), hot-pool `eval` (the
//! cache-hit path) and `lin_regions` of unique φ8 slices on the
//! collision-avoidance model.  Connection 0 also submits a 16-point repair
//! of the digit model `@latest` every [`READS_PER_REPAIR`] of its reads and
//! checks the job's status until it settles, so repair turnaround is
//! observed to within one status round trip, not by `wait_for_job`'s
//! backoff.  Writes are paced by read count: a faster repair shortens its
//! turnaround but does not change how many versions the reads see
//! published, so every run performs the same operations.  While a repair
//! is in flight both connections hold their reads: on a 2-vCPU host,
//! turnaround measured under concurrent reads followed the host's load
//! swings too closely to compare runs (its spread over ten runs exceeded
//! 25% of the median).  Reads still see every publish, between requests.
//! A connection that finishes its sequence keeps sending unmeasured filler
//! reads until the other one finishes, so every measured read runs under
//! two connections.
//!
//! Every reply is checked after the run: an eval reply must equal, bit for
//! bit, the direct `forward` on some digit-model version current while the
//! request was in flight, a `lin_regions` reply the direct
//! `prdnn_syrenn::lin_regions` call, and every published repair must
//! satisfy its spec.

use crate::gate;
use crate::library::{self, error_kind, record_repair_stats, MARGIN};
use crate::report::{check_failed, Record};
use crate::seq::{self, streams, Read, ReadKind};
use crate::stats::{self, Stat};
use crate::trace::Tracer;
use prdnn_bench::scale::{Scale, Task2Params};
use prdnn_bench::task2::{self, Task2Setup};
use prdnn_core::{repair_points_ddnn, OutputPolytope, PointSpec, RepairConfig, RepairError};
use prdnn_datasets::digits;
use prdnn_serve::client::{Client, ClientError};
use prdnn_serve::protocol::{JobState, ModelRef};
use prdnn_serve::server::{serve, ServerConfig, ServerHandle};
use prdnn_serve::ModelStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Store name of the digit model.
const DIGITS: &str = "digits";
/// Store name and generator spec of the collision-avoidance model.
const ACAS: (&str, &str) = ("acas", "acas:1121:1500");
/// The repaired layer of the digit model (600 parameters).
const REPAIR_LAYER: usize = 1;
/// Points per repair spec.
const REPAIR_POINTS: usize = 16;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Reads per connection per second of `--seconds` (calibrated on a
/// 2-vCPU host).
const READS_PER_S: f64 = 1800.0;
/// Connection 0 submits a repair every this many of its reads.
const READS_PER_REPAIR: usize = 120;
/// Read mix: unique eval, hot-pool eval, lin_regions.
const READ_WEIGHTS: [u32; 3] = [2, 2, 1];
/// Seed of the write script (the repair specs), fixed across runs.
const WRITE_SCRIPT_SEED: u64 = 20210425;
/// Bound on waiting for a repair to settle before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One read as sent and answered.
struct ReadLog {
    read: Read,
    ms: f64,
    /// Digit-model `@latest` before the send and after the reply.
    versions: (u32, u32),
    /// The reply's [`gate::Digest`], or the failure kind.
    reply: Result<u64, String>,
}

/// One repair as submitted and settled.
struct RepairLog {
    spec: PointSpec,
    /// Submit to settled-status-observed, in ms.
    turnaround_ms: f64,
    outcome: Result<JobState, String>,
}

/// What one connection saw.
struct ConnLog {
    reads: Vec<ReadLog>,
    repairs: Vec<RepairLog>,
    elapsed: Duration,
}

/// The failure kind of a client error.
fn client_error_kind(e: &ClientError) -> String {
    match e.kind() {
        Some(kind) => format!("{kind:?}"),
        None => match e {
            ClientError::Transport(_) => "Transport".to_owned(),
            _ => "UnexpectedResponse".to_owned(),
        },
    }
}

/// The failure kind of a failed job: the `RepairError` variant whose
/// message the server relayed.
fn job_failure_kind(message: &str) -> String {
    let variants = [
        RepairError::Infeasible,
        RepairError::LpIterationLimit,
        RepairError::NotPiecewiseLinear,
        RepairError::EmptySpec,
    ];
    variants
        .iter()
        .find(|v| message == v.to_string())
        .map_or_else(|| "JobFailed".to_owned(), error_kind)
}

/// The digit model's `@latest` version number.
fn latest(store: &ModelStore) -> u32 {
    store
        .resolve(&ModelRef::latest(DIGITS))
        .map_or(0, |v| v.version)
}

/// A digit-model repair spec: [`REPAIR_POINTS`] distinct foggy images the
/// loaded model misclassifies, with their true labels.
fn repair_spec(task: &Task2Setup, rng: &mut StdRng, n_lines: usize) -> PointSpec {
    let mut lines: Vec<usize> = (0..n_lines).collect();
    lines.shuffle(rng);
    let mut spec = PointSpec::new();
    for &i in &lines[..REPAIR_POINTS] {
        let line = &task.lines[i];
        spec.push(
            line.foggy.clone(),
            OutputPolytope::classification(line.label, digits::NUM_CLASSES, MARGIN),
        );
    }
    spec
}

/// Sends one read; returns its latency and the reply's digest.
fn send(
    client: &mut Client,
    seed: u64,
    read: Read,
    base: &[Vec<f64>],
) -> (f64, Result<u64, String>) {
    match read.kind {
        ReadKind::Eval | ReadKind::EvalCached => {
            let payload = seq::eval_payload(seed, read, base);
            let start = Instant::now();
            let reply = client.eval(&ModelRef::latest(DIGITS), payload, None);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (
                ms,
                reply
                    .map(|y| gate::Digest::outputs(&y))
                    .map_err(|e| client_error_kind(&e)),
            )
        }
        ReadKind::LinRegions => {
            let slice = seq::phi8_slice(seed, read);
            let start = Instant::now();
            let reply = client.lin_regions(&ModelRef::latest(ACAS.0), vec![slice], None);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (
                ms,
                reply
                    .map(|r| gate::Digest::wire_regions(&r))
                    .map_err(|e| client_error_kind(&e)),
            )
        }
    }
}

/// Submits a repair of the digit model `@latest` and checks its status
/// until it settles.  Turnaround runs from the submit to the status check
/// that first sees the job settled.
fn repair(client: &mut Client, spec: PointSpec) -> RepairLog {
    let submitted = Instant::now();
    let job = client.repair(
        &ModelRef::latest(DIGITS),
        REPAIR_LAYER,
        spec.clone(),
        RepairConfig::default(),
    );
    let outcome = match job {
        Ok(job) => loop {
            match client.job_status(job) {
                Ok(JobState::Queued | JobState::Running) if submitted.elapsed() < JOB_TIMEOUT => {}
                Ok(JobState::Queued | JobState::Running) => break Err("Timeout".to_owned()),
                Ok(state) => break Ok(state),
                Err(e) => break Err(client_error_kind(&e)),
            }
        },
        Err(e) => Err(client_error_kind(&e)),
    };
    RepairLog {
        spec,
        turnaround_ms: submitted.elapsed().as_secs_f64() * 1e3,
        outcome,
    }
}

/// What the connections share: the start line, how many of them are still
/// sending measured reads, and the gate that keeps reads out while a
/// repair is in flight.
struct Load {
    start: Barrier,
    active: AtomicUsize,
    quiet: Quiet,
}

/// Keeps reads out while a repair is in flight: each read registers for
/// the length of its request; the writer raises a flag that holds new
/// reads, then waits until the registered ones are done.
#[derive(Default)]
struct Quiet {
    state: Mutex<QuietState>,
    changed: Condvar,
}

#[derive(Default)]
struct QuietState {
    writing: bool,
    reading: usize,
}

impl Quiet {
    fn lock(&self) -> MutexGuard<'_, QuietState> {
        self.state
            .lock()
            .expect("no connection panics holding the gate")
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, QuietState>) -> MutexGuard<'a, QuietState> {
        self.changed
            .wait(guard)
            .expect("no connection panics holding the gate")
    }

    /// Runs the read `f` once no repair is in flight.
    fn read<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut state = self.lock();
        while state.writing {
            state = self.wait(state);
        }
        state.reading += 1;
        drop(state);
        let out = f();
        let mut state = self.lock();
        state.reading -= 1;
        if state.writing && state.reading == 0 {
            self.changed.notify_all();
        }
        out
    }

    /// Runs the repair `f` with every read held.
    fn write<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut state = self.lock();
        state.writing = true;
        while state.reading > 0 {
            state = self.wait(state);
        }
        drop(state);
        let out = f();
        self.lock().writing = false;
        self.changed.notify_all();
        out
    }
}

impl Load {
    /// Sends one read once no repair is in flight.
    fn send(
        &self,
        client: &mut Client,
        seed: u64,
        read: Read,
        base: &[Vec<f64>],
    ) -> (f64, Result<u64, String>) {
        self.quiet.read(|| send(client, seed, read, base))
    }
}

/// The inputs of one connection.
struct ConnPlan {
    reads: Vec<Read>,
    /// Payload id of the first unmeasured filler read, clear of every
    /// measured read's.
    first_filler: u64,
    /// Repair specs, submitted one per [`READS_PER_REPAIR`] reads.
    repairs: Vec<PointSpec>,
}

/// Runs one connection's plan to the end.
fn drive(
    addr: std::net::SocketAddr,
    store: &ModelStore,
    seed: u64,
    plan: ConnPlan,
    base: &[Vec<f64>],
    load: &Load,
    tracer: &mut Tracer,
) -> ConnLog {
    let mut client = Client::connect(addr).expect("connect to the in-process server");
    let mut reads = Vec::with_capacity(plan.reads.len());
    let mut repairs = Vec::new();
    let mut specs = plan.repairs.into_iter();
    load.start.wait();
    let began = Instant::now();
    for (i, &read) in plan.reads.iter().enumerate() {
        if i > 0 && i % READS_PER_REPAIR == 0 {
            if let Some(spec) = specs.next() {
                repairs.push(load.quiet.write(|| repair(&mut client, spec)));
            }
        }
        let before = latest(store);
        let t0 = Instant::now();
        let (ms, reply) = load.send(&mut client, seed, read, base);
        let after = latest(store);
        tracer.record(
            match read.kind {
                ReadKind::LinRegions => "client.lin_regions",
                _ => "client.eval",
            },
            read.item,
            None,
            t0,
            Duration::from_secs_f64(ms / 1e3),
        );
        reads.push(ReadLog {
            read,
            ms,
            versions: (before, after),
            reply,
        });
    }
    let elapsed = began.elapsed();
    // Keep the load at two connections until the other one is done too:
    // unmeasured filler reads of the same mix, with payloads of their own.
    load.active.fetch_sub(1, Ordering::SeqCst);
    for (k, read) in plan.reads.iter().cycle().enumerate() {
        if load.active.load(Ordering::SeqCst) == 0 {
            break;
        }
        let filler = Read {
            item: match read.kind {
                ReadKind::EvalCached => read.item,
                _ => plan.first_filler + k as u64,
            },
            ..*read
        };
        let _ = load.send(&mut client, seed, filler, base);
    }
    ConnLog {
        reads,
        repairs,
        elapsed,
    }
}

/// A running server with both models loaded, plus the benchmark's own
/// copy of the Task 2 inputs (the served digit model is the Task 2
/// network: same generator, seed and sizes).
struct Setup {
    handle: ServerHandle,
    task: Task2Setup,
}

fn start_server() -> Setup {
    let handle = serve(ServerConfig::default()).expect("bind the in-process server");
    let params = Task2Params::for_scale(Scale::Small);
    let digits_spec = format!(
        "digits:{}:{}:{}",
        params.seed, params.train_size, params.test_size
    );
    let mut client = Client::connect(handle.addr()).expect("connect for set-up");
    client
        .load_generator(DIGITS, &digits_spec)
        .expect("load the digit model");
    client
        .load_generator(ACAS.0, ACAS.1)
        .expect("load the collision-avoidance model");
    let task = task2::setup(&params);
    Setup { handle, task }
}

fn stop_server(handle: ServerHandle) {
    handle.shutdown();
    handle.join().expect("server drained");
}

/// Parsed `metrics` exposition: sample name (with labels) → value.
struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_owned(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// The nearest-rank median of histogram `family{labels}` from its
    /// cumulative buckets (the bucket's upper bound, ×`scale`), with the
    /// histogram's count.
    fn median(&self, family: &str, labels: &str, scale: f64) -> Stat {
        let prefix = format!("{family}_bucket{{");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, &cum)| {
                let inner = k.strip_prefix(&prefix)?.strip_suffix('}')?;
                let (rest, le) = match inner.rsplit_once(",le=\"") {
                    Some((rest, le)) => (rest, le),
                    None => ("", inner.strip_prefix("le=\"")?),
                };
                (rest == labels).then_some((le.trim_end_matches('"').parse().ok()?, cum))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let count = buckets.last().map_or(0.0, |b| b.1);
        let rank = (count / 2.0).ceil().max(1.0);
        let value = buckets
            .iter()
            .find(|&&(le, cum)| cum >= rank && le.is_finite())
            .map_or(0.0, |&(le, _)| le * scale);
        Stat {
            value,
            n: count as usize,
        }
    }
}

/// The `serve_mixed` workload.
pub fn serve_mixed(seed: u64, seconds: u64, rec: &mut Record, tracer: &mut Tracer) {
    // Each set-up starts a fresh server; the previous one is stopped
    // outside the timed interval, and only the last stays up for the run.
    let mut setup: Option<Setup> = None;
    for _ in 0..library::SETUP_REPEATS {
        if let Some(previous) = setup.take() {
            stop_server(previous.handle);
        }
        let start = Instant::now();
        setup = Some(start_server());
        rec.setup_s.push(start.elapsed().as_secs_f64());
    }
    let Setup { handle, task } = setup.expect("at least one set-up");
    let store = handle.store();
    let addr = handle.addr();
    let original = store
        .resolve(&ModelRef::version(DIGITS, 1))
        .expect("digit model loaded");
    let acas = store
        .resolve(&ModelRef::version(ACAS.0, 1))
        .expect("collision-avoidance model loaded");
    assert!(
        original.ddnn.activation_network() == &task.network,
        "the served digit model must be the Task 2 network"
    );
    let n_lines = library::misclassified_lines(&task);
    let base = [
        task.drawdown_set.inputs.clone(),
        task.generalization_set.inputs.clone(),
    ]
    .concat();

    // Inputs: per-connection read sequences and connection 0's repairs.
    // The repairs stack into one chain of versions, so their turnaround
    // and quality depend on the whole chain; they are a fixed script,
    // drawn from a constant stream, so that runs of different seeds
    // compare.  The seed draws every read.
    let n_reads = library::op_count(seconds, READS_PER_S);
    let mut spec_rng = seq::stream(WRITE_SCRIPT_SEED, streams::SPECS);
    let plans: Vec<ConnPlan> = (0..CONNECTIONS)
        .map(|c| {
            let reads = seq::reads(
                seq::stream(seed, streams::READS + c as u64),
                n_reads,
                READ_WEIGHTS,
                (c as u64) << 32,
            );
            let repairs = if c == 0 {
                (1..n_reads.div_ceil(READS_PER_REPAIR))
                    .map(|_| repair_spec(&task, &mut spec_rng, n_lines))
                    .collect()
            } else {
                Vec::new()
            };
            ConnPlan {
                reads,
                first_filler: (1 << 37) + ((c as u64) << 32),
                repairs,
            }
        })
        .collect();

    // Warm-up, untimed, on a connection of its own: one repair, then one
    // read of each kind.
    {
        let mut client = Client::connect(addr).expect("connect for warm-up");
        let mut warm_rng = seq::stream(WRITE_SCRIPT_SEED, streams::WARMUP);
        repair(&mut client, repair_spec(&task, &mut warm_rng, n_lines));
        for (kind, item) in [
            (ReadKind::Eval, library::WARMUP_OP),
            (ReadKind::EvalCached, 0),
            (ReadKind::LinRegions, library::WARMUP_OP),
        ] {
            let _ = send(&mut client, seed, Read { kind, item }, &base);
        }
    }
    let first_version = latest(&store);

    let load = Load {
        start: Barrier::new(CONNECTIONS),
        active: AtomicUsize::new(CONNECTIONS),
        quiet: Quiet::default(),
    };
    let mut forks: Vec<Tracer> = (0..CONNECTIONS as u64).map(|c| tracer.fork(c)).collect();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let workers: Vec<_> = plans
            .into_iter()
            .zip(forks.iter_mut())
            .map(|(plan, fork)| {
                let (store, base, load) = (&store, &base, &load);
                s.spawn(move || drive(addr, store, seed, plan, base, load, fork))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client connection panicked"))
            .collect()
    });
    for fork in forks {
        tracer.merge(fork);
    }

    if tracer.enabled() {
        scrape_serve_layers(addr, rec, &logs);
    }
    stop_server(handle);

    check_reads(seed, rec, tracer, &store, &acas.ddnn, &logs, &base);
    check_repairs(rec, tracer, &store, &task, first_version, &logs);
    let elapsed = logs.iter().map(|l| l.elapsed).max().unwrap_or_default();
    let reads: usize = logs.iter().map(|l| l.reads.len()).sum();
    rec.layer_fixed.insert(
        "serve.reads_per_s",
        Stat {
            value: reads as f64 / elapsed.as_secs_f64(),
            n: reads,
        },
    );
}

/// Checks every read reply and records its latency and outcome.
fn check_reads(
    seed: u64,
    rec: &mut Record,
    tracer: &mut Tracer,
    store: &ModelStore,
    acas: &prdnn_core::DecoupledNetwork,
    logs: &[ConnLog],
    base: &[Vec<f64>],
) {
    for log in logs.iter().flat_map(|l| &l.reads) {
        rec.read(log.read.kind, log.ms);
        let reply = match &log.reply {
            Ok(digest) => *digest,
            Err(kind) => {
                rec.failed(kind.clone());
                continue;
            }
        };
        let ok = match log.read.kind {
            ReadKind::Eval | ReadKind::EvalCached => {
                let payload = seq::eval_payload(seed, log.read, base);
                (log.versions.0..=log.versions.1).any(|v| {
                    let Ok(version) = store.resolve(&ModelRef::version(DIGITS, v)) else {
                        return false;
                    };
                    let (direct, ms, _) = tracer.time("nn.forward", log.read.item, None, || {
                        payload
                            .iter()
                            .map(|x| version.ddnn.forward(x))
                            .collect::<Vec<_>>()
                    });
                    rec.sample("nn.forward_ms", ms);
                    gate::Digest::outputs(&direct) == reply
                })
            }
            ReadKind::LinRegions => {
                let slice = seq::phi8_slice(seed, log.read);
                let (direct, ms, _) =
                    tracer.time("syrenn.lin_regions", log.read.item, None, || {
                        prdnn_syrenn::lin_regions(acas.activation_network(), &slice)
                    });
                rec.sample("syrenn.lin_regions_ms", ms);
                match direct {
                    Ok(direct) => {
                        rec.sample("syrenn.regions", direct.len() as f64);
                        gate::Digest::regions(&direct) == reply
                    }
                    Err(_) => false,
                }
            }
        };
        if ok {
            rec.ok();
        } else {
            rec.failed(check_failed(match log.read.kind {
                ReadKind::LinRegions => "lin_regions",
                _ => "eval",
            }));
        }
    }
    if tracer.enabled() {
        let mut evals: Vec<f64> = Vec::new();
        for log in logs.iter().flat_map(|l| &l.reads) {
            if log.read.kind == ReadKind::Eval && log.reply.is_ok() {
                evals.push(log.ms);
            }
        }
        for (metric, q) in [("serve.eval_p90_ms", 0.9), ("serve.eval_p99_ms", 0.99)] {
            if let Ok(s) = stats::percentile(&evals, q) {
                rec.layer_fixed.insert(metric, s);
            }
        }
    }
}

/// Checks every published repair and records its turnaround, outcome and
/// quality.  Repairs stack — each publishes the version after the one
/// before it — so drawdown and generalization are measured against the
/// loaded model: what a client of `@latest` has lost and gained since.
fn check_repairs(
    rec: &mut Record,
    tracer: &mut Tracer,
    store: &ModelStore,
    task: &Task2Setup,
    first_version: u32,
    logs: &[ConnLog],
) {
    let loaded = store
        .resolve(&ModelRef::version(DIGITS, 1))
        .expect("digit model loaded");
    let clean_pct = library::accuracy_pct(&loaded.ddnn, &task.drawdown_set);
    let fog_pct = library::accuracy_pct(&loaded.ddnn, &task.generalization_set);
    let mut expected = first_version + 1;
    for (k, log) in logs.iter().flat_map(|l| &l.repairs).enumerate() {
        rec.repair_ms.push(log.turnaround_ms);
        let version = match &log.outcome {
            Ok(JobState::Done { version, .. }) => *version,
            Ok(JobState::Failed { message }) => {
                rec.failed(job_failure_kind(message));
                continue;
            }
            Ok(_) => unreachable!("only settled states are logged"),
            Err(kind) => {
                rec.failed(kind.clone());
                continue;
            }
        };
        let (Ok(child), Ok(parent)) = (
            store.resolve(&ModelRef::version(DIGITS, version)),
            store.resolve(&ModelRef::version(DIGITS, version - 1)),
        ) else {
            rec.failed(check_failed("repair"));
            continue;
        };
        let holds = gate::point_repair_holds(&child.ddnn, &log.spec);
        if !holds {
            rec.violation(gate::point_violation(&child.ddnn, &log.spec));
        }
        let mut ok = version == expected && holds;
        expected = version + 1;
        if tracer.enabled() {
            // Re-run the repair through the library on the same parent:
            // its phase split stands in for the server's opaque solve, and
            // its result must be the version the server published.
            let (direct, ms, span) = tracer.time("core.repair_points", k as u64, None, || {
                repair_points_ddnn(
                    &parent.ddnn,
                    REPAIR_LAYER,
                    &log.spec,
                    &RepairConfig::default(),
                )
            });
            match direct {
                Ok(outcome) => {
                    tracer.phases(
                        span,
                        k as u64,
                        &[
                            ("core.jacobians", outcome.stats.timing.jacobians),
                            ("lp.solve", outcome.stats.timing.lp),
                            ("core.encode", outcome.stats.timing.other),
                        ],
                    );
                    record_repair_stats(rec, &outcome.stats, ms);
                    ok &= outcome.repaired.value_network() == child.ddnn.value_network();
                    let pairs: Vec<(&[f64], &[f64])> = log
                        .spec
                        .points
                        .iter()
                        .map(|x| (x.as_slice(), x.as_slice()))
                        .collect();
                    let (_, direct_ms, _) =
                        tracer.time("core.jacobian_direct", k as u64, Some(span), || {
                            parent.ddnn.value_param_jacobian_batch_in(
                                prdnn_par::global(),
                                REPAIR_LAYER,
                                &pairs,
                            )
                        });
                    rec.sample("core.jacobian_direct_ms", direct_ms);
                }
                Err(_) => ok = false,
            }
        }
        if ok {
            rec.ok();
            rec.drawdown_pct
                .push(clean_pct - library::accuracy_pct(&child.ddnn, &task.drawdown_set));
            rec.generalization_pct
                .push(library::accuracy_pct(&child.ddnn, &task.generalization_set) - fog_pct);
        } else {
            rec.failed(check_failed("repair"));
        }
    }
}

/// Scrapes the server's stage histograms and cache counters into the
/// per-layer metrics.
fn scrape_serve_layers(addr: std::net::SocketAddr, rec: &mut Record, logs: &[ConnLog]) {
    let mut client = Client::connect(addr).expect("connect for the scrape");
    let scrape = Scrape::parse(&client.metrics().expect("metrics scrape"));
    let stats = client.stats().expect("stats");
    let ms = 1e3;
    let fixed = &mut rec.layer_fixed;
    fixed.insert(
        "serve.batch_queue_wait_ms",
        scrape.median("prdnn_batch_queue_wait_seconds", "", ms),
    );
    fixed.insert(
        "serve.batch_exec_ms",
        scrape.median("prdnn_batch_exec_seconds", "", ms),
    );
    fixed.insert("serve.gulp_size", scrape.median("prdnn_gulp_size", "", 1.0));
    fixed.insert(
        "serve.cache_hit_ms",
        scrape.median("prdnn_cache_service_seconds", "result=\"hit\"", ms),
    );
    fixed.insert(
        "serve.cache_miss_ms",
        scrape.median("prdnn_cache_service_seconds", "result=\"miss\"", ms),
    );
    fixed.insert(
        "serve.job_queue_wait_ms",
        scrape.median("prdnn_job_queue_wait_seconds", "", ms),
    );
    fixed.insert(
        "serve.repair_exec_ms",
        scrape.median("prdnn_lp_solve_seconds", "", ms),
    );
    let lookups = stats.cache_hits + stats.cache_misses;
    fixed.insert(
        "serve.cache_hit_frac",
        Stat {
            value: stats.cache_hits as f64 / lookups.max(1) as f64,
            n: lookups as usize,
        },
    );
    // Wire and protocol time: client-side eval median minus the server's
    // own residence median.
    let evals: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.reads)
        .filter(|r| r.read.kind != ReadKind::LinRegions && r.reply.is_ok())
        .map(|r| r.ms)
        .collect();
    if let Ok(client_p50) = stats::median(&evals) {
        let server_p50 = scrape.median("prdnn_request_seconds", "kind=\"eval\"", ms);
        fixed.insert(
            "serve.wire_ms",
            Stat {
                value: client_p50.value - server_p50.value,
                n: client_p50.n,
            },
        );
    }
}

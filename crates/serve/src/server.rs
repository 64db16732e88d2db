//! The multi-threaded TCP server.
//!
//! One accept loop, one handler thread per connection, one batch worker,
//! and a configurable number of repair workers, all sharing a single
//! `prdnn-par` pool — the same pool the library hot paths use, so server
//! parallelism and kernel parallelism do not fight over cores.
//!
//! Admission control:
//!
//! * at most [`ServerConfig::max_connections`] concurrent connections
//!   (excess connections get an `overloaded` error frame and are closed);
//! * the batch queue and repair FIFO are bounded ([`ServerConfig`] caps);
//! * every `eval`/`lin_regions` request carries a deadline (client-supplied
//!   or [`ServerConfig::default_deadline_ms`]) enforced both while queued
//!   and while the handler waits for its reply.
//!
//! Shutdown (a `shutdown` request or [`ServerHandle::shutdown`]) is a
//! graceful drain: the accept loop stops, queued batches and repairs run
//! to completion (repairs still publish their versions), and only then are
//! lingering connections closed.

use crate::batcher::{Batcher, Call, ReplyData};
use crate::cache::{ResultCache, DEFAULT_CACHE_BYTES};
use crate::jobs::JobQueue;
use crate::metrics::{label_index, REQUEST_KINDS};
use crate::protocol::{
    read_frame_text, DecodeError, ErrorKind, FrameError, RegionWire, Request, Response,
    ServerStats, VersionInfo,
};
use crate::store::{ModelStore, ModelVersion, StoreError};
use crate::telemetry::{self, Outcome, Stage, Telemetry};
use prdnn_core::DecoupledNetwork;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Pool parallelism (`None` = `PRDNN_THREADS` / available cores).
    pub threads: Option<usize>,
    /// Concurrent connection cap.
    pub max_connections: usize,
    /// Pending-item cap of the eval/lin_regions batch queue.
    pub batch_queue_cap: usize,
    /// Pending-job cap of the repair FIFO.
    pub job_queue_cap: usize,
    /// Number of repair worker threads.
    pub repair_workers: usize,
    /// Deadline applied to `eval`/`lin_regions` requests that do not set
    /// their own, in milliseconds.
    pub default_deadline_ms: u64,
    /// Durable store directory.  `None` keeps the in-memory version log
    /// (versions live exactly as long as the process); `Some(dir)` opens a
    /// [`crate::wal::WalLog`] there — recovery runs **before** the accept
    /// loop starts, so the first client already sees every version that was
    /// acknowledged before the last shutdown or crash.
    pub store_dir: Option<std::path::PathBuf>,
    /// Snapshot/compact the WAL after this many publishes (`0` = never
    /// snapshot; the WAL grows without bound).  Ignored without
    /// `store_dir`.
    pub snapshot_every: u64,
    /// Per-connection socket read/write timeout in milliseconds (`0` =
    /// none).  A peer that stalls mid-frame longer than this is counted in
    /// [`ServerStats::io_timeouts`] and its connection-cap slot is freed —
    /// the slowloris defense.
    pub io_timeout_ms: u64,
    /// Deterministic WAL fault-injection spec (see
    /// [`crate::faults::FaultInjector::parse`]); `None` disables injection.
    /// Ignored without `store_dir`.  Test/chaos tooling only.
    pub wal_fault_spec: Option<String>,
    /// Byte budget of the per-version result cache (`0` disables caching).
    /// Payload bytes only; see [`crate::cache`] for the accounting.
    pub cache_bytes: usize,
    /// Slow-request threshold in milliseconds: a request whose server-side
    /// residence crosses this promotes its full span chain to the retained
    /// slow-log served by the `trace` request.  `0` disables span tracing
    /// entirely (histograms stay on); see [`crate::telemetry`].
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: None,
            max_connections: 64,
            batch_queue_cap: 256,
            job_queue_cap: 64,
            repair_workers: 1,
            default_deadline_ms: 10_000,
            store_dir: None,
            snapshot_every: 64,
            io_timeout_ms: 30_000,
            wal_fault_spec: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
            slow_ms: 400,
        }
    }
}

/// Retry hints (in ms) attached to `overloaded` responses, by shed point.
/// Batch queues turn over in one gulp; repair queues take whole solves;
/// connection slots free as fast as requests finish.
const RETRY_AFTER_BATCH_MS: u64 = 25;
const RETRY_AFTER_JOBS_MS: u64 = 250;
const RETRY_AFTER_CONN_MS: u64 = 100;

struct Shared {
    config: ServerConfig,
    store: Arc<ModelStore>,
    batcher: Arc<Batcher>,
    cache: Arc<ResultCache>,
    jobs: Arc<JobQueue>,
    telemetry: Arc<Telemetry>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    next_conn_id: AtomicU64,
    /// Server-assigned request ids start at 1 (0 means "untracked").
    next_request_id: AtomicU64,
    /// Stream clones of live connections, so shutdown can unblock their
    /// handler threads' reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handler_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Lock poisoning on the connection bookkeeping recovers the guard: the
/// maps stay structurally valid across a handler panic (inserts/removes
/// are atomic at `HashMap` granularity), and wedging the accept loop over
/// one crashed handler would turn a bug into an outage.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Snapshots the counter block, sampling the values other structures
    /// own: queue depth and in-flight repairs, cache residency, and the
    /// version log's totals.
    fn stats(&self) -> ServerStats {
        let mut stats = self.telemetry.counters.snapshot();
        stats.repair_queue_depth = self.jobs.queue_depth();
        stats.repair_in_flight = self.jobs.in_flight();
        stats.cache_bytes = self.cache.bytes();
        stats.cache_entries = self.cache.entries();
        stats.set_log_stats(self.store.log_stats());
        stats
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] and/or [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    batch_worker: Option<JoinHandle<()>>,
    job_workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's model store (for post-drain inspection in tests and
    /// embedded use).
    pub fn store(&self) -> Arc<ModelStore> {
        Arc::clone(&self.shared.store)
    }

    /// Triggers graceful shutdown without waiting for it.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for shutdown to be triggered (by a `shutdown` request or
    /// [`Self::shutdown`]), then drains: queued batches and repairs run to
    /// completion, lingering connections are closed, and every thread is
    /// joined.
    ///
    /// # Errors
    ///
    /// Returns an error if any server thread panicked.
    pub fn join(mut self) -> io::Result<()> {
        let mut panicked = false;
        if let Some(t) = self.accept_thread.take() {
            panicked |= t.join().is_err();
        }
        // Stop accepting work and drain what was already accepted: the
        // batch worker answers every queued item, the repair workers run
        // (and publish) every queued job.
        self.shared.batcher.shutdown();
        self.shared.jobs.shutdown();
        if let Some(t) = self.batch_worker.take() {
            panicked |= t.join().is_err();
        }
        for t in self.job_workers.drain(..) {
            panicked |= t.join().is_err();
        }
        // Every queued repair has now published; flush the version log so
        // the drain leaves nothing buffered.
        if let Err(e) = self.shared.store.flush_log() {
            eprintln!("prdnn-serve: version-log flush on drain failed: {e}");
        }
        // Only now unblock connection handlers still waiting for frames.
        for (_, conn) in lock_recover(&self.shared.conns).drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *lock_recover(&self.shared.handler_threads));
        for t in handlers {
            panicked |= t.join().is_err();
        }
        if panicked {
            return Err(io::Error::other("a server thread panicked"));
        }
        Ok(())
    }
}

/// Starts the server and returns its handle.
///
/// # Errors
///
/// Propagates the bind failure, if any.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool = Arc::new(prdnn_par::pool_for(config.threads));
    let telemetry = Telemetry::new(config.slow_ms);
    // Recovery happens here, before the accept loop exists: the first
    // client can already resolve every version acknowledged before the
    // last shutdown or crash.
    let store = match &config.store_dir {
        None => Arc::new(ModelStore::new()),
        Some(dir) => {
            let faults = match &config.wal_fault_spec {
                None => crate::faults::FaultInjector::none(),
                Some(spec) => {
                    let injector =
                        crate::faults::FaultInjector::parse(spec).map_err(io::Error::other)?;
                    if injector.is_active() {
                        eprintln!("prdnn-serve: WAL fault injection active: {spec}");
                    }
                    injector
                }
            };
            let wal = crate::wal::WalLog::open_with_faults(dir, config.snapshot_every, faults)
                .map_err(|e| io::Error::other(e.to_string()))?;
            wal.set_telemetry(Arc::clone(&telemetry));
            let report = wal.recovery_report();
            if report.versions > 0 || report.torn_tail_bytes > 0 {
                eprintln!(
                    "prdnn-serve: recovered {} version(s) of {} model(s) from {} \
                     ({} from the WAL tail, {} torn byte(s) dropped)",
                    report.versions,
                    report.models,
                    dir.display(),
                    report.wal_records,
                    report.torn_tail_bytes
                );
            }
            Arc::new(ModelStore::with_log(Arc::new(wal)))
        }
    };
    let cache = Arc::new(ResultCache::new(config.cache_bytes));
    let batcher = Arc::new(Batcher::new(
        Arc::clone(&pool),
        config.batch_queue_cap,
        Arc::clone(&cache),
        Arc::clone(&telemetry),
    ));
    let jobs = Arc::new(JobQueue::new(
        Arc::clone(&store),
        Arc::clone(&pool),
        config.job_queue_cap,
        Arc::clone(&telemetry),
    ));
    let repair_workers = config.repair_workers.max(1);
    let shared = Arc::new(Shared {
        config,
        store,
        batcher: Arc::clone(&batcher),
        cache,
        jobs: Arc::clone(&jobs),
        telemetry,
        shutdown: AtomicBool::new(false),
        addr,
        next_conn_id: AtomicU64::new(0),
        next_request_id: AtomicU64::new(1),
        conns: Mutex::new(HashMap::new()),
        handler_threads: Mutex::new(Vec::new()),
    });

    let batch_worker = {
        let batcher = Arc::clone(&batcher);
        thread::Builder::new()
            .name("prdnn-serve-batch".to_owned())
            .spawn(move || batcher.worker_loop())?
    };
    let job_workers = (0..repair_workers)
        .map(|i| {
            let jobs = Arc::clone(&jobs);
            thread::Builder::new()
                .name(format!("prdnn-serve-repair-{i}"))
                .spawn(move || jobs.worker_loop())
        })
        .collect::<io::Result<Vec<_>>>()?;
    let accept_thread = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("prdnn-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))?
    };

    Ok(ServerHandle {
        shared,
        accept_thread: Some(accept_thread),
        batch_worker: Some(batch_worker),
        job_workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    // Transient accept() failures (ECONNABORTED, and EMFILE/ENFILE under fd
    // exhaustion) must neither kill the accept thread nor busy-spin it:
    // log, back off exponentially (10ms..1s), and keep accepting.
    let mut consecutive_errors = 0u32;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                stream
            }
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if consecutive_errors == 0 || consecutive_errors.is_multiple_of(50) {
                    eprintln!(
                        "prdnn-serve: accept failed ({e}); backing off \
                         ({consecutive_errors} consecutive failures)"
                    );
                }
                let backoff = Duration::from_millis(10u64 << consecutive_errors.min(7));
                consecutive_errors = consecutive_errors.saturating_add(1);
                thread::sleep(backoff);
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wakeup connection (or a late client) during drain.
            let mut s = stream;
            let _ =
                Response::error(ErrorKind::ShuttingDown, "server is draining").send(&mut s, None);
            return;
        }
        // Admission: cap concurrent connections.  The open-connections
        // gauge doubles as the admission count.
        let counters = &shared.telemetry.counters;
        if counters.open_connections.load(Ordering::SeqCst) >= shared.config.max_connections as u64
        {
            counters.conns_rejected.fetch_add(1, Ordering::Relaxed);
            let mut s = stream;
            let _ = Response::error_retry_after(
                ErrorKind::Overloaded,
                format!(
                    "connection limit ({}) reached",
                    shared.config.max_connections
                ),
                RETRY_AFTER_CONN_MS,
            )
            .send(&mut s, None);
            continue;
        }
        // Replies are request-response frames, never streamed: leaving
        // Nagle on costs a delayed-ACK round (~40ms) per reply, which
        // would dwarf every latency the server actually controls.
        let _ = stream.set_nodelay(true);
        // Slowloris defense: a peer stalled mid-frame past this deadline
        // surfaces as FrameError::TimedOut in the handler, which closes the
        // connection and frees its slot.
        if shared.config.io_timeout_ms > 0 {
            let timeout = Some(Duration::from_millis(shared.config.io_timeout_ms));
            let _ = stream.set_read_timeout(timeout);
            let _ = stream.set_write_timeout(timeout);
        }
        counters.open_connections.fetch_add(1, Ordering::SeqCst);
        counters.conns_opened.fetch_add(1, Ordering::Relaxed);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_recover(&shared.conns).insert(conn_id, clone);
        }
        let handler = {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("prdnn-serve-conn-{conn_id}"))
                .spawn(move || {
                    // The slot bookkeeping must survive a panicking
                    // request handler, or each panic would leak one
                    // connection slot until the cap locks everyone out.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(&shared, stream)
                    }));
                    lock_recover(&shared.conns).remove(&conn_id);
                    let open = &shared.telemetry.counters.open_connections;
                    open.fetch_sub(1, Ordering::SeqCst);
                })
        };
        match handler {
            Ok(handle) => {
                let mut threads = lock_recover(&shared.handler_threads);
                // Reap handles of connections that already hung up, so the
                // list tracks live connections (bounded by the connection
                // cap) rather than every connection ever accepted.
                // Dropping a finished handle just releases it — the thread
                // has already returned.
                threads.retain(|t| !t.is_finished());
                threads.push(handle);
            }
            Err(_) => {
                lock_recover(&shared.conns).remove(&conn_id);
                counters.open_connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let (text, received) = match read_frame_text(&mut stream) {
            Ok(pair) => pair,
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(_)) => return,
            Err(FrameError::TimedOut) => {
                // The peer stalled mid-frame past the socket timeout: shed
                // the connection so its cap slot frees, telling the peer
                // why on the off chance it is still reading.
                let counters = &shared.telemetry.counters;
                counters.io_timeouts.fetch_add(1, Ordering::Relaxed);
                let _ = Response::error(
                    ErrorKind::DeadlineExceeded,
                    "connection idle past the socket timeout mid-frame",
                )
                .send(&mut stream, None);
                return;
            }
            Err(e @ (FrameError::Oversized(_) | FrameError::Empty | FrameError::Malformed(_))) => {
                // Framing is unrecoverable once a bad header/payload is
                // seen: answer once and close.
                let _ = bad_request(e.to_string()).send(&mut stream, None);
                return;
            }
        };
        let decode_start = Instant::now();
        let (request, client_id) = match Request::decode(&text) {
            Ok((request, id)) => (Ok(request), id),
            // Valid JSON that is not a valid request: answer and go on.
            Err(DecodeError::Invalid {
                message,
                request_id,
            }) => (Err(message), request_id),
            Err(DecodeError::Malformed(e)) => {
                let e = FrameError::Malformed(e.to_string());
                let _ = bad_request(e.to_string()).send(&mut stream, None);
                return;
            }
        };
        // Correlation id: a client-set positive integral `request_id` field
        // wins; otherwise the server assigns one.  Either way it is echoed
        // in the response and threads through every span this request
        // records (the thread-local scope covers stages — like WAL appends
        // — reached without an explicit id parameter).
        let request_id =
            client_id.unwrap_or_else(|| shared.next_request_id.fetch_add(1, Ordering::Relaxed));
        let _scope = telemetry::enter_request(request_id);
        let decode_outcome = if request.is_ok() {
            Outcome::Ok
        } else {
            Outcome::Error
        };
        shared
            .telemetry
            .span(request_id, Stage::Decode, decode_start, decode_outcome);
        let (response, kind, close_after) = match request {
            Err(message) => (bad_request(message), "other", false),
            Ok(request) => {
                let kind = request.kind();
                let close_after = request == Request::Shutdown;
                (
                    handle_request(shared, request, received, request_id),
                    kind,
                    close_after,
                )
            }
        };
        let outcome = match &response {
            Response::Error {
                kind: ErrorKind::DeadlineExceeded,
                ..
            } => Outcome::Deadline,
            Response::Error { .. } => Outcome::Error,
            _ => Outcome::Ok,
        };
        let encode_start = Instant::now();
        let sent = response.send(&mut stream, Some(request_id));
        if close_after {
            // Only now: the drain closes every connection, this one
            // included, and must not cut off its acknowledgement.
            shared.begin_shutdown();
        }
        if let Err(e) = sent {
            // A response too large for the frame cap (e.g. lin_regions on
            // a huge model) writes nothing — tell the client why instead
            // of silently hanging up on a valid request.
            if e.kind() == std::io::ErrorKind::InvalidData {
                let _ = Response::error(
                    ErrorKind::Internal,
                    "response exceeds the frame size cap; narrow the request",
                )
                .send(&mut stream, None);
            } else if crate::protocol::is_timeout(&e) {
                // The peer stopped draining our response.
                let counters = &shared.telemetry.counters;
                counters.io_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        shared
            .telemetry
            .span(request_id, Stage::Encode, encode_start, outcome);
        // The Request span covers the whole server-side residence: from
        // the frame's first header byte through the response write.  The
        // eval/lin_regions e2e histograms are recorded at the batcher
        // boundary instead (so their counts match the request counters);
        // other kinds are recorded here, covering every request.
        let total = received.elapsed();
        let kind_index = label_index(&REQUEST_KINDS, kind);
        if kind_index >= 2 {
            shared.telemetry.hist.request_e2e[kind_index].record_duration(total);
        }
        shared
            .telemetry
            .span_at(request_id, Stage::Request, received, total, outcome);
        shared.telemetry.maybe_promote(request_id, kind, total);
        if close_after {
            return;
        }
    }
}

fn store_error(e: &StoreError) -> Response {
    let kind = match e {
        StoreError::UnknownModel(_) => ErrorKind::UnknownModel,
        StoreError::UnknownVersion(..) => ErrorKind::UnknownVersion,
        StoreError::AlreadyExists(_) => ErrorKind::BadRequest,
        // Nothing was published; the store is intact and the operation is
        // safe to retry once storage heals.
        StoreError::Durability(_) => ErrorKind::Unavailable,
    };
    Response::error(kind, e.to_string())
}

fn bad_request(message: impl Into<String>) -> Response {
    Response::error(ErrorKind::BadRequest, message)
}

/// Maps a queue-submission rejection to a response, attaching the shed
/// point's retry hint to `overloaded` rejections.
fn queue_rejection((kind, message): (ErrorKind, String), retry_after_ms: u64) -> Response {
    if kind == ErrorKind::Overloaded {
        Response::error_retry_after(kind, message, retry_after_ms)
    } else {
        Response::error(kind, message)
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    request: Request,
    received: Instant,
    request_id: u64,
) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::LoadGenerator { name, generator } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return shutting_down();
            }
            let net = match prdnn_datasets::registry::build_model(&generator) {
                Ok(net) => net,
                Err(e) => return bad_request(e),
            };
            load_into_store(shared, &name, net, generator)
        }
        Request::LoadNetwork { name, network } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return shutting_down();
            }
            let net = match prdnn_nn::network_from_json(&network) {
                Ok(net) => net,
                Err(e) => return bad_request(e),
            };
            load_into_store(shared, &name, net, "network-json".to_owned())
        }
        Request::Eval {
            model,
            inputs,
            deadline_ms,
        } => {
            let version = match shared.store.resolve(&model) {
                Ok(v) => v,
                Err(e) => return store_error(&e),
            };
            let dim = version.ddnn.input_dim();
            if let Some(bad) = inputs.iter().find(|x| x.len() != dim) {
                return bad_request(format!(
                    "eval: input of dimension {} but {} expects {dim}",
                    bad.len(),
                    model
                ));
            }
            submit_and_wait(
                shared,
                version,
                Call::Eval(inputs),
                deadline_ms,
                received,
                request_id,
            )
        }
        Request::LinRegions {
            model,
            polytopes,
            deadline_ms,
        } => {
            let version = match shared.store.resolve(&model) {
                Ok(v) => v,
                Err(e) => return store_error(&e),
            };
            if !version.ddnn.activation_network().is_piecewise_linear() {
                return bad_request(format!(
                    "lin_regions: {model} uses non-piecewise-linear activations"
                ));
            }
            let dim = version.ddnn.input_dim();
            for polytope in &polytopes {
                if polytope.len() < 2 {
                    return bad_request("lin_regions: polytopes need at least two vertices");
                }
                if let Some(bad) = polytope.iter().find(|v| v.len() != dim) {
                    return bad_request(format!(
                        "lin_regions: vertex of dimension {} but {} expects {dim}",
                        bad.len(),
                        model
                    ));
                }
            }
            submit_and_wait(
                shared,
                version,
                Call::LinRegions(polytopes),
                deadline_ms,
                received,
                request_id,
            )
        }
        Request::Repair {
            model,
            layer,
            spec,
            config,
        } => {
            let version = match shared.store.resolve(&model) {
                Ok(v) => v,
                Err(e) => return store_error(&e),
            };
            // Cheap structural validation up front, so obviously malformed
            // repairs fail at submission instead of as a failed job.
            if spec.is_empty() {
                return bad_request("repair: empty specification");
            }
            if layer >= version.ddnn.num_layers() {
                return bad_request(format!(
                    "repair: layer {layer} out of range ({} layers)",
                    version.ddnn.num_layers()
                ));
            }
            let (in_dim, out_dim) = (version.ddnn.input_dim(), version.ddnn.output_dim());
            if let Some(bad) = spec.points.iter().find(|p| p.len() != in_dim) {
                return bad_request(format!(
                    "repair: point of dimension {} but {} expects {in_dim}",
                    bad.len(),
                    model
                ));
            }
            if let Some(bad) = spec.constraints.iter().find(|c| c.output_dim() != out_dim) {
                return bad_request(format!(
                    "repair: constraint over {} outputs but {} has {out_dim}",
                    bad.output_dim(),
                    model
                ));
            }
            match shared.jobs.submit(version, layer, spec, config, request_id) {
                Ok(job) => Response::JobQueued { job },
                Err(rejection) => queue_rejection(rejection, RETRY_AFTER_JOBS_MS),
            }
        }
        Request::JobStatus { job } => match shared.jobs.lookup(job) {
            crate::jobs::StatusLookup::Found(state) => Response::Job(state),
            crate::jobs::StatusLookup::Evicted => Response::error(
                ErrorKind::UnknownJob,
                format!(
                    "job {job} settled, but its status record has been evicted \
                     (only the most recent settled jobs are retained)"
                ),
            ),
            crate::jobs::StatusLookup::NeverIssued => {
                Response::error(ErrorKind::UnknownJob, format!("job {job} was never issued"))
            }
        },
        Request::GetNetwork { model } => match shared.store.resolve(&model) {
            Err(e) => store_error(&e),
            Ok(v) => Response::Network {
                name: v.name.clone(),
                version: v.version,
                source: v.source.clone(),
                activation: prdnn_nn::network_to_json(v.ddnn.activation_network()),
                value: prdnn_nn::network_to_json(v.ddnn.value_network()),
                provenance: v.provenance.as_ref().map(|p| p.to_json()),
            },
        },
        Request::ListModels => Response::Models(shared.store.list()),
        Request::ListVersions { name } => match shared.store.versions(&name) {
            Err(e) => store_error(&e),
            Ok(versions) => Response::Versions(
                versions
                    .iter()
                    .map(|v| VersionInfo {
                        version: v.version,
                        source: v.source.clone(),
                        spec_hash: v
                            .provenance
                            .as_ref()
                            .map(|p| format!("0x{:016x}", p.spec_hash)),
                        delta_l1: v.provenance.as_ref().map(|p| p.delta_l1),
                        delta_linf: v.provenance.as_ref().map(|p| p.delta_linf),
                        layer: v.provenance.as_ref().map(|p| p.layer),
                    })
                    .collect(),
            ),
        },
        Request::Stats => Response::Stats(shared.stats()),
        Request::Metrics => Response::Metrics {
            text: shared.telemetry.render_prometheus(&shared.stats()),
        },
        Request::Trace => Response::Trace {
            slow: shared.telemetry.slow_traces_json(),
        },
        // The connection handler begins the drain once this reply is sent.
        Request::Shutdown => Response::ShuttingDown,
    }
}

fn shutting_down() -> Response {
    Response::error(
        ErrorKind::ShuttingDown,
        "server is draining; no new work accepted",
    )
}

fn load_into_store(
    shared: &Arc<Shared>,
    name: &str,
    net: prdnn_nn::Network,
    source: String,
) -> Response {
    if name.is_empty() {
        return bad_request("load: empty model name");
    }
    // '@' is the ModelRef version separator: a name containing it would be
    // loadable but never resolvable (`"m@v2"` parses as version 2 of "m").
    if name.contains('@') {
        return bad_request(format!(
            "load: model name {name:?} must not contain '@' (reserved for \"name@vN\" references)"
        ));
    }
    let ddnn = DecoupledNetwork::from_network(&net);
    match shared.store.load(name, ddnn, source) {
        Ok(version) => Response::Loaded {
            name: version.name.clone(),
            version: version.version,
        },
        Err(e) => store_error(&e),
    }
}

fn submit_and_wait(
    shared: &Arc<Shared>,
    version: Arc<ModelVersion>,
    call: Call,
    deadline_ms: Option<u64>,
    received: Instant,
    request_id: u64,
) -> Response {
    let kind_index = label_index(
        &REQUEST_KINDS,
        match call {
            Call::Eval(_) => "eval",
            Call::LinRegions(_) => "lin_regions",
        },
    );
    let budget = Duration::from_millis(
        deadline_ms
            .unwrap_or(shared.config.default_deadline_ms)
            .max(1),
    );
    let deadline = Instant::now() + budget;
    let receiver = match shared.batcher.submit(version, call, deadline, request_id) {
        Ok(rx) => rx,
        Err(rejection) => return queue_rejection(rejection, RETRY_AFTER_BATCH_MS),
    };
    // A small grace period past the deadline: the batcher answers expired
    // items itself, so waiting slightly longer prefers its (more precise)
    // verdict over racing it.  Measured from the deadline, not the budget —
    // time already burned in `submit` (queue lock, key hashing) must not
    // push the wait past the deadline the batcher enforces.
    let wait = deadline.saturating_duration_since(Instant::now()) + Duration::from_millis(50);
    let reply = receiver.recv_timeout(wait);
    // One e2e sample per *accepted* item, whatever the outcome — this is
    // what keeps `prdnn_request_seconds_count{kind="eval"}` equal to
    // `prdnn_eval_requests_total` at quiesce (shed/invalid requests never
    // reach either).
    shared.telemetry.hist.request_e2e[kind_index].record_duration(received.elapsed());
    match reply {
        Ok(Ok(ReplyData::Outputs(outputs))) => Response::Outputs(outputs),
        Ok(Ok(ReplyData::Regions(regions))) => Response::Regions(
            regions
                .into_iter()
                .map(|per_poly| {
                    per_poly
                        .into_iter()
                        .map(|r| RegionWire {
                            vertices: r.vertices,
                            interior: r.interior,
                        })
                        .collect()
                })
                .collect(),
        ),
        Ok(Err((kind, message))) => Response::error(kind, message),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Response::error(
            ErrorKind::DeadlineExceeded,
            "request timed out in the batch queue",
        ),
        // The batch worker dropped our reply channel without answering —
        // it panicked mid-batch.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            Response::error(ErrorKind::Internal, "batch execution failed")
        }
    }
}

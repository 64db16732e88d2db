//! The repair job queue.
//!
//! Repairs solve an LP — milliseconds on toy models, minutes at paper
//! scale — so they must never run on a connection thread or block the
//! accept loop.  A `repair` request enqueues a job into a bounded FIFO and
//! immediately returns a job id; dedicated workers pop jobs and run
//! [`prdnn_core::repair_points_ddnn_in`] on the shared pool, publishing
//! the repaired network as the model's next version with full provenance.
//! Clients poll `job_status` until `done` (which names the published
//! version) or `failed`.
//!
//! # Single writer per model
//!
//! Repairs of one model are **serialised**: a worker never pops a job
//! whose model has a repair in flight (jobs of other models may overtake
//! it; jobs of the same model keep FIFO order).  Without this, two
//! workers could run repairs of the same model against the same parent
//! and the later publish would silently discard the earlier repair's
//! deltas — a lost update.  With it, each job re-resolves the model's
//! *current* head at execution time (stable while the job runs, thanks to
//! the in-flight guard) so concurrent repairs stack: every published
//! version is the child of the head it actually repaired, and its
//! `source` names that true parent.  The paper's repair is one global LP
//! per model, so per-model serialisation costs no parallelism that was
//! semantically available.
//!
//! Shutdown is a drain, not an abort: queued jobs still run and publish
//! before the workers exit, so an accepted repair is never silently lost.
//!
//! Publishing goes through the store's [`crate::version_log::VersionLog`]:
//! under a durable backend ([`crate::wal::WalLog`]) the WAL record is
//! fsynced *before* `publish_repair` returns, so a job only reports `done`
//! once its version would survive a crash — and a durability failure
//! surfaces as the job's `failed` state, never as a phantom version.

use crate::metrics::Counters;
use crate::protocol::{ErrorKind, JobState, ModelRef};
use crate::store::{ModelStore, ModelVersion};
use crate::telemetry::{self, Outcome, Stage, Telemetry};
use prdnn_core::{repair_points_ddnn_in, PointSpec, RepairConfig};
use prdnn_par::PoolRef;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

struct RepairJob {
    id: u64,
    /// The version the client saw at submission.  Execution re-resolves
    /// the model's head (see the module docs): this field names the model
    /// and serves as a fallback if the model vanished from the store.
    parent: Arc<ModelVersion>,
    layer: usize,
    spec: PointSpec,
    config: RepairConfig,
    /// The submitting request's correlation id (0 = untracked); the job's
    /// spans (queue wait, LP solve, WAL append) record under it.
    request_id: u64,
    /// When the job entered the FIFO; queue-wait telemetry measures from
    /// here.
    submitted: Instant,
}

/// The outcome of a [`JobQueue::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum StatusLookup {
    /// The job's current state.
    Found(JobState),
    /// The job settled long ago and its record was evicted
    /// (`MAX_SETTLED_RETAINED`).
    Evicted,
    /// No job with this id was ever issued.
    NeverIssued,
}

/// How many settled (done/failed) job records are retained for polling.
/// Older ones are evicted FIFO; polling an evicted id reports unknown-job.
/// Bounds the status map on a long-lived server — queued/running jobs are
/// never evicted (they are bounded by the queue cap + worker count).
const MAX_SETTLED_RETAINED: usize = 1024;

struct JobsInner {
    queue: VecDeque<RepairJob>,
    statuses: HashMap<u64, JobState>,
    /// Settled job ids in completion order, for FIFO eviction.
    settled: VecDeque<u64>,
    /// Models with a repair currently running on some worker.  The pop
    /// path skips queued jobs whose model is in flight, so at most one
    /// repair per model runs at a time (single writer per model).
    in_flight: HashSet<String>,
    next_id: u64,
    shutdown: bool,
}

/// The bounded FIFO repair queue; see the module docs.
pub struct JobQueue {
    inner: Mutex<JobsInner>,
    cv: Condvar,
    cap: usize,
    store: Arc<ModelStore>,
    pool: Arc<PoolRef>,
    telemetry: Arc<Telemetry>,
    /// The shared counter block (the telemetry's).
    pub counters: Arc<Counters>,
}

impl JobQueue {
    /// Recovers the job-state lock from poisoning.  Every critical section
    /// in this module leaves `JobsInner` consistent at each step (pushes,
    /// map inserts), so a panic under the lock — which can only come from
    /// allocation failure — must not take status polling and the worker
    /// drain down with it.  `submit` is the exception: it fails typed
    /// instead (see there).
    fn lock_inner(&self) -> MutexGuard<'_, JobsInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a queue holding at most `cap` waiting jobs, recording
    /// counters and queue-wait / repair telemetry into `telemetry`.
    pub fn new(
        store: Arc<ModelStore>,
        pool: Arc<PoolRef>,
        cap: usize,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        JobQueue {
            inner: Mutex::new(JobsInner {
                queue: VecDeque::new(),
                statuses: HashMap::new(),
                settled: VecDeque::new(),
                in_flight: HashSet::new(),
                next_id: 1,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
            store,
            pool,
            counters: Arc::clone(&telemetry.counters),
            telemetry,
        }
    }

    /// Enqueues a repair of `parent`, returning the job id to poll.
    ///
    /// # Errors
    ///
    /// `(Overloaded, ..)` when the FIFO is full, `(ShuttingDown, ..)` once
    /// shutdown has begun.
    pub fn submit(
        &self,
        parent: Arc<ModelVersion>,
        layer: usize,
        spec: PointSpec,
        config: RepairConfig,
        request_id: u64,
    ) -> Result<u64, (ErrorKind, String)> {
        let id = {
            // Unlike the read paths, accepting a job into a queue that a
            // panic may have left suspect would promise work the server
            // cannot guarantee, so fail typed and let the client retry.
            let mut inner = self
                .inner
                .lock()
                .map_err(|_| (ErrorKind::Internal, "job queue lock poisoned".to_owned()))?;
            if inner.shutdown {
                return Err((
                    ErrorKind::ShuttingDown,
                    "server is draining; no new repairs accepted".to_owned(),
                ));
            }
            if inner.queue.len() >= self.cap {
                self.counters.jobs_shed.fetch_add(1, Ordering::Relaxed);
                return Err((
                    ErrorKind::Overloaded,
                    format!("repair queue full ({} pending jobs)", self.cap),
                ));
            }
            let id = inner.next_id;
            inner.next_id += 1;
            inner.statuses.insert(id, JobState::Queued);
            inner.queue.push_back(RepairJob {
                id,
                parent,
                layer,
                spec,
                config,
                request_id,
                submitted: Instant::now(),
            });
            id
        };
        self.counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_one();
        Ok(id)
    }

    /// The current state of a job, if the id was ever issued.
    pub fn status(&self, id: u64) -> Option<JobState> {
        self.lock_inner().statuses.get(&id).cloned()
    }

    /// Jobs currently waiting in the FIFO (point-in-time gauge).
    pub fn queue_depth(&self) -> u64 {
        self.lock_inner().queue.len() as u64
    }

    /// Repairs currently running on a worker (point-in-time gauge).
    pub fn in_flight(&self) -> u64 {
        self.lock_inner().in_flight.len() as u64
    }

    /// [`Self::status`], distinguishing a settled-and-evicted record from
    /// an id that was never issued — the two deserve different error
    /// messages.
    pub fn lookup(&self, id: u64) -> StatusLookup {
        let inner = self.lock_inner();
        match inner.statuses.get(&id) {
            Some(state) => StatusLookup::Found(state.clone()),
            // Ids are issued sequentially from 1, so anything below
            // `next_id` existed once and must have been evicted.
            None if id >= 1 && id < inner.next_id => StatusLookup::Evicted,
            None => StatusLookup::NeverIssued,
        }
    }

    /// The worker loop: pop jobs (per-model FIFO, skipping models with a
    /// repair already in flight — see the module docs), run them, publish
    /// results; after shutdown, keep going until the queue is empty
    /// (drain), then exit.  Run on one or more dedicated threads.
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut inner = self.lock_inner();
                loop {
                    // Front-to-back scan for the first job whose model has
                    // no repair in flight: jobs of distinct models may
                    // overtake each other, jobs of one model stay FIFO.
                    let ready = inner
                        .queue
                        .iter()
                        .position(|j| !inner.in_flight.contains(&j.parent.name));
                    if let Some(idx) = ready {
                        let job = inner
                            .queue
                            .remove(idx)
                            .expect("position() gave a live index");
                        inner.in_flight.insert(job.parent.name.clone());
                        inner.statuses.insert(job.id, JobState::Running);
                        break Some(job);
                    }
                    // During shutdown, blocked jobs must still drain: only
                    // exit once the queue is truly empty.
                    if inner.shutdown && inner.queue.is_empty() {
                        break None;
                    }
                    inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(job) = job else { return };
            let wait = job.submitted.elapsed();
            self.telemetry.hist.job_queue_wait.record_duration(wait);
            self.telemetry.span_at(
                job.request_id,
                Stage::JobQueue,
                job.submitted,
                wait,
                Outcome::Ok,
            );
            // A panicking repair (LP assertion on a pathological spec)
            // must fail that job, not kill the worker for all later jobs.
            let state =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_job(&job)))
                    .unwrap_or_else(|_| JobState::Failed {
                        message: "repair panicked (internal error)".to_owned(),
                    });
            match &state {
                JobState::Done { .. } => {
                    self.counters.jobs_completed.fetch_add(1, Ordering::Relaxed)
                }
                _ => self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed),
            };
            {
                let mut inner = self.lock_inner();
                inner.in_flight.remove(&job.parent.name);
                inner.statuses.insert(job.id, state);
                inner.settled.push_back(job.id);
                while inner.settled.len() > MAX_SETTLED_RETAINED {
                    if let Some(evicted) = inner.settled.pop_front() {
                        inner.statuses.remove(&evicted);
                    }
                }
            }
            // A slow job promotes its full chain (queue wait, LP solve,
            // WAL append) to the slow-log under the submitting request's
            // id, measured over its whole queue-to-settled residence.
            self.telemetry
                .maybe_promote(job.request_id, "repair", job.submitted.elapsed());
            // Releasing the model may unblock a job that every waiting
            // worker previously skipped over.
            self.cv.notify_all();
        }
    }

    /// Begins shutdown: rejects new jobs and lets the workers drain.
    pub fn shutdown(&self) {
        self.lock_inner().shutdown = true;
        self.cv.notify_all();
    }

    fn run_job(&self, job: &RepairJob) -> JobState {
        // Repair the model's *current* head, not the submission-time
        // parent: earlier repairs may have stacked versions on top, and
        // running against a stale parent would discard their deltas when
        // this repair publishes (the lost update the in-flight guard
        // exists to prevent).  The head is stable for the whole run —
        // repair workers are the only publishers after load, and this
        // worker holds the model's in-flight slot.
        let head = self
            .store
            .resolve(&ModelRef::latest(&job.parent.name))
            .unwrap_or_else(|_| Arc::clone(&job.parent));
        // The publish path (store -> version log -> WAL) has no id
        // parameter; the thread-local scope attributes its spans.
        let _scope = telemetry::enter_request(job.request_id);
        // The `lp_solve` histogram and span time the whole repair call:
        // Jacobians, LP build and solve, and applying the delta.
        let solve_start = Instant::now();
        let solved =
            repair_points_ddnn_in(&self.pool, &head.ddnn, job.layer, &job.spec, &job.config);
        let solve = solve_start.elapsed();
        self.telemetry.hist.lp_solve.record_duration(solve);
        self.telemetry.span_at(
            job.request_id,
            Stage::LpSolve,
            solve_start,
            solve,
            if solved.is_ok() {
                Outcome::Ok
            } else {
                Outcome::Error
            },
        );
        match solved {
            Ok(outcome) => {
                let provenance = outcome.provenance(job.spec.content_hash(), &job.config);
                let (delta_l1, delta_linf) = (provenance.delta_l1, provenance.delta_linf);
                let (lp_pivots, lp_refactorizations) =
                    (provenance.lp_pivots, provenance.lp_refactorizations);
                match self.store.publish_repair(
                    &head.name,
                    outcome.repaired,
                    // The source names the version actually repaired — the
                    // true parent — which under concurrent submissions may
                    // be newer than what the client saw.
                    format!("repair of {}@v{}", head.name, head.version),
                    provenance,
                ) {
                    Ok(published) => {
                        self.counters
                            .lp_pivots
                            .fetch_add(lp_pivots, Ordering::Relaxed);
                        self.counters
                            .lp_refactorizations
                            .fetch_add(lp_refactorizations, Ordering::Relaxed);
                        JobState::Done {
                            model: published.name.clone(),
                            version: published.version,
                            delta_l1,
                            delta_linf,
                            lp_pivots,
                            lp_refactorizations,
                        }
                    }
                    Err(e) => JobState::Failed {
                        message: format!("repair succeeded but publishing failed: {e}"),
                    },
                }
            }
            Err(e) => JobState::Failed {
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ModelRef;
    use prdnn_core::{DecoupledNetwork, OutputPolytope};
    use prdnn_datasets::registry;
    use std::thread;
    use std::time::Duration;

    fn equation_2_spec() -> PointSpec {
        let mut spec = PointSpec::new();
        spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.8));
        spec.push(vec![1.5], OutputPolytope::scalar_interval(-0.2, 0.0));
        spec
    }

    fn store_with_n1() -> (Arc<ModelStore>, Arc<ModelVersion>) {
        let store = Arc::new(ModelStore::new());
        let v1 = store
            .load(
                "n1",
                DecoupledNetwork::from_network(&registry::build_model("n1").unwrap()),
                "n1".into(),
            )
            .unwrap();
        (store, v1)
    }

    #[test]
    fn repair_job_publishes_version_2_with_provenance() {
        let (store, v1) = store_with_n1();
        let pool = Arc::new(prdnn_par::pool_for(Some(1)));
        let jobs = Arc::new(JobQueue::new(
            Arc::clone(&store),
            pool,
            4,
            Telemetry::new(0),
        ));
        let spec = equation_2_spec();
        let id = jobs
            .submit(v1, 0, spec.clone(), RepairConfig::default(), 0)
            .unwrap();
        assert_eq!(jobs.status(id), Some(JobState::Queued));
        assert_eq!(jobs.status(id + 7), None);

        let worker = {
            let jobs = Arc::clone(&jobs);
            thread::spawn(move || jobs.worker_loop())
        };
        // Poll until done (the repair is a tiny LP).
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let state = loop {
            match jobs.status(id).unwrap() {
                JobState::Done { .. } | JobState::Failed { .. } => break jobs.status(id).unwrap(),
                _ if std::time::Instant::now() > deadline => panic!("job stuck"),
                _ => thread::sleep(Duration::from_millis(2)),
            }
        };
        let JobState::Done {
            model,
            version,
            delta_l1,
            ..
        } = state
        else {
            panic!("repair failed: {state:?}")
        };
        assert_eq!((model.as_str(), version), ("n1", 2));
        assert!(delta_l1 > 0.0);

        // The published version satisfies the spec and carries provenance.
        let v2 = store.resolve(&ModelRef::version("n1", 2)).unwrap();
        assert!(spec.is_satisfied_by(|x| v2.ddnn.forward(x), 1e-6));
        let prov = v2.provenance.as_ref().unwrap();
        assert_eq!(prov.spec_hash, spec.content_hash());
        assert_eq!(prov.layer, 0);
        assert_eq!(v2.source, "repair of n1@v1");

        jobs.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn concurrent_repairs_of_one_model_stack_with_true_parentage() {
        // The lost-update pin: with 4 repair workers, N concurrent repairs
        // of one model must yield N stacked versions, each the child of
        // the previous head — never two siblings of the same parent where
        // the later publish silently discards the earlier one's deltas.
        let (store, v1) = store_with_n1();
        let pool = Arc::new(prdnn_par::pool_for(Some(1)));
        let jobs = Arc::new(JobQueue::new(
            Arc::clone(&store),
            pool,
            16,
            Telemetry::new(0),
        ));
        let repairs = 6u32;
        for _ in 0..repairs {
            // All submissions name v1 — what a client racing the repairs
            // would actually see.
            jobs.submit(
                Arc::clone(&v1),
                0,
                equation_2_spec(),
                RepairConfig::default(),
                0,
            )
            .unwrap();
        }
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                thread::spawn(move || jobs.worker_loop())
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while jobs.counters.jobs_completed.load(Ordering::Relaxed)
            + jobs.counters.jobs_failed.load(Ordering::Relaxed)
            < repairs as u64
        {
            assert!(std::time::Instant::now() < deadline, "repairs stuck");
            thread::sleep(Duration::from_millis(2));
        }
        jobs.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            jobs.counters.jobs_completed.load(Ordering::Relaxed),
            u64::from(repairs)
        );

        // N repairs → N stacked versions, each labelled with its true
        // parent: the head it actually repaired, not the stale v1 the
        // client submitted against.
        let versions = store.versions("n1").unwrap();
        assert_eq!(versions.len(), repairs as usize + 1);
        for v in &versions[1..] {
            assert_eq!(v.source, format!("repair of n1@v{}", v.version - 1));
        }
        // LP accounting: the queue's totals equal the sum over published
        // provenances, and these tiny LPs' dense-tableau pivots count too.
        let expected: u64 = versions[1..]
            .iter()
            .map(|v| v.provenance.as_ref().unwrap().lp_pivots)
            .sum();
        assert!(expected > 0);
        assert_eq!(jobs.counters.lp_pivots.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn infeasible_repairs_fail_and_queue_bounds_hold() {
        let (store, v1) = store_with_n1();
        let pool = Arc::new(prdnn_par::pool_for(Some(1)));
        let jobs = Arc::new(JobQueue::new(store, pool, 1, Telemetry::new(0)));
        let mut impossible = PointSpec::new();
        impossible.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.9));
        impossible.push(vec![0.5], OutputPolytope::scalar_interval(0.9, 1.0));
        let id = jobs
            .submit(
                Arc::clone(&v1),
                0,
                impossible.clone(),
                RepairConfig::default(),
                0,
            )
            .unwrap();
        // Queue cap reached.
        let err = jobs
            .submit(
                Arc::clone(&v1),
                0,
                impossible.clone(),
                RepairConfig::default(),
                0,
            )
            .unwrap_err();
        assert_eq!(err.0, ErrorKind::Overloaded);

        // Drain: shutdown first, then run the worker — the queued job must
        // still execute.
        jobs.shutdown();
        assert_eq!(
            jobs.submit(v1, 0, impossible, RepairConfig::default(), 0)
                .unwrap_err()
                .0,
            ErrorKind::ShuttingDown
        );
        jobs.worker_loop();
        let JobState::Failed { message } = jobs.status(id).unwrap() else {
            panic!("expected failure")
        };
        assert!(message.contains("no single-layer repair"), "{message}");
    }
}

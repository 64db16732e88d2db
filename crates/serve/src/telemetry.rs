//! Hand-rolled server telemetry: lock-free latency histograms and
//! per-request span tracing.
//!
//! # Histograms
//!
//! [`Histogram`] is a log-linear (HDR-style) fixed-bucket histogram over
//! `u64` values (microseconds for latencies, raw counts for sizes).
//! Values below 32 get exact one-wide buckets; above that, each power of
//! two splits into 32 linear sub-buckets, so the relative quantization
//! error is bounded by `1/32` (~3.1%) everywhere. The bucket count is
//! fixed at compile time (values are clamped to [`MAX_TRACKED`], ~38 h in
//! microseconds), which keeps recording allocation-free.
//!
//! Recording is lock-free: each histogram holds [`N_SHARDS`] independent
//! shards of relaxed `AtomicU64` buckets, and every thread sticks to the
//! shard it was dealt on first use. Readers merge all shards into a
//! [`HistogramSnapshot`]; bucket counts are plain sums, so a merged
//! snapshot is bit-identical no matter how the same observations were
//! spread across threads.
//!
//! # Spans
//!
//! When tracing is enabled (`slow_ms > 0`), each request carries a
//! `request_id` and every stage it crosses records a
//! `(request_id, stage, start, duration, outcome)` span into a bounded
//! lock-free ring ([`SpanRing`]). When a request's end-to-end time
//! crosses the slow threshold, its whole span chain is collected from the
//! ring and promoted to a small retained slow-log, which the `trace`
//! protocol request serves as structured JSON. Span slots use a seqlock
//! discipline (odd = write in progress) so a reader never observes a torn
//! span; a span overwritten mid-read is simply skipped.

use crate::metrics::{self, Counters, Histograms, ServerStats};
use serde::json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Linear sub-buckets per power of two (2^5 = 32).
const SUB_BITS: u32 = 5;
/// Width of the leading exact range and of each octave's sub-bucket row.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Number of power-of-two octaves above the exact range.
const OCTAVES: usize = 32;
/// Total bucket count: 32 exact + 32 octaves x 32 sub-buckets.
pub const N_BUCKETS: usize = SUB_COUNT + OCTAVES * SUB_COUNT;
/// Largest representable value; larger observations are clamped here.
/// In microseconds this is about 38 hours.
pub const MAX_TRACKED: u64 = (1u64 << (SUB_BITS + OCTAVES as u32)) - 1;
/// Independent recording shards per histogram.
pub const N_SHARDS: usize = 8;

/// Retained slow-request traces (older entries are evicted FIFO).
const SLOW_LOG_CAP: usize = 64;
/// Span ring capacity; must comfortably exceed spans-in-flight so a slow
/// request's chain is still resident when it is promoted.
const SPAN_RING_CAP: usize = 4096;

/// Maps a value to its bucket index. Total order preserving.
pub fn bucket_index(value: u64) -> usize {
    let v = value.min(MAX_TRACKED);
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let exp = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        SUB_COUNT + exp * SUB_COUNT + sub
    }
}

/// Inclusive upper bound of bucket `i` (the value a quantile reports).
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB_COUNT {
        i as u64
    } else {
        let exp = (i - SUB_COUNT) / SUB_COUNT;
        let sub = ((i - SUB_COUNT) % SUB_COUNT) as u64;
        let width = 1u64 << exp;
        (SUB_COUNT as u64 + sub) * width + width - 1
    }
}

fn new_atomic_row(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

struct Shard {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            buckets: new_atomic_row(N_BUCKETS),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Deals each recording thread a sticky shard index, round-robin.
fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
    }
    MY_SHARD.with(|i| *i)
}

/// A lock-free log-linear histogram with per-thread recording shards.
pub struct Histogram {
    shards: Vec<Shard>,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            shards: (0..N_SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Records one observation, clamped to [`MAX_TRACKED`] (so `sum` and
    /// the buckets describe the same clamped distribution, and the sum
    /// cannot overflow at any realistic count). Lock- and allocation-free:
    /// three relaxed `fetch_add`s on the calling thread's shard.
    pub fn record(&self, value: u64) {
        let value = value.min(MAX_TRACKED);
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Merges every shard into one immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for shard in &self.shards {
            for (i, b) in shard.buckets.iter().enumerate() {
                snap.buckets[i] += b.load(Ordering::Relaxed);
            }
            snap.count += shard.count.load(Ordering::Relaxed);
            snap.sum += shard.sum.load(Ordering::Relaxed);
        }
        snap
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A merged, immutable view of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket-wise merge; associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Reports the quantile `q` in `[0, 1]` as the inclusive upper bound
    /// of the bucket holding the rank-`ceil(q * count)` observation, so
    /// the result over-reports the true order statistic by at most one
    /// bucket width (`value / 32 + 1`). Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(N_BUCKETS - 1)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Span taxonomy: each stage a request can cross on the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Whole server residence: first header byte to response written.
    Request,
    /// Wait in the batcher queue from submit to gulp.
    BatchQueue,
    /// Pool execution of the request's (is_eval, version) group.
    BatchExec,
    /// Result-cache probe at gulp time (outcome hit or miss).
    Cache,
    /// Wait in the repair job queue from submit to worker pop.
    JobQueue,
    /// The repair on the worker (`repair_points_ddnn_in`: Jacobians, LP
    /// build and solve, and applying the delta).
    LpSolve,
    /// WAL append + fsync for a publish triggered by this request.
    WalAppend,
    /// The connection thread decoding the frame's text into the request.
    Decode,
    /// The connection thread encoding the response and writing its frame.
    Encode,
}

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::BatchQueue => "batch_queue",
            Stage::BatchExec => "batch_exec",
            Stage::Cache => "cache",
            Stage::JobQueue => "job_queue",
            Stage::LpSolve => "lp_solve",
            Stage::WalAppend => "wal_append",
            Stage::Decode => "decode",
            Stage::Encode => "encode",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            0 => Stage::Request,
            1 => Stage::BatchQueue,
            2 => Stage::BatchExec,
            3 => Stage::Cache,
            4 => Stage::JobQueue,
            5 => Stage::LpSolve,
            6 => Stage::WalAppend,
            7 => Stage::Decode,
            8 => Stage::Encode,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            Stage::Request => 0,
            Stage::BatchQueue => 1,
            Stage::BatchExec => 2,
            Stage::Cache => 3,
            Stage::JobQueue => 4,
            Stage::LpSolve => 5,
            Stage::WalAppend => 6,
            Stage::Decode => 7,
            Stage::Encode => 8,
        }
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Error,
    Deadline,
    Hit,
    Miss,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::Deadline => "deadline",
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
        }
    }

    fn from_u8(v: u8) -> Option<Outcome> {
        Some(match v {
            0 => Outcome::Ok,
            1 => Outcome::Error,
            2 => Outcome::Deadline,
            3 => Outcome::Hit,
            4 => Outcome::Miss,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            Outcome::Ok => 0,
            Outcome::Error => 1,
            Outcome::Deadline => 2,
            Outcome::Hit => 3,
            Outcome::Miss => 4,
        }
    }
}

/// One recorded stage crossing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub request_id: u64,
    pub stage: Stage,
    /// Microseconds since server start when the stage began.
    pub start_us: u64,
    pub dur_us: u64,
    pub outcome: Outcome,
}

struct SpanSlot {
    /// Seqlock word: odd while a writer is mid-update.
    seq: AtomicU64,
    request_id: AtomicU64,
    /// Packed `stage | outcome << 8`.
    tags: AtomicU64,
    start_us: AtomicU64,
    dur_us: AtomicU64,
}

/// Bounded multi-writer span ring. Writers claim slots with one
/// `fetch_add`; readers skip torn slots via the per-slot seq word.
pub struct SpanRing {
    slots: Vec<SpanSlot>,
    head: AtomicU64,
}

impl SpanRing {
    fn new(cap: usize) -> Self {
        SpanRing {
            slots: (0..cap)
                .map(|_| SpanSlot {
                    seq: AtomicU64::new(0),
                    request_id: AtomicU64::new(0),
                    tags: AtomicU64::new(0),
                    start_us: AtomicU64::new(0),
                    dur_us: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, span: &Span) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        // Generation counter per slot occupancy; odd = write in progress.
        let gen = (n / self.slots.len() as u64 + 1) * 2;
        slot.seq.store(gen - 1, Ordering::Release);
        slot.request_id.store(span.request_id, Ordering::Relaxed);
        slot.tags.store(
            u64::from(span.stage.as_u8()) | u64::from(span.outcome.as_u8()) << 8,
            Ordering::Relaxed,
        );
        slot.start_us.store(span.start_us, Ordering::Relaxed);
        slot.dur_us.store(span.dur_us, Ordering::Relaxed);
        slot.seq.store(gen, Ordering::Release);
    }

    /// Collects every resident span for one request, oldest first.
    fn collect(&self, request_id: u64) -> Vec<Span> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let id = slot.request_id.load(Ordering::Relaxed);
            if id != request_id {
                continue;
            }
            let tags = slot.tags.load(Ordering::Relaxed);
            let start_us = slot.start_us.load(Ordering::Relaxed);
            let dur_us = slot.dur_us.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten mid-read: drop the torn span
            }
            let (stage, outcome) = match (
                Stage::from_u8((tags & 0xff) as u8),
                Outcome::from_u8((tags >> 8 & 0xff) as u8),
            ) {
                (Some(s), Some(o)) => (s, o),
                _ => continue,
            };
            out.push(Span {
                request_id: id,
                stage,
                start_us,
                dur_us,
                outcome,
            });
        }
        out.sort_by_key(|s| (s.start_us, s.stage.as_u8()));
        out
    }
}

/// A slow request's retained span chain.
#[derive(Clone, Debug)]
pub struct SlowTrace {
    pub request_id: u64,
    pub kind: &'static str,
    pub total_us: u64,
    pub spans: Vec<Span>,
}

thread_local! {
    /// The request id the current thread is working on (0 = none).
    /// Lets deep layers (WAL appends under `ModelStore`) attribute spans
    /// without threading ids through every store API.
    static CURRENT_REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// RAII guard restoring the previous thread-current request id.
pub struct RequestScope {
    prev: u64,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|c| c.set(self.prev));
    }
}

/// Marks `request_id` as the one this thread is serving until the guard
/// drops.
pub fn enter_request(request_id: u64) -> RequestScope {
    let prev = CURRENT_REQUEST.with(|c| c.replace(request_id));
    RequestScope { prev }
}

/// The request id the current thread is serving, or 0.
pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(|c| c.get())
}

/// All serve-stack telemetry: the registry's counters and stage
/// histograms (see [`crate::metrics`]), the span ring, and the retained
/// slow-log. One per server; shared via `Arc` by every layer.
pub struct Telemetry {
    epoch: Instant,
    slow_threshold_us: u64,
    /// The shared counter block.
    pub counters: Arc<Counters>,
    /// The stage histograms.
    pub hist: Histograms,
    ring: SpanRing,
    slow: Mutex<VecDeque<SlowTrace>>,
}

impl Telemetry {
    /// `slow_ms == 0` disables span tracing and the slow-log entirely
    /// (histograms stay on; they are the cheap, always-on pillar).
    pub fn new(slow_ms: u64) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            epoch: Instant::now(),
            slow_threshold_us: slow_ms.saturating_mul(1000),
            counters: Arc::default(),
            hist: Histograms::default(),
            ring: SpanRing::new(SPAN_RING_CAP),
            slow: Mutex::new(VecDeque::new()),
        })
    }

    /// Whether span tracing (and slow-log promotion) is on.
    pub fn tracing_enabled(&self) -> bool {
        self.slow_threshold_us > 0
    }

    /// Server start instant; span starts are measured from here.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Seconds the server has been up.
    pub fn uptime_seconds(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records one span with an explicit duration. No-op when tracing is
    /// off or the request id is 0 (untracked work).
    pub fn span_at(
        &self,
        request_id: u64,
        stage: Stage,
        start: Instant,
        dur: Duration,
        outcome: Outcome,
    ) {
        if !self.tracing_enabled() || request_id == 0 {
            return;
        }
        self.ring.push(&Span {
            request_id,
            stage,
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros().min(u128::from(u64::MAX)) as u64,
            outcome,
        });
    }

    /// Records a span that started at `start` and ends now.
    pub fn span(&self, request_id: u64, stage: Stage, start: Instant, outcome: Outcome) {
        self.span_at(request_id, stage, start, start.elapsed(), outcome);
    }

    /// Promotes the request's span chain to the slow-log if its total
    /// residence crossed the threshold.
    pub fn maybe_promote(&self, request_id: u64, kind: &'static str, total: Duration) {
        if !self.tracing_enabled() || request_id == 0 {
            return;
        }
        let total_us = total.as_micros().min(u128::from(u64::MAX)) as u64;
        if total_us < self.slow_threshold_us {
            return;
        }
        let spans = self.ring.collect(request_id);
        let mut slow = match self.slow.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if slow.len() == SLOW_LOG_CAP {
            slow.pop_front();
        }
        slow.push_back(SlowTrace {
            request_id,
            kind,
            total_us,
            spans,
        });
    }

    /// Recent slow-request traces, oldest first.
    pub fn slow_traces(&self) -> Vec<SlowTrace> {
        let slow = match self.slow.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slow.iter().cloned().collect()
    }

    /// The slow-log as the structured JSON served by the `trace` request.
    pub fn slow_traces_json(&self) -> Value {
        let traces = self.slow_traces();
        Value::Arr(
            traces
                .iter()
                .map(|t| {
                    Value::obj([
                        ("request_id", Value::Num(t.request_id as f64)),
                        ("kind", Value::Str(t.kind.to_owned())),
                        ("total_ms", Value::Num(t.total_us as f64 / 1000.0)),
                        (
                            "spans",
                            Value::Arr(
                                t.spans
                                    .iter()
                                    .map(|s| {
                                        Value::obj([
                                            ("stage", Value::Str(s.stage.as_str().to_owned())),
                                            ("start_ms", Value::Num(s.start_us as f64 / 1000.0)),
                                            ("duration_ms", Value::Num(s.dur_us as f64 / 1000.0)),
                                            ("outcome", Value::Str(s.outcome.as_str().to_owned())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }

    /// The full `metrics` exposition for a snapshot of the counters (see
    /// [`metrics::exposition`]).
    pub fn render_prometheus(&self, stats: &ServerStats) -> String {
        metrics::exposition(stats, &self.hist, self.uptime_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_consistent() {
        let mut last = 0usize;
        for v in (0u64..4096).chain([1 << 20, 1 << 30, MAX_TRACKED, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            assert!(i < N_BUCKETS);
            last = i;
            if v <= MAX_TRACKED {
                assert!(bucket_upper(i) >= v, "upper bound below value at {v}");
                if i > 0 {
                    assert!(bucket_upper(i - 1) < v, "value fits previous bucket at {v}");
                }
            }
        }
        assert_eq!(bucket_index(MAX_TRACKED), N_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_one_thirty_second() {
        for v in [1u64, 31, 32, 33, 100, 1000, 12345, 1 << 20, (1 << 30) + 7] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            assert!(upper - v <= v / 32 + 1, "bucket too wide at {v}: {upper}");
        }
    }

    #[test]
    fn quantiles_match_a_sorted_oracle_within_a_bucket() {
        let hist = Histogram::new();
        let mut values: Vec<u64> = (0..1000u64).map(|i| i * i % 7919 + 1).collect();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let rank = ((q * 1000.0).ceil() as usize).clamp(1, 1000);
            let truth = values[rank - 1];
            let got = snap.quantile(q);
            assert!(got >= truth, "q{q} under-reported: {got} < {truth}");
            assert!(
                got - truth <= truth / 32 + 1,
                "q{q} off by more than a bucket"
            );
        }
    }

    #[test]
    fn snapshots_merge_associatively() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(&[1, 2, 3]), mk(&[40, 50]), mk(&[6000]));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn span_ring_collects_a_request_chain_in_start_order() {
        let t = Telemetry::new(10);
        let epoch = t.epoch();
        t.span_at(
            7,
            Stage::BatchExec,
            epoch + Duration::from_micros(50),
            Duration::from_micros(5),
            Outcome::Ok,
        );
        t.span_at(
            7,
            Stage::Request,
            epoch,
            Duration::from_micros(90),
            Outcome::Ok,
        );
        t.span_at(
            8,
            Stage::Request,
            epoch,
            Duration::from_micros(1),
            Outcome::Ok,
        );
        let spans = t.ring.collect(7);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, Stage::Request);
        assert_eq!(spans[1].stage, Stage::BatchExec);
    }

    #[test]
    fn slow_log_promotes_only_over_threshold_and_is_bounded() {
        let t = Telemetry::new(10); // 10 ms
        let epoch = t.epoch();
        t.span_at(
            1,
            Stage::Request,
            epoch,
            Duration::from_millis(5),
            Outcome::Ok,
        );
        t.maybe_promote(1, "eval", Duration::from_millis(5));
        assert!(t.slow_traces().is_empty(), "fast request promoted");
        for id in 2..(SLOW_LOG_CAP as u64 + 10) {
            t.span_at(
                id,
                Stage::Request,
                epoch,
                Duration::from_millis(20),
                Outcome::Ok,
            );
            t.maybe_promote(id, "eval", Duration::from_millis(20));
        }
        let slow = t.slow_traces();
        assert_eq!(slow.len(), SLOW_LOG_CAP);
        assert_eq!(slow.last().unwrap().request_id, SLOW_LOG_CAP as u64 + 9);
        assert!(!slow.last().unwrap().spans.is_empty());
    }

    #[test]
    fn disabled_telemetry_records_no_spans_but_histograms_stay_on() {
        let t = Telemetry::new(0);
        t.span(9, Stage::Request, Instant::now(), Outcome::Ok);
        t.maybe_promote(9, "eval", Duration::from_secs(10));
        assert!(t.slow_traces().is_empty());
        t.hist.request_e2e[0].record(100);
        assert_eq!(t.hist.request_e2e[0].snapshot().count, 1);
    }

    #[test]
    fn current_request_scope_nests_and_restores() {
        assert_eq!(current_request(), 0);
        let outer = enter_request(5);
        assert_eq!(current_request(), 5);
        {
            let _inner = enter_request(6);
            assert_eq!(current_request(), 6);
        }
        assert_eq!(current_request(), 5);
        drop(outer);
        assert_eq!(current_request(), 0);
    }
}

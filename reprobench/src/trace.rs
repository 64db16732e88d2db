//! In-memory span recording for the traced run.
//!
//! A span is recorded around every call the benchmark makes into a layer.
//! Spans of one operation share its `op` id; phases the library reports
//! itself (`RepairTiming`) become children of the call's span.  Nothing is
//! written until the run ends.

use serde::json::Value;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The operation the span belongs to.
    pub op: u64,
    /// The layer call, e.g. `lp.solve` or `client.eval`.
    pub name: &'static str,
    /// Start, in µs since the run's epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
}

/// A span recorder.  When disabled it only times.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    /// Id prefix, so recorders forked for other threads never collide.
    prefix: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one run.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            prefix: 0,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread, sharing this one's epoch.
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer {
            epoch: self.epoch,
            enabled: self.enabled,
            prefix: (thread + 1) << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Takes over the spans of a forked recorder.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Runs `f`, returning its result, its wall time in ms, and the id of
    /// the span recorded for it.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, u64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let id = self.record(name, op, parent, start, dur);
        (out, dur.as_secs_f64() * 1e3, id)
    }

    /// Records a span of known extent; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.prefix | self.next;
        self.next += 1;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: dur.as_secs_f64() * 1e6,
            });
        }
        id
    }

    /// Records the phases a library call reported as children of its
    /// span, laid end to end from the call's start in pipeline order (the
    /// library reports each phase's duration, not its start).
    pub fn phases(&mut self, parent: u64, op: u64, phases: &[(&'static str, Duration)]) {
        let Some(at) = self.spans.iter().rev().find(|s| s.id == parent) else {
            return;
        };
        let mut start = self.epoch + Duration::from_secs_f64(at.start_us / 1e6);
        for &(name, dur) in phases {
            self.record(name, op, Some(parent), start, dur);
            start += dur;
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON document.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("id", Value::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(s.op as f64)),
                        ("name", Value::Str(s.name.to_owned())),
                        ("start_us", Value::Num(s.start_us)),
                        ("dur_us", Value::Num(s.dur_us)),
                    ])
                })
                .collect(),
        )
    }
}

//! What a run measured, and how it is printed.

use crate::seq::ReadKind;
use crate::stats::{self, Stat, TailError};
use serde::json::Value;
use std::collections::BTreeMap;

/// The end-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("repair_p50_ms", "ms"),
    ("repair_p90_ms", "ms"),
    ("success_frac", "fraction"),
    ("drawdown_pct", "%"),
    ("generalization_pct", "%"),
    ("eval_p50_ms", "ms"),
    ("eval_cached_p50_ms", "ms"),
    ("lin_regions_p50_ms", "ms"),
];

/// The per-layer metrics, `(name, unit)`, printed by every traced run.  A
/// layer a workload does not exercise reads 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("lp.solve_ms", "ms"),
    ("lp.share_pct", "%"),
    ("lp.pivots", "count"),
    ("lp.refactorizations", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.uninstrumented_frac", "fraction"),
    ("core.jacobian_ms", "ms"),
    ("core.jacobian_direct_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("core.key_points", "count"),
    ("syrenn.lin_regions_ms", "ms"),
    ("syrenn.regions", "count"),
    ("nn.forward_ms", "ms"),
    ("serve.batch_queue_wait_ms", "ms"),
    ("serve.batch_exec_ms", "ms"),
    ("serve.gulp_size", "count"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.cache_hit_ms", "ms"),
    ("serve.cache_miss_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.job_queue_wait_ms", "ms"),
    ("serve.repair_exec_ms", "ms"),
    ("serve.eval_p90_ms", "ms"),
    ("serve.eval_p99_ms", "ms"),
    ("serve.reads_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct Record {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Time per repair, in ms.
    pub repair_ms: Vec<f64>,
    /// Time per read, in ms, by kind.
    pub read_ms: BTreeMap<ReadKind, Vec<f64>>,
    /// Accuracy lost on the clean held-out set, per successful repair (%).
    pub drawdown_pct: Vec<f64>,
    /// Accuracy gained on the generalization set, per successful repair (%).
    pub generalization_pct: Vec<f64>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that completed and passed their check.
    pub ok: u64,
    /// Operations that did not, by kind (a `RepairError` variant, a serve
    /// `ErrorKind`, or `check_failed`).
    pub failed: BTreeMap<String, u64>,
    /// Per-layer samples, by metric name.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values measured once per run, by metric name.
    pub layer_fixed: BTreeMap<&'static str, Stat>,
    /// The worst spec violation among repairs that failed the gate.
    pub worst_violation: Option<f64>,
}

impl Record {
    /// Counts a timed operation that completed and passed its check.
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.ok += 1;
    }

    /// Counts a timed operation that failed, under `kind`.
    pub fn failed(&mut self, kind: impl Into<String>) {
        self.attempted += 1;
        *self.failed.entry(kind.into()).or_default() += 1;
    }

    /// Operations whose output failed the correctness gate.
    pub fn check_failures(&self) -> u64 {
        self.failed
            .iter()
            .filter(|(kind, _)| kind.starts_with(CHECK_FAILED))
            .map(|(_, n)| n)
            .sum()
    }

    /// Notes how far a repair that failed the gate missed its spec.
    pub fn violation(&mut self, v: f64) {
        self.worst_violation = Some(self.worst_violation.map_or(v, |w| w.max(v)));
    }

    /// Adds a per-layer sample.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.layer.entry(metric).or_default().push(value);
    }

    /// Records a read's latency.
    pub fn read(&mut self, kind: ReadKind, ms: f64) {
        self.read_ms.entry(kind).or_default().push(ms);
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    ///
    /// # Errors
    ///
    /// Names the first metric the run cannot support (no samples, or too
    /// few beyond a tail percentile).
    pub fn end_to_end(&self) -> Result<Vec<(&'static str, &'static str, Stat)>, String> {
        let empty = Vec::new();
        let reads = |k: ReadKind| self.read_ms.get(&k).unwrap_or(&empty);
        let success = Stat {
            value: self.ok as f64 / self.attempted.max(1) as f64,
            n: self.attempted as usize,
        };
        let stat = |name: &str, s: Result<Stat, TailError>| s.map_err(|e| format!("{name}: {e}"));
        let values = [
            stat("setup_s", stats::median(&self.setup_s))?,
            stat("repair_p50_ms", stats::median(&self.repair_ms))?,
            stat("repair_p90_ms", stats::percentile(&self.repair_ms, 0.9))?,
            success,
            stat("drawdown_pct", stats::mean(&self.drawdown_pct))?,
            stat("generalization_pct", stats::mean(&self.generalization_pct))?,
            stat("eval_p50_ms", stats::median(reads(ReadKind::Eval)))?,
            stat(
                "eval_cached_p50_ms",
                stats::median(reads(ReadKind::EvalCached)),
            )?,
            stat(
                "lin_regions_p50_ms",
                stats::median(reads(ReadKind::LinRegions)),
            )?,
        ];
        Ok(END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), s)| (name, unit, s))
            .collect())
    }

    /// The per-layer metrics, in [`PER_LAYER`] order.  Sampled metrics
    /// are medians (fractions and shares are means); metrics with no
    /// samples read 0 with `n` = 0.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, Stat)> {
        let none = Stat { value: 0.0, n: 0 };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let stat = if let Some(s) = self.layer_fixed.get(name) {
                    *s
                } else {
                    let samples = self.layer.get(name).map_or(&[][..], Vec::as_slice);
                    let summary = if unit == "fraction" {
                        stats::mean(samples)
                    } else {
                        stats::median(samples)
                    };
                    summary.unwrap_or(none)
                };
                (name, unit, stat)
            })
            .collect()
    }

    /// Outcome counts for the report.
    pub fn outcomes_json(&self) -> Value {
        Value::obj([
            ("attempted", Value::Num(self.attempted as f64)),
            ("ok", Value::Num(self.ok as f64)),
            (
                "worst_repair_violation",
                self.worst_violation.map_or(Value::Null, Value::Num),
            ),
            (
                "failed_by_kind",
                Value::Obj(
                    self.failed
                        .iter()
                        .map(|(k, &n)| (k.clone(), Value::Num(n as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Prefix of the failure kind of an operation whose output failed the
/// gate; the suffix names the check.
pub const CHECK_FAILED: &str = "check_failed";

/// The failure kind of an output that failed check `what`.
pub fn check_failed(what: &str) -> String {
    format!("{CHECK_FAILED}.{what}")
}

/// Metrics as the report's `name → {value, unit, n}` object.
pub fn metrics_json(metrics: &[(&'static str, &'static str, Stat)], with_n: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, unit, s)| {
                let mut fields = vec![
                    ("value".to_owned(), Value::Num(s.value)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ];
                if with_n {
                    fields.push(("n".to_owned(), Value::Num(s.n as f64)));
                }
                (name.to_owned(), Value::Obj(fields))
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with the counts written as JSON integers.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, Stat)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics, false).to_json()
    )
}

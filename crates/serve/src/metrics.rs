//! The metric registry: every counter, gauge and histogram family the
//! server exports is declared once, in the `registry!` table below.
//! Everything else is generated from that table:
//!
//! * [`Counters`] — the shared block of relaxed atomics that the batcher,
//!   the job queue and the connection handlers increment;
//! * [`ServerStats`] — its plain-`u64` snapshot, the payload of the `stats`
//!   reply, with its typed JSON codec;
//! * [`Histograms`] — one lock-free [`Histogram`] per exported series;
//! * [`families`] and the Prometheus text served by the `metrics` request
//!   ([`crate::telemetry::Telemetry::render_prometheus`]).
//!
//! Counters carry the conventional `_total` suffix; gauges are
//! point-in-time values.  Four gauges (`repair_queue_depth`,
//! `repair_in_flight`, `cache_bytes`, `cache_entries`) and the version
//! log's totals are owned by other structures (the job queue's lock, the
//! cache's lock, the [`crate::version_log::VersionLog`] backend), so the
//! server samples them into the snapshot when it takes one; their atomics
//! here stay at zero.

use crate::protocol::{read_keys, slot, take, write_key, Fault, Fields, Other};
use crate::telemetry::{bucket_upper, Histogram, HistogramSnapshot};
use crate::version_log::LogStats;
use serde::json::Reader;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One exported metric family, as its `# HELP` and `# TYPE` lines
/// announce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    /// The full Prometheus name.
    pub name: &'static str,
    /// `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
}

/// Label values of `prdnn_request_seconds{kind=...}`; the last one also
/// counts every request kind not listed.
pub const REQUEST_KINDS: [&str; 4] = ["eval", "lin_regions", "repair", "other"];
/// Label values of `prdnn_cache_service_seconds{result=...}`.
pub const CACHE_RESULTS: [&str; 2] = ["hit", "miss"];

/// Index of `value` among a labelled family's label values; values not
/// listed map to the last one.
pub(crate) fn label_index(values: &[&str], value: &str) -> usize {
    values
        .iter()
        .position(|v| *v == value)
        .unwrap_or(values.len() - 1)
}

/// Process-level gauges, rendered from the build and the server clock.
const BUILD_INFO: Family = Family {
    name: "prdnn_build_info",
    kind: "gauge",
    help: "Constant 1, labeled with the server build version.",
};
const UPTIME: Family = Family {
    name: "prdnn_uptime_seconds",
    kind: "gauge",
    help: "Seconds since the server started.",
};

/// The `# TYPE` of a counter-block entry.
macro_rules! kind {
    (counter) => {
        "counter"
    };
    (gauge) => {
        "gauge"
    };
}

/// Recorded units per exported unit: latency histograms record
/// microseconds and export seconds; `count` histograms export raw values.
macro_rules! per_unit {
    (seconds) => {
        1e6
    };
    (count) => {
        1.0
    };
}

/// `Histogram` for an unlabelled family, one per label value otherwise.
macro_rules! series_type {
    () => {
        Histogram
    };
    ($values:ident) => {
        [Histogram; $values.len()]
    };
}

/// The `name="value"` label sets of a family's series (one empty set for
/// an unlabelled family).
macro_rules! label_sets {
    () => {
        vec![String::new()]
    };
    ($label:ident $values:ident) => {
        $values
            .iter()
            .map(|v| format!("{}=\"{v}\"", stringify!($label)))
            .collect()
    };
}

/// Expands the registry table; see the module docs.  Counter and gauge
/// lines read `field: kind "name" "help";`; histogram lines read
/// `field: unit "name" "help" [label = VALUES];` where `unit` is
/// `seconds` (observations recorded in microseconds) or `count`, and the
/// label part is present only for labelled families.
macro_rules! registry {
    (
        counters { $($c:ident: $ckind:ident $cname:literal $chelp:literal;)* }
        histograms {
            $($h:ident: $unit:ident $hname:literal $hhelp:literal $([$label:ident = $values:ident])?;)*
        }
    ) => {
        /// The shared counter block: one relaxed atomic per counter and
        /// gauge.  The values the server samples from their owners (see
        /// the module docs) are never stored here.
        #[derive(Debug, Default)]
        pub struct Counters {
            $(#[doc = $chelp] pub $c: AtomicU64,)*
        }

        impl Counters {
            /// Reads every atomic into a snapshot.
            pub fn snapshot(&self) -> ServerStats {
                ServerStats { $($c: self.$c.load(Ordering::Relaxed),)* }
            }
        }

        /// A point-in-time copy of every counter and gauge: the `stats`
        /// reply.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ServerStats {
            $(#[doc = $chelp] pub $c: u64,)*
        }

        impl ServerStats {
            /// Every value, in registry order.
            fn values(&self) -> Vec<u64> {
                vec![$(self.$c),*]
            }
        }

        impl Fields for ServerStats {
            fn write_fields(&self, out: &mut String) {
                let keys = [$(stringify!($c)),*];
                for (i, (key, value)) in keys.into_iter().zip(self.values()).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_key(out, key);
                    serde::json::write_f64(out, value as f64);
                }
            }

            fn read_fields<'a>(r: &mut Reader<'a>, other: &mut Other<'_, 'a>) -> Result<Self, Fault> {
                $(let mut $c = None;)*
                read_keys(r, |key, r| match key {
                    $(stringify!($c) => slot(&mut $c, key, r),)*
                    _ => other(key, r),
                })?;
                Ok(ServerStats { $($c: take($c, stringify!($c))?,)* })
            }
        }

        const COUNTER_FAMILIES: &[Family] = &[
            $(Family { name: $cname, kind: kind!($ckind), help: $chelp },)*
        ];

        const HISTOGRAM_FAMILIES: &[Family] = &[
            $(Family { name: $hname, kind: "histogram", help: $hhelp },)*
        ];

        /// One lock-free histogram per exported series.
        #[derive(Default)]
        pub struct Histograms {
            $(#[doc = $hhelp] pub $h: series_type!($($values)?),)*
        }

        impl Histograms {
            /// Renders every histogram family.
            fn render(&self, out: &mut String) {
                let series: Vec<(Vec<String>, &[Histogram], f64)> = vec![$((
                    label_sets!($($label $values)?),
                    self.$h.series(),
                    per_unit!($unit),
                ),)*];
                for (family, (label_sets, hists, per_unit)) in HISTOGRAM_FAMILIES.iter().zip(series) {
                    header(out, family);
                    for (labels, hist) in label_sets.iter().zip(hists) {
                        render_series(out, family.name, labels, per_unit, &hist.snapshot());
                    }
                }
            }
        }
    };
}

registry! {
    counters {
        eval_requests: counter "prdnn_eval_requests_total" "eval requests answered";
        eval_batches: counter "prdnn_eval_batches_total" "batched forward calls executed";
        eval_points: counter "prdnn_eval_points_total" "input points evaluated";
        lin_requests: counter "prdnn_lin_requests_total" "lin_regions requests answered";
        lin_batches: counter "prdnn_lin_batches_total" "batched lin_regions calls executed";
        lin_polytopes: counter "prdnn_lin_polytopes_total" "polytopes decomposed";
        gulps: counter "prdnn_gulps_total" "non-empty batch queue drains";
        gulp_items: counter "prdnn_gulp_items_total" "items drained across all gulps";
        max_gulp: counter "prdnn_max_gulp_total" "largest single gulp observed";
        jobs_submitted: counter "prdnn_jobs_submitted_total" "repair jobs accepted";
        jobs_completed: counter "prdnn_jobs_completed_total" "repair jobs completed";
        jobs_failed: counter "prdnn_jobs_failed_total" "repair jobs failed";
        repair_queue_depth: gauge "prdnn_repair_queue_depth" "repair jobs currently queued";
        repair_in_flight: gauge "prdnn_repair_in_flight" "repair jobs currently executing";
        wal_appends: counter "prdnn_wal_appends_total" "WAL records appended and fsynced";
        wal_bytes: counter "prdnn_wal_bytes_total" "bytes appended to the WAL";
        snapshots: counter "prdnn_snapshots_total" "snapshot/compaction cycles";
        recovered_versions: counter "prdnn_recovered_versions_total" "versions recovered at cold start";
        recovered_wal_records: counter "prdnn_recovered_wal_records_total" "WAL tail records replayed at cold start";
        torn_tail_bytes: counter "prdnn_torn_tail_bytes_total" "WAL tail bytes dropped during recovery";
        wal_failed_appends: counter "prdnn_wal_failed_appends_total" "WAL appends that failed and rolled back";
        conns_opened: counter "prdnn_conns_opened_total" "connections accepted";
        conns_rejected: counter "prdnn_conns_rejected_total" "connections rejected at the cap";
        open_connections: gauge "prdnn_open_connections" "connections currently open";
        io_timeouts: counter "prdnn_io_timeouts_total" "connections closed on socket timeout";
        batch_shed: counter "prdnn_batch_shed_total" "batch requests shed as overloaded";
        jobs_shed: counter "prdnn_jobs_shed_total" "repair jobs shed as overloaded";
        cache_hits: counter "prdnn_cache_hits_total" "result cache hits";
        cache_misses: counter "prdnn_cache_misses_total" "result cache misses";
        cache_inserts: counter "prdnn_cache_inserts_total" "result cache inserts";
        cache_evictions: counter "prdnn_cache_evictions_total" "result cache evictions";
        cache_fill_skips: counter "prdnn_cache_fill_skips_total" "cache fills skipped for expired deadlines";
        cache_bytes: gauge "prdnn_cache_bytes" "payload bytes held by the result cache";
        cache_entries: gauge "prdnn_cache_entries" "entries resident in the result cache";
        deadline_expired: counter "prdnn_deadline_expired_total" "requests expired before execution";
        lin_rescue_calls: counter "prdnn_lin_rescue_calls_total" "per-polytope lin_regions rescue re-runs";
        lp_pivots: counter "prdnn_lp_pivots_total" "simplex pivots across completed repairs";
        lp_refactorizations: counter "prdnn_lp_refactorizations_total" "LP basis refactorisations across completed repairs";
    }
    histograms {
        request_e2e: seconds "prdnn_request_seconds" "End-to-end server time per request, by request kind." [kind = REQUEST_KINDS];
        batch_queue_wait: seconds "prdnn_batch_queue_wait_seconds" "Time a batched call waited in the batcher queue before its gulp.";
        batch_exec: seconds "prdnn_batch_exec_seconds" "Pool execution time of one (is_eval, version) batch group.";
        gulp_size: count "prdnn_gulp_size" "Queued calls taken per batcher gulp.";
        job_queue_wait: seconds "prdnn_job_queue_wait_seconds" "Time a repair job waited in the job queue before a worker picked it up.";
        lp_solve: seconds "prdnn_lp_solve_seconds" "Repair execution time per job attempt: Jacobians, LP build and solve, and applying the delta.";
        wal_fsync: seconds "prdnn_wal_fsync_seconds" "WAL append + fsync time per appended version record.";
        cache_service: seconds "prdnn_cache_service_seconds" "Submit-to-reply service time of batched calls, by cache result." [result = CACHE_RESULTS];
    }
}

/// Every exported family, in exposition order.
pub fn families() -> impl Iterator<Item = &'static Family> {
    COUNTER_FAMILIES
        .iter()
        .chain(HISTOGRAM_FAMILIES)
        .chain([&BUILD_INFO, &UPTIME])
}

/// A family's series as a slice: one histogram, or one per label value.
trait Series {
    fn series(&self) -> &[Histogram];
}

impl Series for Histogram {
    fn series(&self) -> &[Histogram] {
        std::slice::from_ref(self)
    }
}

impl<const N: usize> Series for [Histogram; N] {
    fn series(&self) -> &[Histogram] {
        self
    }
}

fn header(out: &mut String, family: &Family) {
    let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
    let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
}

/// One histogram series: cumulative counts of the non-empty buckets at
/// their upper bounds (occupied resolution only, not 1056 lines), the
/// mandatory `+Inf` bucket, `_sum` and `_count`.  Bounds and sums are
/// divided by `per_unit` (1e6 turns recorded microseconds into seconds).
fn render_series(
    out: &mut String,
    name: &str,
    labels: &str,
    per_unit: f64,
    snap: &HistogramSnapshot,
) {
    let scaled = |v: u64| v as f64 / per_unit;
    let prefix = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    let mut cum = 0u64;
    for (i, &b) in snap.buckets.iter().enumerate().filter(|(_, &b)| b > 0) {
        cum += b;
        let _ = writeln!(
            out,
            "{name}_bucket{{{prefix}le=\"{}\"}} {cum}",
            scaled(bucket_upper(i))
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"+Inf\"}} {}", snap.count);
    let braced = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{braced} {}", scaled(snap.sum));
    let _ = writeln!(out, "{name}_count{braced} {}", snap.count);
}

impl ServerStats {
    /// Renders every counter and gauge in Prometheus text exposition
    /// format: `# HELP` / `# TYPE` / sample, one triple per metric.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (family, value) in COUNTER_FAMILIES.iter().zip(self.values()) {
            header(&mut out, family);
            let _ = writeln!(out, "{} {value}", family.name);
        }
        out
    }

    /// Copies the version log's own totals into the snapshot.
    pub(crate) fn set_log_stats(&mut self, log: LogStats) {
        let LogStats {
            wal_appends,
            wal_bytes,
            snapshots,
            wal_failed_appends,
            recovered_versions,
            recovered_wal_records,
            torn_tail_bytes,
        } = log;
        self.wal_appends = wal_appends;
        self.wal_bytes = wal_bytes;
        self.snapshots = snapshots;
        self.wal_failed_appends = wal_failed_appends;
        self.recovered_versions = recovered_versions;
        self.recovered_wal_records = recovered_wal_records;
        self.torn_tail_bytes = torn_tail_bytes;
    }
}

/// The full `metrics` exposition: counters and gauges from `stats`, the
/// histogram families, then process info.
pub fn exposition(stats: &ServerStats, hist: &Histograms, uptime_seconds: f64) -> String {
    let mut out = stats.to_prometheus();
    hist.render(&mut out);
    header(&mut out, &BUILD_INFO);
    let _ = writeln!(
        out,
        "{}{{version=\"{}\"}} 1",
        BUILD_INFO.name,
        env!("CARGO_PKG_VERSION")
    );
    header(&mut out, &UPTIME);
    let _ = writeln!(out, "{} {uptime_seconds}", UPTIME.name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_exposition_announces_exactly_the_registry() {
        let text = exposition(&ServerStats::default(), &Histograms::default(), 1.5);
        let announced: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
            .collect();
        let registry: Vec<(&str, &str)> = families().map(|f| (f.name, f.kind)).collect();
        assert_eq!(announced, registry);
        let names: BTreeSet<&str> = registry.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), registry.len(), "duplicate family name");
        // Naming conventions, checked once at the source: counters end in
        // `_total`, nothing else does, and every name is namespaced.
        for (name, kind) in registry {
            assert!(name.starts_with("prdnn_"), "{name}");
            assert_eq!(name.ends_with("_total"), kind == "counter", "{name}");
        }
    }

    #[test]
    fn label_values_index_their_series_and_unlisted_kinds_count_as_other() {
        let hist = Histograms::default();
        assert_eq!(hist.request_e2e.len(), REQUEST_KINDS.len());
        assert_eq!(hist.cache_service.len(), CACHE_RESULTS.len());
        assert_eq!(label_index(&REQUEST_KINDS, "lin_regions"), 1);
        assert_eq!(label_index(&REQUEST_KINDS, "get_network"), 3);
        assert_eq!(label_index(&CACHE_RESULTS, "miss"), 1);
    }
}

//! `reprobench` — the end-to-end benchmark of the repair pipeline and the
//! serving stack.
//!
//! ```text
//! cargo run --release --manifest-path reprobench/Cargo.toml -- \
//!     --workload point_repair|polytope_repair|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs a fixed, seeded sequence of operations whose length
//! is set by `--seconds` (so that the timed phase lasts about that long on
//! a 2-vCPU host), preceded by one untimed warm-up operation.  Every timed
//! output is checked outside the timed call; a failed check fails the run.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` the workload runs twice on the same seed — untraced,
//! then traced — and the last line carries the per-layer metrics of the
//! traced pass plus the tracing overhead; the spans are written to
//! `reprobench/out/`.  The line before the last is the full report: every
//! metric with its sample count, failures by kind, and the host stamps.

mod gate;
mod library;
mod report;
mod seq;
mod serve_mixed;
mod stats;
mod trace;

use report::Record;
use serde::json::Value;
use stats::Stat;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["point_repair", "polytope_repair", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.clamp(1, 600),
        trace: trace.unwrap_or(false),
    })
}

/// One pass over the workload.
fn run_pass(args: &Args, traced: bool) -> (Record, Tracer) {
    let mut rec = Record::default();
    let mut tracer = Tracer::new(traced);
    let run = match args.workload.as_str() {
        "point_repair" => library::point_repair,
        "polytope_repair" => library::polytope_repair,
        _ => serve_mixed::serve_mixed,
    };
    run(args.seed, args.seconds, &mut rec, &mut tracer);
    (rec, tracer)
}

/// Median wall time in ms of a fixed integer/float loop, a yardstick for
/// the host's speed at the time of the run.
fn reference_loop_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut acc = 0.0f64;
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += (x >> 11) as f64 * 1e-16;
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// The repository root (this package's parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The source revision: the git commit when the checkout is a git
/// repository, otherwise an FNV-1a digest of the Rust sources and
/// manifests the benchmark builds from.
fn revision() -> String {
    let root = repo_root();
    let git = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("reprobench").join("src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        let name = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x}")
}

fn stamps(ref_before: f64, ref_after: f64) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("host_cores", Value::Num(cores as f64)),
        (
            "pool_threads",
            Value::Num(prdnn_par::default_threads() as f64),
        ),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
        ("revision", Value::Str(revision())),
        ("reference_loop_ms_before", Value::Num(ref_before)),
        ("reference_loop_ms_after", Value::Num(ref_after)),
    ])
}

/// Writes the traced pass's spans; returns the file's path.
fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let doc = Value::obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("spans", tracer.to_json()),
    ]);
    std::fs::write(&path, doc.to_json())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reprobench: {e}");
            eprintln!(
                "usage: reprobench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ref_before = reference_loop_ms();
    let (untraced, _) = run_pass(&args, false);
    let traced = args.trace.then(|| run_pass(&args, true));
    let ref_after = reference_loop_ms();

    let e2e = match untraced.end_to_end() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("reprobench: the run cannot support a metric: {e}");
            return ExitCode::FAILURE;
        }
    };
    let check_failures =
        untraced.check_failures() + traced.as_ref().map_or(0, |(r, _)| r.check_failures());
    let correct = check_failures == 0;

    let mut report = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("stamps", stamps(ref_before, ref_after)),
        ("outcomes", untraced.outcomes_json()),
        ("end_to_end", report::metrics_json(&e2e, true)),
    ];
    let (attempted, failed, metrics) = match &traced {
        None => (untraced.attempted, untraced.attempted - untraced.ok, e2e),
        Some((rec, tracer)) => {
            let traced_e2e = match rec.end_to_end() {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("reprobench: the traced run cannot support a metric: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Tracing overhead: each end-to-end number of the traced pass
            // minus the untraced pass's.
            let overhead: Vec<(&'static str, &'static str, Stat)> = e2e
                .iter()
                .zip(&traced_e2e)
                .map(|(&(name, unit, off), &(_, _, on))| {
                    (
                        name,
                        unit,
                        Stat {
                            value: on.value - off.value,
                            n: on.n,
                        },
                    )
                })
                .collect();
            let repair_p50 = |m: &[(&str, &str, Stat)]| {
                m.iter()
                    .find(|(name, _, _)| *name == "repair_p50_ms")
                    .map(|&(_, _, s)| s)
                    .expect("repair_p50_ms is an end-to-end metric")
            };
            let (off, on) = (repair_p50(&e2e), repair_p50(&traced_e2e));
            let mut per_layer = rec.per_layer();
            for (name, _, stat) in &mut per_layer {
                if *name == "trace.overhead_pct" {
                    *stat = Stat {
                        value: 100.0 * (on.value - off.value) / off.value,
                        n: on.n,
                    };
                }
            }
            report.push(("traced_outcomes", rec.outcomes_json()));
            report.push(("trace_overhead", report::metrics_json(&overhead, true)));
            report.push(("per_layer", report::metrics_json(&per_layer, true)));
            report.push(("spans", Value::Num(tracer.len() as f64)));
            match write_spans(&args, tracer) {
                Ok(path) => report.push(("spans_file", Value::Str(path.display().to_string()))),
                Err(e) => eprintln!("reprobench: could not write the spans: {e}"),
            }
            (rec.attempted, rec.attempted - rec.ok, per_layer)
        }
    };
    println!("{}", Value::obj(report).to_json());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("reprobench: {check_failures} operation(s) failed the correctness gate");
        ExitCode::FAILURE
    }
}

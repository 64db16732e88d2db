//! Kernel benchmark rig: honest statistics for the hot numeric paths.
//!
//! Measures the blocked GEMM kernels against the naive oracle (with a
//! bitwise oracle check on every run — a mismatch fails the process, which
//! is what CI keys off), plus the end-to-end workloads the repair pipeline
//! spends its time in: `Network::forward_batch`, the DDNN parameter
//! Jacobian (on an MLP and on the Task 1 CNN), the Task 1 CNN's conv
//! pre-activations, the DDNN eval on the Task 1 CNN, ExactLine on the
//! Task 1 CNN, and SyReNN `plane_regions`.  Each conv and DDNN eval case
//! first checks its batch result against per-point calls bit for bit (the
//! per-point calls take the naive GEMM path and both DDNN channels, the
//! batches the blocked GEMM and, on `(x, x)` pairs, one pre-activation per
//! shared layer) and fails the process on a mismatch; the ExactLine case
//! fails it when any run's breakpoints differ from the first run's in a
//! single bit.  Pool workloads are swept at `--threads 1/2/4`.
//!
//! Every case runs at least [`prdnn_bench::stats::MIN_RUNS`] times and is
//! reported as **median + IQR**, never a single sample.  The report also
//! records `host_cores`: on a 1-core container the thread sweep measures
//! pool overhead, not speedup, and the JSON says so instead of letting a
//! reader mistake the sweep for a multicore scaling claim.  A fixed
//! reference loop, timed before and after the cases
//! (`reference_loop_ms_before` / `_after`), tells a run taken while the
//! host was slow from a slower build.
//!
//! ```text
//! cargo run --release -p prdnn-bench --bin kernelbench -- \
//!     [--runs N] [--quick] [--out BENCH_kernels.json]
//! ```

use prdnn_bench::scale::{Scale, Task1Params};
use prdnn_bench::stats::{summarize, time_runs, Summary, MIN_RUNS};
use prdnn_bench::task1;
use prdnn_core::DecoupledNetwork;
use prdnn_linalg::gemm;
use prdnn_nn::{Activation, FlatBatch, Network};
use prdnn_par::ThreadPool;
use prdnn_syrenn::{exact_line, plane_regions_in};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;
use std::time::Instant;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Median wall time in ms of a fixed integer/float loop, a yardstick for
/// the host's speed at the time of the run (the same loop as the repo
/// benchmark's `reference_loop_ms`).
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

struct Case {
    name: String,
    config: Vec<(&'static str, Value)>,
    threads: Option<usize>,
    summary: Summary,
    /// `naive_median / blocked_median` for kernels with an oracle twin.
    speedup_vs_naive: Option<f64>,
}

fn case_to_json(case: &Case) -> Value {
    let mut fields = vec![
        ("name", Value::Str(case.name.clone())),
        (
            "config",
            Value::Obj(
                case.config
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        ),
        ("runs_ms", Value::num_array(&case.summary.runs_ms)),
        ("median_ms", Value::Num(case.summary.median_ms)),
        ("iqr_ms", Value::Num(case.summary.iqr_ms)),
    ];
    if let Some(threads) = case.threads {
        fields.push(("threads", Value::Num(threads as f64)));
    }
    if let Some(speedup) = case.speedup_vs_naive {
        fields.push(("speedup_vs_naive", Value::Num(speedup)));
    }
    Value::obj(fields)
}

/// Bitwise oracle comparison; a blocked kernel that disagrees with the
/// naive triple loop (or a batch path with its per-point calls) on even
/// one bit is a correctness bug, not a rounding footnote, so the whole
/// bench fails.
fn check_oracle(name: &str, blocked: &[f64], naive: &[f64]) {
    let ok = blocked.len() == naive.len()
        && blocked
            .iter()
            .zip(naive)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if !ok {
        eprintln!("ORACLE MISMATCH: {name} diverged from its reference");
        std::process::exit(1);
    }
}

fn gemm_cases(runs: usize, cases: &mut Vec<Case>) {
    // The acceptance-criteria shape: a 256->256 dense layer applied to a
    // 64-point key-point batch (m=64, k=256, n=256).
    let (m, k, n) = (64, 256, 256);
    let mut rng = StdRng::seed_from_u64(17);
    let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let bt: Vec<f64> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
    let mut c = vec![0.0; m * n];
    let mut c_ref = vec![0.0; m * n];
    let config = vec![
        ("m", Value::Num(m as f64)),
        ("k", Value::Num(k as f64)),
        ("n", Value::Num(n as f64)),
    ];

    let naive = summarize(time_runs(runs, || {
        gemm::gemm_naive(m, k, n, &a, &b, &mut c_ref)
    }));
    let blocked = summarize(time_runs(runs, || gemm::gemm_nn(m, k, n, &a, &b, &mut c)));
    check_oracle("gemm_nn_256x256_b64", &c, &c_ref);
    let nt = summarize(time_runs(runs, || gemm::gemm_nt(m, k, n, &a, &bt, &mut c)));
    check_oracle("gemm_nt_256x256_b64", &c, &c_ref);

    let (mv_m, mv_k) = (256, 256);
    let x = &a[..mv_k];
    let mut y = vec![0.0; mv_m];
    let gemv = summarize(time_runs(runs, || gemm::gemv(mv_m, mv_k, &b, x, &mut y)));
    let y_ref: Vec<f64> = (0..mv_m)
        .map(|r| gemm::dot(&b[r * mv_k..(r + 1) * mv_k], x))
        .collect();
    check_oracle("gemv_256x256", &y, &y_ref);

    let naive_median = naive.median_ms;
    for (name, summary) in [
        ("gemm_naive_256x256_b64", naive),
        ("gemm_nn_256x256_b64", blocked),
        ("gemm_nt_256x256_b64", nt),
    ] {
        let speedup = (name != "gemm_naive_256x256_b64").then(|| naive_median / summary.median_ms);
        cases.push(Case {
            name: name.to_owned(),
            config: config.clone(),
            threads: None,
            summary,
            speedup_vs_naive: speedup,
        });
    }
    cases.push(Case {
        name: "gemv_256x256".to_owned(),
        config: vec![
            ("m", Value::Num(mv_m as f64)),
            ("k", Value::Num(mv_k as f64)),
        ],
        threads: None,
        summary: gemv,
        speedup_vs_naive: None,
    });
}

fn forward_batch_cases(runs: usize, cases: &mut Vec<Case>) {
    let mut rng = StdRng::seed_from_u64(23);
    let net = Network::mlp(&[256, 256, 256, 256, 10], Activation::Relu, &mut rng);
    let batch: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let config = vec![
        ("net", Value::Str("mlp 256x256x256x256x10".to_owned())),
        ("batch", Value::Num(batch.len() as f64)),
    ];
    let serial = net.forward_batch(&batch);
    for threads in THREAD_SWEEP {
        let pool = ThreadPool::new(threads);
        let summary = summarize(time_runs(runs, || {
            let out = net.forward_batch_in(&pool, &batch);
            assert_eq!(out, serial, "forward_batch_in diverged from serial");
        }));
        cases.push(Case {
            name: "forward_batch_mlp256_b64".to_owned(),
            config: config.clone(),
            threads: Some(threads),
            summary,
            speedup_vs_naive: None,
        });
    }
}

fn jacobian_cases(runs: usize, cases: &mut Vec<Case>) {
    let mut rng = StdRng::seed_from_u64(29);
    let net = Network::mlp(&[49, 24, 24, 10], Activation::Relu, &mut rng);
    let ddnn = DecoupledNetwork::from_network(&net);
    let points: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..49).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let pairs: Vec<(&[f64], &[f64])> = points.iter().map(|p| (&p[..], &p[..])).collect();
    let config = vec![
        ("net", Value::Str("mlp 49x24x24x10".to_owned())),
        ("points", Value::Num(pairs.len() as f64)),
        ("layer", Value::Num(1.0)),
    ];
    let serial = ddnn.value_param_jacobian_batch(1, &pairs);
    for threads in THREAD_SWEEP {
        let pool = ThreadPool::new(threads);
        let summary = summarize(time_runs(runs, || {
            let out = ddnn.value_param_jacobian_batch_in(&pool, 1, &pairs);
            assert_eq!(out, serial, "jacobian_batch_in diverged from serial");
        }));
        cases.push(Case {
            name: "jacobian_batch_mlp49_b64".to_owned(),
            config: config.clone(),
            threads: Some(threads),
            summary,
            speedup_vs_naive: None,
        });
    }
}

/// The trained Task 1 CNN (`tiny` scale), its drawdown images and its
/// repair pool.
fn task1_cnn() -> (Network, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let setup = task1::setup(&Task1Params::for_scale(Scale::Tiny));
    (
        setup.network,
        setup.drawdown_set.inputs,
        setup.repair_pool.inputs,
    )
}

fn conv_forward_cases(runs: usize, net: &Network, images: &[Vec<f64>], cases: &mut Vec<Case>) {
    let (conv1, pool1, conv2) = (net.layer(0), net.layer(1), net.layer(2));
    for batch in [15, 64] {
        let pixels = FlatBatch::from_rows(net.input_dim(), &images[..batch]);
        let features = pool1.forward_batch_flat(&conv1.forward_batch_flat(&pixels));
        for (idx, layer, inputs) in [(0, conv1, &pixels), (2, conv2, &features)] {
            let name = format!("conv_forward_batch_l{idx}_b{batch}");
            let per_point: Vec<f64> = inputs.rows().flat_map(|x| layer.preactivation(x)).collect();
            check_oracle(
                &name,
                layer.preactivation_batch_flat(inputs).as_slice(),
                &per_point,
            );
            let summary = summarize(time_runs(runs, || {
                std::hint::black_box(layer.preactivation_batch_flat(inputs));
            }));
            cases.push(Case {
                name,
                config: vec![
                    ("net", Value::Str("task1 cnn (tiny)".to_owned())),
                    ("layer", Value::Num(idx as f64)),
                    ("batch", Value::Num(batch as f64)),
                ],
                threads: None,
                summary,
                speedup_vs_naive: None,
            });
        }
    }
}

fn jacobian_cnn_cases(runs: usize, net: &Network, images: &[Vec<f64>], cases: &mut Vec<Case>) {
    let ddnn = DecoupledNetwork::from_network(net);
    let pairs: Vec<(&[f64], &[f64])> = images[..15].iter().map(|p| (&p[..], &p[..])).collect();
    let config = vec![
        ("net", Value::Str("task1 cnn (tiny)".to_owned())),
        ("points", Value::Num(pairs.len() as f64)),
        ("layer", Value::Num(2.0)),
    ];
    let serial = ddnn.value_param_jacobian_batch(2, &pairs);
    for (p, (a, v)) in pairs.iter().enumerate() {
        check_oracle(
            &format!("jacobian_batch_cnn point {p}"),
            serial[p].as_slice(),
            ddnn.value_param_jacobian(2, a, v).as_slice(),
        );
    }
    for threads in THREAD_SWEEP {
        let pool = ThreadPool::new(threads);
        let summary = summarize(time_runs(runs, || {
            let out = ddnn.value_param_jacobian_batch_in(&pool, 2, &pairs);
            assert_eq!(out, serial, "jacobian_batch_in diverged from serial");
        }));
        cases.push(Case {
            name: "jacobian_batch_cnn".to_owned(),
            config: config.clone(),
            threads: Some(threads),
            summary,
            speedup_vs_naive: None,
        });
    }
}

/// The DDNN eval of `reprobench`'s `point_repair`: `forward_decoupled_batch`
/// on 4-image batches of `(x, x)` pairs, on the unrepaired Task 1 CNN and
/// on a copy whose value channel is perturbed at layer idx 2 (the layer
/// `point_repair` repairs), so that the batched pass shares every layer
/// and layers 0–1 respectively.  Each batch must match per-point
/// [`DecoupledNetwork::forward`] bit for bit.
fn ddnn_eval_cnn_cases(runs: usize, net: &Network, images: &[Vec<f64>], cases: &mut Vec<Case>) {
    let unrepaired = DecoupledNetwork::from_network(net);
    let mut repaired = unrepaired.clone();
    let delta: Vec<f64> = (0..repaired.value_layer(2).num_params())
        .map(|i| 0.05 * (0.37 * i as f64).sin())
        .collect();
    repaired.apply_value_delta(2, &delta);
    let batches: Vec<Vec<(&[f64], &[f64])>> = images[..64]
        .chunks(4)
        .map(|chunk| chunk.iter().map(|x| (&x[..], &x[..])).collect())
        .collect();
    for (ddnn, repaired_layer) in [(&unrepaired, Value::Null), (&repaired, Value::Num(2.0))] {
        for batch in &batches {
            let per_point: Vec<f64> = batch.iter().flat_map(|(x, _)| ddnn.forward(x)).collect();
            let batched: Vec<f64> = ddnn.forward_decoupled_batch(batch).concat();
            check_oracle("ddnn_eval_cnn_b4", &batched, &per_point);
        }
        let summary = summarize(time_runs(runs, || {
            for batch in &batches {
                std::hint::black_box(ddnn.forward_decoupled_batch(batch));
            }
        }));
        cases.push(Case {
            name: "ddnn_eval_cnn_b4".to_owned(),
            config: vec![
                ("net", Value::Str("task1 cnn (tiny)".to_owned())),
                ("batch", Value::Num(4.0)),
                ("batches", Value::Num(batches.len() as f64)),
                ("repaired_layer", repaired_layer),
            ],
            threads: None,
            summary,
            speedup_vs_naive: None,
        });
    }
}

/// ExactLine along 16 fixed segments between repair-pool images, the
/// `LinRegions` read of `reprobench`'s `point_repair`.  Every run must
/// reproduce the first run's breakpoints bit for bit.
fn exact_line_cnn_case(runs: usize, net: &Network, pool: &[Vec<f64>], cases: &mut Vec<Case>) {
    let n = pool.len();
    let segments: Vec<(&[f64], &[f64])> = (0..16)
        .map(|k| (&pool[k % n][..], &pool[(k + 1 + k / n) % n][..]))
        .collect();
    let all_ts = || -> Vec<u64> {
        segments
            .iter()
            .flat_map(|&(a, b)| exact_line(net, a, b).expect("PWL network, distinct endpoints"))
            .map(f64::to_bits)
            .collect()
    };
    let first = all_ts();
    let regions = first.len() - segments.len();
    let summary = summarize(time_runs(runs, || {
        if all_ts() != first {
            eprintln!("ORACLE MISMATCH: exact_line_task1_cnn changed its breakpoints between runs");
            std::process::exit(1);
        }
    }));
    cases.push(Case {
        name: "exact_line_task1_cnn".to_owned(),
        config: vec![
            ("net", Value::Str("task1 cnn (tiny)".to_owned())),
            ("segments", Value::Num(segments.len() as f64)),
            ("regions", Value::Num(regions as f64)),
        ],
        threads: None,
        summary,
        speedup_vs_naive: None,
    });
}

fn plane_regions_cases(runs: usize, cases: &mut Vec<Case>) {
    let mut rng = StdRng::seed_from_u64(9);
    // The bench_plane_regions headline workload: a deep ACAS-style slice.
    let net = Network::mlp(&[5, 24, 24, 24, 24, 24, 5], Activation::Relu, &mut rng);
    let square = vec![
        vec![-0.5, -0.5, 0.1, 0.2, 0.3],
        vec![0.5, -0.5, 0.1, 0.2, 0.3],
        vec![0.5, 0.5, 0.1, 0.2, 0.3],
        vec![-0.5, 0.5, 0.1, 0.2, 0.3],
    ];
    let serial_pool = ThreadPool::new(1);
    let serial = plane_regions_in(&serial_pool, &net, &square).unwrap();
    let config = vec![
        ("net", Value::Str("mlp 5x24^5x5".to_owned())),
        ("pieces", Value::Num(serial.len() as f64)),
    ];
    for threads in THREAD_SWEEP {
        let pool = ThreadPool::new(threads);
        let summary = summarize(time_runs(runs, || {
            let out = plane_regions_in(&pool, &net, &square).unwrap();
            assert_eq!(out, serial, "plane_regions_in diverged from serial");
        }));
        cases.push(Case {
            name: "plane_regions_acas_slice".to_owned(),
            config: config.clone(),
            threads: Some(threads),
            summary,
            speedup_vs_naive: None,
        });
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = prdnn_bench::flag_value("--runs")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick { MIN_RUNS } else { 9 })
        .max(MIN_RUNS);
    let out_path =
        prdnn_bench::flag_value("--out").unwrap_or_else(|| "BENCH_kernels.json".to_owned());
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    let reference_before = reference_loop_ms();
    let mut cases = Vec::new();
    gemm_cases(runs, &mut cases);
    forward_batch_cases(runs, &mut cases);
    jacobian_cases(runs, &mut cases);
    let (cnn, images, pool) = task1_cnn();
    conv_forward_cases(runs, &cnn, &images, &mut cases);
    jacobian_cnn_cases(runs, &cnn, &images, &mut cases);
    ddnn_eval_cnn_cases(runs, &cnn, &images, &mut cases);
    exact_line_cnn_case(runs, &cnn, &pool, &mut cases);
    plane_regions_cases(runs, &mut cases);
    let reference_after = reference_loop_ms();

    for case in &cases {
        let threads = case
            .threads
            .map_or(String::new(), |t| format!(" threads={t}"));
        let speedup = case
            .speedup_vs_naive
            .map_or(String::new(), |s| format!(" speedup_vs_naive={s:.2}x"));
        let repaired = case
            .config
            .iter()
            .find(|(key, _)| *key == "repaired_layer")
            .map_or(String::new(), |(_, layer)| {
                format!(" repaired_layer={}", layer.to_json())
            });
        eprintln!(
            "{:<28}{threads:<11} median {:>8.3} ms  iqr {:>7.3} ms{speedup}{repaired}",
            case.name, case.summary.median_ms, case.summary.iqr_ms
        );
    }
    eprintln!(
        "reference loop: {reference_before:.1} ms before the cases, {reference_after:.1} ms after"
    );

    let doc = Value::obj([
        ("bench", Value::Str("kernelbench".to_owned())),
        ("runs_per_case", Value::Num(runs as f64)),
        ("host_cores", Value::Num(host_cores as f64)),
        ("reference_loop_ms_before", Value::Num(reference_before)),
        ("reference_loop_ms_after", Value::Num(reference_after)),
        (
            "note",
            Value::Str(
                "thread sweeps on a host with fewer cores than threads measure pool \
                 overhead, not speedup; compare threads>1 medians to threads=1 only \
                 when host_cores >= threads"
                    .to_owned(),
            ),
        ),
        (
            "cases",
            Value::Arr(cases.iter().map(case_to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json() + "\n").expect("write bench report");
    eprintln!("wrote {out_path} ({} cases, {runs} runs each)", cases.len());
}

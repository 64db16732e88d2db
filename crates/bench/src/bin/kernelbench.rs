//! Kernel benchmark rig: honest statistics for the hot numeric paths.
//!
//! Measures the blocked GEMM kernels against the naive oracle (with a
//! bitwise oracle check on every run — a mismatch fails the process, which
//! is what CI keys off), plus the end-to-end workloads the repair pipeline
//! spends its time in: `Network::forward_batch`, the DDNN parameter
//! Jacobian (on an MLP and on the Task 1 CNN), the Task 1 CNN's conv
//! pre-activations, and SyReNN `plane_regions`.  Each conv case first
//! checks its batch result against per-point calls bit for bit (the
//! per-point calls take the naive GEMM path, the batches the blocked one)
//! and fails the process on a mismatch.  Pool workloads are swept at
//! `--threads 1/2/4`.
//!
//! Every case runs at least [`prdnn_bench::stats::MIN_RUNS`] times and is
//! reported as **median + IQR**, never a single sample.  The report also
//! records `host_cores`: on a 1-core container the thread sweep measures
//! pool overhead, not speedup, and the JSON says so instead of letting a
//! reader mistake the sweep for a multicore scaling claim.
//!
//! ```text
//! cargo run --release -p prdnn-bench --bin kernelbench -- \
//!     [--runs N] [--quick] [--out BENCH_kernels.json]
//! ```

use prdnn_bench::scale::{Scale, Task1Params};
use prdnn_bench::stats::{summarize, time_runs, Summary, MIN_RUNS};
use prdnn_core::DecoupledNetwork;
use prdnn_datasets::imagenet_like;
use prdnn_linalg::gemm;
use prdnn_nn::{Activation, FlatBatch, Network};
use prdnn_par::ThreadPool;
use prdnn_syrenn::plane_regions_in;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

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

/// The trained Task 1 CNN (`tiny` scale) and its drawdown images.
fn task1_cnn() -> (Network, Vec<Vec<f64>>) {
    let params = Task1Params::for_scale(Scale::Tiny);
    let task = imagenet_like::object_task(params.seed, params.train_size, params.validation_size);
    (task.network, task.validation.inputs)
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

    let mut cases = Vec::new();
    gemm_cases(runs, &mut cases);
    forward_batch_cases(runs, &mut cases);
    jacobian_cases(runs, &mut cases);
    let (cnn, images) = task1_cnn();
    conv_forward_cases(runs, &cnn, &images, &mut cases);
    jacobian_cnn_cases(runs, &cnn, &images, &mut cases);
    plane_regions_cases(runs, &mut cases);

    for case in &cases {
        let threads = case
            .threads
            .map_or(String::new(), |t| format!(" threads={t}"));
        let speedup = case
            .speedup_vs_naive
            .map_or(String::new(), |s| format!(" speedup_vs_naive={s:.2}x"));
        eprintln!(
            "{:<28}{threads:<11} median {:>8.3} ms  iqr {:>7.3} ms{speedup}",
            case.name, case.summary.median_ms, case.summary.iqr_ms
        );
    }

    let doc = Value::obj([
        ("bench", Value::Str("kernelbench".to_owned())),
        ("runs_per_case", Value::Num(runs as f64)),
        ("host_cores", Value::Num(host_cores as f64)),
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

//! Micro-benchmark: Provable Point Repair (Algorithm 1) as the number of
//! repair points grows — the scaling dimension of Table 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prdnn_core::{paper_example, repair_points, PointSpec, RepairConfig};
use prdnn_nn::{Activation, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_point_repair(c: &mut Criterion) {
    // The paper's running example (Equation 2).
    let n1 = paper_example::n1();
    let eq2 = paper_example::equation_2_spec();
    c.bench_function("point_repair_running_example", |b| {
        b.iter(|| repair_points(&n1, 0, &eq2, &RepairConfig::default()).unwrap())
    });

    // A classifier with growing repair-set sizes.
    let mut rng = StdRng::seed_from_u64(3);
    let net = Network::mlp(&[10, 24, 16, 5], Activation::Relu, &mut rng);
    let mut group = c.benchmark_group("point_repair_classifier");
    for &n_points in &[4usize, 8, 16] {
        let points: Vec<Vec<f64>> = (0..n_points)
            .map(|_| (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let labels: Vec<usize> = (0..n_points).map(|i| i % 5).collect();
        let spec = PointSpec::from_classification(&points, &labels, 5, 1e-4);
        group.bench_with_input(BenchmarkId::from_parameter(n_points), &spec, |b, spec| {
            b.iter(|| repair_points(&net, 2, spec, &RepairConfig::default()).ok())
        });
    }
    group.finish();

    // A *wide* repair LP: a wider classifier repaired at its last layer
    // gives the block-sparse shape the repair LPs have (650 parameters ->
    // ~1500 LP columns, one block of 9-face rows per key point).
    let wide = Network::mlp(&[10, 48, 64, 10], Activation::Relu, &mut rng);
    let points: Vec<Vec<f64>> = (0..24)
        .map(|_| (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 10).collect();
    let spec = PointSpec::from_classification(&points, &labels, 10, 1e-4);
    c.bench_function("point_repair_wide", |b| {
        b.iter(|| repair_points(&wide, 2, &spec, &RepairConfig::default()).ok())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_point_repair
}
criterion_main!(benches);

//! Micro-benchmark: the LP solver on repair-shaped programs (free
//! variables, ≤ constraints, ℓ1 objective), with dense rows and in the wide
//! block-sparse shape the repair LPs actually have.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prdnn_lp::{ConstraintOp, LpProblem, VarKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn repair_shaped_lp(num_vars: usize, num_rows: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new();
    let vars = lp.add_vars(num_vars, VarKind::Free);
    // Feasible by construction: a witness point satisfies every row.
    let witness: Vec<f64> = (0..num_vars).map(|_| rng.gen_range(-0.5..0.5)).collect();
    for _ in 0..num_rows {
        let coeffs: Vec<f64> = (0..num_vars).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let rhs: f64 =
            coeffs.iter().zip(&witness).map(|(c, w)| c * w).sum::<f64>() + rng.gen_range(0.01..0.5);
        let terms: Vec<_> = vars.iter().copied().zip(coeffs).collect();
        lp.add_constraint(&terms, ConstraintOp::Le, rhs);
    }
    lp.minimize_l1_of(&vars);
    lp
}

/// The shape of the paper's repair LPs: one block of rows per key point,
/// each row touching only that block's parameter slice (`block_vars` of
/// `num_blocks * block_vars` total variables), ℓ1 objective.
fn block_sparse_lp(
    num_blocks: usize,
    block_vars: usize,
    rows_per_block: usize,
    seed: u64,
) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new();
    let vars = lp.add_vars(num_blocks * block_vars, VarKind::Free);
    for block in 0..num_blocks {
        let slice = &vars[block * block_vars..(block + 1) * block_vars];
        for _ in 0..rows_per_block {
            let coeffs: Vec<f64> = (0..block_vars).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Feasible by construction around the origin, with a margin that
            // occasionally forces a non-zero repair.
            let rhs = rng.gen_range(-0.05..0.5f64);
            let terms: Vec<_> = slice.iter().copied().zip(coeffs).collect();
            lp.add_constraint(&terms, ConstraintOp::Le, rhs);
        }
    }
    lp.minimize_l1_of(&vars);
    lp
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solve_l1");
    for &(vars, rows) in &[(20usize, 40usize), (60, 120), (120, 240)] {
        let lp = repair_shaped_lp(vars, rows, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vars}v_{rows}c")),
            &lp,
            |b, lp| b.iter(|| prdnn_lp::solve(lp).unwrap()),
        );
    }
    group.finish();

    // The block-sparse repair shape (wide: n ≫ m).
    let mut group = c.benchmark_group("lp_solve_block_sparse");
    for &(blocks, bvars, brows) in &[(16usize, 8usize, 4usize), (32, 16, 4), (64, 16, 4)] {
        let lp = block_sparse_lp(blocks, bvars, brows, 11);
        let label = format!("{}v_{}c", blocks * bvars, blocks * brows);
        group.bench_with_input(BenchmarkId::from_parameter(label), &lp, |b, lp| {
            b.iter(|| prdnn_lp::solve(lp).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_lp
}
criterion_main!(benches);

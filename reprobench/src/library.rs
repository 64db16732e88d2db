//! The library workloads: `point_repair` (Task 1 CNN, conv layer 2) and
//! `polytope_repair` (Task 2 digit MLP, layer index 1).
//!
//! One operation is one repair call.  After it, outside the timed call,
//! the repair is re-checked and its drawdown and generalization measured.
//! Each operation is followed by timed reads of the repaired network
//! through the library calls the server's read paths run per batch: eval
//! batches (unique and hot-pool payloads) through
//! `forward_decoupled_batch`, and one `LinRegions` query per spec
//! polytope.  The library has no result cache, so a hot payload costs what
//! a miss does; the two series show that.

use crate::gate;
use crate::report::{check_failed, Record};
use crate::seq::{self, streams, Read, ReadKind};
use crate::trace::Tracer;
use prdnn_bench::scale::{Scale, Task1Params, Task2Params};
use prdnn_bench::task1::{self, Task1Setup};
use prdnn_bench::task2::{self, Task2Setup};
use prdnn_core::{
    repair_points, repair_polytopes, DecoupledNetwork, InputPolytope, OutputPolytope, PointSpec,
    PolytopeSpec, RepairConfig, RepairError, RepairStats,
};
use prdnn_datasets::{digits, imagenet_like};
use prdnn_nn::{Dataset, Network};
use prdnn_syrenn::LinearRegion;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Classification margin of every spec (as in the paper's tasks).
pub const MARGIN: f64 = 1e-4;

/// Timed eval reads of each kind after every repair.
const EVALS_PER_OP: u64 = 4;

/// Operation id of the untimed warm-up, clear of every timed operation's
/// and read's payload ids.
pub const WARMUP_OP: u64 = 1 << 36;

/// The Task 1 repair: conv layer 2 (6→8 channels, 440 parameters).
const POINT_LAYER: usize = 2;
/// Images per Task 1 spec.
const POINT_SPEC_SIZE: usize = 15;
/// Task 1 operations per second of `--seconds` (calibrated on a 2-vCPU
/// host so that the timed phase lasts about that long).
const POINT_OPS_PER_S: f64 = 20.0;

/// The Task 2 repair: layer index 1 (600 parameters).
const POLYTOPE_LAYER: usize = 1;
/// Task 2 operations per second of `--seconds` (as above).
const POLYTOPE_OPS_PER_S: f64 = 9.0;

/// Operations in a run of `seconds`.
pub fn op_count(seconds: u64, per_s: f64) -> usize {
    ((seconds as f64 * per_s).round() as usize).max(1)
}

/// Runs `setup` [`SETUP_REPEATS`] times, recording each, and keeps the last.
pub fn timed_setups<T>(rec: &mut Record, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        rec.setup_s.push(start.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// The failure kind of a repair error: its variant name.
pub fn error_kind(e: &RepairError) -> String {
    let debug = format!("{e:?}");
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or("Unknown")
        .to_owned()
}

/// Per-input correctness of `net` on `data`, through the batched
/// decoupled forward.
pub fn correct(net: &DecoupledNetwork, data: &Dataset) -> Vec<bool> {
    let pairs: Vec<(&[f64], &[f64])> = data
        .inputs
        .iter()
        .map(|x| (x.as_slice(), x.as_slice()))
        .collect();
    net.forward_decoupled_batch_in(prdnn_par::global(), &pairs)
        .iter()
        .zip(&data.labels)
        .map(|(y, &label)| prdnn_linalg::argmax(y) == label)
        .collect()
}

/// Accuracy of `net` on `data`, in percent.
pub fn accuracy_pct(net: &DecoupledNetwork, data: &Dataset) -> f64 {
    let hits = correct(net, data);
    100.0 * hits.iter().filter(|&&c| c).count() as f64 / hits.len().max(1) as f64
}

/// Per-layer samples a successful repair reports about itself.
pub fn record_repair_stats(rec: &mut Record, stats: &RepairStats, wall_ms: f64) {
    let t = &stats.timing;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    rec.sample("lp.solve_ms", ms(t.lp));
    rec.sample("lp.share_pct", 100.0 * ms(t.lp) / wall_ms);
    rec.sample("lp.pivots", stats.lp_pivots as f64);
    rec.sample("lp.refactorizations", stats.lp_refactorizations as f64);
    rec.sample("lp.rows", stats.num_constraints as f64);
    rec.sample("lp.cols", stats.num_variables as f64);
    rec.sample(
        "lp.uninstrumented_frac",
        if stats.lp_pivots == 0 { 1.0 } else { 0.0 },
    );
    rec.sample("core.jacobian_ms", ms(t.jacobians));
    rec.sample("core.encode_ms", ms(t.other));
    rec.sample("core.key_points", stats.num_key_points as f64);
}

/// Records the library's own phase split as children of the repair span.
fn repair_phases(tracer: &mut Tracer, span: u64, op: u64, stats: &RepairStats) {
    let t = &stats.timing;
    tracer.phases(
        span,
        op,
        &[
            ("syrenn.lin_regions", t.lin_regions),
            ("core.jacobians", t.jacobians),
            ("lp.solve", t.lp),
            ("core.encode", t.other),
        ],
    );
}

/// The timed eval reads after operation `op`, on `net`: unique payloads
/// drawn from `base`, then hot-pool payloads.  Each reply is checked bit
/// for bit against per-point `forward`.
fn eval_reads(
    seed: u64,
    rec: &mut Record,
    tracer: &mut Tracer,
    op: u64,
    net: &DecoupledNetwork,
    base: &[Vec<f64>],
) {
    for j in 0..2 * EVALS_PER_OP {
        let read = if j < EVALS_PER_OP {
            Read {
                kind: ReadKind::Eval,
                item: op * EVALS_PER_OP + j,
            }
        } else {
            Read {
                kind: ReadKind::EvalCached,
                item: (op * EVALS_PER_OP + j) % seq::HOT_POOL,
            }
        };
        let payload = seq::eval_payload(seed, read, base);
        let pairs: Vec<(&[f64], &[f64])> = payload
            .iter()
            .map(|x| (x.as_slice(), x.as_slice()))
            .collect();
        let (out, ms, _) = tracer.time("nn.forward", op, None, || {
            net.forward_decoupled_batch(&pairs)
        });
        rec.read(read.kind, ms);
        rec.sample("nn.forward_ms", ms);
        let direct: Vec<Vec<f64>> = payload.iter().map(|x| net.forward(x)).collect();
        if gate::same_bits(&out, &direct) {
            rec.ok();
        } else {
            rec.failed(check_failed("eval"));
        }
    }
}

/// A timed `LinRegions` read of `segments` on `net`, checked to tile each
/// segment.
fn lin_regions_read(
    rec: &mut Record,
    tracer: &mut Tracer,
    op: u64,
    net: &Network,
    segments: &[Vec<Vec<f64>>],
) {
    let (out, ms, _) = tracer.time("syrenn.lin_regions", op, None, || {
        segments
            .iter()
            .map(|s| prdnn_syrenn::lin_regions(net, s))
            .collect::<Result<Vec<_>, _>>()
    });
    rec.read(ReadKind::LinRegions, ms);
    rec.sample("syrenn.lin_regions_ms", ms);
    let tiles = |regions: &Vec<Vec<LinearRegion>>| {
        regions
            .iter()
            .zip(segments)
            .all(|(r, s)| gate::tiles_segment(r, &s[0], &s[1]))
    };
    match out {
        Ok(regions) if tiles(&regions) => {
            rec.sample(
                "syrenn.regions",
                regions.iter().map(Vec::len).sum::<usize>() as f64,
            );
            rec.ok();
        }
        Ok(_) => rec.failed(check_failed("lin_regions")),
        Err(e) => rec.failed(format!("{e:?}")),
    }
}

/// Task 1 inputs: the pool images an operation repairs.
fn point_spec(setup: &Task1Setup, indices: &[usize]) -> PointSpec {
    let mut spec = PointSpec::new();
    for &i in indices {
        spec.push(
            setup.repair_pool.inputs[i].clone(),
            OutputPolytope::classification(
                setup.repair_pool.labels[i],
                imagenet_like::NUM_CLASSES,
                MARGIN,
            ),
        );
    }
    spec
}

/// A set-up task with what every operation on it shares.
struct Task<S> {
    seed: u64,
    setup: S,
    /// The network under repair, in decoupled form.
    original: DecoupledNetwork,
    baseline: Baseline,
}

/// The original network's accuracy on a task's held-out sets, computed
/// once per run.
struct Baseline {
    /// Percent accuracy on the clean held-out (drawdown) set.
    drawdown_set_pct: f64,
    /// Per-image correctness on the generalization set.
    generalization_set: Vec<bool>,
}

/// One Task 1 operation: the repair, its check, then the reads.
fn point_op(
    task: &Task<Task1Setup>,
    indices: &[usize],
    op: u64,
    rec: &mut Record,
    tracer: &mut Tracer,
) {
    let (seed, setup, original, baseline) =
        (task.seed, &task.setup, &task.original, &task.baseline);
    let spec = point_spec(setup, indices);
    let config = RepairConfig::default();
    let (result, ms, span) = tracer.time("core.repair_points", op, None, || {
        repair_points(&setup.network, POINT_LAYER, &spec, &config)
    });
    rec.repair_ms.push(ms);
    let repaired = match result {
        Ok(outcome) => {
            if tracer.enabled() {
                repair_phases(tracer, span, op, &outcome.stats);
                let pairs: Vec<(&[f64], &[f64])> = spec
                    .points
                    .iter()
                    .map(|x| (x.as_slice(), x.as_slice()))
                    .collect();
                let (_, direct_ms, _) = tracer.time("core.jacobian_direct", op, Some(span), || {
                    original.value_param_jacobian_batch_in(prdnn_par::global(), POINT_LAYER, &pairs)
                });
                rec.sample("core.jacobian_direct_ms", direct_ms);
            }
            record_repair_stats(rec, &outcome.stats, ms);
            if gate::point_repair_holds(&outcome.repaired, &spec) {
                rec.ok();
                rec.drawdown_pct.push(
                    baseline.drawdown_set_pct
                        - accuracy_pct(&outcome.repaired, &setup.drawdown_set),
                );
                // Generalization: accuracy gained on the pool images this
                // spec did not name.
                let now = correct(&outcome.repaired, &setup.repair_pool);
                let held_out: Vec<usize> =
                    (0..now.len()).filter(|i| !indices.contains(i)).collect();
                let gained: i64 = held_out
                    .iter()
                    .map(|&i| i64::from(now[i]) - i64::from(baseline.generalization_set[i]))
                    .sum();
                rec.generalization_pct
                    .push(100.0 * gained as f64 / held_out.len() as f64);
            } else {
                rec.failed(check_failed("repair"));
                rec.violation(gate::point_violation(&outcome.repaired, &spec));
            }
            outcome.repaired
        }
        Err(e) => {
            rec.failed(error_kind(&e));
            original.clone()
        }
    };
    eval_reads(seed, rec, tracer, op, &repaired, &setup.drawdown_set.inputs);
    // LinRegions along the segment between the spec's first two images.
    let segment = vec![spec.points[0].clone(), spec.points[1].clone()];
    lin_regions_read(rec, tracer, op, &setup.network, &[segment]);
}

/// The `point_repair` workload.
pub fn point_repair(seed: u64, seconds: u64, rec: &mut Record, tracer: &mut Tracer) {
    let params = Task1Params::for_scale(Scale::Small);
    let setup = timed_setups(rec, || task1::setup(&params));
    let original = DecoupledNetwork::from_network(&setup.network);
    let baseline = Baseline {
        drawdown_set_pct: accuracy_pct(&original, &setup.drawdown_set),
        generalization_set: correct(&original, &setup.repair_pool),
    };
    let pool_len = setup.repair_pool.len();
    let task = Task {
        seed,
        setup,
        original,
        baseline,
    };
    let warmup = seq::point_specs(
        seq::stream(seed, streams::WARMUP),
        1,
        pool_len,
        POINT_SPEC_SIZE,
    );
    let ops = seq::point_specs(
        seq::stream(seed, streams::SPECS),
        op_count(seconds, POINT_OPS_PER_S),
        pool_len,
        POINT_SPEC_SIZE,
    );
    // The warm-up op runs the same path into a throwaway record.
    let mut warmup_record = Record::default();
    let mut quiet = Tracer::new(false);
    point_op(&task, &warmup[0], WARMUP_OP, &mut warmup_record, &mut quiet);
    for (op, indices) in ops.iter().enumerate() {
        point_op(&task, indices, op as u64, rec, tracer);
    }
}

/// The lines `task2::setup` lists first: clean image classified right,
/// foggy image wrong.
pub fn misclassified_lines(setup: &Task2Setup) -> usize {
    setup
        .lines
        .iter()
        .take_while(|l| {
            setup.network.classify(&l.foggy) != l.label
                && setup.network.classify(&l.clean) == l.label
        })
        .count()
}

/// Task 2 inputs: the fog lines an operation repairs.
fn polytope_spec(setup: &Task2Setup, lines: &[usize]) -> PolytopeSpec {
    let mut spec = PolytopeSpec::new();
    for &i in lines {
        let line = &setup.lines[i];
        spec.push(
            InputPolytope::segment(line.clean.clone(), line.foggy.clone()),
            OutputPolytope::classification(line.label, digits::NUM_CLASSES, MARGIN),
        );
    }
    spec
}

/// One Task 2 operation: the repair, its check, then the reads.
fn polytope_op(
    task: &Task<Task2Setup>,
    lines: &[usize],
    op: u64,
    rec: &mut Record,
    tracer: &mut Tracer,
) {
    let (seed, setup, original, baseline) =
        (task.seed, &task.setup, &task.original, &task.baseline);
    let spec = polytope_spec(setup, lines);
    let config = RepairConfig::default();
    let (result, ms, span) = tracer.time("core.repair_polytopes", op, None, || {
        repair_polytopes(&setup.network, POLYTOPE_LAYER, &spec, &config)
    });
    rec.repair_ms.push(ms);
    let repaired = match result {
        Ok(result) => {
            let outcome = result.outcome;
            if tracer.enabled() {
                repair_phases(tracer, span, op, &outcome.stats);
                // Cross-check the library's Jacobian split on the same
                // key points: every region vertex under its region's
                // activation pattern.
                let regions: Vec<LinearRegion> = spec
                    .polytopes
                    .iter()
                    .flat_map(|p| {
                        prdnn_syrenn::lin_regions(&setup.network, &p.vertices).unwrap_or_default()
                    })
                    .collect();
                let pairs: Vec<(&[f64], &[f64])> = regions
                    .iter()
                    .flat_map(|r| {
                        r.vertices
                            .iter()
                            .map(|v| (r.interior.as_slice(), v.as_slice()))
                    })
                    .collect();
                let (_, direct_ms, _) = tracer.time("core.jacobian_direct", op, Some(span), || {
                    original.value_param_jacobian_batch_in(
                        prdnn_par::global(),
                        POLYTOPE_LAYER,
                        &pairs,
                    )
                });
                rec.sample("core.jacobian_direct_ms", direct_ms);
            }
            record_repair_stats(rec, &outcome.stats, ms);
            let violation = gate::polytope_violation(&setup.network, &outcome.repaired, &spec);
            if violation.is_some_and(|v| v <= gate::TOL) {
                rec.ok();
                rec.drawdown_pct.push(
                    baseline.drawdown_set_pct
                        - accuracy_pct(&outcome.repaired, &setup.drawdown_set),
                );
                let before = baseline.generalization_set.iter().filter(|&&c| c).count() as f64;
                let before = 100.0 * before / baseline.generalization_set.len() as f64;
                rec.generalization_pct
                    .push(accuracy_pct(&outcome.repaired, &setup.generalization_set) - before);
            } else {
                rec.failed(check_failed("repair"));
                rec.violation(violation.unwrap_or(f64::INFINITY));
            }
            outcome.repaired
        }
        Err(e) => {
            rec.failed(error_kind(&e));
            original.clone()
        }
    };
    eval_reads(seed, rec, tracer, op, &repaired, &setup.drawdown_set.inputs);
    let segments: Vec<Vec<Vec<f64>>> = spec.polytopes.iter().map(|p| p.vertices.clone()).collect();
    lin_regions_read(rec, tracer, op, &setup.network, &segments);
}

/// The `polytope_repair` workload.
pub fn polytope_repair(seed: u64, seconds: u64, rec: &mut Record, tracer: &mut Tracer) {
    let params = Task2Params::for_scale(Scale::Small);
    let setup = timed_setups(rec, || task2::setup(&params));
    let original = DecoupledNetwork::from_network(&setup.network);
    let baseline = Baseline {
        drawdown_set_pct: accuracy_pct(&original, &setup.drawdown_set),
        generalization_set: correct(&original, &setup.generalization_set),
    };
    let n_lines = misclassified_lines(&setup);
    let task = Task {
        seed,
        setup,
        original,
        baseline,
    };
    let warmup = seq::line_pairs(seq::stream(seed, streams::WARMUP), 1, n_lines);
    let ops = seq::line_pairs(
        seq::stream(seed, streams::SPECS),
        op_count(seconds, POLYTOPE_OPS_PER_S),
        n_lines,
    );
    let mut warmup_record = Record::default();
    let mut quiet = Tracer::new(false);
    polytope_op(&task, &warmup[0], WARMUP_OP, &mut warmup_record, &mut quiet);
    for (op, lines) in ops.iter().enumerate() {
        polytope_op(&task, lines, op as u64, rec, tracer);
    }
}

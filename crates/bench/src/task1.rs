//! Task 1 (§7.1): pointwise repair of an image classifier on a pool of
//! misclassified "natural adversarial" images.
//!
//! One run of [`run`] produces the data behind Table 1, Table 4, and
//! Figure 7: a per-layer Provable Repair sweep for every repair-set size,
//! plus the FT\[1\]/FT\[2\]/MFT\[1\]/MFT\[2\] baselines.

use crate::metrics;
use crate::scale::Task1Params;
use prdnn_baselines::{fine_tune, modified_fine_tune, FineTuneConfig, MftConfig};
use prdnn_core::{repair_points, PointSpec, RepairConfig, RepairError, RepairTiming};
use prdnn_datasets::{imagenet_like, natural_adversarial};
use prdnn_nn::{Dataset, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The trained buggy CNN, the repair pool, and the drawdown set.
#[derive(Debug, Clone)]
pub struct Task1Setup {
    /// The buggy network (trained on clean synthetic object images).
    pub network: Network,
    /// Misclassified distorted images with their true labels (the NAE
    /// stand-in).
    pub repair_pool: Dataset,
    /// Clean held-out validation images (the drawdown set).
    pub drawdown_set: Dataset,
}

/// Trains the buggy CNN and builds the repair pool / drawdown set.
pub fn setup(params: &Task1Params) -> Task1Setup {
    let task = imagenet_like::object_task(params.seed, params.train_size, params.validation_size);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5eed);
    let max_points = params
        .point_counts
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(0);
    let repair_pool = natural_adversarial::misclassified_pool(
        &task.network,
        max_points,
        max_points * 400 + 1000,
        &mut rng,
    );
    Task1Setup {
        network: task.network,
        repair_pool,
        drawdown_set: task.validation,
    }
}

/// Outcome status of one single-layer Provable Repair attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrStatus {
    /// A satisfying repair was found (efficacy 100% by construction).
    Repaired,
    /// The LP proved no single-layer repair of this layer exists.
    Infeasible,
    /// The LP solver hit its iteration budget (the paper's timeout case).
    Timeout,
    /// The LP solver broke down numerically.
    Numerical,
}

impl PrStatus {
    /// The status of a repair that failed with `error`, or `None` when the
    /// error names an invalid repair setup (layer, spec) rather than an
    /// outcome of the repair.
    pub fn of_error(error: &RepairError) -> Option<PrStatus> {
        match error {
            RepairError::Infeasible => Some(PrStatus::Infeasible),
            RepairError::LpIterationLimit => Some(PrStatus::Timeout),
            RepairError::LpNumerical => Some(PrStatus::Numerical),
            RepairError::LayerHasNoParameters { .. }
            | RepairError::LayerOutOfRange { .. }
            | RepairError::NotPiecewiseLinear
            | RepairError::SpecDimensionMismatch { .. }
            | RepairError::EmptySpec => None,
        }
    }

    /// The status as Figure 7 prints it.
    pub fn label(self) -> &'static str {
        match self {
            PrStatus::Repaired => "repaired",
            PrStatus::Infeasible => "infeasible",
            PrStatus::Timeout => "timeout",
            PrStatus::Numerical => "numerical",
        }
    }
}

/// Result of Provable Repair applied to one layer.
#[derive(Debug, Clone)]
pub struct PrLayerResult {
    /// The repaired layer index.
    pub layer: usize,
    /// Whether the repair succeeded.
    pub status: PrStatus,
    /// Drawdown on the validation set (only meaningful when repaired).
    pub drawdown: f64,
    /// Wall-clock repair time.
    pub time: Duration,
    /// Breakdown of where the time went (Figure 7b).
    pub timing: RepairTiming,
}

/// Runs Provable Repair of every repairable layer on the first `n_points`
/// images of the repair pool (the paper's per-layer sweep, Figure 7a).
pub fn run_pr_sweep(setup: &Task1Setup, n_points: usize) -> Vec<PrLayerResult> {
    let repair_set = setup.repair_pool.take(n_points);
    let spec = PointSpec::from_classification(
        &repair_set.inputs,
        &repair_set.labels,
        imagenet_like::NUM_CLASSES,
        1e-4,
    );
    let config = RepairConfig::default();
    setup
        .network
        .repairable_layers()
        .into_iter()
        .map(|layer| {
            let start = Instant::now();
            match repair_points(&setup.network, layer, &spec, &config) {
                Ok(outcome) => PrLayerResult {
                    layer,
                    status: PrStatus::Repaired,
                    drawdown: metrics::drawdown(
                        &setup.network,
                        &outcome.repaired,
                        &setup.drawdown_set,
                    ),
                    time: start.elapsed(),
                    timing: outcome.stats.timing,
                },
                Err(error) => PrLayerResult {
                    layer,
                    status: PrStatus::of_error(&error).unwrap_or_else(|| {
                        panic!("Task 1 sweep: invalid repair of layer {layer}: {error}")
                    }),
                    drawdown: f64::NAN,
                    time: start.elapsed(),
                    timing: RepairTiming::default(),
                },
            }
        })
        .collect()
}

/// The best-drawdown entry of a per-layer sweep (the "PR (BD)" column of
/// Table 1).
pub fn best_drawdown(results: &[PrLayerResult]) -> Option<&PrLayerResult> {
    results
        .iter()
        .filter(|r| r.status == PrStatus::Repaired)
        .min_by(|a, b| a.drawdown.partial_cmp(&b.drawdown).unwrap())
}

/// Result of one fine-tuning baseline run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Baseline name (`FT[1]`, `MFT[2]`, ...).
    pub name: String,
    /// Drawdown on the validation set.
    pub drawdown: f64,
    /// Accuracy on the repair set at the end of the run.
    pub efficacy: f64,
    /// Wall-clock time.
    pub time: Duration,
}

/// Runs the FT baseline on the first `n_points` repair images.
pub fn run_ft(
    setup: &Task1Setup,
    n_points: usize,
    name: &str,
    learning_rate: f64,
    batch_size: usize,
    max_epochs: usize,
    seed: u64,
) -> BaselineRun {
    let repair_set = setup.repair_pool.take(n_points);
    let mut rng = StdRng::seed_from_u64(seed);
    let config = FineTuneConfig {
        learning_rate,
        momentum: 0.9,
        batch_size,
        max_epochs,
    };
    let result = fine_tune(&setup.network, &repair_set, &config, &mut rng);
    BaselineRun {
        name: name.to_string(),
        drawdown: metrics::drawdown(&setup.network, &result.network, &setup.drawdown_set),
        efficacy: metrics::efficacy(&result.network, &repair_set),
        time: result.duration,
    }
}

/// Runs the MFT baseline on every repairable layer and keeps the layer with
/// the best (lowest) drawdown, matching the paper's "MFT (BD)" columns.
pub fn run_mft_best_layer(
    setup: &Task1Setup,
    n_points: usize,
    name: &str,
    learning_rate: f64,
    batch_size: usize,
    max_epochs: usize,
    seed: u64,
) -> BaselineRun {
    let repair_set = setup.repair_pool.take(n_points);
    let mut best: Option<BaselineRun> = None;
    for layer in setup.network.repairable_layers() {
        let mut rng = StdRng::seed_from_u64(seed + layer as u64);
        let config = MftConfig {
            learning_rate,
            momentum: 0.9,
            batch_size,
            max_epochs,
            layer,
            change_penalty: 1e-3,
            holdout_fraction: 0.25,
        };
        let result = modified_fine_tune(&setup.network, &repair_set, &config, &mut rng);
        let run = BaselineRun {
            name: name.to_string(),
            drawdown: metrics::drawdown(&setup.network, &result.network, &setup.drawdown_set),
            efficacy: result.efficacy,
            time: result.duration,
        };
        let better = best.as_ref().is_none_or(|b| run.drawdown < b.drawdown);
        if better {
            best = Some(run);
        }
    }
    best.expect("network has at least one repairable layer")
}

/// Results for one repair-set size.
#[derive(Debug, Clone)]
pub struct Task1PointResult {
    /// The paper's repair-set size this row corresponds to.
    pub paper_points: usize,
    /// The scaled repair-set size actually used.
    pub points_used: usize,
    /// Per-layer Provable Repair results.
    pub pr_sweep: Vec<PrLayerResult>,
    /// FT\[1\] and FT\[2\] baselines.
    pub ft: Vec<BaselineRun>,
    /// MFT\[1\] and MFT\[2\] baselines (best layer).
    pub mft: Vec<BaselineRun>,
}

/// All Task 1 results (one entry per repair-set size).
#[derive(Debug, Clone)]
pub struct Task1Results {
    /// Accuracy of the buggy network on the repair pool (the paper's 18.6%).
    pub buggy_pool_accuracy: f64,
    /// Accuracy of the buggy network on the drawdown set (the paper's 93.6%).
    pub buggy_validation_accuracy: f64,
    /// Per-repair-set-size results.
    pub rows: Vec<Task1PointResult>,
}

/// Runs the full Task 1 experiment.
pub fn run(params: &Task1Params) -> Task1Results {
    let setup = setup(params);
    let mut rows = Vec::new();
    for &(paper_points, points_used) in &params.point_counts {
        let points_used = points_used.min(setup.repair_pool.len());
        let pr_sweep = run_pr_sweep(&setup, points_used);
        let ft = vec![
            run_ft(
                &setup,
                points_used,
                "FT[1]",
                0.02,
                4,
                params.ft_max_epochs,
                params.seed + 1,
            ),
            run_ft(
                &setup,
                points_used,
                "FT[2]",
                0.01,
                16,
                params.ft_max_epochs,
                params.seed + 2,
            ),
        ];
        let mft = vec![
            run_mft_best_layer(
                &setup,
                points_used,
                "MFT[1]",
                0.02,
                4,
                params.ft_max_epochs,
                params.seed + 3,
            ),
            run_mft_best_layer(
                &setup,
                points_used,
                "MFT[2]",
                0.01,
                16,
                params.ft_max_epochs,
                params.seed + 4,
            ),
        ];
        rows.push(Task1PointResult {
            paper_points,
            points_used,
            pr_sweep,
            ft,
            mft,
        });
    }
    Task1Results {
        buggy_pool_accuracy: metrics::accuracy(&setup.network, &setup.repair_pool),
        buggy_validation_accuracy: metrics::accuracy(&setup.network, &setup.drawdown_set),
        rows,
    }
}

fn pct(x: f64) -> String {
    if x.is_nan() {
        "  n/a".to_string()
    } else {
        format!("{:5.1}", 100.0 * x)
    }
}

/// Formats the Table 1 reproduction (summary: PR best-drawdown vs baselines).
pub fn format_table1(results: &Task1Results) -> String {
    let mut out = String::new();
    out.push_str("Table 1 — Task 1: pointwise image-classifier repair (paper: SqueezeNet + NAE)\n");
    out.push_str(&format!(
        "buggy accuracy: {:.1}% on the repair pool, {:.1}% on the drawdown set\n",
        100.0 * results.buggy_pool_accuracy,
        100.0 * results.buggy_validation_accuracy
    ));
    out.push_str(
        "Points(paper/used) | PR(BD) D%      T | FT[1] D%      T | FT[2] D%      T | MFT[1] E%  D% | MFT[2] E%  D%\n",
    );
    for row in &results.rows {
        let pr = best_drawdown(&row.pr_sweep);
        let (pr_d, pr_t) = match pr {
            Some(r) => (pct(r.drawdown), metrics::format_duration(r.time)),
            None => ("  n/a".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:>6}/{:<4} | {} {:>9} | {} {:>9} | {} {:>9} | {} {} | {} {}\n",
            row.paper_points,
            row.points_used,
            pr_d,
            pr_t,
            pct(row.ft[0].drawdown),
            metrics::format_duration(row.ft[0].time),
            pct(row.ft[1].drawdown),
            metrics::format_duration(row.ft[1].time),
            pct(row.mft[0].efficacy),
            pct(row.mft[0].drawdown),
            pct(row.mft[1].efficacy),
            pct(row.mft[1].drawdown),
        ));
    }
    out.push_str(
        "\nPaper (Table 1): PR best-drawdown 1.1–5.3% in 1.6–8.5 min; FT 8.2–15.4% drawdown,\n\
         up to 2.5 h; MFT ≤28% efficacy with ~0% drawdown.  Expected shape: PR's drawdown is\n\
         the lowest among full-efficacy methods and PR is faster than FT; MFT trades efficacy\n\
         for near-zero drawdown.\n",
    );
    out
}

/// Formats the Table 4 reproduction (extended per-layer statistics).
pub fn format_table4(results: &Task1Results) -> String {
    let mut out = String::new();
    out.push_str("Table 4 — Task 1 extended: per-layer repair statistics\n");
    out.push_str("Points(paper/used) | repaired/total | D% best | D% worst | fastest | slowest\n");
    for row in &results.rows {
        let repaired: Vec<&PrLayerResult> = row
            .pr_sweep
            .iter()
            .filter(|r| r.status == PrStatus::Repaired)
            .collect();
        let best = repaired
            .iter()
            .map(|r| r.drawdown)
            .fold(f64::INFINITY, f64::min);
        let worst = repaired
            .iter()
            .map(|r| r.drawdown)
            .fold(f64::NEG_INFINITY, f64::max);
        let fastest = repaired.iter().map(|r| r.time).min().unwrap_or_default();
        let slowest = repaired.iter().map(|r| r.time).max().unwrap_or_default();
        out.push_str(&format!(
            "{:>6}/{:<4} | {:>8}/{:<5} | {} | {} | {:>8} | {:>8}\n",
            row.paper_points,
            row.points_used,
            repaired.len(),
            row.pr_sweep.len(),
            pct(if repaired.is_empty() { f64::NAN } else { best }),
            pct(if repaired.is_empty() { f64::NAN } else { worst }),
            metrics::format_duration(fastest),
            metrics::format_duration(slowest),
        ));
    }
    out.push_str(
        "\nPaper (Table 4): all layers repairable up to 400 points (7/10 at 752); best drawdown\n\
         1.1–5.3%, worst 39–59%; later layers repair faster and with less drawdown.\n",
    );
    out
}

/// Formats the Figure 7 reproduction: per-layer drawdown (a) and time
/// breakdown (b) for the largest repair-set size.
pub fn format_figure7(results: &Task1Results) -> String {
    let mut out = String::new();
    let row = results.rows.last().expect("at least one repair-set size");
    out.push_str(&format!(
        "Figure 7 — per-layer repair with {} points (paper: 400 points)\n",
        row.points_used
    ));
    out.push_str("(a) drawdown per repaired layer\n");
    out.push_str("layer | status     | drawdown%\n");
    for r in &row.pr_sweep {
        out.push_str(&format!(
            "{:>5} | {:<10} | {}\n",
            r.layer,
            r.status.label(),
            pct(r.drawdown)
        ));
    }
    out.push_str("\n(b) time per repaired layer, split as in the paper (Jacobian / LP / other)\n");
    out.push_str("layer | jacobian(s) | lp(s)   | other(s) | total(s)\n");
    for r in &row.pr_sweep {
        out.push_str(&format!(
            "{:>5} | {:>11.3} | {:>7.3} | {:>8.3} | {:>8.3}\n",
            r.layer,
            r.timing.jacobians.as_secs_f64(),
            r.timing.lp.as_secs_f64(),
            r.timing.other.as_secs_f64(),
            r.time.as_secs_f64(),
        ));
    }
    out.push_str(
        "\nPaper (Figure 7): earlier layers show much larger drawdown than later layers;\n\
         for the convolutional model most time is spent in the Jacobian computation,\n\
         with the LP solver second.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    /// The trained CNN's bits, pinned: every Task 1 number rests on them.
    /// Training runs each sample through the conv kernels one at a time,
    /// so a kernel that reorders a single sum changes this hash.
    #[test]
    fn tiny_task1_network_keeps_its_bits() {
        let params = Task1Params::for_scale(Scale::Tiny);
        let task =
            imagenet_like::object_task(params.seed, params.train_size, params.validation_size);
        assert_eq!(
            prdnn_nn::network_content_hash(&task.network),
            0x6627_4628_c012_d3c1
        );
    }

    /// ExactLine's bits on the trained CNN, pinned: one FNV-1a hash over
    /// the region count and every breakpoint's bit pattern of eight
    /// segments between consecutive repair-pool images (2600 regions).  A
    /// crossing scan that reorders, drops or re-rounds a single breakpoint
    /// changes this hash.
    #[test]
    fn tiny_task1_lin_regions_keep_their_bits() {
        let setup = setup(&Task1Params::for_scale(Scale::Tiny));
        let pool = &setup.repair_pool.inputs;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bits: u64| {
            for byte in bits.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut regions = 0;
        for k in 0..8 {
            let ts = prdnn_syrenn::exact_line(&setup.network, &pool[k], &pool[k + 1]).unwrap();
            regions += ts.len() - 1;
            mix(ts.len() as u64 - 1);
            for t in ts {
                mix(t.to_bits());
            }
        }
        assert_eq!(regions, 2600);
        assert_eq!(hash, 0x37b7_125d_d9ab_098b);
    }

    /// The DDNN value channel's and Jacobian pass's bits on the trained
    /// CNN, pinned: one FNV-1a hash over the outputs and value-parameter
    /// Jacobians of eleven `(activation, value)` pairs of consecutive
    /// repair-pool images, batched and per point, for the unrepaired DDNN
    /// and for a copy whose value channel is perturbed at layer idx 2.  A
    /// linearisation or backward step that reorders or re-rounds a single
    /// term changes this hash.
    #[test]
    fn tiny_task1_ddnn_pass_keeps_its_bits() {
        use prdnn_core::DecoupledNetwork;
        let setup = setup(&Task1Params::for_scale(Scale::Tiny));
        let pool = &setup.repair_pool.inputs;
        assert_eq!(pool.len(), 12);
        let pairs: Vec<(&[f64], &[f64])> = (0..11)
            .map(|k| (pool[k].as_slice(), pool[k + 1].as_slice()))
            .collect();
        let unrepaired = DecoupledNetwork::from_network(&setup.network);
        let mut perturbed = unrepaired.clone();
        let n = perturbed.value_layer(2).num_params();
        let delta: Vec<f64> = (0..n).map(|i| 0.05 * (0.37 * i as f64).sin()).collect();
        perturbed.apply_value_delta(2, &delta);

        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |values: &[f64]| {
            for v in values {
                for byte in v.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        };
        for ddnn in [&unrepaired, &perturbed] {
            for row in ddnn.forward_decoupled_batch(&pairs) {
                mix(&row);
            }
            for layer in [0, 2, 4, 5] {
                for jacobian in ddnn.value_param_jacobian_batch(layer, &pairs) {
                    mix(jacobian.as_slice());
                }
            }
            for (a, v) in &pairs {
                mix(&ddnn.forward_decoupled(a, v));
                mix(ddnn.value_param_jacobian(2, a, v).as_slice());
            }
        }
        assert_eq!(hash, 0x38ef_c84f_85d3_b527);
    }

    /// The DDNN passes' bits on the trained CNN when both channels are fed
    /// the same image, pinned: one FNV-1a hash over the outputs and
    /// value-parameter Jacobians of `(x, x)` for each of the twelve
    /// repair-pool images, batched and per point, for the unrepaired DDNN
    /// and for copies whose value channel is perturbed at layer idx 2 and at
    /// layer idx 0, followed by the repaired layer's parameters after a
    /// point repair at layer idx 2 of the unrepaired and the layer-0 copies
    /// (the repair loop's fused pass).  Equal inputs are what the batched
    /// passes may compute once for both channels; a pass that shares a
    /// layer whose channels differ changes this hash.
    #[test]
    fn tiny_task1_ddnn_shared_pass_keeps_its_bits() {
        use prdnn_core::{repair_points_ddnn, DecoupledNetwork, OutputPolytope};
        let setup = setup(&Task1Params::for_scale(Scale::Tiny));
        let pool = &setup.repair_pool;
        assert_eq!(pool.len(), 12);
        let pairs: Vec<(&[f64], &[f64])> = pool
            .inputs
            .iter()
            .map(|x| (x.as_slice(), x.as_slice()))
            .collect();
        let unrepaired = DecoupledNetwork::from_network(&setup.network);
        let perturbed = |layer: usize| {
            let mut ddnn = unrepaired.clone();
            let n = ddnn.value_layer(layer).num_params();
            let delta: Vec<f64> = (0..n).map(|i| 0.05 * (0.37 * i as f64).sin()).collect();
            ddnn.apply_value_delta(layer, &delta);
            ddnn
        };
        let (at_2, at_0) = (perturbed(2), perturbed(0));

        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |values: &[f64]| {
            for v in values {
                for byte in v.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        };
        for ddnn in [&unrepaired, &at_2, &at_0] {
            for row in ddnn.forward_decoupled_batch(&pairs) {
                mix(&row);
            }
            for layer in [0, 2, 4, 5] {
                for jacobian in ddnn.value_param_jacobian_batch(layer, &pairs) {
                    mix(jacobian.as_slice());
                }
            }
            for x in &pool.inputs {
                mix(&ddnn.forward(x));
                mix(ddnn.value_param_jacobian(2, x, x).as_slice());
            }
        }

        let mut spec = PointSpec::new();
        for (x, &label) in pool.inputs.iter().zip(&pool.labels).take(6) {
            let constraint =
                OutputPolytope::classification(label, imagenet_like::NUM_CLASSES, 1e-4);
            spec.push(x.clone(), constraint);
        }
        let mut l1 = Vec::new();
        for ddnn in [&unrepaired, &at_0] {
            let outcome = repair_points_ddnn(ddnn, 2, &spec, &RepairConfig::default())
                .expect("the layer idx 2 repair succeeds");
            l1.push(outcome.stats.delta_l1);
            mix(&outcome.repaired.value_layer(2).params());
        }
        assert_eq!(l1, [2.526376415915972, 3.0208861094001853]);
        assert_eq!(hash, 0xf347_374d_176b_2219);
    }

    #[test]
    fn failed_repairs_keep_their_cause() {
        let outcomes = [
            (RepairError::Infeasible, PrStatus::Infeasible, "infeasible"),
            (RepairError::LpIterationLimit, PrStatus::Timeout, "timeout"),
            (RepairError::LpNumerical, PrStatus::Numerical, "numerical"),
        ];
        for (error, status, label) in outcomes {
            assert_eq!(PrStatus::of_error(&error), Some(status), "{error}");
            assert_eq!(status.label(), label);
        }
        assert_eq!(PrStatus::Repaired.label(), "repaired");
        let invalid = [
            RepairError::LayerHasNoParameters { layer: 1 },
            RepairError::LayerOutOfRange {
                layer: 9,
                num_layers: 3,
            },
            RepairError::NotPiecewiseLinear,
            RepairError::SpecDimensionMismatch {
                expected: 10,
                found: 3,
            },
            RepairError::EmptySpec,
        ];
        for error in invalid {
            assert_eq!(PrStatus::of_error(&error), None, "{error}");
        }
    }

    #[test]
    fn tiny_task1_pipeline_runs_end_to_end() {
        let mut params = Task1Params::for_scale(Scale::Tiny);
        params.point_counts = vec![(100, 4)];
        params.ft_max_epochs = 5;
        let results = run(&params);
        assert_eq!(results.rows.len(), 1);
        let row = &results.rows[0];
        assert!(!row.pr_sweep.is_empty());
        // At least one layer must be repairable on a tiny spec, and the
        // repaired networks must have 100% efficacy by construction (checked
        // inside repair, here we check the sweep found one).
        assert!(best_drawdown(&row.pr_sweep).is_some());
        assert_eq!(row.ft.len(), 2);
        assert_eq!(row.mft.len(), 2);
        // Formatting never panics and mentions every section.
        assert!(format_table1(&results).contains("Table 1"));
        assert!(format_table4(&results).contains("Table 4"));
        assert!(format_figure7(&results).contains("Figure 7"));
    }
}

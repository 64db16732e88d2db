//! Task 2 (§7.2): 1-D polytope repair of the digit MLP on clean→foggy
//! interpolation lines.
//!
//! One run of [`run`] produces the data behind Table 2 (Provable Repair of
//! layers 2 and 3 vs FT\[1\]/FT\[2\]) and Table 3 (the MFT baselines), plus the
//! RQ4 timing breakdown quoted in §7.2.

use crate::metrics;
use crate::scale::Task2Params;
use prdnn_baselines::{fine_tune, modified_fine_tune, FineTuneConfig, MftConfig};
use prdnn_core::{
    repair_polytopes, InputPolytope, OutputPolytope, PolytopeSpec, RepairConfig, RepairError,
    RepairTiming,
};
use prdnn_datasets::{corruptions, digits};
use prdnn_nn::{Dataset, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One repair line: a clean digit image, its fog-corrupted copy, and the
/// true label that every point on the segment between them must receive.
#[derive(Debug, Clone)]
pub struct RepairLine {
    /// The clean endpoint.
    pub clean: Vec<f64>,
    /// The fog-corrupted endpoint.
    pub foggy: Vec<f64>,
    /// The digit label.
    pub label: usize,
}

/// The trained digit MLP plus repair lines, generalization set, and drawdown
/// set.
#[derive(Debug, Clone)]
pub struct Task2Setup {
    /// The buggy network.
    pub network: Network,
    /// Candidate repair lines, misclassified-when-foggy ones first.
    pub lines: Vec<RepairLine>,
    /// Fog-corrupted test images (the generalization set).
    pub generalization_set: Dataset,
    /// Clean test images (the drawdown set).
    pub drawdown_set: Dataset,
}

/// Builds the Task 2 setup: train the MLP, corrupt the training images with
/// fog to form candidate lines, and corrupt the test set to form the
/// generalization set.
pub fn setup(params: &Task2Params) -> Task2Setup {
    let task = digits::digit_task(params.seed, params.train_size, params.test_size);
    let fog_image = |x: &[f64]| corruptions::fog(x, digits::SIDE, digits::SIDE, params.fog_alpha);

    let mut misclassified = Vec::new();
    let mut rest = Vec::new();
    for (x, &y) in task.train.inputs.iter().zip(&task.train.labels) {
        let foggy = fog_image(x);
        let line = RepairLine {
            clean: x.clone(),
            foggy: foggy.clone(),
            label: y,
        };
        if task.network.classify(&foggy) != y && task.network.classify(x) == y {
            misclassified.push(line);
        } else {
            rest.push(line);
        }
    }
    misclassified.extend(rest);

    let generalization_set = Dataset::new(
        task.test.inputs.iter().map(|x| fog_image(x)).collect(),
        task.test.labels.clone(),
    );
    Task2Setup {
        network: task.network,
        lines: misclassified,
        generalization_set,
        drawdown_set: task.test,
    }
}

/// Builds the polytope specification for the first `n_lines` lines.
pub fn line_spec(setup: &Task2Setup, n_lines: usize) -> PolytopeSpec {
    let mut spec = PolytopeSpec::new();
    for line in setup.lines.iter().take(n_lines) {
        spec.push(
            InputPolytope::segment(line.clean.clone(), line.foggy.clone()),
            OutputPolytope::classification(line.label, digits::NUM_CLASSES, 1e-4),
        );
    }
    spec
}

/// Result of Provable Polytope Repair on one layer / line-count combination.
#[derive(Debug, Clone)]
pub struct Task2PrResult {
    /// Repaired layer index (the paper's "Layer 2" is index 1, "Layer 3" is
    /// index 2 of the 3-layer MLP).
    pub layer: usize,
    /// The paper's line count this row corresponds to.
    pub paper_lines: usize,
    /// Lines actually used.
    pub lines_used: usize,
    /// Number of key points of the reduction (the "Points" column).
    pub key_points: usize,
    /// Drawdown on the clean test set.
    pub drawdown: f64,
    /// Generalization on the fogged test set.
    pub generalization: f64,
    /// Wall-clock time.
    pub time: Duration,
    /// Timing breakdown (LinRegions / Jacobians / LP / other).
    pub timing: RepairTiming,
    /// Whether the repair succeeded (it always does in the paper's Task 2).
    pub repaired: bool,
}

/// Runs Provable Polytope Repair of `layer` on the first `n_lines` lines.
pub fn run_pr(
    setup: &Task2Setup,
    paper_lines: usize,
    n_lines: usize,
    layer: usize,
) -> Task2PrResult {
    let spec = line_spec(setup, n_lines);
    let start = Instant::now();
    match repair_polytopes(&setup.network, layer, &spec, &RepairConfig::default()) {
        Ok(result) => Task2PrResult {
            layer,
            paper_lines,
            lines_used: n_lines,
            key_points: result.num_key_points,
            drawdown: metrics::drawdown(
                &setup.network,
                &result.outcome.repaired,
                &setup.drawdown_set,
            ),
            generalization: metrics::generalization(
                &setup.network,
                &result.outcome.repaired,
                &setup.generalization_set,
            ),
            time: start.elapsed(),
            timing: result.outcome.stats.timing,
            repaired: true,
        },
        Err(RepairError::Infeasible) | Err(_) => Task2PrResult {
            layer,
            paper_lines,
            lines_used: n_lines,
            key_points: 0,
            drawdown: f64::NAN,
            generalization: f64::NAN,
            time: start.elapsed(),
            timing: RepairTiming::default(),
            repaired: false,
        },
    }
}

/// Samples a finite repair set from the first `n_lines` lines for the
/// fine-tuning baselines (which cannot consume infinite specifications).
pub fn sampled_repair_set(
    setup: &Task2Setup,
    n_lines: usize,
    samples_per_line: usize,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    let mut labels = Vec::new();
    for line in setup.lines.iter().take(n_lines) {
        let polytope = InputPolytope::segment(line.clean.clone(), line.foggy.clone());
        for p in polytope.sample(samples_per_line, &mut rng) {
            inputs.push(p);
            labels.push(line.label);
        }
    }
    Dataset::new(inputs, labels)
}

/// Result of one baseline (FT or MFT) run on Task 2.
#[derive(Debug, Clone)]
pub struct Task2BaselineResult {
    /// Baseline name.
    pub name: String,
    /// Fine-tuned layer, if the baseline is layer-restricted (MFT).
    pub layer: Option<usize>,
    /// Efficacy on its sampled repair set.
    pub efficacy: f64,
    /// Drawdown on the clean test set.
    pub drawdown: f64,
    /// Generalization on the fogged test set.
    pub generalization: f64,
    /// Wall-clock time.
    pub time: Duration,
}

/// Runs the FT baseline on a sampled repair set.
#[allow(clippy::too_many_arguments)]
pub fn run_ft(
    setup: &Task2Setup,
    n_lines: usize,
    samples_per_line: usize,
    name: &str,
    learning_rate: f64,
    batch_size: usize,
    max_epochs: usize,
    seed: u64,
) -> Task2BaselineResult {
    let repair_set = sampled_repair_set(setup, n_lines, samples_per_line, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf7);
    let config = FineTuneConfig {
        learning_rate,
        momentum: 0.9,
        batch_size,
        max_epochs,
    };
    let result = fine_tune(&setup.network, &repair_set, &config, &mut rng);
    Task2BaselineResult {
        name: name.to_string(),
        layer: None,
        efficacy: metrics::efficacy(&result.network, &repair_set),
        drawdown: metrics::drawdown(&setup.network, &result.network, &setup.drawdown_set),
        generalization: metrics::generalization(
            &setup.network,
            &result.network,
            &setup.generalization_set,
        ),
        time: result.duration,
    }
}

/// Runs the MFT baseline restricted to `layer` on a sampled repair set.
#[allow(clippy::too_many_arguments)]
pub fn run_mft(
    setup: &Task2Setup,
    n_lines: usize,
    samples_per_line: usize,
    name: &str,
    layer: usize,
    learning_rate: f64,
    batch_size: usize,
    max_epochs: usize,
    seed: u64,
) -> Task2BaselineResult {
    let repair_set = sampled_repair_set(setup, n_lines, samples_per_line, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3b);
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
    Task2BaselineResult {
        name: name.to_string(),
        layer: Some(layer),
        efficacy: result.efficacy,
        drawdown: metrics::drawdown(&setup.network, &result.network, &setup.drawdown_set),
        generalization: metrics::generalization(
            &setup.network,
            &result.network,
            &setup.generalization_set,
        ),
        time: result.duration,
    }
}

/// Results for one line count.
#[derive(Debug, Clone)]
pub struct Task2LineResult {
    /// Paper line count.
    pub paper_lines: usize,
    /// Lines used.
    pub lines_used: usize,
    /// PR on layer 2 (index 1) and layer 3 (index 2).
    pub pr: Vec<Task2PrResult>,
    /// FT\[1\], FT\[2\].
    pub ft: Vec<Task2BaselineResult>,
    /// MFT\[1\]/MFT\[2\] × layer 2/layer 3 (four entries).
    pub mft: Vec<Task2BaselineResult>,
}

/// All Task 2 results.
#[derive(Debug, Clone)]
pub struct Task2Results {
    /// Buggy accuracy on the drawdown (clean test) set — the paper's 96.5%.
    pub buggy_drawdown_accuracy: f64,
    /// Buggy accuracy on the generalization (fogged test) set — the paper's
    /// 19.5%.
    pub buggy_generalization_accuracy: f64,
    /// Per line-count results.
    pub rows: Vec<Task2LineResult>,
}

/// Runs the full Task 2 experiment.
pub fn run(params: &Task2Params) -> Task2Results {
    let setup = setup(params);
    // Layer 2 and layer 3 of the paper's 3-layer MLP are indices 1 and 2.
    let repair_layers = [1usize, 2usize];
    let samples_per_line = 10usize;
    let mut rows = Vec::new();
    for &(paper_lines, lines_used) in &params.line_counts {
        let lines_used = lines_used.min(setup.lines.len());
        let pr: Vec<Task2PrResult> = repair_layers
            .iter()
            .map(|&layer| run_pr(&setup, paper_lines, lines_used, layer))
            .collect();
        let ft = vec![
            run_ft(
                &setup,
                lines_used,
                samples_per_line,
                "FT[1]",
                0.05,
                16,
                params.ft_max_epochs,
                params.seed + 11,
            ),
            run_ft(
                &setup,
                lines_used,
                samples_per_line,
                "FT[2]",
                0.01,
                16,
                params.ft_max_epochs,
                params.seed + 12,
            ),
        ];
        let mut mft = Vec::new();
        for (name, lr) in [("MFT[1]", 0.05), ("MFT[2]", 0.01)] {
            for &layer in &repair_layers {
                mft.push(run_mft(
                    &setup,
                    lines_used,
                    samples_per_line,
                    name,
                    layer,
                    lr,
                    16,
                    params.ft_max_epochs,
                    params.seed + 13,
                ));
            }
        }
        rows.push(Task2LineResult {
            paper_lines,
            lines_used,
            pr,
            ft,
            mft,
        });
    }
    Task2Results {
        buggy_drawdown_accuracy: metrics::accuracy(&setup.network, &setup.drawdown_set),
        buggy_generalization_accuracy: metrics::accuracy(&setup.network, &setup.generalization_set),
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

/// Formats the Table 2 reproduction.
pub fn format_table2(results: &Task2Results) -> String {
    let mut out = String::new();
    out.push_str("Table 2 — Task 2: 1-D polytope repair of the digit MLP (paper: MNIST + fog)\n");
    out.push_str(&format!(
        "buggy accuracy: {:.1}% clean (drawdown set), {:.1}% fogged (generalization set)\n",
        100.0 * results.buggy_drawdown_accuracy,
        100.0 * results.buggy_generalization_accuracy
    ));
    out.push_str(
        "Lines(paper/used) | KeyPts | PR(L2) D%   G%        T | PR(L3) D%   G%        T | FT[1] D%   G% | FT[2] D%   G%\n",
    );
    for row in &results.rows {
        let l2 = &row.pr[0];
        let l3 = &row.pr[1];
        out.push_str(&format!(
            "{:>5}/{:<4} | {:>6} | {} {} {:>9} | {} {} {:>9} | {} {} | {} {}\n",
            row.paper_lines,
            row.lines_used,
            l2.key_points,
            pct(l2.drawdown),
            pct(l2.generalization),
            metrics::format_duration(l2.time),
            pct(l3.drawdown),
            pct(l3.generalization),
            metrics::format_duration(l3.time),
            pct(row.ft[0].drawdown),
            pct(row.ft[0].generalization),
            pct(row.ft[1].drawdown),
            pct(row.ft[1].generalization),
        ));
    }
    if let Some(last) = results.rows.last() {
        let l2 = &last.pr[0];
        out.push_str(&format!(
            "\nRQ4 timing breakdown for the largest configuration (layer 2): LinRegions {:.1}s, \
             Jacobians {:.1}s, LP {:.1}s, other {:.1}s\n",
            l2.timing.lin_regions.as_secs_f64(),
            l2.timing.jacobians.as_secs_f64(),
            l2.timing.lp.as_secs_f64(),
            l2.timing.other.as_secs_f64(),
        ));
    }
    out.push_str(
        "\nPaper (Table 2): PR drawdown 1.3–2.6% (layer 2) / 5.5–5.9% (layer 3) with 30–46%\n\
         generalization; FT drawdown up to 56% (even diverging once); most PR time is in the\n\
         LP solver.  Expected shape: PR repairs every line with positive generalization and\n\
         much lower drawdown than FT[1].\n",
    );
    out
}

/// Formats the Table 3 reproduction (MFT baselines).
pub fn format_table3(results: &Task2Results) -> String {
    let mut out = String::new();
    out.push_str("Table 3 — Task 2 modified fine-tuning baselines\n");
    out.push_str(
        "Lines(paper/used) | MFT[1]L2 E%  D%   G% | MFT[1]L3 E%  D%   G% | MFT[2]L2 E%  D%   G% | MFT[2]L3 E%  D%   G%\n",
    );
    for row in &results.rows {
        out.push_str(&format!("{:>5}/{:<4} |", row.paper_lines, row.lines_used));
        for entry in &row.mft {
            out.push_str(&format!(
                " {} {} {} |",
                pct(entry.efficacy),
                pct(entry.drawdown),
                pct(entry.generalization)
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "\nPaper (Table 3): MFT reaches at most ~71% efficacy, with <2% drawdown and far lower\n\
         generalization than Provable Repair — it trades efficacy for locality.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn tiny_task2_pipeline_runs_end_to_end() {
        let mut params = Task2Params::for_scale(Scale::Tiny);
        params.line_counts = vec![(10, 2)];
        params.ft_max_epochs = 5;
        let results = run(&params);
        assert_eq!(results.rows.len(), 1);
        let row = &results.rows[0];
        assert_eq!(row.pr.len(), 2);
        assert!(
            row.pr.iter().all(|r| r.repaired),
            "both layers should be repairable"
        );
        assert!(row.pr[0].key_points >= 2 * row.lines_used);
        assert_eq!(row.mft.len(), 4);
        assert!(format_table2(&results).contains("Table 2"));
        assert!(format_table3(&results).contains("Table 3"));
    }
}

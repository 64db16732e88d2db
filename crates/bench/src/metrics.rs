//! Evaluation metrics: efficacy, drawdown, and generalization (§7 "Terms
//! used").

use prdnn_core::DecoupledNetwork;
use prdnn_nn::{Dataset, Network};

/// Anything that maps inputs to class labels — both plain networks
/// (fine-tuning baselines) and repaired DDNNs.
pub trait Classifier {
    /// Predicted class labels of `inputs`, in order.
    fn classify_batch(&self, inputs: &[Vec<f64>]) -> Vec<usize>;
}

impl Classifier for Network {
    fn classify_batch(&self, inputs: &[Vec<f64>]) -> Vec<usize> {
        self.classify_all(inputs)
    }
}

impl Classifier for DecoupledNetwork {
    fn classify_batch(&self, inputs: &[Vec<f64>]) -> Vec<usize> {
        self.classify_all(inputs)
    }
}

/// Classification accuracy of `model` on `data` (1.0 on an empty dataset).
pub fn accuracy(model: &impl Classifier, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let correct = model
        .classify_batch(&data.inputs)
        .iter()
        .zip(&data.labels)
        .filter(|(predicted, expected)| predicted == expected)
        .count();
    correct as f64 / data.len() as f64
}

/// Efficacy: accuracy of the repaired model on the repair set (Provable
/// Repair guarantees 100% by construction).
pub fn efficacy(repaired: &impl Classifier, repair_set: &Dataset) -> f64 {
    accuracy(repaired, repair_set)
}

/// Drawdown: accuracy of the buggy model on the drawdown set minus the
/// accuracy of the repaired model on it.  Lower is better.
pub fn drawdown(
    buggy: &impl Classifier,
    repaired: &impl Classifier,
    drawdown_set: &Dataset,
) -> f64 {
    accuracy(buggy, drawdown_set) - accuracy(repaired, drawdown_set)
}

/// Generalization: accuracy of the repaired model on the generalization set
/// minus the accuracy of the buggy model on it.  Higher is better.
pub fn generalization(
    buggy: &impl Classifier,
    repaired: &impl Classifier,
    generalization_set: &Dataset,
) -> f64 {
    accuracy(repaired, generalization_set) - accuracy(buggy, generalization_set)
}

/// Formats a duration as the paper does (e.g. `1m39.0s`, `21.2s`).
pub fn format_duration(d: std::time::Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 3600.0 {
        format!(
            "{}h{}m{:.1}s",
            secs as u64 / 3600,
            (secs as u64 % 3600) / 60,
            secs % 60.0
        )
    } else if secs >= 60.0 {
        format!("{}m{:.1}s", secs as u64 / 60, secs % 60.0)
    } else {
        format!("{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_linalg::Matrix;
    use prdnn_nn::{Activation, Layer};
    use std::time::Duration;

    fn constant_classifier(label: usize, classes: usize) -> Network {
        // A linear network whose largest output is always `label`.
        let mut weights = Matrix::zeros(classes, 1);
        weights[(label, 0)] = 0.0;
        let mut bias = vec![0.0; classes];
        bias[label] = 1.0;
        Network::new(vec![Layer::dense(weights, bias, Activation::Identity)])
    }

    #[test]
    fn metrics_have_the_papers_signs() {
        let always0 = constant_classifier(0, 2);
        let always1 = constant_classifier(1, 2);
        let data = Dataset::new(
            vec![vec![0.0], vec![0.0], vec![0.0], vec![0.0]],
            vec![0, 0, 0, 1],
        );
        assert_eq!(accuracy(&always0, &data), 0.75);
        assert_eq!(accuracy(&always1, &data), 0.25);
        // "Repairing" from always0 to always1 on this set loses accuracy:
        // positive drawdown, negative generalization.
        assert_eq!(drawdown(&always0, &always1, &data), 0.5);
        assert_eq!(generalization(&always0, &always1, &data), -0.5);
        assert_eq!(efficacy(&always0, &Dataset::default()), 1.0);
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(format_duration(Duration::from_secs_f64(21.23)), "21.2s");
        assert_eq!(format_duration(Duration::from_secs_f64(99.0)), "1m39.0s");
        assert_eq!(
            format_duration(Duration::from_secs_f64(3700.0)),
            "1h1m40.0s"
        );
    }
}

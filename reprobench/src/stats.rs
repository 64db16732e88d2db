//! Order statistics with the harness's tail rule.
//!
//! Every timing the benchmark reports is a percentile of a per-operation
//! sample, never a sum, and carries its sample count.  A tail percentile
//! is refused unless at least [`MIN_BEYOND`] samples lie beyond it: with
//! fewer, "p90" is in effect the slowest one or two samples and moves with
//! whichever operation happened to be slowest.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// A value with the number of samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The summarised value.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested rank.
    TooFewBeyond {
        /// Samples in the series.
        n: usize,
        /// Samples beyond the rank.
        beyond: usize,
    },
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailError::Empty => write!(f, "no samples"),
            TailError::TooFewBeyond { n, beyond } => write!(
                f,
                "{beyond} of {n} samples beyond the percentile (need {MIN_BEYOND})"
            ),
        }
    }
}

/// The `q`-quantile of `samples` (linearly interpolated, as
/// `prdnn_bench::stats` computes it).
///
/// Quantiles above the median must leave [`MIN_BEYOND`] samples beyond
/// rank `ceil(q·n)`; the median itself is accepted at any size, and
/// callers report its `n` alongside.
pub fn percentile(samples: &[f64], q: f64) -> Result<Stat, TailError> {
    let n = samples.len();
    if n == 0 {
        return Err(TailError::Empty);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return Err(TailError::TooFewBeyond { n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Stat {
        value: prdnn_bench::stats::quantile(&sorted, q),
        n,
    })
}

/// The median.
pub fn median(samples: &[f64]) -> Result<Stat, TailError> {
    percentile(samples, 0.5)
}

/// The arithmetic mean, for quality metrics (not timings).
pub fn mean(samples: &[f64]) -> Result<Stat, TailError> {
    if samples.is_empty() {
        return Err(TailError::Empty);
    }
    Ok(Stat {
        value: samples.iter().sum::<f64>() / samples.len() as f64,
        n: samples.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_refuses_a_percentile_with_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 0.9),
            Err(TailError::TooFewBeyond { n: 99, beyond: 9 })
        );
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9).map(|s| s.n), Ok(100));
        // p99 needs a thousand samples.
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_ok());
    }

    #[test]
    fn median_is_order_independent_and_carries_its_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(Stat { value: 2.0, n: 3 }));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap().value, 2.5);
        assert_eq!(median(&[]), Err(TailError::Empty));
        assert_eq!(mean(&[1.0, 2.0]).unwrap().value, 1.5);
    }
}

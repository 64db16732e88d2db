//! Named model generators for the serving layer's model store.
//!
//! A stored model has to come from somewhere; this registry maps a compact,
//! deterministic *generator spec* string to a freshly built [`Network`], so
//! a `prdnn-serve` client (or the `servebench` load generator) can say
//! `{"generator": "digits:7:160:40"}` instead of shipping weights.  Every
//! generator is a pure function of its spec — the same string always
//! produces the bit-identical network, which keeps server restarts and
//! cross-process comparisons reproducible.
//!
//! Supported forms:
//!
//! | Spec | Model |
//! |---|---|
//! | `n1` | the paper's running example N1 (Figure 3a) |
//! | `mlp:<seed>:<d0>x<d1>x...x<dk>` | Xavier-initialised ReLU MLP |
//! | `digits:<seed>:<train>:<test>` | trained digit classifier ([`crate::digits::digit_task`]) |
//! | `acas:<seed>:<train>` | distilled collision-avoidance MLP ([`crate::acas::acas_task`]) |

use prdnn_linalg::Matrix;
use prdnn_nn::{Activation, Layer, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the network described by a generator spec.
///
/// # Errors
///
/// Returns a message naming the offending spec (and the supported forms)
/// when it does not parse.
pub fn build_model(spec: &str) -> Result<Network, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    match kind {
        "n1" if rest.is_empty() => Ok(paper_n1()),
        "mlp" => {
            let [seed, sizes] = rest.as_slice() else {
                return Err(bad_spec(spec, "mlp:<seed>:<d0>x<d1>x..."));
            };
            let seed = parse_u64(spec, seed)?;
            let sizes: Vec<usize> = sizes
                .split('x')
                .map(|s| {
                    s.parse::<usize>()
                        .ok()
                        .filter(|&d| d > 0 && d <= MAX_MLP_WIDTH)
                        .ok_or_else(|| bad_spec(spec, "layer sizes must be integers in 1..=4096"))
                })
                .collect::<Result<_, _>>()?;
            if sizes.len() < 2 || sizes.len() > MAX_MLP_DEPTH {
                return Err(bad_spec(spec, "mlp needs 2..=16 layer sizes"));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            Ok(Network::mlp(&sizes, Activation::Relu, &mut rng))
        }
        "digits" => {
            let [seed, train, test] = rest.as_slice() else {
                return Err(bad_spec(spec, "digits:<seed>:<train>:<test>"));
            };
            let seed = parse_u64(spec, seed)?;
            let train = parse_count(spec, train)?;
            let test = parse_count(spec, test)?;
            Ok(crate::digits::digit_task(seed, train, test).network)
        }
        "acas" => {
            let [seed, train] = rest.as_slice() else {
                return Err(bad_spec(spec, "acas:<seed>:<train>"));
            };
            let seed = parse_u64(spec, seed)?;
            let train = parse_count(spec, train)?;
            Ok(crate::acas::acas_task(seed, train).network)
        }
        _ => Err(bad_spec(
            spec,
            "n1 | mlp:<seed>:<sizes> | digits:<seed>:<train>:<test> | acas:<seed>:<train>",
        )),
    }
}

/// Cap on training-sample counts in generator specs.  Specs are
/// reachable from untrusted `prdnn-serve` clients and generation +
/// training run synchronously, so a 60-byte request must not be able to
/// demand hours of CPU; this is still ~100× the workspace's own tasks.
const MAX_SAMPLES: usize = 100_000;

/// Cap on a single MLP layer width, for the same reason.
const MAX_MLP_WIDTH: usize = 4_096;

/// Cap on the number of MLP layer sizes.
const MAX_MLP_DEPTH: usize = 16;

fn bad_spec(spec: &str, expected: &str) -> String {
    format!("unknown model generator spec {spec:?}: expected {expected}")
}

fn parse_u64(spec: &str, s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| bad_spec(spec, "a non-negative integer seed"))
}

fn parse_count(spec: &str, s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|&c| c > 0 && c <= MAX_SAMPLES)
        .ok_or_else(|| {
            bad_spec(
                spec,
                "a positive sample count (at most 100000 — generators train synchronously)",
            )
        })
}

/// The paper's running example N1 (Figure 3a): one input, three ReLU
/// hidden units, one output — the smallest spec-repairable model, used as
/// the serving smoke-test default.
fn paper_n1() -> Network {
    Network::new(vec![
        Layer::dense(
            Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![1.0]]),
            vec![0.0, 0.0, -1.0],
            Activation::Relu,
        ),
        Layer::dense(
            Matrix::from_rows(&[vec![-1.0, -1.0, 1.0]]),
            vec![0.0],
            Activation::Identity,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n1_matches_the_paper_values() {
        let n1 = build_model("n1").unwrap();
        assert!((n1.forward(&[0.5])[0] + 0.5).abs() < 1e-12);
        assert!((n1.forward(&[1.5])[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn mlp_specs_are_deterministic() {
        let a = build_model("mlp:42:4x16x3").unwrap();
        let b = build_model("mlp:42:4x16x3").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.input_dim(), 4);
        assert_eq!(a.output_dim(), 3);
        let c = build_model("mlp:43:4x16x3").unwrap();
        assert_ne!(a, c, "different seeds must give different weights");
    }

    #[test]
    fn trained_generators_build() {
        let digits = build_model("digits:7:40:10").unwrap();
        assert_eq!(digits.input_dim(), 49);
        assert_eq!(digits.output_dim(), 10);
        let acas = build_model("acas:7:40").unwrap();
        assert_eq!(acas.output_dim(), 5);
    }

    /// Builds `spec` and checks its trained bits against `hash`.
    fn assert_trained_bits(spec: &str, hash: u64) {
        let got = prdnn_nn::network_content_hash(&build_model(spec).unwrap());
        assert_eq!(got, hash, "{spec}: content hash {got:#x}");
    }

    /// The trained bits of the two generator specs the in-process serving
    /// benchmark loads, pinned: every served digit and collision-avoidance
    /// number rests on them.  Training sums each minibatch's gradients in
    /// example order, so a trainer that reorders a single sum changes
    /// these hashes.
    #[test]
    fn served_digit_spec_keeps_its_bits() {
        assert_trained_bits("digits:20210425:400:200", 0xbc36_82a1_dba8_1c47);
    }

    /// See [`served_digit_spec_keeps_its_bits`].
    #[test]
    fn served_acas_spec_keeps_its_bits() {
        assert_trained_bits("acas:1121:1500", 0x031c_72ad_4733_2c14);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "resnet",
            "mlp",
            "mlp:seed:4x4",
            "mlp:1:4",
            "mlp:1:4x0x2",
            "digits:1:0:10",
            "acas:1",
            "n1:extra",
            // Resource caps: these specs are reachable from untrusted
            // serve clients.
            "mlp:1:4x99999x2",
            "mlp:1:2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2x2",
            "digits:1:4000000000:1",
            "acas:1:200000",
        ] {
            let err = build_model(bad).unwrap_err();
            assert!(err.contains("spec"), "{err}");
        }
    }
}

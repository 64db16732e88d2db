//! Shared repair machinery: configuration, outcomes, errors, and the
//! key-point LP encoding used by both repair algorithms.

use crate::ddnn::DecoupledNetwork;
use crate::spec::OutputPolytope;
use prdnn_linalg::vector;
use prdnn_lp::{ConstraintOp, LpBackend, LpError, LpProblem, PricingRule, SolveOptions, VarKind};
use serde::json::Value;
use std::time::{Duration, Instant};

/// The norm minimised over the parameter delta `Δ` (Definition 5.3's
/// user-defined measure of repair size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairNorm {
    /// `Σ |Δ_i|` — the paper's default choice.
    #[default]
    L1,
    /// `max |Δ_i|`.
    LInf,
}

/// Configuration of the repair LP.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Which norm of `Δ` to minimise.
    pub norm: RepairNorm,
    /// Optional hard bound `|Δ_i| ≤ bound` on every parameter change.
    pub param_bound: Option<f64>,
    /// Iteration limit handed to the simplex solver.
    pub max_lp_iterations: usize,
    /// Which simplex backend solves the repair LP.  Every repair LP
    /// minimises a norm over inequality rows, so under the default (`Auto`)
    /// and under `RevisedSparse` it is solved by the dual simplex from the
    /// slack basis; only `DenseTableau` pins the flat tableau.  The primal
    /// backends still take an LP on which the dual breaks down.
    pub lp_backend: LpBackend,
    /// Entering-column pricing rule for the primal revised simplex backend.
    ///
    /// It no longer affects any repair LP, since the dual simplex solves
    /// them all; only an LP on which the dual breaks down reaches the
    /// primal revised backend.  Deleting it (with `lp_backend`) is ROADMAP
    /// item 4.  Precedence mirrors `threads`: an explicit `Dantzig`/`Devex`
    /// wins over the `PRDNN_LP_PRICING` environment variable (the bench
    /// binaries' `--pricing` flag sets it); `Auto` defers to the variable
    /// and then to Devex.
    pub lp_pricing: PricingRule,
    /// Thread count for the parallel hot paths (`LinRegions` and the
    /// per-key-point Jacobians).
    ///
    /// Precedence: `Some(n)` wins over the `PRDNN_THREADS` environment
    /// variable (`Some(1)` forces the guaranteed serial path); `None`
    /// defers to `PRDNN_THREADS`, then to the machine's available
    /// parallelism.  The repair result is bit-identical for every setting —
    /// the knob only affects wall-clock time.
    pub threads: Option<usize>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            norm: RepairNorm::L1,
            param_bound: None,
            max_lp_iterations: 2_000_000,
            lp_backend: LpBackend::Auto,
            lp_pricing: PricingRule::Auto,
            threads: None,
        }
    }
}

/// Wall-clock breakdown of a repair, mirroring the timing split reported in
/// the paper's RQ4 (Figure 7(b) and §7.2/§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairTiming {
    /// Time spent computing `LinRegions` (polytope repair only).
    pub lin_regions: Duration,
    /// Time spent in the key points' batched forward and Jacobian pass.
    pub jacobians: Duration,
    /// Time spent in the LP solve call: the standard-form conversion, the
    /// basis factorisations and the simplex pivots.
    pub lp: Duration,
    /// Everything else: encoding the key-point constraints into the LP,
    /// applying the delta to a copy of the network, and the repair's own
    /// bookkeeping.
    pub other: Duration,
}

impl RepairTiming {
    /// Total repair time.
    pub fn total(&self) -> Duration {
        self.lin_regions + self.jacobians + self.lp + self.other
    }
}

/// Size statistics of a successful repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairStats {
    /// Index of the repaired (value-channel) layer.
    pub layer: usize,
    /// Number of key points encoded in the LP.
    pub num_key_points: usize,
    /// Number of LP constraint rows.
    pub num_constraints: usize,
    /// Number of LP variables (parameters of the repaired layer).
    pub num_variables: usize,
    /// ℓ1 norm of the applied delta.
    pub delta_l1: f64,
    /// ℓ∞ norm of the applied delta.
    pub delta_linf: f64,
    /// Simplex pivots the repair LP took, on either backend.
    pub lp_pivots: u64,
    /// Basis refactorisations during the repair LP solve.
    pub lp_refactorizations: u64,
    /// Wall-clock breakdown.
    pub timing: RepairTiming,
}

/// A successful repair: the repaired DDNN plus the delta and statistics.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired network (original activation channel, patched value
    /// channel).
    pub repaired: DecoupledNetwork,
    /// The parameter delta applied to the repaired layer.
    pub delta: Vec<f64>,
    /// Statistics about the repair.
    pub stats: RepairStats,
}

impl RepairOutcome {
    /// The provenance record for publishing this repair as a new model
    /// version: what was repaired, against which spec, under which
    /// configuration, and how large the change was.
    pub fn provenance(&self, spec_hash: u64, config: &RepairConfig) -> RepairProvenance {
        RepairProvenance {
            spec_hash,
            config: config.clone(),
            layer: self.stats.layer,
            num_key_points: self.stats.num_key_points,
            delta_l1: self.stats.delta_l1,
            delta_linf: self.stats.delta_linf,
            lp_pivots: self.stats.lp_pivots,
            lp_refactorizations: self.stats.lp_refactorizations,
        }
    }
}

/// Provenance of a published repair: enough metadata to audit where a
/// model version came from without re-running the repair.
///
/// The serving layer attaches one of these to every model version a
/// successful repair publishes; `spec_hash` is the
/// [`PointSpec::content_hash`](crate::PointSpec::content_hash) /
/// [`PolytopeSpec::content_hash`](crate::PolytopeSpec::content_hash) of the
/// specification the version provably satisfies.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairProvenance {
    /// Content hash of the repair specification.
    pub spec_hash: u64,
    /// The configuration the repair ran under.
    pub config: RepairConfig,
    /// The repaired (value-channel) layer.
    pub layer: usize,
    /// Number of key points encoded in the repair LP.
    pub num_key_points: usize,
    /// ℓ1 norm of the applied delta.
    pub delta_l1: f64,
    /// ℓ∞ norm of the applied delta.
    pub delta_linf: f64,
    /// Simplex pivots the repair LP took (0 for records published before
    /// the counter existed, or before dense-tableau solves counted theirs).
    pub lp_pivots: u64,
    /// Basis refactorisations during the repair LP solve.
    pub lp_refactorizations: u64,
}

impl RepairConfig {
    /// Encodes the configuration as a JSON document — the shared format of
    /// the serve wire protocol and the durable version log.
    ///
    /// `threads` is deliberately **not** encoded: it is an execution knob
    /// owned by whoever runs the repair (the server owns its pool), never
    /// part of what a repair *means*, and results are bit-identical across
    /// every setting.
    pub fn to_json(&self) -> Value {
        Value::obj([
            (
                "norm",
                Value::Str(
                    match self.norm {
                        RepairNorm::L1 => "l1",
                        RepairNorm::LInf => "linf",
                    }
                    .to_owned(),
                ),
            ),
            (
                "param_bound",
                self.param_bound.map_or(Value::Null, Value::Num),
            ),
            (
                "max_lp_iterations",
                Value::Num(self.max_lp_iterations as f64),
            ),
            (
                "lp_backend",
                Value::Str(
                    match self.lp_backend {
                        LpBackend::Auto => "auto",
                        LpBackend::DenseTableau => "dense_tableau",
                        LpBackend::RevisedSparse => "revised_sparse",
                    }
                    .to_owned(),
                ),
            ),
            (
                "lp_pricing",
                Value::Str(
                    match self.lp_pricing {
                        PricingRule::Auto => "auto",
                        PricingRule::Dantzig => "dantzig",
                        PricingRule::Devex => "devex",
                    }
                    .to_owned(),
                ),
            ),
        ])
    }

    /// Decodes a configuration from its JSON document.  Missing fields take
    /// their defaults (`threads` is always `None`; see [`Self::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_json(v: &Value) -> Result<RepairConfig, String> {
        let mut config = RepairConfig::default();
        match v.get("norm").and_then(Value::as_str) {
            Some("l1") | None => config.norm = RepairNorm::L1,
            Some("linf") => config.norm = RepairNorm::LInf,
            Some(other) => return Err(format!("config: unknown norm {other:?}")),
        }
        match v.get("param_bound") {
            None | Some(Value::Null) => {}
            Some(b) => {
                let bound = b.as_f64().ok_or("config: param_bound must be a number")?;
                if bound <= 0.0 {
                    return Err("config: param_bound must be positive".to_owned());
                }
                config.param_bound = Some(bound);
            }
        }
        if let Some(iters) = v.get("max_lp_iterations") {
            config.max_lp_iterations = iters
                .as_usize()
                .ok_or("config: max_lp_iterations must be a non-negative integer")?;
        }
        match v.get("lp_backend").and_then(Value::as_str) {
            Some("auto") | None => config.lp_backend = LpBackend::Auto,
            Some("dense_tableau") => config.lp_backend = LpBackend::DenseTableau,
            Some("revised_sparse") => config.lp_backend = LpBackend::RevisedSparse,
            Some(other) => return Err(format!("config: unknown lp_backend {other:?}")),
        }
        match v.get("lp_pricing").and_then(Value::as_str) {
            Some("auto") | None => config.lp_pricing = PricingRule::Auto,
            Some("dantzig") => config.lp_pricing = PricingRule::Dantzig,
            Some("devex") => config.lp_pricing = PricingRule::Devex,
            Some(other) => return Err(format!("config: unknown lp_pricing {other:?}")),
        }
        Ok(config)
    }
}

impl RepairProvenance {
    /// Encodes the provenance as a JSON document.  The spec hash is written
    /// as a `0x`-prefixed hex string: it is a 64-bit pattern, not a number,
    /// and must survive the JSON `f64` number model untouched.
    pub fn to_json(&self) -> Value {
        Value::obj([
            (
                "spec_hash",
                Value::Str(format!("0x{:016x}", self.spec_hash)),
            ),
            ("config", self.config.to_json()),
            ("layer", Value::Num(self.layer as f64)),
            ("num_key_points", Value::Num(self.num_key_points as f64)),
            ("delta_l1", Value::Num(self.delta_l1)),
            ("delta_linf", Value::Num(self.delta_linf)),
            ("lp_pivots", Value::Num(self.lp_pivots as f64)),
            (
                "lp_refactorizations",
                Value::Num(self.lp_refactorizations as f64),
            ),
        ])
    }

    /// Decodes a provenance record from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
    pub fn from_json(v: &Value) -> Result<RepairProvenance, String> {
        let spec_hash = v
            .get("spec_hash")
            .and_then(Value::as_str)
            .ok_or("provenance: missing \"spec_hash\"")?;
        let spec_hash = spec_hash
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("provenance: malformed spec_hash {spec_hash:?}"))?;
        Ok(RepairProvenance {
            spec_hash,
            config: RepairConfig::from_json(
                v.get("config").ok_or("provenance: missing \"config\"")?,
            )?,
            layer: v
                .get("layer")
                .and_then(Value::as_usize)
                .ok_or("provenance: missing \"layer\"")?,
            num_key_points: v
                .get("num_key_points")
                .and_then(Value::as_usize)
                .ok_or("provenance: missing \"num_key_points\"")?,
            delta_l1: v
                .get("delta_l1")
                .and_then(Value::as_f64)
                .ok_or("provenance: missing \"delta_l1\"")?,
            delta_linf: v
                .get("delta_linf")
                .and_then(Value::as_f64)
                .ok_or("provenance: missing \"delta_linf\"")?,
            // The LP work counters postdate the first durable records;
            // missing fields decode as 0 so older WAL records keep loading.
            lp_pivots: v
                .get("lp_pivots")
                .and_then(Value::as_f64)
                .map_or(0, |n| n as u64),
            lp_refactorizations: v
                .get("lp_refactorizations")
                .and_then(Value::as_f64)
                .map_or(0, |n| n as u64),
        })
    }
}

/// Errors returned by the repair algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairError {
    /// No single-layer repair of the requested layer satisfies the
    /// specification (the `⊥` of Algorithms 1 and 2).
    Infeasible,
    /// The LP solver exhausted its iteration budget (treated as a timeout in
    /// the evaluation, cf. the starred entries of Table 4).
    LpIterationLimit,
    /// The LP solver broke down numerically: it declared the repair LP
    /// unbounded, which its norm objective (bounded below by 0) cannot be.
    LpNumerical,
    /// The requested layer has no parameters (max/average pooling layers).
    LayerHasNoParameters {
        /// The offending layer index.
        layer: usize,
    },
    /// The requested layer index is out of range.
    LayerOutOfRange {
        /// The offending layer index.
        layer: usize,
        /// The number of layers in the network.
        num_layers: usize,
    },
    /// Polytope repair was requested on a network with non-piecewise-linear
    /// activations (§6's assumption on the DNN).
    NotPiecewiseLinear,
    /// A specification constraint has the wrong output dimension.
    SpecDimensionMismatch {
        /// The network's output dimension.
        expected: usize,
        /// The constraint's output dimension.
        found: usize,
    },
    /// The specification is empty.
    EmptySpec,
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Infeasible => {
                write!(f, "no single-layer repair of the requested layer exists")
            }
            RepairError::LpIterationLimit => write!(f, "LP solver iteration limit exceeded"),
            RepairError::LpNumerical => write!(
                f,
                "LP solver broke down numerically (declared a norm objective unbounded)"
            ),
            RepairError::LayerHasNoParameters { layer } => {
                write!(f, "layer {layer} has no parameters to repair")
            }
            RepairError::LayerOutOfRange { layer, num_layers } => {
                write!(
                    f,
                    "layer index {layer} out of range (network has {num_layers} layers)"
                )
            }
            RepairError::NotPiecewiseLinear => {
                write!(
                    f,
                    "polytope repair requires piecewise-linear activation functions"
                )
            }
            RepairError::SpecDimensionMismatch { expected, found } => {
                write!(
                    f,
                    "specification constrains {found} outputs but the network has {expected}"
                )
            }
            RepairError::EmptySpec => write!(f, "the repair specification is empty"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<LpError> for RepairError {
    /// Maps an LP failure to its true cause.  The repair LP minimises a
    /// norm, which is bounded below by 0, so an `Unbounded` verdict can
    /// only be a numerical breakdown.
    fn from(e: LpError) -> Self {
        match e {
            LpError::Infeasible => RepairError::Infeasible,
            LpError::IterationLimit => RepairError::LpIterationLimit,
            LpError::Unbounded => RepairError::LpNumerical,
        }
    }
}

/// One key point of the LP encoding: a value-channel input point, the point
/// whose activation pattern must be used (Appendix B), and the output
/// polytope to satisfy.
#[derive(Debug, Clone)]
pub(crate) struct KeyPoint {
    /// The point fed to the value channel (a repair point or region vertex).
    pub point: Vec<f64>,
    /// The point fed to the activation channel (equal to `point` for
    /// pointwise repair; a region-interior point for polytope repair).
    pub activation_point: Vec<f64>,
    /// The output polytope this key point must be mapped into.
    pub constraint: OutputPolytope,
}

impl KeyPoint {
    /// A pointwise key point (Algorithm 1): the activation pattern is taken
    /// at the repair point itself.
    pub(crate) fn pointwise(point: Vec<f64>, constraint: OutputPolytope) -> Self {
        KeyPoint {
            activation_point: point.clone(),
            point,
            constraint,
        }
    }

    /// A region-vertex key point (Algorithm 2 / Appendix B): the vertex must
    /// be repaired with the activation pattern of *its region*, which is
    /// fixed by a point in the region's relative interior.
    pub(crate) fn region_vertex(
        vertex: Vec<f64>,
        interior: &[f64],
        constraint: &OutputPolytope,
    ) -> Self {
        KeyPoint {
            point: vertex,
            activation_point: interior.to_vec(),
            constraint: constraint.clone(),
        }
    }
}

/// Validates the layer index and spec dimensions shared by both algorithms.
pub(crate) fn validate(
    ddnn: &DecoupledNetwork,
    layer: usize,
    constraints: &[OutputPolytope],
) -> Result<(), RepairError> {
    if layer >= ddnn.num_layers() {
        return Err(RepairError::LayerOutOfRange {
            layer,
            num_layers: ddnn.num_layers(),
        });
    }
    if ddnn.value_network().layer(layer).num_params() == 0 {
        return Err(RepairError::LayerHasNoParameters { layer });
    }
    if constraints.is_empty() {
        return Err(RepairError::EmptySpec);
    }
    for c in constraints {
        if c.output_dim() != ddnn.output_dim() {
            return Err(RepairError::SpecDimensionMismatch {
                expected: ddnn.output_dim(),
                found: c.output_dim(),
            });
        }
    }
    Ok(())
}

/// The core of Algorithm 1: encode every key point's constraint
/// `A (N(x) + J_x Δ) ≤ b` into an LP over `Δ`, solve for the norm-minimal
/// `Δ`, and apply it to the value channel of `ddnn`.
///
/// `pool` is the thread pool already resolved from `config.threads` (the
/// caller may have used it for `LinRegions` first).
pub(crate) fn repair_key_points(
    ddnn: &DecoupledNetwork,
    layer: usize,
    key_points: &[KeyPoint],
    config: &RepairConfig,
    pool: &prdnn_par::ThreadPool,
    lin_regions_time: Duration,
) -> Result<RepairOutcome, RepairError> {
    let start_total = Instant::now();
    let num_params = ddnn.value_network().layer(layer).num_params();

    let mut lp = LpProblem::new();
    let delta_vars = lp.add_vars(num_params, VarKind::Free);
    let mut num_constraints = 0usize;

    // Line 5 of Algorithm 1, batched: the Jacobian of the DDNN output with
    // respect to the repaired layer's value parameters, one per key point
    // (exact by Theorem 4.5), and the output itself, from one forward pass.
    // Key points are independent, so they fan across the thread pool;
    // results come back in key-point order, so the LP rows — and hence the
    // repair — are identical for every thread count.
    let pairs: Vec<(&[f64], &[f64])> = key_points
        .iter()
        .map(|kp| (kp.activation_point.as_slice(), kp.point.as_slice()))
        .collect();
    let jac_start = Instant::now();
    let (jacobians, bases) = ddnn.jacobians_and_outputs_batch_in(pool, layer, &pairs);
    let jacobian_time = jac_start.elapsed();

    let mut a_j_row = vec![0.0; num_params];
    let mut coeffs: Vec<(prdnn_lp::VarId, f64)> = Vec::with_capacity(num_params);
    for (kp, (jacobian, base)) in key_points.iter().zip(jacobians.iter().zip(&bases)) {
        // Line 6: encode A (base + J Δ) ≤ b as (A J) Δ ≤ b − A base.
        let a = &kp.constraint.a;
        let a_base = a.matvec(base);
        for (row, (&b, &a_base)) in kp.constraint.b.iter().zip(&a_base).enumerate() {
            // Row `row` of A·J from the Jacobian rows the face weights (two
            // for a classification face), added in ascending order: the
            // GEMM's summation order, and a skipped zero weight adds only
            // a zero, so every non-zero coefficient has the GEMM's bits.
            a_j_row.fill(0.0);
            for (k, &weight) in a.row(row).iter().enumerate() {
                if weight != 0.0 {
                    for (acc, &j) in a_j_row.iter_mut().zip(jacobian.row(k)) {
                        *acc += weight * j;
                    }
                }
            }
            coeffs.clear();
            coeffs.extend(
                delta_vars
                    .iter()
                    .zip(&a_j_row)
                    .filter(|&(_, &c)| c != 0.0)
                    .map(|(&var, &c)| (var, c)),
            );
            lp.add_constraint(&coeffs, ConstraintOp::Le, b - a_base);
            num_constraints += 1;
        }
    }

    if let Some(bound) = config.param_bound {
        for var in &delta_vars {
            lp.add_constraint(&[(*var, 1.0)], ConstraintOp::Le, bound);
            lp.add_constraint(&[(*var, 1.0)], ConstraintOp::Ge, -bound);
            num_constraints += 2;
        }
    }

    match config.norm {
        RepairNorm::L1 => lp.minimize_l1_of(&delta_vars),
        RepairNorm::LInf => lp.minimize_linf_of(&delta_vars),
    }

    // Line 7: solve for the minimal Δ.
    let lp_start = Instant::now();
    let options = SolveOptions {
        backend: config.lp_backend,
        max_iters: config.max_lp_iterations,
        pricing: config.lp_pricing,
    };
    let (solution, lp_stats) = prdnn_lp::solve_with_stats(&lp, &options)?;
    let lp_time = lp_start.elapsed();

    // Line 9: apply Δ to value layer `layer`.
    let delta = solution.values;
    let mut repaired = ddnn.clone();
    repaired.apply_value_delta(layer, &delta);

    let total = start_total.elapsed() + lin_regions_time;
    let other = total
        .checked_sub(jacobian_time + lp_time + lin_regions_time)
        .unwrap_or(Duration::ZERO);
    Ok(RepairOutcome {
        repaired,
        stats: RepairStats {
            layer,
            num_key_points: key_points.len(),
            num_constraints,
            num_variables: num_params,
            delta_l1: vector::norm_l1(&delta),
            delta_linf: vector::norm_linf(&delta),
            lp_pivots: lp_stats.pivots,
            lp_refactorizations: lp_stats.refactorizations,
            timing: RepairTiming {
                lin_regions: lin_regions_time,
                jacobians: jacobian_time,
                lp: lp_time,
                other,
            },
        },
        delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_total_sums_components() {
        let t = RepairTiming {
            lin_regions: Duration::from_millis(1),
            jacobians: Duration::from_millis(2),
            lp: Duration::from_millis(3),
            other: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn error_display_is_informative() {
        let e = RepairError::LayerOutOfRange {
            layer: 7,
            num_layers: 3,
        };
        assert!(e.to_string().contains("7"));
        assert!(RepairError::Infeasible
            .to_string()
            .contains("no single-layer repair"));
    }

    #[test]
    fn lp_failures_map_to_their_true_cause() {
        let solve = |r: Result<u8, LpError>| -> Result<u8, RepairError> { Ok(r?) };
        assert_eq!(solve(Ok(7)), Ok(7));
        assert_eq!(
            solve(Err(LpError::Infeasible)),
            Err(RepairError::Infeasible)
        );
        assert_eq!(
            solve(Err(LpError::IterationLimit)),
            Err(RepairError::LpIterationLimit)
        );
        // A norm objective cannot be unbounded: that verdict is numerical
        // breakdown, never an iteration limit.
        let numerical = solve(Err(LpError::Unbounded)).unwrap_err();
        assert_eq!(numerical, RepairError::LpNumerical);
        assert!(numerical.to_string().contains("numerically"));
        assert!(!numerical.to_string().contains("iteration"));
    }

    #[test]
    fn default_config_uses_l1_and_auto_backend() {
        let c = RepairConfig::default();
        assert_eq!(c.norm, RepairNorm::L1);
        assert!(c.param_bound.is_none());
        assert_eq!(c.lp_backend, LpBackend::Auto);
        // Default pricing defers to PRDNN_LP_PRICING, then Devex.
        assert_eq!(c.lp_pricing, PricingRule::Auto);
        // Default thread count defers to PRDNN_THREADS / the machine.
        assert_eq!(c.threads, None);
    }

    #[test]
    fn config_and_provenance_round_trip_through_json() {
        for (norm, bound, backend, pricing) in [
            (RepairNorm::L1, None, LpBackend::Auto, PricingRule::Auto),
            (
                RepairNorm::LInf,
                Some(0.25),
                LpBackend::DenseTableau,
                PricingRule::Dantzig,
            ),
            (
                RepairNorm::L1,
                Some(1e3),
                LpBackend::RevisedSparse,
                PricingRule::Devex,
            ),
        ] {
            let config = RepairConfig {
                norm,
                param_bound: bound,
                max_lp_iterations: 12_345,
                lp_backend: backend,
                lp_pricing: pricing,
                threads: None,
            };
            let back = RepairConfig::from_json(&config.to_json()).unwrap();
            assert_eq!(back, config);
            let provenance = RepairProvenance {
                // Top bit set: must survive as a bit pattern, not an f64.
                spec_hash: 0xdead_beef_0000_0001u64 | (1 << 63),
                config,
                layer: 2,
                num_key_points: 7,
                delta_l1: 0.125,
                delta_linf: 1.0 / 3.0,
                lp_pivots: 42,
                lp_refactorizations: 3,
            };
            let back = RepairProvenance::from_json(&provenance.to_json()).unwrap();
            assert_eq!(back, provenance);
            assert_eq!(back.spec_hash, provenance.spec_hash);

            // Records published before the LP counters existed lack the
            // fields; they must decode as 0, not fail.
            let mut doc = provenance.to_json();
            if let Value::Obj(fields) = &mut doc {
                fields.retain(|(k, _)| k != "lp_pivots" && k != "lp_refactorizations");
            }
            let old = RepairProvenance::from_json(&doc).unwrap();
            assert_eq!(old.lp_pivots, 0);
            assert_eq!(old.lp_refactorizations, 0);
        }
        assert!(RepairProvenance::from_json(&Value::obj([])).is_err());
        assert!(RepairConfig::from_json(&Value::obj([("norm", Value::Str("l7".into()))])).is_err());
    }
}

//! Shared repair machinery: configuration, outcomes, errors, and the
//! key-point LP encoding used by both repair algorithms.

use crate::ddnn::DecoupledNetwork;
use crate::spec::OutputPolytope;
use prdnn_linalg::{vector, Matrix};
use prdnn_lp::{
    is_violated, ConstraintOp, LpBackend, LpError, LpProblem, LpStats, PricingRule, ResumableLp,
    SolveOptions, VarId, VarKind,
};
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
    /// item 1.  Precedence mirrors `threads`: an explicit `Dantzig`/`Devex`
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
    /// Time spent in the LP solver, summed over the row-generation rounds:
    /// building its standard form and slack basis from the rows violated
    /// at `Δ = 0`, then each round's solve (its factorisation and pivots).
    /// Zero when `Δ = 0` violates no row.
    pub lp: Duration,
    /// Everything else: encoding the key-point rows (forming `A·J` for the
    /// rows that enter the LP and appending them), checking every key
    /// point's rows at each round's `Δ`, applying the delta to a copy of
    /// the network, and the repair's own bookkeeping.
    pub other: Duration,
}

impl RepairTiming {
    /// Total repair time.
    pub fn total(&self) -> Duration {
        self.lin_regions + self.jacobians + self.lp + self.other
    }
}

/// Size statistics of a successful repair.
///
/// The repair LP is built by row generation (see `lp_rows`), but
/// `num_constraints` counts every row of the encoding, and the repaired
/// network satisfies all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairStats {
    /// Index of the repaired (value-channel) layer.
    pub layer: usize,
    /// Number of key points encoded.
    pub num_key_points: usize,
    /// Rows of the encoding: one per face of each key point's output
    /// polytope, plus the `param_bound` rows.
    pub num_constraints: usize,
    /// Number of LP variables (parameters of the repaired layer).
    pub num_variables: usize,
    /// ℓ1 norm of the applied delta.
    pub delta_l1: f64,
    /// ℓ∞ norm of the applied delta.
    pub delta_linf: f64,
    /// Simplex pivots the repair LP took, on either backend, summed over
    /// the row-generation rounds.
    pub lp_pivots: u64,
    /// Mid-solve basis refactorisations during the repair LP's solves.
    pub lp_refactorizations: u64,
    /// The rows of the encoding (of `num_constraints`) in the LP when it
    /// stopped: the key-point rows row generation added, plus the
    /// `param_bound` rows.  0 when `Δ = 0` violated no row and no LP was
    /// built.
    pub lp_rows: usize,
    /// LP solves row generation took: one per round.
    pub lp_rounds: usize,
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

/// The key points' rows `A (y₀ + J Δ) ≤ b` (Algorithm 1, line 6), one per
/// face of each key point's output polytope, in key-point then face order.
/// By Theorem 4.5 the output is exactly `y₀ + J Δ` for every `Δ`, so a row
/// can be checked at any `Δ` from the Jacobian alone; its LP row
/// `(A J) Δ ≤ b − A y₀` is formed only when it enters the LP.
struct KeyPointRows<'a> {
    key_points: &'a [KeyPoint],
    jacobians: &'a [Matrix],
    /// Per row: its key point, its face, and its residual at `Δ = 0`,
    /// `b − A y₀`.
    rows: Vec<(usize, usize, f64)>,
}

impl<'a> KeyPointRows<'a> {
    fn new(key_points: &'a [KeyPoint], jacobians: &'a [Matrix], outputs: &[Vec<f64>]) -> Self {
        let mut rows = Vec::new();
        for (k, (kp, y0)) in key_points.iter().zip(outputs).enumerate() {
            let a_y0 = kp.constraint.a.matvec(y0);
            for (face, (&b, &a_y0)) in kp.constraint.b.iter().zip(&a_y0).enumerate() {
                rows.push((k, face, b - a_y0));
            }
        }
        KeyPointRows {
            key_points,
            jacobians,
            rows,
        }
    }

    /// Row `r`'s LP terms: the non-zeros of its row of `A J` over `vars`.
    /// The row is summed from the Jacobian rows the face weights, in
    /// ascending order: the GEMM's summation order, and a skipped zero
    /// weight adds only a zero, so every coefficient has the GEMM's bits.
    fn terms(&self, r: usize, vars: &[VarId], a_j: &mut [f64], out: &mut Vec<(VarId, f64)>) {
        let (k, face, _) = self.rows[r];
        let jacobian = &self.jacobians[k];
        a_j.fill(0.0);
        for (i, &weight) in self.key_points[k].constraint.a.row(face).iter().enumerate() {
            if weight != 0.0 {
                for (acc, &j) in a_j.iter_mut().zip(jacobian.row(i)) {
                    *acc += weight * j;
                }
            }
        }
        out.clear();
        out.extend(
            vars.iter()
                .zip(a_j.iter())
                .filter(|&(_, &c)| c != 0.0)
                .map(|(&var, &c)| (var, c)),
        );
    }

    /// The rows not `in_lp` that `delta` violates, by the LP's own test,
    /// in row order.  `J Δ` is summed over `delta`'s non-zeros, once per
    /// key point with a row to check.
    fn violated(&self, delta: &[f64], in_lp: &[bool]) -> Vec<usize> {
        let nonzeros: Vec<(usize, f64)> = delta
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != 0.0)
            .map(|(j, &d)| (j, d))
            .collect();
        let mut j_delta: Vec<f64> = Vec::new();
        let mut at = usize::MAX;
        let mut violated = Vec::new();
        for (r, &(k, face, residual)) in self.rows.iter().enumerate() {
            if in_lp[r] {
                continue;
            }
            if k != at {
                at = k;
                let jacobian = &self.jacobians[k];
                j_delta.clear();
                j_delta.extend((0..jacobian.rows()).map(|i| {
                    let row = jacobian.row(i);
                    nonzeros.iter().map(|&(j, d)| row[j] * d).sum::<f64>()
                }));
            }
            let a = self.key_points[k].constraint.a.row(face);
            if is_violated(residual - vector::dot(a, &j_delta)) {
                violated.push(r);
            }
        }
        violated
    }

    /// The LP over `Δ` with the rows `rows`, the `param_bound` box and the
    /// norm objective; returns it with its `Δ` variables.
    fn lp(
        &self,
        rows: &[usize],
        num_params: usize,
        config: &RepairConfig,
    ) -> (LpProblem, Vec<VarId>) {
        let mut lp = LpProblem::new();
        let vars = lp.add_vars(num_params, VarKind::Free);
        let (mut a_j, mut terms) = (vec![0.0; num_params], Vec::with_capacity(num_params));
        for &r in rows {
            self.terms(r, &vars, &mut a_j, &mut terms);
            lp.add_constraint(&terms, ConstraintOp::Le, self.rows[r].2);
        }
        if let Some(bound) = config.param_bound {
            for var in &vars {
                lp.add_constraint(&[(*var, 1.0)], ConstraintOp::Le, bound);
                lp.add_constraint(&[(*var, 1.0)], ConstraintOp::Ge, -bound);
            }
        }
        match config.norm {
            RepairNorm::L1 => lp.minimize_l1_of(&vars),
            RepairNorm::LInf => lp.minimize_linf_of(&vars),
        }
        (lp, vars)
    }
}

/// The core of Algorithm 1: the norm-minimal `Δ` with every key point's
/// constraint `A (N(x) + J_x Δ) ≤ b` satisfied, applied to the value
/// channel of `ddnn`.
///
/// The LP is built by row generation: it starts from the rows `Δ = 0`
/// violates, and after each solve the rows the new `Δ` violates are
/// appended and the dual simplex resumes from its basis, until no row is
/// violated.  The result is the all-rows LP's optimum: the final basis plus
/// the never-added rows' slacks is a dual-feasible basis of the full LP
/// (those rows' duals are 0) at which every row passes the dual's own
/// feasibility test; and an infeasible relaxation proves the full LP
/// infeasible.  If `Δ = 0` violates no row, it is returned without an LP.
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
    let (jacobians, outputs) = ddnn.jacobians_and_outputs_batch_in(pool, layer, &pairs);
    let jacobian_time = jac_start.elapsed();

    // Lines 6–7, by row generation.
    let encoding = KeyPointRows::new(key_points, &jacobians, &outputs);
    let mut in_lp = vec![false; encoding.rows.len()];
    let mut violated = encoding.violated(&[], &in_lp);
    let bound_rows = config.param_bound.map_or(0, |_| 2 * num_params);
    let (mut lp_time, mut lp_stats, mut lp_rounds) = (Duration::ZERO, LpStats::default(), 0);
    let mut repaired = ddnn.clone();
    let delta = if violated.is_empty() && !config.param_bound.is_some_and(is_violated) {
        vec![0.0; num_params]
    } else {
        let (problem, vars) = encoding.lp(&violated, num_params, config);
        let options = SolveOptions {
            backend: config.lp_backend,
            max_iters: config.max_lp_iterations,
            pricing: config.lp_pricing,
        };
        let lp_start = Instant::now();
        let mut lp = ResumableLp::new(problem, &options);
        lp_time += lp_start.elapsed();
        let (mut a_j, mut terms) = (vec![0.0; num_params], Vec::with_capacity(num_params));
        let delta = loop {
            for &r in &violated {
                in_lp[r] = true;
            }
            let solve_start = Instant::now();
            let (solution, stats) = lp.solve()?;
            lp_time += solve_start.elapsed();
            lp_stats = stats;
            lp_rounds += 1;
            violated = encoding.violated(&solution.values, &in_lp);
            if violated.is_empty() {
                break solution.values;
            }
            for &r in &violated {
                encoding.terms(r, &vars, &mut a_j, &mut terms);
                lp.add_constraint(&terms, ConstraintOp::Le, encoding.rows[r].2);
            }
        };
        // Line 9: apply Δ to value layer `layer`.
        repaired.apply_value_delta(layer, &delta);
        delta
    };
    let lp_rows = match lp_rounds {
        0 => 0,
        _ => in_lp.iter().filter(|&&added| added).count() + bound_rows,
    };

    let total = start_total.elapsed() + lin_regions_time;
    let other = total
        .checked_sub(jacobian_time + lp_time + lin_regions_time)
        .unwrap_or(Duration::ZERO);
    Ok(RepairOutcome {
        repaired,
        stats: RepairStats {
            layer,
            num_key_points: key_points.len(),
            num_constraints: encoding.rows.len() + bound_rows,
            num_variables: num_params,
            delta_l1: vector::norm_l1(&delta),
            delta_linf: vector::norm_linf(&delta),
            lp_pivots: lp_stats.pivots,
            lp_refactorizations: lp_stats.refactorizations,
            lp_rows,
            lp_rounds,
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
    use crate::polytope_repair::region_key_points;
    use crate::spec::{InputPolytope, PointSpec, PolytopeSpec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle row generation must agree with: every key point's rows,
    /// from the same encoder, in one LP solved in one shot.
    fn all_rows_delta(
        ddnn: &DecoupledNetwork,
        layer: usize,
        key_points: &[KeyPoint],
        config: &RepairConfig,
    ) -> Result<Vec<f64>, LpError> {
        let pairs: Vec<(&[f64], &[f64])> = key_points
            .iter()
            .map(|kp| (kp.activation_point.as_slice(), kp.point.as_slice()))
            .collect();
        let pool = prdnn_par::pool_for(Some(1));
        let (jacobians, outputs) = ddnn.jacobians_and_outputs_batch_in(&pool, layer, &pairs);
        let encoding = KeyPointRows::new(key_points, &jacobians, &outputs);
        let all: Vec<usize> = (0..encoding.rows.len()).collect();
        let num_params = ddnn.value_network().layer(layer).num_params();
        let (lp, _) = encoding.lp(&all, num_params, config);
        let options = SolveOptions {
            backend: config.lp_backend,
            max_iters: config.max_lp_iterations,
            pricing: config.lp_pricing,
        };
        prdnn_lp::solve_with_stats(&lp, &options).map(|(solution, _)| solution.values)
    }

    /// A random repair: a ReLU MLP `2 → width → width → 3`, the layer to
    /// repair, and a spec of `count` items of one kind.
    #[derive(Debug, Clone)]
    struct Case {
        seed: u64,
        width: usize,
        layer: usize,
        /// 0: classification points; 1: interval points, some already
        /// satisfied; 2: classification segments; 3: interval segments.
        kind: u8,
        count: usize,
        linf: bool,
        param_bound: Option<f64>,
    }

    fn case() -> impl Strategy<Value = Case> {
        (
            (0u64..1 << 40, 3usize..8, 0usize..3),
            (0u8..4, 1usize..6, 0u8..2),
            (0u8..2, 0.05..2.0f64),
        )
            .prop_map(
                |((seed, width, layer), (kind, count, linf), (bounded, bound))| Case {
                    seed,
                    width,
                    layer,
                    kind,
                    count,
                    linf: linf == 1,
                    param_bound: (bounded == 1).then_some(bound),
                },
            )
    }

    /// The case's network and key points, built as the public entry points
    /// build them.
    fn build(c: &Case) -> (prdnn_nn::Network, Vec<KeyPoint>) {
        let mut rng = StdRng::seed_from_u64(c.seed);
        let net = prdnn_nn::Network::mlp(
            &[2, c.width, c.width, 3],
            prdnn_nn::Activation::Relu,
            &mut rng,
        );
        let point = |rng: &mut StdRng| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
        let constraint = |rng: &mut StdRng, y: Vec<f64>| match c.kind % 2 {
            0 => OutputPolytope::classification(rng.gen_range(0..3), 3, 1e-3),
            _ => {
                let lo: Vec<f64> = y.iter().map(|v| v + rng.gen_range(-0.6..0.2)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.05..0.8)).collect();
                OutputPolytope::interval(&lo, &hi)
            }
        };
        let key_points = if c.kind < 2 {
            (0..c.count)
                .map(|_| {
                    let x = point(&mut rng);
                    let constraint = constraint(&mut rng, net.forward(&x));
                    KeyPoint::pointwise(x, constraint)
                })
                .collect()
        } else {
            let mut spec = PolytopeSpec::new();
            for _ in 0..c.count {
                let (start, end) = (point(&mut rng), point(&mut rng));
                let constraint = constraint(&mut rng, net.forward(&start));
                spec.push(InputPolytope::segment(start, end), constraint);
            }
            let pool = prdnn_par::pool_for(Some(1));
            region_key_points(&pool, &net, &spec).expect("segments").0
        };
        (net, key_points)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn row_generation_matches_the_all_rows_lp(c in case()) {
            let (net, key_points) = build(&c);
            let ddnn = DecoupledNetwork::from_network(&net);
            let config = RepairConfig {
                norm: if c.linf { RepairNorm::LInf } else { RepairNorm::L1 },
                param_bound: c.param_bound,
                ..RepairConfig::default()
            };
            let pool = prdnn_par::pool_for(Some(1));
            let generated =
                repair_key_points(&ddnn, c.layer, &key_points, &config, &pool, Duration::ZERO);
            match (generated, all_rows_delta(&ddnn, c.layer, &key_points, &config)) {
                (Ok(outcome), Ok(oracle)) => {
                    let (norm, expected) = match config.norm {
                        RepairNorm::L1 => (outcome.stats.delta_l1, vector::norm_l1(&oracle)),
                        RepairNorm::LInf => (outcome.stats.delta_linf, vector::norm_linf(&oracle)),
                    };
                    prop_assert!(
                        (norm - expected).abs() <= 1e-9 * norm.abs().max(expected.abs()),
                        "row generation {norm} vs all rows {expected}"
                    );
                    for kp in &key_points {
                        let y = outcome.repaired.forward_decoupled(&kp.activation_point, &kp.point);
                        prop_assert!(kp.constraint.contains(&y, 1e-6), "a spec row is violated");
                    }
                    let stats = &outcome.stats;
                    prop_assert!(stats.lp_rows <= stats.num_constraints);
                    prop_assert_eq!(stats.lp_rounds == 0, stats.lp_rows == 0);
                }
                (Err(generated), Err(oracle)) => {
                    prop_assert_eq!(generated, RepairError::from(oracle));
                }
                (generated, oracle) => prop_assert!(
                    false,
                    "row generation {:?} vs all rows {:?}",
                    generated.map(|o| o.stats.delta_l1),
                    oracle.map(|d| vector::norm_l1(&d))
                ),
            }
        }
    }

    #[test]
    fn a_satisfied_spec_returns_the_network_unchanged_without_an_lp() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = prdnn_nn::Network::mlp(&[2, 6, 6, 3], prdnn_nn::Activation::Relu, &mut rng);
        let ddnn = DecoupledNetwork::from_network(&net);
        let mut spec = PointSpec::new();
        for _ in 0..4 {
            let x = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            let y = net.forward(&x);
            let lo: Vec<f64> = y.iter().map(|v| v - 1.0).collect();
            let hi: Vec<f64> = y.iter().map(|v| v + 1.0).collect();
            spec.push(x, OutputPolytope::interval(&lo, &hi));
        }
        let bounded = RepairConfig {
            norm: RepairNorm::LInf,
            param_bound: Some(0.5),
            ..RepairConfig::default()
        };
        for config in [RepairConfig::default(), bounded] {
            let outcome = crate::repair_points_ddnn(&ddnn, 1, &spec, &config).unwrap();
            assert!(outcome.delta.iter().all(|&d| d == 0.0));
            let stats = &outcome.stats;
            assert_eq!((stats.lp_pivots, stats.lp_rows, stats.lp_rounds), (0, 0, 0));
            let bound_rows = config.param_bound.map_or(0, |_| 2 * stats.num_variables);
            assert_eq!(stats.num_constraints, 4 * 6 + bound_rows);
            assert_eq!(outcome.repaired, ddnn);
        }
    }

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

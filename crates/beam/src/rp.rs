//! The retarded-potential integrand (paper Eq. 1).
//!
//! The rp-integral at a grid point `p` and time step `k` is
//!
//! ```text
//! I(p) = ∫₀^{R(p)} dr' ∫_{θmin}^{θmax} f⁽ᵖ⁾(r', θ', t') dθ',   t' = kΔt − r'/c
//! ```
//!
//! where `f⁽ᵖ⁾` is the *moment field* (a fixed combination of deposited
//! charge and current densities) evaluated at the polar point
//! `p + r'(cos θ', sin θ')` and at the retarded time `t'` — approximated
//! from the 27 neighbouring grid values of `D_{i−1}, D_i, D_{i+1}` where
//! `i = ⌊t'/Δt⌋`. (The 1/|x−x'| Green's-function denominator cancels against
//! the polar Jacobian r', which is why no kernel factor appears.)
//!
//! Two implementations share this structure:
//! * [`GridRp`] — reads moments from a [`GridHistory`] through the 27-point
//!   stencil, reporting every tap to a [`TapSink`] (the SIMT kernels turn
//!   taps into traced loads).
//! * [`AnalyticRp`] — evaluates the *continuous* rigid-bunch moments, giving
//!   an exact reference value for the same integral (the validation target
//!   of Fig. 2: a rigid monochromatic bunch has time-independent moments,
//!   the one case with an exact solution).

use beamdyn_par::simd::F64x4;
use beamdyn_pic::{
    GridHistory, MomentGrid, StencilResolver, StencilWindow, MOMENT_CHARGE, MOMENT_JX, MOMENT_JY,
};
use beamdyn_quad::NewtonCotes;

use crate::bunch::GaussianBunch;

/// Observer of individual grid-memory taps made while evaluating the
/// integrand. The Predictive-RP kernels map taps to device addresses.
pub trait TapSink {
    /// One moment-grid read: time step of the grid, component, cell indices.
    fn tap(&mut self, step: usize, component: usize, ix: usize, iy: usize);
    /// `n` consecutive same-row reads starting at `ix0` — exactly equivalent
    /// to `n` [`TapSink::tap`] calls with ascending `ix`. Sinks that map taps
    /// to addresses can override this to resolve the row's base address once.
    #[inline]
    fn tap_row(&mut self, step: usize, component: usize, ix0: usize, iy: usize, n: usize) {
        for k in 0..n {
            self.tap(step, component, ix0 + k, iy);
        }
    }
    /// `n` double-precision flops spent since the previous call.
    fn flops(&mut self, n: u32);
}

/// A sink that discards everything (plain numerical evaluation).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TapSink for NullSink {
    #[inline]
    fn tap(&mut self, _step: usize, _component: usize, _ix: usize, _iy: usize) {}
    #[inline]
    fn flops(&mut self, _n: u32) {}
}

/// Geometry and discretisation of the rp-integral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpConfig {
    /// Maximum retardation depth κ in time steps: `R(p) ≤ κ·c·Δt`.
    pub kappa: usize,
    /// Simulation step Δt (with c = 1, also the subregion width `c·Δt`).
    pub dt: f64,
    /// Points of the inner Newton–Cotes angular rule.
    pub inner_points: usize,
    /// Reference velocity factor β: the integrand is
    /// `ρ − β (J_x cos θ + J_y sin θ)` (the effective potential `φ − β·A`
    /// combination whose gradient gives the CSR force). β = 0 reads only
    /// the charge moment (27 taps/sample instead of 81).
    pub beta: f64,
    /// Support half-width of the source ellipse along x (≈ 3.5 σ_x): no
    /// charge lives beyond it, so integrating past the farthest ellipse
    /// point is pointless.
    pub support_x: f64,
    /// Support half-width along y (≈ 3.5 σ_y). Beams are elongated
    /// (σ_s ≫ σ_y in the paper's LCLS setting), which is what makes access
    /// patterns stripe-shaped over the grid rather than annular.
    pub support_y: f64,
    /// Bunch centre used for the support cut.
    pub center: (f64, f64),
}

impl RpConfig {
    /// A reasonable default for unit-square experiments.
    pub fn standard(kappa: usize, dt: f64) -> Self {
        Self {
            kappa,
            dt,
            inner_points: 3,
            beta: 0.5,
            support_x: 0.35,
            support_y: 0.12,
            center: (0.5, 0.5),
        }
    }

    /// Width of one outer subregion `S_j` (c = 1).
    pub fn subregion_width(&self) -> f64 {
        self.dt
    }

    /// Number of subregions available at time step `k` (limited by history).
    pub fn num_subregions(&self, step: usize) -> usize {
        step.min(self.kappa).max(1)
    }

    /// Upper bound of the integration domain at step `k`.
    pub fn max_radius(&self, step: usize) -> f64 {
        self.num_subregions(step) as f64 * self.subregion_width()
    }

    /// The paper's `R(p)`: retardation horizon clipped to the farthest
    /// point of the source support ellipse (no charge contributes beyond
    /// it). Always at least one subregion so every point performs an
    /// integral.
    pub fn point_radius(&self, step: usize, px: f64, py: f64) -> f64 {
        let (cx, cy) = self.center;
        let dx = (px - cx).abs() + self.support_x;
        let dy = (py - cy).abs() + self.support_y;
        (dx * dx + dy * dy)
            .sqrt()
            .min(self.max_radius(step))
            .max(self.subregion_width())
    }

    /// Index `j` of the subregion containing radius `r`.
    pub fn subregion_of(&self, r: f64) -> usize {
        ((r / self.subregion_width()) as usize).min(self.kappa.saturating_sub(1))
    }

    /// Bounds `[a, b]` of subregion `j`.
    pub fn subregion_bounds(&self, j: usize) -> (f64, f64) {
        let w = self.subregion_width();
        (j as f64 * w, (j + 1) as f64 * w)
    }

    /// Retarded stencil centre step `i` and time fraction `s ∈ [0, 1]` for
    /// radius `r` at current step `k` (`t' = kΔt − r`, `i = ⌊t'/Δt⌋`).
    pub fn retarded(&self, step: usize, r: f64) -> (usize, f64) {
        let t_ret = step as f64 - r / self.dt; // in units of Δt

        // The saturating cast is `⌊t'⌋` for t' ≥ 0 and 0 for negatives and
        // NaN: `t_ret.floor().max(0.0) as usize` without libm.
        let i = t_ret as usize;
        let s = (t_ret - i as f64).clamp(0.0, 1.0);
        (i, s)
    }

    /// Moment components the integrand reads (1 when β = 0, else 3).
    pub fn components(&self) -> usize {
        if self.beta == 0.0 {
            1
        } else {
            3
        }
    }
}

/// Grid-backed integrand: the thing the GPU kernels evaluate.
///
/// The angular rule is folded into a per-instance table at construction —
/// one `(weight, sin θ, cos θ)` entry per retained sample, with the closed
/// rule's wrapping endpoint weight already folded into θ₀ — so evaluations
/// perform no trigonometry and no rule lookups. The Newton–Cotes rules top
/// out at 5 points (4 retained samples).
pub struct GridRp<'a> {
    history: &'a GridHistory,
    config: RpConfig,
    /// Current simulation step `k`.
    step: usize,
    /// `(folded weight, sin θ, cos θ)` per angular sample.
    angles: [(f64, f64, f64); 4],
    /// Number of live entries in `angles` (`inner_points − 1`).
    n_angles: usize,
}

/// Flop cost of building one 27-tap stencil sample (weights + accumulate),
/// charged per component actually read. Constants are nominal but uniform
/// across all three kernels, which is what the comparisons need.
const FLOPS_STENCIL_SETUP: u32 = 30;
const FLOPS_PER_TAP: u32 = 2;
const FLOPS_COMBINE: u32 = 12;

impl<'a> GridRp<'a> {
    /// Creates the integrand view for step `k`, precomputing the folded
    /// angular weight/trig table.
    pub fn new(history: &'a GridHistory, config: RpConfig, step: usize) -> Self {
        let rule = NewtonCotes::new(config.inner_points);
        let weights = rule.weights();
        let n = weights.len();
        // Closed rule on [0, 2π): endpoint wraps; fold its weight into θ₀.
        let mut angles = [(0.0, 0.0, 0.0); 4];
        for (jj, &w) in weights.iter().enumerate().take(n - 1) {
            let w = if jj == 0 { w + weights[n - 1] } else { w };
            let theta = std::f64::consts::TAU * jj as f64 / (n - 1) as f64;
            let (sin_t, cos_t) = theta.sin_cos();
            angles[jj] = (w, sin_t, cos_t);
        }
        Self {
            history,
            config,
            step,
            angles,
            n_angles: n - 1,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RpConfig {
        &self.config
    }

    /// Current step `k`.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Evaluates the *inner* (angular) integral at outer radius `r` for the
    /// grid point at `(px, py)`, reporting taps and flops to `sink`.
    pub fn eval<S: TapSink>(&self, px: f64, py: f64, r: f64, sink: &mut S) -> f64 {
        self.eval_impl::<S, true>(px, py, r, sink)
    }

    /// Replays the exact tap/flop stream [`GridRp::eval`] would report at
    /// `(px, py, r)` **without performing the numerical work** — the
    /// device-side cost model of an evaluation whose value the caller
    /// already holds (sample-reusing quadrature). The simulated machine
    /// still "executes" the access pattern — that is what it would do on a
    /// real GPU, where a cached host value has no meaning — so traced
    /// metrics stay identical whether or not the host reuses samples.
    pub fn charge<S: TapSink>(&self, px: f64, py: f64, r: f64, sink: &mut S) {
        self.eval_impl::<S, false>(px, py, r, sink);
    }

    /// Shared body of [`GridRp::eval`] / [`GridRp::charge`]. With
    /// `COMPUTE = false` every `sink` call is preserved verbatim but the
    /// gather/combine arithmetic is skipped (the return value is garbage).
    ///
    /// The hot-path structure: `(i, s)` are constants of the call (they
    /// depend only on `r`), so the three-grid window `D_{i−1}, D_i, D_{i+1}`
    /// is resolved **once per call** instead of once per tap, and each
    /// angular sample gathers through [`StencilWindow`] over pre-resolved
    /// grid references — contiguous 3-cell row slices, no history lookups,
    /// no tap array.
    fn eval_impl<S: TapSink, const COMPUTE: bool>(
        &self,
        px: f64,
        py: f64,
        r: f64,
        sink: &mut S,
    ) -> f64 {
        let geometry = self.history.geometry();
        let (i, s) = self.config.retarded(self.step, r);
        // The tap steps the stencil's dt ∈ {−1, 0, +1} levels resolve to
        // (saturating at step 0, exactly like the per-tap arithmetic did).
        let steps = [i.saturating_sub(1), i, i + 1];
        let window: [Option<&MomentGrid>; 3] = [
            self.history.get_clamped(steps[0]),
            self.history.get_clamped(steps[1]),
            self.history.get_clamped(steps[2]),
        ];
        // A missing *centre* level means the whole sample is skipped (the
        // legacy per-sample `get_clamped(i)` guard); a missing outer level —
        // only ever `i + 1` at the `r = 0` edge, where its Lagrange weight
        // is 0 — just drops out of the gather and the flop charge.
        let has_center = window[1].is_some();
        let present = StencilWindow::present_levels(&window);
        let comps: &[usize] = if self.config.beta == 0.0 {
            &[MOMENT_CHARGE]
        } else {
            &[MOMENT_CHARGE, MOMENT_JX, MOMENT_JY]
        };
        let mut acc = 0.0;
        for &(w, sin_t, cos_t) in &self.angles[..self.n_angles] {
            // Samples falling outside the moment grid are clamped to the
            // border, where the deposited field is (by the support cut)
            // negligible. This keeps every SIMD lane's control flow
            // identical — the role the paper's analytic angular bounds play
            // — instead of branching per sample.
            let qx = (px + r * cos_t).clamp(geometry.x_min, geometry.x_max);
            let qy = (py + r * sin_t).clamp(geometry.y_min, geometry.y_max);
            sink.flops(8); // polar→cartesian + trig (nominal)
            if !has_center {
                continue;
            }
            let win = StencilWindow::new(geometry, qx, qy, s);
            sink.flops(FLOPS_STENCIL_SETUP);
            let mut moment = [0.0f64; 3];
            for &c in comps {
                for &step in &steps {
                    for yi in 0..3 {
                        sink.tap_row(step, c, win.x0, win.y0 + yi, 3);
                    }
                }
                if COMPUTE {
                    moment[c] = win.gather(&window, c);
                }
                // Flops charged only for the taps that had a grid to read
                // (a missing level performs no multiply-adds).
                sink.flops(present * 9 * FLOPS_PER_TAP);
            }
            sink.flops(FLOPS_COMBINE);
            if COMPUTE {
                let f = moment[MOMENT_CHARGE]
                    - self.config.beta * (moment[MOMENT_JX] * cos_t + moment[MOMENT_JY] * sin_t);
                acc += w * f;
            }
        }
        acc * std::f64::consts::TAU
    }

    /// Vectorized twin of [`GridRp::eval`]: the same 27-tap stencil gather
    /// restructured as 4-lane row blocks ([`F64x4`]), with all per-call
    /// setup (retarded window, component planes) hoisted out of the angular
    /// loop. No sink — this is the NativeSimd backend's answers-only path;
    /// the caller accounts evaluations (`SimdSink` batches the counters).
    ///
    /// **Not bit-identical to [`GridRp::eval`]**: each 3-value patch row is
    /// reduced as a lane-parallel partial sum folded by [`F64x4::hsum3`],
    /// which reassociates the 27-tap accumulation (scalar `gather` runs one
    /// sequential sum in tap order). The divergence is a deterministic
    /// function of the inputs — the same bits on every machine, pool width,
    /// and run — and stays within a few ulp of the scalar value; the
    /// differential harness bounds the resulting potentials at ≤ 4 ulp per
    /// cell (DESIGN.md §17).
    pub fn eval_simd(&self, px: f64, py: f64, r: f64) -> f64 {
        let (i, s) = self.config.retarded(self.step, r);
        let steps = [i.saturating_sub(1), i, i + 1];
        let window: [Option<&MomentGrid>; 3] = [
            self.history.get_clamped(steps[0]),
            self.history.get_clamped(steps[1]),
            self.history.get_clamped(steps[2]),
        ];
        if window[1].is_none() {
            // No centre level: every angular sample is skipped (the same
            // guard as the scalar path), leaving the zero integrand.
            return 0.0;
        }
        // Hoist the per-(level, component) planes once per call; an absent
        // level keeps its empty slices (contributes nothing, like the
        // scalar gather's `None` skip). The scalar path re-resolves a
        // bounds-checked row slice per tap row — 54 times per β≠0 call.
        let mut planes: [[&[f64]; 3]; 3] = [[&[]; 3]; 3];
        let mut present = [false; 3];
        let n_comps = self.config.components();
        for (ti, level) in window.iter().enumerate() {
            if let Some(grid) = level {
                present[ti] = true;
                for (c, plane) in planes[ti].iter_mut().enumerate().take(n_comps) {
                    *plane = grid.component(c);
                }
            }
        }
        // Monomorphize the gather on the component count so the innermost
        // loop fully unrolls (β = 0 reads one plane, β ≠ 0 reads three).
        if n_comps == 1 {
            self.eval_simd_gather::<1>(px, py, r, s, &planes, &present)
        } else {
            self.eval_simd_gather::<3>(px, py, r, s, &planes, &present)
        }
    }

    /// The angular loop of [`GridRp::eval_simd`] for a fixed component
    /// count. All per-call constants (cell sizes, time weights) live in a
    /// [`StencilResolver`]; each patch row is read as one (possibly
    /// over-long) 4-wide load whose 4th lane never reaches the result —
    /// [`F64x4::hsum3`] folds lanes 0–2 only.
    #[inline]
    fn eval_simd_gather<const NC: usize>(
        &self,
        px: f64,
        py: f64,
        r: f64,
        s: f64,
        planes: &[[&[f64]; 3]; 3],
        present: &[bool; 3],
    ) -> f64 {
        let geometry = self.history.geometry();
        let beta = self.config.beta;
        let nx = geometry.nx;
        let resolver = StencilResolver::new(geometry, s);
        let mut acc = 0.0;
        for &(w, sin_t, cos_t) in &self.angles[..self.n_angles] {
            let qx = (px + r * cos_t).clamp(geometry.x_min, geometry.x_max);
            let qy = (py + r * sin_t).clamp(geometry.y_min, geometry.y_max);
            let win = resolver.window(qx, qy);
            let wxv = F64x4::new(win.wx[0], win.wx[1], win.wx[2], 0.0);
            let base0 = win.y0 * nx + win.x0;
            // Per-component lane accumulators (unread components stay zero,
            // so the combine below is exact for β = 0 too); each component's
            // sum accumulates in the same (level, row) order as before.
            let mut acc_v = [F64x4::ZERO; 3];
            for (ti, level_planes) in planes.iter().enumerate() {
                if !present[ti] {
                    continue;
                }
                let wt = win.wt[ti];
                for (yi, &wy) in win.wy.iter().enumerate() {
                    let wtyv = F64x4::splat(wt * wy);
                    let base = base0 + yi * nx;
                    for c in 0..NC {
                        let rv = load_patch_row(level_planes[c], base);
                        acc_v[c] = wtyv.fma(wxv * rv, acc_v[c]);
                    }
                }
            }
            let f = acc_v[MOMENT_CHARGE].hsum3()
                - beta * (acc_v[MOMENT_JX].hsum3() * cos_t + acc_v[MOMENT_JY].hsum3() * sin_t);
            acc += w * f;
        }
        acc * std::f64::consts::TAU
    }
}

/// Loads the 3-cell patch row at `base` as a 4-wide block: an over-long
/// unaligned load where the plane allows it, a padded 3-element pack at the
/// very last row corner. The 4th lane is junk either way — every consumer
/// multiplies it by a zero weight and folds with [`F64x4::hsum3`], which
/// ignores lane 3 entirely.
#[inline(always)]
fn load_patch_row(plane: &[f64], base: usize) -> F64x4 {
    if base + 4 <= plane.len() {
        F64x4::load(plane, base)
    } else {
        F64x4::new(plane[base], plane[base + 1], plane[base + 2], 0.0)
    }
}

/// Continuous-moment integrand for the rigid-bunch validation case: the
/// bunch density is time-independent, so the retarded-time machinery is
/// exercised but the exact value is known to quadrature precision.
#[derive(Debug, Clone)]
pub struct AnalyticRp {
    /// The rigid bunch.
    pub bunch: GaussianBunch,
    /// Same discretisation parameters as the grid evaluation.
    pub config: RpConfig,
}

impl AnalyticRp {
    /// Creates the reference integrand.
    pub fn new(bunch: GaussianBunch, config: RpConfig) -> Self {
        Self { bunch, config }
    }

    /// Inner angular integral at radius `r` around `(px, py)`, using the
    /// same Newton–Cotes rule as the grid path but exact moments.
    pub fn eval(&self, px: f64, py: f64, r: f64) -> f64 {
        let rule = NewtonCotes::new(self.config.inner_points);
        let weights = rule.weights();
        let n = weights.len();
        let mut acc = 0.0;
        for (jj, &w) in weights.iter().enumerate().take(n - 1) {
            let w = if jj == 0 { w + weights[n - 1] } else { w };
            let theta = std::f64::consts::TAU * jj as f64 / (n - 1) as f64;
            let (sin_t, cos_t) = theta.sin_cos();
            let qx = px + r * cos_t;
            let qy = py + r * sin_t;
            let rho = self.bunch.density(qx, qy);
            let jx = self.bunch.current_x(qx, qy);
            let f = rho - self.config.beta * jx * cos_t;
            acc += w * f;
        }
        acc * std::f64::consts::TAU
    }

    /// High-accuracy reference value of the full rp-integral at a point,
    /// via densely-sampled composite Simpson over `[0, R(p)]`.
    pub fn reference_integral(&self, step: usize, px: f64, py: f64, cells: usize) -> f64 {
        let r_max = self.config.point_radius(step, px, py);
        let cells = cells.max(8);
        let h = r_max / cells as f64;
        let mut total = 0.0;
        for c in 0..cells {
            let a = c as f64 * h;
            let m = a + 0.5 * h;
            let b = a + h;
            total += h / 6.0
                * (self.eval(px, py, a) + 4.0 * self.eval(px, py, m) + self.eval(px, py, b));
        }
        total
    }
}

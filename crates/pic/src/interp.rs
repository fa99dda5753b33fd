//! Gather interpolation: bilinear force gather and the 27-point space-time
//! stencil used to approximate the rp-integrand `f⁽ᵖ⁾(r', θ', t')`.

use crate::grid::{cic_lower, stencil_center, MomentGrid};
use crate::history::GridHistory;

/// Bilinear (CIC-conjugate) gather of one moment component at a physical
/// point. Points outside the rectangle are clamped to the border.
pub fn bilinear_gather(grid: &MomentGrid, component: usize, x: f64, y: f64) -> f64 {
    let geometry = grid.geometry();
    let (fx, fy) = geometry.fractional(x, y);
    let ix0 = cic_lower(fx, geometry.nx) as isize;
    let iy0 = cic_lower(fy, geometry.ny) as isize;
    let tx = (fx - ix0 as f64).clamp(0.0, 1.0);
    let ty = (fy - iy0 as f64).clamp(0.0, 1.0);
    let v00 = grid.get_clamped(component, ix0, iy0);
    let v10 = grid.get_clamped(component, ix0 + 1, iy0);
    let v01 = grid.get_clamped(component, ix0, iy0 + 1);
    let v11 = grid.get_clamped(component, ix0 + 1, iy0 + 1);
    (1.0 - tx) * (1.0 - ty) * v00 + tx * (1.0 - ty) * v10 + (1.0 - tx) * ty * v01 + tx * ty * v11
}

/// One tap of the 27-point stencil: a grid cell at a relative time level with
/// its interpolation weight.
#[derive(Debug, Clone, Copy)]
pub struct StencilTap {
    /// Cell x index.
    pub ix: usize,
    /// Cell y index.
    pub iy: usize,
    /// Time level relative to the stencil's centre step `i` (−1, 0, or +1).
    pub dt: i32,
    /// Tensor-product Lagrange weight.
    pub weight: f64,
}

/// The paper's 27-neighbour approximation of the integrand: a 3×3 patch of
/// quadratic B-spline (triangular-shaped-cloud) weights in space, replicated
/// on three consecutive moment grids `D_{i−1}, D_i, D_{i+1}` with quadratic
/// Lagrange interpolation in retarded time.
///
/// The spatial weights are B-splines rather than snapped Lagrange because
/// the interpolant must be *continuous* in the evaluation point: a snapped
/// Lagrange patch jumps when the nearest cell centre changes, and adaptive
/// quadrature cannot converge across a jump (its error and its tolerance
/// budget both shrink linearly with cell width). TSC is C¹, reproduces
/// linear fields exactly, and is the standard higher-order PIC kernel.
#[derive(Debug, Clone)]
pub struct Stencil27 {
    taps: [StencilTap; 27],
}

/// Quadratic Lagrange weights on nodes {−1, 0, +1} evaluated at `u` — used
/// on the time axis, where the evaluation parameter runs node-to-node and
/// the interpolant stays continuous.
#[inline]
fn lagrange3(u: f64) -> [f64; 3] {
    [0.5 * u * (u - 1.0), 1.0 - u * u, 0.5 * u * (u + 1.0)]
}

/// Quadratic B-spline (TSC) weights for offset `u ∈ [−0.5, 0.5]` from the
/// nearest node: `[(0.5−u)²/2, 0.75−u², (0.5+u)²/2]`.
#[inline]
fn bspline3(u: f64) -> [f64; 3] {
    [
        0.5 * (0.5 - u) * (0.5 - u),
        0.75 - u * u,
        0.5 * (0.5 + u) * (0.5 + u),
    ]
}

impl Stencil27 {
    /// Builds the stencil for physical point `(x, y)` and time fraction
    /// `s ∈ [0, 1]` between centre step `i` (s = 0) and step `i + 1` (s = 1).
    ///
    /// Near grid edges the 3×3 patch is shifted inward, so the weights become
    /// mildly extrapolatory there — the standard structured-grid treatment.
    pub fn new(grid: &MomentGrid, x: f64, y: f64, s: f64) -> Self {
        let geometry = grid.geometry();
        assert!(
            geometry.nx >= 3 && geometry.ny >= 3,
            "stencil needs a 3x3 patch"
        );
        let (fx, fy) = geometry.fractional(x, y);
        // Nearest cell centre, kept one cell away from the border.
        let cx = stencil_center(fx, geometry.nx);
        let cy = stencil_center(fy, geometry.ny);
        let ux = fx - cx as f64;
        let uy = fy - cy as f64;
        let wx = bspline3(ux);
        let wy = bspline3(uy);
        // Map s∈[0,1] onto the {−1,0,+1} node coordinate of the centre step.
        let wt = lagrange3(s.clamp(0.0, 1.0));

        let mut taps = [StencilTap {
            ix: 0,
            iy: 0,
            dt: 0,
            weight: 0.0,
        }; 27];
        let mut n = 0;
        for (ti, &wti) in wt.iter().enumerate() {
            for (yi, &wyi) in wy.iter().enumerate() {
                for (xi, &wxi) in wx.iter().enumerate() {
                    taps[n] = StencilTap {
                        ix: cx + xi - 1,
                        iy: cy + yi - 1,
                        dt: ti as i32 - 1,
                        weight: wti * wyi * wxi,
                    };
                    n += 1;
                }
            }
        }
        Self { taps }
    }

    /// The 27 taps, time-major then row-major.
    pub fn taps(&self) -> &[StencilTap; 27] {
        &self.taps
    }

    /// Applies the stencil to one moment component around centre step `i`,
    /// reading `D_{i−1}, D_i, D_{i+1}` from `history` (clamped at start-up).
    pub fn apply(&self, history: &GridHistory, center_step: usize, component: usize) -> f64 {
        let mut acc = 0.0;
        for tap in &self.taps {
            let step = center_step.saturating_add_signed(tap.dt as isize);
            if let Some(grid) = history.get_clamped(step) {
                acc += tap.weight * grid.get(component, tap.ix, tap.iy);
            }
        }
        acc
    }

    /// Sum of all weights; exactly 1 away from edges (partition of unity).
    pub fn weight_sum(&self) -> f64 {
        self.taps.iter().map(|t| t.weight).sum()
    }
}

/// The 27-point stencil in *resolved window* form: the factored weights and
/// the patch origin, without materialising 27 tap records.
///
/// [`Stencil27`] spells the stencil out tap by tap, which is what the trace
/// layer wants; the hot numerical path only needs the three weight triples
/// and the patch corner, and gathers values directly from pre-resolved grid
/// references ([`StencilWindow::gather`]) — same math, same accumulation
/// order, no per-sample tap array. `tests` pin the two bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct StencilWindow {
    /// Leftmost cell of the 3×3 patch (`cx − 1`; `cx` is clamped to
    /// `[1, nx − 2]`, so the patch never leaves the grid).
    pub x0: usize,
    /// Bottom cell of the 3×3 patch (`cy − 1`).
    pub y0: usize,
    /// B-spline weights along x.
    pub wx: [f64; 3],
    /// B-spline weights along y.
    pub wy: [f64; 3],
    /// Lagrange weights along retarded time (levels `i−1, i, i+1`).
    pub wt: [f64; 3],
}

impl StencilWindow {
    /// Builds the factored stencil for physical point `(x, y)` and time
    /// fraction `s` — the same geometry and weight math as
    /// [`Stencil27::new`], minus the tap array.
    pub fn new(geometry: crate::grid::GridGeometry, x: f64, y: f64, s: f64) -> Self {
        assert!(
            geometry.nx >= 3 && geometry.ny >= 3,
            "stencil needs a 3x3 patch"
        );
        let (fx, fy) = geometry.fractional(x, y);
        let cx = stencil_center(fx, geometry.nx);
        let cy = stencil_center(fy, geometry.ny);
        let ux = fx - cx as f64;
        let uy = fy - cy as f64;
        Self {
            x0: cx - 1,
            y0: cy - 1,
            wx: bspline3(ux),
            wy: bspline3(uy),
            wt: lagrange3(s.clamp(0.0, 1.0)),
        }
    }

    /// Gathers one moment component through the stencil from the resolved
    /// time window `levels = [D_{i−1}, D_i, D_{i+1}]` (a `None` level —
    /// possible only at the `r = 0` edge where `i + 1` is the future —
    /// contributes nothing, exactly as a per-tap missed lookup used to).
    ///
    /// The accumulation runs time-major then row-major over a single running
    /// sum with the weight product associated `(wt · wy) · wx`, matching
    /// [`Stencil27`]'s tap order and weight construction bit for bit.
    #[inline]
    pub fn gather(&self, levels: &[Option<&MomentGrid>; 3], component: usize) -> f64 {
        let mut acc = 0.0;
        for (ti, level) in levels.iter().enumerate() {
            let Some(grid) = level else { continue };
            let wti = self.wt[ti];
            for (yi, &wyi) in self.wy.iter().enumerate() {
                let wty = wti * wyi;
                let row = &grid.component_row(component, self.y0 + yi)[self.x0..self.x0 + 3];
                for (wxi, value) in self.wx.iter().zip(row) {
                    acc += (wty * wxi) * value;
                }
            }
        }
        acc
    }

    /// Number of present levels in a resolved window (for flop accounting
    /// that matches the adds [`StencilWindow::gather`] actually performs).
    #[inline]
    pub fn present_levels(levels: &[Option<&MomentGrid>; 3]) -> u32 {
        levels.iter().filter(|l| l.is_some()).count() as u32
    }
}

/// Amortized [`StencilWindow`] construction for evaluations that resolve
/// many windows against the same geometry and retarded-time fraction: the
/// cell sizes (two divisions inside `fractional`) and the Lagrange time
/// weights are computed once here instead of once per sample.
///
/// Bit-compatible with [`StencilWindow::new`]: the hoisted `dx`/`dy`/`wt`
/// are the exact f64 values the per-sample path recomputes, and
/// [`StencilResolver::window`] performs the remaining ops in the same
/// order, so the produced windows are identical bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct StencilResolver {
    geometry: crate::grid::GridGeometry,
    dx: f64,
    dy: f64,
    wt: [f64; 3],
}

impl StencilResolver {
    /// Hoists the per-call constants for time fraction `s`.
    pub fn new(geometry: crate::grid::GridGeometry, s: f64) -> Self {
        assert!(
            geometry.nx >= 3 && geometry.ny >= 3,
            "stencil needs a 3x3 patch"
        );
        Self {
            geometry,
            dx: geometry.dx(),
            dy: geometry.dy(),
            wt: lagrange3(s.clamp(0.0, 1.0)),
        }
    }

    /// Resolves the window at `(x, y)` — [`StencilWindow::new`] minus the
    /// redundant per-sample division/weight setup.
    #[inline]
    pub fn window(&self, x: f64, y: f64) -> StencilWindow {
        let g = self.geometry;
        let fx = (x - g.x_min) / self.dx - 0.5;
        let fy = (y - g.y_min) / self.dy - 0.5;
        let cx = stencil_center(fx, g.nx);
        let cy = stencil_center(fy, g.ny);
        StencilWindow {
            x0: cx - 1,
            y0: cy - 1,
            wx: bspline3(fx - cx as f64),
            wy: bspline3(fy - cy as f64),
            wt: self.wt,
        }
    }
}

//! Moment grids and their geometry.

/// Number of moment components deposited per grid point.
pub const N_MOMENTS: usize = 3;
/// Component index of the deposited charge density.
pub const MOMENT_CHARGE: usize = 0;
/// Component index of the longitudinal current density.
pub const MOMENT_JX: usize = 1;
/// Component index of the transverse current density.
pub const MOMENT_JY: usize = 2;

/// Physical extent and resolution of a 2-D data grid.
///
/// Cell centres sit at `x_min + (i + 0.5) dx`; the grid covers the closed
/// rectangle `[x_min, x_max] × [y_min, y_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridGeometry {
    /// Number of cells along x (the paper's `N_X`).
    pub nx: usize,
    /// Number of cells along y (the paper's `N_Y`).
    pub ny: usize,
    /// Lower x bound of the covered rectangle.
    pub x_min: f64,
    /// Upper x bound of the covered rectangle.
    pub x_max: f64,
    /// Lower y bound of the covered rectangle.
    pub y_min: f64,
    /// Upper y bound of the covered rectangle.
    pub y_max: f64,
}

impl GridGeometry {
    /// A geometry covering the unit square, handy for tests.
    pub fn unit(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            x_min: 0.0,
            x_max: 1.0,
            y_min: 0.0,
            y_max: 1.0,
        }
    }

    /// Geometry centred on the origin with half-widths `hx`, `hy`.
    pub fn centered(nx: usize, ny: usize, hx: f64, hy: f64) -> Self {
        Self {
            nx,
            ny,
            x_min: -hx,
            x_max: hx,
            y_min: -hy,
            y_max: hy,
        }
    }

    /// Cell width along x.
    pub fn dx(&self) -> f64 {
        (self.x_max - self.x_min) / self.nx as f64
    }

    /// Cell width along y.
    pub fn dy(&self) -> f64 {
        (self.y_max - self.y_min) / self.ny as f64
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical position of the centre of cell `(ix, iy)`.
    pub fn cell_center(&self, ix: usize, iy: usize) -> (f64, f64) {
        (
            self.x_min + (ix as f64 + 0.5) * self.dx(),
            self.y_min + (iy as f64 + 0.5) * self.dy(),
        )
    }

    /// Continuous (fractional-cell) coordinates of a physical point, where
    /// integer values land on cell centres.
    pub fn fractional(&self, x: f64, y: f64) -> (f64, f64) {
        (
            (x - self.x_min) / self.dx() - 0.5,
            (y - self.y_min) / self.dy() - 0.5,
        )
    }

    /// True when the point lies inside the covered rectangle.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x_min && x <= self.x_max && y >= self.y_min && y <= self.y_max
    }
}

/// Lower corner of the 2×2 cloud-in-cell patch for fractional coordinate
/// `f` on an axis of `n` cells: `⌊f⌋` clamped to `[0, n − 2]`.
///
/// A truncating cast replaces `f.floor()` (DESIGN.md §17: no libm; without
/// SSE4.1 `floor` is a library call). The clamped results are equal for
/// every f64: truncation is floor for `f ≥ 0`; on `(−1, 0)` truncation
/// gives 0 where floor gives −1, and both clamp to 0; below that both are
/// negative; NaN casts to 0 and ±∞ saturate either way.
#[inline(always)]
pub fn cic_lower(f: f64, n: usize) -> usize {
    (f as isize).clamp(0, n as isize - 2) as usize
}

/// Centre of the 3×3 stencil patch for fractional coordinate `f` on an
/// axis of `n` cells: `f` rounded half away from zero, clamped to
/// `[1, n − 2]`.
///
/// Equal to `(f.round() as isize).clamp(1, n − 2)` for every f64 without
/// calling libm: `t = f as isize` truncates, `f − t` is the exact fraction
/// (below 2⁵² the two share their sign and high bits; above it `f` is
/// integral and the fraction is 0), and `|f − t| ≥ 0.5` steps one cell
/// away from zero. NaN gives 0; ±∞ and values beyond 2⁶³ saturate, as the
/// saturating ±1 keeps them.
#[inline(always)]
pub fn stencil_center(f: f64, n: usize) -> usize {
    let t = f as isize;
    let frac = f - t as f64;
    let r = if frac >= 0.5 {
        t.saturating_add(1)
    } else if frac <= -0.5 {
        t.saturating_sub(1)
    } else {
        t
    };
    r.clamp(1, n as isize - 2) as usize
}

/// One time step's deposited moments: `N_MOMENTS` scalar fields over the grid.
///
/// Components are stored planar (structure-of-arrays): component `c` occupies
/// the contiguous index range `c * nx * ny .. (c + 1) * nx * ny` in row-major
/// (`iy * nx + ix`) order. The SIMT layer maps this layout one-to-one onto
/// simulated device addresses, mirroring the paper's "grids stored linearly
/// on the device memory".
#[derive(Debug, Clone)]
pub struct MomentGrid {
    geometry: GridGeometry,
    data: Vec<f64>,
}

impl MomentGrid {
    /// Creates an all-zero moment grid.
    pub fn zeros(geometry: GridGeometry) -> Self {
        Self {
            geometry,
            data: vec![0.0; geometry.len() * N_MOMENTS],
        }
    }

    /// The grid geometry.
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// Zeroes every moment in place, so an evicted grid can be reused as the
    /// next deposition target without reallocating its storage.
    pub fn reset(&mut self) {
        self.data.fill(0.0);
    }

    /// Flat storage index of `(component, ix, iy)`.
    #[inline]
    pub fn index(&self, component: usize, ix: usize, iy: usize) -> usize {
        debug_assert!(component < N_MOMENTS);
        debug_assert!(ix < self.geometry.nx && iy < self.geometry.ny);
        component * self.geometry.len() + iy * self.geometry.nx + ix
    }

    /// Reads one moment value.
    #[inline]
    pub fn get(&self, component: usize, ix: usize, iy: usize) -> f64 {
        self.data[self.index(component, ix, iy)]
    }

    /// Writes one moment value.
    #[inline]
    pub fn set(&mut self, component: usize, ix: usize, iy: usize, value: f64) {
        let idx = self.index(component, ix, iy);
        self.data[idx] = value;
    }

    /// Adds into one moment value (deposition primitive).
    #[inline]
    pub fn add(&mut self, component: usize, ix: usize, iy: usize, value: f64) {
        let idx = self.index(component, ix, iy);
        self.data[idx] += value;
    }

    /// Clamped read: coordinates outside the grid are clamped to the border,
    /// which is the usual PIC treatment of near-edge stencil taps.
    #[inline]
    pub fn get_clamped(&self, component: usize, ix: isize, iy: isize) -> f64 {
        let ix = ix.clamp(0, self.geometry.nx as isize - 1) as usize;
        let iy = iy.clamp(0, self.geometry.ny as isize - 1) as usize;
        self.get(component, ix, iy)
    }

    /// Raw planar storage (read-only).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw planar storage, mutable — the deposition hot path's direct
    /// scatter target (`component · len() + iy · nx + ix` indexing, the
    /// same layout [`MomentGrid::index`] computes).
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One component as a contiguous row-major slice.
    pub fn component(&self, component: usize) -> &[f64] {
        let n = self.geometry.len();
        &self.data[component * n..(component + 1) * n]
    }

    /// One grid row of one component as a contiguous slice (`ix` ascending).
    ///
    /// The planar row-major layout makes any fixed-`(component, iy)` run of
    /// cells contiguous in memory — the property the 27-tap stencil gather
    /// exploits to read each 3-cell patch row as one slice instead of three
    /// indexed lookups.
    #[inline]
    pub fn component_row(&self, component: usize, iy: usize) -> &[f64] {
        debug_assert!(component < N_MOMENTS && iy < self.geometry.ny);
        let nx = self.geometry.nx;
        let start = component * self.geometry.len() + iy * nx;
        &self.data[start..start + nx]
    }

    /// Sum of one component over all cells (e.g. total deposited charge).
    pub fn component_total(&self, component: usize) -> f64 {
        self.component(component).iter().sum()
    }

    /// Accumulates `other` into `self`; geometries must match.
    pub fn accumulate(&mut self, other: &MomentGrid) {
        assert_eq!(self.geometry, other.geometry, "grid geometry mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }
}

//! Self-force evaluation — step 3 of the loop.
//!
//! The kernels produce the effective potential `Φ = φ − β A` on the grid;
//! the self-force on a particle is the negative gradient of `Φ`, computed by
//! central differences on the grid and gathered bilinearly at the particle
//! position.

use beamdyn_par::simd::F64x4;
use beamdyn_par::{DisjointPtr, ThreadPool};
use beamdyn_pic::{cic_lower, GridGeometry, ParticleSoA};

use crate::particle::Beam;
use crate::push::Forces;

/// A scalar field sampled on the simulation grid (row-major `iy·nx + ix`).
#[derive(Debug, Clone)]
pub struct ScalarField {
    geometry: GridGeometry,
    values: Vec<f64>,
}

impl ScalarField {
    /// Wraps a row-major value vector.
    ///
    /// # Panics
    /// Panics when the length does not match the geometry.
    pub fn new(geometry: GridGeometry, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), geometry.len(), "field size mismatch");
        Self { geometry, values }
    }

    /// An all-zero field.
    pub fn zeros(geometry: GridGeometry) -> Self {
        Self::new(geometry, vec![0.0; geometry.len()])
    }

    /// A zero-cell placeholder for pooled slots that are (re)shaped with
    /// [`ScalarField::reset_for`] before first use (also the `Default`).
    pub fn empty() -> Self {
        Self::zeros(GridGeometry {
            nx: 0,
            ny: 0,
            x_min: 0.0,
            x_max: 0.0,
            y_min: 0.0,
            y_max: 0.0,
        })
    }

    /// Reshapes the field for `geometry`, keeping the existing value
    /// allocation when large enough — the pooled-scratch reuse primitive.
    /// Values are *not* cleared; callers overwrite every cell.
    pub fn reset_for(&mut self, geometry: GridGeometry) {
        self.geometry = geometry;
        self.values.resize(geometry.len(), 0.0);
    }

    /// Heap bytes held by the value storage (capacity, not length).
    pub fn bytes_capacity(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// Geometry of the field.
    pub fn geometry(&self) -> GridGeometry {
        self.geometry
    }

    /// Value at cell `(ix, iy)`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        self.values[iy * self.geometry.nx + ix]
    }

    /// Mutable value access.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, v: f64) {
        self.values[iy * self.geometry.nx + ix] = v;
    }

    /// Raw values.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Bilinear sample at a physical point (clamped at the borders).
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let g = self.geometry;
        let (fx, fy) = g.fractional(x, y);
        let ix0 = cic_lower(fx, g.nx);
        let iy0 = cic_lower(fy, g.ny);
        let tx = (fx - ix0 as f64).clamp(0.0, 1.0);
        let ty = (fy - iy0 as f64).clamp(0.0, 1.0);
        (1.0 - tx) * (1.0 - ty) * self.get(ix0, iy0)
            + tx * (1.0 - ty) * self.get(ix0 + 1, iy0)
            + (1.0 - tx) * ty * self.get(ix0, iy0 + 1)
            + tx * ty * self.get(ix0 + 1, iy0 + 1)
    }

    /// Negative-gradient fields `(−∂Φ/∂x, −∂Φ/∂y)` by central differences
    /// (one-sided at the borders).
    pub fn neg_gradient(&self) -> (ScalarField, ScalarField) {
        let mut fx = ScalarField::empty();
        let mut fy = ScalarField::empty();
        self.neg_gradient_into(&mut fx, &mut fy);
        (fx, fy)
    }

    /// [`ScalarField::neg_gradient`] into caller-owned (pooled) fields,
    /// which are reshaped for this field's geometry and fully overwritten.
    pub fn neg_gradient_into(&self, fx: &mut ScalarField, fy: &mut ScalarField) {
        let g = self.geometry;
        let (dx, dy) = (g.dx(), g.dy());
        fx.reset_for(g);
        fy.reset_for(g);
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let ddx = match ix {
                    0 => (self.get(1, iy) - self.get(0, iy)) / dx,
                    i if i == g.nx - 1 => (self.get(i, iy) - self.get(i - 1, iy)) / dx,
                    i => (self.get(i + 1, iy) - self.get(i - 1, iy)) / (2.0 * dx),
                };
                let ddy = match iy {
                    0 => (self.get(ix, 1) - self.get(ix, 0)) / dy,
                    j if j == g.ny - 1 => (self.get(ix, j) - self.get(ix, j - 1)) / dy,
                    j => (self.get(ix, j + 1) - self.get(ix, j - 1)) / (2.0 * dy),
                };
                fx.set(ix, iy, -ddx);
                fy.set(ix, iy, -ddy);
            }
        }
    }
}

impl Default for ScalarField {
    fn default() -> Self {
        Self::empty()
    }
}

/// Gathers the self-force at every particle from a potential field.
pub fn gather_forces(pool: &ThreadPool, potential: &ScalarField, beam: &Beam) -> Forces {
    let (fx, fy) = potential.neg_gradient();
    pool.parallel_map(&beam.particles, |p| {
        (fx.sample(p.x, p.y), fy.sample(p.x, p.y))
    })
}

/// SIMD/SoA twin of [`gather_forces`]: the gradient fields land in the
/// caller's pooled scratch, the bilinear sample arithmetic runs over 4-wide
/// particle blocks, and the per-particle force components land in pooled
/// output columns — zero allocation in the steady state.
///
/// Each block computes its fractional coordinates, lattice indices and
/// four bilinear weights once and applies them to both gradient fields.
/// Per-lane operations mirror two [`ScalarField::sample`] calls exactly
/// (hoisted `dx`/`dy` are the same values, no reciprocal substitution, the
/// four corner terms fold left-to-right), so each particle's force is
/// bit-identical to the scalar gather at any pool width.
///
/// The output columns are resized only when the particle count changes:
/// every slot is overwritten, so they are never cleared or zeroed.
#[allow(clippy::too_many_arguments)]
pub fn gather_forces_simd(
    pool: &ThreadPool,
    potential: &ScalarField,
    particles: &ParticleSoA,
    grad_x: &mut ScalarField,
    grad_y: &mut ScalarField,
    out_fx: &mut Vec<f64>,
    out_fy: &mut Vec<f64>,
) {
    potential.neg_gradient_into(grad_x, grad_y);
    let n = particles.len();
    out_fx.resize(n, 0.0);
    out_fy.resize(n, 0.0);
    let px = DisjointPtr::new(out_fx);
    let py = DisjointPtr::new(out_fy);
    let (gx, gy) = (&*grad_x, &*grad_y);
    let g = potential.geometry();
    let (dx, dy) = (g.dx(), g.dy());
    pool.parallel_for_chunks(0..n, 1024, |range| {
        let mut i = range.start;
        while i + 4 <= range.end {
            let (fx4, fy4) = gather_block4(gx, gy, dx, dy, &particles.x, &particles.y, i);
            for l in 0..4 {
                // SAFETY: chunks are disjoint; each slot written once.
                unsafe {
                    *px.get().add(i + l) = fx4[l];
                    *py.get().add(i + l) = fy4[l];
                }
            }
            i += 4;
        }
        for j in i..range.end {
            let (x, y) = (particles.x[j], particles.y[j]);
            // SAFETY: chunks are disjoint; each slot written once.
            unsafe {
                *px.get().add(j) = gx.sample(x, y);
                *py.get().add(j) = gy.sample(x, y);
            }
        }
    });
}

/// Bilinear-samples both gradient fields at particles `i..i + 4` through
/// one shared set of patches and weights, vectorized; per-lane ops mirror
/// [`ScalarField::sample`].
#[inline]
fn gather_block4(
    gx: &ScalarField,
    gy: &ScalarField,
    dx: f64,
    dy: f64,
    xs: &[f64],
    ys: &[f64],
    i: usize,
) -> ([f64; 4], [f64; 4]) {
    let g = gx.geometry;
    let half = F64x4::splat(0.5);
    let xv = F64x4::load(xs, i);
    let yv = F64x4::load(ys, i);
    let fxv = (xv - F64x4::splat(g.x_min)) / F64x4::splat(dx) - half;
    let fyv = (yv - F64x4::splat(g.y_min)) / F64x4::splat(dy) - half;

    let (fxa, fya) = (fxv.to_array(), fyv.to_array());
    let mut ix0 = [0usize; 4];
    let mut iy0 = [0usize; 4];
    for l in 0..4 {
        ix0[l] = cic_lower(fxa[l], g.nx);
        iy0[l] = cic_lower(fya[l], g.ny);
    }
    let txv = (fxv - F64x4::new(ix0[0] as f64, ix0[1] as f64, ix0[2] as f64, ix0[3] as f64))
        .clamp(0.0, 1.0);
    let tyv = (fyv - F64x4::new(iy0[0] as f64, iy0[1] as f64, iy0[2] as f64, iy0[3] as f64))
        .clamp(0.0, 1.0);
    let one = F64x4::splat(1.0);
    let (sxv, syv) = (one - txv, one - tyv);
    let w = [sxv * syv, txv * syv, sxv * tyv, txv * tyv];

    // Per-lane patch base; `cic_lower` proves ix0 ≤ nx−2, iy0 ≤ ny−2, so
    // all four corners of every lane's 2×2 patch index inside `values`
    // (both fields share the potential's geometry).
    let base = [
        iy0[0] * g.nx + ix0[0],
        iy0[1] * g.nx + ix0[1],
        iy0[2] * g.nx + ix0[2],
        iy0[3] * g.nx + ix0[3],
    ];
    let apply = |field: &ScalarField| {
        let vals = &field.values;
        debug_assert_eq!(vals.len(), g.len());
        let corner = |off: usize| {
            // SAFETY: base[l] + off ≤ (ny−1)·nx + (nx−1) < nx·ny (see above).
            unsafe {
                F64x4::new(
                    *vals.get_unchecked(base[0] + off),
                    *vals.get_unchecked(base[1] + off),
                    *vals.get_unchecked(base[2] + off),
                    *vals.get_unchecked(base[3] + off),
                )
            }
        };
        (w[0] * corner(0) + w[1] * corner(1) + w[2] * corner(g.nx) + w[3] * corner(g.nx + 1))
            .to_array()
    };
    (apply(gx), apply(gy))
}

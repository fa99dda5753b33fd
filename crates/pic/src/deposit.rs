//! Cloud-in-cell (CIC) deposition of sampled particles onto a moment grid.

use beamdyn_par::simd::F64x4;
use beamdyn_par::ThreadPool;

use crate::grid::{cic_lower, GridGeometry, MomentGrid, MOMENT_CHARGE, MOMENT_JX, MOMENT_JY};
use crate::soa::ParticleSoA;

/// One macro-particle's contribution to the deposition step.
#[derive(Debug, Clone, Copy)]
pub struct DepositSample {
    /// Longitudinal position.
    pub x: f64,
    /// Transverse position.
    pub y: f64,
    /// Macro-particle charge weight.
    pub weight: f64,
    /// Longitudinal velocity (deposits the `MOMENT_JX` current).
    pub vx: f64,
    /// Transverse velocity (deposits the `MOMENT_JY` current).
    pub vy: f64,
}

/// The per-grid constants of the CIC arithmetic, computed once per deposit
/// instead of once per particle. They are the values
/// [`GridGeometry::fractional`] and the scalar weight code recompute, so
/// hoisting them changes no bit.
#[derive(Debug, Clone, Copy)]
struct CicFrame {
    geometry: GridGeometry,
    dx: f64,
    dy: f64,
    inv_area: f64,
}

impl CicFrame {
    fn new(geometry: GridGeometry) -> Self {
        let (dx, dy) = (geometry.dx(), geometry.dy());
        Self {
            geometry,
            dx,
            dy,
            inv_area: 1.0 / (dx * dy),
        }
    }
}

/// Clears `buf` and refills it from `samples`, reusing the buffer's existing
/// capacity — the steady-state way to rebuild the per-step sample list from a
/// particle set without a fresh allocation every step.
pub fn refill_samples<I>(buf: &mut Vec<DepositSample>, samples: I)
where
    I: IntoIterator<Item = DepositSample>,
{
    buf.clear();
    buf.extend(samples);
}

/// Deposits `samples` onto `grid` with first-order (bilinear / cloud-in-cell)
/// weighting, in parallel, producing **densities**: each weight is spread
/// over the 2×2 patch and divided by the cell area, so the grid values
/// approximate `ρ(x, y)` (and `J_x`, `J_y`) rather than per-cell charge.
/// Total charge is conserved in the sense `Σ cells · dx·dy = Σ weights`.
///
/// Particles outside the grid rectangle are dropped (counted in the return
/// value), matching the usual PIC convention for escaping particles. Each
/// chunk deposits into a private grid; privates are then accumulated in
/// chunk order. The chunk size is a fixed constant — NOT derived from the
/// pool width — so the floating-point accumulation order, and therefore
/// the result, is bit-identical for every thread count
/// (tests/determinism.rs).
///
/// Returns the number of samples that fell outside the grid.
pub fn deposit_cic(pool: &ThreadPool, grid: &mut MomentGrid, samples: &[DepositSample]) -> usize {
    let geometry = grid.geometry();
    let frame = CicFrame::new(geometry);
    const CHUNK: usize = 4096;
    let chunks: Vec<&[DepositSample]> = samples.chunks(CHUNK).collect();

    let partials: Vec<(MomentGrid, usize)> = pool.parallel_map(&chunks, |part| {
        let mut local = MomentGrid::zeros(geometry);
        let mut dropped = 0usize;
        for s in *part {
            if !deposit_one(&mut local, &frame, s) {
                dropped += 1;
            }
        }
        (local, dropped)
    });

    let mut dropped = 0;
    for (partial, d) in &partials {
        grid.accumulate(partial);
        dropped += d;
    }
    dropped
}

/// SIMD twin of [`deposit_cic`] over a structure-of-arrays particle
/// scratch: the CIC weight arithmetic (fractional coordinates, bilinear
/// weights, moment charges) runs over 4-wide lane blocks, then each
/// particle's 2×2 patch is scattered sequentially in particle order.
///
/// **Bit-identical to the scalar path by construction.** Every per-lane
/// operation is the same portable f64 op the scalar [`deposit_cic`]
/// performs, in the same order (both hoist the same `dx`/`dy`/`inv_area`
/// once per call, and no division is replaced by a reciprocal multiply);
/// the scatter and the fixed 4096-chunk accumulation preserve the scalar
/// ordering exactly. Only the *schedule* is vectorized — there are no
/// cross-lane reductions — so the resulting grid matches `deposit_cic` on
/// the same particles bit for bit, at any pool width (tests/determinism.rs
/// pins this).
///
/// Returns the number of particles that fell outside the grid.
pub fn deposit_cic_simd(
    pool: &ThreadPool,
    grid: &mut MomentGrid,
    particles: &ParticleSoA,
) -> usize {
    let geometry = grid.geometry();
    let frame = CicFrame::new(geometry);
    const CHUNK: usize = 4096;
    let n = particles.len();
    let bounds: Vec<(usize, usize)> = (0..n.div_ceil(CHUNK))
        .map(|c| (c * CHUNK, ((c + 1) * CHUNK).min(n)))
        .collect();

    let partials: Vec<(MomentGrid, usize)> = pool.parallel_map(&bounds, |&(start, end)| {
        let mut local = MomentGrid::zeros(geometry);
        let mut dropped = 0usize;
        let mut i = start;
        while i + 4 <= end {
            dropped += deposit_block4(&mut local, &frame, particles, i);
            i += 4;
        }
        for j in i..end {
            if !deposit_one(&mut local, &frame, &particles.sample(j)) {
                dropped += 1;
            }
        }
        (local, dropped)
    });

    let mut dropped = 0;
    for (partial, d) in &partials {
        grid.accumulate(partial);
        dropped += d;
    }
    dropped
}

/// Deposits particles `i..i + 4` with the weight arithmetic vectorized;
/// returns how many of the four were dropped (outside the grid or
/// non-finite). Per-lane ops mirror [`deposit_one`] exactly.
#[inline]
fn deposit_block4(grid: &mut MomentGrid, frame: &CicFrame, p: &ParticleSoA, i: usize) -> usize {
    let g = frame.geometry;
    let xv = F64x4::load(&p.x, i);
    let yv = F64x4::load(&p.y, i);

    // `fractional` with the frame's dx/dy: same dividend, same divisor
    // value, same op — identical bits to the scalar per-particle calls.
    let half = F64x4::splat(0.5);
    let fxv = (xv - F64x4::splat(g.x_min)) / F64x4::splat(frame.dx) - half;
    let fyv = (yv - F64x4::splat(g.y_min)) / F64x4::splat(frame.dy) - half;

    // Integer lattice work stays per-lane scalar (cast/clamp).
    let mut ix0 = [0usize; 4];
    let mut iy0 = [0usize; 4];
    let mut valid = [false; 4];
    let (fxa, fya) = (fxv.to_array(), fyv.to_array());
    let (xa, ya) = (xv.to_array(), yv.to_array());
    for l in 0..4 {
        valid[l] = g.contains(xa[l], ya[l]) && xa[l].is_finite() && ya[l].is_finite();
        ix0[l] = cic_lower(fxa[l], g.nx);
        iy0[l] = cic_lower(fya[l], g.ny);
    }

    let txv = (fxv - F64x4::new(ix0[0] as f64, ix0[1] as f64, ix0[2] as f64, ix0[3] as f64))
        .clamp(0.0, 1.0);
    let tyv = (fyv - F64x4::new(iy0[0] as f64, iy0[1] as f64, iy0[2] as f64, iy0[3] as f64))
        .clamp(0.0, 1.0);

    let one = F64x4::splat(1.0);
    let (sxv, syv) = (one - txv, one - tyv);
    let wv = [sxv * syv, txv * syv, sxv * tyv, txv * tyv];

    // q = (weight · wᵢ) · inv_area, then q·vx / q·vy — the scalar op order.
    let inv_area = F64x4::splat(frame.inv_area);
    let weightv = F64x4::load(&p.weight, i);
    let (vxv, vyv) = (F64x4::load(&p.vx, i), F64x4::load(&p.vy, i));
    let mut q = [[0.0f64; 4]; 4];
    let mut qjx = [[0.0f64; 4]; 4];
    let mut qjy = [[0.0f64; 4]; 4];
    for (c, w) in wv.iter().enumerate() {
        let qv = weightv * *w * inv_area;
        q[c] = qv.to_array();
        qjx[c] = (qv * vxv).to_array();
        qjy[c] = (qv * vyv).to_array();
    }

    // Scatter sequentially in particle order — the accumulation order (and
    // therefore every produced bit) matches the scalar loop. The patch
    // indices are proven in bounds by the clamps above, so the adds go
    // through the raw plane without per-add bounds checks.
    let stride = g.len();
    let nx = g.nx;
    let data = grid.data_mut();
    let mut dropped = 0usize;
    for l in 0..4 {
        if !valid[l] {
            dropped += 1;
            continue;
        }
        let base = iy0[l] * nx + ix0[l];
        for (c, off) in [0, 1, nx, nx + 1].into_iter().enumerate() {
            // SAFETY: ix0 ≤ nx−2 and iy0 ≤ ny−2 (clamped above), so every
            // patch cell index is < nx·ny and each plane offset < 3·nx·ny.
            unsafe {
                *data.get_unchecked_mut(MOMENT_CHARGE * stride + base + off) += q[c][l];
                *data.get_unchecked_mut(MOMENT_JX * stride + base + off) += qjx[c][l];
                *data.get_unchecked_mut(MOMENT_JY * stride + base + off) += qjy[c][l];
            }
        }
    }
    dropped
}

/// Deposits a single sample; returns `false` if it lies outside the grid.
fn deposit_one(grid: &mut MomentGrid, frame: &CicFrame, s: &DepositSample) -> bool {
    let geometry = frame.geometry;
    if !geometry.contains(s.x, s.y) || !s.x.is_finite() || !s.y.is_finite() {
        return false;
    }
    // `GridGeometry::fractional` with the frame's dx/dy.
    let fx = (s.x - geometry.x_min) / frame.dx - 0.5;
    let fy = (s.y - geometry.y_min) / frame.dy - 0.5;
    // Lower cell of the 2x2 CIC patch, clamped so border particles deposit
    // fully onto the edge cells (weights still sum to 1).
    let ix0 = cic_lower(fx, geometry.nx);
    let iy0 = cic_lower(fy, geometry.ny);
    let tx = (fx - ix0 as f64).clamp(0.0, 1.0);
    let ty = (fy - iy0 as f64).clamp(0.0, 1.0);

    let w = [
        (1.0 - tx) * (1.0 - ty),
        tx * (1.0 - ty),
        (1.0 - tx) * ty,
        tx * ty,
    ];
    let inv_area = frame.inv_area;
    let cells = [
        (ix0, iy0),
        (ix0 + 1, iy0),
        (ix0, iy0 + 1),
        (ix0 + 1, iy0 + 1),
    ];
    for (&(ix, iy), &wi) in cells.iter().zip(&w) {
        let q = s.weight * wi * inv_area;
        grid.add(MOMENT_CHARGE, ix, iy, q);
        grid.add(MOMENT_JX, ix, iy, q * s.vx);
        grid.add(MOMENT_JY, ix, iy, q * s.vy);
    }
    true
}

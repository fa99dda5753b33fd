//! Leap-frog particle pusher — step 4 of the loop.
//!
//! The scheme is the standard kick–drift–kick (velocity Verlet) form the
//! paper cites for solving the Lorentz equation:
//!
//! ```text
//! v ← v + F(x)·dt/2        (half kick)     [`kick`]
//! x ← x + v·dt             (drift)         [`drift`]
//! v ← v + F(x')·dt/2       (half kick with refreshed forces)
//! ```
//!
//! The two half-kicks use forces evaluated at *different* positions, so a
//! full step is `kick(F, dt/2); drift(dt); recompute forces; kick(F', dt/2)`.
//! The driver in `beamdyn-core` folds the trailing half-kick of one step into
//! the leading half-kick of the next (one field solve per step, as usual in
//! PIC codes). The convenience wrapper [`half_step`] performs the first two
//! substeps.

use beamdyn_par::simd::F64x4;
use beamdyn_par::{DisjointPtr, ThreadPool};

use crate::particle::Beam;

/// Per-particle force samples, one per beam particle, in beam order.
pub type Forces = Vec<(f64, f64)>;

/// Applies a velocity kick `v += F·dt` (use `dt/2` for a half kick).
pub fn kick(pool: &ThreadPool, beam: &mut Beam, forces: &Forces, dt: f64) {
    assert_eq!(beam.len(), forces.len(), "one force sample per particle");
    let n = beam.particles.len();
    let ptr = DisjointPtr::new(&mut beam.particles);
    pool.parallel_for_chunks(0..n, 1024, |range| {
        for i in range {
            // SAFETY: chunks are disjoint; each particle touched once.
            let p = unsafe { &mut *ptr.get().add(i) };
            let (fx, fy) = forces[i];
            p.vx += dt * fx;
            p.vy += dt * fy;
        }
    });
}

/// Advances positions `x += v·dt`.
pub fn drift(pool: &ThreadPool, beam: &mut Beam, dt: f64) {
    let n = beam.particles.len();
    let ptr = DisjointPtr::new(&mut beam.particles);
    pool.parallel_for_chunks(0..n, 1024, |range| {
        for i in range {
            // SAFETY: chunks are disjoint; each particle touched once.
            let p = unsafe { &mut *ptr.get().add(i) };
            p.x += dt * p.vx;
            p.y += dt * p.vy;
        }
    });
}

/// The first half of a leap-frog step: half kick then drift. The caller must
/// finish the step with `kick(…, dt/2)` after refreshing the forces at the
/// new positions.
pub fn half_step(pool: &ThreadPool, beam: &mut Beam, forces: &Forces, dt: f64) {
    kick(pool, beam, forces, 0.5 * dt);
    drift(pool, beam, dt);
}

/// Fused SIMD/SoA step push: force scaling, velocity kick, position drift,
/// and the AoS write-back in **one** parallel pass (one pool dispatch where
/// the scalar path performs two plus a serial scaling loop and the caller a
/// serial write-back).
///
/// Per particle the op sequence is exactly the scalar backend's:
/// `f' = scale·f`, `v' = v + dt·f'`, `x' = x + dt·v'` — the drift reads the
/// particle's *own* updated velocity, so fusing kick and drift changes no
/// value. Results are bit-identical to [`kick`] + [`drift`] on pre-scaled
/// forces, at any pool width.
///
/// Columns and `beam` are both updated (the SoA stays current for callers
/// that keep using it; the beam is the system of record between steps).
///
/// # Panics
/// Panics when the force columns or the beam disagree with the particle
/// column length.
pub fn push_step_simd(
    pool: &ThreadPool,
    particles: &mut beamdyn_pic::ParticleSoA,
    fx: &[f64],
    fy: &[f64],
    force_scale: f64,
    dt: f64,
    beam: &mut Beam,
) {
    let n = particles.len();
    assert_eq!(fx.len(), n, "one force sample per particle");
    assert_eq!(fy.len(), n, "one force sample per particle");
    assert_eq!(beam.len(), n, "beam/SoA length mismatch");
    let px = DisjointPtr::new(&mut particles.x);
    let py = DisjointPtr::new(&mut particles.y);
    let pvx = DisjointPtr::new(&mut particles.vx);
    let pvy = DisjointPtr::new(&mut particles.vy);
    let pb = DisjointPtr::new(&mut beam.particles);
    pool.parallel_for_chunks(0..n, 1024, |range| {
        let dtv = F64x4::splat(dt);
        let sv = F64x4::splat(force_scale);
        let mut i = range.start;
        while i + 4 <= range.end {
            // SAFETY: chunks are disjoint; each particle touched once.
            unsafe {
                let xs = std::slice::from_raw_parts_mut(px.get().add(i), 4);
                let ys = std::slice::from_raw_parts_mut(py.get().add(i), 4);
                let vxs = std::slice::from_raw_parts_mut(pvx.get().add(i), 4);
                let vys = std::slice::from_raw_parts_mut(pvy.get().add(i), 4);
                let fxv = sv * F64x4::load(fx, i);
                let fyv = sv * F64x4::load(fy, i);
                let vxv = F64x4::new(vxs[0], vxs[1], vxs[2], vxs[3]) + dtv * fxv;
                let vyv = F64x4::new(vys[0], vys[1], vys[2], vys[3]) + dtv * fyv;
                let xv = F64x4::new(xs[0], xs[1], xs[2], xs[3]) + dtv * vxv;
                let yv = F64x4::new(ys[0], ys[1], ys[2], ys[3]) + dtv * vyv;
                vxs.copy_from_slice(&vxv.to_array());
                vys.copy_from_slice(&vyv.to_array());
                xs.copy_from_slice(&xv.to_array());
                ys.copy_from_slice(&yv.to_array());
                for l in 0..4 {
                    let p = &mut *pb.get().add(i + l);
                    p.x = xs[l];
                    p.y = ys[l];
                    p.vx = vxs[l];
                    p.vy = vys[l];
                }
            }
            i += 4;
        }
        for j in i..range.end {
            // SAFETY: chunks are disjoint; each particle touched once.
            unsafe {
                let vx = &mut *pvx.get().add(j);
                let vy = &mut *pvy.get().add(j);
                let x = &mut *px.get().add(j);
                let y = &mut *py.get().add(j);
                *vx += dt * (force_scale * fx[j]);
                *vy += dt * (force_scale * fy[j]);
                *x += dt * *vx;
                *y += dt * *vy;
                let p = &mut *pb.get().add(j);
                p.x = *x;
                p.y = *y;
                p.vx = *vx;
                p.vy = *vy;
            }
        }
    });
}

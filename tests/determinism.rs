//! Determinism regression tests: the simulation must be a pure function of
//! its seeds — in particular independent of how many worker threads the
//! host pool runs, because every parallel combinator in `beamdyn-par` is
//! order-preserving (chunked writes to disjoint slices, ordered reduction).

use beamdyn::beam::forces::{gather_forces, gather_forces_simd, ScalarField};
use beamdyn::beam::push::{drift, kick, push_step_simd};
use beamdyn::beam::{Beam, GaussianBunch, Particle, RpConfig};
use beamdyn::core::{KernelKind, Simulation, SimulationConfig};
use beamdyn::par::ThreadPool;
use beamdyn::pic::{
    deposit_cic, deposit_cic_simd, DepositSample, GridGeometry, MomentGrid, ParticleSoA,
};
use beamdyn::simt::DeviceConfig;
use proptest::prelude::*;

fn config(kernel: KernelKind) -> SimulationConfig {
    let mut cfg = SimulationConfig::standard(GridGeometry::unit(12, 12), kernel);
    cfg.rp = RpConfig {
        kappa: 4,
        dt: 0.08,
        inner_points: 3,
        beta: 0.5,
        support_x: 0.25,
        support_y: 0.12,
        center: (0.5, 0.5),
    };
    cfg.tolerance = 1e-4;
    cfg
}

fn bunch() -> GaussianBunch {
    GaussianBunch {
        sigma_x: 0.11,
        sigma_y: 0.09,
        center_x: 0.5,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.05,
        chirp: 0.0,
    }
}

fn potentials_with_pool(kernel: KernelKind, threads: usize) -> Vec<Vec<f64>> {
    let pool = ThreadPool::new(threads);
    let device = DeviceConfig::test_tiny();
    let mut sim = Simulation::new(&pool, &device, config(kernel), bunch().sample(3000, 5));
    sim.run(3)
        .into_iter()
        .map(|t| t.potentials.potentials())
        .collect()
}

/// Same seed, pool sizes 0 / 1 / 4: the Predictive kernel's potential
/// fields must be **bit-identical** at every step — thread count may change
/// scheduling, never results.
#[test]
fn predictive_potentials_are_bit_identical_across_pool_sizes() {
    let reference = potentials_with_pool(KernelKind::Predictive, 0);
    for threads in [1usize, 4] {
        let got = potentials_with_pool(KernelKind::Predictive, threads);
        assert_eq!(reference.len(), got.len());
        for (step, (want, have)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len());
            for (i, (a, b)) in want.iter().zip(have).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {step}, point {i}: {threads}-thread pool diverged ({a:e} vs {b:e})"
                );
            }
        }
    }
}

/// The baselines carry no learned state that could mask scheduling effects,
/// but they share the same combinators — hold them to the same bar.
#[test]
fn baseline_kernels_are_bit_identical_across_pool_sizes() {
    for kernel in [KernelKind::TwoPhase, KernelKind::Heuristic] {
        let reference = potentials_with_pool(kernel, 0);
        let got = potentials_with_pool(kernel, 4);
        for (want, have) in reference.iter().zip(&got) {
            let same = want
                .iter()
                .zip(have)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{kernel:?} diverged between 0- and 4-thread pools");
        }
    }
}

/// An awkwardly-sized bunch (prime count → non-multiple-of-4 remainder,
/// non-multiple-of-chunk totals) with velocities, so every SoA column and
/// the vector/scalar seam in each SIMD stage is exercised.
fn awkward_samples(n: usize, seed: u64) -> Vec<DepositSample> {
    let bunch = GaussianBunch {
        sigma_x: 0.14,
        sigma_y: 0.07,
        center_x: 0.45,
        center_y: 0.55,
        charge: 1.0,
        velocity_spread: 0.03,
        drift_vx: 0.02,
        chirp: 0.4,
    };
    bunch
        .sample(n, seed)
        .particles
        .iter()
        .map(|p| DepositSample {
            x: p.x,
            y: p.y,
            weight: p.weight,
            vx: p.vx,
            vy: p.vy,
        })
        .collect()
}

fn simd_deposit_with_pool(
    geometry: GridGeometry,
    samples: &[DepositSample],
    threads: usize,
) -> (MomentGrid, usize) {
    let pool = ThreadPool::new(threads);
    let mut soa = ParticleSoA::new();
    soa.fill(&pool, samples, |s| *s);
    let mut grid = MomentGrid::zeros(geometry);
    let dropped = deposit_cic_simd(&pool, &mut grid, &soa);
    (grid, dropped)
}

/// The SIMD deposit is bit-identical to the scalar deposit (per-lane
/// identical op sequences, same chunk order, in-order scatter), drop count
/// included, and independent of pool width — the SoA lane of the backend
/// contract. Inputs: a chirped bunch, and the awkward particles of
/// [`pipeline_beam`] at lengths 0/1/3/4097.
#[test]
fn simd_deposit_is_bit_identical_to_scalar_across_pool_sizes() {
    let mut cases = vec![(GridGeometry::unit(12, 12), awkward_samples(4999, 0xBEEF))];
    for n in [0usize, 1, 3, 4097] {
        cases.push((pipeline_geometry(), samples_of(&pipeline_beam(n))));
    }
    for (geometry, samples) in &cases {
        let pool = ThreadPool::new(2);
        let mut scalar = MomentGrid::zeros(*geometry);
        let scalar_dropped = deposit_cic(&pool, &mut scalar, samples);
        for threads in [0usize, 1, 4] {
            let (simd, dropped) = simd_deposit_with_pool(*geometry, samples, threads);
            let n = samples.len();
            assert_eq!(dropped, scalar_dropped, "n={n}, {threads} threads");
            for c in 0..3 {
                for (i, (a, b)) in scalar
                    .component(c)
                    .iter()
                    .zip(simd.component(c))
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={n}, component {c}, cell {i}: simd deposit ({threads} threads) \
                         diverged from scalar ({a:e} vs {b:e})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// AoS → SoA → AoS round-trips every column bit-exactly for arbitrary
    /// (including non-finite) particle data, and `fill` on a reused
    /// buffer leaves no stale tail behind.
    #[test]
    fn soa_roundtrip_is_bit_exact(
        xs in prop::collection::vec(-1.0e3f64..1.0e3, 1..40),
        shift in -5.0f64..5.0,
        threads in 0usize..3,
    ) {
        let samples: Vec<DepositSample> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| DepositSample {
                x,
                y: x * 0.5 + shift,
                weight: 1.0 / (i as f64 + 1.0),
                vx: x * 1e-3,
                vy: shift - x,
            })
            .collect();
        let pool = ThreadPool::new(threads);
        let mut soa = ParticleSoA::new();
        // Pre-fill with a longer garbage run: fill must truncate.
        let garbage: Vec<DepositSample> = (0..97)
            .map(|k| DepositSample {
                x: k as f64,
                y: -1.0,
                weight: f64::NAN,
                vx: 0.0,
                vy: 0.0,
            })
            .collect();
        soa.fill(&pool, &garbage, |s| *s);
        soa.fill(&pool, &samples, |s| *s);
        prop_assert_eq!(soa.len(), samples.len());
        for (i, want) in samples.iter().enumerate() {
            let got = soa.sample(i);
            prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
            prop_assert_eq!(got.y.to_bits(), want.y.to_bits());
            prop_assert_eq!(got.weight.to_bits(), want.weight.to_bits());
            prop_assert_eq!(got.vx.to_bits(), want.vx.to_bits());
            prop_assert_eq!(got.vy.to_bits(), want.vy.to_bits());
        }
    }
}

/// The parallel SoA fill copies every particle exactly at pool widths
/// 0/1/4, on beams long enough to split into several chunks, and sizes the
/// columns to exactly the particle count: growing allocates exactly,
/// shrinking keeps the capacity, and refilling at the same length leaves
/// the capacity untouched.
#[test]
fn soa_fill_is_exact_and_sized_to_the_beam() {
    for threads in [0usize, 1, 4] {
        let pool = ThreadPool::new(threads);
        let mut soa = ParticleSoA::new();
        for (n, capacity) in [
            (50_001usize, 50_001usize),
            (40_000, 50_001),
            (50_001, 50_001),
        ] {
            let beam = pipeline_beam(n);
            soa.fill(&pool, &samples_of(&beam), |s| *s);
            assert_eq!(soa.len(), n);
            assert_eq!(
                soa.bytes_capacity(),
                5 * 8 * capacity,
                "n={n}, {threads} threads"
            );
            let want = columns_of(&beam);
            for (what, w, h) in [
                ("x", &want.x, &soa.x),
                ("y", &want.y, &soa.y),
                ("vx", &want.vx, &soa.vx),
                ("vy", &want.vy, &soa.vy),
                ("weight", &want.weight, &soa.weight),
            ] {
                assert_eq!(w.len(), h.len(), "{what}");
                for (i, (&a, &b)) in w.iter().zip(h.iter()).enumerate() {
                    assert_bits(what, i, a, b);
                }
            }
        }
    }
}

/// An off-centre grid whose cell sizes are not dyadic, so the fractional
/// coordinates round and the `x_min`-side strip has negative fractions.
fn pipeline_geometry() -> GridGeometry {
    GridGeometry {
        nx: 13,
        ny: 9,
        x_min: -0.7,
        x_max: 1.3,
        y_min: -0.45,
        y_max: 0.35,
    }
}

/// A potential with no symmetry, so every corner of every patch matters.
fn pipeline_potential(g: GridGeometry) -> ScalarField {
    let values = (0..g.len())
        .map(|k| {
            let (ix, iy) = ((k % g.nx) as f64, (k / g.nx) as f64);
            0.3 * ix - 0.17 * iy * iy + ((k * 7919) % 23) as f64 * 0.061
        })
        .collect();
    ScalarField::new(g, values)
}

/// Particles the SIMD and scalar paths could disagree on: outside the grid,
/// exactly on the far edges, in the negative-fraction strip next to
/// `x_min`/`y_min`, and with NaN or infinite coordinates.
fn awkward_particles(g: GridGeometry) -> Vec<Particle> {
    let (dx, dy) = (g.dx(), g.dy());
    let (xc, yc) = (0.5 * (g.x_min + g.x_max), 0.5 * (g.y_min + g.y_max));
    let at = |x: f64, y: f64| Particle {
        x,
        y,
        vx: 0.013,
        vy: -0.021,
        weight: 0.7,
    };
    vec![
        at(g.x_min - 3.0 * dx, yc),
        at(g.x_max + 2.5 * dx, yc),
        at(xc, g.y_min - 0.75 * dy),
        at(xc, g.y_max + 9.0 * dy),
        at(g.x_max, yc),
        at(xc, g.y_max),
        at(g.x_max, g.y_max),
        at(g.x_min, g.y_min),
        at(g.x_min + 0.25 * dx, yc),
        at(g.x_min + 0.49 * dx, g.y_min + 0.3 * dy),
        at(xc, g.y_min + 0.1 * dy),
        at(g.x_min - 0.5 * dx, g.y_min - 0.5 * dy),
        at(f64::NAN, yc),
        at(xc, f64::NAN),
        at(f64::INFINITY, yc),
        at(f64::NEG_INFINITY, yc),
        at(xc, f64::INFINITY),
        at(xc, f64::NEG_INFINITY),
        at(-1.0e300, 1.0e300),
    ]
}

/// `n` particles: every third slot awkward (so awkward particles land in
/// every lane of a 4-block and in the scalar tail), the rest a bunch.
fn pipeline_beam(n: usize) -> Beam {
    let g = pipeline_geometry();
    let awkward = awkward_particles(g);
    let bunch = GaussianBunch {
        sigma_x: 0.5,
        sigma_y: 0.2,
        center_x: 0.3,
        center_y: -0.05,
        charge: 1.0,
        velocity_spread: 0.02,
        drift_vx: 0.01,
        chirp: 0.3,
    }
    .sample(n.max(1), 0x5EED);
    Beam::new(
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    awkward[(i / 3) % awkward.len()]
                } else {
                    bunch.particles[i]
                }
            })
            .collect(),
    )
}

fn samples_of(beam: &Beam) -> Vec<DepositSample> {
    beam.particles
        .iter()
        .map(|p| DepositSample {
            x: p.x,
            y: p.y,
            weight: p.weight,
            vx: p.vx,
            vy: p.vy,
        })
        .collect()
}

/// The SoA columns of `beam`, built field by field.
fn columns_of(beam: &Beam) -> ParticleSoA {
    let column = |f: fn(&Particle) -> f64| beam.particles.iter().map(f).collect();
    ParticleSoA {
        x: column(|p| p.x),
        y: column(|p| p.y),
        vx: column(|p| p.vx),
        vy: column(|p| p.vy),
        weight: column(|p| p.weight),
    }
}

fn assert_bits(what: &str, i: usize, want: f64, have: f64) {
    assert_eq!(
        want.to_bits(),
        have.to_bits(),
        "{what}[{i}]: {want:e} (scalar) vs {have:e} (simd)"
    );
}

/// The SIMD gather + fused push against the scalar gather, force scaling,
/// kick and drift: forces, every SoA column and every AoS field must match
/// bit for bit, at pool widths 0/1/4, on awkward particles and awkward
/// lengths (empty, shorter than one 4-block, one past a multiple of 4).
#[test]
fn simd_gather_and_push_are_bit_identical_to_scalar() {
    let g = pipeline_geometry();
    let field = pipeline_potential(g);
    let (force_scale, dt) = (0.37, 0.08);
    for n in [0usize, 1, 3, 4097] {
        let start = pipeline_beam(n);

        let scalar_pool = ThreadPool::new(0);
        let mut scalar = start.clone();
        let forces = gather_forces(&scalar_pool, &field, &scalar);
        let mut scaled = forces.clone();
        for f in &mut scaled {
            f.0 *= force_scale;
            f.1 *= force_scale;
        }
        kick(&scalar_pool, &mut scalar, &scaled, dt);
        drift(&scalar_pool, &mut scalar, dt);

        for threads in [0usize, 1, 4] {
            let pool = ThreadPool::new(threads);
            let mut beam = start.clone();
            let mut soa = columns_of(&beam);
            let (mut gx, mut gy) = (ScalarField::empty(), ScalarField::empty());
            let (mut fx, mut fy) = (Vec::new(), Vec::new());
            gather_forces_simd(&pool, &field, &soa, &mut gx, &mut gy, &mut fx, &mut fy);
            assert_eq!((fx.len(), fy.len()), (n, n), "n={n}, {threads} threads");
            for (i, &(want_x, want_y)) in forces.iter().enumerate() {
                assert_bits("fx", i, want_x, fx[i]);
                assert_bits("fy", i, want_y, fy[i]);
            }
            push_step_simd(&pool, &mut soa, &fx, &fy, force_scale, dt, &mut beam);
            assert_eq!((soa.len(), beam.len()), (n, n), "n={n}, {threads} threads");
            for (i, want) in scalar.particles.iter().enumerate() {
                let have = beam.particles[i];
                for (what, w, h) in [
                    ("beam.x", want.x, have.x),
                    ("beam.y", want.y, have.y),
                    ("beam.vx", want.vx, have.vx),
                    ("beam.vy", want.vy, have.vy),
                    ("beam.weight", want.weight, have.weight),
                    ("soa.x", want.x, soa.x[i]),
                    ("soa.y", want.y, soa.y[i]),
                    ("soa.vx", want.vx, soa.vx[i]),
                    ("soa.vy", want.vy, soa.vy[i]),
                    ("soa.weight", want.weight, soa.weight[i]),
                ] {
                    assert_bits(what, i, w, h);
                }
            }
        }
    }
}

/// `Beam::centroid` as three separate `.sum()` passes — the definition a
/// one-pass implementation must reproduce bit for bit.
fn centroid_by_three_sums(beam: &Beam) -> (f64, f64) {
    let q: f64 = beam.particles.iter().map(|p| p.weight).sum();
    if q == 0.0 {
        return (0.0, 0.0);
    }
    let sx: f64 = beam.particles.iter().map(|p| p.weight * p.x).sum();
    let sy: f64 = beam.particles.iter().map(|p| p.weight * p.y).sum();
    (sx / q, sy / q)
}

#[test]
fn centroid_matches_three_sum_definition_bitwise() {
    let at = |x: f64, y: f64, weight: f64| Particle {
        x,
        y,
        vx: 0.0,
        vy: 0.0,
        weight,
    };
    let beams = [
        Beam::new(Vec::new()),
        pipeline_beam(1),
        pipeline_beam(4097),
        bunch().sample(3001, 9),
        Beam::new((0..5).map(|i| at(i as f64, -(i as f64), -0.0)).collect()),
        Beam::new((0..5).map(|i| at(-0.0, -0.0, 0.5 + i as f64)).collect()),
        Beam::new(vec![at(1.0, 2.0, 1.0), at(3.0, -4.0, -1.0)]),
        Beam::new(vec![at(1.0e308, -1.0e308, 4.0), at(1.0e308, 2.0, 0.5)]),
    ];
    for (b, beam) in beams.iter().enumerate() {
        let (want_x, want_y) = centroid_by_three_sums(beam);
        let (have_x, have_y) = beam.centroid();
        assert_eq!(
            (want_x.to_bits(), want_y.to_bits()),
            (have_x.to_bits(), have_y.to_bits()),
            "beam {b}: ({want_x:e}, {want_y:e}) vs ({have_x:e}, {have_y:e})"
        );
    }
}

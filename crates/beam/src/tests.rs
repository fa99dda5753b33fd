use beamdyn_par::ThreadPool;
use beamdyn_pic::{deposit_cic, DepositSample, GridGeometry, GridHistory, MomentGrid};

use crate::bunch::GaussianBunch;
use crate::csr::{
    erf, gaussian_line_density, longitudinal_force_shape, mean_square_error, transverse_force_shape,
};
use crate::forces::{gather_forces, ScalarField};
use crate::lattice::{BendLattice, LatticePreset};
use crate::particle::{Beam, Particle};
use crate::push::{drift, half_step, kick};
use crate::rp::{AnalyticRp, GridRp, NullSink, RpConfig, TapSink};

fn pool() -> ThreadPool {
    ThreadPool::new(2)
}

// ---------- Bunch ----------

#[test]
fn bunch_sampling_matches_moments() {
    let bunch = GaussianBunch {
        sigma_x: 0.05,
        sigma_y: 0.02,
        center_x: 0.5,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.1,
        chirp: 0.0,
    };
    let beam = bunch.sample(200_000, 42);
    assert_eq!(beam.len(), 200_000);
    assert!((beam.total_charge() - 1.0).abs() < 1e-9);
    let (cx, cy) = beam.centroid();
    assert!((cx - 0.5).abs() < 1e-3, "centroid x {cx}");
    assert!((cy - 0.5).abs() < 1e-3);
    let (sx, sy) = beam.rms_size();
    assert!((sx - 0.05).abs() < 1e-3, "σx {sx}");
    assert!((sy - 0.02).abs() < 1e-3, "σy {sy}");
}

#[test]
fn bunch_sampling_is_deterministic() {
    let bunch = GaussianBunch::centered(0.1, 0.05);
    let a = bunch.sample(100, 7);
    let b = bunch.sample(100, 7);
    for (p, q) in a.particles.iter().zip(&b.particles) {
        assert_eq!(p, q);
    }
}

#[test]
fn bunch_density_integrates_to_charge() {
    let bunch = GaussianBunch::centered(0.07, 0.03);
    // Riemann sum over a generous box.
    let n = 400;
    let h = 1.0 / n as f64;
    let mut total = 0.0;
    for iy in 0..n {
        for ix in 0..n {
            let x = -0.5 + (ix as f64 + 0.5) * h;
            let y = -0.5 + (iy as f64 + 0.5) * h;
            total += bunch.density(x, y) * h * h;
        }
    }
    assert!((total - 1.0).abs() < 1e-6, "density mass {total}");
}

#[test]
fn line_density_is_marginal_of_density() {
    let bunch = GaussianBunch::centered(0.1, 0.04);
    let x = 0.05;
    let n = 2000;
    let h = 1.0 / n as f64;
    let marginal: f64 = (0..n)
        .map(|i| bunch.density(x, -0.5 + (i as f64 + 0.5) * h) * h)
        .sum();
    assert!((marginal - bunch.line_density(x)).abs() < 1e-8);
}

// ---------- Lattice ----------

#[test]
fn lcls_preset_matches_paper_parameters() {
    let l = BendLattice::preset(LatticePreset::LclsBend);
    assert!((l.radius_m - 25.13).abs() < 1e-9);
    assert!((l.angle_rad.to_degrees() - 11.4).abs() < 1e-9);
    assert!((l.sigma_s_m - 50e-6).abs() < 1e-12);
    assert!((l.charge_c - 1e-9).abs() < 1e-15);
    assert!(l.arc_length_m() > 4.9 && l.arc_length_m() < 5.1);
    // Overtaking length (24 σ R²)^{1/3} ≈ 0.91 m for these parameters.
    let lo = l.overtaking_length_m();
    assert!(lo > 0.8 && lo < 1.0, "overtaking length {lo}");
}

// ---------- Pusher ----------

#[test]
fn leapfrog_free_drift_moves_linearly() {
    let pool = pool();
    let mut beam = Beam::new(vec![Particle {
        x: 0.0,
        y: 0.0,
        vx: 1.0,
        vy: -0.5,
        weight: 1.0,
    }]);
    let zero = vec![(0.0, 0.0)];
    for _ in 0..10 {
        half_step(&pool, &mut beam, &zero, 0.1);
        kick(&pool, &mut beam, &zero, 0.05);
    }
    let p = &beam.particles[0];
    assert!((p.x - 1.0).abs() < 1e-12);
    assert!((p.y + 0.5).abs() < 1e-12);
    assert_eq!(p.vx, 1.0);
}

#[test]
fn leapfrog_is_time_reversible() {
    let pool = pool();
    let start = Particle {
        x: 0.3,
        y: -0.2,
        vx: 0.7,
        vy: 0.1,
        weight: 1.0,
    };
    let mut beam = Beam::new(vec![start]);
    let forces = vec![(0.25, -0.5)]; // constant force
    let step = |beam: &mut Beam, pool: &ThreadPool| {
        half_step(pool, beam, &forces, 0.05);
        kick(pool, beam, &forces, 0.025);
    };
    step(&mut beam, &pool);
    // Reverse: flip velocity, take the same step, flip back.
    beam.particles[0].vx = -beam.particles[0].vx;
    beam.particles[0].vy = -beam.particles[0].vy;
    step(&mut beam, &pool);
    beam.particles[0].vx = -beam.particles[0].vx;
    beam.particles[0].vy = -beam.particles[0].vy;
    let p = &beam.particles[0];
    assert!((p.x - start.x).abs() < 1e-12, "x {}", p.x);
    assert!((p.y - start.y).abs() < 1e-12);
    assert!((p.vx - start.vx).abs() < 1e-12);
}

#[test]
fn leapfrog_conserves_energy_in_harmonic_well_over_long_run() {
    // Full kick-drift-kick with refreshed forces: energy stays bounded
    // (symplectic), unlike explicit Euler which drifts secularly.
    let pool = pool();
    let mut beam = Beam::new(vec![Particle {
        x: 1.0,
        y: 0.0,
        vx: 0.0,
        vy: 0.0,
        weight: 1.0,
    }]);
    let dt = 0.05;
    let energy0 = 0.5; // ½kx² with k = 1
    let mut max_dev: f64 = 0.0;
    for _ in 0..2000 {
        let p = beam.particles[0];
        half_step(&pool, &mut beam, &vec![(-p.x, -p.y)], dt);
        let p = beam.particles[0];
        kick(&pool, &mut beam, &vec![(-p.x, -p.y)], 0.5 * dt);
        let p = beam.particles[0];
        let e = 0.5 * (p.vx * p.vx + p.vy * p.vy) + 0.5 * (p.x * p.x + p.y * p.y);
        max_dev = max_dev.max((e - energy0).abs());
    }
    assert!(max_dev < 0.01, "energy drift {max_dev}");
}

#[test]
fn explicit_drift_alone_moves_positions_only() {
    let pool = pool();
    let mut beam = Beam::new(vec![Particle {
        x: 0.0,
        y: 0.0,
        vx: 2.0,
        vy: 1.0,
        weight: 1.0,
    }]);
    drift(&pool, &mut beam, 0.25);
    let p = &beam.particles[0];
    assert_eq!((p.x, p.y), (0.5, 0.25));
    assert_eq!((p.vx, p.vy), (2.0, 1.0));
}

// ---------- Forces ----------

#[test]
fn gradient_of_linear_potential_is_exact_constant_force() {
    let g = GridGeometry::unit(32, 32);
    let mut phi = ScalarField::zeros(g);
    for iy in 0..32 {
        for ix in 0..32 {
            let (x, y) = g.cell_center(ix, iy);
            phi.set(ix, iy, 2.0 * x - 3.0 * y);
        }
    }
    let (fx, fy) = phi.neg_gradient();
    // Interior cells: exactly −2 and +3.
    for iy in 1..31 {
        for ix in 1..31 {
            assert!((fx.get(ix, iy) + 2.0).abs() < 1e-10);
            assert!((fy.get(ix, iy) - 3.0).abs() < 1e-10);
        }
    }
}

#[test]
fn gather_forces_returns_one_sample_per_particle() {
    let pool = pool();
    let g = GridGeometry::unit(16, 16);
    let mut phi = ScalarField::zeros(g);
    for iy in 0..16 {
        for ix in 0..16 {
            let (x, _) = g.cell_center(ix, iy);
            phi.set(ix, iy, x * x);
        }
    }
    let beam = GaussianBunch::centered(0.1, 0.1).sample(500, 3);
    let mut beam_shifted = beam.clone();
    for p in &mut beam_shifted.particles {
        p.x += 0.5;
        p.y += 0.5;
    }
    let forces = gather_forces(&pool, &phi, &beam_shifted);
    assert_eq!(forces.len(), 500);
    // −dΦ/dx = −2x: at x ≈ 0.5 force ≈ −1.
    let mean_fx: f64 = forces.iter().map(|f| f.0).sum::<f64>() / 500.0;
    assert!((mean_fx + 1.0).abs() < 0.2, "mean fx {mean_fx}");
}

#[test]
fn scalar_field_bilinear_sample_reproduces_linear_field() {
    let g = GridGeometry::unit(8, 8);
    let mut f = ScalarField::zeros(g);
    for iy in 0..8 {
        for ix in 0..8 {
            let (x, y) = g.cell_center(ix, iy);
            f.set(ix, iy, x + 2.0 * y);
        }
    }
    assert!((f.sample(0.4, 0.6) - (0.4 + 1.2)).abs() < 1e-12);
}

// ---------- rp integrand ----------

fn history_from_bunch(
    bunch: &GaussianBunch,
    g: GridGeometry,
    steps: usize,
    n: usize,
) -> GridHistory {
    let pool = pool();
    let mut history = GridHistory::new(g, steps + 1);
    let beam = bunch.sample(n, 99);
    for k in 0..=steps {
        // Rigid bunch: the same deposition every step.
        let mut grid = MomentGrid::zeros(g);
        let samples: Vec<DepositSample> = beam
            .particles
            .iter()
            .map(|p| DepositSample {
                x: p.x,
                y: p.y,
                weight: p.weight,
                vx: p.vx,
                vy: p.vy,
            })
            .collect();
        deposit_cic(&pool, &mut grid, &samples);
        history.push(k, grid);
    }
    history
}

#[test]
fn rp_config_retarded_time_mapping() {
    let cfg = RpConfig::standard(8, 0.1);
    // r in subregion S_0 → centre step k−1.
    let (i, s) = cfg.retarded(10, 0.05);
    assert_eq!(i, 9);
    assert!((s - 0.5).abs() < 1e-12);
    // r at exactly one subregion width → centre step k−1, s = 0.
    let (i, s) = cfg.retarded(10, 0.1);
    assert_eq!(i, 9);
    assert!(s.abs() < 1e-12);
    // Subregion index.
    assert_eq!(cfg.subregion_of(0.05), 0);
    assert_eq!(cfg.subregion_of(0.35), 3);
    assert_eq!(cfg.subregion_bounds(2), (0.2, 0.30000000000000004));
}

#[test]
fn rp_point_radius_varies_across_grid_and_is_bounded() {
    let cfg = RpConfig::standard(8, 0.1);
    let r_center = cfg.point_radius(100, 0.5, 0.5);
    let r_corner = cfg.point_radius(100, 0.0, 0.0);
    assert!(r_center < r_corner, "corner points integrate further");
    assert!(r_corner <= cfg.max_radius(100) + 1e-12);
    assert!(r_center >= cfg.subregion_width());
    // Early steps shrink the horizon.
    assert!(cfg.point_radius(1, 0.0, 0.0) <= cfg.dt + 1e-12);
}

#[test]
fn grid_rp_matches_analytic_rp_for_rigid_bunch() {
    let g = GridGeometry::unit(64, 64);
    let bunch = GaussianBunch {
        sigma_x: 0.08,
        sigma_y: 0.08,
        center_x: 0.5,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.05,
        chirp: 0.0,
    };
    let mut cfg = RpConfig::standard(4, 0.08);
    cfg.support_x = 0.3;
    cfg.support_y = 0.3;
    let history = history_from_bunch(&bunch, g, 6, 400_000);
    let grid_rp = GridRp::new(&history, cfg, 6);
    let analytic = AnalyticRp::new(bunch, cfg);
    // Compare inner integrals at several radii for the centre point.
    for &r in &[0.02, 0.1, 0.2, 0.3] {
        let gv = grid_rp.eval(0.5, 0.5, r, &mut NullSink);
        let av = analytic.eval(0.5, 0.5, r);
        let scale = av.abs().max(1.0);
        assert!(
            (gv - av).abs() / scale < 0.05,
            "r={r}: grid {gv} vs analytic {av}"
        );
    }
}

#[test]
fn grid_rp_reports_taps_to_sink() {
    #[derive(Default)]
    struct Counter {
        taps: usize,
        flops: u64,
        steps_seen: Vec<usize>,
    }
    impl TapSink for Counter {
        fn tap(&mut self, step: usize, _c: usize, _ix: usize, _iy: usize) {
            self.taps += 1;
            self.steps_seen.push(step);
        }
        fn flops(&mut self, n: u32) {
            self.flops += n as u64;
        }
    }
    let g = GridGeometry::unit(16, 16);
    let bunch = GaussianBunch::centered(0.2, 0.2);
    let bunch = GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..bunch
    };
    let cfg = RpConfig::standard(4, 0.1);
    let history = history_from_bunch(&bunch, g, 5, 10_000);
    let rp = GridRp::new(&history, cfg, 5);
    let mut sink = Counter::default();
    let v = rp.eval(0.5, 0.5, 0.15, &mut sink);
    assert!(v.is_finite());
    // inner_points = 3 → 2 distinct angles; β ≠ 0 → 3 components × 27 taps.
    assert_eq!(sink.taps, 2 * 3 * 27);
    assert!(sink.flops > 0);
    // r = 0.15 → retarded centre step i = 3 (t' = 5 − 1.5); taps touch 2..=4.
    assert!(sink.steps_seen.iter().all(|&s| (2..=4).contains(&s)));
}

#[test]
fn grid_rp_beta_zero_reads_single_component() {
    #[derive(Default)]
    struct Counter(usize);
    impl TapSink for Counter {
        fn tap(&mut self, _s: usize, c: usize, _ix: usize, _iy: usize) {
            assert_eq!(c, beamdyn_pic::MOMENT_CHARGE);
            self.0 += 1;
        }
        fn flops(&mut self, _n: u32) {}
    }
    let g = GridGeometry::unit(16, 16);
    let bunch = GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..GaussianBunch::centered(0.2, 0.2)
    };
    let mut cfg = RpConfig::standard(4, 0.1);
    cfg.beta = 0.0;
    let history = history_from_bunch(&bunch, g, 5, 5_000);
    let rp = GridRp::new(&history, cfg, 5);
    let mut sink = Counter::default();
    rp.eval(0.5, 0.5, 0.15, &mut sink);
    assert_eq!(sink.0, 2 * 27);
}

#[test]
fn analytic_reference_integral_converges_with_cells() {
    let bunch = GaussianBunch {
        center_x: 0.5,
        center_y: 0.5,
        ..GaussianBunch::centered(0.1, 0.1)
    };
    let cfg = RpConfig::standard(6, 0.08);
    let rp = AnalyticRp::new(bunch, cfg);
    let coarse = rp.reference_integral(10, 0.45, 0.55, 64);
    let fine = rp.reference_integral(10, 0.45, 0.55, 512);
    assert!(
        (coarse - fine).abs() < 1e-6 * fine.abs().max(1.0),
        "coarse {coarse} vs fine {fine}"
    );
    assert!(fine > 0.0, "a positive density integrates positively");
}

// ---------- CSR wake ----------

#[test]
fn erf_matches_known_values() {
    assert!(erf(0.0).abs() < 1e-15);
    assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-10);
    assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-10);
    assert!((erf(2.0) - 0.9953222650189527).abs() < 1e-10);
    assert!((erf(10.0) - 1.0).abs() < 1e-15);
}

#[test]
fn gaussian_line_density_normalised() {
    let n = 4000;
    let h = 16.0 / n as f64;
    let total: f64 = (0..n)
        .map(|i| gaussian_line_density(-8.0 + (i as f64 + 0.5) * h) * h)
        .sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn longitudinal_wake_has_csr_sawtooth_shape() {
    // Classic steady-state CSR: the force shape is positive (accelerating)
    // at the head, negative in the core/tail, and integrates to ~0 against
    // the bunch profile's far tails.
    let head = longitudinal_force_shape(1.5);
    let core = longitudinal_force_shape(-0.5);
    let far_tail = longitudinal_force_shape(-8.0);
    assert!(head > 0.0, "head accelerated: {head}");
    assert!(core < 0.0, "core decelerated: {core}");
    assert!(far_tail.abs() < 1e-3, "far tail quiet: {far_tail}");
}

#[test]
fn longitudinal_wake_momentum_balance() {
    // ∫ λ(x) F(x) dx ≈ small relative to ∫ λ|F|: CSR exchanges energy within
    // the bunch with a modest net loss (radiation), so the weighted integral
    // must be negative but bounded.
    let n = 800;
    let h = 16.0 / n as f64;
    let mut net = 0.0;
    let mut gross = 0.0;
    for i in 0..n {
        let x = -8.0 + (i as f64 + 0.5) * h;
        let w = gaussian_line_density(x) * h;
        let f = longitudinal_force_shape(x);
        net += w * f;
        gross += w * f.abs();
    }
    assert!(net < 0.0, "net energy loss to radiation: {net}");
    assert!(
        net.abs() < gross,
        "net {net} must be partial cancellation of gross {gross}"
    );
}

#[test]
fn transverse_shape_is_monotone_cumulative() {
    assert!(transverse_force_shape(-6.0) < 1e-6);
    assert!((transverse_force_shape(6.0) - 1.0).abs() < 1e-6);
    assert!((transverse_force_shape(0.0) - 0.5).abs() < 1e-9);
    let mut prev = 0.0;
    for i in -40..=40 {
        let v = transverse_force_shape(i as f64 * 0.2);
        // Monotone up to the quadrature noise of the erf evaluation.
        assert!(v >= prev - 1e-9, "at x={}: {v} < {prev}", i as f64 * 0.2);
        prev = v;
    }
}

#[test]
fn mean_square_error_basic() {
    assert_eq!(mean_square_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    assert_eq!(mean_square_error(&[1.0, 3.0], &[0.0, 1.0]), 2.5);
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "test-side index of the nearest sample, not simulation code"
)]
fn convolved_wake_matches_gaussian_special_case() {
    use crate::csr::longitudinal_wake_of;
    // Sample the normalised Gaussian line density and convolve numerically;
    // the result must match the closed-form Gaussian wake shape.
    let n = 400;
    let s0 = -10.0;
    let ds = 20.0 / (n - 1) as f64;
    let density: Vec<f64> = (0..n)
        .map(|i| gaussian_line_density(s0 + i as f64 * ds))
        .collect();
    let wake = longitudinal_wake_of(&density, s0, ds);
    for &x in &[-1.5f64, -0.5, 0.0, 0.5, 1.5] {
        let j = ((x - s0) / ds).round() as usize;
        let got = wake[j];
        let want = longitudinal_force_shape(s0 + j as f64 * ds);
        assert!(
            (got - want).abs() < 0.02,
            "at s={x}: convolved {got} vs closed form {want}"
        );
    }
}

#[test]
fn convolved_wake_scales_with_density_amplitude() {
    use crate::csr::longitudinal_wake_of;
    let n = 200;
    let s0 = -8.0;
    let ds = 16.0 / (n - 1) as f64;
    let density: Vec<f64> = (0..n)
        .map(|i| gaussian_line_density(s0 + i as f64 * ds))
        .collect();
    let doubled: Vec<f64> = density.iter().map(|d| 2.0 * d).collect();
    let w1 = longitudinal_wake_of(&density, s0, ds);
    let w2 = longitudinal_wake_of(&doubled, s0, ds);
    for (a, b) in w1.iter().zip(&w2) {
        assert!((2.0 * a - b).abs() < 1e-9, "linearity: {a} vs {b}");
    }
}

#[test]
fn chirped_bunch_compresses_under_free_drift() {
    let pool = pool();
    let bunch = GaussianBunch {
        sigma_x: 0.1,
        sigma_y: 0.02,
        center_x: 0.5,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.0,
        chirp: 1.0,
    };
    let mut beam = bunch.sample(50_000, 13);
    let (sx0, _) = beam.rms_size();
    drift(&pool, &mut beam, 0.05);
    let (sx1, _) = beam.rms_size();
    // σ(t) = σ0 (1 − chirp·t) for a perfect linear chirp.
    assert!((sx1 / sx0 - 0.95).abs() < 5e-3, "σ ratio {}", sx1 / sx0);
}

#[test]
fn chirp_preserves_centroid_and_charge() {
    let bunch = GaussianBunch {
        chirp: 2.0,
        center_x: 0.4,
        center_y: 0.6,
        ..GaussianBunch::centered(0.1, 0.05)
    };
    let beam = bunch.sample(100_000, 3);
    let (cx, cy) = beam.centroid();
    assert!((cx - 0.4).abs() < 2e-3);
    assert!((cy - 0.6).abs() < 2e-3);
    assert!((beam.total_charge() - 1.0).abs() < 1e-9);
    // Mean vx ≈ 0 (chirp is anti-symmetric about the centroid).
    let mean_vx: f64 = beam.particles.iter().map(|p| p.weight * p.vx).sum();
    assert!(mean_vx.abs() < 2e-3, "mean vx {mean_vx}");
}

#[test]
fn rp_point_radius_is_larger_along_the_long_axis() {
    // Elliptical support: a point displaced along x (the long axis) must
    // integrate further than one equally displaced along y.
    let cfg = RpConfig {
        kappa: 32,
        dt: 0.05,
        inner_points: 3,
        beta: 0.0,
        support_x: 0.4,
        support_y: 0.05,
        center: (0.5, 0.5),
    };
    let along_x = cfg.point_radius(100, 0.8, 0.5);
    let along_y = cfg.point_radius(100, 0.5, 0.8);
    assert!(along_x > along_y, "{along_x} vs {along_y}");
}

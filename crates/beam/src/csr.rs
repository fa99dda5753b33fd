//! Analytic steady-state CSR wake of a rigid 1-D Gaussian bunch.
//!
//! This is the closed-form special case the paper validates against
//! (its refs [24], [25]; Derbenev et al. / Saldin et al.): a monochromatic
//! rigid line bunch on a circular orbit in steady state. The longitudinal
//! field is
//!
//! ```text
//! F∥(s) = −A · G(s/σ),     A = 2 N e² / (3^{1/3} R^{2/3} σ^{4/3})
//! G(x)  = ∫₀^∞ ξ^{−1/3} λ̂'(x − ξ) dξ,   λ̂(u) = e^{−u²/2} / √(2π)
//! ```
//!
//! and the rigid-bunch transverse force follows the integrated line density
//! (Talman/Derbenev form), `F⊥(s) ∝ Λ(s) = ∫_{−∞}^{s} λ̂(u) du`.
//!
//! All functions here are *dimensionless shapes*; physical amplitudes come
//! from [`crate::lattice::BendLattice::csr_wake_prefactor`].

/// Normalised Gaussian line density `λ̂(u)`.
pub fn gaussian_line_density(u: f64) -> f64 {
    (-0.5 * u * u).exp() / (std::f64::consts::TAU).sqrt()
}

/// Its derivative `λ̂'(u) = −u λ̂(u)`.
pub fn gaussian_line_density_prime(u: f64) -> f64 {
    -u * gaussian_line_density(u)
}

/// The universal longitudinal wake shape
/// `G(x) = ∫₀^∞ ξ^{−1/3} λ̂'(x − ξ) dξ`.
///
/// The integrable singularity at ξ = 0 is removed with the substitution
/// `ξ = v^{3/2}` (so `ξ^{−1/3} dξ = (3/2) dv`), leaving a smooth integrand
/// handled by composite Simpson. Accurate to ≈1e-10 with the default panel
/// count.
pub fn longitudinal_wake_shape(x: f64) -> f64 {
    // Contributions die once x − ξ < −8 (Gaussian tail): v_max^{3/2} = x + 8.
    let xi_max = (x + 8.0).max(1e-9);
    let v_max = xi_max.powf(2.0 / 3.0);
    let panels = 400;
    let h = v_max / panels as f64;
    let f = |v: f64| 1.5 * gaussian_line_density_prime(x - v.powf(1.5));
    let mut total = 0.0;
    for p in 0..panels {
        let a = p as f64 * h;
        total += h / 6.0 * (f(a) + 4.0 * f(a + 0.5 * h) + f(a + h));
    }
    total
}

/// Longitudinal CSR force shape `F∥(s/σ) = −G(s/σ)` (positive `s` = bunch
/// head). The head is accelerated and the tail decelerated in the classic
/// sawtooth-like profile.
pub fn longitudinal_force_shape(x: f64) -> f64 {
    -longitudinal_wake_shape(x)
}

/// Transverse rigid-bunch force shape: the integrated line density
/// `Λ(x) = ∫_{−∞}^{x} λ̂(u) du = Φ_normal(x)` (computed via `erf`-free
/// series-free numerics: Abramowitz–Stegun rational approximation).
pub fn transverse_force_shape(x: f64) -> f64 {
    // Φ(x) = 0.5 erfc(−x/√2); use a high-accuracy erf approximation.
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function, |ε| < 3e-14: Maclaurin series for small arguments,
/// continued-fraction-free complementary asymptotics via composite Simpson
/// of the defining integral for the rest (the integrand is analytic, so a
/// fixed fine grid reaches near machine precision on the bounded range that
/// matters; beyond |x| > 6, erf(x) = ±1 to double precision).
pub fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    if x > 6.0 {
        return sign;
    }
    // erf(x) = 2/√π ∫₀ˣ e^{−t²} dt via composite Simpson, 1024 panels.
    let panels = 1024;
    let h = x / panels as f64;
    let f = |t: f64| (-t * t).exp();
    let mut total = 0.0;
    for p in 0..panels {
        let a = p as f64 * h;
        total += h / 6.0 * (f(a) + 4.0 * f(a + 0.5 * h) + f(a + h));
    }
    sign * (2.0 / std::f64::consts::PI.sqrt()) * total
}

/// Longitudinal CSR wake of an **arbitrary** sampled line density, by
/// numerical convolution with the steady-state kernel:
/// `F(s) = −∫₀^∞ ξ^{−1/3} λ'(s − ξ) dξ` with the same `ξ = v^{3/2}`
/// desingularisation as [`longitudinal_wake_shape`].
///
/// `density` holds λ sampled on a uniform grid `s = s0 + i·ds`; the output
/// has the same sampling. λ' is taken by central differences. This extends
/// the Gaussian special case to the evolving (e.g. compressing) bunches the
/// simulation produces.
pub fn longitudinal_wake_of(density: &[f64], s0: f64, ds: f64) -> Vec<f64> {
    assert!(density.len() >= 3, "need at least three density samples");
    assert!(ds > 0.0);
    let n = density.len();
    // λ' by central differences (one-sided at the ends).
    let dlam: Vec<f64> = (0..n)
        .map(|i| match i {
            0 => (density[1] - density[0]) / ds,
            i if i == n - 1 => (density[i] - density[i - 1]) / ds,
            i => (density[i + 1] - density[i - 1]) / (2.0 * ds),
        })
        .collect();
    let lam_prime = |s: f64| -> f64 {
        // Linear interpolation of λ' on the sample grid; zero outside.
        let t = (s - s0) / ds;
        if t <= 0.0 || t >= (n - 1) as f64 {
            return 0.0;
        }
        #[allow(
            clippy::disallowed_methods,
            reason = "analytic CSR reference, off the simulation's hot path"
        )]
        let i = t.floor() as usize;
        let frac = t - i as f64;
        dlam[i] * (1.0 - frac) + dlam[i + 1] * frac
    };
    let span = (n - 1) as f64 * ds;
    let v_max = span.powf(2.0 / 3.0);
    let panels = 200;
    let h = v_max / panels as f64;
    (0..n)
        .map(|j| {
            let s = s0 + j as f64 * ds;
            let f = |v: f64| 1.5 * lam_prime(s - v.powf(1.5));
            let mut total = 0.0;
            for p in 0..panels {
                let a = p as f64 * h;
                total += h / 6.0 * (f(a) + 4.0 * f(a + 0.5 * h) + f(a + h));
            }
            -total
        })
        .collect()
}

/// Mean-square error between a computed force series and the analytic shape
/// (the paper's Fig. 3 metric): `ε = Σ (Fᵢ − Fᵢ_exact)² / N`.
pub fn mean_square_error(computed: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(computed.len(), exact.len(), "series length mismatch");
    assert!(!computed.is_empty());
    computed
        .iter()
        .zip(exact)
        .map(|(c, e)| (c - e) * (c - e))
        .sum::<f64>()
        / computed.len() as f64
}

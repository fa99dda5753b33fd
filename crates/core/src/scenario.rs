//! Declarative scenario specifications — what a tenant *asks for*.
//!
//! A [`ScenarioSpec`] is the validated, plain-data description of one
//! simulation run: lattice preset, bunch parameters, grid, kernel,
//! backend, tolerance τ, and step count. It is the body of
//! `POST /sessions` (the JSON binding lives in `beamdyn-serve`, parsed by
//! the in-repo `bench::json`), the input to
//! [`SessionManager::submit`](crate::session::SessionManager::submit),
//! and the single place scenario validation happens — every range check
//! produces a structured [`SpecError`] naming the offending field and the
//! accepted values, because in a multi-tenant service a typo in one
//! request must become a 400, never a panic.
//!
//! [`ScenarioSpec::build`] turns the spec into the concrete
//! ([`SimulationConfig`], [`Beam`]) pair the driver consumes. Defaults
//! reproduce the daemon's classic drifting-bunch scenario, so
//! `POST /sessions` with an empty object `{}` runs something sensible.

use beamdyn_beam::{Beam, BendLattice, GaussianBunch, LatticePreset, RpConfig};
use beamdyn_pic::GridGeometry;

use crate::backend::BackendKind;
use crate::driver::{KernelKind, SimulationConfig};

/// A validation failure: which field, what went wrong, and — when the
/// field is an enumeration — the values that would have been accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// The offending spec field (dotted path, e.g. `bunch.sigma_x`).
    pub field: String,
    /// Human-readable description of the violation.
    pub message: String,
    /// Accepted values, when the field is an enumeration.
    pub accepted: Vec<String>,
}

impl SpecError {
    /// Builds an error for a free-form (range) violation.
    pub fn range(field: &str, message: impl Into<String>) -> Self {
        Self {
            field: field.to_string(),
            message: message.into(),
            accepted: Vec::new(),
        }
    }

    /// Builds an error for an enumerated field, listing what it accepts.
    pub fn choice(field: &str, got: &str, accepted: &[&str]) -> Self {
        Self {
            field: field.to_string(),
            message: format!("unknown value '{got}'"),
            accepted: accepted.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Renders the error as the structured JSON body of a 400 response.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let accepted = self
            .accepted
            .iter()
            .map(|v| format!("\"{}\"", esc(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"error\":\"invalid scenario spec\",\"field\":\"{}\",\"message\":\"{}\",\
             \"accepted\":[{accepted}]}}",
            esc(&self.field),
            esc(&self.message)
        )
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)?;
        if !self.accepted.is_empty() {
            write!(f, " (accepted: {})", self.accepted.join(", "))?;
        }
        Ok(())
    }
}

/// Kernel names [`ScenarioSpec::set_kernel`] accepts.
pub const KERNEL_NAMES: &[&str] = &["two-phase", "heuristic", "predictive"];

/// The declarative description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Free-form label echoed in listings (defaults to `session`).
    pub name: String,
    /// Potentials kernel.
    pub kernel: KernelKind,
    /// Compute backend; `None` defers to the manager's process default.
    pub backend: Option<BackendKind>,
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
    /// Macro-particle count.
    pub particles: usize,
    /// Steps to run before the session completes.
    pub steps: usize,
    /// Error tolerance τ per grid point.
    pub tolerance: f64,
    /// Retardation depth κ (Δt follows as `0.35 / κ`).
    pub kappa: usize,
    /// Bunch-sampling seed.
    pub seed: u64,
    /// Initial bunch shape.
    pub bunch: GaussianBunch,
    /// Optional lattice preset; sets the reference β from the preset's γ.
    pub lattice: Option<LatticePreset>,
    /// Artificial pause after each step (pacing for live demos).
    pub step_delay_ms: u64,
}

impl Default for ScenarioSpec {
    /// The daemon's classic scenario: a drifting Gaussian bunch on a
    /// 16×16 unit square, predictive kernel, 6 steps.
    fn default() -> Self {
        Self {
            name: "session".to_string(),
            kernel: KernelKind::Predictive,
            backend: None,
            nx: 16,
            ny: 16,
            particles: 4_000,
            steps: 6,
            tolerance: 1e-6,
            kappa: 6,
            seed: 42,
            bunch: GaussianBunch {
                sigma_x: 0.12,
                sigma_y: 0.03,
                center_x: 0.4,
                center_y: 0.5,
                charge: 1.0,
                velocity_spread: 0.0,
                drift_vx: 0.2,
                chirp: 0.0,
            },
            lattice: None,
            step_delay_ms: 0,
        }
    }
}

impl ScenarioSpec {
    /// Sets the kernel from its request-level name.
    pub fn set_kernel(&mut self, name: &str) -> Result<(), SpecError> {
        self.kernel = match name {
            "two-phase" | "two_phase" => KernelKind::TwoPhase,
            "heuristic" => KernelKind::Heuristic,
            "predictive" => KernelKind::Predictive,
            other => return Err(SpecError::choice("kernel", other, KERNEL_NAMES)),
        };
        Ok(())
    }

    /// Sets the backend from its request-level name.
    pub fn set_backend(&mut self, name: &str) -> Result<(), SpecError> {
        self.backend =
            Some(BackendKind::parse(name).ok_or_else(|| {
                SpecError::choice("backend", name, BackendKind::accepted_values())
            })?);
        Ok(())
    }

    /// Sets the lattice preset from its request-level name.
    pub fn set_lattice(&mut self, name: &str) -> Result<(), SpecError> {
        self.lattice = Some(match name {
            "lcls-bend" | "lcls_bend" => LatticePreset::LclsBend,
            other => return Err(SpecError::choice("lattice", other, &["lcls-bend"])),
        });
        Ok(())
    }

    /// The request-level name of the configured kernel.
    pub fn kernel_request_name(&self) -> &'static str {
        match self.kernel {
            KernelKind::TwoPhase => "two-phase",
            KernelKind::Heuristic => "heuristic",
            KernelKind::Predictive => "predictive",
        }
    }

    /// Checks every range constraint; `Ok` means [`ScenarioSpec::build`]
    /// cannot fail or misbehave. Limits are service-protection bounds, not
    /// physics: a multi-tenant endpoint must reject absurd asks upfront.
    pub fn validate(&self) -> Result<(), SpecError> {
        let range = |field: &str, ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(SpecError::range(field, msg))
            }
        };
        range("grid.nx", (4..=256).contains(&self.nx), "must be 4..=256")?;
        range("grid.ny", (4..=256).contains(&self.ny), "must be 4..=256")?;
        range(
            "particles",
            (1..=2_000_000).contains(&self.particles),
            "must be 1..=2000000",
        )?;
        range(
            "steps",
            (1..=100_000).contains(&self.steps),
            "must be 1..=100000",
        )?;
        range(
            "tolerance",
            self.tolerance.is_finite() && self.tolerance > 0.0,
            "must be a finite positive number",
        )?;
        range("kappa", (1..=32).contains(&self.kappa), "must be 1..=32")?;
        range(
            "step_delay_ms",
            self.step_delay_ms <= 60_000,
            "must be at most 60000",
        )?;
        let finite = |v: f64| v.is_finite();
        range(
            "bunch.sigma_x",
            finite(self.bunch.sigma_x) && self.bunch.sigma_x > 0.0,
            "must be a finite positive number",
        )?;
        range(
            "bunch.sigma_y",
            finite(self.bunch.sigma_y) && self.bunch.sigma_y > 0.0,
            "must be a finite positive number",
        )?;
        range(
            "bunch.center_x",
            finite(self.bunch.center_x) && (0.0..=1.0).contains(&self.bunch.center_x),
            "must be within the unit square (0..=1)",
        )?;
        range(
            "bunch.center_y",
            finite(self.bunch.center_y) && (0.0..=1.0).contains(&self.bunch.center_y),
            "must be within the unit square (0..=1)",
        )?;
        for (field, v) in [
            ("bunch.charge", self.bunch.charge),
            ("bunch.velocity_spread", self.bunch.velocity_spread),
            ("bunch.drift_vx", self.bunch.drift_vx),
            ("bunch.chirp", self.bunch.chirp),
        ] {
            range(field, finite(v), "must be a finite number")?;
        }
        range(
            "name",
            self.name.len() <= 120 && !self.name.contains(|c: char| (c as u32) < 0x20),
            "must be at most 120 printable characters",
        )?;
        Ok(())
    }

    /// Materialises the spec into the concrete config + sampled beam.
    /// `default_backend` fills in when the spec names none (the manager's
    /// process default, itself resolved without panicking).
    pub fn build(&self, default_backend: BackendKind) -> (SimulationConfig, Beam) {
        let geometry = GridGeometry::unit(self.nx, self.ny);
        let backend = self.backend.unwrap_or(default_backend);
        let mut config = SimulationConfig::for_backend(geometry, self.kernel, backend);
        config.tolerance = self.tolerance;
        // The support cut follows the bunch: ≈3.5σ captures the Gaussian
        // tails the deposit actually produces (the daemon's hand-picked
        // 0.42/0.09 for σ = 0.12/0.03 is exactly this rule).
        let beta = match self.lattice {
            Some(preset) => {
                let gamma = BendLattice::preset(preset).gamma;
                (1.0 - 1.0 / (gamma * gamma)).max(0.0).sqrt()
            }
            None => 0.5,
        };
        config.rp = RpConfig {
            kappa: self.kappa,
            dt: 0.35 / self.kappa as f64,
            inner_points: 3,
            beta,
            support_x: (3.5 * self.bunch.sigma_x).min(0.49),
            support_y: (3.0 * self.bunch.sigma_y).min(0.49),
            center: (self.bunch.center_x, self.bunch.center_y),
        };
        let beam = self.bunch.sample(self.particles.max(1), self.seed);
        (config, beam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates_and_builds() {
        let spec = ScenarioSpec::default();
        spec.validate().expect("default spec is valid");
        let (config, beam) = spec.build(BackendKind::NativeSimd);
        assert_eq!(config.backend, BackendKind::NativeSimd);
        assert_eq!(config.geometry.nx, 16);
        assert_eq!(beam.len(), 4_000);
        assert_eq!(config.rp.kappa, 6);
        assert!((config.rp.support_x - 0.42).abs() < 1e-12);
        assert!((config.rp.support_y - 0.09).abs() < 1e-12);
    }

    #[test]
    fn explicit_backend_wins_over_default() {
        let mut spec = ScenarioSpec::default();
        spec.set_backend("traced").unwrap();
        let (config, _) = spec.build(BackendKind::NativeSimd);
        assert_eq!(config.backend, BackendKind::TracedSimt);
    }

    #[test]
    fn enum_errors_list_accepted_values() {
        let mut spec = ScenarioSpec::default();
        let err = spec.set_kernel("warp").unwrap_err();
        assert_eq!(err.field, "kernel");
        assert_eq!(err.accepted, KERNEL_NAMES);
        let err = spec.set_backend("cuda").unwrap_err();
        assert!(err.accepted.iter().any(|v| v == "native"));
        let err = spec.set_lattice("fodo").unwrap_err();
        assert_eq!(err.accepted, vec!["lcls-bend"]);
        let json = err.to_json();
        assert!(json.contains("\"field\":\"lattice\""));
        assert!(json.contains("\"accepted\":[\"lcls-bend\"]"));
    }

    type Mutation = Box<dyn Fn(&mut ScenarioSpec)>;

    #[test]
    fn range_violations_are_caught() {
        let cases: Vec<(&str, Mutation)> = vec![
            ("grid.nx", Box::new(|s| s.nx = 2)),
            ("grid.ny", Box::new(|s| s.ny = 1_000)),
            ("particles", Box::new(|s| s.particles = 0)),
            ("steps", Box::new(|s| s.steps = 0)),
            ("tolerance", Box::new(|s| s.tolerance = -1.0)),
            ("tolerance", Box::new(|s| s.tolerance = f64::NAN)),
            ("kappa", Box::new(|s| s.kappa = 0)),
            ("bunch.sigma_x", Box::new(|s| s.bunch.sigma_x = 0.0)),
            ("bunch.center_x", Box::new(|s| s.bunch.center_x = 2.0)),
            ("bunch.chirp", Box::new(|s| s.bunch.chirp = f64::INFINITY)),
        ];
        for (field, mutate) in cases {
            let mut spec = ScenarioSpec::default();
            mutate(&mut spec);
            let err = spec.validate().expect_err(field);
            assert_eq!(err.field, field);
        }
    }

    #[test]
    fn lattice_preset_sets_ultrarelativistic_beta() {
        let mut spec = ScenarioSpec::default();
        spec.set_lattice("lcls-bend").unwrap();
        let (config, _) = spec.build(BackendKind::TracedSimt);
        assert!(config.rp.beta > 0.999_999);
        assert!(config.rp.beta <= 1.0);
    }
}

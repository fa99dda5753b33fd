//! JSON binding of the `POST /sessions` body onto
//! [`ScenarioSpec`], using the in-repo `bench::json` parser — no external
//! deps, strict field checking, and every failure is a structured
//! [`SpecError`] that renders as the 400 body with the accepted values.
//!
//! Accepted shape (every field optional; `{}` runs the default scenario):
//!
//! ```json
//! {
//!   "name": "compress-a",
//!   "kernel": "predictive",          // two-phase | heuristic | predictive
//!   "backend": "native-simd",        // traced | native-simd, alias native (default: process)
//!   "lattice": "lcls-bend",
//!   "grid": {"nx": 16, "ny": 16},    // or "resolution": 16
//!   "particles": 4000,
//!   "steps": 6,
//!   "tau": 1e-6,                     // alias: "tolerance"
//!   "kappa": 6,
//!   "seed": 42,
//!   "step_delay_ms": 0,
//!   "bunch": {"sigma_x": 0.12, "sigma_y": 0.03, "center_x": 0.4,
//!             "center_y": 0.5, "charge": 1.0, "velocity_spread": 0.0,
//!             "drift_vx": 0.2, "chirp": 0.0}
//! }
//! ```

use beamdyn_bench::json::{self, Value};
use beamdyn_core::scenario::{ScenarioSpec, SpecError};

/// Top-level fields `POST /sessions` accepts.
const TOP_FIELDS: &[&str] = &[
    "name",
    "kernel",
    "backend",
    "lattice",
    "grid",
    "resolution",
    "particles",
    "steps",
    "tau",
    "tolerance",
    "kappa",
    "seed",
    "step_delay_ms",
    "bunch",
];

/// Fields of the nested `bunch` object.
const BUNCH_FIELDS: &[&str] = &[
    "sigma_x",
    "sigma_y",
    "center_x",
    "center_y",
    "charge",
    "velocity_spread",
    "drift_vx",
    "chirp",
];

fn want_str<'v>(value: &'v Value, field: &str) -> Result<&'v str, SpecError> {
    value
        .as_str()
        .ok_or_else(|| SpecError::range(field, "must be a string"))
}

fn want_f64(value: &Value, field: &str) -> Result<f64, SpecError> {
    value
        .as_f64()
        .ok_or_else(|| SpecError::range(field, "must be a number"))
}

fn want_usize(value: &Value, field: &str) -> Result<usize, SpecError> {
    let n = want_f64(value, field)?;
    if n.fract() != 0.0 || n < 0.0 || n > u32::MAX as f64 {
        return Err(SpecError::range(field, "must be a non-negative integer"));
    }
    Ok(n as usize)
}

fn want_u64(value: &Value, field: &str) -> Result<u64, SpecError> {
    let n = want_f64(value, field)?;
    if n.fract() != 0.0 || n < 0.0 || n > (1u64 << 53) as f64 {
        return Err(SpecError::range(field, "must be a non-negative integer"));
    }
    Ok(n as u64)
}

/// Parses and validates a `POST /sessions` body into a ready-to-submit
/// spec. Strict: unknown fields are rejected (naming the accepted ones),
/// so a typo'd `"kernl"` cannot silently run the default.
pub fn parse_scenario(body: &str) -> Result<ScenarioSpec, SpecError> {
    let root =
        json::parse(body).map_err(|e| SpecError::range("body", format!("invalid JSON: {e}")))?;
    let Some(object) = root.as_object() else {
        return Err(SpecError::range("body", "must be a JSON object"));
    };
    let mut spec = ScenarioSpec::default();
    for (key, value) in object {
        match key.as_str() {
            "name" => spec.name = want_str(value, "name")?.to_string(),
            "kernel" => spec.set_kernel(want_str(value, "kernel")?)?,
            "backend" => spec.set_backend(want_str(value, "backend")?)?,
            "lattice" => spec.set_lattice(want_str(value, "lattice")?)?,
            "grid" => {
                let Some(grid) = value.as_object() else {
                    return Err(SpecError::range("grid", "must be an object {nx, ny}"));
                };
                for (gkey, gvalue) in grid {
                    match gkey.as_str() {
                        "nx" => spec.nx = want_usize(gvalue, "grid.nx")?,
                        "ny" => spec.ny = want_usize(gvalue, "grid.ny")?,
                        other => {
                            return Err(SpecError::choice(
                                &format!("grid.{other}"),
                                other,
                                &["nx", "ny"],
                            ))
                        }
                    }
                }
            }
            "resolution" => {
                let r = want_usize(value, "resolution")?;
                spec.nx = r;
                spec.ny = r;
            }
            "particles" => spec.particles = want_usize(value, "particles")?,
            "steps" => spec.steps = want_usize(value, "steps")?,
            "tau" | "tolerance" => spec.tolerance = want_f64(value, key)?,
            "kappa" => spec.kappa = want_usize(value, "kappa")?,
            "seed" => spec.seed = want_u64(value, "seed")?,
            "step_delay_ms" => spec.step_delay_ms = want_u64(value, "step_delay_ms")?,
            "bunch" => {
                let Some(bunch) = value.as_object() else {
                    return Err(SpecError::range("bunch", "must be an object"));
                };
                for (bkey, bvalue) in bunch {
                    let field = format!("bunch.{bkey}");
                    let v = want_f64(bvalue, &field)?;
                    match bkey.as_str() {
                        "sigma_x" => spec.bunch.sigma_x = v,
                        "sigma_y" => spec.bunch.sigma_y = v,
                        "center_x" => spec.bunch.center_x = v,
                        "center_y" => spec.bunch.center_y = v,
                        "charge" => spec.bunch.charge = v,
                        "velocity_spread" => spec.bunch.velocity_spread = v,
                        "drift_vx" => spec.bunch.drift_vx = v,
                        "chirp" => spec.bunch.chirp = v,
                        other => return Err(SpecError::choice(&field, other, BUNCH_FIELDS)),
                    }
                }
            }
            other => return Err(SpecError::choice(other, other, TOP_FIELDS)),
        }
    }
    spec.validate()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beamdyn_core::{BackendKind, KernelKind};

    #[test]
    fn empty_object_is_the_default_scenario() {
        let spec = parse_scenario("{}").expect("empty spec");
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = parse_scenario(
            r#"{"name":"x","kernel":"two-phase","backend":"native","lattice":"lcls-bend",
                "grid":{"nx":12,"ny":8},"particles":500,"steps":3,"tau":1e-5,"kappa":4,
                "seed":7,"step_delay_ms":1,
                "bunch":{"sigma_x":0.1,"drift_vx":0.0}}"#,
        )
        .expect("full spec");
        assert_eq!(spec.name, "x");
        assert_eq!(spec.kernel, KernelKind::TwoPhase);
        assert_eq!(spec.backend, Some(BackendKind::NativeSimd));
        assert_eq!((spec.nx, spec.ny), (12, 8));
        assert_eq!(spec.particles, 500);
        assert_eq!(spec.steps, 3);
        assert_eq!(spec.tolerance, 1e-5);
        assert_eq!(spec.kappa, 4);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.step_delay_ms, 1);
        assert_eq!(spec.bunch.sigma_x, 0.1);
        assert_eq!(spec.bunch.drift_vx, 0.0);
        // Unspecified bunch fields keep their defaults.
        assert_eq!(spec.bunch.sigma_y, ScenarioSpec::default().bunch.sigma_y);
    }

    #[test]
    fn resolution_sets_both_axes() {
        let spec = parse_scenario(r#"{"resolution": 24}"#).unwrap();
        assert_eq!((spec.nx, spec.ny), (24, 24));
    }

    #[test]
    fn unknown_fields_are_rejected_with_accepted_list() {
        let err = parse_scenario(r#"{"kernl": "predictive"}"#).unwrap_err();
        assert_eq!(err.field, "kernl");
        assert!(err.accepted.iter().any(|f| f == "kernel"));
        let err = parse_scenario(r#"{"bunch": {"sigma_z": 1.0}}"#).unwrap_err();
        assert_eq!(err.field, "bunch.sigma_z");
        assert!(err.accepted.iter().any(|f| f == "sigma_x"));
    }

    #[test]
    fn bad_enum_values_list_choices() {
        let err = parse_scenario(r#"{"backend": "cuda"}"#).unwrap_err();
        assert_eq!(err.field, "backend");
        assert!(err.accepted.iter().any(|v| v == "traced"));
    }

    #[test]
    fn malformed_json_and_ranges_are_structured_errors() {
        let err = parse_scenario("{not json").unwrap_err();
        assert_eq!(err.field, "body");
        let err = parse_scenario(r#"{"steps": 0}"#).unwrap_err();
        assert_eq!(err.field, "steps");
        let err = parse_scenario(r#"{"particles": 2.5}"#).unwrap_err();
        assert_eq!(err.field, "particles");
        let err = parse_scenario(r#"{"grid": {"nx": 2}}"#).unwrap_err();
        assert_eq!(err.field, "grid.nx");
    }
}

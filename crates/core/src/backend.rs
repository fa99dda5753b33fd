//! Compute backends: how the planned kernel launches actually execute.
//!
//! The three [`PotentialsKernel`](crate::kernels::PotentialsKernel)
//! strategies only *plan* — every launch happens inside the shared engine
//! ([`compute_potentials`](crate::kernels::compute_potentials)), and the
//! engine's two launch shapes (`kernels::threads::{run_fixed,
//! run_adaptive}`) match on the [`BackendKind`] to pick one of two lanes:
//!
//! * [`BackendKind::TracedSimt`] — the reference path. Each lane records
//!   its op stream, a warp-lockstep replayer simulates the device
//!   (coalescing, L1/L2, occupancy), and every simulated machine metric the
//!   paper profiles is produced.
//! * [`BackendKind::NativeSimd`] — the answers-only host path. The *same*
//!   lane bodies run to retirement as plain indexed parallel work with all
//!   tracing monomorphized away, fresh integrand evaluations take the
//!   vectorized stencil gather, and the driver runs the whole particle
//!   pipeline (deposit, gather, push) over an SoA scratch in 4-wide lane
//!   blocks. Control flow and operation counts stay exactly equal to the
//!   traced lane; produced *values* differ from it by the documented
//!   fixed-order SIMD reassociation — deterministic (bit-identical across
//!   pool widths and runs) but not bit-identical to traced. Simulated
//!   metrics come back zero. See DESIGN.md §17 for the full contract.
//!
//! Selection is per-run: [`SimulationConfig::backend`]
//! (crate::driver::SimulationConfig::backend) defaults from the
//! `BEAMDYN_BACKEND` environment variable (`traced` unless told otherwise),
//! and the daemon/bench surfaces expose explicit flags that override it.

/// Which compute backend executes the planned launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Simulated-GPU reference path: op recording, warp replay, all gated
    /// machine metrics.
    #[default]
    TracedSimt,
    /// SIMD host path: 4-wide lane blocks, fixed-order reductions, the
    /// traced lane's control flow and counts, zero simulated metrics.
    NativeSimd,
}

impl BackendKind {
    /// Parses a backend name as accepted by `BEAMDYN_BACKEND` and the
    /// `--backend` flags. `native`, `native-fast` and `fast` name the one
    /// host lane, NativeSimd.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "traced" | "traced-simt" | "simt" => Some(Self::TracedSimt),
            "native-simd" | "simd" | "native" | "native-fast" | "fast" => Some(Self::NativeSimd),
            _ => None,
        }
    }

    /// The default backend for this process: `BEAMDYN_BACKEND` when set
    /// (loudly rejecting unknown values — a typo must not silently run the
    /// wrong backend), [`BackendKind::TracedSimt`] otherwise.
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(kind) => kind,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Non-panicking [`BackendKind::from_env`]: the service entry points
    /// (daemon startup, request handlers) use this so an environment typo
    /// becomes a clean diagnostic instead of a process abort.
    pub fn try_from_env() -> Result<Self, String> {
        match std::env::var("BEAMDYN_BACKEND") {
            Ok(v) => Self::parse(&v).ok_or_else(|| {
                format!(
                    "BEAMDYN_BACKEND must be one of {} — got '{v}'",
                    Self::accepted_values().join(", ")
                )
            }),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Every name [`BackendKind::parse`] accepts (for diagnostics and
    /// structured API errors).
    pub fn accepted_values() -> &'static [&'static str] {
        &[
            "traced",
            "traced-simt",
            "simt",
            "native",
            "native-fast",
            "fast",
            "native-simd",
            "simd",
        ]
    }

    /// Canonical name for reports, status surfaces, and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Self::TracedSimt => "traced-simt",
            Self::NativeSimd => "native-simd",
        }
    }

    /// SIMD lane width of the backend's hot loops: 1 for the traced lane,
    /// [`beamdyn_par::simd::LANE_WIDTH`] for [`BackendKind::NativeSimd`].
    /// Surfaced in `/status` and the daemon banner.
    pub fn lane_width(self) -> usize {
        match self {
            Self::TracedSimt => 1,
            Self::NativeSimd => beamdyn_par::simd::LANE_WIDTH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_and_short_names() {
        for s in ["traced", "traced-simt", "simt"] {
            assert_eq!(BackendKind::parse(s), Some(BackendKind::TracedSimt));
        }
        for s in ["native-simd", "simd", "native", "native-fast", "fast"] {
            assert_eq!(BackendKind::parse(s), Some(BackendKind::NativeSimd));
        }
        assert_eq!(BackendKind::parse("cuda"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn names_roundtrip_through_parse() {
        for s in BackendKind::accepted_values() {
            assert!(BackendKind::parse(s).is_some(), "{s}");
        }
        for kind in [BackendKind::TracedSimt, BackendKind::NativeSimd] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn lane_widths_reflect_vectorization() {
        assert_eq!(BackendKind::TracedSimt.lane_width(), 1);
        assert_eq!(
            BackendKind::NativeSimd.lane_width(),
            beamdyn_par::simd::LANE_WIDTH
        );
    }
}

//! The paper's contribution: **Predictive-RP** — machine-learning-forecast
//! access patterns driving a divergence-free retarded-potential kernel —
//! plus faithful implementations of both published baselines.
//!
//! Pipeline per time step `k` (Algorithm 1 of the paper):
//!
//! 1. Forecast each grid point's access pattern with the predictor `g_{k−1}`
//!    ([`predictor`]).
//! 2. Convert forecasts to integral partitions ([`transform`], Sec. III-C2:
//!    uniform or adaptive transformation).
//! 3. Cluster points by predicted pattern with k-means ([`clustering`],
//!    `RP-CLUSTERING`) and map each cluster to thread blocks.
//! 4. Merge the cluster's partitions (`MERGE-LISTS`) and evaluate every
//!    point on the merged partition with the uniform-control-flow kernel
//!    ([`kernels`], `COMPUTE-RP-INTEGRAL`) on the simulated GPU.
//! 5. Re-integrate failed cells with per-thread adaptive quadrature
//!    (`RP-ADAPTIVEQUADRATURE`) — the correctness guarantee.
//! 6. Train `g_k` online from the observed patterns ([`predictor`]).
//!
//! Baselines:
//! * [`kernels::two_phase`] — the globally-adaptive parallel quadrature of
//!   ref. [9] (Two-Phase-RP).
//! * [`kernels::heuristic`] — the heuristic locality/balance kernel of
//!   ref. [10] (Heuristic-RP), the previous state of the art.
//!
//! The [`driver`] module wires these into the full four-step beam-dynamics
//! loop (deposition → potentials → self-forces → push).

pub mod backend;
pub mod clustering;
pub mod driver;
pub mod health;
pub mod kernels;
pub mod layout;
pub mod pattern;
pub mod points;
pub mod predictor;
pub mod report;
pub mod scenario;
pub mod session;
pub mod status;
pub mod transform;
pub mod workspace;

pub use backend::BackendKind;
pub use driver::{KernelKind, SimCore, Simulation, SimulationConfig, StepTelemetry};
pub use health::{AlertRules, CmpOp, HealthConfig, MetricRule, Rule, RuleKind};
pub use kernels::{ExecutionPlan, PotentialsKernel, PotentialsOutput, RpProblem, StepObservation};
pub use pattern::AccessPattern;
pub use predictor::{Predictor, PredictorKind};
pub use scenario::{ScenarioSpec, SpecError};
pub use session::{
    SessionEvent, SessionManager, SessionManagerConfig, SessionState, SubmitError, WorkspacePool,
};
pub use status::{StatusBoard, StatusSnapshot};
pub use workspace::{CellLists, StepWorkspace};

#[cfg(test)]
mod tests;

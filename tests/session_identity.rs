//! Multiplexed-session bit-identity: running K sessions concurrently
//! through the [`SessionManager`] — interleaved round-robin on shared
//! scheduler workers, workspaces leased from the slab pool and *reused*
//! across sessions — must produce **bit-identical** results to running
//! each scenario alone on a dedicated [`Simulation`].
//!
//! This is the multi-tenant extension of the repo's determinism contract
//! (`tests/determinism.rs`, `tests/backend_equivalence.rs`): the compute
//! pool's scoped loops are pool-width-deterministic and
//! scheduling-independent, and `WorkspacePool::release` →
//! `reset_for_session` clears all cross-session state (capacities may
//! carry over — they never affect numerics). Checked for every kernel on
//! both backends, with more sessions than pool slots so admission
//! queueing and workspace reuse actually happen.
//!
//! Kept to a single `#[test]` because the obs registry is process-global.

use std::time::Duration;

use beamdyn::core::{
    BackendKind, KernelKind, ScenarioSpec, SessionManager, SessionManagerConfig, SessionState,
    Simulation,
};
use beamdyn::obs;
use beamdyn::par::ThreadPool;
use beamdyn::simt::DeviceConfig;

/// Shared compute-pool width: the reference runs must use the same width
/// as the manager's pool, since lane partitioning follows pool width.
const THREADS: usize = 3;
const STEPS: usize = 3;

fn scenario(kernel: KernelKind, backend: BackendKind) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("{}-{}", spec_kernel_name(kernel), backend.name()),
        kernel,
        backend: Some(backend),
        nx: 12,
        ny: 12,
        particles: 1_200,
        steps: STEPS,
        ..ScenarioSpec::default()
    }
}

fn spec_kernel_name(kernel: KernelKind) -> &'static str {
    match kernel {
        KernelKind::TwoPhase => "two-phase",
        KernelKind::Heuristic => "heuristic",
        KernelKind::Predictive => "predictive",
    }
}

/// Final potentials + run totals from a dedicated single-tenant run.
fn reference_run(spec: &ScenarioSpec) -> (Vec<f64>, u64, u64) {
    let pool = ThreadPool::new(THREADS);
    let device = DeviceConfig::tesla_k40();
    let (config, beam) = spec.build(spec.backend.expect("spec names its backend"));
    let mut sim = Simulation::new(&pool, &device, config, beam);
    let mut fallback: u64 = 0;
    let mut launches: u64 = 0;
    for _ in 0..STEPS {
        let t = sim.run_step();
        fallback += t.potentials.fallback_cells as u64;
        launches += t.potentials.launches as u64;
    }
    let potentials = sim
        .last_potentials()
        .expect("run produced potentials")
        .as_slice()
        .to_vec();
    (potentials, fallback, launches)
}

#[test]
fn multiplexed_sessions_are_bit_identical_to_sequential_runs() {
    obs::uninstall_all();
    obs::reset();

    let combos: Vec<ScenarioSpec> = [
        KernelKind::TwoPhase,
        KernelKind::Heuristic,
        KernelKind::Predictive,
    ]
    .into_iter()
    .flat_map(|kernel| {
        [BackendKind::TracedSimt, BackendKind::NativeSimd]
            .into_iter()
            .map(move |backend| scenario(kernel, backend))
    })
    .collect();

    // Ground truth: each scenario alone, on a fresh pool of the same width.
    let references: Vec<(Vec<f64>, u64, u64)> = combos.iter().map(reference_run).collect();

    // The multiplexed fleet: every combo twice (12 sessions) against only
    // 4 workspace slots, so sessions queue for admission and workspaces
    // get reused by later tenants; 3 scheduler workers interleave steps.
    let manager = SessionManager::start(SessionManagerConfig {
        threads: THREADS,
        step_workers: 3,
        slots: 4,
        default_backend: BackendKind::TracedSimt,
        device: DeviceConfig::tesla_k40(),
        ..SessionManagerConfig::default()
    });
    let mut submitted: Vec<(usize, u64)> = Vec::new();
    for round in 0..2 {
        for (c, spec) in combos.iter().enumerate() {
            let mut spec = spec.clone();
            spec.name = format!("{}-r{round}", spec.name);
            let id = manager.submit(spec).expect("submit");
            submitted.push((c, id));
        }
    }
    assert!(
        manager.wait_idle(Duration::from_secs(120)),
        "sessions never finished"
    );

    for (c, id) in &submitted {
        let spec = &combos[*c];
        assert_eq!(
            manager.state(*id),
            Some(SessionState::Done),
            "session {id} ({}) must complete",
            spec.name
        );
        let (ref_potentials, ref_fallback, ref_launches) = &references[*c];
        let got = manager
            .final_potentials(*id)
            .unwrap_or_else(|| panic!("session {id} kept no final potentials"));
        assert_eq!(
            got.len(),
            ref_potentials.len(),
            "grid size mismatch for {}",
            spec.name
        );
        // Bit-level comparison: f64 bits, not approximate equality.
        for (i, (a, b)) in got.iter().zip(ref_potentials).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "session {id} ({}): potentials differ at cell {i}: {a} vs {b}",
                spec.name
            );
        }
        let snapshot = manager.board_snapshot(*id).expect("board snapshot");
        assert_eq!(snapshot.steps_completed, STEPS);
        assert_eq!(
            snapshot.totals.fallback_cells, *ref_fallback,
            "fallback totals differ for {}",
            spec.name
        );
        assert_eq!(
            snapshot.totals.launches, *ref_launches,
            "launch totals differ for {}",
            spec.name
        );
    }

    manager.shutdown();
}

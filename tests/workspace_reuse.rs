//! Steady-state workspace reuse: after warm-up, a simulation step performs
//! no workspace heap growth for any of the three kernels.
//!
//! The integration horizon grows until `step == kappa`
//! (`RpConfig::num_subregions`), so the workload pins `kappa = 1`: radii are
//! at their final value from the very first step, and the one-step lag with
//! which Heuristic-RP / Predictive-RP re-evaluate the partitions observed at
//! the previous step (their cell-buffer high-water mark) has fully played
//! out by step 2. Every step from 3 on must therefore run entirely inside
//! capacity the workspace already owns. The invariant is read back through the
//! `workspace.grown_this_step` / `workspace.bytes_resident` gauges the
//! driver publishes each step — the same numbers `BENCH_*.jsonl` artifacts
//! carry.
//!
//! The test runs with a [`obs::BroadcastSink`] installed and a live
//! subscriber attached — the live-telemetry fan-out must not perturb the
//! hot path: steady-state steps stay zero-growth and every flush still
//! reaches the subscriber.

use beamdyn::beam::{GaussianBunch, RpConfig};
use beamdyn::core::{BackendKind, KernelKind, Simulation, SimulationConfig};
use beamdyn::obs;
use beamdyn::par::ThreadPool;
use beamdyn::pic::GridGeometry;
use beamdyn::simt::DeviceConfig;

fn workload(kernel: KernelKind) -> (SimulationConfig, beamdyn::beam::Beam) {
    let kappa = 1;
    let mut config = SimulationConfig::standard(GridGeometry::unit(32, 32), kernel);
    config.rp = RpConfig {
        kappa,
        dt: 0.35 / kappa as f64,
        inner_points: 3,
        beta: 0.5,
        support_x: 0.42,
        support_y: 0.09,
        center: (0.5, 0.5),
    };
    // Rigid: the bunch (and with it the support cut) stays put, so the
    // radii are identical from the first step onward.
    config.rigid = true;
    let bunch = GaussianBunch {
        sigma_x: 0.12,
        sigma_y: 0.03,
        center_x: 0.5,
        center_y: 0.5,
        charge: 1.0,
        velocity_spread: 0.0,
        drift_vx: 0.0,
        chirp: 0.0,
    };
    (config, bunch.sample(5_000, 0x5EED))
}

#[test]
fn steady_state_steps_do_not_grow_the_workspace() {
    // Live telemetry fan-out installed for the whole run: the invariant
    // must hold with /events subscribers listening.
    let events = obs::BroadcastSink::new();
    let rx = events.subscribe();
    obs::install(events);
    let mut flushes = 0usize;

    let pool = ThreadPool::new(2);
    let device = DeviceConfig::tesla_k40();
    // The zero-growth invariant is a property of the workspace discipline,
    // not of the execution strategy: both compute backends run out of the
    // same pooled buffers, so both must hold it.
    for backend in [BackendKind::TracedSimt, BackendKind::NativeSimd] {
        for kernel in [
            KernelKind::TwoPhase,
            KernelKind::Heuristic,
            KernelKind::Predictive,
        ] {
            let (mut config, beam) = workload(kernel);
            config.backend = backend;
            let mut sim = Simulation::new(&pool, &device, config, beam);
            for step in 0..8 {
                sim.run_step();
                let resident = obs::gauge_value("workspace.bytes_resident")
                    .expect("driver publishes workspace.bytes_resident");
                let grown = obs::gauge_value("workspace.grown_this_step")
                    .expect("driver publishes workspace.grown_this_step");
                assert!(
                    resident > 0.0,
                    "{kernel:?}/{backend:?}: workspace must hold buffers after step {step}"
                );
                assert_eq!(
                    resident,
                    sim.workspace().bytes_resident() as f64,
                    "{kernel:?}/{backend:?}: gauge must mirror the workspace accounting"
                );
                assert!(
                    sim.workspace().lane_scratch_bytes() > 0,
                    "{kernel:?}/{backend:?}: the pooled lane-scratch arena must hold the \
                     per-thread result lists after step {step}"
                );
                if step >= 3 {
                    assert_eq!(
                        grown, 0.0,
                        "{kernel:?}/{backend:?}: steady-state step {step} grew the workspace \
                         by {grown} bytes (resident {resident})"
                    );
                }
                flushes += 1;
            }
        }
    }

    // The always-on flight recorder was live for every one of those steps
    // (one `step` event per driver step, plus kernel grades) — the
    // zero-growth invariant above therefore holds *with* the black box
    // recording, not in a stripped build.
    assert!(
        obs::flight::global().recorded() >= flushes as u64,
        "flight recorder must have captured at least one event per step ({} < {flushes})",
        obs::flight::global().recorded()
    );

    // Every step flush reached the live subscriber, none were dropped.
    assert_eq!(
        rx.drain().len(),
        flushes,
        "broadcast subscriber must see one event per step"
    );
    assert_eq!(
        obs::counter_value("telemetry.dropped_events").unwrap_or(0),
        0,
        "no events may be dropped with an attentive subscriber"
    );
    obs::uninstall_all();
}

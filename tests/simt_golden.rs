//! Exact pins of the simulated-GPU model.
//!
//! Every paper-facing number (Table I, Table II, Fig. 4) is derived from the
//! `KernelStats` counters the warp replay accumulates. The benchmark gate
//! only bounds those within a tolerance, so a replay change that shifts a
//! counter by one would slip through it. These tests pin every counter, and
//! the bit patterns of `max_sm_cycles` and of the simulated GPU time, for a
//! small traced scenario on each kernel at two pool widths. The values were
//! recorded from the per-lane insertion coalescer the replay started from.
//!
//! Two devices: the K40 preset coalesces 32-lane warps but its 48 KiB L1
//! holds nearly the whole working set; the 4-lane `test_tiny` device has a
//! 1 KiB L1 and an 8 KiB L2, so line order and LRU eviction matter there.

use beamdyn::core::{BackendKind, KernelKind, ScenarioSpec, Simulation};
use beamdyn::par::ThreadPool;
use beamdyn::simt::{DeviceConfig, KernelStats};

/// Steps of the pinned scenario: the κ = 4 history ring fills, and the
/// Predictive kernel trains and then plans from its forecast.
const STEPS: usize = 6;

/// The pinned `KernelStats` counters, in the order of [`Pinned::counters`].
const COUNTERS: [&str; 15] = [
    "threads",
    "warps",
    "issued_instructions",
    "active_lane_instructions",
    "load_instructions",
    "load_requested_bytes",
    "load_transferred_bytes",
    "store_requested_bytes",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "dram_bytes",
    "useful_flops",
    "issued_lane_flops",
];

/// One kernel's counters merged over every step and both passes, plus the
/// summed simulated GPU time.
struct Pinned {
    counters: [u64; 15],
    max_sm_cycles_bits: u64,
    gpu_time_bits: u64,
}

/// A 16² grid with 2 000 particles and κ 4, on the traced backend whatever
/// `BEAMDYN_BACKEND` says.
fn measure(kernel: KernelKind, device: &DeviceConfig, pool: &ThreadPool) -> Pinned {
    let spec = ScenarioSpec {
        name: "simt_golden".to_string(),
        kernel,
        backend: Some(BackendKind::TracedSimt),
        nx: 16,
        ny: 16,
        particles: 2_000,
        kappa: 4,
        seed: 7,
        ..ScenarioSpec::default()
    };
    let (config, beam) = spec.build(BackendKind::TracedSimt);
    let mut sim = Simulation::new(pool, device, config, beam);
    let mut s = KernelStats::default();
    let mut gpu_time = 0.0f64;
    for t in sim.run(STEPS) {
        s.merge(&t.potentials.combined_stats());
        gpu_time += t.potentials.gpu_time.seconds();
    }
    Pinned {
        counters: [
            s.threads,
            s.warps,
            s.issued_instructions,
            s.active_lane_instructions,
            s.load_instructions,
            s.load_requested_bytes,
            s.load_transferred_bytes,
            s.store_requested_bytes,
            s.l1_accesses,
            s.l1_hits,
            s.l2_accesses,
            s.l2_hits,
            s.dram_bytes,
            s.useful_flops,
            s.issued_lane_flops,
        ],
        max_sm_cycles_bits: s.max_sm_cycles.to_bits(),
        gpu_time_bits: gpu_time.to_bits(),
    }
}

/// Recorded values on the K40 preset.
fn golden_k40(kernel: KernelKind) -> Pinned {
    match kernel {
        KernelKind::TwoPhase => Pinned {
            counters: [
                3039, 98, 897028, 16080111, 863460, 123852240, 163680480, 24312, 2628126, 2625873,
                2253, 0, 326176, 39849966, 71460992,
            ],
            max_sm_cycles_bits: 4693046734966751232,
            gpu_time_bits: 4568543976217647623,
        },
        KernelKind::Heuristic => Pinned {
            counters: [
                2467, 127, 971935, 12318856, 935550, 94880160, 134412192, 19736, 1734372, 1729692,
                4680, 0, 634368, 30458558, 77163584,
            ],
            max_sm_cycles_bits: 4688220274057805824,
            gpu_time_bits: 4564394999769637756,
        },
        KernelKind::Predictive => Pinned {
            counters: [
                2645, 85, 743799, 14555431, 716040, 112110480, 142839648, 21160, 2128410, 2126265,
                2145, 0, 305568, 36088358, 59016640,
            ],
            max_sm_cycles_bits: 4690573435099676672,
            gpu_time_bits: 4568700915916473381,
        },
    }
}

/// Recorded values on the `test_tiny` device.
fn golden_tiny(kernel: KernelKind) -> Pinned {
    match kernel {
        KernelKind::TwoPhase => Pinned {
            counters: [
                3039, 762, 5450293, 16080111, 5247180, 123852240, 371525760, 24312, 11049930,
                4744302, 6305628, 3532602, 177524640, 39849966, 54309968,
            ],
            max_sm_cycles_bits: 4700651215082487808,
            gpu_time_bits: 4573390470278082646,
        },
        KernelKind::Heuristic => Pinned {
            counters: [
                2467, 619, 3965347, 12318856, 3817530, 94880160, 249609888, 19736, 6391287,
                4360194, 2031093, 200169, 117223232, 30458558, 39291160,
            ],
            max_sm_cycles_bits: 4693631194116390912,
            gpu_time_bits: 4570249017432446019,
        },
        KernelKind::Predictive => Pinned {
            counters: [
                2920, 732, 4720038, 14169962, 4544100, 109136160, 258201792, 23360, 7242075,
                4389729, 2852346, 815310, 130422336, 35109688, 46899072,
            ],
            max_sm_cycles_bits: 4696860794774618112,
            gpu_time_bits: 4571451347618717094,
        },
    }
}

/// A device's table of recorded values.
type Recorded = fn(KernelKind) -> Pinned;

fn check_all_kernels(threads: usize) {
    let pool = ThreadPool::new(threads);
    let devices: [(DeviceConfig, Recorded); 2] = [
        (DeviceConfig::tesla_k40(), golden_k40),
        (DeviceConfig::test_tiny(), golden_tiny),
    ];
    for (device, golden) in &devices {
        for kernel in [
            KernelKind::TwoPhase,
            KernelKind::Heuristic,
            KernelKind::Predictive,
        ] {
            let got = measure(kernel, device, &pool);
            let want = golden(kernel);
            let at = format!("{kernel:?} on {} at pool width {threads}", device.name);
            for (name, (have, expect)) in
                COUNTERS.iter().zip(got.counters.iter().zip(want.counters))
            {
                assert_eq!(*have, expect, "{name}: {at}");
            }
            assert_eq!(
                got.max_sm_cycles_bits, want.max_sm_cycles_bits,
                "max_sm_cycles bits: {at}"
            );
            assert_eq!(got.gpu_time_bits, want.gpu_time_bits, "gpu_time bits: {at}");
        }
    }
}

#[test]
fn kernel_stats_match_recorded_values_serial_pool() {
    check_all_kernels(0);
}

#[test]
fn kernel_stats_match_recorded_values_one_worker_pool() {
    check_all_kernels(1);
}

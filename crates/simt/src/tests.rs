use std::collections::BTreeSet;

use beamdyn_par::ThreadPool;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coalesce::{
    coalesce_in_order, coalesce_into, is_common_shift, sort_by_start, SEGMENT_BYTES,
};
use crate::timing::sm_cycles;
use crate::{
    coalesce, launch, DeviceConfig, KernelStats, LaunchConfig, Op, OpRecorder, Roofline,
    SetAssocCache, WarpRequest, WarpThread,
};

fn pool() -> ThreadPool {
    ThreadPool::new(2)
}

// ---------- OpRecorder ----------

#[test]
fn recorder_merges_adjacent_flops() {
    let mut rec = OpRecorder::new();
    rec.flops(3);
    rec.flops(4);
    rec.load_f64(0, 2);
    rec.flops(1);
    assert_eq!(
        rec.ops(),
        &[Op::Flops(7), Op::Load { addr: 16, bytes: 8 }, Op::Flops(1)]
    );
    rec.clear();
    assert!(rec.is_empty());
}

#[test]
fn recorder_ignores_zero_flops() {
    let mut rec = OpRecorder::new();
    rec.flops(0);
    assert!(rec.is_empty());
}

// ---------- Cache ----------

#[test]
fn cache_hits_after_first_touch() {
    let mut c = SetAssocCache::new(1024, 64, 2);
    assert!(!c.access(0));
    assert!(c.access(32), "same 64B line");
    assert!(!c.access(64), "next line");
    assert_eq!(c.hits(), 1);
    assert_eq!(c.misses(), 2);
}

#[test]
fn cache_lru_evicts_least_recent_way() {
    // 2 ways, 1 set: capacity = 2 lines of 64 B.
    let mut c = SetAssocCache::new(128, 64, 2);
    assert_eq!(c.sets(), 1);
    c.access_line(10); // miss
    c.access_line(11); // miss
    c.access_line(10); // hit, refreshes 10
    c.access_line(12); // miss, evicts 11 (LRU)
    assert!(c.access_line(10), "10 must survive");
    assert!(!c.access_line(11), "11 was evicted");
}

#[test]
fn cache_conflict_misses_within_one_set() {
    // 2 sets, 1 way: lines 0 and 2 collide, 0 and 1 do not.
    let mut c = SetAssocCache::new(128, 64, 1);
    assert_eq!(c.sets(), 2);
    c.access_line(0);
    c.access_line(1);
    assert!(c.access_line(0));
    c.access_line(2); // evicts 0 (same set)
    assert!(!c.access_line(0));
}

#[test]
fn cache_reset_clears_contents_and_stats() {
    let mut c = SetAssocCache::new(1024, 64, 2);
    c.access(0);
    c.access(0);
    c.reset();
    assert_eq!(c.hits() + c.misses(), 0);
    assert!(!c.access(0), "contents forgotten");
}

#[test]
fn cache_hit_rate_bounds() {
    let mut c = SetAssocCache::new(1024, 64, 2);
    assert_eq!(c.hit_rate(), 0.0);
    c.access(0);
    c.access(0);
    c.access(0);
    let r = c.hit_rate();
    assert!(r > 0.0 && r < 1.0);
    assert!((r - 2.0 / 3.0).abs() < 1e-12);
}

// ---------- Coalescer ----------

#[test]
fn coalesce_contiguous_warp_load_is_fully_efficient() {
    // 4 lanes × 8 B contiguous = 32 B = exactly one segment.
    let accesses: Vec<(u64, u32)> = (0..4).map(|i| (i * 8, 8)).collect();
    let req = coalesce(&accesses, 128);
    assert_eq!(req.requested_bytes, 32);
    assert_eq!(req.segments, 1);
    assert_eq!(req.transferred_bytes(), 32);
    assert_eq!(req.lines, vec![0]);
}

#[test]
fn coalesce_strided_load_wastes_bandwidth() {
    // 4 lanes strided by 128 B: 4 segments for 32 B requested.
    let accesses: Vec<(u64, u32)> = (0..4).map(|i| (i * 128, 8)).collect();
    let req = coalesce(&accesses, 128);
    assert_eq!(req.requested_bytes, 32);
    assert_eq!(req.segments, 4);
    assert!(req.requested_bytes < req.transferred_bytes());
    assert_eq!(req.lines.len(), 4);
}

#[test]
fn coalesce_broadcast_exceeds_unity_efficiency() {
    // All lanes read the same 8 bytes: requested 32 B, transferred 32 B ×1.
    let accesses: Vec<(u64, u32)> = (0..8).map(|_| (64, 8)).collect();
    let req = coalesce(&accesses, 128);
    assert_eq!(req.requested_bytes, 64);
    assert_eq!(req.segments, 1);
    assert!(req.requested_bytes > req.transferred_bytes());
}

#[test]
fn coalesce_access_spanning_segments_counts_both() {
    let req = coalesce(&[(30, 8)], 128); // straddles segments 0 and 1
    assert_eq!(req.segments, 2);
    assert_eq!(req.lines, vec![0]);
}

#[test]
fn coalesce_zero_byte_access_touches_nothing() {
    // At a segment start, mid-segment, and at a line boundary.
    for addr in [0, 33, 64] {
        assert_eq!(
            coalesce(&[(addr, 0)], 128),
            WarpRequest {
                requested_bytes: 0,
                segments: 0,
                lines: vec![],
            },
            "zero-byte access at {addr}"
        );
    }
    let req = coalesce(&[(33, 0), (64, 8), (0, 0)], 128);
    assert_eq!(req.requested_bytes, 8);
    assert_eq!(req.segments, 1);
    assert_eq!(req.lines, vec![0]);
}

#[test]
fn zero_byte_load_lane_is_active_but_moves_no_bytes() {
    struct ZeroLoad(bool);
    impl WarpThread for ZeroLoad {
        fn step(&mut self, rec: &mut OpRecorder) -> bool {
            if self.0 {
                return false;
            }
            rec.load(33, 0);
            self.0 = true;
            true
        }
    }
    let device = DeviceConfig::test_tiny();
    let out = launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 1,
            threads_per_block: 4,
        },
        |_| Some(ZeroLoad(false)),
        |_| (),
    );
    assert_eq!(out.stats.load_instructions, 1);
    assert_eq!(out.stats.active_lane_instructions, 4);
    assert_eq!(out.stats.load_requested_bytes, 0);
    assert_eq!(out.stats.load_transferred_bytes, 0);
    assert_eq!(out.stats.l1_accesses, 0);
}

/// The coalescer by definition: every byte of every access, binned into
/// segments and lines. Returns requested bytes, segment ids and line ids.
fn naive_coalesce(accesses: &[(u64, u32)], line_size: u64) -> (u64, Vec<u64>, Vec<u64>) {
    let mut segments = BTreeSet::new();
    let mut lines = BTreeSet::new();
    let mut requested = 0;
    for &(addr, bytes) in accesses {
        requested += bytes as u64;
        for byte in addr..addr + bytes as u64 {
            segments.insert(byte / SEGMENT_BYTES);
            lines.insert(byte / line_size);
        }
    }
    (
        requested,
        segments.into_iter().collect(),
        lines.into_iter().collect(),
    )
}

/// Line sizes under test; 48 is not a multiple of the segment size.
const LINE_SIZES: [u64; 4] = [32, 64, 128, 48];

/// Unsorted accesses with repeats: `addrs` paired with `widths` (which may
/// be zero or span several segments), then the entries `dups` names again.
fn accesses_with_repeats(addrs: &[u64], widths: &[u32], dups: &[usize]) -> Vec<(u64, u32)> {
    let mut accesses: Vec<(u64, u32)> = addrs.iter().copied().zip(widths.iter().copied()).collect();
    for &d in dups {
        accesses.push(accesses[d % accesses.len()]);
    }
    accesses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sort-then-merge equals the by-definition coalescer on unsorted,
    /// duplicated, multi-segment accesses at every line size.
    #[test]
    fn coalesce_matches_naive_reference(
        addrs in prop::collection::vec(0u64..1024, 1..40),
        widths in prop::collection::vec(0u32..80, 40),
        dups in prop::collection::vec(0usize..40, 0..8),
        line_pick in 0usize..4,
    ) {
        let line_size = LINE_SIZES[line_pick];
        let accesses = accesses_with_repeats(&addrs, &widths, &dups);
        let (requested, want_segments, want_lines) = naive_coalesce(&accesses, line_size);
        let (mut segments, mut lines) = (Vec::new(), Vec::new());
        prop_assert_eq!(
            coalesce_into(&accesses, line_size, &mut segments, &mut lines),
            requested
        );
        prop_assert_eq!(&segments, &want_segments);
        prop_assert_eq!(&lines, &want_lines);
        prop_assert_eq!(
            coalesce(&accesses, line_size),
            WarpRequest {
                requested_bytes: requested,
                segments: want_segments.len() as u64,
                lines: want_lines,
            }
        );
    }

    /// The previous slot's order coalesces a common shift of it exactly;
    /// moving one lane, or changing one width, is not a common shift.
    #[test]
    fn common_shift_reuses_the_sort_order(
        addrs in prop::collection::vec(0u64..1024, 2..40),
        widths in prop::collection::vec(0u32..80, 40),
        dups in prop::collection::vec(0usize..40, 0..8),
        offset in 0u64..4096,
        downward in 0u8..2,
        moved in 0usize..48,
        line_pick in 0usize..4,
    ) {
        let line_size = LINE_SIZES[line_pick];
        // Lift the pattern so a downward shift stays in the address space.
        let prev: Vec<(u64, u32)> = accesses_with_repeats(&addrs, &widths, &dups)
            .into_iter()
            .map(|(a, w)| (a + 4096, w))
            .collect();
        let shift = |a: u64| if downward == 1 { a - offset } else { a + offset };
        let cur: Vec<(u64, u32)> = prev.iter().map(|&(a, w)| (shift(a), w)).collect();
        prop_assert!(is_common_shift(&prev, &cur));
        let mut order = Vec::new();
        sort_by_start(&prev, &mut order);
        let (mut segments, mut lines) = (Vec::new(), Vec::new());
        let requested = coalesce_in_order(&cur, &order, line_size, &mut segments, &mut lines);
        let (want_requested, want_segments, want_lines) = naive_coalesce(&cur, line_size);
        prop_assert_eq!(requested, want_requested);
        prop_assert_eq!(&segments, &want_segments);
        prop_assert_eq!(&lines, &want_lines);

        let lane = moved % cur.len();
        let mut jumped = cur.clone();
        jumped[lane].0 += 8;
        prop_assert!(!is_common_shift(&prev, &jumped));
        let mut widened = cur.clone();
        widened[lane].1 += 1;
        prop_assert!(!is_common_shift(&prev, &widened));
        prop_assert!(!is_common_shift(&prev, &cur[1..]));
    }
}

// ---------- Replay against a by-definition reference ----------

/// A thread that replays a fixed script: one op list per loop iteration.
struct Scripted {
    iterations: Vec<Vec<Op>>,
    done: usize,
}

fn record(rec: &mut OpRecorder, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Flops(n) => rec.flops(n),
            Op::Load { addr, bytes } => rec.load(addr, bytes),
            Op::Store { addr, bytes } => rec.store(addr, bytes),
        }
    }
}

impl WarpThread for Scripted {
    fn step(&mut self, rec: &mut OpRecorder) -> bool {
        let Some(ops) = self.iterations.get(self.done) else {
            return false;
        };
        record(rec, ops);
        self.done += 1;
        true
    }
}

/// The replay by definition, for one block whose warps all run on one SM:
/// lanes in lane order, a per-lane live check, the naive coalescer, and the
/// SM's caches fed each slot's lines in ascending order.
fn reference_replay(device: &DeviceConfig, warps: &[Vec<Vec<Vec<Op>>>]) -> KernelStats {
    let mut l1 = SetAssocCache::new(device.l1_bytes, device.l1_line, device.l1_ways);
    let mut l2 = SetAssocCache::new(device.l2_slice_bytes(), device.l2_line, device.l2_ways);
    let line = device.l1_line as u64;
    let mut stats = KernelStats::default();
    for warp in warps {
        stats.warps += 1;
        stats.threads += warp.len() as u64;
        for round in 0.. {
            let recorded: Vec<Vec<Op>> = warp
                .iter()
                .filter_map(|iterations| iterations.get(round))
                .map(|ops| {
                    let mut rec = OpRecorder::new();
                    record(&mut rec, ops);
                    rec.ops().to_vec()
                })
                .collect();
            if recorded.is_empty() {
                break;
            }
            let slots = recorded.iter().map(Vec::len).max().unwrap_or(0);
            for s in 0..slots {
                let ops: Vec<Op> = recorded.iter().filter_map(|r| r.get(s).copied()).collect();
                let flops: Vec<u64> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Flops(n) => Some(n as u64),
                        _ => None,
                    })
                    .collect();
                let loads: Vec<(u64, u32)> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Load { addr, bytes } => Some((addr, bytes)),
                        _ => None,
                    })
                    .collect();
                let stores: Vec<(u64, u32)> = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Store { addr, bytes } => Some((addr, bytes)),
                        _ => None,
                    })
                    .collect();
                if !flops.is_empty() {
                    stats.issued_instructions += 1;
                    stats.active_lane_instructions += flops.len() as u64;
                    stats.useful_flops += flops.iter().sum::<u64>();
                    stats.issued_lane_flops +=
                        flops.iter().max().unwrap() * device.warp_size as u64;
                }
                if !loads.is_empty() {
                    stats.issued_instructions += 1;
                    stats.active_lane_instructions += loads.len() as u64;
                    stats.load_instructions += 1;
                    let (requested, segments, lines) = naive_coalesce(&loads, line);
                    stats.load_requested_bytes += requested;
                    stats.load_transferred_bytes += segments.len() as u64 * SEGMENT_BYTES;
                    for l in lines {
                        stats.l1_accesses += 1;
                        if l1.access_line(l) {
                            stats.l1_hits += 1;
                        } else {
                            stats.l2_accesses += 1;
                            if l2.access_line(l) {
                                stats.l2_hits += 1;
                            } else {
                                stats.dram_bytes += line;
                            }
                        }
                    }
                }
                if !stores.is_empty() {
                    stats.issued_instructions += 1;
                    stats.active_lane_instructions += stores.len() as u64;
                    let (requested, segments, _) = naive_coalesce(&stores, line);
                    stats.store_requested_bytes += requested;
                    stats.dram_bytes += segments.len() as u64 * SEGMENT_BYTES;
                }
            }
        }
    }
    stats.max_sm_cycles = sm_cycles(device, stats.issued_lane_flops, stats.l1_accesses);
    stats
}

/// 8-lane warps over the test device's small caches.
fn eight_lane_device() -> DeviceConfig {
    DeviceConfig {
        warp_size: 8,
        ..DeviceConfig::test_tiny()
    }
}

/// Launches `warps` as one block (lane `l` of warp `w` is thread
/// `w * warp_size + l`, running script `perm(w, l)`) and checks that every
/// thread ran its whole script.
fn launch_scripts(
    device: &DeviceConfig,
    warps: &[Vec<Vec<Vec<Op>>>],
    perm: impl Fn(usize, usize) -> usize + Sync,
) -> KernelStats {
    let lanes = device.warp_size;
    let out = launch(
        &pool(),
        device,
        LaunchConfig {
            blocks: 1,
            threads_per_block: warps.len() * lanes,
        },
        |tid| {
            let (w, l) = (tid / lanes, tid % lanes);
            Some(Scripted {
                iterations: warps[w][perm(w, l)].clone(),
                done: 0,
            })
        },
        |t| t.done,
    );
    for (tid, done) in out.results.iter().enumerate() {
        let (w, l) = (tid / lanes, tid % lanes);
        assert_eq!(*done, Some(warps[w][perm(w, l)].len()), "thread {tid}");
    }
    out.stats
}

/// One warp's scripts: every lane loads `base + slot * stride` at its own
/// base and width for `slots` slots (flops between some of them), except
/// that at slot `jump_at` lane `jumper` reads far away; trip counts differ
/// per lane when `divergent`, and each iteration ends with a store.
fn shifting_warp(rng: &mut SmallRng, lanes: usize, divergent: bool) -> Vec<Vec<Vec<Op>>> {
    let slots = rng.random_range(2usize..12);
    let jump_at = rng.random_range(0..slots);
    let jumper = rng.random_range(0..lanes);
    let stride: i64 = rng.random_range(-200i64..200);
    let flop_every = rng.random_range(1usize..4);
    let lane_base: Vec<(u64, u32)> = (0..lanes)
        .map(|_| {
            let width = [4u32, 8, 16, 40][rng.random_range(0usize..4)];
            (rng.random_range(8192u64..12288), width)
        })
        .collect();
    (0..lanes)
        .map(|lane| {
            let trips = if divergent {
                rng.random_range(1usize..4)
            } else {
                2
            };
            (0..trips)
                .map(|trip| {
                    let mut ops = Vec::new();
                    for slot in 0..slots {
                        if slot % flop_every == 0 {
                            ops.push(Op::Flops(1 + (lane + slot) as u32 % 3));
                        }
                        let (base, bytes) = lane_base[lane];
                        let step = (trip * slots + slot) as i64 * stride;
                        let mut addr = (base as i64 + step) as u64;
                        if slot == jump_at && lane == jumper {
                            addr += 1 << 20;
                        }
                        ops.push(Op::Load { addr, bytes });
                    }
                    ops.push(Op::Store {
                        addr: 1 << 24 | (lane as u64 * 8),
                        bytes: 8,
                    });
                    ops
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loads that shift by one offset for several slots, then one lane
    /// jumps: the replay (order reuse, longest-stream-first gather) gives
    /// the reference's stats exactly.
    #[test]
    fn shifting_loads_with_a_jump_replay_like_the_reference(
        seed in 0u64..u64::MAX,
        divergent in 0u8..2,
    ) {
        let device = eight_lane_device();
        let mut rng = SmallRng::seed_from_u64(seed);
        let warps: Vec<_> = (0..2)
            .map(|_| shifting_warp(&mut rng, device.warp_size, divergent == 1))
            .collect();
        let got = launch_scripts(&device, &warps, |_, l| l);
        prop_assert_eq!(got, reference_replay(&device, &warps));
    }

    /// Permuting the lanes of each warp of a divergent launch changes no
    /// counter: a slot's stats depend only on the multiset of its lane ops.
    #[test]
    fn permuting_lanes_within_warps_keeps_stats(seed in 0u64..u64::MAX) {
        let device = eight_lane_device();
        let lanes = device.warp_size;
        let mut rng = SmallRng::seed_from_u64(seed);
        let warps: Vec<_> = (0..2).map(|_| shifting_warp(&mut rng, lanes, true)).collect();
        let perms: Vec<Vec<usize>> = (0..warps.len())
            .map(|_| {
                let mut p: Vec<usize> = (0..lanes).collect();
                for i in (1..lanes).rev() {
                    p.swap(i, rng.random_range(0..i + 1));
                }
                p
            })
            .collect();
        let straight = launch_scripts(&device, &warps, |_, l| l);
        let permuted = launch_scripts(&device, &warps, |w, l| perms[w][l]);
        prop_assert_eq!(&straight, &permuted);
        prop_assert_eq!(straight, reference_replay(&device, &warps));
    }
}

// ---------- Launch / replay ----------

/// A thread that performs `iters` iterations, each with `flops` flops and a
/// contiguous per-lane load at `base + (tid*iters + iter) * 8`.
struct StreamThread {
    tid: usize,
    iters: usize,
    done: usize,
    flops: u32,
    stride_base: u64,
}

impl WarpThread for StreamThread {
    fn step(&mut self, rec: &mut OpRecorder) -> bool {
        if self.done >= self.iters {
            return false;
        }
        rec.flops(self.flops);
        rec.load_f64(self.stride_base, self.tid + self.done * 1024);
        self.done += 1;
        true
    }
}

fn stream_launch(iters_for: impl Fn(usize) -> usize + Sync) -> crate::LaunchOutput<usize> {
    let device = DeviceConfig::test_tiny();
    launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 2,
            threads_per_block: 8,
        },
        |tid| {
            Some(StreamThread {
                tid,
                iters: iters_for(tid),
                done: 0,
                flops: 4,
                stride_base: 0,
            })
        },
        |t| t.done,
    )
}

#[test]
fn uniform_kernel_has_full_warp_efficiency() {
    let device = DeviceConfig::test_tiny();
    let out = stream_launch(|_| 10);
    assert_eq!(out.results.len(), 16);
    assert!(out.results.iter().all(|r| *r == Some(10)));
    let eff = out.stats.warp_execution_efficiency(&device);
    assert!((eff - 1.0).abs() < 1e-12, "uniform trip counts: eff {eff}");
    assert_eq!(out.stats.threads, 16);
    assert_eq!(out.stats.warps, 4, "8 threads / 4-wide warps × 2 blocks");
}

#[test]
fn divergent_trip_counts_reduce_warp_efficiency() {
    let device = DeviceConfig::test_tiny();
    // Lane 0 of each warp runs 16 iterations, the rest run 1.
    let out = stream_launch(|tid| if tid % 4 == 0 { 16 } else { 1 });
    let eff = out.stats.warp_execution_efficiency(&device);
    assert!(eff < 0.5, "heavy divergence: eff {eff}");
    assert!(eff > 0.0);
}

#[test]
fn useful_flops_count_only_active_lanes() {
    let uniform = stream_launch(|_| 10);
    // 16 threads × 10 iters × 4 flops
    assert_eq!(uniform.stats.useful_flops, 640);
    let divergent = stream_launch(|tid| if tid % 4 == 0 { 16 } else { 1 });
    // 4 leaders × 16 + 12 others × 1 = 76 iterations × 4 flops
    assert_eq!(divergent.stats.useful_flops, 304);
    // But issue cost is paid warp-wide: issued lane flops per warp =
    // 16 iterations × 4 flops × 4 lanes = 256; 4 warps → 1024.
    assert_eq!(divergent.stats.issued_lane_flops, 1024);
}

#[test]
fn padding_lanes_cost_efficiency_but_produce_no_results() {
    let device = DeviceConfig::test_tiny();
    let out = launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 1,
            threads_per_block: 4,
        },
        |tid| {
            (tid < 2).then_some(StreamThread {
                tid,
                iters: 4,
                done: 0,
                flops: 2,
                stride_base: 0,
            })
        },
        |t| t.done,
    );
    assert_eq!(out.results.iter().filter(|r| r.is_some()).count(), 2);
    let eff = out.stats.warp_execution_efficiency(&device);
    assert!((eff - 0.5).abs() < 1e-12, "half the lanes live: {eff}");
}

/// Threads that all re-read the same small array every iteration — a cache-
/// friendly broadcast workload.
struct BroadcastThread {
    iters: usize,
    done: usize,
}

impl WarpThread for BroadcastThread {
    fn step(&mut self, rec: &mut OpRecorder) -> bool {
        if self.done >= self.iters {
            return false;
        }
        rec.flops(8);
        rec.load_f64(0, self.done % 4); // 32 B working set
        self.done += 1;
        true
    }
}

/// Threads that stream a huge array with no reuse at a 128 B stride.
struct ScatterThread {
    tid: usize,
    iters: usize,
    done: usize,
}

impl WarpThread for ScatterThread {
    fn step(&mut self, rec: &mut OpRecorder) -> bool {
        if self.done >= self.iters {
            return false;
        }
        rec.flops(8);
        // Unique line per lane per iteration.
        let idx = (self.tid * 10_000 + self.done) * 16;
        rec.load_f64(0, idx);
        self.done += 1;
        true
    }
}

#[test]
fn broadcast_workload_has_high_l1_hit_rate_and_gld_over_100() {
    let device = DeviceConfig::test_tiny();
    let out = launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 2,
            threads_per_block: 8,
        },
        |_| Some(BroadcastThread { iters: 50, done: 0 }),
        |_| (),
    );
    assert!(
        out.stats.l1_hit_rate() > 0.9,
        "hit rate {}",
        out.stats.l1_hit_rate()
    );
    // 4 lanes × 8 B from one address fill exactly one 32 B segment.
    assert!(
        out.stats.global_load_efficiency() >= 1.0 - 1e-12,
        "broadcast gld eff {}",
        out.stats.global_load_efficiency()
    );
}

#[test]
fn overlapping_wide_loads_push_gld_efficiency_over_100() {
    struct WideBroadcast(usize);
    impl WarpThread for WideBroadcast {
        fn step(&mut self, rec: &mut OpRecorder) -> bool {
            if self.0 == 0 {
                return false;
            }
            self.0 -= 1;
            rec.load(0, 16); // every lane reads the same 16 B
            true
        }
    }
    let device = DeviceConfig::test_tiny();
    let out = launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 1,
            threads_per_block: 4,
        },
        |_| Some(WideBroadcast(8)),
        |_| (),
    );
    // Requested 4 × 16 = 64 B per warp instruction, transferred one 32 B
    // segment → efficiency 2.0, the paper's >100 % regime.
    assert!((out.stats.global_load_efficiency() - 2.0).abs() < 1e-12);
}

#[test]
fn scatter_workload_misses_and_burns_bandwidth() {
    let device = DeviceConfig::test_tiny();
    let out = launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 2,
            threads_per_block: 8,
        },
        |tid| {
            Some(ScatterThread {
                tid,
                iters: 50,
                done: 0,
            })
        },
        |_| (),
    );
    assert!(
        out.stats.l1_hit_rate() < 0.1,
        "hit rate {}",
        out.stats.l1_hit_rate()
    );
    assert!(out.stats.global_load_efficiency() < 0.5);
    assert!(out.stats.dram_bytes > 0);
}

#[test]
fn better_locality_means_higher_ai_and_gflops() {
    let device = DeviceConfig::test_tiny();
    let p = pool();
    let cfg = LaunchConfig {
        blocks: 2,
        threads_per_block: 8,
    };
    let good = launch(
        &p,
        &device,
        cfg,
        |_| {
            Some(BroadcastThread {
                iters: 200,
                done: 0,
            })
        },
        |_| (),
    );
    let bad = launch(
        &p,
        &device,
        cfg,
        |tid| {
            Some(ScatterThread {
                tid,
                iters: 200,
                done: 0,
            })
        },
        |_| (),
    );
    assert!(good.stats.arithmetic_intensity() > bad.stats.arithmetic_intensity());
    assert!(good.stats.gflops(&device) > bad.stats.gflops(&device));
    assert!(
        good.stats.timing(&device).total < bad.stats.timing(&device).total,
        "same useful flops, better cache → faster"
    );
}

#[test]
fn launch_is_deterministic() {
    let device = DeviceConfig::test_tiny();
    let p = pool();
    let cfg = LaunchConfig {
        blocks: 3,
        threads_per_block: 8,
    };
    let a = launch(
        &p,
        &device,
        cfg,
        |tid| {
            Some(ScatterThread {
                tid,
                iters: 20,
                done: 0,
            })
        },
        |_| (),
    );
    let b = launch(
        &p,
        &device,
        cfg,
        |tid| {
            Some(ScatterThread {
                tid,
                iters: 20,
                done: 0,
            })
        },
        |_| (),
    );
    assert_eq!(a.stats, b.stats);
}

#[test]
fn stores_count_as_dram_traffic() {
    struct StoreThread(bool);
    impl WarpThread for StoreThread {
        fn step(&mut self, rec: &mut OpRecorder) -> bool {
            if self.0 {
                return false;
            }
            rec.flops(2);
            rec.store(4096, 8);
            self.0 = true;
            true
        }
    }
    let device = DeviceConfig::test_tiny();
    let out = launch(
        &pool(),
        &device,
        LaunchConfig {
            blocks: 1,
            threads_per_block: 4,
        },
        |_| Some(StoreThread(false)),
        |_| (),
    );
    assert_eq!(out.stats.store_requested_bytes, 32);
    assert!(out.stats.dram_bytes >= 32);
}

// ---------- Stats / timing ----------

#[test]
fn stats_merge_adds_counters_and_maxes_cycles() {
    let mut a = KernelStats {
        useful_flops: 10,
        max_sm_cycles: 5.0,
        ..Default::default()
    };
    let b = KernelStats {
        useful_flops: 7,
        max_sm_cycles: 9.0,
        ..Default::default()
    };
    a.merge(&b);
    assert_eq!(a.useful_flops, 17);
    assert_eq!(a.max_sm_cycles, 9.0);
}

#[test]
fn timing_bottleneck_identifies_dram_bound_kernel() {
    let device = DeviceConfig::test_tiny();
    let stats = KernelStats {
        useful_flops: 1000,
        dram_bytes: 100_000_000,
        max_sm_cycles: 10.0,
        ..Default::default()
    };
    let t = stats.timing(&device);
    assert_eq!(t.bottleneck(), "dram");
    assert!((t.dram_time - 100_000_000.0 / 40.0e9).abs() < 1e-12);
    assert!(t.total >= t.dram_time);
}

#[test]
fn timing_bottleneck_identifies_compute_bound_kernel() {
    let device = DeviceConfig::test_tiny();
    let stats = KernelStats {
        useful_flops: u64::MAX / 4,
        issued_lane_flops: 1 << 40,
        max_sm_cycles: crate::KernelStats {
            issued_lane_flops: 1 << 40,
            ..Default::default()
        }
        .issued_lane_flops as f64
            / 16.0,
        dram_bytes: 8,
        ..Default::default()
    };
    let t = stats.timing(&device);
    assert_eq!(t.bottleneck(), "sm");
}

// ---------- Device / roofline ----------

#[test]
fn k40_preset_matches_paper_numbers() {
    let k40 = DeviceConfig::tesla_k40();
    let peak_tflops = k40.peak_dp_flops() / 1e12;
    assert!((peak_tflops - 1.43).abs() < 0.02, "peak {peak_tflops} TF");
    assert_eq!(k40.sms, 15);
    assert_eq!(k40.warp_size, 32);
    assert!((k40.dram_bandwidth_peak - 288.0e9).abs() < 1.0);
}

#[test]
fn roofline_ceiling_is_min_of_bandwidth_and_peak() {
    let device = DeviceConfig::tesla_k40();
    let roof = Roofline::for_device(&device);
    // Far left: bandwidth-bound.
    let low = roof.attainable(0.125, 1);
    assert!((low - 0.125 * 220.0).abs() < 1.0, "low {low}");
    // Far right: compute-bound.
    let high = roof.attainable(32.0, 1);
    assert!((high - roof.peak_gflops).abs() < 1e-9);
    // Ridge where they cross.
    let ridge = roof.ridge(1);
    assert!((roof.attainable(ridge, 1) - roof.peak_gflops).abs() < 1e-6);
    assert!(ridge > 5.0 && ridge < 8.0, "K40 ridge ≈ 6.5, got {ridge}");
}

#[test]
fn roofline_series_is_monotonic() {
    let device = DeviceConfig::tesla_k40();
    let roof = Roofline::for_device(&device);
    let series = roof.ceiling_series(0, 32);
    assert_eq!(series.len(), 32);
    for w in series.windows(2) {
        assert!(w[1].1 >= w[0].1);
        assert!(w[1].0 > w[0].0);
    }
}

#[test]
fn gld_efficiency_zero_for_no_loads() {
    let stats = KernelStats::default();
    assert_eq!(stats.global_load_efficiency(), 0.0);
    assert_eq!(stats.l1_hit_rate(), 0.0);
    assert_eq!(
        stats.warp_execution_efficiency(&DeviceConfig::test_tiny()),
        0.0
    );
}

#[test]
fn k20_preset_is_slower_than_k40() {
    let k20 = DeviceConfig::tesla_k20();
    let k40 = DeviceConfig::tesla_k40();
    assert!(k20.peak_dp_flops() < k40.peak_dp_flops());
    assert!(k20.dram_bandwidth_peak < k40.dram_bandwidth_peak);
    // Same kernel stats → strictly larger simulated time on the K20.
    let stats = KernelStats {
        useful_flops: 1_000_000,
        issued_lane_flops: 2_000_000,
        max_sm_cycles: 50_000.0,
        dram_bytes: 50_000_000,
        ..Default::default()
    };
    assert!(stats.timing(&k20).total > stats.timing(&k40).total);
}

#[test]
fn occupancy_of_the_paper_launch_configurations() {
    // The harness launches 256-thread blocks; at Kepler limits and the
    // register budget of a quadrature kernel (~64/thread) this sustains
    // half occupancy or better.
    let device = DeviceConfig::tesla_k40();
    let occ = crate::occupancy(
        &device,
        &crate::OccupancyLimits::kepler(),
        &crate::KernelResources {
            threads_per_block: 256,
            registers_per_thread: 64,
            shared_per_block: 0,
        },
    );
    assert!(occ.fraction >= 0.5, "{occ:?}");
}

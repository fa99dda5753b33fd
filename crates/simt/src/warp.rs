//! Warp-lockstep replay against one SM's memory hierarchy.

use std::cmp::Reverse;

use crate::cache::SetAssocCache;
use crate::coalesce::{coalesce_in_order, is_common_shift, sort_by_start, SEGMENT_BYTES};
use crate::device::DeviceConfig;
use crate::op::{Op, OpRecorder};
use crate::stats::KernelStats;

/// Reusable replay scratch, persisted across every warp an SM replays so the
/// hot lockstep loop performs no heap allocation once the widest warp and
/// longest iteration have been seen.
#[derive(Default)]
pub(crate) struct ReplayScratch {
    recorders: Vec<OpRecorder>,
    /// Live lanes, in lane order.
    live: Vec<usize>,
    /// This round's live lanes, longest op stream first.
    by_len: Vec<usize>,
    loads: Vec<(u64, u32)>,
    /// The previous load slot's accesses; `load_order` sorts them by start
    /// address, and so also sorts any slot that is their common shift.
    prev_loads: Vec<(u64, u32)>,
    load_order: Vec<u32>,
    stores: Vec<(u64, u32)>,
    store_order: Vec<u32>,
    segments: Vec<u64>,
    lines: Vec<u64>,
}

/// Per-SM simulation state: private L1, an L2 slice, and counters.
pub(crate) struct SmState {
    pub l1: SetAssocCache,
    pub l2: SetAssocCache,
    pub stats: KernelStats,
    scratch: ReplayScratch,
}

impl SmState {
    pub fn new(device: &DeviceConfig) -> Self {
        Self {
            l1: SetAssocCache::new(device.l1_bytes, device.l1_line, device.l1_ways),
            l2: SetAssocCache::new(device.l2_slice_bytes(), device.l2_line, device.l2_ways),
            stats: KernelStats::default(),
            scratch: ReplayScratch::default(),
        }
    }
}

/// The kernel-thread interface: one call per loop iteration.
///
/// `step` performs the thread's real computation for one iteration of its
/// main loop, records the operations it performed into `rec`, and returns
/// `true`. It returns `false` (recording nothing) once the thread retires.
/// Threads of a warp advance in lockstep; a warp keeps issuing while any of
/// its lanes is live, which is exactly how uneven trip counts become branch
/// divergence.
pub trait WarpThread {
    /// Runs one loop iteration, or returns `false` if the thread is done.
    fn step(&mut self, rec: &mut OpRecorder) -> bool;
}

/// Replays one warp of threads to completion against `sm`.
///
/// `lanes` holds the warp's live threads (length ≤ warp size; missing lanes
/// model the tail of a partial warp and count against execution efficiency,
/// matching `nvprof`).
pub(crate) fn replay_warp<T: WarpThread>(device: &DeviceConfig, sm: &mut SmState, lanes: &mut [T]) {
    let warp_size = device.warp_size;
    debug_assert!(lanes.len() <= warp_size);
    let SmState {
        l1,
        l2,
        stats,
        scratch,
    } = sm;
    stats.warps += 1;
    stats.threads += lanes.len() as u64;

    let ReplayScratch {
        recorders,
        live,
        by_len,
        loads,
        prev_loads,
        load_order,
        stores,
        store_order,
        segments,
        lines,
    } = scratch;
    if recorders.len() < lanes.len() {
        recorders.resize_with(lanes.len(), OpRecorder::new);
    }
    live.clear();
    live.extend(0..lanes.len());

    loop {
        live.retain(|&i| {
            recorders[i].clear();
            lanes[i].step(&mut recorders[i])
        });
        if live.is_empty() {
            break;
        }

        // Lockstep replay: op slot s across all lanes that recorded one.
        // With the lanes visited longest stream first, those lanes are the
        // prefix `by_len[..here]`, which shrinks as s grows. A slot's stats
        // depend only on the multiset of its lane ops, not on lane order.
        by_len.clear();
        by_len.extend_from_slice(live);
        by_len.sort_unstable_by_key(|&i| Reverse(recorders[i].len()));
        let max_ops = recorders[by_len[0]].len();
        let mut here = by_len.len();
        for s in 0..max_ops {
            while recorders[by_len[here - 1]].len() <= s {
                here -= 1;
            }
            // Group lanes at this slot by op kind; each kind is one issue.
            let mut flop_lanes = 0u64;
            let mut flop_total = 0u64;
            let mut flop_max = 0u64;
            loads.clear();
            stores.clear();
            for &i in &by_len[..here] {
                match recorders[i].ops()[s] {
                    Op::Flops(n) => {
                        flop_lanes += 1;
                        flop_total += n as u64;
                        flop_max = flop_max.max(n as u64);
                    }
                    Op::Load { addr, bytes } => loads.push((addr, bytes)),
                    Op::Store { addr, bytes } => stores.push((addr, bytes)),
                }
            }

            if flop_lanes > 0 {
                stats.issued_instructions += 1;
                stats.active_lane_instructions += flop_lanes;
                stats.useful_flops += flop_total;
                // The DP pipe is busy for the longest lane across the full
                // warp width — idle lanes are pure loss.
                stats.issued_lane_flops += flop_max * warp_size as u64;
            }
            if !loads.is_empty() {
                stats.issued_instructions += 1;
                stats.active_lane_instructions += loads.len() as u64;
                stats.load_instructions += 1;
                // Sort only when this slot is not the previous load slot
                // shifted by one offset.
                if !is_common_shift(prev_loads, loads) {
                    sort_by_start(loads, load_order);
                }
                let requested =
                    coalesce_in_order(loads, load_order, device.l1_line as u64, segments, lines);
                std::mem::swap(prev_loads, loads);
                stats.load_requested_bytes += requested;
                stats.load_transferred_bytes += segments.len() as u64 * SEGMENT_BYTES;
                for &line in lines.iter() {
                    stats.l1_accesses += 1;
                    if l1.access_line(line) {
                        stats.l1_hits += 1;
                    } else {
                        stats.l2_accesses += 1;
                        if l2.access_line(line) {
                            stats.l2_hits += 1;
                        } else {
                            stats.dram_bytes += device.l1_line as u64;
                        }
                    }
                }
            }
            if !stores.is_empty() {
                stats.issued_instructions += 1;
                stats.active_lane_instructions += stores.len() as u64;
                sort_by_start(stores, store_order);
                let requested =
                    coalesce_in_order(stores, store_order, device.l1_line as u64, segments, lines);
                stats.store_requested_bytes += requested;
                // Kepler global stores bypass L1 and write through L2 to
                // DRAM; account the transferred segments as DRAM traffic.
                stats.dram_bytes += segments.len() as u64 * SEGMENT_BYTES;
            }
        }
    }
}

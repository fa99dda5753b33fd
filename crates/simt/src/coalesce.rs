//! Warp-level memory coalescing.
//!
//! A warp-wide memory instruction is coalesced in two steps: order the
//! lanes' accesses by start address, then make one merge pass that emits the
//! sorted, unique segment ids and line ids. The pass pushes only ids above
//! the last one it emitted, which is exact for any mix of access widths and
//! any line size: visited in start order, an id at or below the last emitted
//! one lies in the range of an earlier access — the one that emitted that
//! last id started no later than the current access, and every id of its
//! contiguous range has been emitted.
//!
//! The sort is the only step that depends on lane order, and the replay
//! mostly skips it: consecutive load slots of a warp are usually the same
//! access pattern shifted by one common offset (the taps of a stencil differ
//! only by layout constants), and a common shift keeps every pair of start
//! addresses in the same order. See [`is_common_shift`].

/// Transfer segment size used by the coalescer (the 32-byte DRAM/L2 sector
/// granularity of Kepler-class GPUs).
pub const SEGMENT_BYTES: u64 = 32;

/// Result of coalescing one warp-wide memory instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpRequest {
    /// Bytes the active lanes asked for (duplicates counted per lane —
    /// this is the numerator of `nvprof`'s global load efficiency).
    pub requested_bytes: u64,
    /// Unique 32-byte segments touched; `segments * 32` bytes move on the
    /// wire (the denominator of global load efficiency).
    pub segments: u64,
    /// Unique cache lines touched (one cache access each).
    pub lines: Vec<u64>,
}

impl WarpRequest {
    /// Bytes actually transferred.
    pub fn transferred_bytes(&self) -> u64 {
        self.segments * SEGMENT_BYTES
    }
}

/// Coalesces the `(addr, bytes)` accesses of a warp's active lanes.
///
/// Lanes reading overlapping addresses are served by the same segment, so
/// `requested_bytes / transferred_bytes` exceeds 1 for broadcast patterns —
/// the effect the paper reports as >100 % global load efficiency. A
/// zero-byte access requests nothing and touches no segment or line.
pub fn coalesce(accesses: &[(u64, u32)], line_size: u64) -> WarpRequest {
    let mut segments = Vec::with_capacity(accesses.len());
    let mut lines = Vec::with_capacity(accesses.len());
    let requested = coalesce_into(accesses, line_size, &mut segments, &mut lines);
    WarpRequest {
        requested_bytes: requested,
        segments: segments.len() as u64,
        lines,
    }
}

/// Scratch-reusing form of [`coalesce`]: the caller supplies the
/// segment/line vectors (cleared here, reused across calls). On return
/// `segments` and `lines` hold the sorted, deduplicated segment/line ids;
/// the total requested bytes are returned. The replay loop, which also
/// keeps the sort order, calls [`sort_by_start`] and [`coalesce_in_order`]
/// directly.
pub fn coalesce_into(
    accesses: &[(u64, u32)],
    line_size: u64,
    segments: &mut Vec<u64>,
    lines: &mut Vec<u64>,
) -> u64 {
    let mut order = Vec::with_capacity(accesses.len());
    sort_by_start(accesses, &mut order);
    coalesce_in_order(accesses, &order, line_size, segments, lines)
}

/// Fills `order` with the indices of `accesses` in ascending start-address
/// order.
pub(crate) fn sort_by_start(accesses: &[(u64, u32)], order: &mut Vec<u32>) {
    order.clear();
    order.extend(0..accesses.len() as u32);
    order.sort_unstable_by_key(|&i| accesses[i as usize].0);
}

/// The merge pass: visits `accesses` in `order`, which must be ascending
/// by start address, and leaves the sorted, unique segment and line ids in
/// `segments` and `lines`. Returns the requested bytes.
pub(crate) fn coalesce_in_order(
    accesses: &[(u64, u32)],
    order: &[u32],
    line_size: u64,
    segments: &mut Vec<u64>,
    lines: &mut Vec<u64>,
) -> u64 {
    debug_assert_eq!(accesses.len(), order.len());
    segments.clear();
    lines.clear();
    let mut requested = 0u64;
    for &i in order {
        let (addr, bytes) = accesses[i as usize];
        if bytes == 0 {
            continue;
        }
        requested += bytes as u64;
        let last_byte = addr + (bytes as u64 - 1);
        push_ids_above(segments, addr / SEGMENT_BYTES, last_byte / SEGMENT_BYTES);
        push_ids_above(lines, addr / line_size, last_byte / line_size);
    }
    requested
}

/// Appends the ids of `first..=last` that lie above `ids`' last entry.
#[inline]
fn push_ids_above(ids: &mut Vec<u64>, first: u64, last: u64) {
    let from = match ids.last() {
        Some(&top) if top >= first => top + 1,
        _ => first,
    };
    ids.extend(from..=last);
}

/// True when `cur` is `prev` with every address moved by one common signed
/// offset and the same width at every position — then any order that sorts
/// `prev` by start address also sorts `cur`. The offset is taken in `i128`,
/// so no address wraps around.
pub(crate) fn is_common_shift(prev: &[(u64, u32)], cur: &[(u64, u32)]) -> bool {
    let (Some(&(p0, _)), Some(&(c0, _))) = (prev.first(), cur.first()) else {
        return false;
    };
    let offset = c0 as i128 - p0 as i128;
    prev.len() == cur.len()
        && prev
            .iter()
            .zip(cur)
            .all(|(&(pa, pw), &(ca, cw))| pw == cw && ca as i128 - pa as i128 == offset)
}

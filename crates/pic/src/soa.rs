//! Structure-of-arrays particle scratch for the SIMD host pipeline.
//!
//! The AoS particle layout ([`DepositSample`] / the beam's particle vector)
//! is right for bookkeeping but wrong for data parallelism: every vector
//! lane of a CIC weight or a drift update wants *one* field of *four
//! consecutive particles*, which in AoS form is a strided gather. The beam
//! stays the system of record between steps, so each `NativeSimd` step
//! starts with one parallel copy of the beam into these columns
//! ([`ParticleSoA::fill`]), runs deposit → gather → push over them, and
//! writes positions and velocities back to the beam inside the push pass.
//! The columns live in the step workspace and are sized exactly to the
//! particle count, so a steady-state step allocates and zeroes nothing.
//!
//! The copy is exact: AoS → SoA → AoS reproduces every particle
//! bit-exactly at any pool width (pinned by proptest in
//! `tests/determinism.rs`).

use beamdyn_par::{DisjointPtr, ThreadPool};

use crate::deposit::DepositSample;

/// Particles per [`ParticleSoA::fill`] chunk. A copy is memory-bound, so
/// beams up to this size (a served session's few thousand particles, a
/// potentials-dominated workload's tens of thousands) copy inline on the
/// calling thread without a pool dispatch.
const FILL_MIN_CHUNK: usize = 16 * 1024;

/// Particle columns: element `i` of every column describes particle `i`.
#[derive(Debug, Clone, Default)]
pub struct ParticleSoA {
    /// Longitudinal positions.
    pub x: Vec<f64>,
    /// Transverse positions.
    pub y: Vec<f64>,
    /// Longitudinal velocities.
    pub vx: Vec<f64>,
    /// Transverse velocities.
    pub vy: Vec<f64>,
    /// Macro-particle charge weights.
    pub weight: Vec<f64>,
}

impl ParticleSoA {
    /// An empty scratch (no capacity yet; [`ParticleSoA::fill`] grows it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of particles held.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no particles are held.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The five columns, in field order.
    fn columns_mut(&mut self) -> [&mut Vec<f64>; 5] {
        [
            &mut self.x,
            &mut self.y,
            &mut self.vx,
            &mut self.vy,
            &mut self.weight,
        ]
    }

    /// Drops the particles but keeps every column's capacity.
    pub fn clear(&mut self) {
        for column in self.columns_mut() {
            column.clear();
        }
    }

    /// Replaces the contents with `src`, particle `i` of the columns being
    /// `to_sample(&src[i])`, copied in parallel chunks of at least
    /// `FILL_MIN_CHUNK` particles.
    ///
    /// Every column is resized to exactly `src.len()` — a no-op when the
    /// length is unchanged, so a steady-state fill neither allocates nor
    /// zeroes — and then every slot is overwritten.
    pub fn fill<T: Sync>(
        &mut self,
        pool: &ThreadPool,
        src: &[T],
        to_sample: impl Fn(&T) -> DepositSample + Sync,
    ) {
        let n = src.len();
        for column in self.columns_mut() {
            column.truncate(n);
            column.reserve_exact(n - column.len());
            column.resize(n, 0.0);
        }
        let [x, y, vx, vy, weight] = self.columns_mut().map(|column| DisjointPtr::new(column));
        pool.parallel_for_chunks(0..n, FILL_MIN_CHUNK, |range| {
            // SAFETY: every column holds `n` elements and the pool hands out
            // disjoint ranges, so each slice is borrowed by one thread only.
            let [x, y, vx, vy, weight] =
                [x, y, vx, vy, weight].map(|column| unsafe { column.slice(range.clone()) });
            let out = x.iter_mut().zip(y).zip(vx).zip(vy).zip(weight);
            for (((((x, y), vx), vy), weight), p) in out.zip(&src[range]) {
                let s = to_sample(p);
                (*x, *y, *vx, *vy, *weight) = (s.x, s.y, s.vx, s.vy, s.weight);
            }
        });
    }

    /// Reconstructs particle `i` in AoS form (bit-exact round trip).
    #[inline]
    pub fn sample(&self, i: usize) -> DepositSample {
        DepositSample {
            x: self.x[i],
            y: self.y[i],
            weight: self.weight[i],
            vx: self.vx[i],
            vy: self.vy[i],
        }
    }

    /// Heap bytes held across all columns (capacity, not length) — feeds
    /// the workspace's `bytes_resident` accounting.
    pub fn bytes_capacity(&self) -> usize {
        (self.x.capacity()
            + self.y.capacity()
            + self.vx.capacity()
            + self.vy.capacity()
            + self.weight.capacity())
            * std::mem::size_of::<f64>()
    }
}

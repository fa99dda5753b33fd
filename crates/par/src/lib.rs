//! Data-parallel primitives for beamdyn.
//!
//! The simulator needs CPU-side parallelism in three places: host stages of
//! the beam-dynamics loop (deposition, clustering, model training), the SIMT
//! execution simulator itself (blocks replay independently per virtual SM),
//! and the benchmark harness. Rather than pulling in a full framework, this
//! crate provides a small, predictable work-stealing pool:
//!
//! * [`ThreadPool`] — persistent workers over a [`crossbeam`] injector /
//!   work-stealing deque arrangement for fire-and-forget jobs.
//! * [`ThreadPool::parallel_for`] / [`ThreadPool::parallel_for_chunks`] /
//!   [`ThreadPool::parallel_map`] — scoped data-parallel loops built on an
//!   atomic chunk cursor. The *calling* thread participates in the loop, so
//!   nested parallelism can always make progress and a pool of zero workers
//!   degrades gracefully to sequential execution.
//! * [`global`] — a lazily-created process-wide pool sized to the machine.
//!
//! Determinism note: all combinators preserve element order in their outputs
//! (each chunk writes to its own disjoint output slots), so results are
//! bit-identical regardless of thread count or scheduling.

mod latch;
mod pool;
mod range;
pub mod simd;

pub use latch::CountLatch;
pub use pool::{global, DisjointPtr, ThreadPool};
pub use range::split_evenly;

#[cfg(test)]
mod tests;

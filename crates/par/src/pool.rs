//! The work-stealing thread pool.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::{Condvar, Mutex};

use crate::latch::{CountLatch, LatchGuard};
use crate::range::split_evenly;

type Job = Box<dyn FnOnce() + Send + 'static>;
/// First panic payload captured by a scoped parallel loop.
type PanicSlot = Mutex<Option<Box<dyn Any + Send>>>;
/// The chunk-claiming loop each broadcast job runs (see `parallel_for_chunks`).
type DriveFn<'a> = dyn Fn(&AtomicUsize, &PanicSlot) + Sync + 'a;

/// Successful steals from a peer worker's deque (relaxed-atomic; safe from
/// any worker).
static POOL_STEALS: beamdyn_obs::Counter = beamdyn_obs::Counter::new("par.steals");
/// Times a worker found no work anywhere and parked on the condvar.
static POOL_PARKS: beamdyn_obs::Counter = beamdyn_obs::Counter::new("par.parks");
/// Jobs pulled from the global injector (batch head or single steal).
static POOL_INJECTOR_POPS: beamdyn_obs::Counter = beamdyn_obs::Counter::new("par.injector_pops");
/// Times a loop caller found nothing to help with and parked on the latch.
static POOL_HELPER_PARKS: beamdyn_obs::Counter = beamdyn_obs::Counter::new("par.helper_parks");
/// Injector depth observed at the most recent submission.
static POOL_QUEUE_DEPTH: beamdyn_obs::Gauge = beamdyn_obs::Gauge::new("par.queue_depth");

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn notify(&self) {
        // Lock/unlock pairs the notification with the sleeper's re-check so a
        // worker cannot miss a wake between its queue probe and its park.
        drop(self.sleep_lock.lock());
        self.wake.notify_all();
    }

    /// Pops one job: local deque first, then the injector, then peers.
    fn find_job(&self, local: Option<&WorkerDeque<Job>>) -> Option<Job> {
        if let Some(local) = local {
            if let Some(job) = local.pop() {
                return Some(job);
            }
        }
        loop {
            match local
                .map(|l| self.injector.steal_batch_and_pop(l))
                .unwrap_or_else(|| self.injector.steal())
            {
                Steal::Success(job) => {
                    POOL_INJECTOR_POPS.incr();
                    return Some(job);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(job) => {
                        POOL_STEALS.incr();
                        return Some(job);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }
}

/// A fixed-size work-stealing thread pool.
///
/// Workers pull from a shared injector and steal from each other's deques.
/// Scoped loops ([`ThreadPool::parallel_for`] and friends) are driven by an
/// atomic chunk cursor: the calling thread grabs chunks alongside the
/// workers, so forward progress never depends on a free worker and nested
/// loops cannot deadlock (threads waiting for a loop help run queued jobs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` workers. `threads == 0` is allowed and
    /// produces a pool whose combinators run sequentially on the caller.
    pub fn new(threads: usize) -> Self {
        let deques: Vec<WorkerDeque<Job>> = (0..threads).map(|_| WorkerDeque::new_fifo()).collect();
        let stealers = deques.iter().map(WorkerDeque::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(index, deque)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("beamdyn-worker-{index}"))
                    .spawn(move || worker_loop(&shared, &deque))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// Number of worker threads (excluding callers that help in loops).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Submits a fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.injector.push(Box::new(job));
        POOL_QUEUE_DEPTH.set(self.shared.injector.len() as f64);
        self.shared.notify();
    }

    /// Runs `body(i)` for every `i` in `range`, in parallel.
    pub fn parallel_for(&self, range: Range<usize>, body: impl Fn(usize) + Sync) {
        self.parallel_for_chunks(range, 1, |chunk| {
            for i in chunk {
                body(i);
            }
        });
    }

    /// Runs `body` over contiguous chunks of `range` with at least
    /// `min_chunk` indices each (except possibly the last).
    ///
    /// Chunks are claimed dynamically from an atomic cursor, which balances
    /// irregular per-index costs — the situation this whole project is about.
    pub fn parallel_for_chunks(
        &self,
        range: Range<usize>,
        min_chunk: usize,
        body: impl Fn(Range<usize>) + Sync,
    ) {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        let participants = self.threads + 1;
        let min_chunk = min_chunk.max(1);
        if self.threads == 0 || len <= min_chunk {
            body(range);
            return;
        }
        // Aim for ~4 chunks per participant so late stragglers can rebalance.
        let chunk = (len.div_ceil(participants * 4)).max(min_chunk);

        let cursor = AtomicUsize::new(range.start);
        let end = range.end;
        let panic_slot: PanicSlot = Mutex::new(None);

        let drive = |cursor: &AtomicUsize, panic_slot: &PanicSlot| loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= end {
                break;
            }
            let stop = (start + chunk).min(end);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(start..stop))) {
                let mut slot = panic_slot.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                // Drain the cursor so other participants stop promptly.
                cursor.store(end, Ordering::Relaxed);
                break;
            }
        };

        let broadcast = self.threads;
        let latch = CountLatch::new(broadcast);

        // SAFETY: the jobs below borrow `cursor`, `panic_slot`, `latch`, and
        // (through `drive`) `body`, all of which live on this stack frame.
        // Every job counts the latch down exactly once (via LatchGuard, so
        // panics count too) and `wait_while_helping` does not return until
        // the latch is fully released, so no job can outlive this frame.
        unsafe {
            let drive_ref: &DriveFn<'_> = &drive;
            let drive_static: &'static DriveFn<'static> = std::mem::transmute(drive_ref);
            let cursor_static: &'static AtomicUsize = std::mem::transmute(&cursor);
            let panic_static: &'static PanicSlot = std::mem::transmute(&panic_slot);
            let latch_static: &'static CountLatch = std::mem::transmute(&latch);
            for _ in 0..broadcast {
                self.shared.injector.push(Box::new(move || {
                    let _guard = LatchGuard(latch_static);
                    drive_static(cursor_static, panic_static);
                }));
            }
        }
        POOL_QUEUE_DEPTH.set(self.shared.injector.len() as f64);
        self.shared.notify();

        drive(&cursor, &panic_slot);
        self.wait_while_helping(&latch);

        let payload = panic_slot.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Maps `f` over `items` in parallel, preserving order.
    pub fn parallel_map<T: Sync, U: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> U + Sync,
    ) -> Vec<U> {
        self.parallel_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Builds a `Vec` of length `len` where slot `i` holds `f(i)`.
    pub fn parallel_map_indexed<U: Send>(
        &self,
        len: usize,
        f: impl Fn(usize) -> U + Sync,
    ) -> Vec<U> {
        let mut out: Vec<std::mem::MaybeUninit<U>> = Vec::with_capacity(len);
        // SAFETY: MaybeUninit needs no initialization; length set before writes
        // only to carve disjoint slots, every slot is written exactly once below.
        unsafe { out.set_len(len) };
        let base = SendPtr(out.as_mut_ptr());
        self.parallel_for_chunks(0..len, 1, |chunk| {
            for i in chunk {
                // SAFETY: `i` is unique to this chunk; slot written once.
                unsafe { (*base.get().add(i)).write(f(i)) };
            }
        });
        // SAFETY: all `len` slots initialized by the loop above.
        unsafe {
            let mut out = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(out.as_mut_ptr().cast::<U>(), len, out.capacity())
        }
    }

    /// Parallel map-reduce over an index range.
    ///
    /// `reduce` must be associative; `identity` must be its neutral element.
    /// The reduction tree shape is unspecified, so floating-point results may
    /// differ from a sequential fold at the usual rounding level.
    pub fn parallel_reduce<U: Send>(
        &self,
        range: Range<usize>,
        identity: U,
        map: impl Fn(usize) -> U + Sync,
        reduce: impl Fn(U, U) -> U + Sync + Send,
    ) -> U {
        let participants = (self.threads + 1) * 4;
        let chunks = split_evenly(range, participants);
        let partials = self.parallel_map_indexed(chunks.len(), |c| {
            let mut acc: Option<U> = None;
            for i in chunks[c].clone() {
                let v = map(i);
                acc = Some(match acc {
                    None => v,
                    Some(a) => reduce(a, v),
                });
            }
            acc
        });
        partials.into_iter().flatten().fold(identity, reduce)
    }

    /// Blocks until `latch` is released, running queued jobs in the meantime.
    fn wait_while_helping(&self, latch: &CountLatch) {
        while !latch.is_released() {
            if let Some(job) = self.shared.find_job(None) {
                job();
            } else {
                // Nothing to steal: the remaining broadcast jobs are running
                // on workers. Park on the latch condvar so the final
                // count-down wakes us immediately; the timeout bounds how
                // long a job pushed after our probe (a nested loop's
                // broadcast landing in the injector) can go unhelped.
                POOL_HELPER_PARKS.incr();
                if latch.wait_timeout(Duration::from_millis(1)) {
                    return;
                }
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, local: &WorkerDeque<Job>) {
    loop {
        if let Some(job) = shared.find_job(Some(local)) {
            // A panicking fire-and-forget job must not kill the worker;
            // scoped jobs already catch their own panics.
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut guard = shared.sleep_lock.lock();
        // Re-check under the lock to pair with `Shared::notify`.
        if shared.shutdown.load(Ordering::SeqCst) || !shared.injector.is_empty() {
            continue;
        }
        POOL_PARKS.incr();
        shared.wake.wait_for(&mut guard, Duration::from_millis(10));
    }
}

/// Raw-pointer wrapper that asserts cross-thread use is safe because each
/// thread touches disjoint slots.
struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare raw pointer — 2021 precise capture
    /// would otherwise strip the Send/Sync impls.
    fn get(&self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: see type-level comment; writers never alias.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Returns the process-wide pool, created on first use with one worker per
/// available CPU minus one (the caller itself participates in loops).
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(4);
        ThreadPool::new(cpus.saturating_sub(1))
    })
}

/// A buffer's base pointer shared by the participants of one
/// [`ThreadPool::parallel_for_chunks`] call, each of which writes only the
/// indices of the chunks it is handed.
///
/// The wrapper only makes the pointer `Send + Sync`. Every dereference is
/// the caller's `unsafe` promise that the index lies inside the buffer and
/// that no two participants touch the same index.
#[derive(Debug)]
pub struct DisjointPtr<T>(*mut T);

impl<T> DisjointPtr<T> {
    /// Shares `buf`'s base pointer. `buf` must outlive every use.
    pub fn new(buf: &mut [T]) -> Self {
        Self(buf.as_mut_ptr())
    }

    /// The base pointer. A method rather than field access, so closures
    /// capture the whole `Sync` wrapper, not the bare raw pointer.
    #[inline(always)]
    pub fn get(&self) -> *mut T {
        self.0
    }

    /// Slots `range` of the buffer as a mutable slice.
    ///
    /// # Safety
    /// `range` must lie inside the buffer, and no other live reference may
    /// overlap it.
    #[inline(always)]
    pub unsafe fn slice<'a>(&self, range: Range<usize>) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(range.start), range.len())
    }
}

impl<T> Clone for DisjointPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DisjointPtr<T> {}

// SAFETY: participants write disjoint index ranges (the contract above).
unsafe impl<T: Send> Send for DisjointPtr<T> {}
unsafe impl<T: Send> Sync for DisjointPtr<T> {}

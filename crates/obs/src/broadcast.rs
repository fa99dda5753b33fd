//! Fan-out of events to live consumers over bounded drop-oldest rings.
//!
//! [`Broadcast<T>`] sits between a producer hot path and any number of
//! live readers (the SSE endpoints of `crates/serve`, tests, custom
//! dashboards). Each subscriber owns a **bounded ring buffer**: the
//! producer side ([`Broadcast::publish`], called inline on the producing
//! thread) only ever pushes into those rings and never waits — when a
//! ring is full the *oldest* queued event is dropped and the global
//! `telemetry.dropped_events` counter incremented. A slow or stalled HTTP
//! client therefore costs the producer one `VecDeque` rotation per event,
//! never a block.
//!
//! [`BroadcastSink`] is the step-flush specialisation (`Broadcast<StepFlush>`)
//! that plugs into the sink registry; the session engine reuses the same
//! machinery for per-session event buses carrying pre-rendered payloads.
//!
//! Subscribers that have been dropped are pruned lazily on the next
//! publish, so disconnecting consumers leave no leak behind.
//!
//! A stream can **end**: [`Broadcast::finish`] wakes every waiting
//! receiver, and a receiver that has drained its ring then reads
//! [`Recv::Finished`] instead of timing out — consumers learn that a
//! producer is done the moment it is, not one poll interval later.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::sink::{Sink, SpanEvent, StepFlush};
use crate::Counter;

/// Events discarded because a subscriber's ring was full (one increment
/// per discarded event, summed over all subscribers of all broadcasts).
static DROPPED_EVENTS: Counter = Counter::new("telemetry.dropped_events");

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One subscriber's pending events plus the producer's end-of-stream mark.
struct Ring<T> {
    queue: VecDeque<T>,
    finished: bool,
}

struct Channel<T> {
    ring: Mutex<Ring<T>>,
    available: Condvar,
    /// Set when the receiver half is dropped; the broadcast prunes the
    /// channel.
    closed: AtomicBool,
}

/// Fans every published event out to bounded per-subscriber ring buffers.
pub struct Broadcast<T> {
    capacity: usize,
    subscribers: Mutex<Subscribers<T>>,
}

struct Subscribers<T> {
    channels: Vec<Arc<Channel<T>>>,
    /// Set by [`Broadcast::finish`]; guarded by the same lock `publish`
    /// and `subscribe` already take, so neither can race the end mark.
    finished: bool,
}

/// What one wait on a [`BroadcastReceiver`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv<T> {
    /// The oldest pending event.
    Event(T),
    /// Nothing arrived within the timeout; the stream is still live.
    Timeout,
    /// The ring is drained and the producer called [`Broadcast::finish`]:
    /// no event will ever follow.
    Finished,
}

/// The [`Sink`] specialisation broadcasting whole step flushes. Span
/// closes are ignored — live consumers watch step granularity; per-span
/// streams stay the job of the trace sinks.
pub type BroadcastSink = Broadcast<StepFlush>;

impl<T: Clone> Broadcast<T> {
    /// Default ring capacity per subscriber.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a broadcast whose subscriber rings hold up to `capacity`
    /// pending events each (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity: capacity.max(1),
            subscribers: Mutex::new(Subscribers {
                channels: Vec::new(),
                finished: false,
            }),
        })
    }

    /// Creates a broadcast with [`Broadcast::DEFAULT_CAPACITY`].
    pub fn new() -> Arc<Self> {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Registers a new live consumer; events published from now on are
    /// queued for it (up to the ring capacity). A subscription taken after
    /// [`Broadcast::finish`] is born finished.
    pub fn subscribe(&self) -> BroadcastReceiver<T> {
        let mut subscribers = lock(&self.subscribers);
        let finished = subscribers.finished;
        let channel = Arc::new(Channel {
            ring: Mutex::new(Ring {
                queue: VecDeque::with_capacity(if finished { 0 } else { self.capacity }),
                finished,
            }),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        if !finished {
            subscribers.channels.push(Arc::clone(&channel));
        }
        BroadcastReceiver { channel }
    }

    /// Number of live subscribers (dropped receivers count until the next
    /// publish prunes them).
    pub fn subscriber_count(&self) -> usize {
        lock(&self.subscribers).channels.len()
    }

    /// Pushes `event` into every live subscriber's ring, dropping each
    /// ring's oldest entry (and counting `telemetry.dropped_events`) when
    /// full. Never blocks on a consumer. A no-op after
    /// [`Broadcast::finish`]: a finished stream stays finished.
    pub fn publish(&self, event: &T) {
        let mut subscribers = lock(&self.subscribers);
        if subscribers.finished {
            return;
        }
        subscribers.channels.retain(|channel| {
            if channel.closed.load(Ordering::Acquire) {
                return false;
            }
            let mut ring = lock(&channel.ring);
            if ring.queue.len() >= self.capacity {
                ring.queue.pop_front();
                DROPPED_EVENTS.incr();
            }
            ring.queue.push_back(event.clone());
            drop(ring);
            channel.available.notify_one();
            true
        });
    }

    /// Ends the stream: every waiting receiver wakes, and each receiver
    /// reads [`Recv::Finished`] once it has drained what was published
    /// before this call. Idempotent.
    pub fn finish(&self) {
        let mut subscribers = lock(&self.subscribers);
        subscribers.finished = true;
        // Nothing is ever published again, so the producer side can let
        // go of the channels; the receivers keep theirs alive.
        for channel in subscribers.channels.drain(..) {
            lock(&channel.ring).finished = true;
            channel.available.notify_all();
        }
    }
}

impl Sink for BroadcastSink {
    fn span_close(&self, _event: &SpanEvent) {}

    fn step_flush(&self, flush: &StepFlush) {
        self.publish(flush);
    }
}

/// The consumer half of one [`Broadcast`] subscription.
pub struct BroadcastReceiver<T = StepFlush> {
    channel: Arc<Channel<T>>,
}

impl<T> BroadcastReceiver<T> {
    /// Pops the oldest pending event without waiting.
    pub fn try_recv(&self) -> Option<T> {
        lock(&self.channel.ring).queue.pop_front()
    }

    /// Waits up to `timeout` for an event or the end of the stream.
    /// Long-lived consumers (the SSE writers) loop on this: the timeout is
    /// only their keep-alive cadence, since both an event and
    /// [`Broadcast::finish`] wake the wait at once.
    pub fn recv_timeout(&self, timeout: Duration) -> Recv<T> {
        let ring = lock(&self.channel.ring);
        let (mut ring, _timed_out) = self
            .channel
            .available
            .wait_timeout_while(ring, timeout, |r| r.queue.is_empty() && !r.finished)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match ring.queue.pop_front() {
            Some(event) => Recv::Event(event),
            None if ring.finished => Recv::Finished,
            None => Recv::Timeout,
        }
    }

    /// Drains everything currently pending.
    pub fn drain(&self) -> Vec<T> {
        lock(&self.channel.ring).queue.drain(..).collect()
    }

    /// Pending events not yet received.
    pub fn len(&self) -> usize {
        lock(&self.channel.ring).queue.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for BroadcastReceiver<T> {
    fn drop(&mut self) {
        self.channel.closed.store(true, Ordering::Release);
    }
}

//! Bounded per-shard ingress rings for the threaded service.
//!
//! One ring sits in front of each shard worker. The hot path is a
//! bounded SPSC ring buffer: a power-of-two slot array indexed by
//! free-running (wrapping) `u64` head/tail counters published with
//! acquire/release atomics, with a cached head index on the producer
//! side so the common push touches no consumer state at all. Producers
//! are serialized by a producer-side mutex (collapsing N submitting
//! threads into the single logical producer the ring needs — placement
//! owns routing, so one shard's ring is only ever fed through its
//! service-side admission path), and the single worker consumes through
//! a consumer-side mutex that is uncontended except when a shedding
//! producer must evict the oldest entry. A condvar-parked slow path
//! exists *only* for [`Backpressure::Block`] (full ring) and for the
//! consumer waiting on an empty open ring; every other transition is
//! lock-cheap and wait-free of the opposite side.
//!
//! # Memory ordering
//!
//! The ring's correctness rests on two acquire/release pairs and one
//! Dekker-style store/load handshake (see DESIGN.md §11 for the full
//! argument):
//!
//! * **tail publication** — the producer writes the slot, then stores
//!   `tail` (release; `SeqCst` in practice, see below). The consumer
//!   loads `tail` (acquire) before reading slots, so every slot read
//!   happens-after the write that filled it.
//! * **head publication** — the consumer moves messages out of their
//!   slots, then stores `head` (release/`SeqCst`). The producer refreshes
//!   its cached head with an acquire load before reusing a slot, so slot
//!   reuse happens-after the consumer finished with it.
//! * **parking handshake** — a producer that must park announces itself
//!   (`parked_producers`, `SeqCst`) *before* re-checking fullness
//!   (`SeqCst` load of `head`); the consumer stores `head` (`SeqCst`)
//!   *before* checking `parked_producers`. Sequential consistency over
//!   these four operations means either the producer sees the freed
//!   space or the consumer sees the parked producer — never neither —
//!   and the waker locks the sleeper's mutex before notifying, so the
//!   wakeup cannot be lost between the re-check and the wait. The
//!   empty-ring consumer park is the mirror image over `tail` and
//!   `consumer_parked`.
//!
//! Every state transition is also reachable without blocking:
//! [`IngressQueue::try_push`] returns [`TryPush::WouldBlock`] (handing the
//! message back) where [`IngressQueue::push`] would wait, and
//! [`IngressQueue::try_pop_batch`] plus [`IngressQueue::is_closed`] cover
//! the consumer side. The deterministic simulation harness drives the
//! queue exclusively through these non-blocking steps, so a seeded
//! scheduler — not the host OS — decides every interleaving; the blocking
//! entry points are thin condvar loops over the same admission logic.
//!
//! Built on `std::sync::{Mutex, Condvar}` — the vendored `parking_lot`
//! shim deliberately exposes no condition variables.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use switchsim::Message;

use crate::config::Backpressure;

/// What a blocking push did. Mirrors [`SubmitOutcome`](crate::SubmitOutcome)
/// minus the synchronous-only backpressure hand-back (a blocked producer
/// really blocks here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued.
    Enqueued,
    /// Enqueued after dropping the oldest queued message.
    EnqueuedAfterShed,
    /// Refused (full queue under [`Backpressure::Reject`], or closed).
    Rejected,
}

/// What a non-blocking push did: [`PushOutcome`] plus the would-block
/// hand-back a cooperative scheduler parks on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TryPush {
    /// Enqueued.
    Enqueued,
    /// Enqueued after dropping the oldest queued message.
    EnqueuedAfterShed,
    /// Refused (full queue under [`Backpressure::Reject`], or closed).
    Rejected,
    /// The queue is full under [`Backpressure::Block`]: the message is
    /// handed back; retry after the consumer pops or the queue closes.
    WouldBlock(Message),
}

/// What a frame-batched push did: per-outcome counts plus the suffix a
/// full ring handed back under [`Backpressure::Block`], in submission
/// order. The counts are exactly what the equivalent sequence of single
/// pushes would have produced, so batch admission is observationally the
/// same state machine, amortized to one tail publication.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BatchPush {
    /// Messages that landed in the ring (including any that a later
    /// message of the same overlong batch immediately shed again).
    pub enqueued: usize,
    /// Queued messages evicted by [`Backpressure::ShedOldest`].
    pub shed: u64,
    /// Messages refused (ring full under [`Backpressure::Reject`], or
    /// closed).
    pub rejected: usize,
    /// The unplaced suffix under [`Backpressure::Block`]: handed back,
    /// counted as nothing (the producer still holds them).
    pub blocked: Vec<Message>,
}

impl BatchPush {
    /// Net change this push made to the number of messages the consumer
    /// will eventually pop: enqueues minus the queued messages shed to
    /// make room for them.
    pub fn in_flight_delta(&self) -> i64 {
        self.enqueued as i64 - self.shed as i64
    }
}

/// Producer-side state, serialized by the producer mutex. `cached_head`
/// lets the common push decide "there is room" without touching the
/// consumer's cache line; the counters fold into the shard's metrics at
/// drain. Counted when a push resolves (enqueued, shed, or rejected) — a
/// would-block hand-back counts nothing, since the producer still holds
/// the message.
#[derive(Debug, Default)]
struct ProducerSide {
    cached_head: u64,
    offered: u64,
    rejected: u64,
    shed: u64,
}

/// Consumer-side state, serialized by the consumer mutex (held by the
/// worker's pops and, rarely, by a shedding producer evicting the
/// oldest entry).
#[derive(Debug, Default)]
struct ConsumerSide {
    cached_tail: u64,
}

/// A bounded ingress ring with pluggable backpressure.
///
/// `close` starts a graceful drain: producers are refused from then on,
/// the consumer keeps popping until the ring is empty, and blocked
/// producers wake immediately.
#[derive(Debug)]
pub struct IngressQueue {
    /// Power-of-two slot array; a slot is owned by the producer side from
    /// head+capacity to tail (filling) and by the consumer side from head
    /// to tail (draining). `Option` so the ring never holds uninitialized
    /// memory.
    slots: Box<[UnsafeCell<Option<Message>>]>,
    /// `slots.len() - 1`; indices are free-running and wrap at 2^64,
    /// which is a multiple of the power-of-two slot count.
    mask: u64,
    /// The logical bound (exact, independent of the physical slot count).
    capacity: usize,
    /// Next index to pop. Written only under the consumer mutex.
    head: AtomicU64,
    /// Next index to fill. Written only under the producer mutex.
    tail: AtomicU64,
    closed: AtomicBool,
    producer: Mutex<ProducerSide>,
    /// Producers parked on a full ring. Mutated only under the producer
    /// mutex; read lock-free by the consumer's wake check.
    parked_producers: AtomicUsize,
    /// Paired with the producer mutex.
    not_full: Condvar,
    consumer: Mutex<ConsumerSide>,
    /// Whether the consumer is parked on an empty ring. Mutated only
    /// under the consumer mutex; read lock-free by the publish check.
    consumer_parked: AtomicBool,
    /// Paired with the consumer mutex.
    not_empty: Condvar,
}

// SAFETY: the `UnsafeCell` slots are the only non-`Sync` state, and every
// access goes through `write_slot` (producer mutex held, index proven free
// by `free_room` or by an eviction under the consumer mutex) or `take_slot`
// (consumer mutex held, index below a `tail` loaded with acquire). The
// head/tail protocol documented above therefore gives each slot exactly
// one accessor at a time. A slot's `Message` moves between the producer and
// consumer threads, which `Message: Send` permits; every other field is an
// atomic, a mutex or a condvar, all `Sync` already.
unsafe impl Sync for IngressQueue {}

impl IngressQueue {
    /// An empty open ring holding at most `capacity` messages.
    ///
    /// # Panics
    /// If `capacity` is zero — a zero-capacity queue could admit nothing
    /// and would deadlock every blocking producer.
    pub fn new(capacity: usize) -> IngressQueue {
        IngressQueue::with_start_index(capacity, 0)
    }

    /// [`IngressQueue::new`], but with head and tail starting at `start`
    /// instead of zero. The ring's behavior must not depend on the
    /// absolute index values (they are free-running and wrap at 2^64);
    /// this hook lets tests start just below `u64::MAX` and drive the
    /// indices across the overflow.
    pub fn with_start_index(capacity: usize, start: u64) -> IngressQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        let physical = capacity.next_power_of_two();
        let slots: Box<[UnsafeCell<Option<Message>>]> =
            (0..physical).map(|_| UnsafeCell::new(None)).collect();
        IngressQueue {
            slots,
            mask: physical as u64 - 1,
            capacity,
            head: AtomicU64::new(start),
            tail: AtomicU64::new(start),
            closed: AtomicBool::new(false),
            producer: Mutex::new(ProducerSide {
                cached_head: start,
                ..ProducerSide::default()
            }),
            parked_producers: AtomicUsize::new(0),
            not_full: Condvar::new(),
            consumer: Mutex::new(ConsumerSide { cached_tail: start }),
            consumer_parked: AtomicBool::new(false),
            not_empty: Condvar::new(),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slot write: producer side only, index in `[head+capacity, tail]`
    /// territory, after the room check.
    ///
    /// # Safety
    /// Caller must hold the producer mutex and have established (via
    /// `free_room`) that `index` is at least `capacity` ahead of every
    /// head value the consumer could still be reading slots under.
    unsafe fn write_slot(&self, index: u64, message: Message) {
        let slot = &mut *self.slots[(index & self.mask) as usize].get();
        debug_assert!(
            slot.is_none(),
            "ring slot {index} overwritten before it was consumed"
        );
        *slot = Some(message);
    }

    /// Slot take: consumer side only, index in `[head, tail)`.
    ///
    /// # Safety
    /// Caller must hold the consumer mutex and have loaded a `tail`
    /// (acquire) proving the slot was published.
    unsafe fn take_slot(&self, index: u64) -> Message {
        (*self.slots[(index & self.mask) as usize].get())
            .take()
            .expect("ring slot published but empty")
    }

    /// Free slots as seen by the producer: first against the cached head
    /// (no shared-state touch), refreshing from the real head (acquire —
    /// pairs with the consumer's head publication, licensing slot reuse)
    /// only when the cache cannot prove `needed` slots are free.
    fn free_room(&self, prod: &mut ProducerSide, tail: u64, needed: usize) -> usize {
        let used = tail.wrapping_sub(prod.cached_head) as usize;
        let room = self.capacity.saturating_sub(used);
        if room >= needed {
            return room;
        }
        prod.cached_head = self.head.load(Ordering::Acquire);
        self.capacity
            .saturating_sub(tail.wrapping_sub(prod.cached_head) as usize)
    }

    /// Publish `new_tail` (making the freshly written slots poppable) and
    /// wake the consumer if it parked on empty. The `SeqCst` store orders
    /// against the parked-flag load — the publication half of the Dekker
    /// handshake; it is also the release store the consumer's acquire
    /// load of `tail` pairs with.
    fn publish_tail(&self, new_tail: u64) {
        self.tail.store(new_tail, Ordering::SeqCst);
        if self.consumer_parked.load(Ordering::SeqCst) {
            // Lock-then-notify: once we hold the consumer mutex the
            // parked consumer is guaranteed to be inside `wait` (it set
            // the flag and re-checked under this mutex), so the notify
            // cannot fall between its re-check and its sleep.
            drop(self.consumer.lock().expect("ingress ring poisoned"));
            self.not_empty.notify_one();
        }
    }

    /// Evict the `count` oldest queued messages (consumer-mutex-serialized
    /// head advance from the producer side). Caller holds the producer
    /// mutex, so `tail` is frozen; taking the consumer mutex orders the
    /// eviction against concurrent pops. Returns how many were evicted.
    fn evict_oldest(&self, count: u64) -> u64 {
        let _cons = self.consumer.lock().expect("ingress ring poisoned");
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let evicted = count.min(tail.wrapping_sub(head));
        for i in 0..evicted {
            // SAFETY: the consumer mutex is held (`_cons`), and
            // `evicted <= tail - head` for the `tail` loaded above, so every
            // index is a published slot.
            drop(unsafe { self.take_slot(head.wrapping_add(i)) });
        }
        self.head
            .store(head.wrapping_add(evicted), Ordering::SeqCst);
        evicted
    }

    /// The batched admission state machine, under the producer mutex: one
    /// room check, one run of slot writes, one tail publication —
    /// observationally identical to pushing each message in order.
    fn admit_batch(
        &self,
        prod: &mut ProducerSide,
        messages: Vec<Message>,
        policy: Backpressure,
    ) -> BatchPush {
        let len = messages.len();
        if len == 0 {
            return BatchPush::default();
        }
        if self.closed.load(Ordering::SeqCst) {
            prod.offered += len as u64;
            prod.rejected += len as u64;
            return BatchPush {
                rejected: len,
                ..BatchPush::default()
            };
        }
        let tail = self.tail.load(Ordering::Relaxed);
        let room = self.free_room(prod, tail, len);
        if len <= room {
            prod.offered += len as u64;
            for (i, message) in messages.into_iter().enumerate() {
                // SAFETY: the producer mutex is held (`prod`), and
                // `i < len <= room` from `free_room`.
                unsafe { self.write_slot(tail.wrapping_add(i as u64), message) };
            }
            self.publish_tail(tail.wrapping_add(len as u64));
            return BatchPush {
                enqueued: len,
                ..BatchPush::default()
            };
        }
        match policy {
            Backpressure::Block => {
                // Place the prefix that fits; hand the rest back
                // uncounted (the producer still holds them).
                prod.offered += room as u64;
                let mut it = messages.into_iter();
                for i in 0..room {
                    let message = it.next().expect("room <= len");
                    // SAFETY: the producer mutex is held (`prod`), and
                    // `i < room` from `free_room`.
                    unsafe { self.write_slot(tail.wrapping_add(i as u64), message) };
                }
                if room > 0 {
                    self.publish_tail(tail.wrapping_add(room as u64));
                }
                BatchPush {
                    enqueued: room,
                    blocked: it.collect(),
                    ..BatchPush::default()
                }
            }
            Backpressure::Reject => {
                prod.offered += len as u64;
                prod.rejected += (len - room) as u64;
                let mut it = messages.into_iter();
                for i in 0..room {
                    let message = it.next().expect("room <= len");
                    // SAFETY: the producer mutex is held (`prod`), and
                    // `i < room` from `free_room`.
                    unsafe { self.write_slot(tail.wrapping_add(i as u64), message) };
                }
                if room > 0 {
                    self.publish_tail(tail.wrapping_add(room as u64));
                }
                BatchPush {
                    enqueued: room,
                    rejected: len - room,
                    ..BatchPush::default()
                }
            }
            Backpressure::ShedOldest => {
                // Sequentially, every message of the batch enqueues and
                // each overflow push sheds the then-oldest entry — which,
                // for a batch longer than the ring, is an *earlier
                // message of the same batch*. The net state (the batch's
                // last `capacity` messages) and the counters are
                // identical; the physical shortcut just skips writing
                // messages the batch itself would immediately evict.
                prod.offered += len as u64;
                let shed = if len >= self.capacity {
                    let evicted = self.evict_oldest(self.capacity as u64);
                    evicted + (len - self.capacity) as u64
                } else {
                    self.evict_oldest((len - room) as u64)
                };
                prod.cached_head = self.head.load(Ordering::Acquire);
                prod.shed += shed;
                let skip = len.saturating_sub(self.capacity);
                for (i, message) in messages.into_iter().skip(skip).enumerate() {
                    // SAFETY: the producer mutex is held (`prod`), and the
                    // eviction above (under the consumer mutex) left at
                    // least `len - skip` slots free past `tail`.
                    unsafe { self.write_slot(tail.wrapping_add(i as u64), message) };
                }
                self.publish_tail(tail.wrapping_add((len - skip) as u64));
                BatchPush {
                    enqueued: len,
                    shed,
                    ..BatchPush::default()
                }
            }
        }
    }

    /// One single-message admission attempt under the producer mutex —
    /// the same state machine the blocking and non-blocking push share
    /// (and the single-message specialization of [`Self::admit_batch`],
    /// with no per-message allocation).
    fn admit(&self, prod: &mut ProducerSide, message: Message, policy: Backpressure) -> TryPush {
        if self.closed.load(Ordering::SeqCst) {
            prod.offered += 1;
            prod.rejected += 1;
            return TryPush::Rejected;
        }
        let tail = self.tail.load(Ordering::Relaxed);
        if self.free_room(prod, tail, 1) == 0 {
            match policy {
                Backpressure::Block => return TryPush::WouldBlock(message),
                Backpressure::Reject => {
                    prod.offered += 1;
                    prod.rejected += 1;
                    return TryPush::Rejected;
                }
                Backpressure::ShedOldest => {
                    let evicted = self.evict_oldest(1);
                    prod.cached_head = self.head.load(Ordering::Acquire);
                    prod.offered += 1;
                    prod.shed += evicted;
                    // SAFETY: the producer mutex is held (`prod`), and the
                    // one-slot eviction (or a concurrent pop) freed `tail`.
                    unsafe { self.write_slot(tail, message) };
                    self.publish_tail(tail.wrapping_add(1));
                    return if evicted > 0 {
                        TryPush::EnqueuedAfterShed
                    } else {
                        // The consumer drained the ring between the room
                        // check and the eviction: plain enqueue after all.
                        TryPush::Enqueued
                    };
                }
            }
        }
        prod.offered += 1;
        // SAFETY: the producer mutex is held (`prod`), and `free_room`
        // reported at least one free slot at `tail`.
        unsafe { self.write_slot(tail, message) };
        self.publish_tail(tail.wrapping_add(1));
        TryPush::Enqueued
    }

    /// Park on the full ring until the consumer frees space or the queue
    /// closes. The Dekker handshake: announce (`SeqCst`), re-check
    /// fullness and close (`SeqCst` loads), and only then wait — the
    /// consumer's head publication and parked-count check are the
    /// mirror-image `SeqCst` pair, so one side always sees the other.
    fn park_producer<'a>(
        &'a self,
        prod: MutexGuard<'a, ProducerSide>,
    ) -> MutexGuard<'a, ProducerSide> {
        let mut prod = prod;
        self.parked_producers.fetch_add(1, Ordering::SeqCst);
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::SeqCst);
        if tail.wrapping_sub(head) as usize >= self.capacity && !self.closed.load(Ordering::SeqCst)
        {
            prod = self.not_full.wait(prod).expect("ingress ring poisoned");
        }
        self.parked_producers.fetch_sub(1, Ordering::SeqCst);
        prod
    }

    /// Push one message under `policy` without ever blocking. Where
    /// [`IngressQueue::push`] would wait, this hands the message back as
    /// [`TryPush::WouldBlock`] and counts nothing.
    pub fn try_push(&self, message: Message, policy: Backpressure) -> TryPush {
        let mut prod = self.producer.lock().expect("ingress ring poisoned");
        self.admit(&mut prod, message, policy)
    }

    /// Push a whole frame of messages under `policy` without blocking:
    /// one room check and one tail publication for the run that fits.
    /// Under [`Backpressure::Block`] the suffix that does not fit comes
    /// back in [`BatchPush::blocked`], uncounted.
    pub fn try_push_batch(&self, messages: Vec<Message>, policy: Backpressure) -> BatchPush {
        let mut prod = self.producer.lock().expect("ingress ring poisoned");
        self.admit_batch(&mut prod, messages, policy)
    }

    /// Push one message under `policy`. [`Backpressure::Block`] waits for
    /// space (or for close, which rejects).
    pub fn push(&self, message: Message, policy: Backpressure) -> PushOutcome {
        let mut prod = self.producer.lock().expect("ingress ring poisoned");
        let mut message = message;
        loop {
            match self.admit(&mut prod, message, policy) {
                TryPush::Enqueued => return PushOutcome::Enqueued,
                TryPush::EnqueuedAfterShed => return PushOutcome::EnqueuedAfterShed,
                TryPush::Rejected => return PushOutcome::Rejected,
                TryPush::WouldBlock(held) => {
                    message = held;
                    prod = self.park_producer(prod);
                }
            }
        }
    }

    /// Push a whole frame under `policy`, waiting under
    /// [`Backpressure::Block`] until every message is placed (or the
    /// queue closes, which rejects the remainder). Returns the merged
    /// counts; [`BatchPush::blocked`] is always empty.
    pub fn push_batch(&self, messages: Vec<Message>, policy: Backpressure) -> BatchPush {
        let mut prod = self.producer.lock().expect("ingress ring poisoned");
        let mut remaining = messages;
        let mut total = BatchPush::default();
        loop {
            let step = self.admit_batch(&mut prod, remaining, policy);
            total.enqueued += step.enqueued;
            total.shed += step.shed;
            total.rejected += step.rejected;
            if step.blocked.is_empty() {
                return total;
            }
            remaining = step.blocked;
            prod = self.park_producer(prod);
        }
    }

    /// Pop up to `max` messages, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed **and** empty.
    pub fn pop_batch_blocking(&self, max: usize) -> Option<Vec<Message>> {
        let mut cons = self.consumer.lock().expect("ingress ring poisoned");
        loop {
            let batch = self.take(&mut cons, max);
            if !batch.is_empty() {
                drop(cons);
                self.wake_parked_producers();
                return Some(batch);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            // Announce-then-recheck, mirroring the producer park: a
            // publisher either sees the flag (and lock-then-notifies) or
            // published before our SeqCst tail load (and we see the data).
            self.consumer_parked.store(true, Ordering::SeqCst);
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::SeqCst);
            if tail == head && !self.closed.load(Ordering::SeqCst) {
                cons = self.not_empty.wait(cons).expect("ingress ring poisoned");
            }
            self.consumer_parked.store(false, Ordering::SeqCst);
        }
    }

    /// Pop up to `max` messages without blocking; an empty vec means the
    /// queue is currently empty (open or closed).
    pub fn try_pop_batch(&self, max: usize) -> Vec<Message> {
        let batch = {
            let mut cons = self.consumer.lock().expect("ingress ring poisoned");
            self.take(&mut cons, max)
        };
        if !batch.is_empty() {
            self.wake_parked_producers();
        }
        batch
    }

    /// Drain up to `max` slots under the consumer mutex and publish the
    /// new head (`SeqCst`: the release half of the reuse pairing *and*
    /// the store half of the parked-producer handshake).
    fn take(&self, cons: &mut ConsumerSide, max: usize) -> Vec<Message> {
        let head = self.head.load(Ordering::Relaxed);
        // The cache is stale when it shows nothing to pop — or when a
        // shedding producer advanced head past it, leaving an impossible
        // (wrapped) distance.
        let cached = cons.cached_tail.wrapping_sub(head) as usize;
        if cached == 0 || cached > self.capacity {
            cons.cached_tail = self.tail.load(Ordering::Acquire);
        }
        let count = (cons.cached_tail.wrapping_sub(head) as usize).min(max);
        let mut batch = Vec::with_capacity(count);
        for i in 0..count {
            // SAFETY: the consumer mutex is held (`cons`), and
            // `count <= cached_tail - head`, a tail loaded with acquire.
            batch.push(unsafe { self.take_slot(head.wrapping_add(i as u64)) });
        }
        if count > 0 {
            self.head
                .store(head.wrapping_add(count as u64), Ordering::SeqCst);
        }
        batch
    }

    /// The consumer's half of the full-ring handshake: after publishing
    /// the freed space, wake any parked producer (never called with the
    /// consumer mutex held — the waker locks the producer mutex, and
    /// producer-then-consumer is the fixed lock order everywhere else).
    fn wake_parked_producers(&self) {
        if self.parked_producers.load(Ordering::SeqCst) > 0 {
            drop(self.producer.lock().expect("ingress ring poisoned"));
            self.not_full.notify_all();
        }
    }

    /// Close the queue: producers are refused from now on (blocked ones
    /// wake and get [`PushOutcome::Rejected`]); the consumer drains what
    /// remains.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Lock-then-notify on both sides so no sleeper can miss the flag
        // between its re-check and its wait.
        drop(self.producer.lock().expect("ingress ring poisoned"));
        self.not_full.notify_all();
        drop(self.consumer.lock().expect("ingress ring poisoned"));
        self.not_empty.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Whether a [`TryPush`] right now could resolve without blocking:
    /// there is headroom, the policy makes room, or close would reject.
    /// The simulation scheduler's readiness predicate for a parked
    /// producer.
    pub fn would_accept(&self, policy: Backpressure) -> bool {
        self.closed.load(Ordering::SeqCst)
            || self.len() < self.capacity
            || !matches!(policy, Backpressure::Block)
    }

    /// Messages currently queued. Loads head before tail so a concurrent
    /// pop can only make the estimate high, never wrap it negative.
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        tail.wrapping_sub(head) as usize
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer-side counters `(offered, rejected, shed)` accumulated so
    /// far; the service folds these into the shard's metrics exactly once
    /// per snapshot (see `ServiceCore::fold_queue_counters`).
    pub fn counters(&self) -> (u64, u64, u64) {
        let prod = self.producer.lock().expect("ingress ring poisoned");
        (prod.offered, prod.rejected, prod.shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn msg(id: u64) -> Message {
        Message::new(id, 0, vec![id as u8])
    }

    fn ids(batch: &[Message]) -> Vec<u64> {
        batch.iter().map(|m| m.id).collect()
    }

    #[test]
    fn fifo_order_and_batch_pop() {
        let q = IngressQueue::new(8);
        for i in 0..5 {
            assert_eq!(q.push(msg(i), Backpressure::Reject), PushOutcome::Enqueued);
        }
        let batch = q.try_pop_batch(3);
        assert_eq!(ids(&batch), vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn reject_and_shed_at_capacity() {
        let q = IngressQueue::new(2);
        q.push(msg(0), Backpressure::Reject);
        q.push(msg(1), Backpressure::Reject);
        assert_eq!(q.push(msg(2), Backpressure::Reject), PushOutcome::Rejected);
        assert_eq!(
            q.push(msg(3), Backpressure::ShedOldest),
            PushOutcome::EnqueuedAfterShed
        );
        assert_eq!(ids(&q.try_pop_batch(9)), vec![1, 3]);
        assert_eq!(q.counters(), (4, 1, 1));
    }

    #[test]
    #[should_panic(expected = "queue capacity must be positive")]
    fn zero_capacity_queue_is_refused() {
        IngressQueue::new(0);
    }

    /// The deterministic equivalent of the old sleep-based
    /// "blocked producer wakes on pop" test: the would-block hand-back,
    /// a pop, and the retry are explicit steps — no threads, no timing.
    #[test]
    fn would_block_hand_back_then_enqueue_after_pop() {
        let q = IngressQueue::new(1);
        assert_eq!(q.try_push(msg(0), Backpressure::Block), TryPush::Enqueued);
        assert!(!q.would_accept(Backpressure::Block));
        let held = match q.try_push(msg(1), Backpressure::Block) {
            TryPush::WouldBlock(held) => held,
            other => panic!("expected would-block, got {other:?}"),
        };
        // A hand-back counts nothing: the producer still holds the message.
        assert_eq!(q.counters(), (1, 0, 0));
        assert_eq!(q.try_pop_batch(1).len(), 1);
        assert!(q.would_accept(Backpressure::Block));
        assert_eq!(q.try_push(held, Backpressure::Block), TryPush::Enqueued);
        assert_eq!(q.counters(), (2, 0, 0));
        assert_eq!(q.try_pop_batch(9)[0].id, 1);
    }

    /// Deterministic close-while-blocked: a parked producer's retry after
    /// close resolves to rejection, with the queue still full.
    #[test]
    fn close_while_blocked_rejects_the_retry() {
        let q = IngressQueue::new(1);
        q.try_push(msg(0), Backpressure::Block);
        let held = match q.try_push(msg(1), Backpressure::Block) {
            TryPush::WouldBlock(held) => held,
            other => panic!("expected would-block, got {other:?}"),
        };
        q.close();
        assert!(q.is_closed());
        // Close makes every parked producer ready: the retry resolves.
        assert!(q.would_accept(Backpressure::Block));
        assert_eq!(q.try_push(held, Backpressure::Block), TryPush::Rejected);
        assert_eq!(q.counters(), (2, 1, 0));
    }

    /// Drain-after-close: the consumer empties the backlog, then reads the
    /// closed-and-empty terminal state from both pop entry points.
    #[test]
    fn drain_after_close_yields_backlog_then_none() {
        let q = IngressQueue::new(4);
        for i in 0..3 {
            q.push(msg(i), Backpressure::Block);
        }
        q.close();
        assert_eq!(q.try_push(msg(9), Backpressure::Block), TryPush::Rejected);
        assert_eq!(ids(&q.try_pop_batch(2)), vec![0, 1]);
        assert_eq!(q.pop_batch_blocking(4).map(|b| b.len()), Some(1));
        assert_eq!(q.pop_batch_blocking(4), None);
        assert!(q.try_pop_batch(4).is_empty());
    }

    #[test]
    fn try_push_matches_push_for_shed_and_reject() {
        let q = IngressQueue::new(1);
        q.try_push(msg(0), Backpressure::Reject);
        assert_eq!(q.try_push(msg(1), Backpressure::Reject), TryPush::Rejected);
        assert_eq!(
            q.try_push(msg(2), Backpressure::ShedOldest),
            TryPush::EnqueuedAfterShed
        );
        assert_eq!(q.try_pop_batch(9)[0].id, 2);
        assert_eq!(q.counters(), (3, 1, 1));
    }

    /// A capacity-1 ring (the degenerate SPSC case: one physical slot,
    /// head and tail always within one of each other) cycles correctly
    /// through every policy.
    #[test]
    fn capacity_one_ring_cycles_through_all_policies() {
        let q = IngressQueue::new(1);
        assert_eq!(q.capacity(), 1);
        for round in 0..3u64 {
            assert_eq!(
                q.try_push(msg(round), Backpressure::Block),
                TryPush::Enqueued
            );
            assert!(matches!(
                q.try_push(msg(100 + round), Backpressure::Block),
                TryPush::WouldBlock(_)
            ));
            assert_eq!(
                q.try_push(msg(200 + round), Backpressure::Reject),
                TryPush::Rejected
            );
            assert_eq!(
                q.try_push(msg(300 + round), Backpressure::ShedOldest),
                TryPush::EnqueuedAfterShed
            );
            assert_eq!(ids(&q.try_pop_batch(9)), vec![300 + round]);
        }
        // Per round: block-enqueue, reject, shed-enqueue resolve (3
        // offered); the would-block hand-back counts nothing.
        assert_eq!(q.counters(), (9, 3, 3));
    }

    /// Free-running indices must survive the u64 overflow: start both
    /// indices just below `u64::MAX` and push/pop across the wrap. FIFO
    /// order, lengths, and counters are index-invariant.
    #[test]
    fn wrap_around_across_index_overflow() {
        for capacity in [1usize, 2, 3, 4] {
            let q = IngressQueue::with_start_index(capacity, u64::MAX - 2);
            let mut next_push = 0u64;
            let mut next_pop = 0u64;
            // Enough traffic to carry head and tail well past the wrap.
            for _ in 0..4 {
                while q.len() < capacity {
                    assert_eq!(
                        q.try_push(msg(next_push), Backpressure::Block),
                        TryPush::Enqueued
                    );
                    next_push += 1;
                }
                assert!(matches!(
                    q.try_push(msg(u64::MAX), Backpressure::Block),
                    TryPush::WouldBlock(_)
                ));
                for m in q.try_pop_batch(capacity) {
                    assert_eq!(m.id, next_pop, "FIFO broke across the index wrap");
                    next_pop += 1;
                }
            }
            assert_eq!(next_pop, next_push);
            assert!(q.is_empty());
            assert_eq!(q.counters(), (next_push, 0, 0));
        }
    }

    /// A frame burst larger than the ring under every policy: Block
    /// places the prefix and hands back the suffix uncounted; Reject
    /// counts the overflow; ShedOldest keeps exactly the batch's last
    /// `capacity` messages and accounts every eviction.
    #[test]
    fn batch_larger_than_ring_capacity() {
        let burst = |range: std::ops::Range<u64>| range.map(msg).collect::<Vec<_>>();

        let q = IngressQueue::new(4);
        q.push(msg(90), Backpressure::Block);
        let result = q.try_push_batch(burst(0..10), Backpressure::Block);
        assert_eq!(result.enqueued, 3);
        assert_eq!(ids(&result.blocked), vec![3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(result.in_flight_delta(), 3);
        assert_eq!(q.counters(), (4, 0, 0), "hand-backs count nothing");
        assert_eq!(ids(&q.try_pop_batch(9)), vec![90, 0, 1, 2]);

        let q = IngressQueue::new(4);
        q.push(msg(90), Backpressure::Block);
        let result = q.try_push_batch(burst(0..10), Backpressure::Reject);
        assert_eq!((result.enqueued, result.rejected), (3, 7));
        assert_eq!(q.counters(), (11, 7, 0));
        assert_eq!(ids(&q.try_pop_batch(9)), vec![90, 0, 1, 2]);

        let q = IngressQueue::new(4);
        q.push(msg(90), Backpressure::Block);
        let result = q.try_push_batch(burst(0..10), Backpressure::ShedOldest);
        // Sequentially all 10 enqueue; the pre-existing message and the
        // batch's first 6 get shed along the way: net +3 in flight.
        assert_eq!((result.enqueued, result.shed), (10, 7));
        assert_eq!(result.in_flight_delta(), 3);
        assert_eq!(q.counters(), (11, 0, 7));
        assert_eq!(ids(&q.try_pop_batch(9)), vec![6, 7, 8, 9]);
    }

    /// A batch that exactly fits spends one publication and keeps order;
    /// a partial overflow under ShedOldest evicts only the overflow.
    #[test]
    fn batch_push_partial_overflow_sheds_exactly_the_overflow() {
        let q = IngressQueue::new(4);
        let result = q.try_push_batch((0..2).map(msg).collect(), Backpressure::ShedOldest);
        assert_eq!((result.enqueued, result.shed), (2, 0));
        let result = q.try_push_batch((2..6).map(msg).collect(), Backpressure::ShedOldest);
        assert_eq!((result.enqueued, result.shed), (4, 2));
        assert_eq!(q.counters(), (6, 0, 2));
        assert_eq!(ids(&q.try_pop_batch(9)), vec![2, 3, 4, 5]);
    }

    /// Close-while-full under each policy: the producer's next attempt is
    /// rejected (never shed, never blocked), the backlog stays intact,
    /// and the counters charge the rejection exactly once.
    #[test]
    fn close_while_full_rejects_under_every_policy() {
        for policy in [
            Backpressure::Block,
            Backpressure::ShedOldest,
            Backpressure::Reject,
        ] {
            let q = IngressQueue::new(2);
            q.push(msg(0), Backpressure::Block);
            q.push(msg(1), Backpressure::Block);
            q.close();
            assert_eq!(q.try_push(msg(2), policy), TryPush::Rejected, "{policy:?}");
            assert!(q.would_accept(policy), "{policy:?}: close resolves parks");
            let batch = q.try_push_batch(vec![msg(3), msg(4)], policy);
            assert_eq!((batch.enqueued, batch.rejected), (0, 2), "{policy:?}");
            assert_eq!(q.counters(), (5, 3, 0), "{policy:?}");
            assert_eq!(ids(&q.try_pop_batch(9)), vec![0, 1], "{policy:?}");
            assert_eq!(q.pop_batch_blocking(4), None, "{policy:?}");
        }
    }

    /// Threaded smoke test of the real condvar path — no sleeps: whichever
    /// side runs first, the blocking producer must land its message once
    /// the consumer makes room.
    #[test]
    fn blocking_producer_and_consumer_make_progress() {
        let q = Arc::new(IngressQueue::new(1));
        q.push(msg(0), Backpressure::Block);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(msg(1), Backpressure::Block))
        };
        // Pop exactly one message; the producer fills the freed slot
        // (before or after we pop — both orders end identically).
        let popped = q.pop_batch_blocking(1).expect("open queue yields batch");
        assert_eq!(popped.len(), 1);
        assert_eq!(producer.join().unwrap(), PushOutcome::Enqueued);
        assert_eq!(q.len(), 1);
    }

    /// Threaded smoke test: close wakes a producer stuck on a full queue
    /// with a rejection (or rejects it on entry — either order is a
    /// rejection), and the consumer still drains the backlog.
    #[test]
    fn close_terminates_blocking_producer_with_rejection() {
        let q = Arc::new(IngressQueue::new(1));
        q.push(msg(0), Backpressure::Block);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(msg(1), Backpressure::Block))
        };
        q.close();
        assert_eq!(producer.join().unwrap(), PushOutcome::Rejected);
        assert_eq!(q.pop_batch_blocking(4).map(|b| b.len()), Some(1));
        assert_eq!(q.pop_batch_blocking(4), None);
    }

    /// Threaded smoke test: a consumer parked on an empty queue is woken
    /// by the first push, without any timing assumptions.
    #[test]
    fn consumer_wakes_on_push() {
        let q = Arc::new(IngressQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch_blocking(4))
        };
        q.push(msg(7), Backpressure::Block);
        let batch = consumer.join().unwrap().expect("open queue yields batch");
        assert_eq!(batch[0].id, 7);
    }

    /// Threaded smoke test: a parked consumer is woken by a batched
    /// publication (one tail store for the whole frame), and a blocking
    /// batch producer lands an oversized frame as the consumer drains —
    /// no sleeps, both sides keyed purely on queue state.
    #[test]
    fn batched_publication_wakes_consumer_and_blocking_batch_completes() {
        let q = Arc::new(IngressQueue::new(2));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.pop_batch_blocking(2) {
                    seen.extend(ids(&batch));
                }
                seen
            })
        };
        let result = q.push_batch((0..7).map(msg).collect(), Backpressure::Block);
        assert_eq!(result.enqueued, 7);
        assert!(result.blocked.is_empty());
        q.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6], "FIFO across parks");
        assert_eq!(q.counters(), (7, 0, 0));
    }
}

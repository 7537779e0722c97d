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
//! * **spin, then park** — a producer that must park announces itself
//!   (`parked_producers`, `SeqCst`) *before* re-checking fullness
//!   (`SeqCst` load of `head`); the consumer stores `head` (`SeqCst`)
//!   *before* checking `parked_producers`. Sequential consistency over
//!   these four operations means either the producer sees the freed
//!   space or the consumer sees the parked producer — never neither —
//!   and the waker locks the sleeper's mutex before notifying, so the
//!   wakeup cannot be lost between the re-check and the wait. The
//!   empty-ring consumer park is the mirror image over `tail` and
//!   `consumer_parked`. Before it parks, the consumer first spins on
//!   `tail` (acquire loads, yielding its CPU every 32 spins) for at
//!   most `SPIN_BUDGET` (100 µs), holding one of the process-wide spin
//!   slots (one fewer than the process's CPUs):
//!   a frame that lands within the budget is taken without a futex
//!   wake-up, and a spin that runs out falls through to the unchanged
//!   park. The spin publishes nothing, so the handshake's argument is
//!   untouched.
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
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use switchsim::Message;

use crate::config::Backpressure;

/// How long a consumer that finds its ring empty spins on `tail` before
/// it parks. The `open-64` serving workload (a frame every 60 µs, about
/// 15–19 µs of work each, so a ~40 µs idle gap) read this
/// `latency_p50_us` on a 2-core host, median and range of four 8 s runs
/// per budget, the budgets taking turns:
///
/// | budget | p50 (µs) |
/// |---|---|
/// | 0 (park at once) | 22.8 (21.1–23.2) |
/// | 20 µs | 22.1 (19.6–27.1) |
/// | 50 µs | 13.7 (12.8–15.2) |
/// | 100 µs | 13.5 (12.2–14.2) |
/// | 200 µs | 13.7 (11.7–15.0) |
///
/// A spin shorter than the idle gap still ends in the same futex
/// wake-up, so it gains nothing; from 50 µs on, the next frame lands
/// while the consumer spins. 100 µs keeps a 2× margin over the gap.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// A spinning consumer yields its CPU once every this many spins (a few
/// µs). On a CPU with nothing else to run the yield returns at once, but
/// where more threads are runnable than there are CPUs (76 `TierService`
/// workers on 2 cores) the spin gives way to them instead of taking a
/// core from real work: `tier_bench` read a median 55.8k tree msgs/s
/// spinning without yields against 64.7k for the parent, and 67.4k
/// yielding on every spin. Yielding every 32 spins kept that (92.3k
/// against 88.5k for every spin, in a faster phase of the host) and
/// `open-64`'s p50 as without yields (12.9 µs both, parent 21.7).
const SPINS_PER_YIELD: u32 = 32;

/// Slots for consumers spinning at once, shared by every ring of the
/// process, so that spinners never hold every CPU a producer could run
/// on. A consumer that gets no slot parks at once.
struct SpinSlots {
    spinning: AtomicUsize,
    /// The most consumers ever seen spinning at once.
    #[cfg(test)]
    most: AtomicUsize,
}

impl SpinSlots {
    const fn new() -> SpinSlots {
        SpinSlots {
            spinning: AtomicUsize::new(0),
            #[cfg(test)]
            most: AtomicUsize::new(0),
        }
    }

    /// Take a slot if fewer than `cap` are taken.
    fn acquire(&self, cap: usize) -> bool {
        let taken = self
            .spinning
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            });
        #[cfg(test)]
        if let Ok(before) = taken {
            self.most.fetch_max(before + 1, Ordering::Relaxed);
        }
        taken.is_ok()
    }

    fn release(&self) {
        self.spinning.fetch_sub(1, Ordering::Release);
    }
}

static SPIN_SLOTS: SpinSlots = SpinSlots::new();

/// How many consumers may spin at once: one fewer than the CPUs the
/// process may use, so a one-CPU process never spins. Counted once per
/// process (see [`process_cpus`]); after that each wait pays one load.
fn spin_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| process_cpus().saturating_sub(1))
}

/// The CPUs this process may use. On Linux `available_parallelism`
/// counts the *calling thread's* affinity mask (then clips it to the
/// cgroup CPU quota), so a thread pinned to one CPU reads 1 however many
/// the process owns. The count is therefore taken on a short-lived
/// thread that first widens its own mask to every CPU, which the kernel
/// clips to the process's cpuset. A process confined to one CPU by its
/// cpuset or its quota reads 1; one whose threads merely all pinned
/// themselves to the same CPU reads its cpuset. Where the probe thread
/// cannot start, the caller's own count stands.
#[cfg(target_os = "linux")]
fn process_cpus() -> usize {
    extern "C" {
        /// Restrict thread `pid` (0: the caller) to the CPUs in `mask`.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let probe = std::thread::Builder::new().spawn(|| {
        // The C library's `cpu_set_t` size (1024 CPUs); the kernel
        // ignores bits past its own CPU count.
        let every_cpu = [u64::MAX; 16];
        // SAFETY: `every_cpu` is a readable buffer of exactly the size
        // passed, and pid 0 names this probe thread, whose mask nothing
        // else depends on. On failure the mask stays as inherited.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&every_cpu), every_cpu.as_ptr());
        }
        caller_cpus()
    });
    probe
        .ok()
        .and_then(|thread| thread.join().ok())
        .unwrap_or_else(caller_cpus)
}

#[cfg(not(target_os = "linux"))]
fn process_cpus() -> usize {
    caller_cpus()
}

/// `available_parallelism` as seen from the calling thread.
fn caller_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

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
    /// Times the consumer announced a park on an empty ring.
    #[cfg(test)]
    consumer_parks: AtomicUsize,
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
            #[cfg(test)]
            consumer_parks: AtomicUsize::new(0),
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
    ///
    /// On an empty open ring the consumer spins for up to 100 µs if it
    /// gets a process-wide spin slot, and parks on the condvar only if
    /// nothing lands meanwhile.
    pub fn pop_batch_blocking(&self, max: usize) -> Option<Vec<Message>> {
        self.pop_batch_spin_then_park(max, SPIN_BUDGET, &SPIN_SLOTS, spin_cap())
    }

    /// [`Self::pop_batch_blocking`] with the spin budget, the slots and
    /// their cap passed in, so tests can set all three.
    fn pop_batch_spin_then_park(
        &self,
        max: usize,
        budget: Duration,
        slots: &SpinSlots,
        cap: usize,
    ) -> Option<Vec<Message>> {
        let mut cons = self.consumer.lock().expect("ingress ring poisoned");
        let mut spun = false;
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
            // Spin once per wait, without the consumer mutex (a shedding
            // producer or `close` may need it meanwhile); `take` and the
            // close check above then run again under it.
            if !spun {
                spun = true;
                if slots.acquire(cap) {
                    drop(cons);
                    self.spin_while_empty(budget);
                    slots.release();
                    cons = self.consumer.lock().expect("ingress ring poisoned");
                    continue;
                }
            }
            #[cfg(test)]
            self.consumer_parks.fetch_add(1, Ordering::Relaxed);
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

    /// Spin until a publication lands (acquire load of `tail`), the
    /// queue closes, or `budget` runs out, yielding every
    /// [`SPINS_PER_YIELD`] spins.
    fn spin_while_empty(&self, budget: Duration) {
        let start = Instant::now();
        let mut spins = 0u32;
        while self.tail.load(Ordering::Acquire) == self.head.load(Ordering::Relaxed)
            && !self.closed.load(Ordering::Acquire)
            && start.elapsed() < budget
        {
            spin_loop();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                std::thread::yield_now();
            }
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

    /// A spin budget no test outlasts: a spinning consumer in these tests
    /// leaves its spin only through a push or a close, never by timing.
    const FOREVER: Duration = Duration::from_secs(600);

    /// The consumer-side configurations every wake-up test runs under:
    /// no spin slot (park at once), and one slot with a spin budget.
    fn consumer_modes() -> [(usize, Duration); 2] {
        [(0, FOREVER), (1, SPIN_BUDGET)]
    }

    /// Yield until `ready` holds: a handshake on queue state, not a
    /// timed wait.
    fn wait_until(ready: impl Fn() -> bool) {
        while !ready() {
            std::thread::yield_now();
        }
    }

    /// Threaded smoke test: a consumer waiting on an empty queue is woken
    /// by the first push, without any timing assumptions — parked at
    /// once, or spinning first.
    #[test]
    fn consumer_wakes_on_push() {
        for (cap, budget) in consumer_modes() {
            let q = Arc::new(IngressQueue::new(4));
            let slots = Arc::new(SpinSlots::new());
            let consumer = {
                let (q, slots) = (Arc::clone(&q), Arc::clone(&slots));
                std::thread::spawn(move || q.pop_batch_spin_then_park(4, budget, &slots, cap))
            };
            q.push(msg(7), Backpressure::Block);
            let batch = consumer.join().unwrap().expect("open queue yields batch");
            assert_eq!(batch[0].id, 7, "cap {cap}");
        }
    }

    /// Threaded smoke test: a waiting consumer is woken by a batched
    /// publication (one tail store for the whole frame), and a blocking
    /// batch producer lands an oversized frame as the consumer drains —
    /// no sleeps, both sides keyed purely on queue state, with and
    /// without the spin.
    #[test]
    fn batched_publication_wakes_consumer_and_blocking_batch_completes() {
        for (cap, budget) in consumer_modes() {
            let q = Arc::new(IngressQueue::new(2));
            let slots = Arc::new(SpinSlots::new());
            let consumer = {
                let (q, slots) = (Arc::clone(&q), Arc::clone(&slots));
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(batch) = q.pop_batch_spin_then_park(2, budget, &slots, cap) {
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
            assert_eq!(
                seen,
                vec![0, 1, 2, 3, 4, 5, 6],
                "FIFO across parks, cap {cap}"
            );
            assert_eq!(q.counters(), (7, 0, 0));
            assert_eq!(slots.spinning.load(Ordering::SeqCst), 0, "slot released");
        }
    }

    /// A push that lands while the consumer spins is taken straight
    /// away: the consumer never announces a park.
    #[test]
    fn push_during_spin_is_taken_without_parking() {
        let q = Arc::new(IngressQueue::new(4));
        let slots = Arc::new(SpinSlots::new());
        let consumer = {
            let (q, slots) = (Arc::clone(&q), Arc::clone(&slots));
            std::thread::spawn(move || q.pop_batch_spin_then_park(4, FOREVER, &slots, 1))
        };
        wait_until(|| slots.spinning.load(Ordering::SeqCst) == 1);
        q.push(msg(3), Backpressure::Block);
        let batch = consumer.join().unwrap().expect("open queue yields batch");
        assert_eq!(ids(&batch), vec![3]);
        assert_eq!(q.consumer_parks.load(Ordering::SeqCst), 0);
        assert_eq!(slots.spinning.load(Ordering::SeqCst), 0, "slot released");
    }

    /// `close` during the spin ends the wait with the closed-and-empty
    /// `None`, again without a park.
    #[test]
    fn close_during_spin_returns_none() {
        let q = Arc::new(IngressQueue::new(4));
        let slots = Arc::new(SpinSlots::new());
        let consumer = {
            let (q, slots) = (Arc::clone(&q), Arc::clone(&slots));
            std::thread::spawn(move || q.pop_batch_spin_then_park(4, FOREVER, &slots, 1))
        };
        wait_until(|| slots.spinning.load(Ordering::SeqCst) == 1);
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.consumer_parks.load(Ordering::SeqCst), 0);
    }

    /// With no spin slot to take (cap 0, as in a one-CPU process) the
    /// consumer parks at once, however long its budget.
    #[test]
    fn cap_zero_parks_at_once() {
        let q = Arc::new(IngressQueue::new(4));
        let slots = Arc::new(SpinSlots::new());
        let consumer = {
            let (q, slots) = (Arc::clone(&q), Arc::clone(&slots));
            std::thread::spawn(move || q.pop_batch_spin_then_park(4, FOREVER, &slots, 0))
        };
        wait_until(|| q.consumer_parked.load(Ordering::SeqCst));
        q.push(msg(5), Backpressure::Block);
        let batch = consumer.join().unwrap().expect("open queue yields batch");
        assert_eq!(ids(&batch), vec![5]);
        assert_eq!(q.consumer_parks.load(Ordering::SeqCst), 1);
        assert_eq!(slots.most.load(Ordering::SeqCst), 0, "nobody spun");
    }

    /// The spin cap counts the process's CPUs, which are never fewer
    /// than the calling thread's, and is read once: one fewer than them.
    #[test]
    fn spin_cap_is_one_fewer_than_the_process_cpus() {
        let caller = caller_cpus();
        let cpus = process_cpus();
        assert!(cpus >= caller, "process {cpus} < caller {caller}");
        assert_eq!(spin_cap(), cpus - 1);
    }

    /// K consumers start waiting on K empty rings at once under cap 1:
    /// exactly one spins, the rest park, and the high-water mark never
    /// passes one.
    #[test]
    fn spin_cap_bounds_concurrent_spinners() {
        const K: usize = 4;
        let queues: Vec<_> = (0..K).map(|_| Arc::new(IngressQueue::new(4))).collect();
        let slots = Arc::new(SpinSlots::new());
        let start = Arc::new(std::sync::Barrier::new(K + 1));
        let consumers: Vec<_> = queues
            .iter()
            .map(|q| {
                let (q, slots, start) = (Arc::clone(q), Arc::clone(&slots), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    q.pop_batch_spin_then_park(4, FOREVER, &slots, 1)
                })
            })
            .collect();
        start.wait();
        wait_until(|| {
            slots.spinning.load(Ordering::SeqCst) == 1
                && queues
                    .iter()
                    .filter(|q| q.consumer_parked.load(Ordering::SeqCst))
                    .count()
                    == K - 1
        });
        for q in &queues {
            q.close();
        }
        for consumer in consumers {
            assert_eq!(consumer.join().unwrap(), None);
        }
        assert_eq!(slots.most.load(Ordering::SeqCst), 1);
        let parks: usize = queues
            .iter()
            .map(|q| q.consumer_parks.load(Ordering::SeqCst))
            .sum();
        assert!(parks >= K - 1, "{parks} parks");
    }
}

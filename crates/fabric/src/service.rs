//! The threaded fabric service: thread-per-shard workers behind bounded
//! SPSC ingress rings, with an elastic epoch-based control plane.
//!
//! [`FabricService`] spawns one worker thread per shard. Producers call
//! [`FabricService::submit`] (or the frame-batched
//! [`FabricService::submit_batch`]) from any thread; placement and
//! admission control run on the producer's thread, then the message
//! lands in the target shard's [`IngressQueue`] ring under the
//! configured backpressure policy (a blocked producer really blocks).
//! Each worker pulls fresh messages in frame-sized bursts, packs them
//! with its retry backlog into batched routing frames, and runs the
//! compiled-datapath executor ([`Shard`]).
//! [`FabricService::drain`] closes every ring, lets the workers finish
//! their backlogs, joins them, and returns the merged report.
//!
//! # Data-plane layout
//!
//! All cross-thread state is sharded: each shard owns one cache-line-
//! aligned `ShardLane` holding its ingress ring, its slice of the
//! in-flight gauge, its admission counter, its quarantine flag, its
//! fault mailbox, its lane-lifecycle state, its switch-swap mailbox, and
//! its last published metrics. A producer touches only the lanes it
//! submits to; a worker touches only its own lane — and only once per
//! *frame*, not per message: the frame-batched admission path
//! ([`ServiceCore::try_submit_batch`]) reserves a round-robin cursor
//! block for the whole frame, groups messages by shard, and lands each
//! group with a single ring publication and a single in-flight
//! adjustment, while the worker retires a whole batch of frames (see
//! [`Shard::run_frames`]) with one gauge decrement and one metrics
//! publication.
//!
//! # The elastic control plane
//!
//! The fabric resizes live (see [`crate::reconfig`] for the protocol
//! and DESIGN.md §13 for the zero-loss argument). Lanes are
//! pre-allocated to [`FabricConfig::max_shards`] and move monotonically
//! through [`LaneState`]: [`ServiceCore::add_shard`] activates the next
//! unused lane under an epoch bump; [`ServiceCore::remove_shard`] marks
//! a lane draining and closes its ring, so placement stops targeting it
//! while its worker drains the residual backlog and retires the lane;
//! [`ServiceCore::swap_switch`] stages a recompiled switch into every
//! live lane's swap mailbox, and each worker installs it the moment its
//! old-epoch backlog completes. A retired lane's counters stay in every
//! snapshot, so the conservation identity
//! `offered = delivered + rejected + shed + retry_dropped + in_flight`
//! holds across every epoch boundary. [`ServiceCore::set_admission_limit`]
//! retargets the global admission cap at runtime — the knob the
//! SLO controller ([`crate::reconfig::SloController`]) turns.
//!
//! # The scheduler seam
//!
//! The service is split along a scheduler seam. All of its logic lives
//! in two plain structs that never block or spawn:
//!
//! * [`ServiceCore`] — the shared producer-side state with step-wise
//!   submission ([`ServiceCore::try_submit`] /
//!   [`ServiceCore::retry_submit`] / [`ServiceCore::try_submit_batch`])
//!   and the control-plane operations;
//! * [`WorkerCore`] — one shard's serving loop body as a single-step
//!   state machine ([`WorkerCore::step`]).
//!
//! The threaded service is a thin shell: each worker thread loops
//! [`WorkerCore::step_blocking`], and `submit` is
//! [`ServiceCore::submit_blocking`]. The deterministic simulation
//! harness drives the *same* cores through the non-blocking entry points
//! under a seeded scheduler — ring publications, consumes, and
//! reconfiguration operations are scheduler-visible steps — so every
//! interleaving the simulator explores is an interleaving the threaded
//! service could exhibit.
//!
//! Frame composition under real threads depends on OS scheduling, so
//! per-run counters are *not* bit-reproducible — that is what the
//! synchronous [`Fabric`](crate::Fabric) is for. What the service does
//! guarantee (and the tests pin) is conservation — every offered message
//! is delivered, rejected, shed, or retry-dropped by drain, across any
//! sequence of live reconfigurations — and payload integrity end to end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use concentrator::faults::ChipFault;
use concentrator::StagedSwitch;
use switchsim::Message;

use crate::config::FabricConfig;
use crate::engine::SubmitOutcome;
use crate::metrics::{FabricSnapshot, ShardMetrics};
use crate::queue::{IngressQueue, PushOutcome, TryPush};
use crate::reconfig::LaneState;
use crate::shard::{Delivery, FrameRun, Shard};

/// Frames a worker may spend clearing its backlog after close before the
/// service declares the switch unable to drain.
const DRAIN_FRAME_LIMIT: u64 = 1 << 22;

/// Sentinel for "no global admission cap" in the runtime limit atomic.
const ADMISSION_UNCAPPED: u64 = u64::MAX;

struct WorkerResult {
    metrics: ShardMetrics,
    deliveries: Vec<Delivery>,
}

/// The merged outcome of a service run, produced by
/// [`FabricService::drain`].
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// Per-shard metrics (queue-side counters folded in), one entry per
    /// lane ever activated; `in_flight` is zero — drain completes the
    /// backlog.
    pub snapshot: FabricSnapshot,
    /// Every delivery, grouped by shard in shard order.
    pub completions: Vec<Delivery>,
}

/// One shard's slice of the cross-thread data plane. `align(128)` keeps
/// each lane on its own cache lines (two, against adjacent-line
/// prefetchers), so one shard's producers and worker never ping-pong
/// another shard's counters.
#[repr(align(128))]
struct ShardLane {
    /// The ingress ring producers feed and the worker drains.
    queue: IngressQueue,
    /// Messages submitted to this shard and not yet delivered or dropped.
    /// Incremented by producers *before* the ring publication (a fast
    /// worker must never race the gauge below zero), decremented by the
    /// worker once per completed frame.
    in_flight: AtomicU64,
    /// Admission-control rejections charged to this shard.
    admission_rejected: AtomicU64,
    /// Whether the shard's health monitor has quarantined it (published
    /// by the worker, read by placement).
    quarantined: AtomicBool,
    /// Where the lane is in the `Unused → Active → Draining → Retired`
    /// lifecycle (see [`LaneState`]). Written by the control plane (and
    /// the worker's final retire), read by placement.
    state: AtomicU8,
    /// Cheap flag producers of a fault-set change raise so the worker's
    /// hot path checks one relaxed load instead of taking a mutex.
    fault_pending: AtomicBool,
    /// The pending fault-set change (`None` = no change requested).
    fault_signal: Mutex<Option<Vec<ChipFault>>>,
    /// Raised by [`ServiceCore::swap_switch`]; the worker installs the
    /// staged switch (and lowers the flag) once its backlog completes.
    swap_pending: AtomicBool,
    /// The staged replacement switch (`None` = no swap requested).
    swap_signal: Mutex<Option<Arc<StagedSwitch>>>,
    /// The worker's last published metrics, for live snapshots. Written
    /// once per frame by the worker, read by [`FabricService::snapshot`].
    published: Mutex<ShardMetrics>,
}

impl ShardLane {
    fn new(queue_capacity: usize, state: LaneState) -> ShardLane {
        ShardLane {
            queue: IngressQueue::new(queue_capacity),
            in_flight: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            state: AtomicU8::new(state as u8),
            fault_pending: AtomicBool::new(false),
            fault_signal: Mutex::new(None),
            swap_pending: AtomicBool::new(false),
            swap_signal: Mutex::new(None),
            published: Mutex::new(ShardMetrics::default()),
        }
    }

    fn state(&self) -> LaneState {
        LaneState::from_u8(self.state.load(Ordering::Acquire))
    }
}

/// What one non-blocking submission step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitStep {
    /// The submission resolved.
    Done(SubmitOutcome),
    /// The chosen shard's queue is full under blocking backpressure: the
    /// message is handed back with its placement. A threaded producer
    /// waits on the queue's condvar; a simulated producer parks until
    /// [`ServiceCore::queue`]`(shard).would_accept(..)` and then calls
    /// [`ServiceCore::retry_submit`] — placement and admission are *not*
    /// re-run, exactly like the blocked thread (unless the shard was
    /// removed while the producer was parked, in which case the retry
    /// re-enters placement under the new epoch).
    Blocked {
        /// The handed-back message.
        message: Message,
        /// The shard placement already chose.
        shard: usize,
    },
}

/// What one frame-batched submission step did: per-outcome counts plus
/// the placed-but-unadmitted remainder a full ring handed back under
/// blocking backpressure. Counts are exactly what the equivalent
/// sequence of single [`ServiceCore::try_submit`] calls would produce.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BatchSubmit {
    /// Messages that landed on a ring (including any an overlong frame
    /// immediately shed again).
    pub accepted: u64,
    /// Queued messages shed to make room.
    pub shed: u64,
    /// Messages refused (admission control, full ring under
    /// [`Backpressure::Reject`](crate::Backpressure), or closed).
    pub rejected: u64,
    /// Messages handed back under
    /// [`Backpressure::Block`](crate::Backpressure), each with the shard
    /// placement already chose: re-offer through
    /// [`ServiceCore::retry_submit`] (or a blocking push), exactly like a
    /// parked producer.
    pub blocked: Vec<(Message, usize)>,
}

/// The producer-facing half of the service, with no threads inside: the
/// sharded state every submitter and worker touches, exposed as single
/// non-blocking steps so a cooperative scheduler can own the
/// interleaving. Also the control plane: shard add/remove, live switch
/// swap, and runtime admission retargeting, all under epoch bumps.
pub struct ServiceCore {
    config: FabricConfig,
    /// All `config.max_shards` lanes, pre-allocated; `allocated` bounds
    /// the ever-activated prefix.
    lanes: Vec<Arc<ShardLane>>,
    rr_cursor: AtomicUsize,
    /// Lanes ever activated: `lanes[..allocated]` have been part of the
    /// fabric (Active, Draining, or Retired); the rest are Unused.
    /// Monotone — retired lanes keep their slot and their counters.
    allocated: AtomicUsize,
    /// Bumped by every control-plane change (add, remove, swap, admission
    /// retarget). Placement is always against the current epoch's lane
    /// set; the counter itself is observability, not a lock.
    epoch: AtomicU64,
    /// The runtime global admission cap ([`ADMISSION_UNCAPPED`] = none);
    /// seeded from `config.admission_limit`, retargeted live by
    /// [`ServiceCore::set_admission_limit`].
    admission_limit: AtomicU64,
    /// Raised by [`ServiceCore::close`]: distinguishes a ring closed for
    /// shutdown (reject producers) from one closed because its shard was
    /// removed (re-place producers under the new epoch).
    shutting_down: AtomicBool,
    /// Serializes control-plane operations (add/remove/swap/close) so
    /// lane-state transitions and the epoch counter stay coherent. Never
    /// taken on the data path.
    control: Mutex<()>,
}

impl ServiceCore {
    /// Build the shared state: `config.shards` active lanes, with room to
    /// grow to `config.max_shards`.
    ///
    /// # Panics
    /// If the configuration is invalid (see [`FabricConfig::validate`]).
    pub fn new(config: FabricConfig) -> ServiceCore {
        config.validate();
        ServiceCore {
            config,
            lanes: (0..config.max_shards)
                .map(|id| {
                    let state = if id < config.shards {
                        LaneState::Active
                    } else {
                        LaneState::Unused
                    };
                    Arc::new(ShardLane::new(config.queue_capacity, state))
                })
                .collect(),
            rr_cursor: AtomicUsize::new(0),
            allocated: AtomicUsize::new(config.shards),
            epoch: AtomicU64::new(0),
            admission_limit: AtomicU64::new(
                config
                    .admission_limit
                    .map_or(ADMISSION_UNCAPPED, |limit| limit as u64),
            ),
            shutting_down: AtomicBool::new(false),
            control: Mutex::new(()),
        }
    }

    /// The active configuration (startup shape; the live shard count and
    /// admission limit are [`ServiceCore::active_shards`] and
    /// [`ServiceCore::admission_limit`]).
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Shard `id`'s serving loop as a steppable state machine over the
    /// shared `switch`. Call once per activated shard; each worker owns
    /// its core.
    pub fn worker(&self, id: usize, switch: Arc<StagedSwitch>) -> WorkerCore {
        let batch_window = switch.n.max(1);
        let shard =
            Shard::new(id, switch, self.config.retry).with_health_policy(self.config.health);
        WorkerCore {
            shard,
            lane: Arc::clone(&self.lanes[id]),
            batch_window,
            quarantine_published: false,
            drain_frames: 0,
            executed: VecDeque::new(),
        }
    }

    /// Shard `shard`'s ingress queue (readiness checks, counters).
    pub fn queue(&self, shard: usize) -> &IngressQueue {
        &self.lanes[shard].queue
    }

    /// Admission-control rejections charged to shard `shard` so far.
    pub fn admission_rejected(&self, shard: usize) -> u64 {
        self.lanes[shard].admission_rejected.load(Ordering::Relaxed)
    }

    /// Messages currently in flight (queued or pending in a shard),
    /// summed over the per-shard gauges of every lane ever activated.
    pub fn in_flight(&self) -> u64 {
        self.lanes[..self.allocated_shards()]
            .iter()
            .map(|lane| lane.in_flight.load(Ordering::Acquire))
            .sum()
    }

    /// The reconfiguration epoch: bumped by every shard add/remove,
    /// switch swap, and admission retarget.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Lanes ever activated (Active + Draining + Retired). Lane ids below
    /// this are valid for [`ServiceCore::queue`] and friends.
    pub fn allocated_shards(&self) -> usize {
        self.allocated.load(Ordering::Acquire)
    }

    /// Lanes currently serving (placement targets).
    pub fn active_shards(&self) -> usize {
        self.lanes[..self.allocated_shards()]
            .iter()
            .filter(|lane| lane.state() == LaneState::Active)
            .count()
    }

    /// Where lane `shard` is in its lifecycle.
    pub fn shard_state(&self, shard: usize) -> LaneState {
        self.lanes[shard].state()
    }

    /// Whether [`ServiceCore::close`] has begun (every ring closed for
    /// shutdown, not for removal).
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// The current global admission cap (`None` = uncapped).
    pub fn admission_limit(&self) -> Option<usize> {
        match self.admission_limit.load(Ordering::Acquire) {
            ADMISSION_UNCAPPED => None,
            limit => Some(limit as usize),
        }
    }

    /// Retarget the global admission cap at runtime (`None` = uncapped).
    /// Takes effect on the next submission; a change bumps the epoch.
    /// This is the knob [`crate::reconfig::SloController`] turns.
    pub fn set_admission_limit(&self, limit: Option<usize>) {
        let raw = limit.map_or(ADMISSION_UNCAPPED, |limit| limit as u64);
        if self.admission_limit.swap(raw, Ordering::AcqRel) != raw {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Activate the next unused lane and admit it to the placement ring
    /// under an epoch bump. Returns the new shard's id — the caller owns
    /// spawning (or cooperatively stepping) a worker for it — or `None`
    /// if every lane is already allocated or the service is shutting
    /// down.
    pub fn add_shard(&self) -> Option<usize> {
        let _control = self.control.lock().expect("control plane");
        if self.shutting_down.load(Ordering::Acquire) {
            return None;
        }
        let allocated = self.allocated.load(Ordering::Acquire);
        if allocated == self.lanes.len() {
            return None;
        }
        // State first, then the allocated publication (release): a
        // producer that observes the grown prefix sees an Active lane.
        self.lanes[allocated]
            .state
            .store(LaneState::Active as u8, Ordering::Release);
        self.allocated.store(allocated + 1, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Some(allocated)
    }

    /// Remove shard `shard` from the placement ring under an epoch bump:
    /// its lane turns [`LaneState::Draining`] and its ring closes, so
    /// producers stop landing on it (parked ones re-place under the new
    /// epoch — see [`ServiceCore::retry_submit`]) while its worker drains
    /// the residual backlog and retires the lane. Returns `false` if the
    /// lane is not currently active, it is the last active lane (a fabric
    /// must keep serving), or the service is shutting down.
    pub fn remove_shard(&self, shard: usize) -> bool {
        let _control = self.control.lock().expect("control plane");
        if self.shutting_down.load(Ordering::Acquire) {
            return false;
        }
        let allocated = self.allocated.load(Ordering::Acquire);
        if shard >= allocated || self.lanes[shard].state() != LaneState::Active {
            return false;
        }
        let active = self.lanes[..allocated]
            .iter()
            .filter(|lane| lane.state() == LaneState::Active)
            .count();
        if active <= 1 {
            return false;
        }
        self.lanes[shard]
            .state
            .store(LaneState::Draining as u8, Ordering::Release);
        self.lanes[shard].queue.close();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Stage a recompiled replacement switch into every live lane's swap
    /// mailbox under an epoch bump — phase one of the two-phase swap.
    /// Each worker performs phase two itself: it finishes the frames it
    /// already accepted on the old switch, then installs the replacement
    /// the moment its pending queue is empty
    /// (see [`Shard::install_switch`]). Returns how many lanes were
    /// signalled. The replacement's `n` must cover every live switch's
    /// (checked at install).
    pub fn swap_switch(&self, switch: Arc<StagedSwitch>) -> usize {
        let _control = self.control.lock().expect("control plane");
        let allocated = self.allocated.load(Ordering::Acquire);
        let mut signalled = 0;
        for lane in &self.lanes[..allocated] {
            match lane.state() {
                LaneState::Active | LaneState::Draining => {
                    *lane.swap_signal.lock().expect("swap signal") = Some(Arc::clone(&switch));
                    lane.swap_pending.store(true, Ordering::Release);
                    signalled += 1;
                }
                LaneState::Unused | LaneState::Retired => {}
            }
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
        signalled
    }

    /// Request chip faults on one shard's switch (an empty vector clears
    /// them). The shard's worker applies the change at its next step.
    pub fn inject_faults(&self, shard: usize, faults: Vec<ChipFault>) {
        let lane = &self.lanes[shard];
        *lane.fault_signal.lock().expect("fault signal") = Some(faults);
        lane.fault_pending.store(true, Ordering::Release);
    }

    /// Whether a shard's health monitor has quarantined it (as last
    /// published by its worker).
    pub fn shard_quarantined(&self, shard: usize) -> bool {
        self.lanes[shard].quarantined.load(Ordering::Acquire)
    }

    /// Close every ingress queue for shutdown: producers are refused from
    /// now on, workers drain their backlogs and then report
    /// [`WorkerStep::Done`].
    pub fn close(&self) {
        let _control = self.control.lock().expect("control plane");
        self.shutting_down.store(true, Ordering::Release);
        let allocated = self.allocated.load(Ordering::Acquire);
        for lane in &self.lanes[..allocated] {
            lane.queue.close();
        }
    }

    /// Steer a preferred placement (an index below `allocated`) onto a
    /// serving lane: keep it when it is active and healthy, otherwise
    /// take the next active unquarantined lane in a deterministic
    /// wrapping scan, falling back to any active lane (degraded service
    /// beats none). Draining and retired lanes never receive new traffic.
    fn route(&self, preferred: usize, allocated: usize) -> usize {
        for quarantine_matters in [true, false] {
            for step in 0..allocated {
                let idx = (preferred + step) % allocated;
                let lane = &self.lanes[idx];
                if lane.state() == LaneState::Active
                    && !(quarantine_matters && lane.quarantined.load(Ordering::Acquire))
                {
                    return idx;
                }
            }
        }
        // Unreachable while an active lane exists (the control plane
        // refuses to drain the last one); kept total for the transient
        // threaded race where a scan straddles a state flip.
        preferred
    }

    /// Place a message and advance the round-robin cursor.
    fn place(&self, source: usize) -> usize {
        let allocated = self.allocated_shards();
        let cursor = self.rr_cursor.fetch_add(1, Ordering::Relaxed);
        self.route(
            self.config.placement.place(source, cursor, allocated),
            allocated,
        )
    }

    /// One non-blocking submission step: placement, admission control,
    /// then a [`TryPush`] on the chosen queue.
    pub fn try_submit(&self, message: Message) -> SubmitStep {
        let shard = self.place(message.source);
        let limit = self.admission_limit.load(Ordering::Acquire);
        if limit != ADMISSION_UNCAPPED && self.in_flight() >= limit {
            self.lanes[shard]
                .admission_rejected
                .fetch_add(1, Ordering::Relaxed);
            return SubmitStep::Done(SubmitOutcome::Rejected);
        }
        self.offer(message, shard)
    }

    /// Re-offer a message a previous step handed back as
    /// [`SubmitStep::Blocked`]. Ordinarily skips placement and admission —
    /// the message already holds a slot on `shard`'s queue order, exactly
    /// as a producer blocked on the queue's condvar does. If `shard` was
    /// *removed* while the producer was parked (ring closed without a
    /// shutdown), the retry re-enters placement under the current epoch
    /// instead: a live reconfiguration must never turn a parked producer's
    /// message into a loss.
    pub fn retry_submit(&self, message: Message, shard: usize) -> SubmitStep {
        if self.lanes[shard].queue.is_closed() && !self.is_shutting_down() {
            return self.try_submit(message);
        }
        self.offer(message, shard)
    }

    fn offer(&self, message: Message, shard: usize) -> SubmitStep {
        let lane = &self.lanes[shard];
        // Count the message in flight *before* it becomes poppable: a fast
        // worker could otherwise complete (and decrement) it first and wrap
        // the gauge below zero.
        lane.in_flight.fetch_add(1, Ordering::AcqRel);
        match lane.queue.try_push(message, self.config.backpressure) {
            TryPush::Enqueued => SubmitStep::Done(SubmitOutcome::Accepted),
            // A shed swaps one queued message for another that will never
            // complete: net in-flight change is zero, so undo our add.
            TryPush::EnqueuedAfterShed => {
                lane.in_flight.fetch_sub(1, Ordering::AcqRel);
                SubmitStep::Done(SubmitOutcome::AcceptedAfterShed)
            }
            TryPush::Rejected => {
                lane.in_flight.fetch_sub(1, Ordering::AcqRel);
                SubmitStep::Done(SubmitOutcome::Rejected)
            }
            TryPush::WouldBlock(message) => {
                lane.in_flight.fetch_sub(1, Ordering::AcqRel);
                SubmitStep::Blocked { message, shard }
            }
        }
    }

    /// One non-blocking *frame* submission: reserve a round-robin cursor
    /// block for the whole frame (one `fetch_add` instead of one per
    /// message — the deficit-round-robin spread: message `i` of the frame
    /// takes cursor slot `cursor + i`, striding the frame across every
    /// healthy shard), group by shard, then land each group with a single
    /// ring publication and a single in-flight adjustment.
    ///
    /// Observationally this is the per-message admit state machine run
    /// `messages.len()` times; only the atomics are amortized.
    pub fn try_submit_batch(&self, messages: Vec<Message>) -> BatchSubmit {
        let len = messages.len();
        let mut result = BatchSubmit::default();
        if len == 0 {
            return result;
        }
        // Admission control at frame grain: one gauge read bounds the
        // whole frame (the per-message path re-reads per message; both
        // are races against concurrent completions, and conservation
        // charges refusals identically).
        let limit = self.admission_limit.load(Ordering::Acquire);
        let admitted = if limit == ADMISSION_UNCAPPED {
            len
        } else {
            (limit.saturating_sub(self.in_flight()) as usize).min(len)
        };
        let allocated = self.allocated_shards();
        let cursor = self.rr_cursor.fetch_add(len, Ordering::Relaxed);
        let mut groups: Vec<Vec<Message>> = vec![Vec::new(); allocated];
        for (i, message) in messages.into_iter().enumerate() {
            let shard = self.route(
                self.config
                    .placement
                    .place(message.source, cursor.wrapping_add(i), allocated),
                allocated,
            );
            if i < admitted {
                groups[shard].push(message);
            } else {
                self.lanes[shard]
                    .admission_rejected
                    .fetch_add(1, Ordering::Relaxed);
                result.rejected += 1;
            }
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let submitted = group.len() as u64;
            let lane = &self.lanes[shard];
            lane.in_flight.fetch_add(submitted, Ordering::AcqRel);
            let push = lane.queue.try_push_batch(group, self.config.backpressure);
            // Undo the gauge for everything that will never complete:
            // refusals, hand-backs, and the messages a shed evicted.
            let undo = submitted - push.enqueued as u64 + push.shed;
            if undo > 0 {
                lane.in_flight.fetch_sub(undo, Ordering::AcqRel);
            }
            result.accepted += push.enqueued as u64;
            result.shed += push.shed;
            result.rejected += push.rejected as u64;
            result
                .blocked
                .extend(push.blocked.into_iter().map(|message| (message, shard)));
        }
        result
    }

    /// Submit one routing request, blocking while the target queue is
    /// full under [`Backpressure::Block`](crate::Backpressure). The
    /// threaded service's `submit`.
    pub fn submit_blocking(&self, message: Message) -> SubmitOutcome {
        match self.try_submit(message) {
            SubmitStep::Done(outcome) => outcome,
            SubmitStep::Blocked { message, shard } => self.park_and_push(message, shard),
        }
    }

    /// The threaded slow path behind a [`SubmitStep::Blocked`] hand-back:
    /// block on `shard`'s ring until the message lands — and if the ring
    /// closes because the shard was *removed* (not a shutdown), re-enter
    /// placement under the new epoch instead of reporting a loss. The
    /// closed ring's rejection count and the fresh placement's offer
    /// balance, so conservation holds through the epoch boundary.
    fn park_and_push(&self, message: Message, shard: usize) -> SubmitOutcome {
        let mut message = message;
        let mut shard = shard;
        loop {
            let lane = &self.lanes[shard];
            if lane.queue.is_closed() && !self.is_shutting_down() {
                match self.try_submit(message) {
                    SubmitStep::Done(outcome) => return outcome,
                    SubmitStep::Blocked {
                        message: held,
                        shard: placed,
                    } => {
                        message = held;
                        shard = placed;
                        continue;
                    }
                }
            }
            lane.in_flight.fetch_add(1, Ordering::AcqRel);
            match lane.queue.push(message.clone(), self.config.backpressure) {
                PushOutcome::Enqueued => return SubmitOutcome::Accepted,
                PushOutcome::EnqueuedAfterShed => {
                    lane.in_flight.fetch_sub(1, Ordering::AcqRel);
                    return SubmitOutcome::AcceptedAfterShed;
                }
                PushOutcome::Rejected => {
                    lane.in_flight.fetch_sub(1, Ordering::AcqRel);
                    if self.is_shutting_down() {
                        return SubmitOutcome::Rejected;
                    }
                    // The ring closed under us: the shard was removed
                    // while we were parked. Loop back and re-place.
                }
            }
        }
    }

    /// Submit a whole frame, blocking under
    /// [`Backpressure::Block`](crate::Backpressure) until every message
    /// is placed (or the queues close for shutdown, which rejects the
    /// remainder). The threaded service's `submit_batch`;
    /// [`BatchSubmit::blocked`] is always empty on return.
    pub fn submit_batch_blocking(&self, messages: Vec<Message>) -> BatchSubmit {
        let mut result = self.try_submit_batch(messages);
        // The blocked remainder takes the per-message slow path: it can
        // re-enter placement if its shard is removed mid-park, which a
        // whole-group blocking push could not express.
        for (message, shard) in std::mem::take(&mut result.blocked) {
            match self.park_and_push(message, shard) {
                SubmitOutcome::Accepted => result.accepted += 1,
                SubmitOutcome::AcceptedAfterShed => {
                    result.accepted += 1;
                    result.shed += 1;
                }
                SubmitOutcome::Rejected => result.rejected += 1,
                SubmitOutcome::Backpressured(_) => {
                    unreachable!("blocking push never hands back")
                }
            }
        }
        result
    }

    /// Fold shard `shard`'s queue-side counters (and admission
    /// rejections) into `metrics`.
    ///
    /// This is the **single** fold site: every snapshot path — the live
    /// [`FabricService::snapshot`], the drain-time merge, and the
    /// simulation harness's ledger — goes through it exactly once per
    /// shard per snapshot, against a fresh (un-folded) copy of the
    /// worker's metrics. Folding twice would double-count queue-level
    /// rejected/shed against `offered` and break conservation; the drain
    /// path asserts the identity in debug builds.
    pub fn fold_queue_counters(&self, shard: usize, metrics: &mut ShardMetrics) {
        let (offered, rejected, shed) = self.lanes[shard].queue.counters();
        let admission = self.lanes[shard].admission_rejected.load(Ordering::Relaxed);
        metrics.offered += offered + admission;
        metrics.rejected += rejected + admission;
        metrics.shed += shed;
    }

    /// A live snapshot: each activated lane's last *published* per-frame
    /// metrics with the queue-side counters folded in (exactly once — see
    /// [`ServiceCore::fold_queue_counters`]), plus the summed in-flight
    /// gauge. Draining and retired lanes stay in the snapshot — their
    /// counters are history the conservation identity still needs — so a
    /// snapshot taken mid-reconfiguration neither double-counts nor drops
    /// a draining shard's in-flight messages. Counter reads are not
    /// mutually atomic while workers run, so a live snapshot's
    /// conservation identity may be off by the frames in progress; the
    /// drain-time snapshot is exact.
    pub fn snapshot(&self) -> FabricSnapshot {
        let allocated = self.allocated_shards();
        let mut shards = Vec::with_capacity(allocated);
        for (i, lane) in self.lanes[..allocated].iter().enumerate() {
            let mut metrics = lane.published.lock().expect("published metrics").clone();
            self.fold_queue_counters(i, &mut metrics);
            shards.push(metrics);
        }
        FabricSnapshot {
            shards,
            in_flight: self.in_flight(),
        }
    }
}

/// What one worker step did.
#[derive(Debug)]
pub enum WorkerStep {
    /// Handed out one executed routing frame.
    Frame(FrameRun),
    /// Nothing to do right now (queue empty, nothing pending). A
    /// simulated worker is re-stepped when work arrives; a threaded one
    /// never sees this (it blocks instead).
    Idle,
    /// Queue closed and drained, backlog empty: the worker is finished
    /// (and its lane, if draining, is retired).
    Done,
}

/// One shard's serving loop as a single-step state machine: hand out the
/// next frame a batch already executed, or else apply any pending fault
/// signal, install a staged switch swap once the old-epoch backlog has
/// completed, drain the ring in one frame-sized burst, run a batch of
/// frames through one shared sweep ([`Shard::run_frames`]; frames beyond
/// the first only while the ring is empty and no fault or swap signal is
/// pending), and retire the whole batch against the lane — one gauge
/// decrement, one metrics publication, a quarantine store only on
/// transitions. Each step hands out one [`FrameRun`]; the batch's later
/// frames go out on the following steps, before any fault is applied or
/// switch installed. Between the burst pop and the batch retirement the
/// hot path touches no cross-thread state but the ring's emptiness.
pub struct WorkerCore {
    shard: Shard,
    lane: Arc<ShardLane>,
    batch_window: usize,
    /// Last quarantine value published, so the flag is stored only on
    /// transitions (placement reads it from every producer).
    quarantine_published: bool,
    drain_frames: u64,
    /// Frames a batch executed and no step has handed out yet, oldest
    /// first. Already retired against the lane.
    executed: VecDeque<FrameRun>,
}

impl WorkerCore {
    /// The shard this core serves (metrics, health, pending state).
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Deliveries of frames the shard has executed but no step has handed
    /// out yet. The lane's in-flight gauge no longer counts them, so a
    /// ledger that follows messages past the fabric counts them here.
    pub fn queued_deliveries(&self) -> u64 {
        self.executed
            .iter()
            .map(|run| run.delivered.len() as u64)
            .sum()
    }

    /// Whether a step right now would make progress: an executed frame
    /// waits to be handed out, a fault signal or switch swap is pending,
    /// messages are queued or pending, or close has been requested (so the
    /// step would resolve to [`WorkerStep::Done`]). The simulation
    /// scheduler's readiness predicate for a worker.
    pub fn ready(&self) -> bool {
        !self.executed.is_empty()
            || self.lane.fault_pending.load(Ordering::Acquire)
            || self.lane.swap_pending.load(Ordering::Acquire)
            || self.shard.pending_len() > 0
            || !self.lane.queue.is_empty()
            || self.lane.queue.is_closed()
    }

    /// One non-blocking worker step.
    pub fn step(&mut self) -> WorkerStep {
        self.step_inner(false)
    }

    /// One worker step that blocks while there is nothing to do — the
    /// body of the threaded worker loop. Never returns
    /// [`WorkerStep::Idle`] with messages outstanding; returns
    /// [`WorkerStep::Done`] once the queue is closed and everything has
    /// drained.
    pub fn step_blocking(&mut self) -> WorkerStep {
        self.step_inner(true)
    }

    /// Phase two of the live switch swap: install the staged replacement
    /// once (and only once) the pending queue is empty, so every frame
    /// admitted under the old epoch completed on the old switch. Messages
    /// still in the ingress ring route on whichever switch is installed
    /// when they are popped — safe, because the replacement covers the
    /// old input range (asserted by [`Shard::install_switch`]).
    fn maybe_install_switch(&mut self) {
        if !self.lane.swap_pending.load(Ordering::Acquire) {
            return;
        }
        if self.shard.pending_len() > 0 {
            return;
        }
        if let Some(switch) = self.lane.swap_signal.lock().expect("swap signal").take() {
            self.batch_window = switch.n.max(1);
            self.shard.install_switch(switch);
        }
        self.lane.swap_pending.store(false, Ordering::Release);
    }

    /// Mark the lane retired if it was draining: the backlog is done and
    /// the worker is exiting.
    fn retire_lane(&self) {
        let _ = self.lane.state.compare_exchange(
            LaneState::Draining as u8,
            LaneState::Retired as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    fn step_inner(&mut self, block: bool) -> WorkerStep {
        if let Some(run) = self.executed.pop_front() {
            return WorkerStep::Frame(run);
        }
        if self.lane.fault_pending.load(Ordering::Acquire) {
            if let Some(faults) = self.lane.fault_signal.lock().expect("fault signal").take() {
                self.shard.set_faults(faults);
            }
            self.lane.fault_pending.store(false, Ordering::Release);
        }
        self.maybe_install_switch();
        let fresh = if self.shard.pending_len() == 0 {
            if block {
                match self.lane.queue.pop_batch_blocking(self.batch_window) {
                    Some(batch) => batch,
                    // Closed and empty, nothing pending: done.
                    None => {
                        self.retire_lane();
                        return WorkerStep::Done;
                    }
                }
            } else {
                let batch = self.lane.queue.try_pop_batch(self.batch_window);
                if batch.is_empty() {
                    return if self.lane.queue.is_closed() {
                        self.retire_lane();
                        WorkerStep::Done
                    } else {
                        WorkerStep::Idle
                    };
                }
                batch
            }
        } else if self.lane.swap_pending.load(Ordering::Acquire) {
            // A swap is staged: finish the old-epoch backlog before
            // accepting new-epoch traffic, so the install point (pending
            // empty) arrives within a bounded number of frames even under
            // sustained load.
            Vec::new()
        } else {
            self.lane.queue.try_pop_batch(self.batch_window)
        };
        // A blocking pop can park across a swap request: install now,
        // before the freshly popped (new-epoch) messages enter the
        // pending queue.
        self.maybe_install_switch();
        for message in fresh {
            self.shard.accept(message);
        }
        if self.shard.pending_len() == 0 {
            return WorkerStep::Idle;
        }
        let (lane, executed) = (&self.lane, &mut self.executed);
        self.shard.run_frames(
            || {
                lane.queue.is_empty()
                    && !lane.fault_pending.load(Ordering::Acquire)
                    && !lane.swap_pending.load(Ordering::Acquire)
            },
            |run| executed.push_back(run),
        );
        let quarantined = self.shard.is_quarantined();
        if quarantined != self.quarantine_published {
            self.quarantine_published = quarantined;
            self.lane.quarantined.store(quarantined, Ordering::Release);
        }
        // One metrics publication per batch keeps live snapshots fresh
        // without any per-message shared-state traffic. Publish *before*
        // the gauge decrement: a snapshot that observes the gauge at zero
        // is then guaranteed to see the metrics covering every completed
        // frame, so quiescent live snapshots satisfy conservation exactly.
        *self.lane.published.lock().expect("published metrics") = self.shard.metrics.clone();
        let completed: u64 = self
            .executed
            .iter()
            .map(|run| (run.delivered.len() + run.dropped.len()) as u64)
            .sum();
        if completed > 0 {
            self.lane.in_flight.fetch_sub(completed, Ordering::AcqRel);
            self.drain_frames = 0;
        } else {
            self.drain_frames += self.executed.len() as u64;
            assert!(
                self.drain_frames < DRAIN_FRAME_LIMIT,
                "shard {} made no progress for {DRAIN_FRAME_LIMIT} frames",
                self.shard.id()
            );
        }
        WorkerStep::Frame(
            self.executed
                .pop_front()
                .expect("a shard with pending work runs a frame"),
        )
    }
}

/// A concurrent sharded switch-serving engine: [`ServiceCore`] plus one
/// OS thread per active shard looping [`WorkerCore::step_blocking`], with
/// live shard add/remove, switch swap, and admission retargeting.
pub struct FabricService {
    core: Arc<ServiceCore>,
    /// Worker threads with the shard ids they serve. Removed shards'
    /// workers exit early and are joined (trivially) at drain.
    workers: Mutex<Vec<(usize, JoinHandle<WorkerResult>)>>,
    /// The switch future workers start on — updated by
    /// [`FabricService::swap_switch`] so a later
    /// [`FabricService::add_shard`] begins on the current topology.
    switch: Mutex<Arc<StagedSwitch>>,
}

impl FabricService {
    /// Spawn `config.shards` workers over one shared switch. The first
    /// shard's construction compiles the datapath netlist (through the
    /// switch's shared elaboration cache); the rest reuse it, so startup
    /// cost is one compile regardless of shard count.
    pub fn start(switch: Arc<StagedSwitch>, config: FabricConfig) -> FabricService {
        let core = Arc::new(ServiceCore::new(config));
        let workers = (0..config.shards)
            .map(|id| (id, Self::spawn_worker(&core, id, Arc::clone(&switch))))
            .collect();
        FabricService {
            core,
            workers: Mutex::new(workers),
            switch: Mutex::new(switch),
        }
    }

    fn spawn_worker(
        core: &Arc<ServiceCore>,
        id: usize,
        switch: Arc<StagedSwitch>,
    ) -> JoinHandle<WorkerResult> {
        let mut worker = core.worker(id, switch);
        std::thread::Builder::new()
            .name(format!("fabric-shard-{id}"))
            .spawn(move || {
                let mut deliveries = Vec::new();
                loop {
                    match worker.step_blocking() {
                        WorkerStep::Frame(run) => deliveries.extend(run.delivered),
                        WorkerStep::Idle => {}
                        WorkerStep::Done => break,
                    }
                }
                WorkerResult {
                    metrics: worker.shard().metrics.clone(),
                    deliveries,
                }
            })
            .expect("spawn fabric worker")
    }

    /// Grow the fabric by one shard: activate the next unused lane under
    /// an epoch bump and spawn its worker on the current switch. Returns
    /// the new shard's id, or `None` once `config.max_shards` lanes are
    /// allocated (or drain has begun).
    pub fn add_shard(&self) -> Option<usize> {
        let switch = Arc::clone(&self.switch.lock().expect("service switch"));
        let id = self.core.add_shard()?;
        let handle = Self::spawn_worker(&self.core, id, switch);
        self.workers
            .lock()
            .expect("service workers")
            .push((id, handle));
        Some(id)
    }

    /// Shrink the fabric by one shard: the lane stops admitting, its
    /// worker drains the residual backlog, hands every message back to
    /// the ledger, and exits. Producers parked on the removed shard
    /// re-place under the new epoch. Returns `false` if the shard is not
    /// active or is the last one.
    pub fn remove_shard(&self, shard: usize) -> bool {
        self.core.remove_shard(shard)
    }

    /// Live switch swap: stage a recompiled replacement into every live
    /// lane (two-phase — see [`ServiceCore::swap_switch`]) and make it
    /// the switch future [`FabricService::add_shard`] workers start on.
    /// Returns how many lanes were signalled.
    pub fn swap_switch(&self, switch: Arc<StagedSwitch>) -> usize {
        *self.switch.lock().expect("service switch") = Arc::clone(&switch);
        self.core.swap_switch(switch)
    }

    /// Retarget the global admission cap at runtime (`None` = uncapped).
    pub fn set_admission_limit(&self, limit: Option<usize>) {
        self.core.set_admission_limit(limit);
    }

    /// The reconfiguration epoch (bumped by every control-plane change).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Lanes currently serving (placement targets).
    pub fn active_shards(&self) -> usize {
        self.core.active_shards()
    }

    /// Request chip faults on one shard's switch (an empty vector clears
    /// them). The shard's worker applies the change at its next loop
    /// iteration, so the effect lands within a frame or two of the call —
    /// this models a chip dying (or being hot-swapped) mid-run.
    pub fn inject_faults(&self, shard: usize, faults: Vec<ChipFault>) {
        self.core.inject_faults(shard, faults);
    }

    /// Whether a shard's health monitor has quarantined it (as last
    /// published by its worker).
    pub fn shard_quarantined(&self, shard: usize) -> bool {
        self.core.shard_quarantined(shard)
    }

    /// Submit one routing request from any thread. Under
    /// [`Backpressure::Block`](crate::Backpressure) this blocks while the
    /// target queue is full; after [`FabricService::drain`] has begun it
    /// returns [`SubmitOutcome::Rejected`].
    pub fn submit(&self, message: Message) -> SubmitOutcome {
        self.core.submit_blocking(message)
    }

    /// Submit a whole frame of routing requests from any thread with one
    /// placement-cursor reservation, one ring publication per target
    /// shard, and one in-flight adjustment per target shard. Under
    /// [`Backpressure::Block`](crate::Backpressure) this blocks until the
    /// whole frame is placed (or drain begins, which rejects the
    /// remainder).
    pub fn submit_batch(&self, messages: Vec<Message>) -> BatchSubmit {
        self.core.submit_batch_blocking(messages)
    }

    /// Messages currently in flight (queued or pending in a shard).
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// A live snapshot of the running service: each worker's last
    /// published per-frame metrics, queue counters folded in exactly
    /// once. See [`ServiceCore::snapshot`].
    pub fn snapshot(&self) -> FabricSnapshot {
        self.core.snapshot()
    }

    /// Graceful shutdown: refuse new work, let every worker finish its
    /// backlog, join them, and merge queue-side counters into the
    /// per-shard metrics (exactly once per shard — the workers' own
    /// metrics never include queue-side counts). The report has one
    /// entry per lane ever activated, in lane order, whether or not the
    /// lane was removed mid-run.
    pub fn drain(self) -> FabricReport {
        self.core.close();
        let workers = self
            .workers
            .into_inner()
            .expect("service workers")
            .into_iter();
        let allocated = self.core.allocated_shards();
        let mut shards = vec![ShardMetrics::default(); allocated];
        let mut joined = vec![false; allocated];
        let mut completions = Vec::new();
        for (id, worker) in workers {
            let mut result = worker.join().expect("fabric worker panicked");
            self.core.fold_queue_counters(id, &mut result.metrics);
            completions.append(&mut result.deliveries);
            shards[id] = result.metrics;
            joined[id] = true;
        }
        debug_assert!(
            joined.iter().all(|&j| j),
            "every activated lane must have had a worker"
        );
        let snapshot = FabricSnapshot {
            shards,
            in_flight: 0,
        };
        // The drain-time conservation identity — every offered message
        // delivered, rejected, shed, or retry-dropped — holds exactly
        // once the workers have joined; a double fold (or a missed one)
        // trips this immediately.
        debug_assert!(
            snapshot.conserved(),
            "drain snapshot violates conservation: {:?}",
            snapshot.totals()
        );
        FabricReport {
            snapshot,
            completions,
        }
    }
}

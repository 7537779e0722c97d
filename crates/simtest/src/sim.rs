//! The simulation executor: one seeded cooperative run of the full
//! service stack under a virtual clock.
//!
//! A [`Scenario`] fixes everything about a run except the interleaving:
//! the switch, the fabric configuration, the producer workload (via
//! [`fabric::LoadPlan::frames`] — the same frames the threaded
//! [`fabric::drive_service`] submits), a virtual-time fault schedule, a
//! virtual-time *reconfiguration* schedule (shard add/remove, live
//! switch swaps, admission retargeting — see [`ReconfigAction`]), an
//! optional SLO-admission plan, and a tick budget.
//! [`run_scenario`] then executes the scenario's producers and shard
//! workers as *cooperative tasks*: each scheduler step picks one ready
//! task uniformly with a [`SplitMix64`] stream seeded by the run's `u64`
//! seed, executes exactly one non-blocking step of it
//! ([`ServiceCore::try_submit`] / [`ServiceCore::retry_submit`] /
//! [`WorkerCore::step`]), and advances the shared [`VirtualClock`] by one
//! tick. Nothing else in the run consumes entropy or reads wall time, so
//! the complete trace — every submission outcome, frame, fault
//! injection, and quarantine transition — is a pure function of
//! `(scenario, seed)`. That is the property the determinism tests pin
//! bit-for-bit and the `cli sim --seed` replay workflow relies on.
//!
//! Because the cores are the *same* code the threaded
//! [`FabricService`](fabric::FabricService)
//! runs (its workers loop `step_blocking`, its `submit` is
//! `submit_blocking` — thin condvar shells over the identical step
//! logic), every interleaving this executor explores is an interleaving
//! the real service could exhibit under some OS schedule; a blocked
//! producer here is a parked task whose readiness predicate is the
//! queue's `would_accept`, exactly mirroring the condvar wait.
//!
//! Model-based oracles run *inside* the loop: the conservation ledger is
//! checked after every tick, and every executed frame is checked against
//! the message-level reference simulator and the analytic capacity bound
//! (see [`crate::oracles`]). Violations are collected, not panicked, so
//! the explorer can shrink and report them.

use std::collections::VecDeque;
use std::sync::Arc;

use concentrator::clock::{Clock, VirtualClock};
use concentrator::faults::ChipFault;
use concentrator::verify::SplitMix64;
use concentrator::StagedSwitch;
use fabric::{
    Delivery, FabricConfig, FabricSnapshot, LoadPlan, ServiceCore, SloController, SloPolicy,
    SubmitOutcome, SubmitStep, WorkerCore, WorkerStep,
};
use switchsim::Message;

use crate::oracles::{check_capacity, check_frame, conservation_ledger, Violation};

/// A fault-set change at a point in virtual time: at tick `at_tick`,
/// shard `shard`'s fault set becomes `faults` (empty = repair). The
/// virtual-time analogue of [`fabric::FaultEvent`]'s frame schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFaultEvent {
    /// Virtual tick at which the change is injected.
    pub at_tick: u64,
    /// Target shard.
    pub shard: usize,
    /// The shard's new complete fault set.
    pub faults: Vec<ChipFault>,
}

/// A control-plane operation (see [`fabric::reconfig`]) the executor
/// performs on the live core. Operations the control plane refuses —
/// removing the last active shard, growing past the lane pool — are
/// skipped silently: schedules stay valid under shrinking.
#[derive(Debug, Clone)]
pub enum ReconfigAction {
    /// Activate the next unused lane and start a worker for it on the
    /// current switch (the original, or the last swapped-in one).
    AddShard,
    /// Drain and retire one shard's lane.
    RemoveShard {
        /// The lane to remove.
        shard: usize,
    },
    /// Stage a recompiled switch into every live lane (two-phase epoch
    /// handoff); later-added shards start on it.
    SwapSwitch {
        /// The replacement; its `n` must cover the current switch's.
        switch: Arc<StagedSwitch>,
    },
    /// Retarget the global admission cap (`None` = uncapped).
    SetAdmissionLimit {
        /// The new cap.
        limit: Option<usize>,
    },
}

/// A control-plane operation at a point in virtual time — the reconfig
/// analogue of [`SimFaultEvent`].
#[derive(Debug, Clone)]
pub struct SimReconfigEvent {
    /// Virtual tick at which the operation runs.
    pub at_tick: u64,
    /// What the control plane does.
    pub action: ReconfigAction,
}

/// Drive an [`SloController`] on the virtual clock: evaluate a live
/// snapshot every `every_ticks` ticks and apply the limit it hands back
/// through [`ServiceCore::set_admission_limit`]. Pure function of the
/// run, so SLO-controlled runs replay bit-for-bit like everything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPlan {
    /// Evaluation cadence in virtual ticks.
    pub every_ticks: u64,
    /// The AIMD policy.
    pub policy: SloPolicy,
}

/// A trace-driven workload: the scenario's producer is the trace itself
/// (see [`fabric::trace`]). The trace is lowered to per-tick frames
/// over the switch's inputs and submitted through the frame-batched
/// admission path by a single producer task, in frame order — the
/// deterministic analogue of one [`fabric::drive_service`] producer
/// playing [`fabric::trace::frames`].
///
/// `limit` is the shrinker's knob: only the first `limit` records play.
/// Shrinking truncates the trace suffix *before* touching the fault or
/// reconfiguration schedule, so minimal reproducers carry the shortest
/// workload prefix that still fails.
#[derive(Clone)]
pub struct TraceWorkload {
    /// The trace (shared so scenario clones during shrinking are cheap).
    pub trace: Arc<fabric::Trace>,
    /// Records of the trace that play (prefix length).
    pub limit: usize,
}

impl TraceWorkload {
    /// Wrap a whole trace (no truncation).
    pub fn full(trace: fabric::Trace) -> Self {
        let limit = trace.len();
        TraceWorkload {
            trace: Arc::new(trace),
            limit,
        }
    }

    /// Records that actually play.
    pub fn records(&self) -> usize {
        self.limit.min(self.trace.len())
    }

    /// The effective (truncated) trace.
    pub fn effective(&self) -> fabric::Trace {
        self.trace.truncated(self.limit)
    }
}

/// Everything that defines a simulated run except the interleaving seed.
#[derive(Clone)]
pub struct Scenario {
    /// Display name (the CLI's `--scenario` key).
    pub name: String,
    /// The switch every shard serves.
    pub switch: Arc<StagedSwitch>,
    /// Fabric configuration.
    pub config: FabricConfig,
    /// Concurrent producer tasks.
    pub producers: usize,
    /// Per-producer workload (seeded off `plan.seed + producer`).
    /// Ignored when [`Scenario::trace`] is set.
    pub plan: LoadPlan,
    /// Trace-driven workload: when set, the `plan` is replaced by
    /// one producer task replaying the trace's frames through the
    /// batched admission path.
    pub trace: Option<TraceWorkload>,
    /// Virtual-time fault schedule, sorted by `at_tick`. May target any
    /// lane below `config.max_shards`, including shards added mid-run.
    pub faults: Vec<SimFaultEvent>,
    /// Virtual-time control-plane schedule, sorted by `at_tick`.
    pub reconfig: Vec<SimReconfigEvent>,
    /// SLO-driven admission control on the virtual clock, if any.
    pub slo: Option<SloPlan>,
    /// Whether producers submit whole generation frames through the
    /// frame-batched admission path ([`ServiceCore::try_submit_batch`])
    /// instead of single messages — explores the ring's batched
    /// publication interleavings.
    pub batched: bool,
    /// Whether the scenario guarantees every generated message is
    /// delivered (blocking backpressure, unlimited retries, no faults,
    /// no admission cap) — enables the delivery-set equivalence oracle.
    pub lossless: bool,
    /// Tick budget; exceeding it is a liveness violation.
    pub max_ticks: u64,
}

impl Scenario {
    /// Every producer's frames: a trace is one producer, a plan has one
    /// per scenario producer (`plan.frames(n, p)`).
    pub fn frames(&self) -> Vec<Vec<(u64, Vec<Message>)>> {
        let n = self.switch.n;
        match &self.trace {
            Some(workload) => vec![fabric::trace::frames(&workload.effective(), n)],
            None => (0..self.producers)
                .map(|p| self.plan.frames(n, p))
                .collect(),
        }
    }

    /// # Panics
    /// If the fault schedule is unsorted or names a missing shard — a
    /// malformed scenario would make violations meaningless.
    pub fn validate(&self) {
        self.config.validate();
        assert!(self.producers > 0, "need at least one producer");
        assert!(
            self.faults.windows(2).all(|w| w[0].at_tick <= w[1].at_tick),
            "fault schedule must be sorted by tick"
        );
        assert!(
            self.faults.iter().all(|e| e.shard < self.config.max_shards),
            "fault event names a missing shard"
        );
        assert!(
            self.reconfig
                .windows(2)
                .all(|w| w[0].at_tick <= w[1].at_tick),
            "reconfig schedule must be sorted by tick"
        );
        assert!(
            self.reconfig.iter().all(|e| match &e.action {
                ReconfigAction::RemoveShard { shard } => *shard < self.config.max_shards,
                _ => true,
            }),
            "reconfig event names a lane outside the pool"
        );
        if let Some(plan) = &self.slo {
            assert!(plan.every_ticks > 0, "SLO cadence must be positive");
            plan.policy.validate();
        }
        if let Some(workload) = &self.trace {
            workload
                .trace
                .validate()
                .expect("scenario trace must be well-formed");
            assert_eq!(
                self.producers, 1,
                "trace scenarios have exactly one producer (the trace)"
            );
        }
    }
}

/// How a resolved submission step ended (the trace-level view of
/// [`SubmitOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitKind {
    /// Queued.
    Accepted,
    /// Queued after shedding the oldest queued message.
    AcceptedAfterShed,
    /// Refused.
    Rejected,
}

impl From<&SubmitOutcome> for SubmitKind {
    fn from(outcome: &SubmitOutcome) -> SubmitKind {
        match outcome {
            SubmitOutcome::Accepted => SubmitKind::Accepted,
            SubmitOutcome::AcceptedAfterShed => SubmitKind::AcceptedAfterShed,
            SubmitOutcome::Rejected => SubmitKind::Rejected,
            SubmitOutcome::Backpressured(_) => {
                unreachable!("the service core never hands back Backpressured")
            }
        }
    }
}

/// One scheduled step of a run. The determinism tests compare whole
/// traces with `==`; the CLI prints them line by line for replay
/// diffing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A producer's submission resolved in one step.
    Submit {
        /// Virtual tick of the step.
        tick: u64,
        /// Producer task index.
        producer: usize,
        /// Message id (producer-tagged).
        id: u64,
        /// How the submission resolved.
        outcome: SubmitKind,
    },
    /// A producer's submission would block: the task parks on the shard's
    /// queue, holding the message.
    Parked {
        /// Virtual tick of the step.
        tick: u64,
        /// Producer task index.
        producer: usize,
        /// Message id the producer is holding.
        id: u64,
        /// Shard whose full queue it waits on.
        shard: usize,
    },
    /// A parked producer's re-offer resolved.
    Resumed {
        /// Virtual tick of the step.
        tick: u64,
        /// Producer task index.
        producer: usize,
        /// Message id re-offered.
        id: u64,
        /// How the re-offer resolved.
        outcome: SubmitKind,
    },
    /// A producer submitted a whole generation frame through the batched
    /// admission path.
    SubmitBatch {
        /// Virtual tick of the step.
        tick: u64,
        /// Producer task index.
        producer: usize,
        /// Messages in the submitted frame.
        offered: usize,
        /// Messages that landed on a ring.
        accepted: u64,
        /// Queued messages shed to make room.
        shed: u64,
        /// Messages refused outright.
        rejected: u64,
        /// Messages handed back by full queues under blocking
        /// backpressure (the producer parks and re-offers them).
        blocked: usize,
    },
    /// A worker executed one batched routing frame.
    Frame {
        /// Virtual tick of the step.
        tick: u64,
        /// Shard that ran the frame.
        shard: usize,
        /// Messages offered to the switch this frame.
        offered: usize,
        /// Deliveries completed.
        delivered: usize,
        /// Messages dropped (retry budget exhausted).
        dropped: usize,
    },
    /// A fault event fired: the shard's fault set was replaced.
    Fault {
        /// Virtual tick of the injection.
        tick: u64,
        /// Target shard.
        shard: usize,
        /// Size of the new fault set (0 = repair).
        faults: usize,
    },
    /// A shard's published quarantine flag flipped.
    Quarantine {
        /// Virtual tick observed.
        tick: u64,
        /// The shard.
        shard: usize,
        /// New flag value.
        on: bool,
    },
    /// A shard joined the placement ring ([`ReconfigAction::AddShard`]).
    ShardAdded {
        /// Virtual tick of the epoch bump.
        tick: u64,
        /// The new lane's id.
        shard: usize,
    },
    /// A shard left the placement ring and began draining
    /// ([`ReconfigAction::RemoveShard`]).
    ShardRemoved {
        /// Virtual tick of the epoch bump.
        tick: u64,
        /// The draining lane's id.
        shard: usize,
    },
    /// A replacement switch was staged into every live lane
    /// ([`ReconfigAction::SwapSwitch`]); each worker installs it once its
    /// old-epoch backlog completes.
    SwitchSwapped {
        /// Virtual tick of the epoch bump.
        tick: u64,
        /// Lanes signalled.
        lanes: usize,
    },
    /// The global admission cap was retargeted
    /// ([`ReconfigAction::SetAdmissionLimit`]).
    AdmissionLimitSet {
        /// Virtual tick of the change.
        tick: u64,
        /// The new cap (`None` = uncapped).
        limit: Option<usize>,
    },
    /// The SLO controller changed the admission limit after an
    /// evaluation.
    SloAdjust {
        /// Virtual tick of the evaluation.
        tick: u64,
        /// The interval's p99 wait (bucket floor).
        p99: u64,
        /// Deliveries in the interval.
        samples: u64,
        /// The limit the controller set.
        limit: usize,
    },
    /// All producers finished; the queues were closed (drain begins).
    Closed {
        /// Virtual tick of the close.
        tick: u64,
    },
    /// A worker drained its backlog after close and finished.
    WorkerDone {
        /// Virtual tick of the final step.
        tick: u64,
        /// The shard.
        shard: usize,
    },
}

/// The complete, deterministic record of one simulated run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Scenario name.
    pub scenario: String,
    /// Interleaving seed.
    pub seed: u64,
    /// Every scheduled step, in order.
    pub trace: Vec<TraceEvent>,
    /// Final merged metrics (queue counters folded in).
    pub snapshot: FabricSnapshot,
    /// Every delivery, in completion order.
    pub completions: Vec<Delivery>,
    /// Oracle violations observed (empty = the run passed).
    pub violations: Vec<Violation>,
    /// Virtual ticks executed.
    pub ticks: u64,
    /// Routing frames executed.
    pub frames: u64,
}

impl SimRun {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One producer task: the remainder of its scripted workload plus its
/// parked state (held messages and the shards whose queues they wait
/// on).
enum ProducerTask {
    /// Submits one message per step ([`ServiceCore::try_submit`]); parks
    /// on at most one hand-back at a time.
    PerMessage {
        script: VecDeque<Message>,
        parked: Option<(Message, usize)>,
    },
    /// Submits one whole generation frame per step
    /// ([`ServiceCore::try_submit_batch`]); a full queue under blocking
    /// backpressure hands back a *suffix* of placed messages, which the
    /// task re-offers one per step, oldest first — exactly the order in
    /// which a thread in [`ServiceCore::submit_batch_blocking`] lands
    /// them, one blocking push per message.
    Batched {
        frames: VecDeque<Vec<Message>>,
        blocked: VecDeque<(Message, usize)>,
    },
}

impl ProducerTask {
    fn done(&self) -> bool {
        match self {
            ProducerTask::PerMessage { script, parked } => script.is_empty() && parked.is_none(),
            ProducerTask::Batched { frames, blocked } => frames.is_empty() && blocked.is_empty(),
        }
    }

    fn parked(&self) -> bool {
        match self {
            ProducerTask::PerMessage { parked, .. } => parked.is_some(),
            ProducerTask::Batched { blocked, .. } => !blocked.is_empty(),
        }
    }

    /// The shard whose queue must make room before this task can run
    /// again, if it is parked.
    fn parked_shard(&self) -> Option<usize> {
        match self {
            ProducerTask::PerMessage { parked, .. } => parked.as_ref().map(|(_, shard)| *shard),
            ProducerTask::Batched { blocked, .. } => blocked.front().map(|(_, shard)| *shard),
        }
    }
}

/// A ready task the scheduler may step next.
#[derive(Clone, Copy)]
enum Task {
    Producer(usize),
    Worker(usize),
}

/// Execute one seeded cooperative run of `scenario`. Never panics on an
/// oracle violation — failures land in [`SimRun::violations`] so the
/// caller can shrink and report them with the seed.
pub fn run_scenario(scenario: &Scenario, seed: u64) -> SimRun {
    scenario.validate();
    let core = ServiceCore::new(scenario.config);
    let clock = VirtualClock::new();
    let mut rng = SplitMix64(seed);
    let mut workers: Vec<WorkerCore> = (0..scenario.config.shards)
        .map(|id| core.worker(id, Arc::clone(&scenario.switch)))
        .collect();
    let mut worker_done = vec![false; workers.len()];
    let mut quarantine_flags = vec![false; workers.len()];
    let sources = scenario.frames();
    let mut expected_lossless: std::collections::HashMap<u64, Vec<u8>> =
        std::collections::HashMap::new();
    if scenario.lossless {
        for message in sources.iter().flatten().flat_map(|(_, frame)| frame) {
            expected_lossless.insert(message.id, message.payload.as_ref().to_vec());
        }
    }
    // Traces always take the batched admission path, in frame order.
    let batched = scenario.batched || scenario.trace.is_some();
    let mut producers: Vec<ProducerTask> = sources
        .into_iter()
        .map(|frames| {
            let frames = frames.into_iter().map(|(_, frame)| frame);
            if batched {
                ProducerTask::Batched {
                    frames: frames.filter(|f| !f.is_empty()).collect(),
                    blocked: VecDeque::new(),
                }
            } else {
                ProducerTask::PerMessage {
                    script: frames.flatten().collect(),
                    parked: None,
                }
            }
        })
        .collect();

    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut completions: Vec<Delivery> = Vec::new();
    let mut frames = 0u64;
    let mut next_fault = 0usize;
    let mut next_reconfig = 0usize;
    let mut closed = false;
    // The switch newly added shards start on: the scenario's, until a
    // SwapSwitch event replaces it.
    let mut current_switch = Arc::clone(&scenario.switch);
    let mut slo = scenario
        .slo
        .map(|plan| (plan, SloController::new(plan.policy)));

    loop {
        let tick = clock.now();
        if tick >= scenario.max_ticks {
            violations.push(Violation::TickLimit { tick });
            break;
        }

        // Virtual-time fault schedule: every event due by now fires,
        // deterministically, before the scheduler draws.
        while next_fault < scenario.faults.len() && scenario.faults[next_fault].at_tick <= tick {
            let event = &scenario.faults[next_fault];
            core.inject_faults(event.shard, event.faults.clone());
            trace.push(TraceEvent::Fault {
                tick,
                shard: event.shard,
                faults: event.faults.len(),
            });
            next_fault += 1;
        }

        // Virtual-time control-plane schedule: epoch-bumping operations
        // land between scheduler steps, exactly like a control thread's
        // calls land between data-plane steps. Refused operations (last
        // active shard, exhausted lane pool, drain already begun) are
        // skipped without a trace entry.
        while next_reconfig < scenario.reconfig.len()
            && scenario.reconfig[next_reconfig].at_tick <= tick
        {
            match &scenario.reconfig[next_reconfig].action {
                ReconfigAction::AddShard => {
                    if let Some(shard) = core.add_shard() {
                        workers.push(core.worker(shard, Arc::clone(&current_switch)));
                        worker_done.push(false);
                        quarantine_flags.push(false);
                        trace.push(TraceEvent::ShardAdded { tick, shard });
                    }
                }
                ReconfigAction::RemoveShard { shard } => {
                    if core.remove_shard(*shard) {
                        trace.push(TraceEvent::ShardRemoved {
                            tick,
                            shard: *shard,
                        });
                    }
                }
                ReconfigAction::SwapSwitch { switch } => {
                    current_switch = Arc::clone(switch);
                    let lanes = core.swap_switch(Arc::clone(switch));
                    trace.push(TraceEvent::SwitchSwapped { tick, lanes });
                }
                ReconfigAction::SetAdmissionLimit { limit } => {
                    core.set_admission_limit(*limit);
                    trace.push(TraceEvent::AdmissionLimitSet {
                        tick,
                        limit: *limit,
                    });
                }
            }
            next_reconfig += 1;
        }

        // SLO-driven admission on the virtual clock: evaluate a live
        // snapshot at the plan's cadence and keep the core's limit in
        // lockstep with the controller (the set is idempotent; only
        // changes bump the epoch or the trace).
        if let Some((plan, controller)) = &mut slo {
            if tick > 0 && tick.is_multiple_of(plan.every_ticks) {
                let decision = controller.evaluate(&core.snapshot());
                core.set_admission_limit(Some(decision.limit));
                if decision.changed {
                    trace.push(TraceEvent::SloAdjust {
                        tick,
                        p99: decision.interval_p99,
                        samples: decision.samples,
                        limit: decision.limit,
                    });
                }
            }
        }

        // Graceful drain starts the moment the offered load ends.
        if !closed && producers.iter().all(ProducerTask::done) {
            core.close();
            closed = true;
            trace.push(TraceEvent::Closed { tick });
        }

        // Readiness, in fixed task order (determinism): a producer is
        // ready with a fresh message, or parked on a queue that would now
        // resolve its re-offer; a worker is ready when stepping it makes
        // progress.
        let mut ready: Vec<Task> = Vec::new();
        for (p, task) in producers.iter().enumerate() {
            let runnable = match task.parked_shard() {
                Some(shard) => core.queue(shard).would_accept(scenario.config.backpressure),
                None => !task.done(),
            };
            if runnable {
                ready.push(Task::Producer(p));
            }
        }
        for (w, worker) in workers.iter().enumerate() {
            if !worker_done[w] && worker.ready() {
                ready.push(Task::Worker(w));
            }
        }

        if ready.is_empty() {
            let finished =
                producers.iter().all(ProducerTask::done) && worker_done.iter().all(|&d| d);
            if !finished {
                violations.push(Violation::Deadlock {
                    tick,
                    parked_producers: producers.iter().filter(|t| t.parked()).count(),
                    unfinished_workers: worker_done.iter().filter(|&&d| !d).count(),
                });
            }
            break;
        }

        // The seeded draw: the single source of scheduling entropy.
        let choice = ready[(rng.next_u64() % ready.len() as u64) as usize];
        clock.advance(1);

        match choice {
            Task::Producer(p) => match &mut producers[p] {
                ProducerTask::PerMessage { script, parked } => match parked.take() {
                    Some((message, shard)) => {
                        let id = message.id;
                        match core.retry_submit(message, shard) {
                            SubmitStep::Done(outcome) => trace.push(TraceEvent::Resumed {
                                tick,
                                producer: p,
                                id,
                                outcome: SubmitKind::from(&outcome),
                            }),
                            SubmitStep::Blocked { message, shard } => {
                                *parked = Some((message, shard));
                            }
                        }
                    }
                    None => {
                        let message = script.pop_front().expect("ready producer has work");
                        let id = message.id;
                        match core.try_submit(message) {
                            SubmitStep::Done(outcome) => trace.push(TraceEvent::Submit {
                                tick,
                                producer: p,
                                id,
                                outcome: SubmitKind::from(&outcome),
                            }),
                            SubmitStep::Blocked { message, shard } => {
                                trace.push(TraceEvent::Parked {
                                    tick,
                                    producer: p,
                                    id,
                                    shard,
                                });
                                *parked = Some((message, shard));
                            }
                        }
                    }
                },
                ProducerTask::Batched { frames, blocked } => {
                    if let Some((message, shard)) = blocked.pop_front() {
                        // Re-offer the oldest hand-back, one per step —
                        // the serial order in which a thread in
                        // `submit_batch_blocking` lands its remainder.
                        let id = message.id;
                        match core.retry_submit(message, shard) {
                            SubmitStep::Done(outcome) => trace.push(TraceEvent::Resumed {
                                tick,
                                producer: p,
                                id,
                                outcome: SubmitKind::from(&outcome),
                            }),
                            SubmitStep::Blocked { message, shard } => {
                                blocked.push_front((message, shard));
                            }
                        }
                    } else {
                        let frame = frames.pop_front().expect("ready producer has work");
                        let offered = frame.len();
                        let batch = core.try_submit_batch(frame);
                        trace.push(TraceEvent::SubmitBatch {
                            tick,
                            producer: p,
                            offered,
                            accepted: batch.accepted,
                            shed: batch.shed,
                            rejected: batch.rejected,
                            blocked: batch.blocked.len(),
                        });
                        blocked.extend(batch.blocked);
                    }
                }
            },
            Task::Worker(w) => match workers[w].step() {
                WorkerStep::Frame(run) => {
                    frames += 1;
                    trace.push(TraceEvent::Frame {
                        tick,
                        shard: w,
                        offered: run.offered.len(),
                        delivered: run.delivered.len(),
                        dropped: run.dropped.len(),
                    });
                    let shard = workers[w].shard();
                    // The frame oracle replays against the shard's
                    // *installed* switch — after a live swap that is the
                    // replacement, not the scenario's original.
                    if let Some(v) =
                        check_frame(shard.switch(), shard.active_faults(), &run, w, tick)
                    {
                        violations.push(v);
                    }
                    if let Some(v) = check_capacity(shard, &run, tick) {
                        violations.push(v);
                    }
                    completions.extend(run.delivered);
                    let flag = core.shard_quarantined(w);
                    if flag != quarantine_flags[w] {
                        quarantine_flags[w] = flag;
                        trace.push(TraceEvent::Quarantine {
                            tick,
                            shard: w,
                            on: flag,
                        });
                    }
                }
                WorkerStep::Idle => {}
                WorkerStep::Done => {
                    worker_done[w] = true;
                    trace.push(TraceEvent::WorkerDone { tick, shard: w });
                }
            },
        }

        // The conservation oracle holds at *every* tick boundary: each
        // scheduled step is atomic, so the ledger can never be caught
        // mid-update.
        let ledger = conservation_ledger(&core, &workers);
        if !ledger.holds() {
            violations.push(Violation::Conservation { tick, ledger });
            break;
        }
    }

    let residual = core.in_flight();
    if residual != 0 && violations.is_empty() {
        violations.push(Violation::ResidualInFlight {
            in_flight: residual,
        });
    }
    // Lossless scenarios carry their delivery oracle with them: every
    // scripted message must arrive exactly once, bit-exact.
    if scenario.lossless && violations.is_empty() {
        if let Some(v) = crate::oracles::check_lossless(&expected_lossless, &completions) {
            violations.push(v);
        }
    }

    let mut shards = Vec::with_capacity(workers.len());
    for (i, worker) in workers.iter().enumerate() {
        let mut metrics = worker.shard().metrics.clone();
        core.fold_queue_counters(i, &mut metrics);
        shards.push(metrics);
    }
    SimRun {
        scenario: scenario.name.clone(),
        seed,
        trace,
        snapshot: FabricSnapshot {
            shards,
            in_flight: residual,
        },
        completions,
        violations,
        ticks: clock.now(),
        frames,
    }
}

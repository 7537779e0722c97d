//! The cooperative tree: [`TreeDriver`], the run state every
//! single-threaded schedule shares, and [`drive_tree`], its fixed
//! round-robin schedule. A schedule decides only which task steps next;
//! producers and their parked retries, the workers, the cascaded close
//! rule, the ledger and the snapshot are the driver's, so `drive_tree`
//! and `simtest`'s seeded tree simulator decide each of them alike.
//! `drive_tree` uses no threads and no entropy beyond the workload seeds:
//! same topology, same frames ⇒ bit-identical [`TreeReport`].

use std::collections::VecDeque;

use fabric::{Delivery, Message, SubmitOutcome};

use crate::core::{tree_ledger, tree_snapshot, TierCore, TierStep, TierSubmit, TierWorker};
use crate::snapshot::{TreeLedger, TreeSnapshot};
use crate::topology::TierTopology;

/// Rounds the driver may run before declaring the tree wedged.
const ROUND_LIMIT: u64 = 1 << 22;

/// One external producer: the rest of its flattened script, plus the
/// message it holds (with its leaf placement) while that leaf's ring is
/// full under blocking backpressure.
struct Producer {
    script: VecDeque<Message>,
    parked: Option<(Message, usize, usize)>,
}

impl Producer {
    fn done(&self) -> bool {
        self.script.is_empty() && self.parked.is_none()
    }
}

/// The run state of a cooperatively scheduled tree: the cores, every
/// worker in `(tier, fabric, shard)` order, the external producers and
/// the per-tier close flags. A schedule steps producers and workers by
/// index and calls [`TreeDriver::close_drained_tiers`] between steps.
pub struct TreeDriver {
    core: TierCore,
    workers: Vec<TierWorker>,
    producers: Vec<Producer>,
    closed: Vec<bool>,
}

impl TreeDriver {
    /// Build the tree for `topology`, with one external producer per
    /// element of `producers`, each playing its frames (from
    /// [`fabric::LoadPlan::frames`] or [`fabric::trace::frames`]) in
    /// order, one message per step.
    pub fn new(topology: TierTopology, producers: Vec<Vec<(u64, Vec<Message>)>>) -> TreeDriver {
        let core = TierCore::new(topology);
        let workers = core.workers();
        let closed = vec![false; core.topology().depth()];
        let producers = producers
            .into_iter()
            .map(|frames| Producer {
                script: frames.into_iter().flat_map(|(_, frame)| frame).collect(),
                parked: None,
            })
            .collect();
        TreeDriver {
            core,
            workers,
            producers,
            closed,
        }
    }

    /// The tree's cores (fault injection, quarantine flags).
    pub fn core(&self) -> &TierCore {
        &self.core
    }

    /// Every worker, in `(tier, fabric, shard)` order.
    pub fn workers(&self) -> &[TierWorker] {
        &self.workers
    }

    /// Whether producer `p` can make progress: it holds a parked message
    /// its leaf ring would now accept, or it has script left.
    pub fn producer_ready(&self, p: usize) -> bool {
        let producer = &self.producers[p];
        match &producer.parked {
            Some((_, leaf, shard)) => self.core.leaf_would_accept(*leaf, *shard),
            None => !producer.script.is_empty(),
        }
    }

    /// Step producer `p` once: re-offer its parked message to the
    /// placement already chosen, else offer its next scripted message.
    /// Returns the admission outcome, or `None` if the leaf ring was full
    /// under blocking backpressure and the message is parked again.
    ///
    /// # Panics
    /// If the producer has nothing left to offer.
    pub fn step_producer(&mut self, p: usize) -> Option<SubmitOutcome> {
        let producer = &mut self.producers[p];
        let offer = match producer.parked.take() {
            Some((message, leaf, shard)) => self.core.retry_submit(message, leaf, shard),
            None => {
                let message = producer
                    .script
                    .pop_front()
                    .expect("producer has script left");
                self.core.try_submit(message)
            }
        };
        match offer {
            TierSubmit::Done(outcome) => Some(outcome),
            TierSubmit::Blocked {
                message,
                leaf,
                shard,
            } => {
                producer.parked = Some((message, leaf, shard));
                None
            }
        }
    }

    /// Step worker `w` once ([`TierWorker::step`]).
    pub fn step_worker(&mut self, w: usize) -> TierStep {
        self.workers[w].step()
    }

    /// The cascaded close rule: tier 0 closes once every producer has
    /// finished; tier `t+1` once tier `t` is closed and all its workers
    /// are done. Call between steps; closing is idempotent.
    pub fn close_drained_tiers(&mut self) {
        for tier in 0..self.closed.len() {
            if self.closed[tier] {
                continue;
            }
            let upstream_done = match tier {
                0 => self.producers.iter().all(Producer::done),
                _ => {
                    let mut upstream = self.workers.iter().filter(|w| w.tier() == tier - 1);
                    self.closed[tier - 1] && upstream.all(TierWorker::done)
                }
            };
            if upstream_done {
                self.core.close_tier(tier);
                self.closed[tier] = true;
            }
        }
    }

    /// Whether every producer and every worker has finished.
    pub fn finished(&self) -> bool {
        self.producers.iter().all(Producer::done) && self.workers.iter().all(TierWorker::done)
    }

    /// Producers holding a parked message.
    pub fn parked_producers(&self) -> usize {
        self.producers.iter().filter(|p| p.parked.is_some()).count()
    }

    /// The live end-to-end ledger ([`tree_ledger`]).
    pub fn ledger(&self) -> TreeLedger {
        tree_ledger(&self.core, &self.workers)
    }

    /// The tree's snapshot ([`tree_snapshot`]); drain-time exact once
    /// [`TreeDriver::finished`].
    pub fn snapshot(&self) -> TreeSnapshot {
        tree_snapshot(&self.core, &self.workers)
    }
}

/// What a synchronous tree drive did.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeReport {
    /// Fresh messages the producers generated.
    pub generated: u64,
    /// Spine deliveries (the tree's completions), in completion order.
    pub completions: Vec<Delivery>,
    /// Drain-time snapshot; link holds and in-flight are zero.
    pub snapshot: TreeSnapshot,
    /// Scheduler rounds the drive took.
    pub rounds: u64,
}

/// Drive a tree closed-loop: each element of `producers` is one external
/// source's frames (from [`fabric::LoadPlan::frames`] or
/// [`fabric::trace::frames`]), played in order against the full
/// topology. Each round offers one message per ready source (a parked
/// message is re-offered once its leaf has room — the closed loop),
/// applies the close cascade, then steps every unfinished worker in
/// `(tier, fabric, shard)` order until it stalls on its link, runs dry or
/// finishes. Ticks are not waited for.
///
/// The end-to-end ledger is checked once per round; the returned
/// snapshot is drain-time exact. Same frames, same topology ⇒
/// bit-identical [`TreeReport`].
///
/// # Panics
/// If conservation is violated at any round, or the tree stops making
/// progress before draining.
pub fn drive_tree(topology: &TierTopology, producers: Vec<Vec<(u64, Vec<Message>)>>) -> TreeReport {
    let generated = producers
        .iter()
        .flatten()
        .map(|(_, frame)| frame.len() as u64)
        .sum();
    let sources = producers.len();
    let mut driver = TreeDriver::new(topology.clone(), producers);
    let mut completions = Vec::new();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        assert!(rounds < ROUND_LIMIT, "tree drive failed to drain");
        let mut progressed = false;
        for p in 0..sources {
            if driver.producer_ready(p) {
                driver.step_producer(p);
                progressed = true;
            }
        }
        driver.close_drained_tiers();
        for w in 0..driver.workers().len() {
            while !driver.workers()[w].done() {
                match driver.step_worker(w) {
                    TierStep::Frame(run) => {
                        progressed = true;
                        if driver.workers()[w].is_spine() {
                            completions.extend(run.delivered);
                        }
                    }
                    TierStep::Forwarded | TierStep::Done => progressed = true,
                    TierStep::ForwardStalled | TierStep::Idle => break,
                }
            }
        }
        let ledger = driver.ledger();
        assert!(
            ledger.holds(),
            "round {rounds}: tree conservation violated: {ledger:?}"
        );
        if driver.finished() {
            break;
        }
        assert!(
            progressed,
            "round {rounds}: tree wedged (producers {} parked, ledger {ledger:?})",
            driver.parked_producers()
        );
    }
    let snapshot = driver.snapshot();
    debug_assert!(
        snapshot.conserved_end_to_end(),
        "drain snapshot violates end-to-end conservation: {:?}",
        snapshot.ledger()
    );
    TreeReport {
        generated,
        completions,
        snapshot,
        rounds,
    }
}

//! The threaded tree: one OS thread per `(tier, fabric, shard)` looping
//! [`TierWorker::step_blocking`], which forwards each frame's deliveries
//! downstream with real blocking backpressure — a full spine pushes the
//! forwarding thread onto the downstream ring's condvar, which fills the
//! upstream ring, which blocks external producers at leaf admission: the
//! threaded realization of the credit handshake the single-step
//! [`TierWorker::step`] models.
//!
//! Drain cascades tier by tier: close the leaves, join their workers
//! (flushing every uplink), then close the next tier, and so on — no
//! message can be in transit past a joined tier, so the drain-time
//! snapshot ([`tree_snapshot`] over the joined workers) satisfies the
//! end-to-end identity exactly.

use std::thread::JoinHandle;

use fabric::{Delivery, Message, SubmitOutcome};

use crate::core::{tree_snapshot, TierCore, TierStep, TierWorker};
use crate::snapshot::TreeSnapshot;
use crate::topology::TierTopology;

/// A joined worker thread: the worker and its spine deliveries.
type Joined = (TierWorker, Vec<Delivery>);

/// What a threaded tree run delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct TierReport {
    /// Drain-time snapshot; link holds are zero by construction.
    pub snapshot: TreeSnapshot,
    /// Spine deliveries, grouped by join order.
    pub completions: Vec<Delivery>,
    /// Messages forwarded across inter-tier links, per tier boundary
    /// (`forwarded[t]` = tier `t` → tier `t+1`).
    pub forwarded: Vec<u64>,
}

/// A live concurrent concentrator tree.
pub struct TierService {
    core: TierCore,
    /// Worker handles grouped by tier, each tier in spawn order, for the
    /// cascaded drain.
    workers: Vec<Vec<JoinHandle<Joined>>>,
}

impl TierService {
    /// Spawn the whole tree: every tier's fabrics share that tier's
    /// switch (one datapath compile per tier), each shard gets a thread.
    pub fn start(topology: TierTopology) -> TierService {
        let core = TierCore::new(topology);
        let mut workers: Vec<Vec<JoinHandle<Joined>>> =
            (0..core.topology().depth()).map(|_| Vec::new()).collect();
        for mut worker in core.workers() {
            let tier = worker.tier();
            let name = format!(
                "tier{tier}-fab{}-shard{}",
                worker.fabric(),
                worker.shard_id()
            );
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    let mut deliveries = Vec::new();
                    loop {
                        match worker.step_blocking() {
                            TierStep::Frame(run) if worker.is_spine() => {
                                deliveries.extend(run.delivered)
                            }
                            TierStep::Done => break,
                            _ => {}
                        }
                    }
                    (worker, deliveries)
                })
                .expect("spawn tier worker");
            workers[tier].push(handle);
        }
        TierService { core, workers }
    }

    /// Submit one external message (source id hashed onto a leaf),
    /// blocking under leaf blocking backpressure.
    pub fn submit(&self, message: Message) -> SubmitOutcome {
        self.core.submit_blocking(message)
    }

    /// Submit a whole external frame, hashed onto leaves and offered as
    /// one batch per leaf ([`TierCore::submit_batch_blocking`]).
    pub fn submit_batch(&self, messages: Vec<Message>) -> fabric::BatchSubmit {
        self.core.submit_batch_blocking(messages)
    }

    /// Messages in flight anywhere in the tree.
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// The tree's topology.
    pub fn topology(&self) -> &TierTopology {
        self.core.topology()
    }

    /// Cascaded graceful shutdown: tier by tier, refuse new work, let
    /// the tier's workers flush their backlogs *and uplinks*, join them,
    /// then close the next tier. The snapshot folds queue counters
    /// exactly once per shard.
    pub fn drain(self) -> TierReport {
        let depth = self.core.topology().depth();
        let mut workers = Vec::new();
        let mut completions = Vec::new();
        for (tier, handles) in self.workers.into_iter().enumerate() {
            self.core.close_tier(tier);
            for handle in handles {
                let (worker, mut delivered) = handle.join().expect("tier worker panicked");
                completions.append(&mut delivered);
                workers.push(worker);
            }
        }
        let mut forwarded = vec![0u64; depth - 1];
        for worker in workers.iter().filter(|w| !w.is_spine()) {
            forwarded[worker.tier()] += worker.forwarded;
        }
        let snapshot = tree_snapshot(&self.core, &workers);
        debug_assert!(
            snapshot.conserved_end_to_end(),
            "tree drain violates end-to-end conservation: {:?}",
            snapshot.ledger()
        );
        TierReport {
            snapshot,
            completions,
            forwarded,
        }
    }
}

//! The tree's data plane: per-fabric [`ServiceCore`]s joined by
//! valid/ready inter-tier links, and the single-step worker state
//! machine the deterministic simulator and the threaded service share.
//!
//! **Links and credit backpressure.** A [`TierWorker`] wraps one leaf or
//! intermediate shard's [`WorkerCore`] and an *egress hold*: the frame's
//! deliveries, remapped onto downstream input wires, waiting for
//! downstream admission. The hold is the link's valid side; downstream
//! ring space is the ready side. While the hold is non-empty the worker
//! runs **no new frames**, so its own ingress ring fills, its upstream
//! producers block or shed, and the credit exhaustion propagates tier by
//! tier down to leaf admission — exactly the wormhole-style
//! valid/ready handshake, at frame granularity.
//!
//! **Load-aware spine placement.** When a held message is first
//! forwarded, the link picks the downstream fabric with the fewest
//! messages in flight among fabrics that still have a healthy
//! (non-quarantined) shard — quarantine steering across fabrics, on top
//! of the per-fabric shard steering the cores already do. A message
//! handed back by a full downstream ring under blocking backpressure
//! stays *placed* (same fabric, same shard) until space opens, mirroring
//! a blocked producer thread.

use std::collections::VecDeque;
use std::sync::Arc;

use fabric::{
    Backpressure, Delivery, FrameRun, Message, ServiceCore, Shard, SubmitOutcome, SubmitStep,
    WorkerCore, WorkerStep,
};

use crate::snapshot::{TreeLedger, TreeSnapshot};
use crate::topology::TierTopology;

/// The tree's passive state: one [`ServiceCore`] per (tier, fabric).
pub struct TierCore {
    topology: TierTopology,
    /// `cores[tier][fabric]`.
    cores: Vec<Vec<Arc<ServiceCore>>>,
}

/// What one external (leaf-tier) submission step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierSubmit {
    /// The submission resolved at leaf admission.
    Done(SubmitOutcome),
    /// The chosen leaf ring is full under blocking backpressure: the
    /// message is handed back with its placement; park until
    /// [`TierCore::leaf_would_accept`] and then
    /// [`TierCore::retry_submit`].
    Blocked {
        /// The handed-back message (source already rewritten to the leaf
        /// input wire).
        message: Message,
        /// The leaf fabric placement chose.
        leaf: usize,
        /// The shard within that leaf.
        shard: usize,
    },
}

/// Pick the downstream fabric for a fresh forwarded message: fewest
/// in-flight among fabrics with at least one healthy shard (ties to the
/// lowest index); if every fabric is fully quarantined, least-loaded
/// overall — degraded service beats dropping on the floor.
pub fn pick_downstream(cores: &[Arc<ServiceCore>]) -> usize {
    let healthy =
        |core: &ServiceCore| (0..core.config().shards).any(|shard| !core.shard_quarantined(shard));
    let least = |indices: &mut dyn Iterator<Item = usize>| {
        indices
            .map(|i| (cores[i].in_flight(), i))
            .min()
            .map(|(_, i)| i)
    };
    least(&mut (0..cores.len()).filter(|&i| healthy(&cores[i])))
        .or_else(|| least(&mut (0..cores.len())))
        .expect("topology guarantees at least one fabric per tier")
}

impl TierCore {
    /// Build the tree's cores (no workers yet — see
    /// [`TierCore::workers`]).
    pub fn new(topology: TierTopology) -> TierCore {
        topology.validate();
        let cores = topology
            .tiers
            .iter()
            .map(|spec| {
                (0..spec.fabrics)
                    .map(|_| Arc::new(ServiceCore::new(spec.config)))
                    .collect()
            })
            .collect();
        TierCore { topology, cores }
    }

    /// The topology this tree serves.
    pub fn topology(&self) -> &TierTopology {
        &self.topology
    }

    /// The core of fabric `fabric` in tier `tier`.
    pub fn core(&self, tier: usize, fabric: usize) -> &Arc<ServiceCore> {
        &self.cores[tier][fabric]
    }

    /// All of tier `tier`'s cores, in fabric order.
    pub fn tier_cores(&self, tier: usize) -> &[Arc<ServiceCore>] {
        &self.cores[tier]
    }

    /// Every worker in the tree, in `(tier, fabric, shard)` order — the
    /// canonical order the sync driver and the simulator step in. Each
    /// tier's workers share that tier's switch, so the whole tier pays
    /// one datapath compile.
    pub fn workers(&self) -> Vec<TierWorker> {
        let mut workers = Vec::new();
        for (tier, spec) in self.topology.tiers.iter().enumerate() {
            let downstream = if tier + 1 < self.topology.depth() {
                Some(self.cores[tier + 1].clone())
            } else {
                None
            };
            for fabric in 0..spec.fabrics {
                for shard in 0..spec.config.shards {
                    workers.push(TierWorker {
                        tier,
                        fabric,
                        shard_id: shard,
                        inner: self.cores[tier][fabric].worker(shard, Arc::clone(&spec.switch)),
                        downstream: downstream.clone(),
                        forward_base: if downstream.is_some() {
                            fabric * self.topology.link_ports(tier)
                        } else {
                            0
                        },
                        link_ports: if downstream.is_some() {
                            self.topology.link_ports(tier)
                        } else {
                            0
                        },
                        backpressure_down: if tier + 1 < self.topology.depth() {
                            self.topology.tiers[tier + 1].config.backpressure
                        } else {
                            Backpressure::Block
                        },
                        egress: VecDeque::new(),
                        inner_done: false,
                        forwarded: 0,
                        forward_stalls: 0,
                    });
                }
            }
        }
        workers
    }

    /// Submit one external message: hash its source onto a leaf fabric
    /// and input wire (the message's `source` is rewritten to the wire),
    /// then run leaf admission. Non-blocking — the simulation seam.
    pub fn try_submit(&self, mut message: Message) -> TierSubmit {
        let (leaf, wire) = self.topology.ingress(message.source as u64);
        message.source = wire;
        match self.cores[0][leaf].try_submit(message) {
            SubmitStep::Done(outcome) => TierSubmit::Done(outcome),
            SubmitStep::Blocked { message, shard } => TierSubmit::Blocked {
                message,
                leaf,
                shard,
            },
        }
    }

    /// Re-offer a message handed back by [`TierCore::try_submit`] to its
    /// already-chosen leaf placement.
    pub fn retry_submit(&self, message: Message, leaf: usize, shard: usize) -> TierSubmit {
        match self.cores[0][leaf].retry_submit(message, shard) {
            SubmitStep::Done(outcome) => TierSubmit::Done(outcome),
            SubmitStep::Blocked { message, shard } => TierSubmit::Blocked {
                message,
                leaf,
                shard,
            },
        }
    }

    /// Submit one external message, blocking while its leaf ring is full
    /// under blocking backpressure — the threaded service's seam.
    pub fn submit_blocking(&self, mut message: Message) -> SubmitOutcome {
        let (leaf, wire) = self.topology.ingress(message.source as u64);
        message.source = wire;
        self.cores[0][leaf].submit_blocking(message)
    }

    /// Submit a whole external frame, blocking under leaf blocking
    /// backpressure: hash every message onto its leaf, then offer each
    /// leaf its share in one batch. One ring reservation and one worker
    /// wake per leaf per frame instead of one per message — the
    /// difference between an idle tree sweeping near-empty frames and
    /// full ones. [`fabric::BatchSubmit::blocked`] is empty on return.
    pub fn submit_batch_blocking(&self, messages: Vec<Message>) -> fabric::BatchSubmit {
        let mut by_leaf: Vec<Vec<Message>> = (0..self.topology.tiers[0].fabrics)
            .map(|_| Vec::new())
            .collect();
        for mut message in messages {
            let (leaf, wire) = self.topology.ingress(message.source as u64);
            message.source = wire;
            by_leaf[leaf].push(message);
        }
        let mut result = fabric::BatchSubmit::default();
        for (leaf, group) in by_leaf.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let push = self.cores[0][leaf].submit_batch_blocking(group);
            debug_assert!(push.blocked.is_empty());
            result.accepted += push.accepted;
            result.shed += push.shed;
            result.rejected += push.rejected;
        }
        result
    }

    /// Whether a parked external producer's placement would accept a
    /// retry right now — the simulator's readiness predicate.
    pub fn leaf_would_accept(&self, leaf: usize, shard: usize) -> bool {
        self.cores[0][leaf]
            .queue(shard)
            .would_accept(self.topology.tiers[0].config.backpressure)
    }

    /// Close every fabric in tier `tier` (drain begins there).
    pub fn close_tier(&self, tier: usize) {
        for core in &self.cores[tier] {
            core.close();
        }
    }

    /// Messages in flight inside any fabric of the tree (link holds not
    /// included — see [`tree_ledger`]).
    pub fn in_flight(&self) -> u64 {
        self.cores
            .iter()
            .flatten()
            .map(|core| core.in_flight())
            .sum()
    }
}

/// A held egress message on an inter-tier link.
#[derive(Debug)]
enum Egress {
    /// Not yet offered downstream: placement still to be chosen.
    Fresh(Message),
    /// Offered and handed back by a full ring under blocking
    /// backpressure: pinned to its placement, waiting for credit.
    Placed {
        message: Message,
        fabric: usize,
        shard: usize,
    },
}

/// What one [`TierWorker::step`] did.
#[derive(Debug)]
pub enum TierStep {
    /// Moved the head held message onto a downstream ring.
    Forwarded,
    /// The head held message found no downstream credit (ring full
    /// under blocking backpressure): the link is stalled.
    ForwardStalled,
    /// Executed one batched routing frame. At a non-spine tier the
    /// deliveries were also queued onto the egress hold; at the spine
    /// they are the tree's completions.
    Frame(FrameRun),
    /// Nothing to do right now.
    Idle,
    /// Queue closed and drained, egress hold empty: finished.
    Done,
}

/// One shard's serving loop in the tree: the fabric [`WorkerCore`] plus
/// the uplink's egress hold (see the module docs for the handshake).
pub struct TierWorker {
    tier: usize,
    fabric: usize,
    shard_id: usize,
    inner: WorkerCore,
    /// Next tier's cores; `None` at the spine.
    downstream: Option<Vec<Arc<ServiceCore>>>,
    forward_base: usize,
    link_ports: usize,
    backpressure_down: Backpressure,
    egress: VecDeque<Egress>,
    inner_done: bool,
    /// Messages this worker moved onto a downstream ring.
    pub forwarded: u64,
    /// Steps that found the link without credit.
    pub forward_stalls: u64,
}

impl TierWorker {
    /// Tier this worker serves.
    pub fn tier(&self) -> usize {
        self.tier
    }

    /// Fabric within the tier.
    pub fn fabric(&self) -> usize {
        self.fabric
    }

    /// Shard within the fabric.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// Whether this worker serves the spine (its deliveries leave the
    /// tree).
    pub fn is_spine(&self) -> bool {
        self.downstream.is_none()
    }

    /// The underlying shard (metrics, health, capacity bound).
    pub fn shard(&self) -> &Shard {
        self.inner.shard()
    }

    /// Messages held on the uplink: remapped but not yet admitted
    /// downstream, or delivered by a frame the shard executed but has not
    /// handed out yet (it joins the egress hold when handed out). Neither
    /// counts in any fabric's in-flight gauge.
    pub fn held(&self) -> u64 {
        let executed = if self.is_spine() {
            0
        } else {
            self.inner.queued_deliveries()
        };
        self.egress.len() as u64 + executed
    }

    /// Whether a step right now would make progress — the simulation
    /// scheduler's readiness predicate. A worker holding egress is ready
    /// iff the link has credit (or the head is fresh, in which case the
    /// step resolves its placement); otherwise it defers to the inner
    /// core's readiness.
    pub fn ready(&self) -> bool {
        if let Some(head) = self.egress.front() {
            return match head {
                Egress::Fresh(_) => true,
                Egress::Placed { fabric, shard, .. } => self.downstream.as_ref().expect("held")
                    [*fabric]
                    .queue(*shard)
                    .would_accept(self.backpressure_down),
            };
        }
        !self.inner_done && self.inner.ready()
    }

    /// One non-blocking step: forward held egress first (frames wait for
    /// the link — the credit handshake), else run the inner core.
    pub fn step(&mut self) -> TierStep {
        if !self.egress.is_empty() {
            return self.forward_head();
        }
        if self.inner_done {
            return TierStep::Done;
        }
        match self.inner.step() {
            WorkerStep::Frame(run) => {
                self.hold_deliveries(&run.delivered);
                TierStep::Frame(run)
            }
            WorkerStep::Idle => TierStep::Idle,
            WorkerStep::Done => {
                self.inner_done = true;
                TierStep::Done
            }
        }
    }

    /// Queue a frame's deliveries onto the egress hold, remapped onto
    /// downstream input wires (spine deliveries leave the tree instead).
    fn hold_deliveries(&mut self, delivered: &[Delivery]) {
        if self.downstream.is_none() {
            return;
        }
        for delivery in delivered {
            let wire = self.forward_base + delivery.output % self.link_ports;
            self.egress.push_back(Egress::Fresh(Message::new(
                delivery.message.id,
                wire,
                delivery.message.payload.clone(),
            )));
        }
    }

    /// Try to move the head held message downstream.
    fn forward_head(&mut self) -> TierStep {
        let down = self.downstream.as_ref().expect("egress implies a link");
        let (step, fabric) = match self.egress.pop_front().expect("checked non-empty") {
            Egress::Fresh(message) => {
                let fabric = pick_downstream(down);
                (down[fabric].try_submit(message), fabric)
            }
            Egress::Placed {
                message,
                fabric,
                shard,
            } => (down[fabric].retry_submit(message, shard), fabric),
        };
        match step {
            SubmitStep::Done(_) => {
                self.forwarded += 1;
                TierStep::Forwarded
            }
            SubmitStep::Blocked { message, shard } => {
                self.egress.push_front(Egress::Placed {
                    message,
                    fabric,
                    shard,
                });
                self.forward_stalls += 1;
                TierStep::ForwardStalled
            }
        }
    }
}

/// The end-to-end conservation ledger, read live against the tree's
/// cores and workers: every externally offered message is final-tier
/// delivered, dropped at some tier (rejected / shed / retry-dropped),
/// in flight inside some fabric, or held on a link. The per-tier
/// identities telescope (tier `t`'s deliveries minus its link holds are
/// tier `t+1`'s offers), so the tree-wide identity follows from the
/// per-fabric one the fabric crate already maintains.
pub fn tree_ledger(core: &TierCore, workers: &[TierWorker]) -> TreeLedger {
    let depth = core.topology().depth();
    let mut ledger = TreeLedger::default();
    for (tier, cores) in (0..depth).map(|t| (t, core.tier_cores(t))) {
        for fabric_core in cores {
            for shard in 0..fabric_core.config().shards {
                let mut queue = fabric::ShardMetrics::default();
                fabric_core.fold_queue_counters(shard, &mut queue);
                if tier == 0 {
                    ledger.offered_external += queue.offered;
                }
                ledger.rejected += queue.rejected;
                ledger.shed += queue.shed;
            }
            ledger.in_flight += fabric_core.in_flight();
        }
    }
    for worker in workers {
        let metrics = &worker.shard().metrics;
        if worker.is_spine() {
            ledger.delivered += metrics.delivered;
        }
        ledger.shed += metrics.shed;
        ledger.retry_dropped += metrics.retry_dropped;
        ledger.held += worker.held();
    }
    ledger
}

/// Assemble the tree's drain-time snapshot from its cores and workers:
/// per-shard worker metrics with queue counters folded in exactly once
/// (the fabric crate's single-fold rule), grouped by tier and fabric.
pub fn tree_snapshot(core: &TierCore, workers: &[TierWorker]) -> TreeSnapshot {
    let depth = core.topology().depth();
    let mut tiers: Vec<Vec<fabric::FabricSnapshot>> = (0..depth)
        .map(|tier| {
            core.tier_cores(tier)
                .iter()
                .map(|fabric_core| fabric::FabricSnapshot {
                    shards: Vec::new(),
                    in_flight: fabric_core.in_flight(),
                })
                .collect()
        })
        .collect();
    let mut held = 0u64;
    for worker in workers {
        let mut metrics = worker.shard().metrics.clone();
        core.core(worker.tier(), worker.fabric())
            .fold_queue_counters(worker.shard_id(), &mut metrics);
        tiers[worker.tier()][worker.fabric()].shards.push(metrics);
        held += worker.held();
    }
    TreeSnapshot { tiers, held }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TierSpec;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
    use fabric::FabricConfig;

    fn tier(fabrics: usize) -> TierSpec {
        TierSpec {
            fabrics,
            switch: Arc::new(
                RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                    .staged()
                    .clone(),
            ),
            config: FabricConfig::new(1),
        }
    }

    /// A leaf that routed several frames in one batch holds their
    /// deliveries before handing them out: they are in no fabric's
    /// in-flight gauge and not yet on the link, so `held` must count them
    /// for the end-to-end ledger to balance at every step.
    #[test]
    fn ledger_holds_while_a_leaf_holds_executed_frames() {
        let core = TierCore::new(TierTopology::new(vec![tier(2), tier(1)]));
        let mut workers = core.workers();
        // One external user: every message hashes onto the same leaf
        // wire, so the leaf routes them one per frame, in one batch.
        let user = 77usize;
        for id in 0..3u64 {
            let step = core.try_submit(Message::new(id, user, vec![0xB0 | id as u8; 8]));
            assert_eq!(step, TierSubmit::Done(SubmitOutcome::Accepted));
        }
        let (leaf, _) = core.topology().ingress(user as u64);
        let leaf = workers
            .iter()
            .position(|w| w.tier() == 0 && w.fabric() == leaf)
            .expect("the user's leaf has a worker");
        assert!(matches!(workers[leaf].step(), TierStep::Frame(_)));
        assert_eq!(
            workers[leaf].held(),
            3,
            "one delivery on the link and two in executed frames"
        );
        assert!(tree_ledger(&core, &workers).holds());

        let mut delivered = Vec::new();
        let mut steps = 0;
        loop {
            let mut progressed = false;
            for i in 0..workers.len() {
                match workers[i].step() {
                    TierStep::Frame(run) => {
                        progressed = true;
                        if workers[i].is_spine() {
                            delivered.extend(run.delivered.iter().map(|d| d.message.id));
                        }
                    }
                    TierStep::Forwarded => progressed = true,
                    TierStep::ForwardStalled | TierStep::Idle | TierStep::Done => {}
                }
                steps += 1;
                let ledger = tree_ledger(&core, &workers);
                assert!(ledger.holds(), "step {steps}: {ledger:?}");
            }
            if !progressed {
                break;
            }
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 1, 2]);
        assert_eq!(workers.iter().map(TierWorker::held).sum::<u64>(), 0);
        assert_eq!(core.in_flight(), 0);
    }
}

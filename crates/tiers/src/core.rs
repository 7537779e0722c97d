//! The tree's data plane: per-fabric [`ServiceCore`]s joined by
//! valid/ready inter-tier links, and the worker state machine every tree
//! schedule steps — the cooperative ones through [`TierWorker::step`],
//! the threaded service through [`TierWorker::step_blocking`].
//!
//! **Links and credit backpressure.** A [`TierWorker`] below the spine
//! wraps one shard's [`WorkerCore`] and its fabric's link: the next
//! tier's cores and the one inter-tier wire map onto them. Under `step`
//! the frame's remapped deliveries wait in an *egress hold* (the link's
//! valid side) for downstream ring space (the ready side). While the
//! hold is non-empty the worker runs **no new frames**, so its own
//! ingress ring fills, its upstream producers block or shed, and the
//! credit exhaustion propagates tier by tier down to leaf admission —
//! the wormhole-style valid/ready handshake, at frame granularity.
//! `step_blocking` instead hands the whole frame downstream in one
//! blocking batch.
//!
//! **Load-aware spine placement.** A freshly forwarded message (or
//! frame) goes to the downstream fabric with the fewest messages in
//! flight among fabrics that still have a healthy (non-quarantined)
//! shard. A message handed back by a full downstream ring under blocking
//! backpressure stays *placed* (same fabric, same shard) until space
//! opens, mirroring a blocked producer thread.

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

impl TierSubmit {
    /// A leaf fabric's admission step, tagged with the leaf.
    fn at_leaf(step: SubmitStep, leaf: usize) -> TierSubmit {
        match step {
            SubmitStep::Done(outcome) => TierSubmit::Done(outcome),
            SubmitStep::Blocked { message, shard } => TierSubmit::Blocked {
                message,
                leaf,
                shard,
            },
        }
    }
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
    /// canonical order the cooperative schedules step in and the
    /// threaded service spawns in. Each tier's workers share that tier's
    /// switch, so the whole tier pays one datapath compile; every
    /// worker below the spine gets its fabric's link.
    pub fn workers(&self) -> Vec<TierWorker> {
        let mut workers = Vec::new();
        for (tier, spec) in self.topology.tiers.iter().enumerate() {
            for fabric in 0..spec.fabrics {
                let link = (tier + 1 < self.topology.depth()).then(|| {
                    let ports = self.topology.link_ports(tier);
                    Link {
                        downstream: self.cores[tier + 1].clone(),
                        base: fabric * ports,
                        ports,
                        backpressure: self.topology.tiers[tier + 1].config.backpressure,
                    }
                });
                for shard in 0..spec.config.shards {
                    workers.push(TierWorker {
                        tier,
                        fabric,
                        shard_id: shard,
                        inner: self.cores[tier][fabric].worker(shard, Arc::clone(&spec.switch)),
                        link: link.clone(),
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
        TierSubmit::at_leaf(self.cores[0][leaf].try_submit(message), leaf)
    }

    /// Re-offer a message handed back by [`TierCore::try_submit`] to its
    /// already-chosen leaf placement.
    pub fn retry_submit(&self, message: Message, leaf: usize, shard: usize) -> TierSubmit {
        TierSubmit::at_leaf(self.cores[0][leaf].retry_submit(message, shard), leaf)
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

/// One fabric's uplink to the next tier: the downstream cores and the
/// inter-tier wire map onto them (see [`crate::topology`]).
#[derive(Clone)]
struct Link {
    /// The next tier's cores, in fabric order.
    downstream: Vec<Arc<ServiceCore>>,
    /// First downstream input wire this fabric owns.
    base: usize,
    /// Downstream input wires this fabric owns
    /// ([`TierTopology::link_ports`]).
    ports: usize,
    /// The next tier's backpressure policy (a placed message's credit
    /// test).
    backpressure: Backpressure,
}

impl Link {
    /// The downstream input wire a delivery on `output` re-enters on:
    /// `fabric × ports + (output mod ports)`, the same wire on whichever
    /// downstream fabric placement picks.
    fn wire(&self, output: usize) -> usize {
        self.base + output % self.ports
    }

    /// A delivery remapped onto its downstream input wire.
    fn remap(&self, delivery: &Delivery) -> Message {
        Message::new(
            delivery.message.id,
            self.wire(delivery.output),
            delivery.message.payload.clone(),
        )
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

/// What one [`TierWorker::step`] or [`TierWorker::step_blocking`] did.
#[derive(Debug)]
pub enum TierStep {
    /// Moved the head held message onto a downstream ring.
    Forwarded,
    /// The head held message found no downstream credit (ring full
    /// under blocking backpressure): the link is stalled.
    ForwardStalled,
    /// Executed one batched routing frame. At a non-spine tier the
    /// deliveries were also remapped onto the link (queued on the egress
    /// hold by `step`, forwarded downstream by `step_blocking`); at the
    /// spine they are the tree's completions.
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
    /// The uplink; `None` at the spine.
    link: Option<Link>,
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
        self.link.is_none()
    }

    /// Whether the worker has finished: its queue closed and drained and
    /// its egress hold empty (a step returned [`TierStep::Done`]).
    pub fn done(&self) -> bool {
        self.inner_done
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
                Egress::Placed { fabric, shard, .. } => {
                    let link = self.link.as_ref().expect("egress implies a link");
                    link.downstream[*fabric]
                        .queue(*shard)
                        .would_accept(link.backpressure)
                }
            };
        }
        !self.inner_done && self.inner.ready()
    }

    /// One non-blocking step: forward held egress first (frames wait for
    /// the link — the credit handshake), else run the inner core and
    /// queue a frame's remapped deliveries onto the egress hold.
    pub fn step(&mut self) -> TierStep {
        if !self.egress.is_empty() {
            return self.forward_head();
        }
        if self.inner_done {
            return TierStep::Done;
        }
        let step = self.inner.step();
        let step = self.settle(step);
        if let (TierStep::Frame(run), Some(link)) = (&step, &self.link) {
            for delivery in &run.delivered {
                self.egress.push_back(Egress::Fresh(link.remap(delivery)));
            }
        }
        step
    }

    /// One blocking step, the threaded tree's loop body: run the inner
    /// core's blocking step, then, below the spine, forward the frame's
    /// remapped deliveries as one batch to the least-loaded healthy
    /// downstream fabric ([`pick_downstream`]), blocking while its ring
    /// is full under blocking backpressure. One ring reservation and one
    /// wake per frame keeps downstream sweeps full instead of near-empty.
    /// Never returns [`TierStep::Idle`] with messages outstanding, and
    /// never leaves egress held.
    pub fn step_blocking(&mut self) -> TierStep {
        let step = self.inner.step_blocking();
        let step = self.settle(step);
        if let (TierStep::Frame(run), Some(link)) = (&step, &self.link) {
            if !run.delivered.is_empty() {
                let frame: Vec<Message> = run.delivered.iter().map(|d| link.remap(d)).collect();
                self.forwarded += frame.len() as u64;
                link.downstream[pick_downstream(&link.downstream)].submit_batch_blocking(frame);
            }
        }
        step
    }

    /// An inner step as a tier step, recording `Done`.
    fn settle(&mut self, step: WorkerStep) -> TierStep {
        match step {
            WorkerStep::Frame(run) => TierStep::Frame(run),
            WorkerStep::Idle => TierStep::Idle,
            WorkerStep::Done => {
                self.inner_done = true;
                TierStep::Done
            }
        }
    }

    /// Try to move the head held message downstream.
    fn forward_head(&mut self) -> TierStep {
        let down = &self
            .link
            .as_ref()
            .expect("egress implies a link")
            .downstream;
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

    #[test]
    fn link_ports_partition_the_downstream_switch() {
        let core = TierCore::new(TierTopology::new(vec![tier(2), tier(1)]));
        assert_eq!(core.topology().depth(), 2);
        assert_eq!(core.topology().link_ports(0), 8);
        let workers = core.workers();
        assert!(workers[2].is_spine(), "the spine has no link");
        let wire = |fabric: usize, output: usize| {
            workers[fabric]
                .link
                .as_ref()
                .expect("leaves have a link")
                .wire(output)
        };
        // Fabric 0 owns wires 0..8, fabric 1 owns 8..16; outputs fold
        // into the owner's block.
        assert_eq!(wire(0, 0), 0);
        assert_eq!(wire(0, 7), 7);
        assert_eq!(wire(1, 0), 8);
        assert_eq!(wire(1, 7), 15);
        // Wires never collide across fabrics and never exceed n.
        for fabric in 0..2 {
            for output in 0..8 {
                let wire = wire(fabric, output);
                assert!(wire < 16);
                assert_eq!(wire / 8, fabric);
            }
        }
    }

    /// The threaded tree's step, run without threads: each leaf frame is
    /// forwarded whole, in one batch, onto the least-in-flight healthy
    /// spine (ties to the lowest index) on the link's wires, and nothing
    /// is ever left held on the link.
    #[test]
    fn step_blocking_forwards_whole_frames_to_the_least_loaded_spine() {
        let core = TierCore::new(TierTopology::new(vec![tier(2), tier(2)]));
        let mut workers = core.workers();
        // One external frame: three users per leaf on distinct leaf wires,
        // so each leaf routes exactly one frame.
        let mut placed = std::collections::HashSet::new();
        let mut users = Vec::new();
        for leaf in 0..2 {
            users.extend(
                (0usize..)
                    .filter(|&user| {
                        let at = core.topology().ingress(user as u64);
                        at.0 == leaf && placed.insert(at)
                    })
                    .take(3),
            );
        }
        for &user in &users {
            let step = core.try_submit(Message::new(user as u64, user, vec![user as u8; 4]));
            assert_eq!(step, TierSubmit::Done(SubmitOutcome::Accepted));
        }
        core.close_tier(0);

        let spines = core.tier_cores(1);
        let mut targets = Vec::new();
        let mut wires = std::collections::HashMap::new();
        for leaf in 0..2 {
            loop {
                let before: Vec<u64> = spines.iter().map(|c| c.in_flight()).collect();
                let forwarded = workers[leaf].forwarded;
                let step = workers[leaf].step_blocking();
                assert_eq!(workers[leaf].held(), 0);
                assert!(tree_ledger(&core, &workers).holds());
                let run = match step {
                    TierStep::Frame(run) => run,
                    TierStep::Done => break,
                    other => panic!("leaf {leaf}: unexpected {other:?}"),
                };
                let frame = run.delivered.len() as u64;
                assert_eq!(frame, 3, "leaf {leaf} delivers its whole frame");
                assert_eq!(workers[leaf].forwarded, forwarded + frame);
                let target = (0..2).min_by_key(|&s| (before[s], s)).expect("two spines");
                for (spine, core) in spines.iter().enumerate() {
                    let landed = if spine == target { frame } else { 0 };
                    assert_eq!(core.in_flight(), before[spine] + landed);
                }
                targets.push(target);
                let link = workers[leaf].link.as_ref().expect("leaves have a link");
                for delivery in &run.delivered {
                    wires.insert(delivery.message.id, link.wire(delivery.output));
                }
            }
        }
        assert_eq!(targets, vec![0, 1], "a tie goes to spine 0, then the idler");

        core.close_tier(1);
        let mut delivered = 0;
        for spine in 2..4 {
            loop {
                match workers[spine].step() {
                    TierStep::Frame(run) => {
                        for message in &run.offered {
                            assert_eq!(message.source, wires[&message.id]);
                        }
                        delivered += run.delivered.len();
                    }
                    TierStep::Done => break,
                    other => panic!("spine {spine}: unexpected {other:?}"),
                }
                assert!(tree_ledger(&core, &workers).holds());
            }
        }
        assert_eq!(delivered, users.len());
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

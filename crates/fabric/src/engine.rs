//! The synchronous fabric engine: deterministic sharded serving.
//!
//! [`Fabric`] is a fixed round-robin schedule over the cores the threaded
//! [`FabricService`](crate::FabricService) runs: one [`ServiceCore`]
//! (placement, admission control, backpressure, quarantine steering)
//! and one [`WorkerCore`] per shard. `submit` is
//! [`ServiceCore::try_submit`]; `tick` steps every worker, in shard
//! order, until the frames its batch ran are handed out. The schedule is
//! the only thing the engine adds, so every counter is a pure function of
//! the submission order — a fixed workload produces a bit-identical
//! [`FabricSnapshot`] on every run — and it counts what the service
//! counts under that interleaving. The benches use it for their
//! reproducibility claims.

use std::sync::Arc;

use concentrator::faults::ChipFault;
use concentrator::StagedSwitch;
use switchsim::Message;

use crate::config::FabricConfig;
use crate::metrics::FabricSnapshot;
use crate::service::{ServiceCore, SubmitStep, WorkerCore, WorkerStep};
use crate::shard::FrameRun;

/// What happened to a submitted message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued on a shard.
    Accepted,
    /// Accepted after shedding the oldest queued message on the target
    /// shard ([`Backpressure::ShedOldest`](crate::Backpressure)).
    AcceptedAfterShed,
    /// Refused: full queue under
    /// [`Backpressure::Reject`](crate::Backpressure), the global
    /// admission cap, or a queue closed for shutdown.
    Rejected,
    /// A message handed back by a full queue under blocking
    /// backpressure. No engine produces it: a full queue under
    /// [`Backpressure::Block`](crate::Backpressure) hands the message
    /// back as [`SubmitStep::Blocked`], with its placement.
    Backpressured(Message),
}

/// A deterministic, synchronous sharded switch fabric: one
/// [`ServiceCore`] and one [`WorkerCore`] per shard, stepped in a fixed
/// order on the caller's thread.
pub struct Fabric {
    core: ServiceCore,
    workers: Vec<WorkerCore>,
}

impl Fabric {
    /// Build a fabric of `config.shards` shards over one shared switch.
    /// The switch's datapath netlist is elaborated and compiled once (via
    /// its `concentrator::elab` cache) and shared by every shard.
    ///
    /// # Panics
    /// If the configuration is invalid (see [`FabricConfig::validate`]).
    pub fn new(switch: Arc<StagedSwitch>, config: FabricConfig) -> Fabric {
        let core = ServiceCore::new(config);
        let workers = (0..config.shards)
            .map(|id| core.worker(id, Arc::clone(&switch)))
            .collect();
        Fabric { core, workers }
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        self.core.config()
    }

    /// Messages queued or pending across all shards
    /// ([`ServiceCore::in_flight`]).
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight()
    }

    /// Whether a tick would make progress: some worker is
    /// [`ready`](WorkerCore::ready) — it holds messages, an executed
    /// frame waits to be handed out, or a fault change is pending.
    pub fn busy(&self) -> bool {
        self.workers.iter().any(WorkerCore::ready)
    }

    /// Inject (or, with an empty vector, clear) chip faults on one shard's
    /// switch. The shard's worker applies the change at its next step, on
    /// the next tick, before it runs a frame; the health EWMA and
    /// quarantine state respond over the following frames.
    pub fn inject_faults(&mut self, shard: usize, faults: Vec<ChipFault>) {
        self.core.inject_faults(shard, faults);
    }

    /// Whether a shard is currently quarantined by its health monitor.
    pub fn shard_quarantined(&self, shard: usize) -> bool {
        self.core.shard_quarantined(shard)
    }

    /// A shard's delivery-health EWMA (1.0 = meeting the capacity bound).
    pub fn shard_health(&self, shard: usize) -> f64 {
        self.workers[shard].shard().health()
    }

    /// Submit one routing request ([`ServiceCore::try_submit`]):
    /// placement steered away from quarantined shards, admission control,
    /// then the configured backpressure policy on the shard's ingress
    /// ring. Under [`Backpressure::Block`](crate::Backpressure) a full
    /// ring hands the message back as [`SubmitStep::Blocked`]; hold it
    /// and re-offer it with [`Fabric::retry_submit`] after a tick.
    pub fn submit(&self, message: Message) -> SubmitStep {
        self.core.try_submit(message)
    }

    /// Re-offer a message a previous submission handed back, to the
    /// shard placement already chose ([`ServiceCore::retry_submit`]).
    pub fn retry_submit(&self, message: Message, shard: usize) -> SubmitStep {
        self.core.retry_submit(message, shard)
    }

    /// Step every shard's worker once, in shard order, and return the
    /// frames the steps ran. A step may run a batch of frames through one
    /// shared sweep ([`Shard::run_frames`](crate::Shard::run_frames)); it
    /// hands out the first, and the tick steps the worker again for each
    /// of the rest, as a threaded worker hands them out at once. So every
    /// tick starts with no executed frame waiting, and each worker's
    /// first step takes in its ring.
    pub fn tick(&mut self) -> Vec<FrameRun> {
        let mut frames = Vec::new();
        for worker in &mut self.workers {
            let clock = worker.shard().clock();
            if let WorkerStep::Frame(run) = worker.step() {
                frames.push(run);
                // The shard clock counts executed frames.
                for _ in clock + 1..worker.shard().clock() {
                    if let WorkerStep::Frame(run) = worker.step() {
                        frames.push(run);
                    }
                }
            }
        }
        frames
    }

    /// Tick until no worker is ready (graceful drain) and return the
    /// frames the ticks ran. `max_ticks` bounds the loop; panics if the
    /// fabric cannot drain within it.
    pub fn drain(&mut self, max_ticks: u64) -> Vec<FrameRun> {
        let mut frames = Vec::new();
        let mut ticks = 0u64;
        while self.busy() {
            assert!(
                ticks < max_ticks,
                "fabric failed to drain within {max_ticks} ticks"
            );
            frames.extend(self.tick());
            ticks += 1;
        }
        frames
    }

    /// Snapshot all per-shard metrics, queue-side counters folded in
    /// ([`ServiceCore::fold_queue_counters`]), plus the in-flight count.
    pub fn snapshot(&self) -> FabricSnapshot {
        let shards = self
            .workers
            .iter()
            .enumerate()
            .map(|(id, worker)| {
                let mut metrics = worker.shard().metrics.clone();
                self.core.fold_queue_counters(id, &mut metrics);
                metrics
            })
            .collect();
        FabricSnapshot {
            shards,
            in_flight: self.in_flight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backpressure, Placement, RetryBudget};
    use crate::shard::Delivery;
    use concentrator::faults::FaultMode;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};

    fn fabric(config: FabricConfig) -> Fabric {
        let switch = Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        Fabric::new(switch, config)
    }

    fn msg(id: u64, source: usize) -> Message {
        Message::new(id, source, vec![id as u8])
    }

    fn outcome(step: SubmitStep) -> SubmitOutcome {
        match step {
            SubmitStep::Done(outcome) => outcome,
            SubmitStep::Blocked { .. } => panic!("unexpected hand-back"),
        }
    }

    fn deliveries(frames: Vec<FrameRun>) -> Vec<Delivery> {
        frames.into_iter().flat_map(|run| run.delivered).collect()
    }

    /// Every first-stage chip of the 16 → 8 switch stuck invalid: nothing
    /// the shard routes lands.
    fn dark_row() -> Vec<ChipFault> {
        (0..4)
            .map(|chip| ChipFault {
                stage: 0,
                chip,
                mode: FaultMode::StuckInvalid,
            })
            .collect()
    }

    #[test]
    fn round_robin_spreads_and_delivers() {
        let mut f = fabric(FabricConfig::new(4));
        for i in 0..32u64 {
            assert_eq!(
                outcome(f.submit(msg(i, (i % 16) as usize))),
                SubmitOutcome::Accepted
            );
        }
        let delivered = deliveries(f.drain(100));
        let snapshot = f.snapshot();
        assert_eq!(snapshot.totals().delivered, 32);
        assert!(snapshot.conserved());
        for shard in &snapshot.shards {
            assert_eq!(shard.offered, 8, "round robin splits 32 four ways");
        }
        assert_eq!(delivered.len(), 32);
    }

    #[test]
    fn reject_policy_bounds_the_queue() {
        let mut config = FabricConfig::new(1);
        config.queue_capacity = 4;
        config.backpressure = Backpressure::Reject;
        let mut f = fabric(config);
        let rejected = (0..10u64)
            .filter(|&i| outcome(f.submit(msg(i, (i % 16) as usize))) == SubmitOutcome::Rejected)
            .count();
        assert_eq!(rejected, 6);
        assert_eq!(f.in_flight(), 4);
        f.drain(100);
        let snapshot = f.snapshot();
        assert_eq!(snapshot.totals().offered, 10);
        assert_eq!(snapshot.totals().rejected, 6);
        assert!(snapshot.conserved());
    }

    /// `queue_capacity` bounds the ingress ring alone, as in the threaded
    /// service: congestion losers waiting for a retry do not count
    /// against it.
    #[test]
    fn retry_backlog_does_not_count_against_the_queue_bound() {
        let capacity = 16;
        let mut config = FabricConfig::new(1);
        config.queue_capacity = capacity;
        config.backpressure = Backpressure::Reject;
        let mut f = fabric(config);
        // One message per input wire: at most m = 8 of the 16 route, the
        // rest stay pending for a retry.
        for i in 0..capacity as u64 {
            assert_eq!(
                outcome(f.submit(msg(i, i as usize))),
                SubmitOutcome::Accepted
            );
        }
        f.tick();
        let losers = f.in_flight();
        assert!(losers >= 8, "the 16-into-8 frame leaves losers: {losers}");
        for i in 0..capacity as u64 {
            assert_eq!(
                outcome(f.submit(msg(100 + i, i as usize))),
                SubmitOutcome::Accepted,
                "the ring is empty, so every fresh message fits"
            );
        }
        f.drain(100);
        let snapshot = f.snapshot();
        assert_eq!(snapshot.totals().rejected, 0);
        assert_eq!(snapshot.totals().delivered, 2 * capacity as u64);
        assert!(snapshot.conserved());
    }

    #[test]
    fn shed_oldest_keeps_the_newest() {
        let mut config = FabricConfig::new(1);
        config.queue_capacity = 2;
        config.backpressure = Backpressure::ShedOldest;
        let mut f = fabric(config);
        for i in 0..5u64 {
            assert_ne!(
                outcome(f.submit(msg(i, i as usize))),
                SubmitOutcome::Rejected
            );
        }
        let mut ids: Vec<u64> = deliveries(f.drain(100))
            .iter()
            .map(|d| d.message.id)
            .collect();
        // Within one frame, deliveries come out in output-wire order.
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4], "oldest three were shed");
        let snapshot = f.snapshot();
        assert_eq!(snapshot.totals().shed, 3);
        assert!(snapshot.conserved());
    }

    #[test]
    fn block_policy_hands_the_message_back() {
        let mut config = FabricConfig::new(1);
        config.queue_capacity = 1;
        config.backpressure = Backpressure::Block;
        let mut f = fabric(config);
        assert_eq!(outcome(f.submit(msg(0, 0))), SubmitOutcome::Accepted);
        let (held, shard) = match f.submit(msg(1, 1)) {
            SubmitStep::Blocked { message, shard } => (message, shard),
            other => panic!("expected a hand-back, got {other:?}"),
        };
        // After a tick the ring drains and the held message goes in.
        f.tick();
        assert_eq!(
            outcome(f.retry_submit(held, shard)),
            SubmitOutcome::Accepted
        );
        f.drain(100);
        let snapshot = f.snapshot();
        assert_eq!(snapshot.totals().offered, 2);
        assert_eq!(snapshot.totals().delivered, 2);
        assert!(snapshot.conserved());
    }

    #[test]
    fn admission_limit_rejects_above_cap() {
        let mut config = FabricConfig::new(2);
        config.admission_limit = Some(3);
        let mut f = fabric(config);
        let rejected = (0..8u64)
            .filter(|&i| outcome(f.submit(msg(i, i as usize))) == SubmitOutcome::Rejected)
            .count();
        assert_eq!(rejected, 5, "cap of 3 in flight rejects the rest");
        f.drain(100);
        assert!(f.snapshot().conserved());
    }

    #[test]
    fn quarantined_shard_stops_receiving_new_traffic() {
        let mut config = FabricConfig::new(2);
        config.retry = RetryBudget::limited(0);
        let mut f = fabric(config);
        f.inject_faults(0, dark_row());
        // Drive until the health monitor quarantines shard 0.
        let mut id = 0u64;
        while !f.shard_quarantined(0) {
            assert!(id < 10_000, "shard 0 never quarantined");
            for src in 0..16 {
                f.submit(msg(id, src));
                id += 1;
            }
            f.tick();
        }
        assert!(f.shard_health(0) < 0.7);
        assert!(
            !f.shard_quarantined(1),
            "healthy shard must stay in service"
        );
        // From here on, round-robin placements that prefer shard 0 are
        // steered to shard 1: shard 0's offered count freezes.
        f.drain(1_000);
        let before = f.snapshot();
        for src in 0..16 {
            f.submit(msg(id, src));
            id += 1;
        }
        f.drain(1_000);
        let snapshot = f.snapshot();
        assert_eq!(
            snapshot.shards[0].offered, before.shards[0].offered,
            "new traffic must steer away from the quarantined shard"
        );
        // All 16 steered messages terminate on the healthy shard (under
        // limited(0) retry, losers of a 16-into-8 frame drop).
        assert_eq!(
            snapshot.shards[1].delivered + snapshot.shards[1].retry_dropped,
            before.shards[1].delivered + before.shards[1].retry_dropped + 16,
            "the healthy shard must absorb the steered traffic"
        );
        assert!(snapshot.shards[1].delivered > before.shards[1].delivered);
        assert!(snapshot.conserved());
        assert_eq!(snapshot.totals().quarantines, 1);
        assert!(snapshot.totals().quarantined_frames > 0);
        assert_eq!(snapshot.totals().faults_active, 4);
    }

    #[test]
    fn failover_is_reproducible() {
        let run = || {
            let mut config = FabricConfig::new(3);
            config.retry = RetryBudget::limited(1);
            let mut f = fabric(config);
            for round in 0..40u64 {
                if round == 10 {
                    f.inject_faults(
                        1,
                        vec![ChipFault {
                            stage: 0,
                            chip: 2,
                            mode: FaultMode::StuckValid,
                        }],
                    );
                }
                for src in 0..16 {
                    f.submit(msg(round * 16 + src as u64, src as usize));
                }
                f.tick();
            }
            f.drain(10_000);
            f.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same fault schedule must give identical snapshots");
        assert!(a.conserved());
    }

    #[test]
    fn all_shards_quarantined_still_accepts_traffic() {
        let mut config = FabricConfig::new(2);
        config.retry = RetryBudget::limited(0);
        let mut f = fabric(config);
        for shard in 0..2 {
            f.inject_faults(shard, dark_row());
        }
        let mut id = 0u64;
        while !(f.shard_quarantined(0) && f.shard_quarantined(1)) {
            assert!(id < 10_000, "shards never quarantined");
            for src in 0..16 {
                f.submit(msg(id, src));
                id += 1;
            }
            f.tick();
        }
        // With nowhere healthy to steer, placement falls back to an active
        // shard rather than deadlocking.
        assert_eq!(outcome(f.submit(msg(id, 3))), SubmitOutcome::Accepted);
        f.drain(1_000);
        assert!(f.snapshot().conserved());
    }

    #[test]
    fn source_hash_placement_is_sticky() {
        let mut config = FabricConfig::new(4);
        config.placement = Placement::SourceHash;
        let mut f = fabric(config);
        let mut delivered = Vec::new();
        for round in 0..3u64 {
            for src in 0..16usize {
                f.submit(msg(round * 16 + src as u64, src));
            }
            delivered.extend(deliveries(f.tick()));
        }
        delivered.extend(deliveries(f.drain(100)));
        assert_eq!(delivered.len(), 48);
        // Every message from one source lands on one shard, so per-source
        // deliveries must come from a single shard id.
        let mut shard_of = [None; 16];
        for d in delivered {
            let slot = &mut shard_of[d.message.source];
            match slot {
                None => *slot = Some(d.shard),
                Some(s) => assert_eq!(*s, d.shard, "source {} moved shards", d.message.source),
            }
        }
    }
}

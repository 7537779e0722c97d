//! An end-to-end concentration stage: `n` processors offering messages
//! through a concentrator switch onto `m` resource ports, frame after
//! frame, under a congestion policy.

use std::collections::VecDeque;

use concentrator::spec::ConcentratorSwitch;
use serde::{Deserialize, Serialize};

use crate::congestion::CongestionPolicy;
use crate::frame::simulate_frame;
use crate::message::Message;
use crate::stats::Stats;

/// A queued message with bookkeeping.
#[derive(Debug, Clone)]
struct Pending {
    message: Message,
    attempts: usize,
    born_frame: usize,
}

/// The concentration stage of a routing network (§1's setting): processors
/// on the left, a concentrator switch in the middle, shared resource ports
/// on the right.
pub struct ConcentrationStage<'a, S: ConcentratorSwitch + ?Sized> {
    switch: &'a S,
    policy: CongestionPolicy,
    queues: Vec<VecDeque<Pending>>,
    frame: usize,
    stats: Stats,
}

/// Summary of a completed simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Counters.
    pub stats: Stats,
    /// Messages still waiting in input queues when the run ended.
    pub in_flight: usize,
}

impl<'a, S: ConcentratorSwitch + ?Sized> ConcentrationStage<'a, S> {
    /// Create a stage around `switch` with the given congestion policy.
    pub fn new(switch: &'a S, policy: CongestionPolicy) -> Self {
        ConcentrationStage {
            switch,
            policy,
            queues: (0..switch.inputs()).map(|_| VecDeque::new()).collect(),
            frame: 0,
            stats: Stats::default(),
        }
    }

    /// Accumulated statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Messages currently queued.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Inject fresh messages (at most one per source per call is not
    /// required; queue capacity governs drops).
    pub fn offer(&mut self, fresh: Vec<Message>) {
        for msg in fresh {
            assert!(msg.source < self.queues.len(), "source out of range");
            self.stats.offered += 1;
            let queue = &mut self.queues[msg.source];
            if queue.len() >= self.policy.queue_capacity() {
                self.stats.dropped += 1;
            } else {
                queue.push_back(Pending {
                    message: msg,
                    attempts: 0,
                    born_frame: self.frame,
                });
            }
        }
    }

    /// Run one frame: offer queue heads, route, deliver, apply the
    /// congestion policy to losers. Returns delivered messages with their
    /// output ports.
    pub fn step(&mut self) -> Vec<(usize, Message)> {
        let offered: Vec<Message> = self
            .queues
            .iter()
            .filter_map(|q| q.front().map(|p| p.message.clone()))
            .collect();
        let outcome = simulate_frame(self.switch, &offered);
        debug_assert!(outcome.payloads_intact(&offered));

        // Deliveries: pop the queue heads that got through.
        for (_, delivered) in &outcome.delivered {
            let queue = &mut self.queues[delivered.source];
            let pending = queue.pop_front().expect("delivered message was queued");
            debug_assert_eq!(pending.message.id, delivered.id);
            self.stats.delivered += 1;
            self.stats
                .record_wait((self.frame - pending.born_frame) as u64);
        }
        // Losers: retry or drop per policy.
        for lost in &outcome.unrouted {
            let queue = &mut self.queues[lost.source];
            let head = queue.front_mut().expect("unrouted message was queued");
            debug_assert_eq!(head.message.id, lost.id);
            head.attempts += 1;
            if head.attempts > self.policy.retries_allowed() {
                queue.pop_front();
                self.stats.dropped += 1;
            } else {
                self.stats.retries += 1;
            }
        }

        let depth = self.queues.iter().map(VecDeque::len).max().unwrap_or(0);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        self.stats.frames += 1;
        self.frame += 1;
        outcome.delivered
    }

    /// Drive the stage one frame per tick: element `t` of `frames` is
    /// offered at tick `t` (empty ticks included, as
    /// [`crate::traffic::tick_frames`] lowers them), then the stage
    /// steps once.
    pub fn run(&mut self, frames: impl IntoIterator<Item = Vec<Message>>) -> SimulationReport {
        for fresh in frames {
            self.offer(fresh);
            self.step();
        }
        SimulationReport {
            stats: self.stats.clone(),
            in_flight: self.in_flight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, tick_frames, TraceModel};
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
    use concentrator::Hyperconcentrator;

    /// `ticks` frames of `model` over `n` wires, one-byte payloads.
    fn offers(model: TraceModel, n: usize, ticks: u64, seed: u64) -> Vec<Vec<Message>> {
        tick_frames(&generate(model, n, ticks, 0, seed), n, ticks)
    }

    #[test]
    fn light_load_delivers_everything() {
        let switch = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let mut stage = ConcentrationStage::new(&switch, CongestionPolicy::Drop);
        let report = stage.run(offers(TraceModel::Bernoulli { p: 0.1 }, 64, 200, 5));
        // Offered load ~6.4/frame << guaranteed capacity; nothing drops.
        assert_eq!(report.stats.dropped, 0, "{:?}", report.stats);
        assert_eq!(report.stats.delivered, report.stats.offered);
    }

    #[test]
    fn overload_saturates_at_m_per_frame() {
        let switch = Hyperconcentrator::new(16);
        let mut stage = ConcentrationStage::new(&switch, CongestionPolicy::Drop);
        let report = stage.run(offers(TraceModel::Bernoulli { p: 1.0 }, 16, 50, 2));
        // m = n = 16, full offered load: everything routed.
        assert_eq!(report.stats.delivered, report.stats.offered);
    }

    #[test]
    fn buffering_beats_dropping_under_overload() {
        let switch = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
        let frames = 300;
        let run = |policy| {
            let mut stage = ConcentrationStage::new(&switch, policy);
            stage.run(offers(TraceModel::Bernoulli { p: 0.8 }, 16, frames, 11))
        };
        let dropped = run(CongestionPolicy::Drop);
        let buffered = run(CongestionPolicy::InputBuffer { capacity: 8 });
        assert!(
            buffered.stats.delivery_ratio() > dropped.stats.delivery_ratio(),
            "buffered {} <= dropped {}",
            buffered.stats.delivery_ratio(),
            dropped.stats.delivery_ratio()
        );
        assert!(buffered.stats.retries > 0);
    }

    #[test]
    fn ack_resend_limits_attempts() {
        let switch = RevsortSwitch::new(16, 4, RevsortLayout::TwoDee);
        let mut stage =
            ConcentrationStage::new(&switch, CongestionPolicy::AckResend { max_retries: 2 });
        let report = stage.run(offers(TraceModel::Bernoulli { p: 1.0 }, 16, 100, 3));
        // Heavy overload: some messages exhaust their retries and drop.
        assert!(report.stats.dropped > 0);
        assert!(report.stats.retries > 0);
        // Conservation: offered = delivered + dropped + still in flight.
        assert_eq!(
            report.stats.offered,
            report.stats.delivered + report.stats.dropped + report.in_flight
        );
    }

    #[test]
    fn conservation_holds_for_all_policies() {
        let switch = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
        for policy in [
            CongestionPolicy::Drop,
            CongestionPolicy::InputBuffer { capacity: 4 },
            CongestionPolicy::AckResend { max_retries: 1 },
        ] {
            let mut stage = ConcentrationStage::new(&switch, policy);
            let report = stage.run(offers(TraceModel::mmpp_from_bursty(0.7, 5.0), 16, 150, 13));
            assert_eq!(
                report.stats.offered,
                report.stats.delivered + report.stats.dropped + report.in_flight,
                "policy {policy:?}"
            );
        }
    }
}

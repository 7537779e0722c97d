//! Misrouting (deflection) — the third congestion-control option of §1.
//!
//! "Typical ways of handling unsuccessfully routed messages … are to
//! buffer them, **to misroute them**, or to simply drop them." Misrouting
//! needs somewhere to misroute *to*: this module models the standard
//! arrangement, a secondary concentrator feeding a detour path. Losers of
//! the primary switch are offered to the deflection switch in the same
//! frame; its winners reach the destination late (a fixed detour penalty
//! in frames); messages losing in *both* switches fall back to a base
//! policy.

use std::collections::VecDeque;

use concentrator::spec::ConcentratorSwitch;
use serde::{Deserialize, Serialize};

use crate::congestion::CongestionPolicy;
use crate::message::Message;
use crate::stats::Stats;

/// Statistics specific to deflection routing, alongside the base counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeflectionStats {
    /// Base counters (offered/delivered/dropped/… as usual).
    pub base: Stats,
    /// Messages that took the detour path.
    pub misrouted: usize,
    /// Of the delivered messages, how many arrived via the detour.
    pub delivered_via_detour: usize,
}

/// A two-switch deflection stage: primary concentrator plus a detour
/// concentrator absorbing its losers.
pub struct DeflectionStage<'a, P: ConcentratorSwitch + ?Sized, D: ConcentratorSwitch + ?Sized> {
    primary: &'a P,
    detour: &'a D,
    /// Extra frames a misrouted message spends on the longer path.
    detour_frames: usize,
    fallback: CongestionPolicy,
    queues: Vec<VecDeque<(Message, usize, usize)>>, // (msg, attempts, born)
    /// Delay line: messages in flight on the detour, with arrival frame.
    in_detour: VecDeque<(usize, Message, usize)>, // (arrival_frame, msg, born)
    frame: usize,
    stats: DeflectionStats,
}

impl<'a, P, D> DeflectionStage<'a, P, D>
where
    P: ConcentratorSwitch + ?Sized,
    D: ConcentratorSwitch + ?Sized,
{
    /// Build a deflection stage. Both switches must span the same `n`
    /// inputs (they see the same input wires).
    pub fn new(
        primary: &'a P,
        detour: &'a D,
        detour_frames: usize,
        fallback: CongestionPolicy,
    ) -> Self {
        assert_eq!(
            primary.inputs(),
            detour.inputs(),
            "primary and detour switches must share the input wires"
        );
        DeflectionStage {
            primary,
            detour,
            detour_frames: detour_frames.max(1),
            fallback,
            queues: (0..primary.inputs()).map(|_| VecDeque::new()).collect(),
            in_detour: VecDeque::new(),
            frame: 0,
            stats: DeflectionStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeflectionStats {
        &self.stats
    }

    /// Messages queued at inputs plus messages in flight on the detour.
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>() + self.in_detour.len()
    }

    /// Inject fresh messages.
    pub fn offer(&mut self, fresh: Vec<Message>) {
        for msg in fresh {
            assert!(msg.source < self.queues.len(), "source out of range");
            self.stats.base.offered += 1;
            let queue = &mut self.queues[msg.source];
            if queue.len() >= self.fallback.queue_capacity() {
                self.stats.base.dropped += 1;
            } else {
                queue.push_back((msg, 0, self.frame));
            }
        }
    }

    /// Run one frame.
    pub fn step(&mut self) {
        // Detour arrivals land first (they were sent frames ago).
        while let Some(&(arrival, _, _)) = self.in_detour.front() {
            if arrival > self.frame {
                break;
            }
            let (_, _msg, born) = self.in_detour.pop_front().expect("front exists");
            self.stats.base.delivered += 1;
            self.stats.delivered_via_detour += 1;
            self.stats.base.total_wait_frames += (self.frame - born) as u64;
        }

        // Primary setup.
        let valid: Vec<bool> = self.queues.iter().map(|q| !q.is_empty()).collect();
        let routing = self.primary.route(&valid);

        // Primary winners deliver immediately.
        let mut lost: Vec<usize> = Vec::new();
        for (input, q) in self.queues.iter_mut().enumerate() {
            if !valid[input] {
                continue;
            }
            if routing.assignment[input].is_some() {
                let (_, _, born) = q.pop_front().expect("valid inputs are queued");
                self.stats.base.delivered += 1;
                self.stats.base.total_wait_frames += (self.frame - born) as u64;
            } else {
                lost.push(input);
            }
        }

        // Deflection setup: only primary losers raise valid bits.
        let mut deflect_valid = vec![false; self.detour.inputs()];
        for &input in &lost {
            deflect_valid[input] = true;
        }
        let deflect_routing = self.detour.route(&deflect_valid);
        for &input in &lost {
            let q = &mut self.queues[input];
            if deflect_routing.assignment[input].is_some() {
                let (msg, _, born) = q.pop_front().expect("loser is queued");
                self.stats.misrouted += 1;
                self.in_detour
                    .push_back((self.frame + self.detour_frames, msg, born));
            } else {
                // Lost twice: fall back to the base policy.
                let head = q.front_mut().expect("loser is queued");
                head.1 += 1;
                if head.1 > self.fallback.retries_allowed() {
                    q.pop_front();
                    self.stats.base.dropped += 1;
                } else {
                    self.stats.base.retries += 1;
                }
            }
        }

        let depth = self.queues.iter().map(VecDeque::len).max().unwrap_or(0);
        self.stats.base.max_queue_depth = self.stats.base.max_queue_depth.max(depth);
        self.stats.base.frames += 1;
        self.frame += 1;
    }

    /// Drive one frame per tick (element `t` of `frames` is offered at
    /// tick `t`, empty ticks included, as
    /// [`crate::traffic::tick_frames`] lowers them), then drain the
    /// detour line so its deliveries are counted.
    pub fn run(&mut self, frames: impl IntoIterator<Item = Vec<Message>>) -> DeflectionStats {
        for fresh in frames {
            self.offer(fresh);
            self.step();
        }
        // Drain in-flight detour messages (no new offers).
        for _ in 0..self.detour_frames {
            self.step();
        }
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, tick_frames, TraceModel};
    use concentrator::ColumnsortSwitch;

    /// `ticks` frames of `model` over the 64 shared wires, one-byte
    /// payloads.
    fn offers(model: TraceModel, ticks: u64, seed: u64) -> Vec<Vec<Message>> {
        tick_frames(&generate(model, 64, ticks, 0, seed), 64, ticks)
    }

    fn switches() -> (ColumnsortSwitch, ColumnsortSwitch) {
        // Primary: 64 -> 16 ports; detour: 64 -> 8 ports.
        (
            ColumnsortSwitch::new(16, 4, 16),
            ColumnsortSwitch::new(16, 4, 8),
        )
    }

    #[test]
    fn deflection_beats_plain_drop_under_overload() {
        let (primary, detour) = switches();
        let traffic = offers(TraceModel::Bernoulli { p: 0.6 }, 300, 21);
        let mut stage = DeflectionStage::new(&primary, &detour, 3, CongestionPolicy::Drop);
        let with_deflection = stage.run(traffic.clone());

        // Same traffic through a drop-only single stage.
        let mut plain = crate::network::ConcentrationStage::new(&primary, CongestionPolicy::Drop);
        let plain_report = plain.run(traffic);

        assert!(with_deflection.misrouted > 0);
        assert!(
            with_deflection.base.delivery_ratio() > plain_report.stats.delivery_ratio(),
            "deflection {} <= plain {}",
            with_deflection.base.delivery_ratio(),
            plain_report.stats.delivery_ratio()
        );
    }

    #[test]
    fn detour_deliveries_pay_latency() {
        let (primary, detour) = switches();
        let detour_frames = 5;
        let mut stage =
            DeflectionStage::new(&primary, &detour, detour_frames, CongestionPolicy::Drop);
        let stats = stage.run(offers(TraceModel::Bernoulli { p: 0.7 }, 200, 5));
        assert!(stats.delivered_via_detour > 0);
        // Mean wait must reflect the detour penalty on some messages.
        assert!(stats.base.mean_wait() > 0.0);
    }

    #[test]
    fn conservation_with_deflection() {
        let (primary, detour) = switches();
        for fallback in [
            CongestionPolicy::Drop,
            CongestionPolicy::AckResend { max_retries: 2 },
        ] {
            let mut stage = DeflectionStage::new(&primary, &detour, 2, fallback);
            let stats = stage.run(offers(TraceModel::mmpp_from_bursty(0.5, 4.0), 250, 9));
            assert_eq!(
                stats.base.offered,
                stats.base.delivered + stats.base.dropped + stage.in_flight(),
                "fallback {fallback:?}"
            );
            assert!(stats.delivered_via_detour <= stats.misrouted);
        }
    }

    #[test]
    fn no_deflection_needed_under_light_load() {
        let (primary, detour) = switches();
        let mut stage = DeflectionStage::new(&primary, &detour, 3, CongestionPolicy::Drop);
        let stats = stage.run(offers(TraceModel::Bernoulli { p: 0.05 }, 100, 2));
        assert_eq!(stats.misrouted, 0);
        assert_eq!(stats.base.dropped, 0);
        assert_eq!(stats.base.delivered, stats.base.offered);
    }

    #[test]
    #[should_panic(expected = "share the input wires")]
    fn mismatched_widths_rejected() {
        let primary = ColumnsortSwitch::new(16, 4, 16);
        let detour = ColumnsortSwitch::new(8, 4, 8);
        DeflectionStage::new(&primary, &detour, 1, CongestionPolicy::Drop);
    }
}

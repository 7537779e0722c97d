//! Property-based tests for the bit-serial simulator.

use concentrator::spec::ConcentratorSwitch;
use concentrator::{ColumnsortSwitch, Hyperconcentrator};
use proptest::prelude::*;
use switchsim::deflection::DeflectionStage;
use switchsim::traffic::{frames, generate, tick_frames};
use switchsim::{
    measure_fairness, regular_tree, simulate_frame, ConcentrationStage, CongestionPolicy, Message,
    RotatingSwitch, TraceModel,
};

/// `ticks` Bernoulli(`p`) frames over `n` wires, one-byte payloads.
fn bernoulli(p: f64, n: usize, ticks: usize, seed: u64) -> Vec<Vec<Message>> {
    let ticks = ticks as u64;
    tick_frames(
        &generate(TraceModel::Bernoulli { p }, n, ticks, 0, seed),
        n,
        ticks,
    )
}

proptest! {
    /// The zipf-population arrival stream is a pure function of its seed:
    /// same (seed, population, exponent, load) ⇒ the identical message
    /// sequence, frame for frame. The tier bench and fabric bench rely on
    /// this to replay the same million-user workload across runs.
    #[test]
    fn zipf_stream_is_deterministic(
        seed in any::<u64>(),
        p in 0.0f64..1.0,
        population in 1u64..5_000_000,
        exponent in 0.0f64..2.5,
    ) {
        let model = TraceModel::ZipfPopulation { p, population, exponent };
        let a = frames(&generate(model, 32, 4, 1, seed), 32);
        let b = frames(&generate(model, 32, 4, 1, seed), 32);
        prop_assert_eq!(a, b);
    }

    /// Wire serialization round-trips arbitrary payloads.
    #[test]
    fn payload_bits_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..32)) {
        let msg = Message::new(1, 0, payload.clone());
        let bits: Vec<bool> = (0..msg.bit_len()).map(|c| msg.bit(c)).collect();
        prop_assert_eq!(Message::payload_from_bits(&bits).to_vec(), payload);
    }

    /// A frame through a hyperconcentrator delivers every message with its
    /// payload intact, regardless of sources and payload sizes.
    #[test]
    fn frames_deliver_intact(
        sources in proptest::collection::btree_set(0usize..16, 0..16),
        payload_len in 1usize..8,
    ) {
        let switch = Hyperconcentrator::new(16);
        let offered: Vec<Message> = sources
            .iter()
            .enumerate()
            .map(|(i, &src)| {
                Message::new(i as u64, src, vec![(i * 37 + src) as u8; payload_len])
            })
            .collect();
        let outcome = simulate_frame(&switch, &offered);
        prop_assert_eq!(outcome.delivered.len(), offered.len());
        prop_assert!(outcome.unrouted.is_empty());
        prop_assert!(outcome.payloads_intact(&offered));
        // Hyperconcentrators compact in input order.
        let mut sorted_sources: Vec<usize> = sources.iter().copied().collect();
        sorted_sources.sort_unstable();
        for (slot, (out, msg)) in outcome.delivered.iter().enumerate() {
            prop_assert_eq!(*out, slot);
            prop_assert_eq!(msg.source, sorted_sources[slot]);
        }
    }

    /// Conservation holds across policies, loads, and run lengths.
    #[test]
    fn conservation(
        p in 0.05f64..0.95,
        frames in 1usize..60,
        policy_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let policy = [
            CongestionPolicy::Drop,
            CongestionPolicy::InputBuffer { capacity: 3 },
            CongestionPolicy::AckResend { max_retries: 1 },
        ][policy_idx];
        let switch = Hyperconcentrator::new(12);
        let mut stage = ConcentrationStage::new(&switch, policy);
        let report = stage.run(bernoulli(p, 12, frames, seed));
        prop_assert_eq!(
            report.stats.offered,
            report.stats.delivered + report.stats.dropped + report.in_flight
        );
        // A full-width hyperconcentrator never congests.
        prop_assert_eq!(report.stats.dropped, 0);
        prop_assert_eq!(report.stats.retries, 0);
    }

    /// Lowered frames respect source ranges and never duplicate ids.
    #[test]
    fn traffic_well_formed(
        p in 0.0f64..1.0,
        bursty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let model = if bursty {
            TraceModel::mmpp_from_bursty(p, 4.0)
        } else {
            TraceModel::Bernoulli { p }
        };
        let mut seen = std::collections::HashSet::new();
        for frame in tick_frames(&generate(model, 10, 20, 1, seed), 10, 20) {
            let mut frame_sources = std::collections::HashSet::new();
            for msg in frame {
                prop_assert!(msg.source < 10);
                prop_assert!(seen.insert(msg.id));
                prop_assert!(frame_sources.insert(msg.source), "one offer per input");
                prop_assert_eq!(msg.payload.len(), 2);
            }
        }
    }

    /// Identical (seed, model, n) produce bit-identical message streams
    /// across two independent generations — the reproducibility
    /// guarantee the fabric bench's deterministic sections rest on.
    #[test]
    fn traffic_deterministic_across_generators(
        seed in any::<u64>(),
        n in 1usize..48,
        size_class in 0u8..3,
        p in 0.0f64..1.0,
        model_idx in 0usize..4,
        ticks in 1u64..25,
    ) {
        let model = [
            TraceModel::Bernoulli { p },
            TraceModel::mmpp_from_bursty(p, 6.0),
            TraceModel::Diurnal { base: p, amplitude: p / 2.0, period: 8 },
            TraceModel::Bernoulli { p: 1.0 },
        ][model_idx];
        let play = || tick_frames(&generate(model, n, ticks, size_class, seed), n, ticks);
        prop_assert_eq!(play(), play());
    }

    /// Multistage cascades never duplicate or invent messages: routing is
    /// a partial injection from inputs to root ports.
    #[test]
    fn multistage_routing_is_partial_injection(pattern in any::<u64>()) {
        let net = regular_tree(64, 16, 8, 8, |ins, outs| {
            debug_assert_eq!(ins, 16);
            Box::new(ColumnsortSwitch::new(8, 2, outs))
        });
        let valid: Vec<bool> = (0..64).map(|i| (pattern >> i) & 1 == 1).collect();
        let routing = net.route(&valid);
        let mut seen = std::collections::HashSet::new();
        for (input, slot) in routing.assignment.iter().enumerate() {
            if let Some(out) = slot {
                prop_assert!(valid[input]);
                prop_assert!(*out < net.outputs());
                prop_assert!(seen.insert(*out));
            }
        }
        prop_assert!(routing.routed() <= net.outputs());
    }

    /// Deflection conserves messages for any load and fallback policy.
    #[test]
    fn deflection_conserves(
        p in 0.05f64..0.9,
        frames in 5usize..60,
        fallback_idx in 0usize..2,
        seed in any::<u64>(),
    ) {
        let fallback = [
            CongestionPolicy::Drop,
            CongestionPolicy::AckResend { max_retries: 1 },
        ][fallback_idx];
        let primary = ColumnsortSwitch::new(16, 4, 16);
        let detour = ColumnsortSwitch::new(16, 4, 8);
        let mut stage = DeflectionStage::new(&primary, &detour, 2, fallback);
        let stats = stage.run(bernoulli(p, 64, frames, seed));
        prop_assert_eq!(
            stats.base.offered,
            stats.base.delivered + stats.base.dropped + stage.in_flight()
        );
        prop_assert!(stats.delivered_via_detour <= stats.misrouted);
    }

    /// The rotating wrapper is routing-equivalent in aggregate: it always
    /// delivers at least as many messages as the guarantee requires and
    /// never routes invalid inputs.
    #[test]
    fn rotating_wrapper_soundness(pattern in any::<u64>(), frames in 1usize..8) {
        let rotating = RotatingSwitch::new(ColumnsortSwitch::new(8, 4, 24));
        let valid: Vec<bool> = (0..32).map(|i| (pattern >> (i % 64)) & 1 == 1).collect();
        for _ in 0..frames {
            let routing = rotating.route(&valid);
            for (input, slot) in routing.assignment.iter().enumerate() {
                if slot.is_some() {
                    prop_assert!(valid[input]);
                }
            }
            let k = valid.iter().filter(|&&v| v).count();
            prop_assert!(routing.routed() >= k.min(rotating.guaranteed_capacity()).min(k));
        }
    }

    /// Fairness measurement bookkeeping: delivered never exceeds offered,
    /// and the Jain index stays in (0, 1].
    #[test]
    fn fairness_report_sane(p in 0.1f64..1.0, seed in any::<u64>()) {
        let switch = ColumnsortSwitch::new(8, 2, 8);
        let report = measure_fairness(&switch, p, 50, seed);
        for (o, d) in report.offered.iter().zip(&report.delivered) {
            prop_assert!(d <= o);
        }
        let jain = report.jain_index();
        prop_assert!(jain > 0.0 && jain <= 1.0 + 1e-12);
    }
}

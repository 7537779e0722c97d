//! One routing frame: setup cycle plus payload cycles.
//!
//! [`simulate_frame`] is the reference frame discipline: it moves one bit
//! per wire per cycle through the switch's routing table. The serving
//! path (`fabric::Shard`) transports payloads through the switch's
//! gate-level datapath netlist instead, 64 cycles per compiled sweep, and
//! its tests check it against this function.

use concentrator::spec::{ConcentratorSwitch, Routing};

use crate::message::Message;

/// What happened to the offered messages in one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameOutcome {
    /// The established paths.
    pub routing: Routing,
    /// Messages delivered, with the output wire each arrived on. Payloads
    /// are reassembled from the cycle-by-cycle wire bits, so any routing
    /// inconsistency would corrupt them.
    pub delivered: Vec<(usize, Message)>,
    /// Messages that were valid at setup but got no path (congestion).
    pub unrouted: Vec<Message>,
}

/// Simulate one frame of bit-serial transmission through `switch`.
///
/// `offered` holds at most one message per input wire. The setup cycle
/// presents the valid bits; every subsequent cycle moves one payload bit of
/// every routed message along its frozen path; the receiver reassembles
/// payloads from the arriving bits.
///
/// # Panics
/// If two messages claim the same input wire or a source is out of range.
pub fn simulate_frame<S: ConcentratorSwitch + ?Sized>(
    switch: &S,
    offered: &[Message],
) -> FrameOutcome {
    let n = switch.inputs();
    let mut by_input: Vec<Option<&Message>> = vec![None; n];
    for msg in offered {
        assert!(msg.source < n, "message source {} out of range", msg.source);
        assert!(
            by_input[msg.source].is_none(),
            "two messages offered on input {}",
            msg.source
        );
        by_input[msg.source] = Some(msg);
    }

    // Setup cycle: valid bits establish the paths.
    let valid: Vec<bool> = by_input.iter().map(|m| m.is_some()).collect();
    let routing = switch.route(&valid);

    // Payload cycles: all frames carry the longest payload (shorter ones
    // idle-low afterwards, harmless for reassembly since lengths are known
    // to the receiver in this model).
    let cycles = offered.iter().map(Message::bit_len).max().unwrap_or(0);
    let m = switch.outputs();
    let mut received_bits: Vec<Vec<bool>> = vec![Vec::with_capacity(cycles); m];
    for cycle in 0..cycles {
        // One bit per input wire this cycle.
        for (out, src) in routing.output_source.iter().enumerate() {
            if let Some(src) = src {
                let msg = by_input[*src].expect("routing only routes valid inputs");
                let bit = if cycle < msg.bit_len() {
                    msg.bit(cycle)
                } else {
                    false
                };
                received_bits[out].push(bit);
            }
        }
    }

    // Reassemble deliveries.
    let mut delivered = Vec::new();
    for (out, src) in routing.output_source.iter().enumerate() {
        if let Some(src) = src {
            let original = by_input[*src].expect("routed inputs carry messages");
            let bits = &received_bits[out][..original.bit_len()];
            let payload = Message::payload_from_bits(bits);
            delivered.push((
                out,
                Message {
                    id: original.id,
                    source: original.source,
                    payload,
                },
            ));
        }
    }

    let unrouted = routing
        .unrouted_inputs(&valid)
        .map(|input| by_input[input].expect("unrouted inputs were valid").clone())
        .collect();

    FrameOutcome {
        routing,
        delivered,
        unrouted,
    }
}

impl FrameOutcome {
    /// Whether every delivered payload matches what was sent.
    pub fn payloads_intact(&self, offered: &[Message]) -> bool {
        self.delivered.iter().all(|(_, got)| {
            offered
                .iter()
                .find(|m| m.id == got.id)
                .is_some_and(|sent| sent.payload == got.payload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concentrator::Hyperconcentrator;

    #[test]
    fn frame_delivers_intact_payloads() {
        let switch = Hyperconcentrator::new(8);
        let offered = vec![
            Message::new(1, 2, vec![0xDE, 0xAD]),
            Message::new(2, 5, vec![0xBE, 0xEF]),
            Message::new(3, 7, vec![0x42]),
        ];
        let outcome = simulate_frame(&switch, &offered);
        assert_eq!(outcome.delivered.len(), 3);
        assert!(outcome.unrouted.is_empty());
        assert!(outcome.payloads_intact(&offered));
        // Hyperconcentrator compacts in order: inputs 2, 5, 7 -> outputs
        // 0, 1, 2.
        let outputs: Vec<usize> = outcome.delivered.iter().map(|&(o, _)| o).collect();
        assert_eq!(outputs, vec![0, 1, 2]);
    }

    #[test]
    fn empty_frame_is_fine() {
        let switch = Hyperconcentrator::new(4);
        let outcome = simulate_frame(&switch, &[]);
        assert!(outcome.delivered.is_empty());
        assert!(outcome.unrouted.is_empty());
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn double_booking_an_input_panics() {
        let switch = Hyperconcentrator::new(4);
        let offered = vec![Message::new(1, 0, vec![0u8]), Message::new(2, 0, vec![1u8])];
        simulate_frame(&switch, &offered);
    }

    #[test]
    fn mixed_payload_lengths() {
        let switch = Hyperconcentrator::new(4);
        let offered = vec![
            Message::new(1, 0, vec![0xFFu8; 4]),
            Message::new(2, 3, vec![0x01u8]),
        ];
        let outcome = simulate_frame(&switch, &offered);
        assert!(outcome.payloads_intact(&offered));
        assert_eq!(outcome.delivered[1].1.payload.len(), 1);
    }
}

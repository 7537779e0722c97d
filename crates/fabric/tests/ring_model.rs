//! Model-based property test for the ingress ring: random sequences of
//! one-message pushes, k-message pushes, pops and closes run against an
//! [`IngressQueue`] and against a `VecDeque` that applies each policy
//! one message at a time. After every operation the two must agree on
//! the queued messages and their order, on what the push reported
//! (counts and the handed-back suffix), on the producer counters, on
//! `len()` and on `would_accept()` under every policy.

use std::collections::VecDeque;

use proptest::prelude::*;

use fabric::{Backpressure, BatchPush, IngressQueue, Message};

const POLICIES: [Backpressure; 3] = [
    Backpressure::Block,
    Backpressure::ShedOldest,
    Backpressure::Reject,
];

/// One step of a sequence. Sizes are drawn raw and folded into the
/// ring's range (`k ≤ 2 × capacity`) once the capacity is known.
#[derive(Debug, Clone)]
enum Op {
    PushOne,
    Push(usize),
    Pop(usize),
    Close,
}

/// One operation from a raw draw: pushes and pops four times as likely
/// as a close, so most sequences exercise an open ring.
fn op((kind, raw): (u8, usize)) -> Op {
    match kind {
        0..=3 => Op::PushOne,
        4..=7 => Op::Push(raw),
        8..=11 => Op::Pop(raw),
        _ => Op::Close,
    }
}

/// The reference: the ring's admission rules applied to each message in
/// turn, with no concurrent consumer.
struct Model {
    capacity: usize,
    policy: Backpressure,
    queued: VecDeque<u64>,
    closed: bool,
    /// `(offered, rejected, shed)`, as `IngressQueue::counters`.
    counters: (u64, u64, u64),
}

/// What a push reported: enqueued, shed, rejected, and the ids handed
/// back.
type Pushed = (usize, u64, usize, Vec<u64>);

impl Model {
    fn push(&mut self, ids: &[u64]) -> Pushed {
        let (mut enqueued, mut shed, mut rejected) = (0, 0, 0);
        for (i, &id) in ids.iter().enumerate() {
            if self.closed {
                rejected += 1;
            } else if self.queued.len() < self.capacity {
                self.queued.push_back(id);
                enqueued += 1;
            } else {
                match self.policy {
                    // Nothing pops meanwhile, so the rest blocks too and
                    // goes back uncounted.
                    Backpressure::Block => {
                        self.counters.0 += (enqueued + rejected) as u64;
                        return (enqueued, shed, rejected, ids[i..].to_vec());
                    }
                    Backpressure::Reject => rejected += 1,
                    Backpressure::ShedOldest => {
                        self.queued.pop_front();
                        self.queued.push_back(id);
                        shed += 1;
                        enqueued += 1;
                    }
                }
            }
        }
        self.counters.0 += (enqueued + rejected) as u64;
        self.counters.1 += rejected as u64;
        self.counters.2 += shed;
        (enqueued, shed, rejected, Vec::new())
    }

    /// Check a pop of up to `max` against the queue and take what it
    /// took: exactly `min(max, queued)` messages, the oldest, in order.
    fn pop(&mut self, max: usize, popped: &[u64], at: &str) {
        assert_eq!(
            popped.len(),
            max.min(self.queued.len()),
            "{at}: popped {} of {} queued with max {max}",
            popped.len(),
            self.queued.len()
        );
        let oldest: Vec<u64> = self.queued.drain(..popped.len()).collect();
        assert_eq!(popped, oldest, "{at}: pop");
    }

    fn would_accept(&self, policy: Backpressure) -> bool {
        self.closed || self.queued.len() < self.capacity || policy != Backpressure::Block
    }
}

fn message(id: u64) -> Message {
    Message::new(id, 0, vec![id as u8])
}

fn ids(batch: &[Message]) -> Vec<u64> {
    batch.iter().map(|m| m.id).collect()
}

fn reported(push: BatchPush) -> Pushed {
    (push.enqueued, push.shed, push.rejected, ids(&push.blocked))
}

/// Run `ops` on a fresh ring and on the model; panic at the first
/// disagreement.
fn check(policy: Backpressure, capacity: usize, start: u64, ops: &[Op]) {
    let ring = IngressQueue::with_start_index(capacity, start);
    let mut model = Model {
        capacity,
        policy,
        queued: VecDeque::new(),
        closed: false,
        counters: (0, 0, 0),
    };
    let mut next_id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        let at = format!("step {step} ({op:?}), {policy:?}, capacity {capacity}, start {start}");
        match *op {
            Op::PushOne | Op::Push(_) => {
                let k = match *op {
                    Op::Push(raw) => 1 + raw % (2 * capacity),
                    _ => 1,
                };
                let batch: Vec<u64> = (next_id..next_id + k as u64).collect();
                next_id += k as u64;
                let expected = model.push(&batch);
                let got = if k == 1 {
                    reported(ring.try_push_batch(std::iter::once(message(batch[0])), policy))
                } else {
                    let run: Vec<Message> = batch.iter().map(|&id| message(id)).collect();
                    reported(ring.try_push_batch(run, policy))
                };
                assert_eq!(got, expected, "{at}: push report");
            }
            Op::Pop(raw) => {
                let max = raw % (2 * capacity + 1);
                model.pop(max, &ids(&ring.try_pop_batch(max)), &at);
            }
            Op::Close => {
                ring.close();
                model.closed = true;
            }
        }
        assert_eq!(ring.len(), model.queued.len(), "{at}: len");
        assert_eq!(ring.is_closed(), model.closed, "{at}: closed");
        assert_eq!(ring.counters(), model.counters, "{at}: counters");
        for probe in POLICIES {
            assert_eq!(
                ring.would_accept(probe),
                model.would_accept(probe),
                "{at}: would_accept({probe:?})"
            );
        }
    }
    // Whatever is still queued comes out in model order.
    let mut rest = Vec::new();
    while !ring.is_empty() {
        rest.extend(ids(&ring.try_pop_batch(capacity)));
    }
    assert_eq!(rest, Vec::from(model.queued.clone()), "final drain");
}

proptest! {
    /// The ring matches the one-message-at-a-time model on every
    /// sequence, under every policy, capacity 1..=8, from index 0 and
    /// from just below the `u64` wrap.
    #[test]
    fn ring_matches_the_sequential_model(
        ops in proptest::collection::vec((0u8..13, 0usize..64).prop_map(op), 0..64),
    ) {
        for policy in POLICIES {
            for capacity in 1..=8 {
                for start in [0, u64::MAX - 3] {
                    check(policy, capacity, start, &ops);
                }
            }
        }
    }
}

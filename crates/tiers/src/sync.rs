//! The deterministic synchronous tree driver: fixed round-robin
//! stepping of external producers and every worker in `(tier, fabric,
//! shard)` order. No threads, no entropy beyond the workload seeds —
//! same topology, same frames ⇒ bit-identical [`TreeReport`]. The
//! conservation matrix test and the bench's determinism assertion run
//! through this; the seeded-interleaving explorer lives in `simtest`.

use fabric::{Delivery, Message};

use crate::core::{tree_ledger, tree_snapshot, TierCore, TierStep, TierSubmit};
use crate::snapshot::TreeSnapshot;
use crate::topology::TierTopology;

/// Rounds the driver may run before declaring the tree wedged.
const ROUND_LIMIT: u64 = 1 << 22;

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

/// One parked external producer's state.
struct Producer {
    script: std::vec::IntoIter<Message>,
    parked: Option<(Message, usize, usize)>,
}

/// Drive a tree closed-loop: each element of `producers` is one external
/// source's frames (from [`fabric::LoadPlan::frames`] or
/// [`fabric::trace::frames`]), played in order against the full
/// topology and stepped round-robin with the other sources, then a
/// cascaded drain tier by tier. Ticks are not waited for: a source
/// offers its next message every round. Sources blocked at leaf
/// admission hold their message and re-offer it, oldest first — the
/// closed loop.
///
/// Every per-fabric identity and the end-to-end ledger are checked once
/// per round; the returned snapshot is drain-time exact. Same frames,
/// same topology ⇒ bit-identical [`TreeReport`].
///
/// # Panics
/// If conservation is violated at any round, or the tree stops making
/// progress before draining.
pub fn drive_tree(topology: &TierTopology, producers: Vec<Vec<(u64, Vec<Message>)>>) -> TreeReport {
    let core = TierCore::new(topology.clone());
    let mut workers = core.workers();
    let mut done = vec![false; workers.len()];
    let depth = topology.depth();
    let mut closed = vec![false; depth];

    let mut generated = 0u64;
    let mut sources: Vec<Producer> = producers
        .into_iter()
        .map(|frames| {
            let script: Vec<Message> = frames.into_iter().flat_map(|(_, frame)| frame).collect();
            generated += script.len() as u64;
            Producer {
                script: script.into_iter(),
                parked: None,
            }
        })
        .collect();

    let mut completions = Vec::new();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        assert!(rounds < ROUND_LIMIT, "tree drive failed to drain");
        let mut progressed = false;

        for producer in &mut sources {
            let offer = match producer.parked.take() {
                Some((message, leaf, shard)) => {
                    if !core.leaf_would_accept(leaf, shard) {
                        producer.parked = Some((message, leaf, shard));
                        continue;
                    }
                    core.retry_submit(message, leaf, shard)
                }
                None => match producer.script.next() {
                    Some(message) => core.try_submit(message),
                    None => continue,
                },
            };
            progressed = true;
            if let TierSubmit::Blocked {
                message,
                leaf,
                shard,
            } = offer
            {
                producer.parked = Some((message, leaf, shard));
            }
        }

        // Close cascade: tier 0 once the producers are finished, tier
        // t+1 once tier t's workers have all drained.
        let producers_done = sources
            .iter()
            .all(|p| p.script.len() == 0 && p.parked.is_none());
        if producers_done && !closed[0] {
            core.close_tier(0);
            closed[0] = true;
        }
        for tier in 1..depth {
            let upstream_done = workers
                .iter()
                .zip(&done)
                .filter(|(w, _)| w.tier() == tier - 1)
                .all(|(_, &d)| d);
            if closed[tier - 1] && upstream_done && !closed[tier] {
                core.close_tier(tier);
                closed[tier] = true;
            }
        }

        for (i, worker) in workers.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            // Step to quiescence: a worker drains its ring, runs frames,
            // and forwards until it stalls on the link or runs dry.
            loop {
                match worker.step() {
                    TierStep::Frame(run) => {
                        progressed = true;
                        if worker.is_spine() {
                            completions.extend(run.delivered);
                        }
                    }
                    TierStep::Forwarded => progressed = true,
                    TierStep::ForwardStalled | TierStep::Idle => break,
                    TierStep::Done => {
                        done[i] = true;
                        progressed = true;
                        break;
                    }
                }
            }
        }

        let ledger = tree_ledger(&core, &workers);
        assert!(
            ledger.holds(),
            "round {rounds}: tree conservation violated: {ledger:?}"
        );

        if done.iter().all(|&d| d) {
            break;
        }
        assert!(
            progressed,
            "round {rounds}: tree wedged (producers {} parked, ledger {ledger:?})",
            sources.iter().filter(|p| p.parked.is_some()).count()
        );
    }

    let snapshot = tree_snapshot(&core, &workers);
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

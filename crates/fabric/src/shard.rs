//! One serving shard: a pending-request queue in front of one switch
//! instance, with a batching executor that packs requests into routing
//! frames and transports every payload through the switch's *compiled*
//! gate-level datapath — one 64-lane SWAR sweep per 64 payload cycles.
//! Payloads go onto the wire LSB-first, one bit per clock, so the 64
//! cycles of one sweep are the little-endian word of eight payload
//! octets: each input's data-rail word is loaded straight from its
//! payload, and each routed output's word is written straight back out
//! as octets.
//!
//! All shards of a fabric share one [`StagedSwitch`] (the switches are
//! stateless combinational logic), so the expensive elaborate-and-compile
//! step runs **once** through the switch's `concentrator::elab` cache and
//! every shard holds the same `Arc<Elaboration>`; what is per-shard is the
//! mutable state: the pending queue, the evaluation scratch, the lane
//! buffers, the frame scratch reused across frames, and the metrics.

use std::collections::VecDeque;
use std::sync::Arc;

use concentrator::faults::{ChipFault, FaultySwitch};
use concentrator::spec::{ConcentratorKind, ConcentratorSwitch};
use concentrator::{Elaboration, StagedSwitch};
use netlist::{CompiledNetlist, EvalScratch, WORD_BITS};
use switchsim::Message;

use crate::config::{HealthPolicy, RetryBudget};
use crate::metrics::ShardMetrics;

/// A message waiting in a shard with its bookkeeping.
#[derive(Debug, Clone)]
struct Ticket {
    message: Message,
    /// Unsuccessful send attempts so far.
    attempts: usize,
    /// Shard frame counter when the message was accepted.
    born_frame: u64,
}

/// `slot_of` entry of an input wire that carries no ticket this frame.
const NO_TICKET: u32 = u32::MAX;

/// Data-rail word of sweep `w` for `payload`: payload cycle `c` is bit
/// `c % 8` of octet `c / 8`, so lanes `0..64` of the sweep covering cycles
/// `64w..64w + 64` are the little-endian word of octets `8w..8w + 8`,
/// zero past the payload's end.
fn lane_word(payload: &[u8], w: usize) -> u64 {
    let start = (8 * w).min(payload.len());
    let octets = &payload[start..(start + 8).min(payload.len())];
    let mut word = [0u8; 8];
    word[..octets.len()].copy_from_slice(octets);
    u64::from_le_bytes(word)
}

/// One delivered message with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Shard that served the request.
    pub shard: usize,
    /// Output wire the message arrived on.
    pub output: usize,
    /// The message, payload reassembled from the wire bits.
    pub message: Message,
    /// Frames waited from acceptance to delivery.
    pub waited_frames: u64,
}

/// What one executed frame did — returned so callers (and the equivalence
/// tests) can cross-check the batch against the single-frame reference.
#[derive(Debug, Clone, Default)]
pub struct FrameRun {
    /// The messages offered to the switch this frame (≤ 1 per input wire).
    pub offered: Vec<Message>,
    /// Deliveries completed this frame.
    pub delivered: Vec<Delivery>,
    /// Messages dropped this frame after exhausting their retry budget.
    pub dropped: Vec<Message>,
}

/// The degraded execution engine of a shard with injected chip faults:
/// the message-level faulty router (the routing oracle) and the
/// fault-compiled datapath overlay (the payload transport), which runs at
/// the same 64-lane batch speed as the healthy engine. Derived from the
/// switch's shared faultable elaboration; owning the overlay here keeps
/// the shared cache healthy-only.
struct FaultedEngine {
    router: FaultySwitch,
    compiled: CompiledNetlist,
    scratch: EvalScratch,
}

/// A shard: pending queue + compiled-datapath batch executor + metrics.
pub struct Shard {
    id: usize,
    switch: Arc<StagedSwitch>,
    elab: Arc<Elaboration>,
    scratch: EvalScratch,
    word_in: Vec<u64>,
    word_out: Vec<u64>,
    /// Frame scratch, reused across frames: each input wire's index into
    /// `batch` (or [`NO_TICKET`]), the setup valid bits, the tickets packed
    /// this frame, and the octets each output received (one stride per
    /// output).
    slot_of: Vec<u32>,
    valid: Vec<bool>,
    batch: Vec<Option<Ticket>>,
    received: Vec<u8>,
    pending: VecDeque<Ticket>,
    retry: RetryBudget,
    /// Frames this shard has executed (its local clock).
    clock: u64,
    /// Injected chip faults, when any (see [`Shard::set_faults`]).
    fault: Option<FaultedEngine>,
    health: HealthPolicy,
    /// Delivery-health EWMA against the analytic capacity bound.
    health_ewma: f64,
    quarantined: bool,
    /// Counters; public so the engine/service can fold in queue-side
    /// events (rejections, sheds) that never reach the shard proper.
    pub metrics: ShardMetrics,
}

impl Shard {
    /// Create shard `id` over the shared `switch`. The datapath
    /// elaboration comes from the switch's shared cache: the first shard
    /// pays the compile, the rest reuse it.
    pub fn new(id: usize, switch: Arc<StagedSwitch>, retry: RetryBudget) -> Shard {
        let elab = switch.datapath_logic(false);
        let scratch = elab.compiled.scratch();
        let word_in = vec![0u64; elab.compiled.input_count()];
        let word_out = vec![0u64; elab.compiled.output_count()];
        let n = switch.n;
        let metrics = ShardMetrics {
            health_milli: 1000,
            ..ShardMetrics::default()
        };
        Shard {
            id,
            switch,
            elab,
            scratch,
            word_in,
            word_out,
            slot_of: vec![NO_TICKET; n],
            valid: vec![false; n],
            batch: Vec::new(),
            received: Vec::new(),
            pending: VecDeque::new(),
            retry,
            clock: 0,
            fault: None,
            health: HealthPolicy::default(),
            health_ewma: 1.0,
            quarantined: false,
            metrics,
        }
    }

    /// Replace the health policy (builder style; the engine and service
    /// propagate [`crate::FabricConfig::health`] through this).
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> Shard {
        policy.validate();
        self.health = policy;
        self
    }

    /// Shard id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Inject (or, with an empty set, clear) chip faults. The faulted
    /// engine is derived from the switch's shared faultable elaboration:
    /// routing goes through the message-level [`FaultySwitch`] reference
    /// and payload transport through a fault-compiled overlay of the
    /// tapped datapath, leaving the shared elaboration cache untouched.
    ///
    /// # Panics
    /// If a fault names a stage or chip the switch does not have.
    pub fn set_faults(&mut self, faults: Vec<ChipFault>) {
        self.metrics.faults_active = faults.len() as u64;
        if faults.is_empty() {
            self.fault = None;
            return;
        }
        let elab = self.switch.faultable_logic();
        let compiled = elab.compile_faulted(&faults);
        let scratch = compiled.scratch();
        self.fault = Some(FaultedEngine {
            router: FaultySwitch::new(Arc::clone(&self.switch), faults),
            compiled,
            scratch,
        });
    }

    /// The chip faults currently injected (empty when healthy).
    pub fn active_faults(&self) -> &[ChipFault] {
        self.fault.as_ref().map_or(&[], |f| f.router.faults())
    }

    /// Whether the health monitor has quarantined this shard.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The delivery-health EWMA (1.0 = meeting the capacity bound).
    pub fn health(&self) -> f64 {
        self.health_ewma
    }

    /// Messages waiting for a frame slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The switch this shard serves.
    pub fn switch(&self) -> &Arc<StagedSwitch> {
        &self.switch
    }

    /// Install a recompiled replacement switch — the worker-side half of
    /// the live swap protocol (see [`crate::reconfig`]). The caller (the
    /// worker core) invokes this only once its pending queue is empty, so
    /// every frame admitted under the old epoch has completed on the old
    /// switch; messages still in the ingress ring route on the new switch
    /// from their first frame. The replacement must cover the old input
    /// range (`n` may only grow) so no queued message's source wire
    /// disappears — that is what makes the swap zero-loss by construction.
    ///
    /// Installing clears any injected fault overlay: the faults were
    /// compiled against the *old* topology, and swapping in a
    /// fault-recompiled netlist is exactly how a quarantined shard is
    /// repaired. Health history likewise judged the old switch, so the
    /// EWMA restarts trusted and the existing hysteresis re-quarantines
    /// the shard only if the new switch underperforms.
    ///
    /// # Panics
    /// If the pending queue is non-empty, or the replacement's `n` is
    /// smaller than the old switch's.
    pub fn install_switch(&mut self, switch: Arc<StagedSwitch>) {
        assert!(
            self.pending.is_empty(),
            "shard {}: switch install requires an empty pending queue \
             (old-epoch frames must complete on the old switch first)",
            self.id
        );
        assert!(
            switch.n >= self.switch.n,
            "shard {}: replacement switch must cover the old input range \
             (new n = {} < old n = {})",
            self.id,
            switch.n,
            self.switch.n
        );
        let elab = switch.datapath_logic(false);
        self.scratch = elab.compiled.scratch();
        self.word_in = vec![0u64; elab.compiled.input_count()];
        self.word_out = vec![0u64; elab.compiled.output_count()];
        self.slot_of = vec![NO_TICKET; switch.n];
        self.valid = vec![false; switch.n];
        self.elab = elab;
        self.switch = switch;
        self.fault = None;
        self.metrics.faults_active = 0;
        self.health_ewma = 1.0;
        self.metrics.health_milli = 1000;
    }

    /// The analytic per-frame capacity bound this shard's health monitor
    /// judges frames against: `⌊α·m⌋` for a partial concentrator of
    /// guarantee `α` (Lemma 2's capacity floor), `m` otherwise, and at
    /// least 1. A healthy shard offered `k ≤ bound` messages in one frame
    /// delivers all `k`; the simulation harness's capacity oracle checks
    /// exactly this.
    pub fn capacity_bound(&self) -> u64 {
        let m = self.switch.m as f64;
        let alpha = match self.switch.kind {
            ConcentratorKind::Partial { alpha } => alpha,
            ConcentratorKind::Hyperconcentrator | ConcentratorKind::Perfect => 1.0,
        };
        ((alpha * m).floor() as u64).max(1)
    }

    /// Shard-local frame counter.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Accept a message into the pending queue. The caller has already
    /// applied admission control and backpressure; this always enqueues.
    pub fn accept(&mut self, message: Message) {
        assert!(
            message.source < self.switch.n,
            "message source {} out of range for n = {}",
            message.source,
            self.switch.n
        );
        self.pending.push_back(Ticket {
            message,
            attempts: 0,
            born_frame: self.clock,
        });
        self.metrics.max_pending = self.metrics.max_pending.max(self.pending.len() as u64);
    }

    /// Drop the oldest pending message (shed-oldest backpressure),
    /// returning it if the queue was non-empty. Counts as `shed`.
    pub fn shed_oldest(&mut self) -> Option<Message> {
        let ticket = self.pending.pop_front()?;
        self.metrics.shed += 1;
        Some(ticket.message)
    }

    /// Run one routing frame: pack pending messages onto free input wires
    /// (FIFO, at most one per wire), route, transport every payload
    /// through the compiled datapath, deliver winners, and re-queue or
    /// drop congestion losers per the retry budget.
    ///
    /// A shard with nothing pending executes nothing and returns an empty
    /// run (frames and sweeps only count real work).
    pub fn run_frame(&mut self) -> FrameRun {
        if self.pending.is_empty() {
            return FrameRun::default();
        }
        let n = self.switch.n;
        let m = self.switch.m;

        // Pack: claim input wires in FIFO order by rotating the queue once;
        // conflicting tickets go back to its tail, still in order, for a
        // later frame.
        for _ in 0..self.pending.len() {
            let ticket = self.pending.pop_front().expect("counted pending tickets");
            let src = ticket.message.source;
            if self.slot_of[src] == NO_TICKET {
                self.slot_of[src] = self.batch.len() as u32;
                self.valid[src] = true;
                self.batch.push(Some(ticket));
            } else {
                self.pending.push_back(ticket);
            }
        }
        let batched = self.batch.len();
        debug_assert!(batched > 0);

        // Setup cycle: the valid bits establish the electrical paths —
        // through the faulty router when faults are injected, so the
        // routing oracle and the datapath degrade together.
        let routing = match &self.fault {
            Some(faulted) => faulted.router.route(&self.valid),
            None => self.switch.route(&self.valid),
        };

        // Payload cycles through the compiled datapath netlist: the valid
        // rail holds the frozen setup pattern on every lane, the data rail
        // carries one payload bit per lane — 64 clock cycles per sweep.
        // Payloads go out LSB-first, so sweep `w` of an input is just the
        // little-endian word of its octets `8w..8w + 8`, and a routed
        // output's word goes back as the same eight octets.
        let cycles = self
            .batch
            .iter()
            .flatten()
            .map(|t| t.message.bit_len())
            .max()
            .unwrap_or(0);
        let words = cycles.div_ceil(WORD_BITS);
        let stride = words * 8;
        self.received.resize(m * stride, 0);
        for w in 0..words {
            let lanes = (cycles - w * WORD_BITS).min(WORD_BITS);
            let lane_mask = if lanes == WORD_BITS {
                !0u64
            } else {
                (1u64 << lanes) - 1
            };
            let (valid_rail, data_rail) = self.word_in.split_at_mut(n);
            for (word, &v) in valid_rail.iter_mut().zip(&self.valid) {
                *word = if v { lane_mask } else { 0 };
            }
            data_rail[..n].fill(0);
            for ticket in self.batch.iter().flatten() {
                let msg = &ticket.message;
                data_rail[msg.source] = lane_word(&msg.payload, w) & lane_mask;
            }
            match &mut self.fault {
                Some(faulted) => faulted.compiled.eval_word_into(
                    &self.word_in,
                    &mut faulted.scratch,
                    &mut self.word_out,
                ),
                None => self.elab.compiled.eval_word_into(
                    &self.word_in,
                    &mut self.scratch,
                    &mut self.word_out,
                ),
            }
            self.metrics.sweeps += 1;
            for (out, src) in routing.output_source.iter().enumerate() {
                if src.is_some() {
                    debug_assert_eq!(
                        self.word_out[out] & lane_mask,
                        lane_mask,
                        "routed output {out} lost its valid bit in the netlist"
                    );
                    let data = self.word_out[m + out] & lane_mask;
                    let at = out * stride + w * 8;
                    self.received[at..at + 8].copy_from_slice(&data.to_le_bytes());
                }
            }
        }

        // Deliver winners, reassembling payloads from the arrived octets.
        let mut run = FrameRun {
            offered: self
                .slot_of
                .iter()
                .filter(|&&k| k != NO_TICKET)
                .map(|&k| {
                    self.batch[k as usize]
                        .as_ref()
                        .expect("packed ticket")
                        .message
                        .clone()
                })
                .collect(),
            ..FrameRun::default()
        };
        for (out, src) in routing.output_source.iter().enumerate() {
            if let Some(src) = *src {
                let k = std::mem::replace(&mut self.slot_of[src], NO_TICKET);
                let ticket = self.batch[k as usize]
                    .take()
                    .expect("routed inputs carry tickets");
                let at = out * stride;
                let payload = &self.received[at..at + ticket.message.payload.len()];
                let waited = self.clock - ticket.born_frame;
                self.metrics.delivered += 1;
                self.metrics.wait_frames.record(waited);
                run.delivered.push(Delivery {
                    shard: self.id,
                    output: out,
                    message: Message::new(ticket.message.id, ticket.message.source, payload),
                    waited_frames: waited,
                });
            }
        }

        // Congestion losers, in input order: retry within budget (re-queued
        // at the front, preserving age order), or drop.
        let mut requeued = 0;
        for src in 0..n {
            let k = std::mem::replace(&mut self.slot_of[src], NO_TICKET);
            if k == NO_TICKET {
                continue;
            }
            let mut ticket = self.batch[k as usize].take().expect("packed ticket");
            ticket.attempts += 1;
            if self.retry.allows(ticket.attempts) {
                self.metrics.retries += 1;
                self.pending.push_back(ticket);
                requeued += 1;
            } else {
                self.metrics.retry_dropped += 1;
                run.dropped.push(ticket.message);
            }
        }
        self.pending.rotate_right(requeued);
        self.valid.fill(false);
        self.batch.clear();

        self.metrics.frames += 1;
        self.clock += 1;
        self.update_health(batched as u64, run.delivered.len() as u64);
        run
    }

    /// Fold one executed frame into the delivery-health EWMA and apply the
    /// quarantine state machine. The denominator is the analytic capacity
    /// bound: a partial concentrator of guarantee `α` owes `⌊α·m⌋`
    /// deliveries per saturated frame (Lemma 2), so congestion beyond the
    /// bound does not read as ill health — only faults do.
    fn update_health(&mut self, batched: u64, delivered: u64) {
        let expected = batched.min(self.capacity_bound()).max(1);
        let ratio = (delivered as f64 / expected as f64).min(1.0);
        self.health_ewma += self.health.alpha * (ratio - self.health_ewma);
        self.metrics.health_milli = (self.health_ewma * 1000.0).round() as u64;
        if self.metrics.frames >= self.health.min_frames {
            if !self.quarantined && self.health_ewma < self.health.quarantine_below {
                self.quarantined = true;
                self.metrics.quarantines += 1;
            } else if self.quarantined && self.health_ewma > self.health.recover_above {
                self.quarantined = false;
            }
        }
        if self.quarantined {
            self.metrics.quarantined_frames += 1;
        }
    }

    /// Run frames until the pending queue is empty (graceful drain),
    /// collecting deliveries. `max_frames` bounds the loop against a
    /// misconfigured switch that routes nothing.
    pub fn drain(&mut self, max_frames: u64) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        let mut frames = 0u64;
        while !self.pending.is_empty() {
            assert!(
                frames < max_frames,
                "shard {} failed to drain within {max_frames} frames",
                self.id
            );
            deliveries.extend(self.run_frame().delivered);
            frames += 1;
        }
        deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concentrator::faults::FaultMode;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
    use proptest::prelude::*;

    impl Shard {
        /// The per-bit reference transport: the frame [`Shard::run_frame`]
        /// must reproduce, written literally from the bit-serial wire
        /// format — one `Message::bit` per payload bit per input, one
        /// `Vec<bool>` per output, payloads rebuilt by
        /// `Message::payload_from_bits`, fresh per-frame buffers.
        fn run_frame_per_bit(&mut self) -> FrameRun {
            if self.pending.is_empty() {
                return FrameRun::default();
            }
            let n = self.switch.n;
            let m = self.switch.m;

            let mut by_input: Vec<Option<Ticket>> = (0..n).map(|_| None).collect();
            let mut stay = VecDeque::with_capacity(self.pending.len());
            let mut batched = 0usize;
            for ticket in self.pending.drain(..) {
                let slot = &mut by_input[ticket.message.source];
                if slot.is_none() {
                    *slot = Some(ticket);
                    batched += 1;
                } else {
                    stay.push_back(ticket);
                }
            }
            self.pending = stay;

            let valid: Vec<bool> = by_input.iter().map(Option::is_some).collect();
            let routing = match &self.fault {
                Some(faulted) => faulted.router.route(&valid),
                None => self.switch.route(&valid),
            };

            let cycles = by_input
                .iter()
                .flatten()
                .map(|t| t.message.bit_len())
                .max()
                .unwrap_or(0);
            let mut received: Vec<Vec<bool>> = vec![Vec::with_capacity(cycles); m];
            let mut cycle = 0usize;
            while cycle < cycles {
                let lanes = (cycles - cycle).min(WORD_BITS);
                let lane_mask = if lanes == WORD_BITS {
                    !0u64
                } else {
                    (1u64 << lanes) - 1
                };
                for i in 0..n {
                    self.word_in[i] = if valid[i] { lane_mask } else { 0 };
                    let mut data = 0u64;
                    if let Some(ticket) = &by_input[i] {
                        let msg = &ticket.message;
                        let last = msg.bit_len().min(cycle + lanes);
                        for (lane, c) in (cycle..last).enumerate() {
                            data |= (msg.bit(c) as u64) << lane;
                        }
                    }
                    self.word_in[n + i] = data;
                }
                match &mut self.fault {
                    Some(faulted) => faulted.compiled.eval_word_into(
                        &self.word_in,
                        &mut faulted.scratch,
                        &mut self.word_out,
                    ),
                    None => self.elab.compiled.eval_word_into(
                        &self.word_in,
                        &mut self.scratch,
                        &mut self.word_out,
                    ),
                }
                self.metrics.sweeps += 1;
                for (out, src) in routing.output_source.iter().enumerate() {
                    if src.is_some() {
                        let data = self.word_out[m + out];
                        for lane in 0..lanes {
                            received[out].push(data >> lane & 1 == 1);
                        }
                    }
                }
                cycle += lanes;
            }

            let mut run = FrameRun {
                offered: by_input
                    .iter()
                    .flatten()
                    .map(|t| t.message.clone())
                    .collect(),
                ..FrameRun::default()
            };
            for (out, src) in routing.output_source.iter().enumerate() {
                if let Some(src) = src {
                    let ticket = by_input[*src].take().expect("routed inputs carry tickets");
                    let payload =
                        Message::payload_from_bits(&received[out][..ticket.message.bit_len()]);
                    let waited = self.clock - ticket.born_frame;
                    self.metrics.delivered += 1;
                    self.metrics.wait_frames.record(waited);
                    run.delivered.push(Delivery {
                        shard: self.id,
                        output: out,
                        message: Message {
                            id: ticket.message.id,
                            source: ticket.message.source,
                            payload,
                        },
                        waited_frames: waited,
                    });
                }
            }

            let mut requeue: Vec<Ticket> = Vec::new();
            for slot in by_input.into_iter() {
                let Some(mut ticket) = slot else { continue };
                ticket.attempts += 1;
                if self.retry.allows(ticket.attempts) {
                    self.metrics.retries += 1;
                    requeue.push(ticket);
                } else {
                    self.metrics.retry_dropped += 1;
                    run.dropped.push(ticket.message);
                }
            }
            for ticket in requeue.into_iter().rev() {
                self.pending.push_front(ticket);
            }

            self.metrics.frames += 1;
            self.clock += 1;
            self.update_health(batched as u64, run.delivered.len() as u64);
            run
        }

        /// `(id, attempts, born_frame)` of every pending ticket, in order.
        fn pending_order(&self) -> Vec<(u64, usize, u64)> {
            self.pending
                .iter()
                .map(|t| (t.message.id, t.attempts, t.born_frame))
                .collect()
        }
    }

    /// Run one frame on the word-level shard and the per-bit reference
    /// shard and require identical observable results.
    fn assert_same_frame(word: &mut Shard, bit: &mut Shard) {
        let got = word.run_frame();
        let want = bit.run_frame_per_bit();
        assert_eq!(got.offered, want.offered, "offered");
        assert_eq!(got.delivered, want.delivered, "delivered");
        assert_eq!(got.dropped, want.dropped, "dropped");
        assert_eq!(word.metrics, bit.metrics, "metrics");
        assert_eq!(word.pending_order(), bit.pending_order(), "requeue order");
    }

    proptest! {
        #[test]
        fn word_transport_matches_per_bit_reference(
            frames in proptest::collection::vec(
                proptest::collection::vec((0usize..16, 0usize..25, any::<u64>()), 0..24),
                1..6,
            ),
            faulted in any::<bool>(),
            fault_chip in 0usize..4,
        ) {
            let switch = Arc::new(RevsortSwitch::new(16, 8, RevsortLayout::TwoDee).staged().clone());
            let mut word = Shard::new(0, Arc::clone(&switch), RetryBudget::limited(2));
            let mut bit = Shard::new(0, switch, RetryBudget::limited(2));
            if faulted {
                let fault = ChipFault { stage: 0, chip: fault_chip, mode: FaultMode::StuckInvalid };
                word.set_faults(vec![fault]);
                bit.set_faults(vec![fault]);
            }
            let mut id = 0u64;
            for frame in &frames {
                for &(source, len, seed) in frame {
                    let payload: Vec<u8> =
                        (0..len).map(|b| seed.rotate_right(8 * b as u32 % 64) as u8 ^ b as u8).collect();
                    let msg = Message::new(id, source, payload);
                    word.accept(msg.clone());
                    bit.accept(msg);
                    id += 1;
                }
                assert_same_frame(&mut word, &mut bit);
            }
            // Drain the backlog frame by frame (the budget bounds it).
            while word.pending_len() > 0 || bit.pending_len() > 0 {
                assert_same_frame(&mut word, &mut bit);
            }
        }
    }

    #[test]
    fn lane_words_are_little_endian_octets() {
        let payload = [0x01u8, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x80];
        assert_eq!(lane_word(&payload, 0), 0x0807_0605_0403_0201);
        // The partial last word holds its octet in lanes 0..8, zero above.
        assert_eq!(lane_word(&payload, 1), 0x80);
        assert_eq!(lane_word(&payload, 2), 0);
        assert_eq!(lane_word(&[], 0), 0);
        let msg = Message::new(0, 0, payload.to_vec());
        for c in 0..msg.bit_len() {
            assert_eq!(lane_word(&payload, c / 64) >> (c % 64) & 1 == 1, msg.bit(c));
        }
    }

    #[test]
    fn gate_level_shard_matches_routing_table_simulation() {
        let switch = Arc::new(
            RevsortSwitch::new(16, 12, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        // Budget 0: every congestion loser is dropped in its frame, so a
        // frame's drops are exactly the reference's unrouted messages.
        let mut shard = Shard::new(0, Arc::clone(&switch), RetryBudget::limited(0));
        let mut state = 0x5EEDu64;
        for frame in 0..40 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let offered: Vec<Message> = (0..16)
                .filter(|&i| state >> i & 1 == 1)
                .map(|i| {
                    let len = 1 + (state.rotate_left(i as u32) % 4) as usize;
                    let payload: Vec<u8> = (0..len)
                        .map(|b| (state.rotate_right(8 * b as u32 + i as u32)) as u8)
                        .collect();
                    Message::new(frame * 100 + i as u64, i as usize, payload)
                })
                .collect();
            let reference = switchsim::simulate_frame(switch.as_ref(), &offered);
            for msg in &offered {
                shard.accept(msg.clone());
            }
            let run = shard.run_frame();
            let delivered: Vec<(usize, Message)> = run
                .delivered
                .iter()
                .map(|d| (d.output, d.message.clone()))
                .collect();
            assert_eq!(
                delivered, reference.delivered,
                "frame {frame}, state {state:#x}"
            );
            assert_eq!(run.dropped, reference.unrouted, "frame {frame}");
            assert!(reference.payloads_intact(&offered));
        }
    }

    #[test]
    fn shard_batches_64_cycles_per_sweep() {
        use concentrator::full_revsort::FullRevsortHyperconcentrator;
        let switch = FullRevsortHyperconcentrator::new(16);
        let mut shard = Shard::new(0, Arc::new(switch.staged().clone()), RetryBudget::UNLIMITED);
        // 8-byte payload = 64 cycles: exactly one compiled sweep.
        shard.accept(Message::new(1, 3, vec![0xA5u8; 8]));
        shard.run_frame();
        assert_eq!(shard.metrics.sweeps, 1);
        // 9 bytes = 72 cycles: two sweeps, the second a partial word.
        shard.accept(Message::new(2, 9, vec![0x3Cu8; 9]));
        let run = shard.run_frame();
        assert_eq!(run.delivered[0].message.payload, vec![0x3Cu8; 9]);
        assert_eq!(shard.metrics.sweeps, 3);
        // An empty frame needs no sweep at all, nor does an empty payload.
        shard.run_frame();
        shard.accept(Message::new(3, 5, Vec::new()));
        let run = shard.run_frame();
        assert_eq!(run.delivered.len(), 1);
        assert!(run.delivered[0].message.payload.is_empty());
        assert_eq!(shard.metrics.sweeps, 3);
    }

    fn test_switch() -> Arc<StagedSwitch> {
        Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }

    #[test]
    fn delivers_packed_batch_with_intact_payloads() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        for src in [1usize, 4, 9] {
            shard.accept(Message::new(src as u64, src, vec![0xA0 | src as u8, 0x5C]));
        }
        let run = shard.run_frame();
        assert_eq!(run.offered.len(), 3);
        assert_eq!(run.delivered.len(), 3);
        for d in &run.delivered {
            assert_eq!(d.message.payload[0], 0xA0 | d.message.source as u8);
            assert_eq!(d.message.payload[1], 0x5C);
            assert_eq!(d.waited_frames, 0);
        }
        assert_eq!(shard.metrics.frames, 1);
        // 16 payload cycles fit in one 64-lane sweep.
        assert_eq!(shard.metrics.sweeps, 1);
    }

    #[test]
    fn input_conflicts_wait_their_turn_in_fifo_order() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        shard.accept(Message::new(1, 3, vec![0x11]));
        shard.accept(Message::new(2, 3, vec![0x22]));
        shard.accept(Message::new(3, 3, vec![0x33]));
        let first = shard.run_frame();
        assert_eq!(first.offered.len(), 1, "one wire, one slot per frame");
        assert_eq!(first.delivered[0].message.id, 1);
        let second = shard.run_frame();
        assert_eq!(second.delivered[0].message.id, 2);
        assert_eq!(second.delivered[0].waited_frames, 1);
        let third = shard.run_frame();
        assert_eq!(third.delivered[0].message.id, 3);
        assert_eq!(shard.pending_len(), 0);
    }

    #[test]
    fn retry_budget_drops_persistent_losers() {
        // m = 4 ≪ n = 16: overload 12 inputs so some lose every frame.
        let switch = Arc::new(
            RevsortSwitch::new(16, 4, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        let mut shard = Shard::new(0, switch, RetryBudget::limited(0));
        for src in 0..12 {
            shard.accept(Message::new(src as u64, src, vec![src as u8]));
        }
        let run = shard.run_frame();
        assert_eq!(run.delivered.len() + run.dropped.len(), 12);
        assert!(!run.dropped.is_empty(), "budget 0 drops every loser");
        assert_eq!(shard.pending_len(), 0);
        assert_eq!(shard.metrics.retry_dropped as usize, run.dropped.len());
    }

    #[test]
    fn drain_empties_the_shard() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        for i in 0..40u64 {
            shard.accept(Message::new(i, (i % 16) as usize, vec![i as u8]));
        }
        let deliveries = shard.drain(1000);
        assert_eq!(deliveries.len(), 40);
        assert_eq!(shard.pending_len(), 0);
        assert_eq!(shard.metrics.delivered, 40);
    }

    #[test]
    fn idle_shard_does_no_work() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        let run = shard.run_frame();
        assert!(run.offered.is_empty());
        assert_eq!(shard.metrics.frames, 0);
        assert_eq!(shard.metrics.sweeps, 0);
    }

    #[test]
    fn faulted_shard_degrades_and_accounts_every_message() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::limited(0));
        shard.set_faults(vec![ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        }]);
        assert_eq!(shard.active_faults().len(), 1);
        assert_eq!(shard.metrics.faults_active, 1);
        for src in 0..16 {
            shard.accept(Message::new(src as u64, src, vec![0x40 | src as u8]));
        }
        let run = shard.run_frame();
        assert_eq!(run.delivered.len() + run.dropped.len(), 16);
        assert!(
            !run.dropped.is_empty(),
            "a dead first-stage chip must cost messages"
        );
        // Winners still carry intact payloads through the faulted netlist.
        for d in &run.delivered {
            assert_eq!(d.message.payload[0], 0x40 | d.message.source as u8);
        }
    }

    #[test]
    fn health_quarantines_on_faults_and_recovers_after_repair() {
        // Offer only the faulted chip's column, under the bound: every
        // frame delivers zero of an expected four, so the EWMA collapses.
        let mut shard = Shard::new(0, test_switch(), RetryBudget::limited(0));
        shard.set_faults(vec![ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        }]);
        // TwoDee 16→8: stage 0 chip 0 serves matrix column 0.
        let dead: Vec<usize> = (0..16).filter(|i| i % 4 == 0).collect();
        let mut frames = 0;
        while !shard.is_quarantined() {
            assert!(frames < 100, "health monitor never quarantined");
            for &src in &dead {
                shard.accept(Message::new(src as u64, src, vec![1]));
            }
            shard.run_frame();
            frames += 1;
        }
        assert!(shard.health() < 0.7);
        assert!(shard.metrics.quarantines == 1);
        assert!(shard.metrics.quarantined_frames > 0);
        // Repair: clear the faults and the same traffic now lands, so the
        // EWMA climbs back over the recovery threshold.
        shard.set_faults(Vec::new());
        assert_eq!(shard.metrics.faults_active, 0);
        let mut frames = 0;
        while shard.is_quarantined() {
            assert!(frames < 100, "health monitor never recovered");
            for &src in &dead {
                shard.accept(Message::new(src as u64, src, vec![1]));
            }
            shard.run_frame();
            frames += 1;
        }
        assert!(shard.health() > 0.85);
        assert_eq!(shard.metrics.quarantines, 1, "no re-entry after recovery");
    }

    #[test]
    fn install_switch_serves_wider_traffic_and_clears_faults() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        shard.set_faults(vec![ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        }]);
        shard.accept(Message::new(1, 1, vec![0x5A]));
        shard.drain(100);
        let bigger = Arc::new(
            RevsortSwitch::new(64, 16, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        shard.install_switch(Arc::clone(&bigger));
        assert!(Arc::ptr_eq(shard.switch(), &bigger));
        assert!(shard.active_faults().is_empty());
        assert_eq!(shard.metrics.faults_active, 0);
        assert_eq!(shard.health(), 1.0);
        // Sources beyond the old n = 16 route on the new switch, payloads
        // intact through the freshly compiled datapath.
        for src in [3usize, 17, 45] {
            shard.accept(Message::new(src as u64, src, vec![0xC0 | src as u8]));
        }
        let run = shard.run_frame();
        assert_eq!(run.delivered.len(), 3);
        for d in &run.delivered {
            assert_eq!(d.message.payload[0], 0xC0 | d.message.source as u8);
        }
    }

    #[test]
    #[should_panic(expected = "empty pending queue")]
    fn install_with_old_epoch_backlog_is_refused() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        shard.accept(Message::new(1, 1, vec![1]));
        shard.install_switch(test_switch());
    }

    #[test]
    #[should_panic(expected = "cover the old input range")]
    fn install_of_a_narrower_switch_is_refused() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        let narrower = Arc::new(
            RevsortSwitch::new(4, 4, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        shard.install_switch(narrower);
    }
}

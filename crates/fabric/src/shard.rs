//! One serving shard: a pending-request queue in front of one switch
//! instance, with a batching executor that packs requests into routing
//! frames and transports every payload through the switch's *compiled*
//! gate-level datapath: its [`ChipProgram`], one compiled chip per chip
//! type swept across each stage's chips as lanes. Payloads go onto the
//! wire LSB-first, one bit per clock, so 64 payload cycles are one *lane
//! word*: the little-endian word of eight payload octets. Each input's
//! data-rail word is loaded straight from its payload, and each routed
//! output's word is written straight back out as octets.
//!
//! The switch fixes its electrical paths from the valid bits in the setup
//! cycle, and payload bits never steer routing. So frames that are
//! already routed can share one compiled-datapath sweep.
//! [`Shard::run_frames`] routes frames back to back — pack, route, winner
//! bookkeeping, requeue or drop, exactly as one frame alone — while its
//! caller's backlog stays small: the routed winners so far plus everything
//! still pending fit in one frame's `m` outputs, the batch holds fewer
//! than eight lane words, and the caller has nothing newer to take in.
//! Every (frame, payload word) pair is then one lane word of a single
//! 64/256/512-lane group sweep, and deliveries are assembled frame by
//! frame. [`Shard::run_frame`] is the one-frame case.
//!
//! All shards of a fabric share one [`StagedSwitch`] (the switches are
//! stateless combinational logic), so the compile step runs **once**
//! through the switch's `concentrator::elab` cache and every shard holds
//! the same `Arc<ChipProgram>`; what is per-shard is the mutable state:
//! the pending queue, the sweep scratch, the lane buffers, the frame
//! scratch reused across frames, and the metrics. A shard with injected
//! chip faults owns a faulted chip program instead: the same compiled
//! chips behind gathers that lower the faults
//! ([`StagedSwitch::faulted_program`]), swept the same way.

use std::collections::VecDeque;
use std::sync::Arc;

use concentrator::faults::{ChipFault, FaultySwitch};
use concentrator::spec::{ConcentratorKind, ConcentratorSwitch};
use concentrator::{ChipProgram, ChipScratch, StagedSwitch};
use netlist::{lane_group, WORD_BITS};
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

/// Lane words one shared sweep may gather before the batch closes: the
/// widest lane group the emulator's kernels run (8 × 64 = 512 lanes).
const MAX_LANE_WORDS: usize = 8;

/// Lanes of lane word `w` that carry payload cycles of a frame `cycles`
/// cycles long.
fn lane_mask(cycles: usize, w: usize) -> u64 {
    let lanes = (cycles - w * WORD_BITS).min(WORD_BITS);
    if lanes == WORD_BITS {
        !0u64
    } else {
        (1u64 << lanes) - 1
    }
}

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameRun {
    /// The messages offered to the switch this frame (≤ 1 per input wire).
    pub offered: Vec<Message>,
    /// Deliveries completed this frame.
    pub delivered: Vec<Delivery>,
    /// Messages dropped this frame after exhausting their retry budget.
    pub dropped: Vec<Message>,
}

/// A routed winner whose payload still waits for the shared sweep.
#[derive(Debug)]
struct Winner {
    output: usize,
    message: Message,
    waited: u64,
}

/// A frame of the current batch: routed, its offers and drops known, its
/// deliveries waiting for the shared sweep.
#[derive(Debug)]
struct Routed {
    run: FrameRun,
    /// First lane word of the frame's payload cycles.
    lane: usize,
    /// Payload cycles: the longest packed payload, in bits.
    cycles: usize,
    /// The frame's entries in `Shard::winners`, which hold the batch's
    /// winners in frame order.
    winners: usize,
}

/// A shard: pending queue + compiled-datapath batch executor + metrics.
pub struct Shard {
    id: usize,
    switch: Arc<StagedSwitch>,
    program: Arc<ChipProgram>,
    scratch: ChipScratch,
    /// Lane words of the current batch, grown to the widest group swept:
    /// lane word `l` is the one-word input block
    /// `word_in[l * inputs..(l + 1) * inputs]` (valid rail, then data
    /// rail), and its outputs are `word_out[l * outputs..]`.
    word_in: Vec<u64>,
    word_out: Vec<u64>,
    /// Frame scratch, reused across frames: each input wire's index into
    /// `batch` (or [`NO_TICKET`]), the setup valid bits, and the tickets
    /// packed this frame.
    slot_of: Vec<u32>,
    valid: Vec<bool>,
    batch: Vec<Option<Ticket>>,
    /// Batch scratch, reused across batches: the routed frames, their
    /// winners in frame order, and one winner's arrived octets.
    routed: Vec<Routed>,
    winners: Vec<Winner>,
    received: Vec<u8>,
    pending: VecDeque<Ticket>,
    retry: RetryBudget,
    /// Frames this shard has executed (its local clock).
    clock: u64,
    /// The message-level router of the injected chip faults, when any
    /// (see [`Shard::set_faults`]); `program` then lowers the same faults.
    fault: Option<FaultySwitch>,
    health: HealthPolicy,
    /// Delivery-health EWMA against the analytic capacity bound.
    health_ewma: f64,
    quarantined: bool,
    /// Counters; public so the engine/service can fold in queue-side
    /// events (rejections, sheds) that never reach the shard proper.
    pub metrics: ShardMetrics,
}

impl Shard {
    /// Create shard `id` over the shared `switch`. The chip program comes
    /// from the switch's shared cache: the first shard pays the compile,
    /// the rest reuse it.
    pub fn new(id: usize, switch: Arc<StagedSwitch>, retry: RetryBudget) -> Shard {
        let program = switch.datapath_program();
        let scratch = program.scratch();
        let n = switch.n;
        let metrics = ShardMetrics {
            health_milli: 1000,
            ..ShardMetrics::default()
        };
        Shard {
            id,
            switch,
            program,
            scratch,
            word_in: Vec::new(),
            word_out: Vec::new(),
            slot_of: vec![NO_TICKET; n],
            valid: vec![false; n],
            batch: Vec::new(),
            routed: Vec::new(),
            winners: Vec::new(),
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

    /// Inject (or, with an empty set, clear) chip faults. Routing goes
    /// through the message-level [`FaultySwitch`] reference and payload
    /// transport through [`StagedSwitch::faulted_program`]: the shared
    /// chip program's compiled chips behind gathers that lower the faults,
    /// owned by this shard, so the shared cache stays healthy.
    ///
    /// # Panics
    /// If a fault names a stage or chip the switch does not have.
    pub fn set_faults(&mut self, faults: Vec<ChipFault>) {
        self.metrics.faults_active = faults.len() as u64;
        if faults.is_empty() {
            self.program = self.switch.datapath_program();
            self.fault = None;
            return;
        }
        self.program = Arc::new(self.switch.faulted_program(&faults));
        self.fault = Some(FaultySwitch::new(Arc::clone(&self.switch), faults));
    }

    /// The chip faults currently injected (empty when healthy).
    pub fn active_faults(&self) -> &[ChipFault] {
        self.fault.as_ref().map_or(&[], |f| f.faults())
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
    /// Installing clears any injected faults: they were lowered onto the
    /// *old* topology, and swapping in a freshly compiled switch is
    /// exactly how a quarantined shard is repaired. Health history
    /// likewise judged the old switch, so the EWMA restarts trusted and
    /// the existing hysteresis re-quarantines the shard only if the new
    /// switch underperforms.
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
        let program = switch.datapath_program();
        self.scratch = program.scratch();
        self.word_in.clear();
        self.word_out.clear();
        self.slot_of = vec![NO_TICKET; switch.n];
        self.valid = vec![false; switch.n];
        self.program = program;
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

    /// Run one routing frame: pack pending messages onto free input wires
    /// (FIFO, at most one per wire), route, transport every payload
    /// through the compiled datapath, deliver winners, and re-queue or
    /// drop congestion losers per the retry budget.
    ///
    /// A shard with nothing pending executes nothing and returns an empty
    /// run (frames and sweeps only count real work).
    pub fn run_frame(&mut self) -> FrameRun {
        let mut run = FrameRun::default();
        self.run_frames(|| false, |frame| run = frame);
        run
    }

    /// Run one or more routing frames with one shared payload sweep,
    /// handing one [`FrameRun`] per frame to `emit`, oldest first.
    ///
    /// Frames are routed back to back, each exactly as [`Shard::run_frame`]
    /// routes it alone, so deliveries, drops, requeue order and every
    /// counter but `sweeps` match running them one at a time. After each
    /// frame another is added only while
    ///
    /// * the routed winners so far plus everything still pending fit in
    ///   one frame's `m` outputs, so a batch never delivers more than one
    ///   full frame would and full frames never wait for one another;
    /// * the batch holds fewer than eight lane words (a frame without
    ///   payload cycles counts as one); and
    /// * `more()` says the caller has nothing newer to take in.
    ///
    /// Then every (frame, payload word) pair is one lane word of a
    /// 64/256/512-lane group sweep, and the deliveries are assembled frame
    /// by frame. A shard with nothing pending executes nothing.
    pub fn run_frames(&mut self, mut more: impl FnMut() -> bool, emit: impl FnMut(FrameRun)) {
        if self.pending.is_empty() {
            return;
        }
        let mut lanes = 0;
        let mut budget = 0;
        loop {
            let words = self.route_frame(lanes);
            lanes += words;
            budget += words.max(1);
            if self.pending.is_empty()
                || self.winners.len() + self.pending.len() > self.switch.m
                || budget >= MAX_LANE_WORDS
                || !more()
            {
                break;
            }
        }
        self.sweep_lanes(lanes);
        self.deliver_routed(emit);
    }

    /// Route one frame whose payload words start at lane word `lane`:
    /// pack, route, write the frame's lane words, set its winners aside
    /// for the shared sweep, and requeue or drop its losers. Returns the
    /// frame's lane words.
    fn route_frame(&mut self, lane: usize) -> usize {
        let n = self.switch.n;

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
            Some(faulty) => faulty.route(&self.valid),
            None => self.switch.route(&self.valid),
        };

        // Payload cycles, one lane word per 64: the valid rail holds the
        // frozen setup pattern on every lane, the data rail one payload bit
        // per lane. Payloads go out LSB-first, so lane word `w` of an
        // input is just the little-endian word of its octets `8w..8w + 8`.
        let cycles = self
            .batch
            .iter()
            .flatten()
            .map(|t| t.message.bit_len())
            .max()
            .unwrap_or(0);
        let words = cycles.div_ceil(WORD_BITS);
        let inputs = 2 * n;
        let end = (lane + words) * inputs;
        if self.word_in.len() < end {
            self.word_in.resize(end, 0);
        }
        for w in 0..words {
            let mask = lane_mask(cycles, w);
            let block = &mut self.word_in[(lane + w) * inputs..(lane + w + 1) * inputs];
            let (valid_rail, data_rail) = block.split_at_mut(n);
            for (word, &v) in valid_rail.iter_mut().zip(&self.valid) {
                *word = if v { mask } else { 0 };
            }
            data_rail[..n].fill(0);
            for ticket in self.batch.iter().flatten() {
                let msg = &ticket.message;
                data_rail[msg.source] = lane_word(&msg.payload, w) & mask;
            }
        }

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

        // Winners wait for the sweep; their bookkeeping is done now.
        let mut winners = 0;
        for (out, src) in routing.output_source.iter().enumerate() {
            if let Some(src) = *src {
                let k = std::mem::replace(&mut self.slot_of[src], NO_TICKET);
                let ticket = self.batch[k as usize]
                    .take()
                    .expect("routed inputs carry tickets");
                let waited = self.clock - ticket.born_frame;
                self.metrics.delivered += 1;
                self.metrics.wait_frames.record(waited);
                self.winners.push(Winner {
                    output: out,
                    message: ticket.message,
                    waited,
                });
                winners += 1;
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
        self.update_health(batched as u64, winners as u64);
        self.routed.push(Routed {
            run,
            lane,
            cycles,
            winners,
        });
        words
    }

    /// Sweep lane words `0..lanes` through the chip program; `sweeps`
    /// counts one per [`lane_group`] step over the lane words.
    fn sweep_lanes(&mut self, lanes: usize) {
        let (inputs, outputs) = (2 * self.switch.n, 2 * self.switch.m);
        if self.word_out.len() < lanes * outputs {
            self.word_out.resize(lanes * outputs, 0);
        }
        self.program.sweep(
            &self.word_in[..lanes * inputs],
            lanes,
            &mut self.scratch,
            &mut self.word_out[..lanes * outputs],
        );
        let mut lo = 0;
        while lo < lanes {
            lo += lane_group(lanes - lo);
            self.metrics.sweeps += 1;
        }
    }

    /// Assemble the batch's deliveries frame by frame from the swept lane
    /// words and hand the frames to `emit`, oldest first.
    fn deliver_routed(&mut self, mut emit: impl FnMut(FrameRun)) {
        let m = self.switch.m;
        let outputs = 2 * m;
        let mut winners = self.winners.drain(..);
        for routed in self.routed.drain(..) {
            let mut run = routed.run;
            for winner in winners.by_ref().take(routed.winners) {
                self.received.clear();
                for w in 0..routed.cycles.div_ceil(WORD_BITS) {
                    let mask = lane_mask(routed.cycles, w);
                    let at = (routed.lane + w) * outputs;
                    debug_assert_eq!(
                        self.word_out[at + winner.output] & mask,
                        mask,
                        "routed output {} lost its valid bit in the netlist",
                        winner.output
                    );
                    let data = self.word_out[at + m + winner.output] & mask;
                    self.received.extend_from_slice(&data.to_le_bytes());
                }
                let message = &winner.message;
                let payload = &self.received[..message.payload.len()];
                run.delivered.push(Delivery {
                    shard: self.id,
                    output: winner.output,
                    message: Message::new(message.id, message.source, payload),
                    waited_frames: winner.waited,
                });
            }
            emit(run);
        }
        debug_assert!(winners.next().is_none(), "every winner belongs to a frame");
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
        /// 64-cycle `eval_word_into` of the flat datapath at a time, one
        /// `Vec<bool>` per output, payloads rebuilt by
        /// `Message::payload_from_bits`, fresh per-frame buffers. Under
        /// faults no engine is swept: a real message the [`FaultySwitch`]
        /// routes to an output crossed no faulted pin, so each winner's
        /// bits arrive as sent. `sweeps` counts the frame's lane words under
        /// the lane-group rule: a group of 8 while more than 4 remain, of
        /// 4 while more than 1 remain, else of 1.
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
                Some(faulty) => faulty.route(&valid),
                None => self.switch.route(&valid),
            };

            let cycles = by_input
                .iter()
                .flatten()
                .map(|t| t.message.bit_len())
                .max()
                .unwrap_or(0);
            let mut received: Vec<Vec<bool>> = vec![Vec::with_capacity(cycles); m];
            if self.fault.is_some() {
                for (out, src) in routing.output_source.iter().enumerate() {
                    if let Some(src) = *src {
                        let msg = &by_input[src].as_ref().expect("routed input").message;
                        received[out].extend((0..msg.bit_len()).map(|c| msg.bit(c)));
                    }
                }
            } else {
                // The flat datapath, so the chip program is checked
                // against an engine it does not share.
                let compiled = self.switch.datapath_logic(false).compiled.clone();
                let mut scratch = compiled.scratch();
                let mut word_in = vec![0u64; compiled.input_count()];
                let mut word_out = vec![0u64; compiled.output_count()];
                let mut cycle = 0usize;
                while cycle < cycles {
                    let lanes = (cycles - cycle).min(WORD_BITS);
                    let lane_mask = if lanes == WORD_BITS {
                        !0u64
                    } else {
                        (1u64 << lanes) - 1
                    };
                    for i in 0..n {
                        word_in[i] = if valid[i] { lane_mask } else { 0 };
                        let mut data = 0u64;
                        if let Some(ticket) = &by_input[i] {
                            let msg = &ticket.message;
                            let last = msg.bit_len().min(cycle + lanes);
                            for (lane, c) in (cycle..last).enumerate() {
                                data |= (msg.bit(c) as u64) << lane;
                            }
                        }
                        word_in[n + i] = data;
                    }
                    compiled.eval_word_into(&word_in, &mut scratch, &mut word_out);
                    for (out, src) in routing.output_source.iter().enumerate() {
                        if src.is_some() {
                            let data = word_out[m + out];
                            for lane in 0..lanes {
                                received[out].push(data >> lane & 1 == 1);
                            }
                        }
                    }
                    cycle += lanes;
                }
            }
            let mut words = cycles.div_ceil(WORD_BITS);
            while words > 0 {
                let group = match words {
                    1 => 1,
                    2..=4 => 4,
                    _ => 8,
                };
                words = words.saturating_sub(group);
                self.metrics.sweeps += 1;
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

    /// Route one batch on `batched` (at most `cap` extra frames, and only
    /// as [`Shard::run_frames`] allows), then as many single frames on
    /// `single`, and require the same frames, state and counters — all
    /// but `sweeps`, which sharing may only lower.
    fn assert_same_batch(batched: &mut Shard, single: &mut Shard, cap: usize) {
        let mut runs = Vec::new();
        let mut extra = 0;
        batched.run_frames(
            || {
                extra += 1;
                extra <= cap
            },
            |run| runs.push(run),
        );
        for got in runs {
            let want = single.run_frame();
            assert_eq!(got.offered, want.offered, "offered");
            assert_eq!(got.delivered, want.delivered, "delivered");
            assert_eq!(got.dropped, want.dropped, "dropped");
        }
        assert_eq!(
            batched.pending_order(),
            single.pending_order(),
            "pending order"
        );
        assert!(batched.metrics.sweeps <= single.metrics.sweeps, "sweeps");
        let unswept = |shard: &Shard| ShardMetrics {
            sweeps: 0,
            ..shard.metrics.clone()
        };
        assert_eq!(unswept(batched), unswept(single), "metrics");
        assert_eq!(batched.clock(), single.clock(), "clock");
        assert_eq!(batched.is_quarantined(), single.is_quarantined());
    }

    proptest! {
        #[test]
        fn batched_frames_match_one_at_a_time(
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0usize..16, 0usize..=24, any::<u64>()), 0..24), 0usize..8),
                1..6,
            ),
            faulted in any::<bool>(),
            fault_chip in 0usize..4,
        ) {
            let switch = test_switch();
            let mut batched = Shard::new(0, Arc::clone(&switch), RetryBudget::limited(2));
            let mut single = Shard::new(0, switch, RetryBudget::limited(2));
            if faulted {
                let fault = ChipFault { stage: 0, chip: fault_chip, mode: FaultMode::StuckInvalid };
                batched.set_faults(vec![fault]);
                single.set_faults(vec![fault]);
            }
            let mut id = 0u64;
            for (arrivals, cap) in &rounds {
                for &(source, len, seed) in arrivals {
                    let payload: Vec<u8> =
                        (0..len).map(|b| seed.rotate_left(8 * b as u32 % 64) as u8 ^ b as u8).collect();
                    let msg = Message::new(id, source, payload);
                    batched.accept(msg.clone());
                    single.accept(msg);
                    id += 1;
                }
                assert_same_batch(&mut batched, &mut single, *cap);
            }
            // Drain the backlog batch by batch (the budget bounds it).
            while batched.pending_len() > 0 {
                assert_same_batch(&mut batched, &mut single, usize::MAX);
            }
            prop_assert_eq!(single.pending_len(), 0);
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
        // 9 bytes = 72 cycles: two lane words, the second partial, share
        // one 256-lane group sweep.
        shard.accept(Message::new(2, 9, vec![0x3Cu8; 9]));
        let run = shard.run_frame();
        assert_eq!(run.delivered[0].message.payload, vec![0x3Cu8; 9]);
        assert_eq!(shard.metrics.sweeps, 2);
        // 72 bytes = nine lane words: one 512-lane group, then one 64-lane.
        let long: Vec<u8> = (0..72u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        shard.accept(Message::new(3, 12, long.clone()));
        let run = shard.run_frame();
        assert_eq!(run.delivered[0].message.payload, long);
        assert_eq!(shard.metrics.sweeps, 4);
        // An empty frame needs no sweep at all, nor does an empty payload.
        shard.run_frame();
        shard.accept(Message::new(4, 5, Vec::new()));
        let run = shard.run_frame();
        assert_eq!(run.delivered.len(), 1);
        assert!(run.delivered[0].message.payload.is_empty());
        assert_eq!(shard.metrics.sweeps, 4);
    }

    #[test]
    fn part_empty_frames_share_one_sweep_and_full_ones_do_not_wait() {
        // Three 8-byte messages on one wire: three frames of one delivery
        // each, whose three lane words share one 256-lane sweep.
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        for id in 0..3u64 {
            shard.accept(Message::new(id, 7, vec![id as u8 | 0xE0; 8]));
        }
        let mut runs = Vec::new();
        shard.run_frames(|| true, |run| runs.push(run));
        let ids: Vec<Vec<u64>> = runs
            .iter()
            .map(|run| run.delivered.iter().map(|d| d.message.id).collect())
            .collect();
        assert_eq!(ids, vec![vec![0], vec![1], vec![2]]);
        for (frame, run) in runs.iter().enumerate() {
            assert_eq!(
                run.delivered[0].message.payload,
                vec![frame as u8 | 0xE0; 8]
            );
            assert_eq!(run.delivered[0].waited_frames, frame as u64);
        }
        assert_eq!((shard.metrics.frames, shard.metrics.sweeps), (3, 1));

        // A caller with newer work stops the batch after one frame.
        for id in 3..5u64 {
            shard.accept(Message::new(id, 7, vec![1]));
        }
        runs.clear();
        shard.run_frames(|| false, |run| runs.push(run));
        assert_eq!(runs.len(), 1);
        assert_eq!(shard.pending_len(), 1);
        while shard.pending_len() > 0 {
            shard.run_frame();
        }

        // Sixteen offers on an 8-output switch: the winners plus the
        // requeued losers exceed one frame's outputs, so the frame runs
        // alone.
        for src in 0..16usize {
            shard.accept(Message::new(100 + src as u64, src, vec![src as u8]));
        }
        runs.clear();
        shard.run_frames(|| true, |run| runs.push(run));
        assert_eq!(runs.len(), 1);
        assert!(shard.pending_len() > 0);
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
        while shard.pending_len() > 0 {
            shard.run_frame();
        }
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

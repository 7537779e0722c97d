//! The `tree-zipf` workload: the reference three-tier concentrator tree,
//! driven closed-loop from one thread. After offering each tick through
//! `TierCore::try_submit`, the thread steps every `TierWorker` to
//! quiescence in `(tier, fabric, shard)` order. (`TierService` would
//! start a thread per shard — 76 of them — on a two-core host and so
//! measure the OS scheduler instead of the tree.)

use std::collections::VecDeque;

use fabric::trace::{frames, generate, TraceModel};
use fabric::{Message, SubmitOutcome};
use tiers::{
    reference_tree, tree_ledger, tree_snapshot, TierCore, TierStep, TierSubmit, TierWorker,
};

use crate::measure::{peak_growth_mib, reset_peak_rss, Clock, Span};
use crate::round::{
    fingerprint, offered_ids, reexec_frames, Expected, Kind, Ledger, RecordedFrame, Reexec, Round,
};

/// Leaf fabrics of the reference tree (64 leaves → 8 aggregation
/// fabrics → 4 spines) and its ring capacity at every tier.
const LEAVES: usize = 64;
const QUEUE_CAPACITY: usize = 64;
/// Rounds of worker stepping the drain may take before the tree counts
/// as wedged.
const STEP_LIMIT: u64 = 1 << 20;

const FRAME_SPAN: [&str; 3] = ["tiers.t0.frame", "tiers.t1.frame", "tiers.t2.frame"];
const FORWARD_SPAN: [&str; 3] = ["tiers.t0.forward", "tiers.t1.forward", "tiers.t2.forward"];

#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    /// External sources the zipf population is hashed onto.
    pub sources: usize,
    pub model: TraceModel,
    pub ticks: u64,
    pub size_class: u8,
}

pub struct TreeInputs {
    spec: TreeSpec,
    frames: Vec<(u64, Vec<Message>)>,
    warmup: usize,
    expected: Expected,
}

/// Per-tier observations of a traced pass.
#[derive(Default, Clone)]
struct TierTrace {
    frame_ns: u64,
    frames: u64,
    forward_ns: u64,
    forwards: u64,
    recorded: Vec<RecordedFrame>,
}

#[derive(Default)]
struct TreeTrace {
    submit_ns: u64,
    /// External messages whose first offer found the leaf ring full.
    parked: u64,
    idle_ns: u64,
    held_max: u64,
    tiers: Vec<TierTrace>,
    spans: Vec<Span>,
}

struct Pass {
    start: u64,
    done: u64,
    frame_due: Vec<u64>,
    trace: Option<TreeTrace>,
}

impl TreeInputs {
    pub fn generate(spec: TreeSpec, seed: u64, scale: u64) -> TreeInputs {
        let trace = generate(
            spec.model,
            spec.sources,
            spec.ticks / scale,
            spec.size_class,
            seed,
        );
        let frames = frames(&trace, spec.sources);
        let expected = Expected::new(&frames, trace.len(), 1 << spec.size_class);
        TreeInputs {
            spec,
            warmup: frames.len().div_ceil(10),
            frames,
            expected,
        }
    }

    /// Set up from the topology spec and measure one pass over the whole
    /// trace. A memory round resets the peak-memory mark once the pass's
    /// inputs exist, just before set-up.
    pub fn round(&self, kind: Kind, clock: &Clock) -> Result<Round, String> {
        let mut round = Round::default();
        let pass_frames = self.frames.clone();
        let mut ledger = Ledger::new(self.expected.payloads.len());
        let base_kib = match kind {
            Kind::Memory => Some(reset_peak_rss()?),
            Kind::Timed | Kind::Traced => None,
        };
        let (core, mut workers) = set_up(clock, &mut round);
        let traced = kind == Kind::Traced;
        let pass = self.pass(&core, &mut workers, pass_frames, &mut ledger, traced, clock);
        if let Some(base_kib) = base_kib {
            round.peak_rss_mib = peak_growth_mib(base_kib)?;
        }
        self.settle(&core, &workers, &pass, &ledger, &self.frames, &mut round);
        if let Some(trace) = pass.trace {
            self.trace_layers(
                &core,
                &workers,
                trace,
                &pass.frame_due,
                &ledger,
                clock,
                &mut round,
            );
        }
        Ok(round)
    }

    /// A discarded pass over the first tenth of the trace on its own tree.
    /// Returns its broken checks.
    pub fn warm_up(&self, clock: &Clock) -> Vec<String> {
        let frames = &self.frames[..self.warmup];
        let mut warm = Round::default();
        let mut ledger = Ledger::new(self.expected.payloads.len());
        let (core, mut workers) = set_up(clock, &mut warm);
        let pass = self.pass(
            &core,
            &mut workers,
            frames.to_vec(),
            &mut ledger,
            false,
            clock,
        );
        self.settle(&core, &workers, &pass, &ledger, frames, &mut warm);
        warm.violations
    }

    fn pass(
        &self,
        core: &TierCore,
        workers: &mut [TierWorker],
        frames: Vec<(u64, Vec<Message>)>,
        ledger: &mut Ledger,
        traced: bool,
        clock: &Clock,
    ) -> Pass {
        let depth = core.topology().depth();
        let mut trace = traced.then(|| TreeTrace {
            tiers: vec![TierTrace::default(); depth],
            ..TreeTrace::default()
        });
        let mut done = vec![false; workers.len()];
        let mut parked: VecDeque<(Message, usize, usize)> = VecDeque::new();
        let mut frame_due = vec![0u64; frames.len()];
        let mut stepper = Stepper {
            ledger,
            expected: &self.expected,
            clock,
        };
        let start = clock.now();
        for (index, (_tick, batch)) in frames.into_iter().enumerate() {
            frame_due[index] = clock.now();
            // Closed loop: held-back messages go first, oldest first.
            retry_parked(core, &mut parked, &mut trace, clock);
            for message in batch {
                let t = trace.as_ref().map(|_| clock.now());
                let step = core.try_submit(message);
                let blocked = matches!(step, TierSubmit::Blocked { .. });
                if let (Some(trace), Some(t)) = (trace.as_mut(), t) {
                    trace.submit_ns += clock.now() - t;
                    trace.parked += u64::from(blocked);
                }
                if let TierSubmit::Blocked {
                    message,
                    leaf,
                    shard,
                } = step
                {
                    parked.push_back((message, leaf, shard));
                }
            }
            stepper.step_all(workers, &mut done, &mut trace);
        }
        let mut steps = 0u64;
        while !parked.is_empty() {
            retry_parked(core, &mut parked, &mut trace, clock);
            stepper.step_all(workers, &mut done, &mut trace);
            steps += 1;
            assert!(steps < STEP_LIMIT, "tree wedged with parked producers");
        }
        // Cascaded drain: close a tier once everything upstream is done.
        for tier in 0..depth {
            core.close_tier(tier);
            while workers
                .iter()
                .zip(&done)
                .any(|(w, &d)| w.tier() == tier && !d)
            {
                stepper.step_all(workers, &mut done, &mut trace);
                steps += 1;
                assert!(steps < STEP_LIMIT, "tree wedged while draining tier {tier}");
            }
        }
        Pass {
            start,
            done: clock.now(),
            frame_due,
            trace,
        }
    }

    fn settle(
        &self,
        core: &TierCore,
        workers: &[TierWorker],
        pass: &Pass,
        ledger: &Ledger,
        frames: &[(u64, Vec<Message>)],
        round: &mut Round,
    ) {
        let tree = tree_ledger(core, workers);
        let generated: u64 = frames.iter().map(|(_, b)| b.len() as u64).sum();
        let dropped = tree.rejected + tree.shed + tree.retry_dropped;
        let v = &mut round.violations;
        if !tree.holds() || tree.in_flight != 0 || tree.held != 0 {
            v.push(format!("tree ledger broken at drain: {tree:?}"));
        }
        if tree.offered_external != generated || tree.delivered != generated {
            v.push(format!(
                "tree offered {} and delivered {} of {generated} generated messages",
                tree.offered_external, tree.delivered
            ));
        }
        ledger.check(offered_ids(frames), tree.delivered, dropped, v);
        round.items = tree.delivered;
        round.attempted = tree.offered_external;
        round.failed = dropped;
        round.active_s = (pass.done - pass.start) as f64 * 1e-9;
        let samples = offered_ids(frames)
            .filter(|&id| ledger.count[id as usize] == 1)
            .map(|id| {
                let due = pass.frame_due[self.expected.frame_of[id as usize] as usize];
                ledger.delivered_at[id as usize].saturating_sub(due)
            })
            .collect();
        round.set_latencies(samples);
    }

    #[allow(clippy::too_many_arguments)]
    fn trace_layers(
        &self,
        core: &TierCore,
        workers: &[TierWorker],
        trace: TreeTrace,
        frame_due: &[u64],
        ledger: &Ledger,
        clock: &Clock,
        round: &mut Round,
    ) {
        let snapshot = tree_snapshot(core, workers);
        let topology = core.topology();
        let bits = 8 << self.spec.size_class;
        let delivered = round.items as f64;
        let offered = round.attempted as f64;
        let mut total = Reexec::default();
        let (mut busy_ns, mut tier_delivered, mut sweeps, mut max_pending, mut retries) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let layers = &mut round.layers;
        for (tier, observed) in trace.tiers.iter().enumerate() {
            let reexec = reexec_frames(
                &topology.tiers[tier].switch,
                &observed.recorded,
                bits,
                clock,
            );
            let totals = snapshot.tier_totals(tier);
            let frames = observed.frames.max(1) as f64;
            busy_ns += observed.frame_ns + observed.forward_ns;
            tier_delivered += totals.delivered;
            sweeps += totals.sweeps;
            max_pending = max_pending.max(totals.max_pending);
            retries += totals.retries;
            total.route_ns += reexec.route_ns;
            total.sweep_ns += reexec.sweep_ns;
            total.sweeps += reexec.sweeps;
            let name = |metric: &str| format!("tiers.t{tier}.{metric}");
            layers.insert(name("frame_us"), observed.frame_ns as f64 * 1e-3 / frames);
            layers.insert(name("frames"), observed.frames as f64);
            layers.insert(name("delivered_per_sweep"), totals.deliveries_per_sweep());
            layers.insert(name("max_pending"), totals.max_pending as f64);
            layers.insert(name("route_us"), reexec.route_ns as f64 * 1e-3 / frames);
            layers.insert(
                name("sweep_us"),
                reexec.sweep_ns as f64 * 1e-3 / reexec.sweeps.max(1) as f64,
            );
            if tier + 1 < topology.depth() {
                let forwards = observed.forwards.max(1) as f64;
                layers.insert(
                    name("forward_us"),
                    observed.forward_ns as f64 * 1e-3 / forwards,
                );
                let stalls: u64 = workers
                    .iter()
                    .filter(|w| w.tier() == tier)
                    .map(|w| w.forward_stalls)
                    .sum();
                layers.insert(name("forward_stalls"), stalls as f64);
            }
        }
        let stalls: u64 = workers.iter().map(|w| w.forward_stalls).sum();
        let other_ns = busy_ns as f64 - total.route_ns as f64 - total.sweep_ns as f64;
        layers.insert(
            "pipeline.input_ns_per_item".into(),
            trace.submit_ns as f64 / offered,
        );
        layers.insert(
            "pipeline.control_ns_per_item".into(),
            total.route_ns as f64 / delivered,
        );
        layers.insert(
            "pipeline.datapath_ns_per_item".into(),
            total.sweep_ns as f64 / delivered,
        );
        layers.insert("pipeline.other_ns_per_item".into(), other_ns / delivered);
        layers.insert(
            "pipeline.busy_ns_per_item".into(),
            busy_ns as f64 / delivered,
        );
        layers.insert(
            "netlist.compile.sweep_ns_per_word".into(),
            total.sweep_ns as f64 / total.sweeps as f64,
        );
        layers.insert(
            "netlist.compile.items_per_sweep".into(),
            tier_delivered as f64 / sweeps as f64,
        );
        layers.insert("fabric.shard.max_pending".into(), max_pending as f64);
        layers.insert("fabric.shard.retries".into(), retries as f64);
        layers.insert(
            "fabric.service.parked_frac".into(),
            trace.parked as f64 / offered,
        );
        layers.insert("tiers.link.forward_stalls".into(), stalls as f64);
        layers.insert("tiers.link.held_max".into(), trace.held_max as f64);
        layers.insert("tiers.worker.idle_ns".into(), trace.idle_ns as f64);

        round.spans = trace.spans;
        for id in offered_ids(&self.frames) {
            if ledger.count[id as usize] == 1 {
                round.spans.push(Span {
                    name: "message",
                    start_ns: frame_due[self.expected.frame_of[id as usize] as usize],
                    end_ns: ledger.delivered_at[id as usize],
                    parent: None,
                    id,
                });
            }
        }
    }
}

/// Topology spec to ready to serve, timed into `round`.
fn set_up(clock: &Clock, round: &mut Round) -> (TierCore, Vec<TierWorker>) {
    let t = clock.now();
    let topology = reference_tree(LEAVES, QUEUE_CAPACITY);
    let compile_start = clock.now();
    for spec in &topology.tiers {
        round.insns += spec.switch.datapath_logic(false).compiled.insn_count() as u64;
    }
    round.compile_s = (clock.now() - compile_start) as f64 * 1e-9;
    let core = TierCore::new(topology);
    let workers = core.workers();
    round.setup_s = (clock.now() - t) as f64 * 1e-9;
    (core, workers)
}

/// Re-offer parked external messages whose leaf ring has room again.
fn retry_parked(
    core: &TierCore,
    parked: &mut VecDeque<(Message, usize, usize)>,
    trace: &mut Option<TreeTrace>,
    clock: &Clock,
) {
    for _ in 0..parked.len() {
        let (message, leaf, shard) = parked.pop_front().expect("counted");
        if !core.leaf_would_accept(leaf, shard) {
            parked.push_back((message, leaf, shard));
            continue;
        }
        let t = trace.as_ref().map(|_| clock.now());
        let step = core.retry_submit(message, leaf, shard);
        if let (Some(trace), Some(t)) = (trace.as_mut(), t) {
            trace.submit_ns += clock.now() - t;
        }
        match step {
            TierSubmit::Done(SubmitOutcome::Backpressured(_)) => {
                unreachable!("tier submission never hands back through Done")
            }
            TierSubmit::Done(_) => {}
            TierSubmit::Blocked {
                message,
                leaf,
                shard,
            } => parked.push_back((message, leaf, shard)),
        }
    }
}

struct Stepper<'a> {
    ledger: &'a mut Ledger,
    expected: &'a Expected,
    clock: &'a Clock,
}

impl Stepper<'_> {
    /// Step every unfinished worker until it runs dry, stalls on its
    /// link, or finishes; spine frames' deliveries leave the tree.
    fn step_all(
        &mut self,
        workers: &mut [TierWorker],
        done: &mut [bool],
        trace: &mut Option<TreeTrace>,
    ) {
        for (i, worker) in workers.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            loop {
                let begin = trace.as_ref().map_or(0, |_| self.clock.now());
                let step = worker.step();
                let stop = matches!(
                    step,
                    TierStep::ForwardStalled | TierStep::Idle | TierStep::Done
                );
                if let TierStep::Frame(run) = &step {
                    if worker.is_spine() {
                        let at = self.clock.now();
                        for delivery in &run.delivered {
                            let message = &delivery.message;
                            self.ledger
                                .deliver(message.id, &message.payload, at, self.expected);
                        }
                    }
                }
                if let TierStep::Done = step {
                    done[i] = true;
                }
                if let Some(trace) = trace.as_mut() {
                    let end = self.clock.now();
                    let tier = worker.tier();
                    let observed = &mut trace.tiers[tier];
                    match &step {
                        TierStep::Frame(run) => {
                            observed.frame_ns += end - begin;
                            observed.frames += 1;
                            observed.recorded.push(
                                run.offered
                                    .iter()
                                    .map(|m| (m.source as u32, fingerprint(&m.payload)))
                                    .collect(),
                            );
                            trace.spans.push(Span {
                                name: FRAME_SPAN[tier],
                                start_ns: begin,
                                end_ns: end,
                                parent: None,
                                id: observed.frames,
                            });
                        }
                        TierStep::Forwarded | TierStep::ForwardStalled => {
                            observed.forward_ns += end - begin;
                            observed.forwards += 1;
                            trace.spans.push(Span {
                                name: FORWARD_SPAN[tier],
                                start_ns: begin,
                                end_ns: end,
                                parent: None,
                                id: observed.forwards,
                            });
                        }
                        TierStep::Idle | TierStep::Done => trace.idle_ns += end - begin,
                    }
                    trace.held_max = trace.held_max.max(worker.held());
                }
                if stop {
                    break;
                }
            }
        }
    }
}

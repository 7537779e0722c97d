//! Deterministic simulation of the concentrator *tree*: one seeded
//! cooperative run of a full [`tiers`] topology under the virtual clock.
//!
//! The executor is the tree-shaped sibling of [`crate::sim`] and the
//! seeded schedule over [`TreeDriver`], the run state
//! [`tiers::drive_tree`] steps in a fixed order: every external producer
//! and every [`tiers::TierWorker`] in the tree is a cooperative task;
//! each scheduler step draws one ready task from a [`SplitMix64`] stream
//! seeded by the run's `u64` seed, executes exactly one non-blocking step
//! of it ([`TreeDriver::step_producer`] / [`TreeDriver::step_worker`]),
//! and advances the shared [`VirtualClock`] one tick. Parked producers,
//! the cascaded close and the snapshot are the driver's. The complete
//! run is a pure function of `(scenario, seed)`.
//!
//! Tree-specific machinery on top of the flat executor:
//!
//! * **Stall windows** ([`StallWindow`]) — a whole tier's workers are
//!   withheld from the ready set for a span of virtual time, modelling a
//!   stalled spine (GC pause, slow host, partitioned rack). The oracle
//!   payoff: inter-tier credit exhaustion must propagate *upward* until
//!   external producers feel it at leaf admission, which the run counts
//!   in [`TreeRun::stall_backpressure`].
//! * **Tree fault events** ([`TreeFaultEvent`]) — virtual-time fault
//!   injections addressed by `(tier, fabric, shard)`, driving the
//!   spine-quarantine scenarios.
//! * **End-to-end conservation** — after every tick the whole-tree
//!   ledger ([`tiers::tree_ledger`]) must balance: external offers =
//!   spine deliveries + per-tier drops + in-flight + link holds. A
//!   violation is reported through the flat [`Ledger`] with link holds
//!   folded into `in_flight` (a held message is in flight between
//!   fabrics).
//!
//! The per-frame reference oracle and the analytic capacity bound run on
//! every frame of every tier, exactly as in the flat executor.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use concentrator::clock::{Clock, VirtualClock};
use concentrator::faults::{ChipFault, FaultMode};
use concentrator::verify::SplitMix64;
use concentrator::{FullColumnsortHyperconcentrator, StagedSwitch};
use fabric::{
    Backpressure, Delivery, FabricConfig, HealthPolicy, LoadPlan, Message, RetryBudget,
    SubmitOutcome,
};
use serde_json::{object, ToJson, Value};
use switchsim::TraceModel;
use tiers::{TierSpec, TierStep, TierTopology, TreeDriver, TreeSnapshot};

use crate::oracles::{check_capacity, check_frame, check_lossless, Ledger, Violation};
use crate::scenarios::shared_switch;

/// A fault-set change at a point in virtual time, addressed into the
/// tree: at tick `at_tick`, shard `shard` of fabric `fabric` in tier
/// `tier` gets the complete fault set `faults` (empty = repair).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeFaultEvent {
    /// Virtual tick at which the change is injected.
    pub at_tick: u64,
    /// Target tier.
    pub tier: usize,
    /// Target fabric within the tier.
    pub fabric: usize,
    /// Target shard within the fabric.
    pub shard: usize,
    /// The shard's new complete fault set.
    pub faults: Vec<ChipFault>,
}

/// A span of virtual time during which one tier's workers are withheld
/// from the scheduler entirely — no frames, no forwarding. Producers and
/// every other tier keep running, so the stalled tier's ingress rings
/// fill and the credit handshake must push the pressure up the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// The stalled tier.
    pub tier: usize,
    /// First stalled tick (inclusive).
    pub from_tick: u64,
    /// First tick the tier runs again (exclusive end).
    pub until_tick: u64,
}

impl StallWindow {
    /// Whether the window covers virtual tick `tick`.
    pub fn active(&self, tick: u64) -> bool {
        (self.from_tick..self.until_tick).contains(&tick)
    }
}

/// Everything that defines a simulated tree run except the interleaving
/// seed: the tree analogue of [`crate::sim::Scenario`].
#[derive(Clone)]
pub struct TreeScenario {
    /// Display name (the CLI's `--scenario` key).
    pub name: String,
    /// The tree this run serves.
    pub topology: TierTopology,
    /// Concurrent external producer tasks.
    pub producers: usize,
    /// Per-producer workload (seeded off `plan.seed + producer`).
    pub plan: LoadPlan,
    /// Distinct external source ids each producer draws from; sources
    /// are hashed onto leaf fabrics by [`TierTopology::ingress`].
    pub ingress_sources: usize,
    /// Virtual-time fault schedule, sorted by `at_tick`.
    pub faults: Vec<TreeFaultEvent>,
    /// Optional tier stall window.
    pub stall: Option<StallWindow>,
    /// Whether the scenario guarantees every generated message reaches
    /// the spine (blocking backpressure everywhere, unlimited retries,
    /// no faults) — enables the delivery-set equivalence oracle.
    pub lossless: bool,
    /// Tick budget; exceeding it is a liveness violation.
    pub max_ticks: u64,
}

impl TreeScenario {
    /// # Panics
    /// If the topology is invalid, the fault schedule is unsorted or
    /// names a missing `(tier, fabric, shard)`, or the stall window
    /// names a missing tier — a malformed scenario would make
    /// violations meaningless.
    pub fn validate(&self) {
        self.topology.validate();
        assert!(self.producers > 0, "need at least one producer");
        assert!(self.ingress_sources > 0, "need at least one source");
        assert!(
            self.faults.windows(2).all(|w| w[0].at_tick <= w[1].at_tick),
            "fault schedule must be sorted by tick"
        );
        for event in &self.faults {
            let spec = self
                .topology
                .tiers
                .get(event.tier)
                .expect("fault event names a missing tier");
            assert!(
                event.fabric < spec.fabrics && event.shard < spec.config.shards,
                "fault event names a missing fabric or shard"
            );
        }
        if let Some(stall) = &self.stall {
            assert!(
                stall.tier < self.topology.depth(),
                "stall window names a missing tier"
            );
            assert!(stall.from_tick < stall.until_tick, "empty stall window");
        }
    }
}

/// The complete, deterministic record of one simulated tree run.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRun {
    /// Scenario name.
    pub scenario: String,
    /// Interleaving seed.
    pub seed: u64,
    /// Drain-time tree snapshot (queue counters folded in once).
    pub snapshot: TreeSnapshot,
    /// Every spine delivery, in completion order.
    pub completions: Vec<Delivery>,
    /// Oracle violations observed (empty = the run passed).
    pub violations: Vec<Violation>,
    /// Virtual ticks executed.
    pub ticks: u64,
    /// Routing frames executed, across every tier.
    pub frames: u64,
    /// Leaf-admission backpressure events (parks, rejections, sheds)
    /// observed *while the stall window was active* — the witness that a
    /// stalled downstream tier propagated credit exhaustion all the way
    /// to external admission.
    pub stall_backpressure: u64,
    /// Quarantine-flag transitions to *on*, anywhere in the tree.
    pub quarantines: u64,
}

impl TreeRun {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A ready task the scheduler may step next.
#[derive(Clone, Copy)]
enum Task {
    Producer(usize),
    Worker(usize),
}

/// Fold the tree ledger into the flat conservation [`Ledger`] the
/// violation taxonomy reports: link holds are messages in flight
/// *between* fabrics, so they land in `in_flight`.
fn flatten(ledger: tiers::TreeLedger) -> Ledger {
    Ledger {
        offered: ledger.offered_external,
        delivered: ledger.delivered,
        rejected: ledger.rejected,
        shed: ledger.shed,
        retry_dropped: ledger.retry_dropped,
        in_flight: ledger.in_flight + ledger.held,
    }
}

/// Execute one seeded cooperative run of `scenario` over the whole
/// tree. Never panics on an oracle violation — failures land in
/// [`TreeRun::violations`] so the explorer can report them with the
/// seed.
pub fn run_tree_scenario(scenario: &TreeScenario, seed: u64) -> TreeRun {
    scenario.validate();
    let scripts: Vec<Vec<(u64, Vec<Message>)>> = (0..scenario.producers)
        .map(|p| scenario.plan.frames(scenario.ingress_sources, p))
        .collect();
    let mut expected_lossless: HashMap<u64, Vec<u8>> = HashMap::new();
    if scenario.lossless {
        for message in scripts.iter().flatten().flat_map(|(_, frame)| frame) {
            expected_lossless.insert(message.id, message.payload.as_ref().to_vec());
        }
    }
    let mut driver = TreeDriver::new(scenario.topology.clone(), scripts);
    let clock = VirtualClock::new();
    let mut rng = SplitMix64(seed);
    let mut quarantine_flags = vec![false; driver.workers().len()];

    let mut violations: Vec<Violation> = Vec::new();
    let mut completions: Vec<Delivery> = Vec::new();
    let mut frames = 0u64;
    let mut stall_backpressure = 0u64;
    let mut quarantines = 0u64;
    let mut next_fault = 0usize;

    loop {
        let tick = clock.now();
        if tick >= scenario.max_ticks {
            violations.push(Violation::TickLimit { tick });
            break;
        }

        // Virtual-time fault schedule: every event due by now fires,
        // deterministically, before the scheduler draws.
        while next_fault < scenario.faults.len() && scenario.faults[next_fault].at_tick <= tick {
            let event = &scenario.faults[next_fault];
            driver
                .core()
                .core(event.tier, event.fabric)
                .inject_faults(event.shard, event.faults.clone());
            next_fault += 1;
        }

        let stalled = |tier: usize| -> bool {
            scenario
                .stall
                .is_some_and(|s| s.tier == tier && s.active(tick))
        };

        driver.close_drained_tiers();

        // Readiness, in fixed task order (determinism): producers first,
        // then every worker in `(tier, fabric, shard)` order — minus the
        // stalled tier.
        let mut ready: Vec<Task> = (0..scenario.producers)
            .filter(|&p| driver.producer_ready(p))
            .map(Task::Producer)
            .collect();
        for (w, worker) in driver.workers().iter().enumerate() {
            if !stalled(worker.tier()) && worker.ready() {
                ready.push(Task::Worker(w));
            }
        }

        if ready.is_empty() {
            // A stall window may idle the whole tree (everything is
            // waiting on the stalled tier's credit): virtual time passes
            // until the window ends. Only a stall-free empty ready set
            // with unfinished work is a deadlock.
            let stall_holds_work = scenario.stall.is_some_and(|s| {
                s.active(tick)
                    && driver
                        .workers()
                        .iter()
                        .any(|w| w.tier() == s.tier && w.ready())
            });
            if stall_holds_work {
                clock.advance(1);
                continue;
            }
            if !driver.finished() {
                violations.push(Violation::Deadlock {
                    tick,
                    parked_producers: driver.parked_producers(),
                    unfinished_workers: driver.workers().iter().filter(|w| !w.done()).count(),
                });
            }
            break;
        }

        // The seeded draw: the single source of scheduling entropy.
        let choice = ready[(rng.next_u64() % ready.len() as u64) as usize];
        clock.advance(1);
        let in_stall_window = scenario.stall.is_some_and(|s| s.active(tick));

        match choice {
            Task::Producer(p) => {
                let admitted = driver.step_producer(p);
                if in_stall_window && admitted != Some(SubmitOutcome::Accepted) {
                    stall_backpressure += 1;
                }
            }
            Task::Worker(w) => {
                let step = driver.step_worker(w);
                let worker = &driver.workers()[w];
                if let TierStep::Frame(run) = step {
                    frames += 1;
                    let switch = &scenario.topology.tiers[worker.tier()].switch;
                    let shard = worker.shard();
                    if let Some(v) = check_frame(switch, shard.active_faults(), &run, w, tick) {
                        violations.push(v);
                    }
                    if let Some(v) = check_capacity(shard, &run, tick) {
                        violations.push(v);
                    }
                    if worker.is_spine() {
                        completions.extend(run.delivered);
                    }
                    let flag = driver
                        .core()
                        .core(worker.tier(), worker.fabric())
                        .shard_quarantined(worker.shard_id());
                    if flag != quarantine_flags[w] {
                        quarantine_flags[w] = flag;
                        if flag {
                            quarantines += 1;
                        }
                    }
                }
            }
        }

        // End-to-end conservation holds at *every* tick boundary: each
        // scheduled step is atomic, so the tree-wide ledger can never be
        // caught mid-update.
        let ledger = driver.ledger();
        if !ledger.holds() {
            violations.push(Violation::Conservation {
                tick,
                ledger: flatten(ledger),
            });
            break;
        }
    }

    let ledger = driver.ledger();
    let residual = ledger.in_flight + ledger.held;
    if residual != 0 && violations.is_empty() {
        violations.push(Violation::ResidualInFlight {
            in_flight: residual,
        });
    }
    if scenario.lossless && violations.is_empty() {
        if let Some(v) = check_lossless(&expected_lossless, &completions) {
            violations.push(v);
        }
    }

    TreeRun {
        scenario: scenario.name.clone(),
        seed,
        snapshot: driver.snapshot(),
        completions,
        violations,
        ticks: clock.now(),
        frames,
        stall_backpressure,
        quarantines,
    }
}

/// One failing seed of a tree exploration.
#[derive(Debug, Clone)]
pub struct TreeFailureCase {
    /// The seed that failed — `cli sim --scenario <name> --seed <seed>`
    /// replays it.
    pub seed: u64,
    /// Every oracle violation the run produced.
    pub violations: Vec<Violation>,
}

/// The outcome of exploring one tree scenario across many seeds: the
/// tree analogue of [`crate::ExploreReport`].
#[derive(Debug, Clone)]
pub struct TreeExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Interleavings explored.
    pub runs: u64,
    /// Virtual ticks executed across all runs.
    pub ticks: u64,
    /// Routing frames executed across all runs.
    pub frames: u64,
    /// Leaf-admission backpressure events inside stall windows, summed.
    pub stall_backpressure: u64,
    /// Seeds that violated an oracle.
    pub failures: Vec<TreeFailureCase>,
}

impl TreeExploreReport {
    /// Whether every explored interleaving passed every oracle.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl ToJson for TreeExploreReport {
    fn to_json(&self) -> Value {
        object([
            ("scenario", self.scenario.to_json()),
            ("runs", self.runs.to_json()),
            ("ticks", self.ticks.to_json()),
            ("frames", self.frames.to_json()),
            ("stall_backpressure", self.stall_backpressure.to_json()),
            (
                "failures",
                Value::Array(
                    self.failures
                        .iter()
                        .map(|f| {
                            object([
                                ("seed", f.seed.to_json()),
                                (
                                    "violations",
                                    Value::Array(
                                        f.violations
                                            .iter()
                                            .map(|v| format!("{v:?}").to_json())
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run `scenario` under every scheduler seed in `seeds` and collect
/// every failure with its seed.
pub fn explore_tree(
    scenario: &TreeScenario,
    seeds: std::ops::RangeInclusive<u64>,
) -> TreeExploreReport {
    let mut report = TreeExploreReport {
        scenario: scenario.name.clone(),
        runs: seeds.clone().count() as u64,
        ticks: 0,
        frames: 0,
        stall_backpressure: 0,
        failures: Vec::new(),
    };
    for seed in seeds {
        let run = run_tree_scenario(scenario, seed);
        report.ticks += run.ticks;
        report.frames += run.frames;
        report.stall_backpressure += run.stall_backpressure;
        if !run.passed() {
            report.failures.push(TreeFailureCase {
                seed,
                violations: run.violations,
            });
        }
    }
    report
}

/// The spine every tree scenario concentrates onto: a §6 full-Columnsort
/// hyperconcentrator (16 inputs as an 8×2 valid-bit matrix), compiled
/// once per process through the shared elaboration cache.
pub fn tree_spine_switch() -> Arc<StagedSwitch> {
    static SWITCH: OnceLock<Arc<StagedSwitch>> = OnceLock::new();
    Arc::clone(
        SWITCH
            .get_or_init(|| Arc::new(FullColumnsortHyperconcentrator::new(8, 2).staged().clone())),
    )
}

/// Every chip of the spine switch's first stage, dead.
fn dead_spine_first_stage() -> Vec<ChipFault> {
    (0..tree_spine_switch().stages[0].chip_count)
        .map(|chip| ChipFault {
            stage: 0,
            chip,
            mode: FaultMode::StuckInvalid,
        })
        .collect()
}

/// The two-tier base every tree scenario varies: two leaf fabrics on
/// the shared 16→8 Revsort concentrating onto one spine
/// hyperconcentrator, tiny rings, blocking backpressure everywhere.
fn tree_base(name: &str, workload_seed: u64, frames: usize, p: f64) -> TreeScenario {
    let mut leaf_config = FabricConfig::new(1);
    leaf_config.queue_capacity = 2;
    let mut spine_config = FabricConfig::new(1);
    spine_config.queue_capacity = 2;
    TreeScenario {
        name: name.to_string(),
        topology: TierTopology::new(vec![
            TierSpec {
                fabrics: 2,
                switch: shared_switch(),
                config: leaf_config,
            },
            TierSpec {
                fabrics: 1,
                switch: tree_spine_switch(),
                config: spine_config,
            },
        ]),
        producers: 2,
        plan: LoadPlan {
            model: TraceModel::Bernoulli { p },
            size_class: 1,
            seed: workload_seed,
            frames,
        },
        ingress_sources: 32,
        faults: Vec::new(),
        stall: None,
        lossless: false,
        max_ticks: 50_000,
    }
}

/// The spine stalls for the first 400 virtual ticks while producers keep
/// offering: leaf frames fill the uplink holds, the holds starve leaf
/// frame execution, leaf rings fill, and external producers must feel it
/// at admission ([`TreeRun::stall_backpressure`] > 0 — asserted by the
/// harness tests). Blocking backpressure everywhere: once the stall
/// lifts the drain must still be lossless.
pub fn tier_spine_stall() -> TreeScenario {
    let mut s = tree_base("tier-spine-stall", 1101, 3, 0.7);
    s.stall = Some(StallWindow {
        tier: 1,
        from_tick: 0,
        until_tick: 400,
    });
    s.lossless = true;
    s
}

/// Bursty sources against shed-oldest leaves: on/off bursts overflow the
/// capacity-2 leaf rings, every shed must land in the end-to-end ledger,
/// and the spine (still blocking) must deliver whatever survives.
pub fn tier_leaf_burst() -> TreeScenario {
    let mut s = tree_base("tier-leaf-burst", 2202, 4, 0.6);
    s.plan.model = TraceModel::mmpp_from_bursty(0.6, 4.0);
    s.producers = 3;
    s.ingress_sources = 48;
    s.topology.tiers[0].config.backpressure = Backpressure::ShedOldest;
    s.topology.tiers[1].config.queue_capacity = 4;
    s
}

/// Two spine fabrics; mid-run, one spine's first sorting stage dies
/// outright and is repaired only while the tree is already draining.
/// The dead spine must quarantine (health EWMA raised so it resolves
/// within the workload), [`tiers::pick_downstream`] must steer fresh
/// uplink traffic to the healthy spine, and the finite retry budget
/// turns the dead spine's stranded messages into `retry_dropped` — all
/// absorbed by the conservation ledger at every tick.
pub fn tier_spine_quarantine_mid_drain() -> TreeScenario {
    let mut s = tree_base("tier-spine-quarantine-mid-drain", 3303, 3, 0.7);
    s.topology.tiers[1].fabrics = 2;
    s.topology.tiers[1].config.retry = RetryBudget::limited(1);
    s.topology.tiers[1].config.health = HealthPolicy {
        alpha: 0.5,
        ..HealthPolicy::default()
    };
    s.producers = 3;
    s.faults = vec![
        TreeFaultEvent {
            at_tick: 120,
            tier: 1,
            fabric: 0,
            shard: 0,
            faults: dead_spine_first_stage(),
        },
        TreeFaultEvent {
            at_tick: 600,
            tier: 1,
            fabric: 0,
            shard: 0,
            faults: Vec::new(),
        },
    ];
    s
}

/// Every tree scenario, in catalogue order.
pub fn tree_catalogue() -> Vec<TreeScenario> {
    vec![
        tier_spine_stall(),
        tier_leaf_burst(),
        tier_spine_quarantine_mid_drain(),
    ]
}

/// Look a tree scenario up by its CLI name.
pub fn tree_by_name(name: &str) -> Option<TreeScenario> {
    tree_catalogue().into_iter().find(|s| s.name == name)
}

//! The scenario catalogue: the workloads the harness explores.
//!
//! Every scenario serves the same shared 16→8 Revsort partial
//! concentrator (compiled once per process through the switch's shared
//! elaboration cache — [`shared_switch`]) and differs in configuration,
//! workload, and fault schedule:
//!
//! * [`drain_block`] — blocking backpressure over tiny queues, unlimited
//!   retries: the lossless baseline. Producers park and resume; drain
//!   must deliver every generated message bit-exactly.
//! * [`batched_admission`] / [`batched_shed`] — producers submit whole
//!   generation frames through the frame-batched admission path
//!   (`try_submit_batch`), exploring the ring's batched publications
//!   against worker consumption: losslessly under blocking backpressure,
//!   and through the whole-ring-replacement shed path under shed-oldest.
//! * [`drain_shed`] / [`drain_reject`] — the lossy backpressure policies
//!   (plus a global admission cap on the reject variant): conservation
//!   must absorb every shed and rejection at every tick.
//! * [`midrun_fault`] — a chip dies mid-run, the fault set changes shape,
//!   then the chip is repaired while the drain is already underway.
//! * [`flap`] — a flapping fault schedule kills every first-stage chip on
//!   *both* shards, repairs them, and kills them again: quarantine must
//!   engage on both shards (placement falls back to the preferred shard
//!   rather than deadlocking when nowhere is healthy) and recover with
//!   hysteresis once repaired.
//! * [`campaign`] — a seeded [`FaultCampaign`] chaos schedule sampled
//!   through the virtual clock ([`FaultCampaign::faults_at_clock`]):
//!   permanent, intermittent, and transient chip faults land as
//!   virtual-time events.
//!
//! The elastic-control-plane scenarios ([`reconfig_catalogue`]) exercise
//! live reconfiguration (see [`fabric::reconfig`]):
//!
//! * [`resize_under_drain`] — the fabric grows and shrinks (1 → 3 → 4
//!   shards with two removals) under blocking backpressure, losslessly.
//! * [`swap_during_campaign`] — a recompiled 64→16 switch
//!   ([`swap_target_switch`]) replaces the shared switch mid-fault-
//!   campaign under the two-phase epoch handoff.
//! * [`scale_down_while_quarantined`] — the quarantined shard itself is
//!   removed while its backlog cannot deliver.
//! * [`slo_shed_burst`] — an [`SloController`](fabric::SloController)
//!   governs admission against a six-producer burst on the virtual
//!   clock.
//!
//! The trace-driven scenarios ([`trace_catalogue`]) replay
//! [`fabric::trace`] workloads through the batched admission path:
//!
//! * [`trace_replay`] — a seeded MMPP trace played losslessly under
//!   blocking backpressure; every oracle runs over trace-driven load
//!   and every record must arrive bit-exactly.
//! * [`adversarial_trace`] — the `search::epsilon_attack` worst-case
//!   input subset, lowered to a sustained trace through lossy
//!   shed-oldest queues.

use std::sync::{Arc, OnceLock};

use concentrator::clock::VirtualClock;
use concentrator::faults::{CampaignSpec, ChipFault, FaultCampaign, FaultMode};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::{Backpressure, FabricConfig, HealthPolicy, LoadPlan, RetryBudget, SloPolicy};
use switchsim::TraceModel;

use crate::sim::{
    ReconfigAction, Scenario, SimFaultEvent, SimReconfigEvent, SloPlan, TraceWorkload,
};

/// The switch every scenario serves: 16→8 Revsort, two-dimensional
/// layout. Process-wide so its datapath compiles exactly once no matter
/// how many seeds the harness explores.
pub fn shared_switch() -> Arc<StagedSwitch> {
    static SWITCH: OnceLock<Arc<StagedSwitch>> = OnceLock::new();
    Arc::clone(SWITCH.get_or_init(|| {
        Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }))
}

/// The replacement switch the live-swap scenarios install mid-run: a
/// 64→16 Revsort concentrator — four times the input range, so it
/// strictly covers the shared 16→8 switch. Process-wide so its datapath
/// also compiles exactly once.
pub fn swap_target_switch() -> Arc<StagedSwitch> {
    static SWITCH: OnceLock<Arc<StagedSwitch>> = OnceLock::new();
    Arc::clone(SWITCH.get_or_init(|| {
        Arc::new(
            RevsortSwitch::new(64, 16, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }))
}

/// Every first-stage chip of the shared switch, dead: traffic through the
/// shard delivers nothing until repaired.
fn dead_first_stage() -> Vec<ChipFault> {
    (0..4)
        .map(|chip| ChipFault {
            stage: 0,
            chip,
            mode: FaultMode::StuckInvalid,
        })
        .collect()
}

fn base(name: &str, workload_seed: u64, frames: usize, p: f64) -> Scenario {
    let mut config = FabricConfig::new(2);
    config.queue_capacity = 4;
    Scenario {
        name: name.to_string(),
        switch: shared_switch(),
        config,
        producers: 3,
        plan: LoadPlan {
            model: TraceModel::Bernoulli { p },
            size_class: 1,
            seed: workload_seed,
            frames,
        },
        trace: None,
        faults: Vec::new(),
        reconfig: Vec::new(),
        slo: None,
        batched: false,
        lossless: false,
        max_ticks: 50_000,
    }
}

/// Blocking backpressure, unlimited retries, no faults: the lossless
/// drain baseline. Tiny queues force producers to park and resume.
pub fn drain_block() -> Scenario {
    let mut s = base("drain-block", 101, 4, 0.6);
    s.config.queue_capacity = 2;
    s.config.backpressure = Backpressure::Block;
    s.lossless = true;
    s
}

/// Frame-batched admission over tiny queues under blocking backpressure:
/// producers submit whole generation frames through
/// [`ServiceCore::try_submit_batch`](fabric::ServiceCore), so the ring's
/// batched publications, block-reserved round-robin placement, and
/// blocked-suffix hand-backs all interleave with worker consumption.
/// Lossless: every scripted message must still arrive exactly once.
pub fn batched_admission() -> Scenario {
    let mut s = base("batched-admission", 707, 5, 0.7);
    s.config.queue_capacity = 3;
    s.config.backpressure = Backpressure::Block;
    s.batched = true;
    s.lossless = true;
    s
}

/// Frame-batched admission meeting shed-oldest backpressure: overlong
/// frames against capacity-2 rings exercise the whole-ring-replacement
/// shed path (`enqueued` and `shed` both counted in one publication)
/// under every interleaving, with conservation checked each tick.
pub fn batched_shed() -> Scenario {
    let mut s = base("batched-shed", 808, 5, 0.8);
    s.config.queue_capacity = 2;
    s.config.backpressure = Backpressure::ShedOldest;
    s.batched = true;
    s
}

/// Shed-oldest backpressure over tiny queues: heavy load sheds queued
/// messages; conservation must account for each one.
pub fn drain_shed() -> Scenario {
    let mut s = base("drain-shed", 202, 4, 0.7);
    s.config.queue_capacity = 2;
    s.config.backpressure = Backpressure::ShedOldest;
    s
}

/// Reject backpressure plus a global admission cap and a finite retry
/// budget: every refusal path exercised at once.
pub fn drain_reject() -> Scenario {
    let mut s = base("drain-reject", 303, 4, 0.7);
    s.config.queue_capacity = 2;
    s.config.backpressure = Backpressure::Reject;
    s.config.admission_limit = Some(6);
    s.config.retry = RetryBudget::limited(2);
    s
}

/// A chip dies mid-run, the fault changes shape, and the repair lands
/// while the fabric is already draining.
pub fn midrun_fault() -> Scenario {
    let mut s = base("midrun-fault", 404, 6, 0.6);
    s.config.queue_capacity = 8;
    s.config.retry = RetryBudget::limited(1);
    s.faults = vec![
        SimFaultEvent {
            at_tick: 30,
            shard: 0,
            faults: vec![ChipFault {
                stage: 0,
                chip: 0,
                mode: FaultMode::StuckInvalid,
            }],
        },
        SimFaultEvent {
            at_tick: 90,
            shard: 0,
            faults: vec![ChipFault {
                stage: 0,
                chip: 2,
                mode: FaultMode::StuckValid,
            }],
        },
        SimFaultEvent {
            at_tick: 150,
            shard: 0,
            faults: Vec::new(),
        },
    ];
    s
}

/// A flapping fault schedule on *both* shards: kill every first-stage
/// chip, repair, kill again, repair again. Both shards must quarantine
/// (steering falls back to the preferred shard when nowhere is healthy)
/// and recover with hysteresis; the deadlock oracle guards placement.
/// The health EWMA weight is raised so recovery resolves within the
/// workload for every interleaving.
pub fn flap() -> Scenario {
    let mut s = base("flap", 505, 20, 0.8);
    s.config.queue_capacity = 2;
    s.config.retry = RetryBudget::limited(0);
    s.config.health = HealthPolicy {
        alpha: 0.5,
        ..HealthPolicy::default()
    };
    let mut faults = Vec::new();
    for (at_tick, set) in [
        (0u64, dead_first_stage()),
        (140, Vec::new()),
        (280, dead_first_stage()),
        (340, Vec::new()),
    ] {
        for shard in 0..2 {
            faults.push(SimFaultEvent {
                at_tick,
                shard,
                faults: set.clone(),
            });
        }
    }
    s.faults = faults;
    s
}

/// A seeded chaos schedule from [`FaultCampaign`], sampled through the
/// virtual clock: each shard replays its own campaign (seed offset by
/// shard id), with fault-set changes landing as virtual-time events.
pub fn campaign() -> Scenario {
    const TICKS_PER_FRAME: u64 = 24;
    let mut s = base("campaign", 606, 6, 0.6);
    s.config.retry = RetryBudget::limited(1);
    let switch = shared_switch();
    let mut faults = Vec::new();
    for shard in 0..s.config.shards {
        let spec = CampaignSpec {
            seed: 9000 + shard as u64,
            frames: 8,
            permanent_rate: 0.15,
            intermittent_rate: 0.25,
            intermittent_period: 2,
            transient_rate: 0.05,
        };
        let schedule = FaultCampaign::generate(&switch, &spec);
        let mut last: Vec<ChipFault> = Vec::new();
        for frame in 0..spec.frames {
            let probe = VirtualClock::at(frame as u64 * TICKS_PER_FRAME);
            let set = schedule.faults_at_clock(&probe, TICKS_PER_FRAME).to_vec();
            if set != last {
                faults.push(SimFaultEvent {
                    at_tick: frame as u64 * TICKS_PER_FRAME,
                    shard,
                    faults: set.clone(),
                });
                last = set;
            }
        }
    }
    faults.sort_by_key(|e| e.at_tick);
    s.faults = faults;
    s
}

/// The fabric resizes 1 → 3 → 4 shards with two removals riding the
/// drain, under blocking backpressure over tiny rings — lossless: every
/// scripted message must arrive exactly once even though producers park
/// on rings that later close, removed shards drain mid-load, and the
/// conservation ledger is checked at every tick across five epoch
/// boundaries.
pub fn resize_under_drain() -> Scenario {
    let mut s = base("resize-under-drain", 111, 6, 0.6);
    s.config.shards = 1;
    s.config.max_shards = 4;
    s.config.queue_capacity = 2;
    s.config.backpressure = Backpressure::Block;
    s.lossless = true;
    s.reconfig = vec![
        SimReconfigEvent {
            at_tick: 5,
            action: ReconfigAction::AddShard,
        },
        SimReconfigEvent {
            at_tick: 12,
            action: ReconfigAction::AddShard,
        },
        SimReconfigEvent {
            at_tick: 30,
            action: ReconfigAction::RemoveShard { shard: 1 },
        },
        SimReconfigEvent {
            at_tick: 45,
            action: ReconfigAction::AddShard,
        },
        SimReconfigEvent {
            at_tick: 70,
            action: ReconfigAction::RemoveShard { shard: 2 },
        },
    ];
    s
}

/// A live switch swap in the middle of a fault campaign: a chip dies on
/// shard 0, the whole fabric is swapped onto the recompiled 64→16
/// replacement (which clears the injected faults — the recompile *is*
/// the repair), then shard 1 takes a hit on the new switch and is repaired.
/// The per-frame oracle replays every frame against whichever switch the
/// shard had installed at execution time.
pub fn swap_during_campaign() -> Scenario {
    let mut s = base("swap-during-campaign", 222, 8, 0.6);
    s.config.queue_capacity = 8;
    s.config.retry = RetryBudget::limited(1);
    s.faults = vec![
        SimFaultEvent {
            at_tick: 30,
            shard: 0,
            faults: vec![ChipFault {
                stage: 0,
                chip: 0,
                mode: FaultMode::StuckInvalid,
            }],
        },
        SimFaultEvent {
            at_tick: 160,
            shard: 1,
            faults: vec![ChipFault {
                stage: 0,
                chip: 1,
                mode: FaultMode::StuckValid,
            }],
        },
        SimFaultEvent {
            at_tick: 220,
            shard: 1,
            faults: Vec::new(),
        },
    ];
    s.reconfig = vec![SimReconfigEvent {
        at_tick: 100,
        action: ReconfigAction::SwapSwitch {
            switch: swap_target_switch(),
        },
    }];
    s
}

/// Scale-down races quarantine: shard 1's first stage dies at tick 0 and
/// quarantine engages, a third shard joins mid-run, then the *sick* shard
/// is removed — its worker drains a backlog that mostly cannot deliver
/// (bounded retries) and retires, with every drop on the ledger.
pub fn scale_down_while_quarantined() -> Scenario {
    let mut s = base("scale-down-while-quarantined", 333, 8, 0.7);
    s.config.max_shards = 3;
    s.config.retry = RetryBudget::limited(1);
    s.config.health = HealthPolicy {
        alpha: 0.5,
        ..HealthPolicy::default()
    };
    s.faults = vec![SimFaultEvent {
        at_tick: 0,
        shard: 1,
        faults: dead_first_stage(),
    }];
    s.reconfig = vec![
        SimReconfigEvent {
            at_tick: 40,
            action: ReconfigAction::AddShard,
        },
        SimReconfigEvent {
            at_tick: 80,
            action: ReconfigAction::RemoveShard { shard: 1 },
        },
    ];
    s
}

/// A burst (six producers at p = 0.9 against two shards) governed by the
/// SLO controller: every 16 virtual ticks it reads the wait histograms
/// and AIMD-steps the admission limit toward a p99 wait of 1 frame.
/// Admission rejections absorb the overload; conservation holds at every
/// tick and the limit never leaves the policy band.
pub fn slo_shed_burst() -> Scenario {
    let mut s = base("slo-shed-burst", 444, 6, 0.9);
    s.producers = 6;
    s.config.queue_capacity = 8;
    s.config.backpressure = Backpressure::Reject;
    s.slo = Some(SloPlan {
        every_ticks: 16,
        policy: SloPolicy {
            target_p99_wait: 1,
            min_limit: 4,
            max_limit: 64,
            decrease: 0.5,
            increase: 8,
            min_samples: 4,
        },
    });
    s
}

/// Trace replay under every oracle: a seeded MMPP trace (the bursty
/// generalization from [`fabric::trace`]) is lowered to frames and
/// submitted by a single trace-producer through the batched admission
/// path, under blocking backpressure over tiny queues — lossless, so
/// every trace record's message must arrive exactly once, bit-exact,
/// in every interleaving. The same trace the CLI replays from disk.
pub fn trace_replay() -> Scenario {
    let mut s = base("trace-replay", 0, 1, 0.0);
    s.producers = 1;
    s.config.queue_capacity = 3;
    s.config.backpressure = fabric::Backpressure::Block;
    s.lossless = true;
    s.trace = Some(TraceWorkload::full(fabric::trace::generate(
        fabric::TraceModel::mmpp_from_bursty(0.6, 4.0),
        16,
        20,
        1,
        0x7ACE,
    )));
    s
}

/// The ε-attack in the serving path: `search::epsilon_attack` runs
/// against the shared switch once per process, and the discovered
/// worst-case input subset plays as a sustained trace through lossy
/// shed-oldest queues with a bounded retry budget. Conservation and the
/// capacity bound must absorb the adversarial pattern's concentrated
/// contention at every tick; the frame oracle confirms the routed sets
/// against the reference on exactly the attacked wires.
pub fn adversarial_trace() -> Scenario {
    static TRACE: OnceLock<Arc<fabric::Trace>> = OnceLock::new();
    let trace = Arc::clone(TRACE.get_or_init(|| {
        let plan = fabric::AdversarialPlan {
            restarts: 2,
            rounds: 12,
            seed: 0xA77A,
            ticks: 10,
            size_class: 1,
        };
        let (trace, _report) = fabric::adversarial_trace(&shared_switch(), &plan);
        Arc::new(trace)
    }));
    let mut s = base("adversarial-trace", 0, 1, 0.0);
    s.producers = 1;
    s.config.queue_capacity = 4;
    s.config.backpressure = fabric::Backpressure::ShedOldest;
    s.config.retry = RetryBudget::limited(1);
    let limit = trace.len();
    s.trace = Some(TraceWorkload { trace, limit });
    s
}

/// The trace-driven scenarios, in catalogue order.
pub fn trace_catalogue() -> Vec<Scenario> {
    vec![trace_replay(), adversarial_trace()]
}

/// The elastic-control-plane scenarios, in catalogue order.
pub fn reconfig_catalogue() -> Vec<Scenario> {
    vec![
        resize_under_drain(),
        swap_during_campaign(),
        scale_down_while_quarantined(),
        slo_shed_burst(),
    ]
}

/// Every scenario, in catalogue order.
pub fn catalogue() -> Vec<Scenario> {
    let mut all = vec![
        drain_block(),
        batched_admission(),
        batched_shed(),
        drain_shed(),
        drain_reject(),
        midrun_fault(),
        flap(),
        campaign(),
    ];
    all.extend(reconfig_catalogue());
    all.extend(trace_catalogue());
    all
}

/// Look a scenario up by its CLI name.
pub fn by_name(name: &str) -> Option<Scenario> {
    catalogue().into_iter().find(|s| s.name == name)
}

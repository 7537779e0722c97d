//! Integration tests for the fabric serving engine.
//!
//! The load-bearing claims from the subsystem's acceptance criteria:
//!
//! * **Equivalence** — every frame the batching executor runs produces
//!   exactly the deliveries (outputs, payloads) of the single-frame
//!   reference simulator `switchsim::simulate_frame` on the same offered
//!   set.
//! * **Conservation** — `offered = delivered + rejected + shed +
//!   retry_dropped + in_flight` at drain, for all three backpressure
//!   policies, in both the synchronous and the threaded mode.
//! * **Determinism** — two identical synchronous drives produce
//!   bit-identical snapshots and frame streams.
//! * **Batching** — the coalescing executor spends an order of magnitude
//!   fewer compiled sweeps than the one-request-per-sweep baseline.

use std::collections::HashMap;
use std::sync::Arc;

use concentrator::faults::{ChipFault, FaultMode};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::trace::{frames, generate, SourceSpace, Trace, TraceModel, TraceRecord};
use fabric::{
    drive_service, drive_sync, one_per_tick, Backpressure, Fabric, FabricConfig, FabricService,
    FaultEvent, LoadPlan, Message, Placement, RetryBudget,
};
use switchsim::simulate_frame;

fn staged(n: usize, m: usize) -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(n, m, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

/// Each of `producers` producers' frames of `workload` on 16 inputs.
fn producer_frames(workload: &LoadPlan, producers: usize) -> Vec<Vec<(u64, Vec<Message>)>> {
    (0..producers).map(|p| workload.frames(16, p)).collect()
}

fn plan(model: TraceModel, seed: u64, frames: usize) -> LoadPlan {
    LoadPlan {
        model,
        size_class: 1,
        seed,
        frames,
    }
}

/// Every frame a `drive_sync` run hands out must match the
/// single-frame reference simulator delivery-for-delivery: same output
/// wires, same message ids, same reassembled payloads, and the frame's
/// non-winners are exactly the reference's unrouted set.
#[test]
fn batched_frames_match_single_frame_reference() {
    let switch = staged(16, 8);
    let mut config = FabricConfig::new(2);
    config.retry = RetryBudget::limited(2);
    let mut fabric = Fabric::new(Arc::clone(&switch), config);
    let workload = plan(TraceModel::Bernoulli { p: 0.9 }, 11, 40);
    let records = drive_sync(&mut fabric, workload.frames(16, 0), &[]).frames;

    assert!(!records.is_empty(), "the drive must have executed frames");
    for run in &records {
        let reference = simulate_frame(&*switch, &run.offered);
        let mut expected: HashMap<u64, (usize, Vec<u8>)> = reference
            .delivered
            .iter()
            .map(|(out, msg)| (msg.id, (*out, msg.payload.to_vec())))
            .collect();
        assert_eq!(
            run.delivered.len(),
            expected.len(),
            "batched frame delivered a different count than the reference"
        );
        for delivery in &run.delivered {
            let (out, payload) = expected
                .remove(&delivery.message.id)
                .expect("batched path delivered a message the reference did not");
            assert_eq!(delivery.output, out, "output wire mismatch");
            assert_eq!(
                delivery.message.payload.to_vec(),
                payload,
                "payload corrupted through the compiled datapath"
            );
        }
        // Offered minus delivered must be exactly the reference's
        // congestion losers, whether the fabric retried or dropped them.
        let mut losers: Vec<u64> = run
            .offered
            .iter()
            .map(|m| m.id)
            .filter(|id| !run.delivered.iter().any(|d| d.message.id == *id))
            .collect();
        let mut unrouted: Vec<u64> = reference.unrouted.iter().map(|m| m.id).collect();
        losers.sort_unstable();
        unrouted.sort_unstable();
        assert_eq!(losers, unrouted);
    }
}

/// Conservation at drain for every backpressure policy, synchronous mode.
#[test]
fn sync_conservation_for_all_backpressure_policies() {
    for policy in [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ] {
        let mut config = FabricConfig::new(3);
        config.queue_capacity = 4;
        config.backpressure = policy;
        config.retry = RetryBudget::limited(4);
        let mut fabric = Fabric::new(staged(16, 4), config);
        // Full offered load against m = 4 outputs per frame. The bound
        // covers the ingress ring alone (the retry backlog does not
        // count), and each shard's ring takes 5 or 6 of a tick's 16
        // offers, so the per-tick burst fills the rings every tick and
        // every policy's bound actually gets exercised.
        let workload = plan(TraceModel::Bernoulli { p: 1.0 }, 5, 80);
        let report = drive_sync(&mut fabric, workload.frames(16, 0), &[]);
        let totals = report.snapshot.totals();
        assert!(
            report.snapshot.conserved(),
            "{policy:?}: offered {} != delivered {} + dropped {} + in_flight {}",
            totals.offered,
            totals.delivered,
            totals.dropped(),
            report.snapshot.in_flight
        );
        assert_eq!(report.snapshot.in_flight, 0, "{policy:?}: drain left work");
        assert!(totals.delivered > 0, "{policy:?}: nothing delivered");
        match policy {
            Backpressure::ShedOldest => assert!(totals.shed > 0, "shed never triggered"),
            Backpressure::Reject => assert!(totals.rejected > 0, "reject never triggered"),
            Backpressure::Block => assert_eq!(totals.rejected + totals.shed, 0),
        }
    }
}

/// Conservation and payload integrity for the threaded service under all
/// three policies, with concurrent producers.
#[test]
fn service_conservation_for_all_backpressure_policies() {
    for policy in [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ] {
        let mut config = FabricConfig::new(2);
        config.queue_capacity = 16;
        config.backpressure = policy;
        let service = FabricService::start(staged(16, 8), config);
        let workload = plan(TraceModel::Bernoulli { p: 0.7 }, 99, 30);
        let producers = 3;
        // Per-message threaded submission: the batched path has its own
        // test below.
        let generated: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = producer_frames(&workload, producers)
                .into_iter()
                .map(|frames| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut count = 0u64;
                        for message in frames.into_iter().flat_map(|(_, frame)| frame) {
                            count += 1;
                            service.submit(message);
                        }
                        count
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let report = service.drain();
        let totals = report.snapshot.totals();
        assert!(
            report.snapshot.conserved(),
            "{policy:?}: conservation violated: {totals:?}"
        );
        assert_eq!(
            totals.offered, generated,
            "{policy:?}: every generated message must be accounted as offered"
        );
        assert_eq!(
            totals.delivered as usize,
            report.completions.len(),
            "{policy:?}: completion stream disagrees with the counters"
        );

        // Payload integrity end to end: regenerate each producer's traffic
        // and check every delivery against the original payload.
        let mut originals: HashMap<u64, Vec<u8>> = HashMap::new();
        for p in 0..producers as u64 {
            let trace = generate(
                workload.model,
                16,
                workload.frames as u64,
                workload.size_class,
                workload.seed.wrapping_add(p),
            );
            for (_, frame) in frames(&trace, 16) {
                for msg in frame {
                    originals.insert(msg.id | (p << 48), msg.payload.to_vec());
                }
            }
        }
        for delivery in &report.completions {
            let original = originals
                .get(&delivery.message.id)
                .expect("delivered a message nobody generated");
            assert_eq!(
                &delivery.message.payload.to_vec(),
                original,
                "{policy:?}: payload corrupted in flight"
            );
        }
    }
}

/// Two identical synchronous drives are bit-identical: same snapshot
/// (counters *and* histograms) and same frame stream.
#[test]
fn sync_drives_are_deterministic() {
    let make_report = || {
        let mut config = FabricConfig::new(4);
        config.queue_capacity = 12;
        config.backpressure = Backpressure::ShedOldest;
        config.placement = Placement::SourceHash;
        config.retry = RetryBudget::limited(3);
        let mut fabric = Fabric::new(staged(16, 8), config);
        let workload = plan(TraceModel::Bernoulli { p: 1.0 }, 1234, 25);
        drive_sync(&mut fabric, workload.frames(16, 0), &[])
    };
    let a = make_report();
    let b = make_report();
    assert_eq!(a.snapshot, b.snapshot, "snapshots diverged across runs");
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.frames, b.frames);
}

/// The batching claim at integration scale: coalescing n-wide frames must
/// beat the one-request-per-sweep baseline by ≥ 10× in sweeps spent on
/// the same workload (the bench repeats this at n = 1024).
#[test]
fn batched_sweeps_are_an_order_of_magnitude_fewer() {
    let switch = staged(64, 32);
    let workload = LoadPlan {
        model: TraceModel::Bernoulli { p: 0.45 },
        size_class: 3, // 8 bytes, 64 payload cycles: exactly one sweep per frame
        seed: 3,
        frames: 30,
    };
    let mut batched = Fabric::new(Arc::clone(&switch), FabricConfig::new(1));
    let batched_report = drive_sync(&mut batched, workload.frames(64, 0), &[]);
    let mut unbatched = Fabric::new(switch, FabricConfig::new(1));
    let unbatched_report = drive_sync(&mut unbatched, one_per_tick(workload.frames(64, 0)), &[]);

    assert_eq!(
        batched_report.completions().count() as u64,
        batched_report.generated
    );
    assert_eq!(
        unbatched_report.completions().count() as u64,
        unbatched_report.generated
    );
    let batched_sweeps = batched_report.snapshot.totals().sweeps;
    let unbatched_sweeps = unbatched_report.snapshot.totals().sweeps;
    assert!(
        unbatched_sweeps >= 10 * batched_sweeps,
        "batching won only {unbatched_sweeps}/{batched_sweeps} sweeps"
    );
}

/// A mid-run campaign: a whole first-stage chip row dies on shard 0 at
/// frame 12, is repaired at frame 30, and a second shard takes a
/// transient single-chip hit in between.
fn campaign_schedule(switch: &StagedSwitch) -> Vec<FaultEvent> {
    let dead_row: Vec<ChipFault> = (0..switch.stages[0].chip_count)
        .map(|chip| ChipFault {
            stage: 0,
            chip,
            mode: FaultMode::StuckInvalid,
        })
        .collect();
    vec![
        FaultEvent {
            frame: 12,
            shard: 0,
            faults: dead_row,
        },
        FaultEvent {
            frame: 18,
            shard: 1,
            faults: vec![ChipFault {
                stage: 0,
                chip: 1,
                mode: FaultMode::StuckValid,
            }],
        },
        FaultEvent {
            frame: 24,
            shard: 1,
            faults: Vec::new(), // repair
        },
        FaultEvent {
            frame: 30,
            shard: 0,
            faults: Vec::new(), // repair
        },
    ]
}

/// Conservation at drain under a mid-run fault campaign, synchronous
/// mode, for every backpressure policy. Retries must be bounded: a dead
/// column never delivers, so unlimited retry would spin forever.
#[test]
fn sync_conservation_under_faults_for_all_policies() {
    for policy in [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ] {
        let switch = staged(16, 8);
        let mut config = FabricConfig::new(2);
        config.queue_capacity = 8;
        config.backpressure = policy;
        config.retry = RetryBudget::limited(2);
        let mut fabric = Fabric::new(Arc::clone(&switch), config);
        let workload = plan(TraceModel::Bernoulli { p: 0.8 }, 21, 40);
        let schedule = campaign_schedule(&switch);
        let report = drive_sync(&mut fabric, workload.frames(16, 0), &schedule);
        let totals = report.snapshot.totals();
        assert!(
            report.snapshot.conserved(),
            "{policy:?}: conservation violated under faults: {totals:?}"
        );
        assert_eq!(report.snapshot.in_flight, 0, "{policy:?}: drain left work");
        assert!(totals.delivered > 0, "{policy:?}: nothing delivered");
        assert!(
            totals.retry_dropped > 0,
            "{policy:?}: the dead chip row must cost some messages"
        );
    }
}

/// The same faulted campaign is bit-reproducible: schedules key off fixed
/// frames and the synchronous engine is deterministic.
#[test]
fn faulted_sync_drives_are_deterministic() {
    let run = || {
        let switch = staged(16, 8);
        let mut config = FabricConfig::new(2);
        config.retry = RetryBudget::limited(1);
        let mut fabric = Fabric::new(Arc::clone(&switch), config);
        let workload = plan(TraceModel::Bernoulli { p: 0.7 }, 4242, 48);
        let schedule = campaign_schedule(&switch);
        drive_sync(&mut fabric, workload.frames(16, 0), &schedule)
    };
    let a = run();
    let b = run();
    assert_eq!(a.snapshot, b.snapshot, "faulted drives diverged");
    assert_eq!(a.frames, b.frames);
    assert!(a.snapshot.totals().quarantines >= 1, "no quarantine fired");
}

/// A permanent mid-run fault quarantines its shard: health collapses,
/// placement steers new traffic to the healthy shard, and the backlog
/// still drains with exact conservation.
#[test]
fn mid_run_permanent_fault_quarantines_the_shard() {
    let switch = staged(16, 8);
    let mut config = FabricConfig::new(2);
    config.retry = RetryBudget::limited(1);
    let mut fabric = Fabric::new(Arc::clone(&switch), config);
    let workload = plan(TraceModel::Bernoulli { p: 0.8 }, 7, 60);
    let schedule = vec![FaultEvent {
        frame: 10,
        shard: 0,
        faults: (0..switch.stages[0].chip_count)
            .map(|chip| ChipFault {
                stage: 0,
                chip,
                mode: FaultMode::StuckInvalid,
            })
            .collect(),
    }];
    let report = drive_sync(&mut fabric, workload.frames(16, 0), &schedule);
    assert!(report.snapshot.conserved());
    assert!(fabric.shard_quarantined(0), "shard 0 must end quarantined");
    assert!(!fabric.shard_quarantined(1), "shard 1 must stay healthy");
    let sick = &report.snapshot.shards[0];
    let healthy = &report.snapshot.shards[1];
    assert_eq!(sick.quarantines, 1);
    assert!(sick.quarantined_frames > 0);
    assert!(sick.health_milli < 700, "health must reflect the dead row");
    assert!(
        healthy.offered > sick.offered,
        "steering must shift load to the healthy shard ({} vs {})",
        healthy.offered,
        sick.offered
    );
    // Bounded loss: the healthy shard picks up the steered traffic, so
    // losing one shard of two costs far less than half the messages.
    let totals = report.snapshot.totals();
    assert!(
        totals.dropped() * 2 < totals.offered,
        "loss must stay bounded: dropped {} of {}",
        totals.dropped(),
        totals.offered
    );
}

/// Conservation and quarantine through the threaded service: inject a
/// permanent fault mid-run from the control thread, keep producing, then
/// drain gracefully mid-campaign.
#[test]
fn service_conservation_under_mid_run_faults() {
    for policy in [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ] {
        let switch = staged(16, 8);
        let mut config = FabricConfig::new(2);
        config.queue_capacity = 16;
        config.retry = RetryBudget::limited(2);
        config.backpressure = policy;
        let service = FabricService::start(Arc::clone(&switch), config);
        let workload = plan(TraceModel::Bernoulli { p: 0.7 }, 33, 20);
        let before = drive_service(&service, producer_frames(&workload, 2));
        // A chip row dies while the service is live…
        service.inject_faults(
            0,
            (0..switch.stages[0].chip_count)
                .map(|chip| ChipFault {
                    stage: 0,
                    chip,
                    mode: FaultMode::StuckInvalid,
                })
                .collect(),
        );
        // …traffic keeps flowing…
        let after = drive_service(&service, producer_frames(&workload, 2));
        // …and the drain is graceful mid-campaign: workers finish their
        // backlogs through the faulted switch and every message is
        // accounted for.
        let report = service.drain();
        let totals = report.snapshot.totals();
        assert!(
            report.snapshot.conserved(),
            "{policy:?}: conservation violated under live faults: {totals:?}"
        );
        assert_eq!(
            totals.offered,
            before + after,
            "{policy:?}: offered must cover both halves of the campaign"
        );
        assert_eq!(
            totals.delivered as usize,
            report.completions.len(),
            "{policy:?}: completion stream disagrees with the counters"
        );
        assert!(totals.delivered > 0, "{policy:?}: nothing delivered");
        assert_eq!(
            totals.faults_active, switch.stages[0].chip_count as u64,
            "{policy:?}: the injected faults must be visible in metrics"
        );
    }
}

/// `LoadPlan::frames` is the plan's trace lowered by `trace::frames`
/// and tagged: frame `f` sits at tick `f` (empty frames kept), producer
/// `p` plays seed `seed + p`, and its ids carry `p` in the top 16 bits.
#[test]
fn load_plan_frames_are_the_tagged_trace_frames() {
    let workload = plan(TraceModel::Bernoulli { p: 0.1 }, 555, 12);
    let mut empty = 0;
    for producer in 0..3u64 {
        let trace = generate(
            workload.model,
            16,
            workload.frames as u64,
            workload.size_class,
            workload.seed + producer,
        );
        let mut expected: Vec<(u64, Vec<Message>)> = (0..workload.frames as u64)
            .map(|f| (f, Vec::new()))
            .collect();
        for (tick, frame) in frames(&trace, 16) {
            expected[tick as usize].1 = frame
                .into_iter()
                .map(|mut message| {
                    message.id |= producer << 48;
                    message
                })
                .collect();
        }
        empty += expected
            .iter()
            .filter(|(_, frame)| frame.is_empty())
            .count();
        assert_eq!(
            workload.frames(16, producer as usize),
            expected,
            "producer {producer} diverged"
        );
    }
    assert!(empty > 0, "the plan must keep some empty frames");
}

/// Conservation and payload integrity through the frame-batched admission
/// path (`submit_batch`), for every backpressure policy, with concurrent
/// producers — the batched mirror of
/// `service_conservation_for_all_backpressure_policies`.
#[test]
fn service_batched_conservation_for_all_backpressure_policies() {
    for policy in [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ] {
        let mut config = FabricConfig::new(2);
        config.queue_capacity = 16;
        config.backpressure = policy;
        let service = FabricService::start(staged(16, 8), config);
        let workload = plan(TraceModel::Bernoulli { p: 0.7 }, 99, 30);
        let producers = 3;
        let generated = drive_service(&service, producer_frames(&workload, producers));
        let report = service.drain();
        let totals = report.snapshot.totals();
        assert!(
            report.snapshot.conserved(),
            "{policy:?}: conservation violated on the batched path: {totals:?}"
        );
        assert_eq!(
            totals.offered, generated,
            "{policy:?}: every generated message must be accounted as offered"
        );
        assert_eq!(
            totals.delivered as usize,
            report.completions.len(),
            "{policy:?}: completion stream disagrees with the counters"
        );
        assert!(totals.delivered > 0, "{policy:?}: nothing delivered");
        let mut originals: HashMap<u64, Vec<u8>> = HashMap::new();
        for p in 0..producers {
            for (_, frame) in workload.frames(16, p) {
                for msg in frame {
                    originals.insert(msg.id, msg.payload.to_vec());
                }
            }
        }
        for delivery in &report.completions {
            let original = originals
                .get(&delivery.message.id)
                .expect("delivered a message nobody generated");
            assert_eq!(
                &delivery.message.payload.to_vec(),
                original,
                "{policy:?}: payload corrupted through the batched path"
            );
        }
    }
}

/// A live snapshot of a quiescent (but running) service satisfies the
/// conservation identity: workers publish metrics before retiring a
/// frame's in-flight count, so a snapshot observing the gauge at zero
/// sees every completed frame.
#[test]
fn live_snapshot_is_conserved_once_quiescent() {
    let mut config = FabricConfig::new(2);
    config.queue_capacity = 16;
    let service = FabricService::start(staged(16, 8), config);
    let workload = plan(TraceModel::Bernoulli { p: 0.6 }, 77, 10);
    let generated = drive_service(&service, producer_frames(&workload, 2));
    // Producers have joined; spin (no sleeping in tests) until the
    // workers retire the backlog.
    let mut spins = 0u64;
    while service.in_flight() > 0 {
        assert!(spins < 1 << 32, "service failed to quiesce");
        spins += 1;
        std::thread::yield_now();
    }
    let live = service.snapshot();
    assert!(
        live.conserved(),
        "quiescent live snapshot violates conservation: {:?}",
        live.totals()
    );
    assert_eq!(live.totals().offered, generated);
    assert_eq!(live.in_flight, 0);
    // Drain must agree with the quiescent live view on every counter
    // that has settled.
    let report = service.drain();
    assert_eq!(report.snapshot.totals().offered, generated);
    assert_eq!(
        report.snapshot.totals().delivered,
        live.totals().delivered,
        "no new deliveries can appear after quiescence"
    );
}

/// Hotspot traffic under source-hash placement skews load to the shards
/// owning the hot inputs; round-robin spreads the same workload evenly.
/// The workload is a hand-built wire-space trace: wires 0 and 1 offer
/// every tick, and one cold even wire every fourth tick.
#[test]
fn hotspot_traffic_skews_source_hash_placement() {
    let records = (0..200u64)
        .flat_map(|tick| {
            let cold = (tick % 4 == 0).then_some(2 + tick % 14);
            [0, 1]
                .into_iter()
                .chain(cold)
                .map(move |source| TraceRecord {
                    tick,
                    source,
                    size_class: 1,
                })
        })
        .collect();
    let hotspot = Trace::new(SourceSpace::Wire, records).unwrap();
    let run = |placement: Placement| {
        let mut config = FabricConfig::new(4);
        config.placement = placement;
        let mut fabric = Fabric::new(staged(16, 8), config);
        let report = drive_sync(&mut fabric, frames(&hotspot, 16), &[]);
        let offered: Vec<u64> = report.snapshot.shards.iter().map(|s| s.offered).collect();
        (
            offered.iter().copied().max().unwrap(),
            offered.iter().copied().min().unwrap(),
        )
    };
    let (hash_max, _) = run(Placement::SourceHash);
    let (rr_max, rr_min) = run(Placement::RoundRobin);
    // Round-robin is balanced regardless of traffic skew…
    assert!(rr_max - rr_min <= 1, "round robin must stay balanced");
    // …while source hash concentrates the two hot inputs' traffic.
    assert!(
        hash_max > rr_max * 3 / 2,
        "source hash should pile hot traffic onto few shards (max {hash_max} vs rr {rr_max})"
    );
}

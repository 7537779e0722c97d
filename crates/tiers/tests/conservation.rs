//! End-to-end conservation over the full backpressure policy matrix:
//! every leaf×spine combination of Block / ShedOldest / Reject, driven
//! synchronously over 100 workload seeds. The end-to-end identity
//! (`offered_external = delivered + Σ drops + in_flight + held`) must
//! hold at drain for every combination, and the Block×Block column must
//! additionally be lossless.

use std::sync::{Arc, OnceLock};

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::staged::StagedSwitch;
use concentrator::FullColumnsortHyperconcentrator;
use fabric::{Backpressure, FabricConfig, LoadPlan, Message, RetryBudget};
use switchsim::TraceModel;
use tiers::{drive_tree, TierSpec, TierTopology};

fn leaf_switch() -> Arc<StagedSwitch> {
    static SWITCH: OnceLock<Arc<StagedSwitch>> = OnceLock::new();
    Arc::clone(SWITCH.get_or_init(|| {
        Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }))
}

fn spine_switch() -> Arc<StagedSwitch> {
    static SWITCH: OnceLock<Arc<StagedSwitch>> = OnceLock::new();
    Arc::clone(
        SWITCH
            .get_or_init(|| Arc::new(FullColumnsortHyperconcentrator::new(8, 2).staged().clone())),
    )
}

/// `producers` sources playing `plan` over `sources` external ids.
fn producer_frames(
    plan: &LoadPlan,
    producers: usize,
    sources: usize,
) -> Vec<Vec<(u64, Vec<Message>)>> {
    (0..producers).map(|p| plan.frames(sources, p)).collect()
}

fn matrix_topology(leaf_bp: Backpressure, spine_bp: Backpressure) -> TierTopology {
    let mut leaf_config = FabricConfig::new(1);
    leaf_config.queue_capacity = 2;
    leaf_config.backpressure = leaf_bp;
    let mut spine_config = FabricConfig::new(1);
    spine_config.queue_capacity = 2;
    spine_config.backpressure = spine_bp;
    TierTopology::new(vec![
        TierSpec {
            fabrics: 2,
            switch: leaf_switch(),
            config: leaf_config,
        },
        TierSpec {
            fabrics: 1,
            switch: spine_switch(),
            config: spine_config,
        },
    ])
}

#[test]
fn every_backpressure_combination_conserves_over_100_seeds() {
    let policies = [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ];
    for leaf_bp in policies {
        for spine_bp in policies {
            for seed in 0..100u64 {
                let topology = matrix_topology(leaf_bp, spine_bp);
                let plan = LoadPlan {
                    model: TraceModel::Bernoulli { p: 0.7 },
                    size_class: 1,
                    seed,
                    frames: 2,
                };
                let report = drive_tree(&topology, producer_frames(&plan, 2, 32));
                let ledger = report.snapshot.ledger();
                assert!(
                    ledger.holds(),
                    "{leaf_bp:?}x{spine_bp:?} seed {seed}: {ledger:?}"
                );
                assert_eq!(ledger.in_flight, 0, "{leaf_bp:?}x{spine_bp:?} seed {seed}");
                assert_eq!(ledger.held, 0, "{leaf_bp:?}x{spine_bp:?} seed {seed}");
                assert_eq!(
                    report.completions.len() as u64,
                    ledger.delivered,
                    "{leaf_bp:?}x{spine_bp:?} seed {seed}"
                );
                // Fully blocking tiers with unlimited retries are
                // lossless: every generated message reaches the spine.
                if leaf_bp == Backpressure::Block && spine_bp == Backpressure::Block {
                    assert_eq!(
                        ledger.delivered, report.generated,
                        "Block x Block must be lossless (seed {seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn sync_tree_drive_is_deterministic() {
    let topology = matrix_topology(Backpressure::Block, Backpressure::Block);
    let plan = LoadPlan {
        model: TraceModel::ZipfPopulation {
            p: 0.6,
            population: 1_000_000,
            exponent: 1.1,
        },
        size_class: 1,
        seed: 42,
        frames: 3,
    };
    let a = drive_tree(&topology, producer_frames(&plan, 2, 64));
    let b = drive_tree(&topology, producer_frames(&plan, 2, 64));
    assert_eq!(a, b, "same plan, same topology must be bit-identical");
    assert!(a.generated > 0);
}

#[test]
fn trace_driven_tree_conserves_and_replays_bit_identically() {
    let topology = matrix_topology(Backpressure::Block, Backpressure::Block);
    let trace = fabric::trace::generate(
        fabric::TraceModel::mmpp_from_bursty(0.6, 4.0),
        32,
        24,
        1,
        0x7133_57AC,
    );
    let a = drive_tree(&topology, vec![fabric::trace::frames(&trace, 32)]);
    let b = drive_tree(&topology, vec![fabric::trace::frames(&trace, 32)]);
    assert_eq!(a, b, "same trace, same topology must be bit-identical");
    assert_eq!(a.generated, trace.len() as u64, "one offer per record");
    let ledger = a.snapshot.ledger();
    assert!(ledger.holds(), "{ledger:?}");
    assert_eq!(
        ledger.delivered, a.generated,
        "Block x Block trace drive must be lossless"
    );
    // Round-tripping the trace through the binary codec drives the
    // identical tree: replay from a file is replay from memory.
    let decoded =
        fabric::trace::decode(&fabric::trace::encode(&trace, fabric::TraceFlavor::Binary))
            .expect("codec round-trip");
    assert_eq!(
        drive_tree(&topology, vec![fabric::trace::frames(&decoded, 32)]),
        a
    );
}

#[test]
fn limited_retries_surface_as_retry_dropped_in_the_ledger() {
    // Leaves with a tiny output count (16 -> 2 Columnsort chips) so
    // adversarial frames always carry more offers than outputs; with no
    // retry budget every contention loser is dropped at the leaf — and
    // the end-to-end ledger must absorb them as `retry_dropped`.
    let mut topology = matrix_topology(Backpressure::Block, Backpressure::Block);
    topology.tiers[0].switch = Arc::new(
        concentrator::columnsort_switch::ColumnsortSwitch::new(4, 4, 2)
            .staged()
            .clone(),
    );
    topology.tiers[0].config.retry = RetryBudget::limited(0);
    topology.tiers[0].config.queue_capacity = 64;
    topology.tiers[1].config.queue_capacity = 64;
    // Bernoulli (not Adversarial) so the producers' independent seeds
    // spread sources across wires within a round — identical lockstep
    // scripts would pile every offer onto one wire per frame.
    let plan = LoadPlan {
        model: TraceModel::Bernoulli { p: 0.9 },
        size_class: 1,
        seed: 7,
        frames: 2,
    };
    let report = drive_tree(&topology, producer_frames(&plan, 16, 64));
    let ledger = report.snapshot.ledger();
    assert!(ledger.holds(), "{ledger:?}");
    assert!(
        ledger.retry_dropped > 0,
        "overload over 16->2 leaves with no retries must drop: {ledger:?}"
    );
}

/// One drive's pinned figures: `(rounds, generated, per-tier (frames,
/// sweeps, delivered), FNV-1a of the completion (id, output) sequence)`.
type DrivePin = (u64, u64, Vec<(u64, u64, u64)>, u64);

fn drive_pin(report: &tiers::TreeReport) -> DrivePin {
    let per_tier = (0..report.snapshot.tiers.len())
        .map(|tier| {
            let totals = report.snapshot.tier_totals(tier);
            (totals.frames, totals.sweeps, totals.delivered)
        })
        .collect();
    let bytes: Vec<u8> = report
        .completions
        .iter()
        .flat_map(|d| {
            d.message
                .id
                .to_le_bytes()
                .into_iter()
                .chain((d.output as u64).to_le_bytes())
        })
        .collect();
    (
        report.rounds,
        report.generated,
        per_tier,
        fabric::trace::fnv1a(&bytes),
    )
}

/// The synchronous driver's exact output on two fixed workloads: the
/// tier bench's 4-leaf `TierBenchOptions::small()` tree and the
/// Block x Block two-tier tree above. Any change to the schedule, the
/// link's forwarding or the close cascade moves one of these figures.
#[test]
fn sync_tree_drive_outputs_are_pinned() {
    let small = tiers::TierBenchOptions::small();
    let plan = small.plan();
    let bench = drive_tree(
        &tiers::reference_tree(4, small.queue_capacity),
        (0..small.producers)
            .map(|p| plan.frames(small.ingress_sources, p))
            .collect(),
    );
    let two_tier = drive_tree(
        &matrix_topology(Backpressure::Block, Backpressure::Block),
        producer_frames(
            &LoadPlan {
                model: TraceModel::ZipfPopulation {
                    p: 0.6,
                    population: 1_000_000,
                    exponent: 1.1,
                },
                size_class: 1,
                seed: 42,
                frames: 3,
            },
            2,
            64,
        ),
    );
    let expected: [DrivePin; 2] = [
        (
            1053,
            2086,
            vec![(1843, 1821, 2086), (1073, 1051, 2086), (2086, 2086, 2086)],
            0xab54_1f77_ed86_ebd0,
        ),
        (
            74,
            145,
            vec![(110, 107, 145), (76, 73, 145)],
            0x790a_bba8_6dc2_0896,
        ),
    ];
    assert_eq!([drive_pin(&bench), drive_pin(&two_tier)], expected);
}

//! The threaded tree: real threads, real blocking backpressure,
//! cascaded drain — same conservation guarantees as the sync driver.

use std::sync::{Arc, OnceLock};

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::staged::StagedSwitch;
use concentrator::FullColumnsortHyperconcentrator;
use fabric::{FabricConfig, LoadPlan, Message};
use switchsim::TraceModel;
use tiers::{TierService, TierSpec, TierTopology};

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

#[test]
fn threaded_tree_is_lossless_under_blocking_backpressure() {
    let mut leaf_config = FabricConfig::new(2);
    leaf_config.queue_capacity = 4;
    let spine_config = FabricConfig::new(1);
    let topology = TierTopology::new(vec![
        TierSpec {
            fabrics: 2,
            switch: leaf_switch(),
            config: leaf_config,
        },
        TierSpec {
            fabrics: 2,
            switch: spine_switch(),
            config: spine_config,
        },
    ]);
    let service = TierService::start(topology);
    let plan = LoadPlan {
        model: TraceModel::ZipfPopulation {
            p: 0.7,
            population: 500_000,
            exponent: 1.1,
        },
        size_class: 1,
        seed: 21,
        frames: 20,
    };
    let generated: u64 = std::thread::scope(|scope| {
        (0..3)
            .map(|p| {
                let service = &service;
                let plan = &plan;
                scope.spawn(move || {
                    let script: Vec<Message> = plan
                        .frames(256, p)
                        .into_iter()
                        .flat_map(|(_, frame)| frame)
                        .collect();
                    let count = script.len() as u64;
                    for message in script {
                        service.submit(message);
                    }
                    count
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    let report = service.drain();
    let ledger = report.snapshot.ledger();
    assert!(ledger.holds(), "{ledger:?}");
    assert_eq!(ledger.in_flight, 0);
    assert_eq!(ledger.held, 0);
    // Blocking everywhere + unlimited retries: lossless end to end.
    assert_eq!(ledger.delivered, generated, "{ledger:?}");
    assert_eq!(report.completions.len() as u64, generated);
    // Everything the leaves delivered crossed the link.
    assert_eq!(report.forwarded.len(), 1);
    assert_eq!(report.forwarded[0], ledger.delivered);
    // Payload integrity survived two hops of re-framing: ids unique.
    let mut ids: Vec<u64> = report.completions.iter().map(|d| d.message.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, generated, "duplicate or lost ids");
}

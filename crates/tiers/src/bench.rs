//! The reference tier benchmark: a three-tier concentrator tree under
//! zipf-population traffic, measured through the threaded
//! [`TierService`], plus the single-spine baseline the tree is judged
//! against.
//!
//! The geometry scales with the leaf count `L` (a power of two,
//! 2..=64):
//!
//! * **tier 0** — `L` leaf fabrics on a 16→8 Revsort partial
//!   concentrator (one shared elaboration for the whole tier);
//! * **tier 1** — `max(L/8, 1)` aggregation fabrics on a 64→32
//!   Revsort, each leaf owning a contiguous block of its input wires
//!   (frame cost is network-size-fixed regardless of occupancy, so the
//!   aggregation switch is deliberately the *smallest* Revsort that
//!   gives every leaf a port — see `probe_switch_frame_costs`);
//! * **tier 2** — `max(L/16, 2)` spine fabrics on a §6 full-Columnsort
//!   hyperconcentrator (32×4 valid-bit matrix, 128 wires).
//!
//! The workload models a large user population funneling into the tree:
//! each producer plays [`TraceModel::ZipfPopulation`] frames over
//! `ingress_sources` external ids, hashed onto leaves by
//! [`TierTopology::ingress`](crate::TierTopology::ingress).
//!
//! The baseline ([`slowest_single_spine`]) serves the *whole* external
//! workload through one spine fabric standing alone — no leaves, no
//! links, a modulo front end folding the id space onto its wires — and
//! reports the slowest rate observed across the spines. The tree's
//! advantage over that lone spine is *parallelism*: its tiers pipeline
//! and its spines split the load, which needs cores to run on. The
//! report records the host's [`TreeBenchReport::cores`] so the
//! [`TreeBenchReport::tree_beats_slowest_single_spine`] gate is
//! comparable across machines; the CI release smoke asserts it where
//! the host can actually pipeline the tiers (multicore runners). On a
//! single core the tree serializes every tier's sweeps behind one
//! another and the gate is expected to fail — that is the measurement,
//! not a bug.

use std::sync::Arc;
use std::time::Instant;

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::staged::StagedSwitch;
use concentrator::FullColumnsortHyperconcentrator;
use fabric::{drive_service, FabricConfig, FabricService, LoadPlan};
use serde_json::{object, ToJson, Value};
use switchsim::TraceModel;

use crate::service::TierService;
use crate::snapshot::TreeSnapshot;
use crate::topology::{TierSpec, TierTopology};

/// Everything that parameterizes one tier-bench run.
#[derive(Debug, Clone, Copy)]
pub struct TierBenchOptions {
    /// Leaf fabrics (power of two, 2..=64).
    pub leaves: usize,
    /// External producer threads.
    pub producers: usize,
    /// Generation frames per producer.
    pub frames: usize,
    /// Distinct external source ids each producer draws from.
    pub ingress_sources: usize,
    /// Target offered load per source per frame (zipf upper bound).
    pub load: f64,
    /// User population behind the zipf model.
    pub population: u64,
    /// Zipf exponent.
    pub exponent: f64,
    /// Payload size class: every payload is `1 << size_class` bytes.
    pub size_class: u8,
    /// Workload seed.
    pub seed: u64,
    /// Ring capacity at every tier.
    pub queue_capacity: usize,
}

impl TierBenchOptions {
    /// Defaults sized for an interactive run: a 4-leaf tree under a
    /// million-user zipf population.
    pub fn small() -> TierBenchOptions {
        TierBenchOptions {
            leaves: 4,
            producers: 2,
            frames: 12,
            ingress_sources: 256,
            load: 0.6,
            population: 1_000_000,
            exponent: 1.1,
            size_class: 3,
            seed: 0x71E5,
            queue_capacity: 64,
        }
    }

    /// The workload plan this run plays.
    pub fn plan(&self) -> LoadPlan {
        LoadPlan {
            model: TraceModel::ZipfPopulation {
                p: self.load,
                population: self.population,
                exponent: self.exponent,
            },
            size_class: self.size_class,
            seed: self.seed,
            frames: self.frames,
        }
    }
}

/// The shared leaf switch: 16→8 Revsort.
pub fn bench_leaf_switch() -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

/// The shared aggregation switch: 64→32 Revsort — the smallest square
/// Revsort giving all 64 leaves a port, because frame cost scales with
/// the network, not its occupancy.
pub fn bench_mid_switch() -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(64, 32, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

/// The shared spine switch: §6 full-Columnsort hyperconcentrator over a
/// 32×4 valid-bit matrix (128 wires).
pub fn bench_spine_switch() -> Arc<StagedSwitch> {
    Arc::new(FullColumnsortHyperconcentrator::new(32, 4).staged().clone())
}

/// The reference three-tier tree for `leaves` leaf fabrics (see the
/// module docs for the geometry).
///
/// # Panics
/// If `leaves` is not a power of two in `2..=64`.
pub fn reference_tree(leaves: usize, queue_capacity: usize) -> TierTopology {
    assert!(
        leaves.is_power_of_two() && (2..=64).contains(&leaves),
        "leaves must be a power of two in 2..=64, got {leaves}"
    );
    let config = |shards: usize| {
        let mut config = FabricConfig::new(shards);
        config.queue_capacity = queue_capacity;
        config
    };
    TierTopology::new(vec![
        TierSpec {
            fabrics: leaves,
            switch: bench_leaf_switch(),
            config: config(1),
        },
        TierSpec {
            fabrics: (leaves / 8).max(1),
            switch: bench_mid_switch(),
            config: config(1),
        },
        TierSpec {
            fabrics: (leaves / 16).max(2),
            switch: bench_spine_switch(),
            config: config(1),
        },
    ])
}

/// One tier's share of a bench run.
#[derive(Debug, Clone)]
pub struct TierThroughput {
    /// Tier index (0 = leaves).
    pub tier: usize,
    /// Fabrics in the tier.
    pub fabrics: usize,
    /// Messages the tier delivered (onto the next tier's wires, or out
    /// of the tree at the spine).
    pub delivered: u64,
    /// Delivery rate over the run's wall time.
    pub msgs_per_sec: f64,
}

/// The outcome of one threaded tier-bench run.
#[derive(Debug, Clone)]
pub struct TreeBenchReport {
    /// The options the run used.
    pub options: TierBenchOptions,
    /// Host parallelism (`std::thread::available_parallelism`) the run
    /// had. The tree's edge over a lone spine is pipelining tiers and
    /// splitting spines across cores — on one core it serializes and
    /// the gate below is expected to fail, so cross-machine comparisons
    /// must read this first.
    pub cores: usize,
    /// Messages the producers generated.
    pub generated: u64,
    /// Wall-clock seconds for the drive plus cascaded drain.
    pub secs: f64,
    /// End-to-end delivery rate (spine deliveries / secs).
    pub msgs_per_sec: f64,
    /// Fraction of external offers that never reached the spine
    /// (rejected + shed + retry-dropped, over offered).
    pub shed_fraction: f64,
    /// Spine p99 queue wait in frames (bucket floor).
    pub p99_wait_frames: u64,
    /// Whether the p99 landed in the histogram's absorbing bucket.
    pub p99_wait_is_lower_bound: bool,
    /// Per-tier throughput, leaf tier first.
    pub per_tier: Vec<TierThroughput>,
    /// The slowest standalone spine's rate on the same workload shape.
    pub slowest_single_spine_msgs_per_sec: f64,
    /// Drain-time tree snapshot (conserved end to end).
    pub snapshot: TreeSnapshot,
}

impl TreeBenchReport {
    /// The CI release gate: the tree (several spines splitting the load
    /// behind the concentrating tiers) must out-deliver the slowest
    /// single spine serving the workload alone.
    ///
    /// The gate is a *parallel-speedup* claim — the tree does strictly
    /// more total switch work than one spine and wins by pipelining
    /// tiers and splitting spines across cores — so consumers should
    /// only enforce it when [`TreeBenchReport::cores`] is high enough
    /// for that parallelism to exist (the bench binary and CI require
    /// `cores >= 4`). On a single core the serialized tree losing to a
    /// lone spine is the expected, correct measurement.
    pub fn tree_beats_slowest_single_spine(&self) -> bool {
        self.msgs_per_sec >= self.slowest_single_spine_msgs_per_sec
    }
}

impl ToJson for TreeBenchReport {
    fn to_json(&self) -> Value {
        let o = &self.options;
        object([
            ("leaves", (o.leaves as u64).to_json()),
            ("producers", (o.producers as u64).to_json()),
            ("frames", (o.frames as u64).to_json()),
            ("ingress_sources", (o.ingress_sources as u64).to_json()),
            ("offered_load", o.load.to_json()),
            ("population", o.population.to_json()),
            ("exponent", o.exponent.to_json()),
            ("seed", o.seed.to_json()),
            ("cores", (self.cores as u64).to_json()),
            ("generated", self.generated.to_json()),
            ("secs", self.secs.to_json()),
            ("msgs_per_sec", self.msgs_per_sec.to_json()),
            ("shed_fraction", self.shed_fraction.to_json()),
            ("p99_wait_frames", self.p99_wait_frames.to_json()),
            (
                "p99_wait_is_lower_bound",
                Value::Bool(self.p99_wait_is_lower_bound),
            ),
            (
                "per_tier",
                Value::Array(
                    self.per_tier
                        .iter()
                        .map(|t| {
                            object([
                                ("tier", (t.tier as u64).to_json()),
                                ("fabrics", (t.fabrics as u64).to_json()),
                                ("delivered", t.delivered.to_json()),
                                ("msgs_per_sec", t.msgs_per_sec.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slowest_single_spine_msgs_per_sec",
                self.slowest_single_spine_msgs_per_sec.to_json(),
            ),
            (
                "tree_beats_slowest_single_spine",
                Value::Bool(self.tree_beats_slowest_single_spine()),
            ),
            ("snapshot", self.snapshot.to_json()),
        ])
    }
}

/// Serve the bench workload through each spine fabric standing alone (a
/// plain [`FabricService`] on the spine switch, no tree) and return the
/// slowest delivery rate observed.
///
/// Each spine run carries the *whole* external workload by itself: the
/// same zipf plan over the same `ingress_sources` id space, folded onto
/// the spine's `n` input wires by a modulo front end (the only way a
/// lone switch can accept an id space wider than its wires). That fold
/// is exactly what the tree avoids — hot external sources serialize on
/// single wires of the big spine switch, one message per wire per
/// frame, while the tree absorbs the same skew at its cheap leaf
/// switches and hands the spine renamed, concentrated frames.
pub fn slowest_single_spine(options: &TierBenchOptions, spines: usize) -> f64 {
    let switch = bench_spine_switch();
    let mut config = FabricConfig::new(1);
    config.queue_capacity = options.queue_capacity;
    let n = switch.n;
    let plan = options.plan();
    let frames: Vec<_> = (0..options.producers)
        .map(|p| {
            let mut frames = plan.frames(options.ingress_sources, p);
            for message in frames.iter_mut().flat_map(|(_, frame)| frame) {
                message.source %= n;
            }
            frames
        })
        .collect();
    (0..spines.max(1))
        .map(|_| {
            let service = FabricService::start(Arc::clone(&switch), config);
            let producers = frames.clone();
            let started = Instant::now();
            drive_service(&service, producers);
            let report = service.drain();
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                report.snapshot.totals().delivered as f64 / secs
            } else {
                0.0
            }
        })
        .fold(f64::INFINITY, f64::min)
}

/// Run the threaded tier bench: start the reference tree, drive it with
/// `options.producers` real producer threads playing the zipf plan, and
/// drain cascaded. The returned snapshot is asserted conserved.
///
/// # Panics
/// If the drain-time snapshot violates end-to-end conservation.
pub fn run_tree_bench(options: &TierBenchOptions) -> TreeBenchReport {
    let topology = reference_tree(options.leaves, options.queue_capacity);
    let plan = options.plan();
    let service = TierService::start(topology);
    let producers: Vec<_> = (0..options.producers)
        .map(|p| plan.frames(options.ingress_sources, p))
        .collect();
    let started = Instant::now();
    let generated: u64 = std::thread::scope(|scope| {
        producers
            .into_iter()
            .map(|frames| {
                let service = &service;
                scope.spawn(move || {
                    let mut count = 0u64;
                    for (_, frame) in frames {
                        count += frame.len() as u64;
                        service.submit_batch(frame);
                    }
                    count
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("producer panicked"))
            .sum()
    });
    let report = service.drain();
    let secs = started.elapsed().as_secs_f64();
    let snapshot = report.snapshot;
    let ledger = snapshot.ledger();
    assert!(
        ledger.holds(),
        "tier bench violated conservation: {ledger:?}"
    );

    let per_tier = (0..snapshot.tiers.len())
        .map(|tier| {
            let totals = snapshot.tier_totals(tier);
            TierThroughput {
                tier,
                fabrics: snapshot.tiers[tier].len(),
                delivered: totals.delivered,
                msgs_per_sec: if secs > 0.0 {
                    totals.delivered as f64 / secs
                } else {
                    0.0
                },
            }
        })
        .collect();
    let spine = snapshot.tiers.len() - 1;
    let (p99, p99_lb) = snapshot.tier_totals(spine).wait_frames.percentile(99.0);
    let dropped = ledger.rejected + ledger.shed + ledger.retry_dropped;
    let spines = snapshot.tiers[spine].len();
    TreeBenchReport {
        options: *options,
        cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        generated,
        secs,
        msgs_per_sec: if secs > 0.0 {
            ledger.delivered as f64 / secs
        } else {
            0.0
        },
        shed_fraction: if ledger.offered_external > 0 {
            dropped as f64 / ledger.offered_external as f64
        } else {
            0.0
        },
        p99_wait_frames: p99,
        p99_wait_is_lower_bound: p99_lb,
        per_tier,
        slowest_single_spine_msgs_per_sec: slowest_single_spine(options, spines),
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The small reference run conserves, reports coherent per-tier
    /// rates, and carries a positive baseline.
    #[test]
    fn small_tree_bench_is_coherent() {
        let mut options = TierBenchOptions::small();
        options.frames = 4;
        options.ingress_sources = 64;
        let report = run_tree_bench(&options);
        assert!(report.generated > 0);
        assert_eq!(report.per_tier.len(), 3);
        assert_eq!(report.per_tier[0].fabrics, 4);
        assert_eq!(report.per_tier[2].fabrics, 2);
        let ledger = report.snapshot.ledger();
        assert!(ledger.holds(), "{ledger:?}");
        // Blocking everywhere + unlimited retries: the tree is lossless,
        // so the shed fraction is exactly zero.
        assert_eq!(ledger.delivered, report.generated);
        assert!(report.shed_fraction == 0.0, "{}", report.shed_fraction);
        assert!(report.slowest_single_spine_msgs_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&report.shed_fraction));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn reference_tree_rejects_bad_leaf_counts() {
        reference_tree(3, 8);
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use crate::sync::drive_tree;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn probe_switch_frame_costs() {
        use fabric::{drive_sync, Fabric};
        let candidates: Vec<(&str, Arc<StagedSwitch>)> = vec![
            ("revsort 16->8", bench_leaf_switch()),
            ("revsort 64->32", bench_mid_switch()),
            (
                "fullcolumnsort 8x2 (16)",
                Arc::new(FullColumnsortHyperconcentrator::new(8, 2).staged().clone()),
            ),
            (
                "fullcolumnsort 16x4 (64)",
                Arc::new(FullColumnsortHyperconcentrator::new(32, 2).staged().clone()),
            ),
            (
                "fullcolumnsort 64x4 (256)",
                Arc::new(FullColumnsortHyperconcentrator::new(64, 4).staged().clone()),
            ),
            ("fullcolumnsort 32x4 (128)", bench_spine_switch()),
        ];
        for (name, switch) in candidates {
            let n = switch.n;
            let plan = LoadPlan {
                model: TraceModel::Bernoulli { p: 1.0 },
                size_class: 6,
                seed: 7,
                frames: 100,
            };
            let mut fabric = Fabric::new(switch, FabricConfig::new(1));
            let t = Instant::now();
            let report = drive_sync(&mut fabric, plan.frames(n, 0), &[]);
            let secs = t.elapsed().as_secs_f64();
            let totals = report.snapshot.totals();
            eprintln!(
                "{name}: n={n} {} msgs {} frames in {:.3}s = {:.0}us/frame",
                report.generated,
                totals.frames,
                secs,
                1e6 * secs / totals.frames as f64
            );
        }
    }

    #[test]
    #[ignore]
    fn probe_sync_vs_threaded() {
        let options = TierBenchOptions {
            leaves: 64,
            producers: 4,
            frames: 8,
            ingress_sources: 2048,
            load: 0.6,
            population: 2_000_000,
            exponent: 1.4,
            size_class: 6,
            seed: 0x71E5,
            queue_capacity: 64,
        };
        let topology = reference_tree(64, 64);
        let plan = options.plan();
        let t = Instant::now();
        let frames = (0..4).map(|p| plan.frames(2048, p)).collect();
        let report = drive_tree(&topology, frames);
        let secs = t.elapsed().as_secs_f64();
        eprintln!(
            "sync: {} msgs in {:.3}s = {:.0} msgs/s, {} rounds",
            report.generated,
            secs,
            report.generated as f64 / secs,
            report.rounds
        );
        for tier in 0..3 {
            let tt = report.snapshot.tier_totals(tier);
            eprintln!("  tier {tier}: frames {} sweeps {}", tt.frames, tt.sweeps);
        }
    }
}

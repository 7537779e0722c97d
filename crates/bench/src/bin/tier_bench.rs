//! Tier serving bench: the three-tier concentrator tree (64 leaf
//! Revsort fabrics → 8 aggregation Revsort fabrics → 4 §6
//! full-Columnsort spine hyperconcentrators) under a zipf-population
//! workload, measured through the threaded [`tiers::TierService`].
//!
//! Writes `BENCH_tiers.json` at the repository root. Two claims:
//!
//! * the synchronous tree driver is bit-reproducible (the bench drives
//!   a small reference tree twice and asserts identical reports) and
//!   lossless under blocking backpressure;
//! * given enough cores (≥ 4), the 64-leaf tree out-delivers the
//!   slowest single spine serving the whole workload alone — the tree
//!   does more total switch work and wins only by pipelining tiers and
//!   splitting spines across cores, so on narrower hosts the bench
//!   records the measured ratio instead of asserting the gate.
//!
//! Wall-clock rates in the JSON are timing data and vary run to run;
//! the counters (generated, delivered, ledger) are deterministic.

use bench::{banner, bench_header};
use serde_json::{object, ToJson, Value};
use tiers::{drive_tree, reference_tree, run_tree_bench, TierBenchOptions};

fn main() {
    banner(
        "Tier serving: 64-leaf concentrator tree vs a single spine",
        "serving-engine evidence (not a paper artifact)",
    );

    // ---- Determinism: the sync driver on a small tree, twice. --------
    let small = TierBenchOptions::small();
    let topology = reference_tree(4, small.queue_capacity);
    let plan = small.plan();
    let frames: Vec<_> = (0..small.producers)
        .map(|p| plan.frames(small.ingress_sources, p))
        .collect();
    let first = drive_tree(&topology, frames.clone());
    let second = drive_tree(&topology, frames);
    assert_eq!(
        first, second,
        "synchronous tree drives must be bit-reproducible"
    );
    assert!(first.snapshot.conserved_end_to_end());
    let ledger = first.snapshot.ledger();
    assert_eq!(
        ledger.delivered, first.generated,
        "blocking tree must be lossless: {ledger:?}"
    );
    println!(
        "sync determinism: 4-leaf tree, {} msgs, {} rounds, bit-identical twice",
        first.generated, first.rounds
    );

    // ---- The 64-leaf zipf tree, threaded. ----------------------------
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
    let report = run_tree_bench(&options);
    println!(
        "64-leaf tree: {} msgs generated, {:.0} msgs/s end to end ({:.1}% shed)",
        report.generated,
        report.msgs_per_sec,
        100.0 * report.shed_fraction
    );
    for tier in &report.per_tier {
        let totals = report.snapshot.tier_totals(tier.tier);
        println!(
            "  tier {} ({:>2} fabrics): {:>8} delivered, {:>10.0} msgs/s, {} frames, {} sweeps",
            tier.tier,
            tier.fabrics,
            tier.delivered,
            tier.msgs_per_sec,
            totals.frames,
            totals.sweeps
        );
    }
    println!(
        "  slowest single spine alone: {:.0} msgs/s ({} cores available)",
        report.slowest_single_spine_msgs_per_sec, report.cores
    );
    if report.cores >= 4 {
        assert!(
            report.tree_beats_slowest_single_spine(),
            "the 3-tier tree must out-deliver the slowest single spine: tree {:.0} msgs/s vs spine {:.0} msgs/s on {} cores",
            report.msgs_per_sec,
            report.slowest_single_spine_msgs_per_sec,
            report.cores
        );
        println!("  gate: tree beats the slowest single spine");
    } else {
        // The tree does strictly more total switch work than one spine
        // and wins by running its tiers and spines in parallel; with
        // fewer than 4 cores that parallelism does not exist, so the
        // ratio is reported as a measurement rather than asserted.
        println!(
            "  gate: skipped ({} cores < 4) — tree/spine ratio {:.2}",
            report.cores,
            report.msgs_per_sec / report.slowest_single_spine_msgs_per_sec.max(1.0)
        );
    }

    // ---- BENCH_tiers.json -------------------------------------------
    let value = object(bench_header("tiers", false).into_iter().chain([
        (
            "geometry",
            Value::String(
                "64 leaf Revsort 16->8, 8 aggregation Revsort 64->32, \
                 4 spine full-Columnsort 32x4 (128 wires)"
                    .into(),
            ),
        ),
        (
            "workload",
            Value::String(format!(
                "zipf(p = {}, population = {}, s = {}) over {} sources, {} frames x {} producers, seed {:#x}",
                options.load,
                options.population,
                options.exponent,
                options.ingress_sources,
                options.frames,
                options.producers,
                options.seed
            )),
        ),
        (
            "sync_determinism",
            object([
                ("leaves", 4u64.to_json()),
                ("generated", first.generated.to_json()),
                ("rounds", first.rounds.to_json()),
                ("bit_identical", Value::Bool(true)),
                ("lossless", Value::Bool(ledger.delivered == first.generated)),
            ]),
        ),
        ("report", report.to_json()),
    ]));
    let text = format!("{}\n", serde_json::to_string_pretty(&value).unwrap());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tiers.json");
    std::fs::write(path, &text).expect("write BENCH_tiers.json");
    println!("wrote {path}");
}

//! Graceful-drain properties: under every backpressure policy, closing
//! the queues after the offered load ends leaves `in_flight = 0` with the
//! conservation ledger balanced at every tick along the way — across 100
//! seeded interleavings per policy.
//!
//! `ExploreReport::passed()` covers the whole oracle set: per-frame
//! reference equivalence, tick-by-tick conservation, the capacity bound,
//! deadlock/tick-limit liveness, residual in-flight, and (for the
//! blocking policy) bit-exact lossless delivery against the scripted
//! id → payload map.

use simtest::scenarios::{batched_admission, batched_shed, drain_block, drain_reject, drain_shed};
use simtest::{analytic_floor, explore, shared_switch};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=100;

#[test]
fn drain_under_blocking_backpressure_is_lossless() {
    let report = explore(&drain_block(), SEEDS);
    assert_eq!(report.runs, 100);
    assert!(
        report.passed(),
        "failing seeds: {:?}",
        report.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
    assert!(report.frames > 0, "drain ran no frames");
}

#[test]
fn drain_under_shed_oldest_conserves_every_message() {
    let report = explore(&drain_shed(), SEEDS);
    assert_eq!(report.runs, 100);
    assert!(
        report.passed(),
        "failing seeds: {:?}",
        report.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
}

#[test]
fn drain_under_reject_with_admission_cap_conserves_every_message() {
    let report = explore(&drain_reject(), SEEDS);
    assert_eq!(report.runs, 100);
    assert!(
        report.passed(),
        "failing seeds: {:?}",
        report.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
}

#[test]
fn batched_admission_is_lossless_across_interleavings() {
    let report = explore(&batched_admission(), SEEDS);
    assert_eq!(report.runs, 100);
    assert!(
        report.passed(),
        "failing seeds: {:?}",
        report.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
    // The scenario must actually exercise the batched path: whole-frame
    // submissions, and (with capacity-3 rings under blocking
    // backpressure) blocked-suffix hand-backs that later resume.
    let run = simtest::run_scenario(&batched_admission(), 1);
    assert!(run.passed(), "{:?}", run.violations);
    let batches = run
        .trace
        .iter()
        .filter(|e| matches!(e, simtest::TraceEvent::SubmitBatch { .. }))
        .count();
    assert!(batches > 0, "no frame-batched submissions in the trace");
    let handed_back: usize = run
        .trace
        .iter()
        .filter_map(|e| match e {
            simtest::TraceEvent::SubmitBatch { blocked, .. } => Some(*blocked),
            _ => None,
        })
        .sum();
    assert!(
        handed_back > 0,
        "tiny rings never handed back a blocked suffix"
    );
}

#[test]
fn batched_frames_through_shed_rings_conserve_every_message() {
    let report = explore(&batched_shed(), SEEDS);
    assert_eq!(report.runs, 100);
    assert!(
        report.passed(),
        "failing seeds: {:?}",
        report.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
    // Overlong frames against capacity-2 rings must actually shed.
    let run = simtest::run_scenario(&batched_shed(), 1);
    assert!(run.passed(), "{:?}", run.violations);
    assert!(
        run.snapshot.totals().shed > 0,
        "batched shed scenario never shed a message"
    );
}

#[test]
fn lossless_throughput_clears_the_analytic_capacity_floor() {
    // The binomial drop model caps per-frame delivery at ⌊α·m⌋; a
    // lossless run delivers *everything* each producer generated, so its
    // per-generation-frame delivery average must sit at or above that
    // floor. A fabric that silently stopped delivering would fall
    // through it.
    let scenario = drain_block();
    let floor = analytic_floor(&shared_switch(), 0.6);
    assert!(
        floor > 0.0 && floor <= 16.0 * 0.6,
        "floor {floor} implausible"
    );
    for seed in [1u64, 17, 99] {
        let run = simtest::run_scenario(&scenario, seed);
        assert!(run.passed(), "seed {seed}: {:?}", run.violations);
        let generation_frames = (scenario.plan.frames * scenario.producers) as f64;
        let per_frame = run.completions.len() as f64 / generation_frames;
        assert!(
            per_frame >= floor,
            "seed {seed}: delivered {per_frame:.2}/frame, analytic floor {floor:.2}"
        );
    }
}

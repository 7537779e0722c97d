//! Trace-driven scenarios under the full oracle set: replay coverage
//! for the `trace-replay` and `adversarial-trace` catalogue entries,
//! plus shrinker support for the trace dimension (truncate the suffix
//! before touching the schedule).

use std::collections::HashMap;

use simtest::{adversarial_trace, explore, run_scenario, shrink, trace_replay, SimRun};

#[test]
fn trace_replay_passes_every_oracle_across_seeds() {
    let scenario = trace_replay();
    assert!(scenario.lossless);
    let report = explore(&scenario, 0..24);
    assert!(
        report.passed(),
        "trace-replay failures: {:?}",
        report.failures
    );
    assert!(report.frames > 0, "the trace produced no routing frames");
}

#[test]
fn adversarial_trace_passes_every_oracle_across_seeds() {
    let scenario = adversarial_trace();
    let records = scenario.trace.as_ref().expect("trace-driven").records();
    assert!(records > 0, "the attack found no pattern to lower");
    let report = explore(&scenario, 0..24);
    assert!(
        report.passed(),
        "adversarial-trace failures: {:?}",
        report.failures
    );
}

#[test]
fn trace_replay_is_bit_identical_and_lossless() {
    let scenario = trace_replay();
    let workload = scenario.trace.as_ref().expect("trace-driven");
    let reference: HashMap<u64, Vec<u8>> =
        fabric::trace::frames(&workload.effective(), scenario.switch.n)
            .into_iter()
            .flat_map(|(_, frame)| frame)
            .map(|message| (message.id, message.payload.as_ref().to_vec()))
            .collect();
    let a = run_scenario(&scenario, 13);
    let b = run_scenario(&scenario, 13);
    assert_eq!(a.trace, b.trace, "trace replay diverged under seed 13");
    assert_eq!(a.completions, b.completions);
    // Every trace record's message arrives with the payload the trace
    // codec regenerates for its id.
    assert_eq!(a.completions.len(), reference.len());
    for delivery in &a.completions {
        assert_eq!(
            reference.get(&delivery.message.id).map(|p| p.as_slice()),
            Some(delivery.message.payload.as_ref()),
            "payload mismatch for id {}",
            delivery.message.id
        );
    }
}

/// The shrinker reduces the trace dimension first: against a synthetic
/// predicate that only needs a short prefix, the minimal reproducer
/// truncates the trace suffix and converges to a local minimum.
#[test]
fn shrinker_truncates_the_trace_suffix() {
    let scenario = trace_replay();
    let original = scenario.trace.as_ref().unwrap().records();
    let fails = |run: &SimRun| run.frames >= 2;
    assert!(fails(&run_scenario(&scenario, 5)), "predicate must fire");
    let minimal = shrink(&scenario, 5, &fails);
    assert!(fails(&run_scenario(&minimal, 5)), "shrunk run still fails");
    let shrunk = minimal.trace.as_ref().unwrap().records();
    assert!(
        shrunk < original,
        "trace not truncated: {shrunk} of {original} records remain"
    );
    // Local minimality in the trace dimension: halving again loses it.
    let mut smaller = minimal.clone();
    smaller.trace.as_mut().unwrap().limit = shrunk / 2;
    assert!(!fails(&run_scenario(&smaller, 5)));
    // The truncated workload replays exactly like any other scenario.
    let a = run_scenario(&minimal, 5);
    let b = run_scenario(&minimal, 5);
    assert_eq!(a.trace, b.trace, "shrunk trace scenario must replay");
}

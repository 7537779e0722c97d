//! `simtest` — a deterministic simulation harness for the fabric.
//!
//! FoundationDB-style simulation testing for the sharded switch-serving
//! engine: the *same* [`ServiceCore`](fabric::ServiceCore) and
//! [`WorkerCore`](fabric::WorkerCore) the threaded
//! [`FabricService`](fabric::FabricService) runs are executed as
//! cooperative tasks under a [`VirtualClock`](concentrator::VirtualClock)
//! and a seeded scheduler, so every interleaving — producer parks and
//! resumes, frame timing, mid-run chip faults, quarantine flaps,
//! drain-during-campaign — is a pure function of a `u64` seed.
//!
//! * [`sim`] — the executor: [`Scenario`] + seed → [`SimRun`] with a
//!   bit-reproducible [`TraceEvent`] trace.
//! * [`oracles`] — the models every run is checked against: the
//!   message-level per-frame reference simulator, the tick-by-tick
//!   conservation ledger, and the analytic capacity bound.
//! * [`scenarios`] — the catalogue (drain under each backpressure
//!   policy, mid-run faults, quarantine flapping, seeded fault
//!   campaigns).
//! * [`shrink()`] — minimal-reproducer reduction of failing schedules.
//! * [`explore()`] — many-seed exploration with failure shrinking and
//!   JSON reporting; the engine behind `cli sim` and the CI smoke step.
//!
//! The replay contract: any reported failure names a scenario and a
//! seed, and `cli sim --scenario <name> --seed <s> --trace` reproduces
//! the identical trace bit-for-bit.

pub mod explore;
pub mod oracles;
pub mod scenarios;
pub mod shrink;
pub mod sim;
pub mod tree;

pub use explore::{explore, ExploreReport, FailureCase};
pub use oracles::{
    analytic_floor, check_capacity, check_frame, check_lossless, conservation_ledger, Ledger,
    Violation,
};
pub use scenarios::{
    adversarial_trace, batched_admission, batched_shed, by_name, catalogue, reconfig_catalogue,
    resize_under_drain, scale_down_while_quarantined, shared_switch, slo_shed_burst,
    swap_during_campaign, swap_target_switch, trace_catalogue, trace_replay,
};
pub use shrink::shrink;
pub use sim::{
    run_scenario, ReconfigAction, Scenario, SimFaultEvent, SimReconfigEvent, SimRun, SloPlan,
    SubmitKind, TraceEvent, TraceWorkload,
};
pub use tree::{
    explore_tree, run_tree_scenario, tier_leaf_burst, tier_spine_quarantine_mid_drain,
    tier_spine_stall, tree_by_name, tree_catalogue, StallWindow, TreeExploreReport, TreeFaultEvent,
    TreeRun, TreeScenario,
};

/// Parse a regression-seed corpus: one `<scenario-name> <seed>` pair per
/// line, `#` comments and blank lines ignored.
///
/// # Panics
/// If a line is malformed — a silently skipped corpus entry would be a
/// regression test that stopped testing.
pub fn parse_seed_corpus(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut parts = line.split_whitespace();
            let name = parts.next().expect("non-empty line").to_string();
            let seed: u64 = parts
                .next()
                .unwrap_or_else(|| panic!("corpus line missing seed: {line:?}"))
                .parse()
                .unwrap_or_else(|e| panic!("corpus seed unparsable in {line:?}: {e}"));
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            (name, seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parser_accepts_comments_and_rejects_noise() {
        let parsed = parse_seed_corpus("# regression seeds\n\ndrain-block 7\nflap 42\n");
        assert_eq!(
            parsed,
            vec![("drain-block".to_string(), 7), ("flap".to_string(), 42)]
        );
    }
}

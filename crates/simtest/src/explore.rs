//! Seeded interleaving exploration: run a scenario under many scheduler
//! seeds, apply every oracle, and shrink whatever fails.
//!
//! [`explore`] is the harness entry point the tests, the CLI `sim`
//! subcommand, and the CI smoke step share. Every oracle — including
//! the lossless delivery-set oracle, whose expected id → payload map
//! [`run_scenario`] builds from the scenario's own frames — runs inside
//! each seeded run. Failures are shrunk to minimal reproducers
//! ([`crate::shrink()`]) and reported with their seed: `cli sim
//! --scenario <name> --seed <s> --trace` replays the identical run.

use serde_json::{object, ToJson, Value};

use crate::oracles::Violation;
use crate::shrink::shrink;
use crate::sim::{run_scenario, Scenario, SimRun};

/// One failing seed, with its shrunk reproducer's dimensions.
#[derive(Debug, Clone)]
pub struct FailureCase {
    /// The seed that failed — `cli sim --seed <seed>` replays it.
    pub seed: u64,
    /// Every oracle violation the run produced.
    pub violations: Vec<Violation>,
    /// Fault events surviving the shrink (scenario had more).
    pub shrunk_faults: usize,
    /// Reconfiguration events surviving the shrink.
    pub shrunk_reconfig: usize,
    /// Workload frames surviving the shrink.
    pub shrunk_frames: usize,
    /// Producers surviving the shrink.
    pub shrunk_producers: usize,
    /// Trace records surviving the shrink (`None` when the scenario is
    /// not trace-driven).
    pub shrunk_trace_records: Option<usize>,
}

/// The outcome of exploring one scenario across many seeds.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Interleavings explored.
    pub runs: u64,
    /// Virtual ticks executed across all runs.
    pub ticks: u64,
    /// Routing frames executed across all runs.
    pub frames: u64,
    /// Seeds that violated an oracle, with shrunk reproducers.
    pub failures: Vec<FailureCase>,
}

impl ExploreReport {
    /// Whether every explored interleaving passed every oracle.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl ToJson for ExploreReport {
    fn to_json(&self) -> Value {
        object([
            ("scenario", self.scenario.to_json()),
            ("runs", self.runs.to_json()),
            ("ticks", self.ticks.to_json()),
            ("frames", self.frames.to_json()),
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
                                ("shrunk_faults", f.shrunk_faults.to_json()),
                                ("shrunk_reconfig", f.shrunk_reconfig.to_json()),
                                ("shrunk_frames", f.shrunk_frames.to_json()),
                                ("shrunk_producers", f.shrunk_producers.to_json()),
                                (
                                    "shrunk_trace_records",
                                    match f.shrunk_trace_records {
                                        Some(records) => records.to_json(),
                                        None => Value::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run `scenario` under every seed, applying all oracles (the lossless
/// delivery-set oracle included when the scenario declares it), and
/// shrink every failure.
pub fn explore(scenario: &Scenario, seeds: impl IntoIterator<Item = u64>) -> ExploreReport {
    let mut report = ExploreReport {
        scenario: scenario.name.clone(),
        runs: 0,
        ticks: 0,
        frames: 0,
        failures: Vec::new(),
    };
    for seed in seeds {
        let run = run_scenario(scenario, seed);
        report.runs += 1;
        report.ticks += run.ticks;
        report.frames += run.frames;
        if !run.passed() {
            // The lossless oracle travels inside run_scenario, so a plain
            // passed() predicate stays correct for every shrunk candidate
            // (each candidate's expected set is rebuilt from its own
            // frames).
            let minimal = shrink(scenario, seed, &|r: &SimRun| !r.passed());
            report.failures.push(FailureCase {
                seed,
                violations: run.violations,
                shrunk_faults: minimal.faults.len(),
                shrunk_reconfig: minimal.reconfig.len(),
                shrunk_frames: minimal.plan.frames,
                shrunk_producers: minimal.producers,
                shrunk_trace_records: minimal.trace.as_ref().map(|w| w.records()),
            });
        }
    }
    report
}

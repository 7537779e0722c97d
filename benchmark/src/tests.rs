//! Quick-mode runs of every workload with all output checks, and the
//! metric names kept in step with `BENCHMARK.json`.

use std::collections::BTreeSet;

use serde_json::Value;

use crate::measure::Clock;
use crate::round::{Expected, Ledger};
use crate::spec::{workloads, Metric, END_TO_END, PER_LAYER};
use crate::suite::verdict;
use crate::{measure_rounds, per_layer, result_line, violations};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_table_matches(declared: &Value, table: &[Metric], max: usize) {
    let declared_names = names(declared);
    let table_names: Vec<String> = table.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(declared_names, table_names);
    assert!(table.len() <= max, "at most {max} metrics");
    for (entry, metric) in declared.as_array().unwrap().iter().zip(table) {
        assert!(valid_name(metric.name), "{}", metric.name);
        assert_eq!(entry["unit"], metric.unit, "{}", metric.name);
        assert_eq!(entry["better"], metric.better, "{}", metric.name);
    }
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let spec = benchmark_json();
    assert_table_matches(&spec["end_to_end"], &END_TO_END, 16);
    assert_table_matches(&spec["per_layer"], &PER_LAYER, 128);
    let declared: Vec<String> = names(&spec["workloads"]);
    let known: Vec<String> = workloads().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(declared, known);
    for metric in spec["end_to_end"].as_array().unwrap() {
        let bound = metric["bound"].as_f64().expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
    }
}

#[test]
fn every_workload_passes_its_checks_in_quick_mode() {
    let spec = benchmark_json();
    for workload in workloads() {
        let measured = measure_rounds(&workload, 7, 0.0, true, true)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        let broken = violations(&measured);
        assert!(broken.is_empty(), "{}: {broken:?}", workload.name);
        for (trace, declared) in [(false, &spec["end_to_end"]), (true, &spec["per_layer"])] {
            let line = result_line(&measured, trace, true);
            let Value::Object(metrics) = &line["metrics"] else {
                panic!("metrics object");
            };
            let printed: BTreeSet<&String> = metrics.keys().collect();
            let wanted = names(declared);
            assert_eq!(printed, wanted.iter().collect(), "{}", workload.name);
            for (name, metric) in metrics {
                let value = metric["value"].as_f64();
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{}: {name} = {value:?}",
                    workload.name
                );
            }
            assert!(line["attempted"].as_u64().unwrap() >= 1);
            assert_eq!(line["failed"].as_u64(), Some(0), "{}", workload.name);
        }
        if workload.name == "bulk-1024" {
            let layers = per_layer(&measured.traced);
            assert!(layers["fabric.shard.other_us"] >= 0.0, "{layers:?}");
            assert!(layers["fabric.worker.frame_cover"] >= 0.9, "{layers:?}");
            assert_eq!(
                layers["fabric.shard.sweeps_reexecuted"],
                layers["fabric.shard.sweeps"]
            );
        }
    }
}

#[test]
fn the_ledger_flags_duplicates_losses_and_corrupt_payloads() {
    let frames = vec![(
        0u64,
        (0..3u64)
            .map(|id| fabric::Message::new(id, id as usize, fabric::trace::payload_for(id, 1)))
            .collect::<Vec<_>>(),
    )];
    let expected = Expected::new(&frames, 3, 1);
    let clock = Clock::new();
    let mut ledger = Ledger::new(3);
    ledger.deliver(0, &fabric::trace::payload_for(0, 1), clock.now(), &expected);
    ledger.deliver(0, &fabric::trace::payload_for(0, 1), clock.now(), &expected);
    let mut wrong = fabric::trace::payload_for(1, 1);
    wrong[0] ^= 1;
    ledger.deliver(1, &wrong, clock.now(), &expected);
    let mut found = Vec::new();
    ledger.check(crate::round::offered_ids(&frames), 1, 0, &mut found);
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn verdicts_follow_the_pair_and_spread_rules() {
    let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
    let faster = [90.0, 90.5, 89.5, 90.2, 89.8];
    assert_eq!(verdict(&parent, &faster, true, 0.05), "gain");
    assert_eq!(verdict(&faster, &parent, true, 0.05), "regression");
    assert_eq!(verdict(&parent, &parent, true, 0.05), "no change");
    let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
    assert_eq!(verdict(&parent, &noisy, true, 0.05), "unresolved");
}

//! `run`: every workload for several rounds, each (round, workload) in a
//! fresh child process, interleaved round-robin; and `compare`: the
//! per-metric verdicts between two `run` reports.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde_json::{object, ToJson, Value};

use crate::measure::{median, quartiles};
use crate::spec::{workloads, Metric, END_TO_END, PER_LAYER};
use crate::Flags;

/// Run length of one child in `run` unless `--seconds` says otherwise.
const DEFAULT_SECONDS: &str = "30";

/// One child run: `benchmark --workload W ...`, returning its detail and
/// result lines.
fn child(
    workload: &str,
    seed: u64,
    seconds: &str,
    trace: bool,
    extra: &[&str],
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.unwrap_or_default())
            .map_err(|e| format!("{workload}: unreadable output: {e}"))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    if !output.status.success() || result["correct"] != true {
        return Err(format!(
            "{workload} failed its output checks ({})",
            output.status
        ));
    }
    Ok((detail["detail"].clone(), result))
}

fn summary(values: &[f64], metric: &Metric) -> Value {
    let (q1, q3) = quartiles(values);
    object([
        ("unit", metric.unit.to_json()),
        ("better", metric.better.to_json()),
        ("median", median(values).to_json()),
        ("q1", q1.to_json()),
        ("q3", q3.to_json()),
        ("n", (values.len() as u64).to_json()),
        ("values", values.to_vec().to_json()),
    ])
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result["metrics"][name]["value"]
        .as_f64()
        .unwrap_or(f64::NAN)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["quick"])?;
    let seed: u64 = flags.number("seed", None)?;
    let out = flags.require("out")?;
    let rounds: usize = flags.number("rounds", Some(5))?;
    let seconds = flags.get("seconds").unwrap_or(DEFAULT_SECONDS);
    let quick: &[&str] = if flags.has("quick") {
        &["--quick"]
    } else {
        &[]
    };
    let rounds = if flags.has("quick") { 1 } else { rounds.max(1) };
    let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();

    let mut results: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    let mut details: BTreeMap<&str, Vec<Value>> = BTreeMap::new();
    for round in 0..rounds {
        // Rotate the start so no workload always runs first.
        for k in 0..names.len() {
            let name = names[(round + k) % names.len()];
            eprintln!("round {}/{rounds}: {name}", round + 1);
            let (detail, result) = child(name, seed, seconds, false, quick)?;
            results.entry(name).or_default().push(result);
            details.entry(name).or_default().push(detail);
        }
    }

    let mut traced: BTreeMap<&str, (Value, Value)> = BTreeMap::new();
    if let Some(spans) = flags.get("trace") {
        std::fs::write(spans, "").map_err(|e| format!("create {spans}: {e}"))?;
        for &name in &names {
            eprintln!("traced: {name}");
            let mut extra = vec!["--spans", spans];
            extra.extend_from_slice(quick);
            traced.insert(name, child(name, seed, seconds, true, &extra)?);
        }
    }

    let mut report = BTreeMap::new();
    for &name in &names {
        let runs = &results[name];
        let epsilons: Vec<&Value> = details[name]
            .iter()
            .filter_map(|d| d.get("worst_epsilon_by_round"))
            .flat_map(|v| v.as_array().into_iter().flatten())
            .collect();
        if epsilons.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "{name}: worst ε differs between rounds of seed {seed}"
            ));
        }
        let e2e: Vec<(&str, Value)> = END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = runs.iter().map(|r| metric_value(r, m.name)).collect();
                (m.name, summary(&values, m))
            })
            .collect();
        let mut fields = vec![("end_to_end", object(e2e))];
        if let Some((detail, result)) = traced.get(name) {
            let layers: Vec<(&str, Value)> = PER_LAYER
                .iter()
                .map(|m| (m.name, summary(&[metric_value(result, m.name)], m)))
                .collect();
            fields.push(("per_layer", object(layers)));
            fields.push(("traced_detail", detail.clone()));
        }
        fields.push(("detail", details[name].to_json()));
        report.insert(name.to_string(), object(fields));
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let report = object([
        ("seed", seed.to_json()),
        ("rounds", (rounds as u64).to_json()),
        ("seconds_per_run", seconds.to_json()),
        ("cores", (cores as u64).to_json()),
        ("workloads", Value::Object(report)),
    ]);
    std::fs::write(out, report.to_pretty() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    print_report(&report);
    Ok(ExitCode::SUCCESS)
}

fn print_report(report: &Value) {
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>14} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    let Value::Object(workloads) = &report["workloads"] else {
        return;
    };
    for (workload, sections) in workloads {
        for section in ["end_to_end", "per_layer"] {
            let Value::Object(metrics) = &sections[section] else {
                continue;
            };
            for (name, s) in metrics {
                println!(
                    "{:<12} {:<34} {:>14.6} {:>14.6} {:>14.6} {:>3}  {}",
                    workload,
                    name,
                    s["median"].as_f64().unwrap_or(f64::NAN),
                    s["q1"].as_f64().unwrap_or(f64::NAN),
                    s["q3"].as_f64().unwrap_or(f64::NAN),
                    s["n"].as_u64().unwrap_or(0),
                    s["unit"].as_str().unwrap_or("")
                );
            }
        }
        if let Some(overhead) = sections["traced_detail"]["tracing_overhead"].as_f64() {
            println!("{workload:<12} {:<34} {overhead:>14.6}", "tracing_overhead");
        }
    }
}

/// The verdict for one metric × workload between a parent and a change.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let spread = ((pq3 - pq1) / pm).max((cq3 - cq1) / cm);
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if lower_is_better {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    if spread > bound && !all_better {
        "unresolved"
    } else if better(cm, pm) && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq3 - pq1 {
        "gain"
    } else if worse_by > bound {
        "regression"
    } else {
        "no change"
    }
}

pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (paths, rest) = args.split_at(args.len().min(2));
    let [parent_path, change_path] = paths else {
        return Err(
            "usage: benchmark compare PARENT.json[,...] CHANGE.json[,...] [--bounds BENCHMARK.json]"
                .into(),
        );
    };
    let flags = Flags::parse(rest, &[])?;
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    // Each side is one report or a comma-separated list of them, taken
    // alternately with the other side's; values pair up in order.
    let read_all =
        |paths: &str| -> Result<Vec<Value>, String> { paths.split(',').map(read).collect() };
    let parent = read_all(parent_path)?;
    let change = read_all(change_path)?;
    let spec = read(flags.get("bounds").unwrap_or("BENCHMARK.json"))?;
    let bounds: BTreeMap<String, f64> = spec["end_to_end"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
        .collect();
    println!(
        "{:<12} {:<16} {:>13} {:>13} {:>13} {:>13} {:>13} {:>13}  verdict",
        "workload", "metric", "parent", "p.q1", "p.q3", "change", "c.q1", "c.q3"
    );
    let mut regressions = 0;
    for workload in workloads() {
        for metric in &END_TO_END {
            let values = |reports: &[Value]| -> Vec<f64> {
                reports
                    .iter()
                    .flat_map(|r| {
                        r["workloads"][workload.name]["end_to_end"][metric.name]["values"]
                            .as_array()
                            .into_iter()
                            .flatten()
                            .filter_map(Value::as_f64)
                    })
                    .collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                return Err(format!(
                    "{}: {} missing from a report",
                    workload.name, metric.name
                ));
            }
            let bound = *bounds
                .get(metric.name)
                .ok_or_else(|| format!("no bound for {} in BENCHMARK.json", metric.name))?;
            let verdict = verdict(&p, &c, metric.better == "lower", bound);
            regressions += usize::from(verdict == "regression");
            let (pq1, pq3) = quartiles(&p);
            let (cq1, cq3) = quartiles(&c);
            println!(
                "{:<12} {:<16} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6}  {verdict}",
                workload.name,
                metric.name,
                median(&p),
                pq1,
                pq3,
                median(&c),
                cq1,
                cq3
            );
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

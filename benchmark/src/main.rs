//! The repository benchmark: serving, tier-tree and ε-verify workloads,
//! measured from outside through the crates' public entry
//! points. See README.md beside this package for the workloads, the
//! metric definitions and the measurement protocol.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1 [--quick] [--spans FILE]
//! benchmark run --seed S --out R.json [--rounds K] [--seconds T] [--quick] [--trace FILE]
//! benchmark compare PARENT.json[,...] CHANGE.json[,...] [--bounds BENCHMARK.json]
//! ```

mod measure;
mod round;
mod serving;
mod spec;
mod suite;
#[cfg(test)]
mod tests;
mod tree;
mod verify;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{object, ToJson, Value};

use crate::measure::{
    allowed_cpus, append_spans, keep_heap, median, percentile_of, pin_thread, self_time_ns,
    supported_tail, Clock, Cpus,
};
use crate::round::{Kind, Round};
use crate::serving::ServingInputs;
use crate::spec::{Shape, Workload, END_TO_END, PER_LAYER};
use crate::tree::TreeInputs;
use crate::verify::VerifyInputs;

/// `--quick` runs one round of each kind over 1/20 of each trace.
const QUICK_SCALE: u64 = 20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        _ => measure_workload(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command-line flags: `--name value` pairs and bare `--flag`s.
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if switches.contains(&key) {
                String::new()
            } else {
                rest.next()
                    .ok_or_else(|| format!("--{key} needs a value"))?
                    .clone()
            };
            map.insert(key.to_string(), value);
        }
        Ok(Flags(map))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(key), default) {
            (Some(text), _) => text
                .parse()
                .map_err(|_| format!("--{key} {text:?} is not a valid number")),
            (None, Some(value)) => Ok(value),
            (None, None) => Err(format!("missing --{key}")),
        }
    }
}

/// A workload's generated inputs, ready for rounds.
pub enum Inputs {
    Serving(ServingInputs),
    Tree(TreeInputs),
    Verify(VerifyInputs),
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64, scale: u64) -> Inputs {
        match workload.shape {
            Shape::Serving(spec) => Inputs::Serving(ServingInputs::generate(spec, seed, scale)),
            Shape::Tree(spec) => Inputs::Tree(TreeInputs::generate(spec, seed, scale)),
            Shape::Verify(spec) => Inputs::Verify(VerifyInputs::generate(spec, seed, scale)),
        }
    }

    /// The run's discarded warm-up pass; returns its broken checks.
    pub fn warm_up(&self, clock: &Clock, cpus: Option<Cpus>) -> Vec<String> {
        self.pin_single_thread(cpus);
        match self {
            Inputs::Serving(inputs) => inputs.warm_up(clock, cpus),
            Inputs::Tree(inputs) => inputs.warm_up(clock),
            Inputs::Verify(inputs) => {
                inputs.warm_up();
                Vec::new()
            }
        }
    }

    pub fn round(&self, kind: Kind, clock: &Clock, cpus: Option<Cpus>) -> Result<Round, String> {
        self.pin_single_thread(cpus);
        let mut round = match self {
            Inputs::Serving(inputs) => inputs.round(kind, clock, cpus),
            Inputs::Tree(inputs) => inputs.round(kind, clock),
            Inputs::Verify(inputs) => inputs.round(kind, clock),
        }?;
        round.lead_cpu = cpus.map(|c| c.lead);
        Ok(round)
    }

    /// Pin the only thread of a single-threaded workload to `cpus.lead`;
    /// the serving workloads place their two threads themselves.
    fn pin_single_thread(&self, cpus: Option<Cpus>) {
        if let (Some(cpus), Inputs::Tree(_) | Inputs::Verify(_)) = (cpus, self) {
            pin_thread(cpus.lead);
        }
    }
}

/// Timed rounds per memory round.
const TIMED_PER_MEMORY: usize = 4;

/// Every round of one workload run, by kind, and the warm-up's broken
/// checks.
#[derive(Default)]
pub struct Measured {
    pub warm_up: Vec<String>,
    pub timed: Vec<Round>,
    pub memory: Vec<Round>,
    pub traced: Vec<Round>,
}

impl Measured {
    /// The kind of the next round: one memory round first and then one
    /// for every [`TIMED_PER_MEMORY`] timed rounds; in a traced run,
    /// every other round is traced.
    fn next_kind(&self, trace: bool) -> Kind {
        let untraced = self.timed.len() + self.memory.len();
        if trace && self.traced.len() < untraced {
            Kind::Traced
        } else if self.memory.len() * TIMED_PER_MEMORY <= self.timed.len() {
            Kind::Memory
        } else {
            Kind::Timed
        }
    }

    fn rounds(&mut self, kind: Kind) -> &mut Vec<Round> {
        match kind {
            Kind::Timed => &mut self.timed,
            Kind::Memory => &mut self.memory,
            Kind::Traced => &mut self.traced,
        }
    }

    /// Every round of every kind.
    fn all(&self) -> impl Iterator<Item = &Round> {
        self.timed.iter().chain(&self.memory).chain(&self.traced)
    }
}

/// Run rounds of `workload` for about `seconds` after one warm-up pass
/// (in quick mode, until there is one round of each kind). Traced runs
/// alternate untraced and traced rounds so the tracing overhead is
/// measured within one process. Rounds of each kind take turns on the
/// CPUs.
pub fn measure_rounds(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Measured, String> {
    keep_heap();
    let inputs = Inputs::generate(workload, seed, if quick { QUICK_SCALE } else { 1 });
    let allowed = allowed_cpus();
    let clock = Clock::new();
    let begin = Instant::now();
    let mut measured = Measured {
        warm_up: inputs.warm_up(&clock, Cpus::for_round(&allowed, 0)),
        ..Measured::default()
    };
    loop {
        let kind = measured.next_kind(trace);
        let index = measured.rounds(kind).len();
        let mut round = inputs.round(kind, &clock, Cpus::for_round(&allowed, index))?;
        if kind == Kind::Traced && index > 0 {
            // One round's spans describe the run; keeping every round's
            // would grow memory by tens of MiB per round.
            round.spans = Vec::new();
        }
        measured.rounds(kind).push(round);
        let covered = !measured.timed.is_empty()
            && !measured.memory.is_empty()
            && (!trace || !measured.traced.is_empty());
        let rounds = measured.all().count() as f64;
        let elapsed = begin.elapsed().as_secs_f64();
        if covered && (quick || elapsed + elapsed / rounds > seconds) {
            return Ok(measured);
        }
    }
}

/// Every latency sample of `rounds`, ascending.
fn pooled_latencies(rounds: &[Round]) -> Vec<u64> {
    let mut latencies: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.latency_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    latencies
}

/// Timed rounds per round that counts toward `setup_s`.
const SETUP_SHARE: usize = 4;

/// The set-up time of a run: the median over the quarter of its timed
/// rounds (at least one) with the lowest median latency, which ran in the
/// least disturbed stretches of the run. Each round's set-up runs on the
/// CPU and just before the work that sets its latency.
fn setup_s(rounds: &[Round]) -> f64 {
    let mut by_latency: Vec<&Round> = rounds.iter().collect();
    by_latency.sort_by(|a, b| a.latency_p50_us().total_cmp(&b.latency_p50_us()));
    by_latency.truncate(rounds.len().div_ceil(SETUP_SHARE));
    median(&by_latency.iter().map(|r| r.setup_s).collect::<Vec<_>>())
}

/// The percentile of the memory rounds' peak growth that `peak_rss_mb`
/// reports. A round's growth depends on allocator state left by earlier
/// rounds that the benchmark cannot reset: on `bulk-1024` it is either
/// about 22.0 or 24.6 MiB, and runs flip between the two, so the median
/// would flip with them. The highest reading can be an outlier.
const PEAK_PERCENTILE: f64 = 90.0;

/// The end-to-end metrics of a run. The host's interference only ever
/// slows a round down, and it comes and goes from one round to the next,
/// so throughput and latency are the fastest timed round's: the highest
/// `items_per_s` and the lowest per-round median latency. Set-up time is
/// a median over the least disturbed timed rounds ([`setup_s`]), and peak
/// memory a high percentile over memory rounds ([`PEAK_PERCENTILE`]).
pub fn end_to_end(measured: &Measured) -> BTreeMap<&'static str, f64> {
    let timed = |f: fn(&Round) -> f64| measured.timed.iter().map(f).collect::<Vec<_>>();
    BTreeMap::from([
        ("setup_s", setup_s(&measured.timed)),
        (
            "items_per_s",
            timed(Round::items_per_s)
                .into_iter()
                .fold(f64::NAN, f64::max),
        ),
        (
            "latency_p50_us",
            timed(Round::latency_p50_us)
                .into_iter()
                .fold(f64::NAN, f64::min),
        ),
        (
            "peak_rss_mb",
            percentile_of(
                &measured
                    .memory
                    .iter()
                    .map(|r| r.peak_rss_mib)
                    .collect::<Vec<_>>(),
                PEAK_PERCENTILE,
            ),
        ),
    ])
}

/// The median over timed rounds of each round's p99 latency, in µs.
/// Too noisy on a shared host to gate, so it is reported with the
/// per-layer numbers.
pub fn latency_p99_us(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(Round::latency_p99_us).collect::<Vec<_>>())
}

/// The median of every per-layer number over a set of traced rounds,
/// plus the set-up layer numbers every round carries.
pub fn per_layer(rounds: &[Round]) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for (name, &value) in &round.layers {
            values.entry(name.clone()).or_default().push(value);
        }
        values
            .entry("concentrator.elab.compile_s".to_string())
            .or_default()
            .push(round.compile_s);
        values
            .entry("netlist.compile.insns".to_string())
            .or_default()
            .push(round.insns as f64);
    }
    values
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect()
}

/// Everything a run found besides the gated metrics: every layer number
/// the workload has, the latency tail, tracing overhead and self times.
fn detail(measured: &Measured) -> Value {
    let latencies = pooled_latencies(&measured.timed);
    let tail = supported_tail(&latencies).map_or(Value::Null, |(p, ns)| {
        object([
            ("percentile", p.to_json()),
            ("latency_us", (ns as f64 * 1e-3).to_json()),
            ("samples_beyond", 10u64.to_json()),
            ("samples", (latencies.len() as u64).to_json()),
        ])
    });
    let timed = |f: fn(&Round) -> f64| measured.timed.iter().map(f).collect::<Vec<_>>();
    let mut fields = vec![
        ("rounds", (measured.timed.len() as u64).to_json()),
        ("memory_rounds", (measured.memory.len() as u64).to_json()),
        ("traced_rounds", (measured.traced.len() as u64).to_json()),
        ("items_per_s_by_round", timed(Round::items_per_s).to_json()),
        ("setup_s_by_round", timed(|r| r.setup_s).to_json()),
        (
            "lead_cpu_by_round",
            measured
                .timed
                .iter()
                .map(|r| r.lead_cpu.map_or(Value::Null, |c| (c as u64).to_json()))
                .collect::<Vec<_>>()
                .to_json(),
        ),
        ("latency_tail", tail),
        ("latency_p99_us", latency_p99_us(&measured.timed).to_json()),
        (
            "latency_p50_us_by_round",
            timed(Round::latency_p50_us).to_json(),
        ),
        (
            "peak_rss_mb_by_round",
            measured
                .memory
                .iter()
                .map(|r| r.peak_rss_mib)
                .collect::<Vec<_>>()
                .to_json(),
        ),
    ];
    let epsilons: Vec<u64> = measured
        .all()
        .filter_map(|r| r.epsilon.map(|e| e as u64))
        .collect();
    if !epsilons.is_empty() {
        fields.push(("worst_epsilon_by_round", epsilons.to_json()));
    }
    if !measured.traced.is_empty() {
        let traced = median(
            &measured
                .traced
                .iter()
                .map(Round::items_per_s)
                .collect::<Vec<_>>(),
        );
        let plain = median(&timed(Round::items_per_s));
        fields.push(("tracing_overhead", (plain / traced - 1.0).to_json()));
        let layers = per_layer(&measured.traced);
        fields.push((
            "layers",
            Value::Object(layers.into_iter().map(|(k, v)| (k, v.to_json())).collect()),
        ));
        let spans: Vec<_> = measured
            .traced
            .iter()
            .flat_map(|r| r.spans.iter().cloned())
            .collect();
        fields.push((
            "self_ms",
            Value::Object(
                self_time_ns(&spans)
                    .into_iter()
                    .map(|(k, ns)| (k.to_string(), (ns as f64 * 1e-6).to_json()))
                    .collect(),
            ),
        ));
    }
    object(fields)
}

/// The result line: every end-to-end (untraced) or per-layer (traced)
/// metric with its unit, plus the attempt and failure counts of the
/// rounds the metrics come from.
fn result_line(measured: &Measured, trace: bool, correct: bool) -> Value {
    let rounds: Vec<&Round> = if trace {
        measured.traced.iter().collect()
    } else {
        measured.timed.iter().chain(&measured.memory).collect()
    };
    let values: BTreeMap<String, f64> = if trace {
        let mut layers = per_layer(&measured.traced);
        layers.insert(
            "latency_p99_us".to_string(),
            latency_p99_us(&measured.timed),
        );
        layers
    } else {
        end_to_end(measured)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    };
    let table = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = table.iter().map(|metric| {
        let value = values.get(metric.name).copied().unwrap_or(f64::NAN);
        (
            metric.name,
            object([("value", value.to_json()), ("unit", metric.unit.to_json())]),
        )
    });
    object([
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            rounds.iter().map(|r| r.attempted).sum::<u64>().to_json(),
        ),
        (
            "failed",
            rounds.iter().map(|r| r.failed).sum::<u64>().to_json(),
        ),
        ("metrics", object(metrics)),
    ])
}

/// Every output check that failed across the run, including the
/// warm-up's, a worst ε that differs between rounds of one seed, and an
/// end-to-end reading that is not a positive number.
fn violations(measured: &Measured) -> Vec<String> {
    let mut found: Vec<String> = measured
        .warm_up
        .iter()
        .map(|v| format!("warm-up: {v}"))
        .chain(measured.all().flat_map(|r| r.violations.iter().cloned()))
        .collect();
    let mut epsilons: Vec<usize> = measured.all().filter_map(|r| r.epsilon).collect();
    epsilons.dedup();
    if epsilons.len() > 1 {
        found.push(format!("worst ε differs between rounds: {epsilons:?}"));
    }
    let readings = measured
        .timed
        .iter()
        .flat_map(|r| {
            [
                ("setup_s", r.setup_s),
                ("items_per_s", r.items_per_s()),
                ("latency_p50_us", r.latency_p50_us()),
            ]
        })
        .chain(
            measured
                .memory
                .iter()
                .map(|r| ("peak_rss_mb", r.peak_rss_mib)),
        );
    for (name, value) in readings {
        if !value.is_finite() || value <= 0.0 {
            found.push(format!("{name} measured {value}"));
        }
    }
    found
}

fn measure_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["quick"])?;
    let name = flags.require("workload")?;
    let workload = spec::workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.number("seed", None)?;
    let seconds: f64 = flags.number("seconds", None)?;
    let trace = match flags.require("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let measured = measure_rounds(&workload, seed, seconds, trace, flags.has("quick"))?;
    if let Some(path) = flags.get("spans") {
        for round in &measured.traced {
            append_spans(path, workload.name, &round.spans)?;
        }
    }
    let broken = violations(&measured);
    for violation in &broken {
        eprintln!("benchmark: {}: check failed: {violation}", workload.name);
    }
    println!(
        "{}",
        object([
            ("workload", workload.name.to_json()),
            ("detail", detail(&measured))
        ])
        .to_compact()
    );
    println!(
        "{}",
        result_line(&measured, trace, broken.is_empty()).to_compact()
    );
    Ok(if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

//! Workload-engine bench: wait/shed curves for every trace generator
//! family, plus the adversarial-vs-Bernoulli comparison that connects
//! the paper's ε-deficiency bound to serving-tail metrics.
//!
//! Writes `BENCH_workloads.json` at the repository root. Every counter
//! in the `deterministic` section comes from the synchronous
//! [`fabric::drive_sync`] replay of a generated
//! [`fabric::Trace`], so the file is bit-identical across runs of the
//! same binary (asserted by replaying one point twice).
//!
//! Acceptance claims:
//!
//! * every replayed trace conserves (`offered = delivered + drops`);
//! * the ε-attack trace ([`fabric::adversarial_trace`]) is measurably
//!   worse than a rate-matched Bernoulli trace on the same switch —
//!   more messages dropped, or a worse p99 wait. Random traffic at the
//!   same offered load does not find the patterns the search does.

use std::fmt::Write as _;
use std::sync::Arc;

use bench::{banner, bench_header, TextTable};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::trace::{frames, generate};
use fabric::{
    adversarial_trace, drive_sync, AdversarialPlan, Backpressure, Fabric, FabricConfig,
    RetryBudget, Trace, TraceModel,
};

const N: usize = 256;
const M: usize = 128;
const TICKS: u64 = 64;
const SIZE_CLASS: u8 = 3; // 8-byte payloads, matching BENCH_fabric
const SEED: u64 = 0x70AD;

fn staged() -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(N, M, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

/// The serving configuration every trace replays under: one shard so
/// the m = n/2 capacity bound bites, an ingress ring of n = 256 with
/// shed-oldest overflow, and a small retry budget so congestion losers
/// become visible drops instead of unbounded re-offers. A tick offers at
/// most one message per source, n in all, and the worker empties the ring
/// every tick, so shedding cannot trigger on these traces: overload shows
/// as retry drops.
fn serving_config() -> FabricConfig {
    let mut config = FabricConfig::new(1);
    config.queue_capacity = N;
    config.backpressure = Backpressure::ShedOldest;
    config.retry = RetryBudget::limited(2);
    config
}

/// One replayed trace's deterministic counters.
struct Point {
    records: u64,
    generated: u64,
    delivered: u64,
    shed: u64,
    rejected: u64,
    retry_dropped: u64,
    p50: u64,
    p99: u64,
}

impl Point {
    fn dropped(&self) -> u64 {
        self.shed + self.rejected + self.retry_dropped
    }

    fn json(&self, load: f64) -> String {
        format!(
            "{{\"load\": {load:.3}, \"records\": {}, \"generated\": {}, \"delivered\": {}, \
             \"shed\": {}, \"rejected\": {}, \"retry_dropped\": {}, \
             \"p50_wait_frames\": {}, \"p99_wait_frames\": {}}}",
            self.records,
            self.generated,
            self.delivered,
            self.shed,
            self.rejected,
            self.retry_dropped,
            self.p50,
            self.p99
        )
    }
}

fn replay(switch: &Arc<StagedSwitch>, trace: &Trace) -> Point {
    let mut fabric = Fabric::new(Arc::clone(switch), serving_config());
    let report = drive_sync(&mut fabric, frames(trace, N), &[]);
    assert!(
        report.snapshot.conserved(),
        "trace replay must conserve: {:?}",
        report.snapshot.totals()
    );
    let totals = report.snapshot.totals();
    let (p50, _) = totals.wait_frames.percentile(50.0);
    let (p99, _) = totals.wait_frames.percentile(99.0);
    Point {
        records: trace.len() as u64,
        generated: report.generated,
        delivered: totals.delivered,
        shed: totals.shed,
        rejected: totals.rejected,
        retry_dropped: totals.retry_dropped,
        p50,
        p99,
    }
}

fn model_for(family: &str, p: f64) -> TraceModel {
    match family {
        "diurnal" => TraceModel::Diurnal {
            base: p,
            amplitude: 0.15,
            period: 16,
        },
        "mmpp" => TraceModel::mmpp_from_bursty(p, 4.0),
        "zipf_population" => TraceModel::ZipfPopulation {
            p,
            population: 2_000_000,
            exponent: 1.1,
        },
        other => unreachable!("unknown family {other}"),
    }
}

fn main() {
    banner(
        "Workload engine: wait/shed curves per trace generator family",
        "serving-engine evidence (not a paper artifact)",
    );
    let switch = staged();

    // ---- Determinism: one trace, replayed twice. ---------------------
    let probe = generate(model_for("mmpp", 0.5), N, TICKS, SIZE_CLASS, SEED);
    let mut a = Fabric::new(Arc::clone(&switch), serving_config());
    let mut b = Fabric::new(Arc::clone(&switch), serving_config());
    assert_eq!(
        drive_sync(&mut a, frames(&probe, N), &[]).snapshot,
        drive_sync(&mut b, frames(&probe, N), &[]).snapshot,
        "trace replays must be bit-reproducible"
    );

    // ---- Wait/shed curves per generator family. ----------------------
    let loads = [0.2, 0.5, 0.8];
    let families = ["diurnal", "mmpp", "zipf_population"];
    let mut table = TextTable::new([
        "family",
        "load",
        "records",
        "delivered",
        "dropped",
        "p50 wait",
        "p99 wait",
    ]);
    let mut curves: Vec<(&str, Vec<(f64, Point)>)> = Vec::new();
    for family in families {
        let mut points = Vec::new();
        for p in loads {
            let trace = generate(model_for(family, p), N, TICKS, SIZE_CLASS, SEED);
            let point = replay(&switch, &trace);
            table.row([
                family.to_string(),
                format!("{p:.1}"),
                point.records.to_string(),
                point.delivered.to_string(),
                point.dropped().to_string(),
                point.p50.to_string(),
                point.p99.to_string(),
            ]);
            points.push((p, point));
        }
        curves.push((family, points));
    }
    table.print();

    // ---- Adversarial vs rate-matched Bernoulli. ----------------------
    // The ε-attack's worst-case input subset, sustained for TICKS ticks,
    // against a memoryless trace with the identical offered load: the
    // search's structure — not its rate — is what hurts the tail.
    let plan = AdversarialPlan {
        restarts: 3,
        rounds: 16,
        seed: SEED,
        ticks: TICKS,
        size_class: SIZE_CLASS,
    };
    let (attack, search) = adversarial_trace(&switch, &plan);
    let offered = attack.offered_load(N);
    let matched = generate(
        TraceModel::Bernoulli { p: offered },
        N,
        TICKS,
        SIZE_CLASS,
        SEED,
    );
    let attack_point = replay(&switch, &attack);
    let matched_point = replay(&switch, &matched);
    println!(
        "adversarial: score {} over {} wires, offered {:.3}/wire — dropped {} p99 {} \
         vs bernoulli dropped {} p99 {}",
        search.best_score,
        N,
        offered,
        attack_point.dropped(),
        attack_point.p99,
        matched_point.dropped(),
        matched_point.p99
    );

    // ---- BENCH_workloads.json ----------------------------------------
    let mut json = String::from("{\n");
    for (key, value) in bench_header("workloads", false) {
        let _ = writeln!(json, "  \"{key}\": {},", value.to_compact());
    }
    let _ = writeln!(
        json,
        "  \"switch\": \"Revsort n={N} m={M} (2-D layout)\",\n  \"workload\": \"{TICKS} ticks x {N} sources, 8-byte payloads, seed {SEED}\",\n  \"serving\": \"1 shard, queue 256, shed-oldest, retry budget 2\","
    );
    json.push_str("  \"deterministic\": {\n    \"curves\": {\n");
    for (f, (family, points)) in curves.iter().enumerate() {
        let _ = writeln!(json, "      \"{family}\": [");
        for (i, (p, point)) in points.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {}{}",
                point.json(*p),
                if i + 1 < points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "      ]{}",
            if f + 1 < curves.len() { "," } else { "" }
        );
    }
    json.push_str("    },\n    \"adversarial\": {\n");
    let _ = writeln!(
        json,
        "      \"attack_score\": {},\n      \"search_evaluations\": {},\n      \"offered_load\": {offered:.4},",
        search.best_score, search.evaluations
    );
    let _ = writeln!(json, "      \"attack\": {},", attack_point.json(offered));
    let _ = writeln!(
        json,
        "      \"bernoulli_matched\": {}",
        matched_point.json(offered)
    );
    json.push_str("    }\n  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workloads.json");
    std::fs::write(path, &json).expect("write BENCH_workloads.json");
    println!("wrote {path}");

    // The gate runs after the write, so a failing comparison leaves its
    // counters on record in BENCH_workloads.json.
    assert!(
        attack_point.dropped() > matched_point.dropped() || attack_point.p99 > matched_point.p99,
        "the attack trace must beat rate-matched Bernoulli on drops or p99 wait: \
         attack dropped {} p99 {}, bernoulli dropped {} p99 {}",
        attack_point.dropped(),
        attack_point.p99,
        matched_point.dropped(),
        matched_point.p99
    );
}

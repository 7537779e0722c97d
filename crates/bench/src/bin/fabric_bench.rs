//! Fabric serving bench: the batching win, latency-vs-load curves, and
//! multichip shard scaling for the sharded concentrator-switch serving
//! engine.
//!
//! Writes `BENCH_fabric.json` at the repository root. The file separates
//! two kinds of data:
//!
//! * `deterministic` sections — counters (deliveries, sweeps, wait
//!   percentiles) produced by the synchronous [`fabric::Fabric`]. These
//!   are bit-identical on every run of the same binary (the bench
//!   re-runs the reference workload and asserts it).
//! * `timing` sections — wall-clock throughput, which varies run to run
//!   and is explicitly excluded from the reproducibility claim.
//!
//! Two acceptance claims:
//!
//! * at n = 1024 the batched engine moves ≥ 10× the messages per second
//!   of the one-request-per-sweep baseline on the same workload (it wins
//!   on sweep count by far more);
//! * the multichip scaling ladder ([`fabric::scaling`]) — the same
//!   aggregate 1024 → 512 fabric served as 1/2/4/8 Columnsort chips on
//!   thread-per-shard lanes under constant offered load — is monotone in
//!   msgs/s, with the 8-chip rung ≥ 3× the single-chip rung.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bench::{banner, bench_header, TextTable};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::{drive_sync, one_per_tick, DriveReport, Fabric, FabricConfig, LoadPlan};
use switchsim::TrafficModel;

const N: usize = 1024;
const M: usize = 512;
const PAYLOAD_BYTES: usize = 8; // 64 payload cycles: one full SWAR sweep
const SEED: u64 = 0xFAB0;

fn staged() -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(N, M, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

fn plan(p: f64, frames: usize) -> LoadPlan {
    LoadPlan {
        model: TrafficModel::Bernoulli { p },
        payload_bytes: PAYLOAD_BYTES,
        seed: SEED,
        frames,
    }
}

struct Timed {
    report: DriveReport,
    secs: f64,
}

fn run_batched(switch: &Arc<StagedSwitch>, shards: usize, p: f64, frames: usize) -> Timed {
    let mut fabric = Fabric::new(Arc::clone(switch), FabricConfig::new(shards));
    let started = Instant::now();
    let report = drive_sync(&mut fabric, plan(p, frames).frames(N, 0), &[]);
    Timed {
        report,
        secs: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    banner(
        "Fabric serving: batched SWAR sweeps vs one-request-per-sweep",
        "serving-engine evidence (not a paper artifact)",
    );
    let switch = staged();

    // ---- Determinism: the reference workload, driven twice. ----------
    let first = run_batched(&switch, 2, 0.5, 12);
    let second = run_batched(&switch, 2, 0.5, 12);
    assert_eq!(
        first.report.snapshot, second.report.snapshot,
        "synchronous drives must be bit-reproducible"
    );
    assert!(first.report.snapshot.conserved());

    // ---- The batching win at n = 1024. -------------------------------
    let batched = first;
    let started = Instant::now();
    let mut unbatched_fabric = Fabric::new(Arc::clone(&switch), FabricConfig::new(2));
    let unbatched_report = drive_sync(
        &mut unbatched_fabric,
        one_per_tick(plan(0.5, 12).frames(N, 0)),
        &[],
    );
    let unbatched = Timed {
        report: unbatched_report,
        secs: started.elapsed().as_secs_f64(),
    };
    let b = batched.report.snapshot.totals();
    let u = unbatched.report.snapshot.totals();
    assert_eq!(batched.report.delivered, batched.report.generated);
    assert_eq!(unbatched.report.delivered, unbatched.report.generated);
    assert_eq!(
        batched.report.generated, unbatched.report.generated,
        "both engines must serve the identical workload"
    );
    let batched_mps = b.delivered as f64 / batched.secs;
    let unbatched_mps = u.delivered as f64 / unbatched.secs;
    let throughput_ratio = batched_mps / unbatched_mps;
    let sweep_ratio = u.sweeps as f64 / b.sweeps as f64;
    println!(
        "n={N}: {} msgs  batched {:.0} msgs/s ({} sweeps)  unbatched {:.0} msgs/s ({} sweeps)  throughput x{:.1}  sweeps x{:.1}",
        batched.report.generated, batched_mps, b.sweeps, unbatched_mps, u.sweeps, throughput_ratio, sweep_ratio
    );
    assert!(
        throughput_ratio >= 10.0,
        "batched engine must be >= 10x the unbatched baseline, got {throughput_ratio:.1}x"
    );

    // ---- Wait percentiles vs offered load. ---------------------------
    // One shard so the m = n/2 capacity bound actually bites: above 50%
    // offered load, congestion losers retry and the wait tail grows.
    let mut load_table = TextTable::new(["load", "generated", "delivered", "p50 wait", "p99 wait"]);
    let mut load_rows = Vec::new();
    for p in [0.2, 0.5, 0.8, 1.0] {
        let timed = run_batched(&switch, 1, p, 12);
        let totals = timed.report.snapshot.totals();
        let (p50, p50_lb) = totals.wait_frames.percentile(50.0);
        let (p99, p99_lb) = totals.wait_frames.percentile(99.0);
        load_table.row([
            format!("{p:.1}"),
            timed.report.generated.to_string(),
            totals.delivered.to_string(),
            format!("{p50}{}", if p50_lb { "+" } else { "" }),
            format!("{p99}{}", if p99_lb { "+" } else { "" }),
        ]);
        load_rows.push((p, timed.report.generated, totals.delivered, p50, p99));
    }
    load_table.print();

    // ---- Sync shard split (same workload, more shards). --------------
    // Deterministic sweep/frame counters from the synchronous engine:
    // how the fixed workload's sweeps divide as shard count grows.
    let mut scale_rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let timed = run_batched(&switch, shards, 0.5, 12);
        let totals = timed.report.snapshot.totals();
        scale_rows.push((shards, totals.sweeps, totals.frames));
    }

    // ---- Multichip scaling ladder (threaded data plane). -------------
    // The paper's decomposition as a serving strategy: the same
    // aggregate 1024 -> 512 fabric served as k Columnsort chips, one
    // thread-per-shard lane each, constant offered load. Smaller chips
    // mean superlinearly smaller sort networks, so throughput must rise
    // with chip count even on one core; on multicore hosts the
    // independent lanes compound it.
    let ladder = fabric::scaling::ladder(N, &[1, 2, 4, 8], 2, 8, 0.5, PAYLOAD_BYTES, SEED);
    let mut ladder_table = TextTable::new([
        "chips",
        "chip n->m",
        "delivered",
        "msgs/s (wall)",
        "speedup",
        "efficiency",
    ]);
    let base_mps = ladder.points[0].msgs_per_sec();
    for (i, point) in ladder.points.iter().enumerate() {
        ladder_table.row([
            point.chips.to_string(),
            format!("{}->{}", point.chip_inputs, point.chip_outputs),
            point.delivered.to_string(),
            format!("{:.0}", point.msgs_per_sec()),
            format!("{:.2}x", point.msgs_per_sec() / base_mps),
            format!("{:.3}", ladder.efficiency(i)),
        ]);
    }
    ladder_table.print();
    for window in ladder.points.windows(2) {
        assert!(
            window[1].msgs_per_sec() >= window[0].msgs_per_sec(),
            "scaling ladder must be monotone: {} chips {:.0} msgs/s < {} chips {:.0} msgs/s",
            window[1].chips,
            window[1].msgs_per_sec(),
            window[0].chips,
            window[0].msgs_per_sec()
        );
    }
    let last = ladder.points.last().unwrap();
    assert!(
        last.msgs_per_sec() >= 3.0 * base_mps,
        "8-chip rung must be >= 3x the 1-chip rung, got {:.2}x",
        last.msgs_per_sec() / base_mps
    );

    // ---- BENCH_fabric.json ------------------------------------------
    let mut json = String::from("{\n");
    for (key, value) in bench_header("fabric", false) {
        let _ = writeln!(json, "  \"{key}\": {},", value.to_compact());
    }
    let _ = writeln!(
        json,
        "  \"switch\": \"Revsort n={N} m={M} (2-D layout)\",\n  \"workload\": \"Bernoulli, {PAYLOAD_BYTES}-byte payloads, seed {SEED}\","
    );
    json.push_str("  \"deterministic\": {\n");
    let _ = writeln!(
        json,
        "    \"generated\": {},\n    \"delivered\": {},\n    \"batched_sweeps\": {},\n    \"unbatched_sweeps\": {},\n    \"sweep_ratio\": {:.2},",
        batched.report.generated, b.delivered, b.sweeps, u.sweeps, sweep_ratio
    );
    json.push_str("    \"wait_vs_load\": [\n");
    for (i, (p, generated, delivered, p50, p99)) in load_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"load\": {p:.1}, \"generated\": {generated}, \"delivered\": {delivered}, \"p50_wait_frames\": {p50}, \"p99_wait_frames\": {p99}}}{}",
            if i + 1 < load_rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ],\n    \"shard_scaling\": [\n");
    for (i, (shards, sweeps, frames)) in scale_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"shards\": {shards}, \"sweeps\": {sweeps}, \"frames\": {frames}}}{}",
            if i + 1 < scale_rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"timing_not_reproducible\": {\n");
    let _ = writeln!(
        json,
        "    \"batched_msgs_per_sec\": {batched_mps:.0},\n    \"unbatched_msgs_per_sec\": {unbatched_mps:.0},\n    \"throughput_ratio\": {throughput_ratio:.1},\n    \"cores\": {},",
        ladder.cores
    );
    let _ = writeln!(
        json,
        "    \"scaling_ladder\": \"aggregate {N}->{M} as k Columnsort chips, thread-per-shard, constant offered load\","
    );
    json.push_str("    \"shard_scaling_msgs_per_sec\": [\n");
    for (i, point) in ladder.points.iter().enumerate() {
        let per_shard: Vec<String> = point
            .per_shard
            .iter()
            .map(|s| {
                format!(
                    "{{\"shard\": {}, \"delivered\": {}, \"msgs_per_sec\": {:.0}, \"utilization\": {:.3}}}",
                    s.shard, s.delivered, s.msgs_per_sec, s.utilization
                )
            })
            .collect();
        let _ = writeln!(
            json,
            "      {{\"shards\": {}, \"chip_inputs\": {}, \"chip_outputs\": {}, \"delivered\": {}, \"msgs_per_sec\": {:.0}, \"scaling_efficiency\": {:.3}, \"per_shard\": [{}]}}{}",
            point.chips,
            point.chip_inputs,
            point.chip_outputs,
            point.delivered,
            point.msgs_per_sec(),
            ladder.efficiency(i),
            per_shard.join(", "),
            if i + 1 < ladder.points.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fabric.json");
    std::fs::write(path, &json).expect("write BENCH_fabric.json");
    println!("wrote {path}");
}

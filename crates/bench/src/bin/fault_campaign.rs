//! Fault-injection campaigns: degraded capacity on the faulted chip
//! program, and fabric failover through a mid-run chip failure.
//!
//! Writes `BENCH_faults.json` at the repository root. Everything in it is
//! deterministic: campaign schedules are pure functions of the seed, the
//! campaign executor sweeps 64 lanes of the faulted chip program, and the
//! failover story is driven through the synchronous [`fabric::Fabric`] —
//! the bench runs each twice and asserts bit-identical results before
//! writing anything.
//!
//! Headline claims pinned here:
//!
//! * Degraded capacity falls monotonically-ish with the permanent-fault
//!   rate, and the quiet (rate-0) campaign delivers at the healthy rate.
//! * A fabric survives a mid-run permanent chip failure: the sick shard
//!   is quarantined by its health monitor, new traffic steers to the
//!   healthy shards, conservation holds exactly, and total loss stays
//!   bounded.

use std::fmt::Write as _;
use std::sync::Arc;

use bench::{banner, bench_header, TextTable};
use concentrator::faults::{
    run_campaign, CampaignReport, CampaignSpec, ChipFault, FaultCampaign, FaultMode,
};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::{
    drive_sync, Backpressure, DriveReport, Fabric, FabricConfig, FaultEvent, LoadPlan, RetryBudget,
};
use switchsim::TraceModel;

const SEED: u64 = 0xFA57_CA11;
const FRAMES: usize = 64;
const DENSITY: f64 = 0.5;

fn staged(n: usize, m: usize) -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(n, m, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}

fn campaign_at(switch: &StagedSwitch, permanent_rate: f64) -> CampaignReport {
    let spec = CampaignSpec {
        seed: SEED,
        frames: FRAMES,
        permanent_rate,
        intermittent_rate: permanent_rate / 2.0,
        intermittent_period: 16,
        transient_rate: permanent_rate / 4.0,
    };
    run_campaign(switch, &FaultCampaign::generate(switch, &spec), DENSITY)
}

/// The fabric failover story: two shards, a permanent four-chip failure
/// lands on shard 0 at frame 16 of 48, the health monitor quarantines it,
/// and the drive still drains with exact conservation.
fn failover(switch: &Arc<StagedSwitch>) -> DriveReport {
    let mut config = FabricConfig::new(2);
    config.retry = RetryBudget::limited(2);
    config.backpressure = Backpressure::ShedOldest;
    let mut fabric = Fabric::new(Arc::clone(switch), config);
    let plan = LoadPlan {
        model: TraceModel::Bernoulli { p: 0.6 },
        size_class: 2,
        seed: SEED ^ 0xBEEF,
        frames: 48,
    };
    // Kill every first-stage chip of shard 0's switch mid-run: a whole
    // chip row goes dark, exactly the failure a stack designer fears.
    let schedule = vec![FaultEvent {
        frame: 16,
        shard: 0,
        faults: (0..switch.stages[0].chip_count)
            .map(|chip| ChipFault {
                stage: 0,
                chip,
                mode: FaultMode::StuckInvalid,
            })
            .collect(),
    }];
    drive_sync(&mut fabric, plan.frames(switch.n, 0), &schedule)
}

fn main() {
    banner(
        "Fault-injection campaigns: faulted chip program + fabric failover",
        "availability evidence (not a paper artifact)",
    );

    // ---- Degraded capacity vs fault rate (faulted chip program). -----
    let switch = staged(64, 48);
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];
    let mut table = TextTable::new([
        "permanent rate",
        "fault sets",
        "delivered",
        "delivery rate",
        "worst frame",
    ]);
    let mut curve = Vec::new();
    for &rate in &rates {
        let report = campaign_at(&switch, rate);
        table.row([
            format!("{rate:.2}"),
            report.distinct_fault_sets.to_string(),
            format!("{}/{}", report.delivered, report.offered),
            format!("{:.4}", report.delivery_rate()),
            format!("{:.4}", report.worst_frame_rate()),
        ]);
        curve.push((rate, report));
    }
    table.print();

    // Reproducibility: the same seed redraws the same campaign and the
    // chip program re-delivers the same counts, bit for bit.
    assert_eq!(
        campaign_at(&switch, 0.05),
        campaign_at(&switch, 0.05),
        "campaign reports must be reproducible under a fixed seed"
    );
    // The quiet campaign is the healthy switch: with m = 48 ≥ offered
    // load it delivers everything the capacity bound admits.
    let quiet_rate = curve[0].1.delivery_rate();
    let worst_rate = curve.last().unwrap().1.delivery_rate();
    assert!(
        quiet_rate > worst_rate,
        "injecting faults must cost capacity ({quiet_rate} vs {worst_rate})"
    );

    // ---- Fabric failover through a mid-run chip failure. -------------
    let fab_switch = staged(16, 8);
    let first = failover(&fab_switch);
    let second = failover(&fab_switch);
    assert_eq!(
        first.snapshot, second.snapshot,
        "failover drives must be bit-reproducible"
    );
    assert!(first.snapshot.conserved(), "conservation must hold exactly");
    let totals = first.snapshot.totals();
    assert!(
        totals.quarantines >= 1,
        "the health monitor must quarantine the faulted shard"
    );
    let loss = (totals.dropped() as f64) / (totals.offered as f64);
    assert!(
        loss < 0.5,
        "losing one shard of two must not cost half the traffic (lost {loss:.3})"
    );
    println!(
        "failover: {} offered, {} delivered, {} dropped ({:.1}% loss), {} quarantine(s), {} quarantined frame(s)",
        totals.offered,
        totals.delivered,
        totals.dropped(),
        loss * 100.0,
        totals.quarantines,
        totals.quarantined_frames
    );

    // ---- BENCH_faults.json -------------------------------------------
    let mut json = String::from("{\n");
    for (key, value) in bench_header("faults", false) {
        let _ = writeln!(json, "  \"{key}\": {},", value.to_compact());
    }
    let _ = writeln!(
        json,
        "  \"switch\": \"Revsort n=64 m=48 (2-D layout)\",\n  \"seed\": {SEED},\n  \"frames\": {FRAMES},\n  \"density\": {DENSITY},"
    );
    json.push_str("  \"degradation_vs_rate\": [\n");
    for (i, (rate, report)) in curve.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"permanent_rate\": {rate:.2}, \"distinct_fault_sets\": {}, \"offered\": {}, \"delivered\": {}, \"delivery_rate\": {:.6}, \"worst_frame_rate\": {:.6}}}{}",
            report.distinct_fault_sets,
            report.offered,
            report.delivered,
            report.delivery_rate(),
            report.worst_frame_rate(),
            if i + 1 < curve.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"failover\": {\n");
    let _ = writeln!(
        json,
        "    \"switch\": \"Revsort n=16 m=8, 2 shards, fault at frame 16\",\n    \"offered\": {},\n    \"delivered\": {},\n    \"dropped\": {},\n    \"loss_fraction\": {:.6},\n    \"quarantines\": {},\n    \"quarantined_frames\": {},\n    \"conserved\": {}",
        totals.offered,
        totals.delivered,
        totals.dropped(),
        loss,
        totals.quarantines,
        totals.quarantined_frames,
        first.snapshot.conserved()
    );
    json.push_str("  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    std::fs::write(path, &json).expect("write BENCH_faults.json");
    println!("wrote {path}");
}

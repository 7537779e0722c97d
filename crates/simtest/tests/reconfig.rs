//! Elastic-control-plane properties: live resize, switch swap, and
//! SLO-driven admission under 100 seeded interleavings per scenario, all
//! checked by the full oracle set (per-frame reference equivalence
//! against whichever switch the shard had installed, tick-by-tick
//! conservation across every epoch boundary, capacity, liveness,
//! residual in-flight, and — for blocking scenarios — bit-exact lossless
//! delivery against the scripted id → payload map).
//!
//! The property test at the bottom goes further: arbitrary seeded
//! control-plane schedules (add / remove / swap / retarget) under every
//! backpressure policy, with conservation and liveness holding for each.

use concentrator::verify::SplitMix64;
use fabric::Backpressure;
use simtest::{
    explore, resize_under_drain, run_scenario, scale_down_while_quarantined, slo_shed_burst,
    swap_during_campaign, swap_target_switch, ReconfigAction, Scenario, SimReconfigEvent,
    TraceEvent,
};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=100;

fn assert_all_pass(report: &simtest::ExploreReport) {
    assert_eq!(report.runs, 100);
    assert!(
        report.passed(),
        "failing seeds: {:?}",
        report.failures.iter().map(|f| f.seed).collect::<Vec<_>>()
    );
    assert!(report.frames > 0, "scenario ran no frames");
}

#[test]
fn resize_under_drain_is_lossless_across_interleavings() {
    assert_all_pass(&explore(&resize_under_drain(), SEEDS));
    // The schedule must actually exercise the elastic path: every add
    // and remove lands (the pool is never exhausted, no remove targets
    // the last active lane), and each one bumps the epoch.
    let run = run_scenario(&resize_under_drain(), 8);
    assert!(run.passed(), "{:?}", run.violations);
    let adds = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::ShardAdded { .. }))
        .count();
    let removes = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::ShardRemoved { .. }))
        .count();
    assert_eq!(adds, 3, "all three grow events land");
    assert_eq!(removes, 2, "both shrink events land");
    // Zero loss by construction: messages parked on or queued behind a
    // removed lane re-place under the new epoch; the lossless oracle in
    // the explore pass above checked delivery bit-for-bit.
    assert_eq!(run.snapshot.in_flight, 0);
}

#[test]
fn swap_during_campaign_reroutes_epoch_plus_one_frames() {
    assert_all_pass(&explore(&swap_during_campaign(), SEEDS));
    let run = run_scenario(&swap_during_campaign(), 9);
    assert!(run.passed(), "{:?}", run.violations);
    let swap_tick = run
        .trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::SwitchSwapped { tick, lanes } => {
                assert_eq!(*lanes, 2, "both live lanes are signalled");
                Some(*tick)
            }
            _ => None,
        })
        .expect("the swap fires");
    // Epoch-(e+1) traffic completes on the replacement: frames keep
    // running after the handoff, and the per-frame oracle (inside
    // passed()) replayed them against the installed 64-to-16 switch.
    let frames_after = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Frame { tick, .. } if *tick > swap_tick))
        .count();
    assert!(
        frames_after > 0,
        "no frames ran after the swap at {swap_tick}"
    );
}

#[test]
fn scale_down_removes_the_quarantined_shard_cleanly() {
    assert_all_pass(&explore(&scale_down_while_quarantined(), SEEDS));
    let run = run_scenario(&scale_down_while_quarantined(), 10);
    assert!(run.passed(), "{:?}", run.violations);
    let quarantined_at = run
        .trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::Quarantine {
                tick,
                shard: 1,
                on: true,
            } => Some(*tick),
            _ => None,
        })
        .expect("the dead shard quarantines");
    let removed_at = run
        .trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::ShardRemoved { tick, shard: 1 } => Some(*tick),
            _ => None,
        })
        .expect("the sick shard is removed");
    assert!(
        quarantined_at < removed_at,
        "removal races quarantine the right way round"
    );
    assert_eq!(run.snapshot.in_flight, 0, "the drain completes");
}

#[test]
fn slo_controller_holds_the_limit_inside_the_policy_band() {
    assert_all_pass(&explore(&slo_shed_burst(), SEEDS));
    let run = run_scenario(&slo_shed_burst(), 12);
    assert!(run.passed(), "{:?}", run.violations);
    let limits: Vec<usize> = run
        .trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SloAdjust { limit, .. } => Some(*limit),
            _ => None,
        })
        .collect();
    assert!(!limits.is_empty(), "the controller never adjusted");
    assert!(
        limits.iter().all(|&l| (4..=64).contains(&l)),
        "limit left the policy band: {limits:?}"
    );
    // The burst overloads two capacity-8 rings under Reject: shedding
    // (admission cap or full ring) absorbs the overload, and the ledger
    // still balances — conservation was checked every tick above.
    assert!(run.snapshot.totals().rejected > 0, "nothing was shed");
}

#[test]
fn reconfig_runs_replay_bit_for_bit() {
    for scenario in simtest::reconfig_catalogue() {
        let a = run_scenario(&scenario, 42);
        let b = run_scenario(&scenario, 42);
        assert_eq!(a.trace, b.trace, "{} diverged under seed 42", scenario.name);
    }
}

/// An arbitrary seeded control-plane schedule: 3–6 events drawn from
/// add / remove / swap (plus admission retargets when the scenario is
/// not lossless), at strictly increasing ticks. Operations the control
/// plane refuses are skipped silently, so every draw is a valid
/// schedule.
fn random_reconfig_scenario(seed: u64, backpressure: Backpressure) -> Scenario {
    let mut s = resize_under_drain();
    s.name = format!("random-reconfig-{seed}");
    s.config.backpressure = backpressure;
    s.lossless = backpressure == Backpressure::Block;
    let mut rng = SplitMix64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let events = 3 + (rng.next_u64() % 4) as usize;
    let mut tick = 0u64;
    s.reconfig = (0..events)
        .map(|_| {
            tick += 3 + rng.next_u64() % 18;
            let choices = if s.lossless { 3 } else { 4 };
            let action = match rng.next_u64() % choices {
                0 => ReconfigAction::AddShard,
                1 => ReconfigAction::RemoveShard {
                    shard: (rng.next_u64() % s.config.max_shards as u64) as usize,
                },
                2 => ReconfigAction::SwapSwitch {
                    switch: swap_target_switch(),
                },
                // Admission retargets reject messages, so they are only
                // drawn for scenarios without the lossless oracle.
                _ => ReconfigAction::SetAdmissionLimit {
                    limit: match rng.next_u64() % 3 {
                        0 => None,
                        _ => Some(4 + (rng.next_u64() % 61) as usize),
                    },
                },
            };
            SimReconfigEvent {
                at_tick: tick,
                action,
            }
        })
        .collect();
    s
}

/// Conservation + liveness over arbitrary reconfig schedules: 100 seeds
/// x 3 backpressure policies, each run through the full oracle set (and
/// the lossless delivery oracle under blocking backpressure — elastic
/// resizing loses nothing no matter the schedule).
#[test]
fn arbitrary_reconfig_schedules_conserve_under_every_policy() {
    for policy in [
        Backpressure::Block,
        Backpressure::ShedOldest,
        Backpressure::Reject,
    ] {
        for seed in 1..=100u64 {
            let scenario = random_reconfig_scenario(seed, policy);
            let report = explore(&scenario, [seed]);
            assert!(
                report.passed(),
                "{policy:?} seed {seed} failed: {:?}",
                report.failures[0].violations
            );
        }
    }
}

//! Integration: bit-serial frames through real multichip switches, with
//! gate-level cross-checks of the data path.

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::spec::ConcentratorSwitch;
use concentrator::{ColumnsortSwitch, Hyperconcentrator};
use switchsim::traffic::{generate, tick_frames};
use switchsim::{simulate_frame, ConcentrationStage, CongestionPolicy, Message, TraceModel};

/// `ticks` Bernoulli(`p`) frames over `n` processors, two-byte payloads.
fn bernoulli(p: f64, n: usize, ticks: u64, seed: u64) -> Vec<Vec<Message>> {
    tick_frames(
        &generate(TraceModel::Bernoulli { p }, n, ticks, 1, seed),
        n,
        ticks,
    )
}

#[test]
fn payloads_survive_the_revsort_switch() {
    let switch = RevsortSwitch::new(64, 48, RevsortLayout::ThreeDee);
    let offered: Vec<Message> = (0..30)
        .map(|i| {
            Message::new(
                i as u64,
                (i * 7 + 2) % 64,
                vec![i as u8, (i * 3) as u8, 0xC3],
            )
        })
        .collect();
    let outcome = simulate_frame(&switch, &offered);
    assert_eq!(outcome.delivered.len(), 30);
    assert!(outcome.payloads_intact(&offered));
    // Every delivered message's output is within m and unique.
    let mut outputs: Vec<usize> = outcome.delivered.iter().map(|&(o, _)| o).collect();
    outputs.sort_unstable();
    outputs.dedup();
    assert_eq!(outputs.len(), 30);
    assert!(outputs.iter().all(|&o| o < 48));
}

#[test]
fn gate_level_datapath_matches_frame_simulation() {
    // Stream a frame through the hyperconcentrator's data-path *netlist*
    // cycle by cycle and compare with the message-level frame simulator.
    let n = 16;
    let chip = Hyperconcentrator::new(n);
    let datapath = chip.build_datapath_netlist();
    let offered: Vec<Message> = [(2usize, 0xA5u8), (5, 0x3C), (9, 0xFF), (14, 0x01)]
        .iter()
        .map(|&(src, byte)| Message::new(src as u64, src, vec![byte]))
        .collect();
    let outcome = simulate_frame(&chip, &offered);

    let valid: Vec<bool> = (0..n)
        .map(|i| offered.iter().any(|m| m.source == i))
        .collect();
    for cycle in 0..8 {
        // Inputs: valid bits held, plus this cycle's data bit per wire.
        let mut inputs = valid.clone();
        for i in 0..n {
            let bit = offered
                .iter()
                .find(|m| m.source == i)
                .map(|m| m.bit(cycle))
                .unwrap_or(false);
            inputs.push(bit);
        }
        let out = datapath.eval(&inputs);
        let (_vout, dout) = out.split_at(n);
        for (output_wire, message) in &outcome.delivered {
            assert_eq!(
                dout[*output_wire],
                message.bit(cycle),
                "cycle {cycle}: output {output_wire} bit mismatch"
            );
        }
    }
}

#[test]
fn stage_statistics_are_consistent_over_long_runs() {
    let switch = ColumnsortSwitch::new(32, 4, 64);
    for policy in [
        CongestionPolicy::Drop,
        CongestionPolicy::InputBuffer { capacity: 4 },
        CongestionPolicy::AckResend { max_retries: 2 },
    ] {
        let mut stage = ConcentrationStage::new(&switch, policy);
        let report = stage.run(bernoulli(0.7, 128, 500, 0xEE));
        assert_eq!(
            report.stats.offered,
            report.stats.delivered + report.stats.dropped + report.in_flight,
            "conservation under {policy:?}"
        );
        assert!(report.stats.throughput() <= switch.outputs() as f64);
        assert!(report.stats.delivery_ratio() > 0.0);
    }
}

#[test]
fn under_capacity_traffic_never_drops_regardless_of_policy() {
    // ε = 9 at s = 4, m = 96 ⇒ capacity 87; offer ~32/frame.
    let switch = ColumnsortSwitch::new(32, 4, 96);
    assert!(switch.guaranteed_capacity() >= 87);
    for policy in [
        CongestionPolicy::Drop,
        CongestionPolicy::AckResend { max_retries: 1 },
    ] {
        let mut stage = ConcentrationStage::new(&switch, policy);
        let report = stage.run(bernoulli(0.25, 128, 300, 0x77));
        assert_eq!(report.stats.dropped, 0, "policy {policy:?}");
        assert_eq!(
            report.stats.delivered + report.in_flight,
            report.stats.offered
        );
    }
}

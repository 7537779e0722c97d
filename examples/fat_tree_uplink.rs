//! A concentration tree — the up-link path of the "fat-tree with
//! constant-sized switches" work this paper sat beside at MIT (see the
//! surrounding 1987 VLSI report): many processors funnel messages toward
//! a narrow set of shared ports through levels of combinational partial
//! concentrator switches, all within one frame.
//!
//! 512 processors → groups of 32 onto 16 wires (β = 3/4 Columnsort
//! switches) → … → 32 root ports.
//!
//! Run with: `cargo run --release --example fat_tree_uplink`

use concentrator::spec::ConcentratorSwitch;
use concentrator::ColumnsortSwitch;
use switchsim::traffic::{generate, tick_frames};
use switchsim::{regular_tree, ConcentrationStage, CongestionPolicy, TraceModel};

fn main() {
    let n = 512;
    let net = regular_tree(n, 32, 16, 32, |ins, outs| {
        debug_assert_eq!(ins, 32);
        // 8×4 mesh: ε = 9; a 32→16 partial concentrator per group.
        Box::new(ColumnsortSwitch::new(8, 4, outs))
    });
    println!(
        "concentration tree: {} processors -> {} ports, {} levels ({:?} wires), {} switches\n",
        net.inputs(),
        net.outputs(),
        net.depth(),
        net.level_widths(),
        net.switch_count()
    );

    println!(
        "{:>6}  {:>9}  {:>9}  {:>10}  {:>10}",
        "load", "offered", "delivered", "ratio", "mean wait"
    );
    for load in [0.01, 0.03, 0.05, 0.08, 0.12, 0.2] {
        let traffic = generate(TraceModel::Bernoulli { p: load }, n, 300, 2, 0xFA7);
        let mut stage =
            ConcentrationStage::new(&net, CongestionPolicy::InputBuffer { capacity: 8 });
        let report = stage.run(tick_frames(&traffic, n, 300));
        println!(
            "{:>6.2}  {:>9}  {:>9}  {:>9.1}%  {:>10.2}",
            load,
            report.stats.offered,
            report.stats.delivered,
            100.0 * report.stats.delivery_ratio(),
            report.stats.mean_wait()
        );
    }

    println!(
        "\nthe knee sits where offered load crosses the root's {} ports per\n\
         frame ({}/512 ≈ {:.2} per-processor load): below it the combinational\n\
         cascade delivers everything with zero queueing — no setup cycles, no\n\
         latched state, exactly the property §1 argues for.",
        net.outputs(),
        net.outputs(),
        net.outputs() as f64 / n as f64
    );
}

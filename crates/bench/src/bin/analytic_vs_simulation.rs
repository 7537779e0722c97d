//! **Extension experiment**: analytical loss model vs simulation.
//!
//! The VLSI report this memo appeared in holds simulators to a standard —
//! "an analytical model … that agrees with network simulation results to
//! within 5%" (its k-ary n-cube study). We hold our concentration-stage
//! simulator to the same standard: under Bernoulli offers and the drop
//! policy the stage is memoryless, so an exact binomial model over the
//! switch's delivery curve must match the simulator across the whole load
//! range.

use bench::{banner, TextTable};
use concentrator::ColumnsortSwitch;
use switchsim::traffic::{generate, tick_frames};
use switchsim::{
    measure_delivery_curve, predict_drop, ConcentrationStage, CongestionPolicy, TraceModel,
};

fn main() {
    banner(
        "Analytical drop-policy model vs simulation (must agree within 5%)",
        "methodology standard of the surrounding 1987 report (k-ary n-cube study)",
    );
    let n = 64;
    let switch = ColumnsortSwitch::new(16, 4, 16);
    let curve = measure_delivery_curve(&switch, 120, 0x40DE);
    println!(
        "switch: {} (guaranteed capacity {})\n",
        switch.staged().name,
        concentrator::spec::ConcentratorSwitch::guaranteed_capacity(&switch)
    );

    let mut t = TextTable::new([
        "load p",
        "model delivered/frame",
        "simulated",
        "relative error",
        "within 5%",
    ]);
    let mut worst = 0.0f64;
    for &p in &[0.05f64, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9] {
        let prediction = predict_drop(n, p, |k| curve[k].round() as usize);
        let traffic = generate(TraceModel::Bernoulli { p }, n, 6000, 0, 0x51D);
        let mut stage = ConcentrationStage::new(&switch, CongestionPolicy::Drop);
        let report = stage.run(tick_frames(&traffic, n, 6000));
        let simulated = report.stats.delivered as f64 / report.stats.frames as f64;
        let relative = (simulated - prediction.delivered_per_frame).abs() / simulated.max(1e-9);
        worst = worst.max(relative);
        t.row([
            format!("{p:.2}"),
            format!("{:.2}", prediction.delivered_per_frame),
            format!("{simulated:.2}"),
            format!("{:.2}%", relative * 100.0),
            (relative < 0.05).to_string(),
        ]);
        assert!(relative < 0.05, "model and simulation diverged at p = {p}");
    }
    t.print();
    println!(
        "\nworst relative error across the sweep: {:.2}% (< 5%)",
        worst * 100.0
    );
}

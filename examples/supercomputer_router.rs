//! The paper's motivating scenario (§1): a parallel supercomputer's
//! routing network, where many processors occasionally send bit-serial
//! messages toward a narrower shared resource — here, 256 processors
//! concentrated onto 64 memory-module ports.
//!
//! The example sweeps offered load across the switch's guaranteed capacity
//! and compares the three congestion-control policies §1 lists as
//! compatible with these switches.
//!
//! Run with: `cargo run --release --example supercomputer_router`

use concentrator::spec::ConcentratorSwitch;
use concentrator::ColumnsortSwitch;
use switchsim::traffic::{generate, tick_frames};
use switchsim::{ConcentrationStage, CongestionPolicy, TraceModel};

fn main() {
    let n = 256;
    let m = 64;
    // β = 3/4 Columnsort switch: r = 64, s = 4, ε = (s−1)² = 9, so the
    // guaranteed capacity is a meaningful m − 9 = 55 messages per frame.
    let switch = ColumnsortSwitch::new(64, 4, m);
    println!(
        "routing stage: {} processors -> {} memory ports, guaranteed capacity {} \
         messages/frame\n",
        n,
        m,
        switch.guaranteed_capacity()
    );

    let policies = [
        ("drop", CongestionPolicy::Drop),
        ("buffer(16)", CongestionPolicy::InputBuffer { capacity: 16 }),
        (
            "ack-resend(4)",
            CongestionPolicy::AckResend { max_retries: 4 },
        ),
    ];

    println!(
        "{:>6}  {:>13}  {:>10}  {:>9}  {:>10}  {:>9}",
        "load", "policy", "delivered", "lost", "mean wait", "retries"
    );
    for load in [0.05, 0.15, 0.25, 0.35, 0.5] {
        for (name, policy) in policies {
            let model = TraceModel::mmpp_from_bursty(load, 6.0);
            let traffic = generate(model, n, 400, 3, 0xACE); // 64-bit payloads
            let mut stage = ConcentrationStage::new(&switch, policy);
            let report = stage.run(tick_frames(&traffic, n, 400));
            println!(
                "{:>6.2}  {:>13}  {:>9.1}%  {:>8.1}%  {:>10.2}  {:>9}",
                load,
                name,
                100.0 * report.stats.delivery_ratio(),
                100.0 * report.stats.loss_ratio(),
                report.stats.mean_wait(),
                report.stats.retries
            );
        }
        println!();
    }

    println!(
        "reading: below the guaranteed capacity (load ≲ {:.2}) every policy\n\
         delivers everything — the concentration guarantee makes congestion\n\
         control irrelevant. Past it, buffering and resending trade latency\n\
         and retries for delivery, exactly the §1 trade-off.",
        switch.guaranteed_capacity() as f64 / n as f64
    );
}

//! Clocked bit-serial message routing through concentrator switches.
//!
//! §2 of the paper fixes the message format the switches route: "each
//! message is formed by a stream of bits arriving at a wire at the rate of
//! one bit per clock cycle. The first bit of each message that arrives at
//! an input wire is the valid bit … The valid bits all arrive at the input
//! wires of a switch during the same clock cycle, which we call *setup* …
//! Message bits entering through input wires at cycles after setup follow
//! the electrical paths in the switch that are established during setup."
//!
//! This crate simulates exactly that discipline:
//!
//! * [`message`] — bit-serial messages (valid bit + payload);
//! * [`frame`] — one routing frame: setup, then payload cycles along the
//!   frozen paths;
//! * [`congestion`] — what happens to unsuccessfully routed messages:
//!   "to buffer them, to misroute them, or to simply drop them and rely on
//!   a higher-level acknowledgment protocol" (§1);
//! * [`traffic`] — synthetic workloads (the paper's parallel-
//!   supercomputer sources, which we must synthesize): trace models, the
//!   generator that plays them, and the one lowering of a trace into
//!   per-tick message frames;
//! * [`network`] — an end-to-end concentration stage with statistics.

pub mod analytic;
pub mod congestion;
pub mod deflection;
pub mod fairness;
pub mod frame;
pub mod message;
pub mod multistage;
pub mod network;
pub mod stats;
pub mod traffic;
pub mod vcd;

pub use analytic::{binomial_pmf, measure_delivery_curve, predict_drop, DropModelPrediction};
pub use congestion::CongestionPolicy;
pub use deflection::{DeflectionStage, DeflectionStats};
pub use fairness::{measure_fairness, FairnessReport, RotatingSwitch};
pub use frame::{simulate_frame, FrameOutcome};
pub use message::Message;
pub use multistage::{regular_tree, MultistageNetwork};
pub use network::{ConcentrationStage, SimulationReport};
pub use stats::Stats;
pub use traffic::{mix64, TraceModel, ZipfSampler};
pub use vcd::{frame_vcd, VcdBuilder};

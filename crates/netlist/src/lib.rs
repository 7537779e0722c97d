//! Gate-level combinational circuit substrate.
//!
//! The switches in Cormen's *Efficient Multichip Partial Concentrator
//! Switches* (MIT-LCS-TM-322, 1987) are combinational circuits whose cost is
//! reported in **gate delays** and whose area is dominated by wide AND/OR
//! structures realizable in ratioed nMOS or domino CMOS. This crate models
//! exactly that technology:
//!
//! * gates have **unbounded fan-in** (a wide nMOS NOR is one gate delay),
//! * complemented inputs are **free** (dual-rail signalling), expressed as
//!   [`Literal`]s carrying an inversion flag rather than as inverter gates,
//! * delay is counted in **levels** of AND/OR/XOR logic, and
//! * area is counted in gates, literals (transistor proxy), and wiring
//!   tracks.
//!
//! Netlists are built in SSA style: a wire is driven exactly once and every
//! gate may only read wires that already exist, so the gate list is a valid
//! topological order by construction and evaluation is a single linear pass.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, Literal};
//!
//! // out = (a AND NOT b) OR c  — two levels, complements free.
//! let mut nl = Netlist::new();
//! let a = nl.input();
//! let b = nl.input();
//! let c = nl.input();
//! let t = nl.and([Literal::pos(a), Literal::neg(b)]);
//! let out = nl.or([t, Literal::pos(c)]);
//! nl.mark_output(out);
//! assert_eq!(nl.depth(), 2);
//! assert_eq!(nl.eval(&[true, false, false]), vec![true]);
//! ```

mod builder;
mod compile;
mod depth;
mod eval;
mod fold;
mod gate;
mod insn;
pub mod json;
mod matrix;
mod partition;
mod stats;
mod verilog;
mod wire;

pub use builder::Netlist;
pub use compile::{lane_group, sweep_threads, CompiledNetlist, EvalScratch, DEFAULT_CHIPS};
pub use depth::DepthReport;
pub use eval::{BitBlock, WORD_BITS};
pub use gate::{Gate, GateKind};
pub use matrix::{transpose64, BitMatrix};
pub use partition::PartitionReport;
pub use stats::AreaReport;
pub use wire::{Literal, Wire};

//! Concentrator switches: the primary contribution of Cormen's *Efficient
//! Multichip Partial Concentrator Switches* (MIT-LCS-TM-322, 1987).
//!
//! A **perfect concentrator switch** routes as many of its `k` incoming
//! messages as possible onto `m ≤ n` output wires; a **hyperconcentrator**
//! routes any `k` valid inputs to its *first* `k` outputs; an
//! **(n, m, α) partial concentrator** guarantees full routing only up to
//! `αm` messages, in exchange for dramatically cheaper multichip
//! realizations.
//!
//! This crate provides:
//!
//! * [`hyper`] — the single-chip n-by-n hyperconcentrator building block
//!   (Cormen–Leiserson 1986): a stable compactor with exactly `2⌈lg n⌉`
//!   gate delays and `Θ(n²)` gates, both as a fast functional model and as
//!   a [`netlist::Netlist`];
//! * [`staged`] — a generic multichip switch engine: stages of identical
//!   chips joined by fixed wiring permutations, with message-level routing,
//!   gate-level elaboration, and delay accounting;
//! * [`revsort_switch`] — the three-stage `(n, m, 1 − O(n^{3/4}/m))`
//!   switch of §4 (Theorem 3), simulating Algorithm 1 of Revsort;
//! * [`columnsort_switch`] — the two-stage `(n, m, 1 − (s−1)²/m)` switch
//!   of §5 (Theorem 4), simulating Columnsort steps 1–3;
//! * [`full_revsort`] / [`full_columnsort`] — the §6 multichip
//!   *hyper*concentrators that simulate the complete sorting algorithms;
//! * [`barrel`] — the hardwired barrel-shifter boards of Figure 4;
//! * [`packaging`] — chips/boards/stacks/volume resource accounting
//!   reproducing Table 1 and Figures 4, 7, 8;
//! * [`spec`] — the switch traits and mechanical verifiers for the
//!   concentration properties.

pub mod barrel;
pub mod cellular;
pub mod clock;
pub mod columnsort_switch;
pub mod elab;
pub mod faults;
pub mod full_columnsort;
pub mod full_revsort;
pub mod geometry;
pub mod hyper;
pub mod layout;
pub mod packaging;
pub mod prefix_butterfly;
pub mod revsort_switch;
pub mod search;
pub mod spec;
pub mod staged;
pub mod timing;
pub mod verify;

pub use cellular::CellularCompactor;
pub use clock::{Clock, VirtualClock, WallClock};
pub use columnsort_switch::ColumnsortSwitch;
pub use elab::Elaboration;
pub use full_columnsort::FullColumnsortHyperconcentrator;
pub use full_revsort::FullRevsortHyperconcentrator;
pub use hyper::Hyperconcentrator;
pub use prefix_butterfly::PrefixButterflyHyperconcentrator;
pub use revsort_switch::RevsortSwitch;
pub use spec::{ConcentratorKind, ConcentratorSwitch, Routing};
pub use staged::{ChipProgram, ChipScratch, StagedSwitch, SwitchStage};

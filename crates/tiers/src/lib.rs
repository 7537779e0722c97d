//! `tiers` — a hierarchical fabric-of-fabrics for datacenter-scale
//! serving.
//!
//! One [`fabric::FabricService`] serves one switch's `n` inputs; the
//! north-star workload ("heavy traffic from millions of users") needs a
//! *tree*. This crate composes fabrics into tiers: external traffic is
//! source-hashed onto **leaf** fabrics (tier 0), whose deliveries are
//! concentrated onto progressively fewer, higher-capacity fabrics until
//! the **spine** — in the reference geometries a full-Columnsort or
//! full-Revsort hyperconcentrator (the paper's §6 constructions, served
//! through the same shared elaboration cache as everything else).
//!
//! The pieces:
//!
//! * [`TierTopology`] — the tree's shape: per-tier fabric counts,
//!   shared switches, configs, and the fixed inter-tier wire map.
//! * [`TierCore`] / [`TierWorker`] — the data plane: per-fabric
//!   [`fabric::ServiceCore`]s joined by valid/ready links with credit
//!   backpressure; each worker below the spine owns its fabric's link,
//!   the one copy of the inter-tier wire map.
//! * [`TreeDriver`] — the run state every cooperative schedule shares:
//!   workers, external producers and their parked retries, the cascaded
//!   close rule, ledger and snapshot. [`drive_tree`] is its fixed
//!   round-robin schedule (the conservation matrix and bench determinism
//!   assertions), `simtest`'s tree simulator its seeded one. Like
//!   [`fabric::drive_sync`], `drive_tree` takes the shared
//!   `(tick, Vec<Message>)` frames of [`fabric::LoadPlan::frames`] and
//!   [`fabric::trace::frames`].
//! * [`TierService`] — the threaded tree: a thread per worker looping
//!   [`TierWorker::step_blocking`], cascaded drain.
//!
//! The invariant everything preserves, end to end:
//!
//! ```text
//! offered_external = delivered_spine + Σ rejected + Σ shed
//!                  + Σ retry_dropped + Σ in_flight + Σ held_on_links
//! ```
//!
//! checked live every simulator tick ([`tree_ledger`]) and exactly at
//! drain ([`TreeSnapshot::conserved_end_to_end`]).

pub mod bench;
pub mod core;
pub mod service;
pub mod snapshot;
pub mod sync;
pub mod topology;

pub use crate::core::{
    pick_downstream, tree_ledger, tree_snapshot, TierCore, TierStep, TierSubmit, TierWorker,
};
pub use bench::{
    reference_tree, run_tree_bench, slowest_single_spine, TierBenchOptions, TierThroughput,
    TreeBenchReport,
};
pub use service::{TierReport, TierService};
pub use snapshot::{TreeLedger, TreeSnapshot};
pub use sync::{drive_tree, TreeDriver, TreeReport};
pub use topology::{TierSpec, TierTopology};

//! `fabric` — a sharded, batching concentrator-switch serving engine.
//!
//! The crates below this one answer "how do we build and evaluate one
//! partial concentrator switch"; `fabric` answers "how do we *serve*
//! one". Routing requests ([`switchsim::Message`]) are submitted to a
//! fabric, placed on a shard ([`Placement`]), admitted or refused
//! ([`FabricConfig::admission_limit`], [`Backpressure`]), and then
//! coalesced: each shard packs its pending requests one-per-input-wire
//! into a single routing frame, routes the batch through the shared
//! [`concentrator::StagedSwitch`], and streams every payload bit
//! through the *compiled* datapath netlist, 64 payload cycles per lane
//! word. One SWAR sweep thus moves a bit-cycle of up to `n` messages —
//! the batching win the `fabric_bench` harness measures against a
//! one-request-per-sweep baseline. A worker with a small backlog and an
//! empty ring routes several frames back to back and moves all their
//! lane words in one 64/256/512-lane group sweep
//! (`netlist::CompiledNetlist::eval_words_into`; see
//! [`Shard::run_frames`]).
//!
//! Losers of output contention are retried under a [`RetryBudget`]
//! (wire-compatible with [`switchsim::CongestionPolicy`] semantics),
//! and every shard keeps a [`ShardMetrics`] ledger — counters plus
//! log-bucketed wait histograms — that snapshots to JSON.
//!
//! One engine serves every mode: a [`ServiceCore`] (placement,
//! admission, backpressure, quarantine steering) and one [`WorkerCore`]
//! per shard around the shard executor ([`Shard`]). Two schedules drive
//! it:
//!
//! * [`Fabric`] — synchronous and single-threaded: a fixed round-robin
//!   schedule over the cores, so every counter is a pure function of the
//!   submission order and runs are bit-reproducible.
//! * [`FabricService`] — one worker thread per shard behind bounded
//!   [`IngressQueue`]s; producers get real blocking backpressure, and
//!   drain is graceful (close, finish backlogs, join, merge metrics).
//!
//! Both schedules are fault-aware: chip faults
//! ([`concentrator::faults::ChipFault`]) can be injected on a shard
//! mid-run (`inject_faults`), which swaps the shard onto a faulted chip
//! program: the same compiled chips, with the faults lowered into its
//! gathers. A per-shard delivery-health EWMA
//! ([`HealthPolicy`]) compares delivered counts against the analytic
//! capacity bound, quarantines degraded shards (placement steers new
//! traffic to healthy ones while the sick shard drains its backlog),
//! and recovers them with hysteresis once repaired.
//!
//! The service is also *elastic* ([`reconfig`]): shards can be added
//! and removed live, a recompiled switch can be hot-swapped under a
//! two-phase epoch handoff, and an [`SloController`] can retarget the
//! global admission limit from live wait histograms — all without
//! violating the ledger.
//!
//! The conservation identity both schedules guarantee at drain:
//!
//! ```text
//! offered = delivered + rejected + shed + retry_dropped + in_flight
//! ```

pub mod config;
pub mod engine;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod reconfig;
pub mod scaling;
pub mod service;
pub mod shard;
pub mod trace;

pub use concentrator::clock::{Clock, VirtualClock, WallClock};
pub use config::{Backpressure, FabricConfig, HealthPolicy, Placement, RetryBudget};
pub use engine::{Fabric, SubmitOutcome};
pub use loadgen::{drive_service, drive_sync, one_per_tick, DriveReport, FaultEvent, LoadPlan};
pub use metrics::{FabricSnapshot, LogHistogram, ShardMetrics};
pub use queue::{BatchPush, IngressQueue};
pub use reconfig::{LaneState, SloController, SloDecision, SloPolicy};
pub use scaling::{ladder, ScalingLadder, ScalingPoint, ShardScaling};
pub use service::{
    BatchSubmit, FabricReport, FabricService, ServiceCore, SubmitStep, WorkerCore, WorkerStep,
};
pub use shard::{Delivery, FrameRun, Shard};
pub use trace::{
    adversarial_trace, AdversarialPlan, SourceSpace, Trace, TraceCursor, TraceError, TraceFlavor,
    TraceModel, TraceReader, TraceRecord, TraceWriter,
};
// The message type producers submit, re-exported so layered consumers
// (the tier tree) can name the whole serving seam from one crate.
pub use switchsim::Message;

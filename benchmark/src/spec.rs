//! The workloads and the metrics the benchmark reports. `BENCHMARK.json`
//! at the repository root lists the same names; a test keeps the two in
//! step.

use fabric::trace::TraceModel;

use crate::serving::{Pacing, ServingSpec};
use crate::tree::TreeSpec;
use crate::verify::VerifySpec;

pub enum Shape {
    Serving(ServingSpec),
    Tree(TreeSpec),
    Verify(VerifySpec),
}

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

/// Every workload, in the order `run` interleaves them.
///
/// Each trace is one round's pass and is kept short, from a few
/// hundredths to a quarter of a second: the host's speed changes in
/// phases down to a fraction of a second, and the fastest of many short
/// rounds repeats from run to run far better than the fastest of a few
/// long ones.
///
/// There is no overload workload. One that sheds (ShedOldest with a
/// retry budget) drops messages by design, and no workload may fail
/// operations. A closed loop that keeps the 64-port switch saturated
/// behind a 512-message window has its median latency set by which of its
/// two threads the host happens to run faster: about 40 µs on one host,
/// where the worker kept the backlog short, and 260 µs on another, where
/// the backlog sat at the window.
pub fn workloads() -> Vec<Workload> {
    vec![
        // Full frames of the largest switch: the datapath sweep dominates
        // a frame and admission is amortised over 512 messages a tick.
        // The window keeps about two ticks in flight.
        Workload {
            name: "bulk-1024",
            shape: Shape::Serving(ServingSpec {
                n: 1024,
                m: 512,
                model: TraceModel::Bernoulli { p: 0.5 },
                ticks: 75,
                size_class: 3,
                pacing: Pacing::Closed { window: 1024 },
                queue_capacity: 1024,
            }),
        },
        // Small frames well below saturation on a fixed schedule:
        // per-message admission, ring hand-off, wake-up and fixed
        // per-frame costs set the latency. Its throughput is the offered
        // rate whenever the program keeps up, so latency is what tracks
        // the program here. Once the worker falls behind, every frame
        // rescans the growing pending queue and it never catches up, so
        // the offered rate keeps a wide margin: a 40 µs tick, about 2.5×
        // below where the worker fell behind, collapsed whole runs to 40k
        // msgs/s when the host slowed down.
        Workload {
            name: "open-64",
            shape: Shape::Serving(ServingSpec {
                n: 64,
                m: 32,
                model: TraceModel::mmpp_from_bursty(0.15, 4.0),
                ticks: 4_250,
                size_class: 0,
                pacing: Pacing::Open { tick_ns: 60_000 },
                queue_capacity: 64,
            }),
        },
        // Near-empty leaf frames and many inter-tier forwards: per-frame
        // overhead and link forwarding dominate, the big sweep does not.
        Workload {
            name: "tree-zipf",
            shape: Shape::Tree(TreeSpec {
                sources: 2048,
                model: TraceModel::ZipfPopulation {
                    p: 0.6,
                    population: 2_000_000,
                    exponent: 1.4,
                },
                ticks: 25,
                size_class: 3,
            }),
        },
        // The paper's central quantity, measured without the fabric.
        Workload {
            name: "verify-1024",
            shape: Shape::Verify(VerifySpec {
                n: 1024,
                m: 512,
                trials: 5_000,
            }),
        },
    ]
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by untraced runs, for every workload.
pub const END_TO_END: [Metric; 4] = [
    metric("setup_s", "s", "lower"),
    metric("items_per_s", "1/s", "higher"),
    metric("latency_p50_us", "us", "lower"),
    metric("peak_rss_mb", "MiB", "lower"),
];

/// Printed by traced runs, for every workload.
pub const PER_LAYER: [Metric; 14] = [
    metric("latency_p99_us", "us", "lower"),
    metric("concentrator.elab.compile_s", "s", "lower"),
    metric("netlist.compile.insns", "count", "lower"),
    metric("netlist.compile.sweep_ns_per_word", "ns", "lower"),
    metric("netlist.compile.items_per_sweep", "count", "higher"),
    metric("pipeline.input_ns_per_item", "ns", "lower"),
    metric("pipeline.control_ns_per_item", "ns", "lower"),
    metric("pipeline.datapath_ns_per_item", "ns", "lower"),
    metric("pipeline.other_ns_per_item", "ns", "lower"),
    metric("pipeline.busy_ns_per_item", "ns", "lower"),
    metric("fabric.shard.max_pending", "count", "lower"),
    metric("fabric.shard.retries", "count", "lower"),
    metric("fabric.service.parked_frac", "ratio", "lower"),
    metric("tiers.link.forward_stalls", "count", "lower"),
];

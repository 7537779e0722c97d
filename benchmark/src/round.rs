//! What one round of a workload yields, and the pieces every serving
//! workload shares: payload fingerprints, the delivery ledger, and
//! outside-in re-execution of recorded frames.

use std::collections::BTreeMap;
use std::hint::black_box;

use concentrator::spec::ConcentratorSwitch;
use concentrator::StagedSwitch;

use crate::measure::{best_of, percentile, Clock, Span};

/// What a round measures. Every round sets up from the spec and makes
/// one pass over the whole trace, and every round's outputs are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Set-up time, throughput and latency, on a heap earlier rounds
    /// have warmed.
    Timed,
    /// Peak memory: free heap goes back to the kernel and the peak mark
    /// is reset before set-up, so the round faults its memory in afresh.
    Memory,
    /// Per-layer numbers and spans.
    Traced,
}

/// The result of one round: set-up and one measured pass.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub compile_s: f64,
    pub insns: u64,
    /// Messages delivered, or vectors verified.
    pub items: u64,
    /// Host seconds from the first submit to drain.
    pub active_s: f64,
    /// Messages offered, or vectors checked.
    pub attempted: u64,
    /// Rejected + shed + retry-dropped messages, or failed checks.
    pub failed: u64,
    /// Per-item latency samples, ascending.
    pub latency_ns: Vec<u64>,
    /// Peak-memory growth over set-up and pass (memory rounds only).
    pub peak_rss_mib: f64,
    /// Per-layer numbers (traced rounds only).
    pub layers: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Broken output checks; any entry makes the run fail.
    pub violations: Vec<String>,
    /// Worst ε measured (verify only).
    pub epsilon: Option<usize>,
    /// The CPU the round's busiest thread was pinned to.
    pub lead_cpu: Option<usize>,
}

impl Round {
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / self.active_s
    }

    /// The median latency of the round's items, in µs.
    pub fn latency_p50_us(&self) -> f64 {
        percentile(&self.latency_ns, 50.0) as f64 * 1e-3
    }

    /// The 99th-percentile latency of the round's items, in µs.
    pub fn latency_p99_us(&self) -> f64 {
        percentile(&self.latency_ns, 99.0) as f64 * 1e-3
    }

    /// Record the round's per-item latency samples, sorting them.
    pub fn set_latencies(&mut self, mut samples: Vec<u64>) {
        samples.sort_unstable();
        self.latency_ns = samples;
    }
}

/// A payload of at most eight bytes packed little-endian, which is also
/// the bit order the shard serialises it in (LSB-first per octet).
pub fn fingerprint(payload: &[u8]) -> u64 {
    payload
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (b as u64) << (8 * i))
}

/// Per-message delivery bookkeeping, indexed by message id.
pub struct Ledger {
    pub delivered_at: Vec<u64>,
    pub count: Vec<u8>,
    pub bad_payloads: u64,
}

impl Ledger {
    pub fn new(ids: usize) -> Ledger {
        Ledger {
            delivered_at: vec![0; ids],
            count: vec![0; ids],
            bad_payloads: 0,
        }
    }

    /// Record one delivery at `at`, checking its payload against the
    /// expected fingerprint and length.
    pub fn deliver(&mut self, id: u64, payload: &[u8], at: u64, expected: &Expected) {
        let id = id as usize;
        if id >= self.count.len()
            || payload.len() != expected.bytes
            || fingerprint(payload) != expected.payloads[id]
        {
            self.bad_payloads += 1;
            return;
        }
        self.count[id] = self.count[id].saturating_add(1);
        self.delivered_at[id] = at;
    }

    /// Check that every id of `offered` arrived exactly once, except for
    /// `dropped` of them that never arrived, and that `delivered` agrees.
    pub fn check(
        &self,
        offered: impl Iterator<Item = u64>,
        delivered: u64,
        dropped: u64,
        violations: &mut Vec<String>,
    ) {
        let (mut once, mut missing, mut twice) = (0u64, 0u64, 0u64);
        for id in offered {
            match self.count[id as usize] {
                0 => missing += 1,
                1 => once += 1,
                _ => twice += 1,
            }
        }
        if self.bad_payloads > 0 {
            violations.push(format!(
                "{} deliveries carried a wrong payload or unknown id",
                self.bad_payloads
            ));
        }
        if twice > 0 {
            violations.push(format!("{twice} messages were delivered more than once"));
        }
        if missing != dropped {
            violations.push(format!(
                "{missing} messages never arrived but the fabric dropped {dropped}"
            ));
        }
        if once != delivered {
            violations.push(format!(
                "{once} messages arrived once but the fabric counts {delivered} deliveries"
            ));
        }
    }
}

/// What the program must deliver: each message id's payload fingerprint
/// (`fabric::trace::payload_for(id, bytes)`) and the frame that offers it.
pub struct Expected {
    pub bytes: usize,
    pub payloads: Vec<u64>,
    /// Index of the frame offering each id; `u32::MAX` for records the
    /// trace lowering folded away.
    pub frame_of: Vec<u32>,
}

impl Expected {
    pub fn new(frames: &[(u64, Vec<fabric::Message>)], ids: usize, bytes: usize) -> Expected {
        assert!(bytes <= 8, "payload fingerprints hold at most eight bytes");
        let mut frame_of = vec![u32::MAX; ids];
        for (index, (_, batch)) in frames.iter().enumerate() {
            for message in batch {
                frame_of[message.id as usize] = index as u32;
            }
        }
        let payloads = (0..ids as u64)
            .map(|id| fingerprint(&fabric::trace::payload_for(id, bytes)))
            .collect();
        Expected {
            bytes,
            payloads,
            frame_of,
        }
    }
}

/// Message ids offered by `frames`.
pub fn offered_ids(frames: &[(u64, Vec<fabric::Message>)]) -> impl Iterator<Item = u64> + '_ {
    frames
        .iter()
        .flat_map(|(_, batch)| batch.iter().map(|m| m.id))
}

/// One recorded frame: the `(input wire, payload fingerprint)` of every
/// message the frame offered.
pub type RecordedFrame = Vec<(u32, u64)>;

/// Outside-in cost of the setup routing and the datapath sweeps of
/// recorded frames, measured by re-executing `StagedSwitch::route` and
/// `CompiledNetlist::eval_word_into` (best of
/// [`REEXEC_REPEATS`](crate::measure::REEXEC_REPEATS)) on each
/// frame's valid bits and payload words, exactly as the shard packs them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reexec {
    pub route_ns: u64,
    pub sweep_ns: u64,
    pub sweeps: u64,
}

pub fn reexec_frames(
    switch: &StagedSwitch,
    frames: &[RecordedFrame],
    payload_bits: usize,
    clock: &Clock,
) -> Reexec {
    assert!(payload_bits <= 64, "one sweep per frame");
    let n = switch.n;
    let elab = switch.datapath_logic(false);
    let mut scratch = elab.compiled.scratch();
    let mut word_in = vec![0u64; elab.compiled.input_count()];
    let mut word_out = vec![0u64; elab.compiled.output_count()];
    let mask = if payload_bits == 64 {
        !0
    } else {
        (1u64 << payload_bits) - 1
    };
    let mut out = Reexec::default();
    let mut valid = vec![false; n];
    for frame in frames {
        valid.fill(false);
        word_in.fill(0);
        for &(wire, payload) in frame {
            valid[wire as usize] = true;
            word_in[wire as usize] = mask;
            word_in[n + wire as usize] = payload & mask;
        }
        out.route_ns += best_of(clock, || {
            black_box(switch.route(black_box(&valid)));
        });
        out.sweep_ns += best_of(clock, || {
            elab.compiled
                .eval_word_into(black_box(&word_in), &mut scratch, &mut word_out);
            black_box(&word_out);
        });
        out.sweeps += 1;
    }
    out
}

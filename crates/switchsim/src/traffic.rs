//! Synthetic workloads: replayable traces and the models that generate
//! them.
//!
//! The paper's switches sit in "a parallel supercomputer" whose traffic
//! it never characterizes beyond the load ratio, so every workload here
//! is synthesized, and always the same way. A [`TraceModel`] (Bernoulli,
//! diurnal sinusoid, 2-state MMPP, or a zipf population over a
//! multi-million-user id space) is played by [`generate`] into a
//! [`Trace`]: tick-sorted [`TraceRecord`]s `(virtual arrival tick,
//! external source id, payload size class)` plus a [`SourceSpace`]
//! saying how source ids map onto input wires. [`frames`] lowers a trace
//! into the `(tick, Vec<Message>)` frames every simulator and serving
//! driver consumes: message ids are record indices and payloads a pure
//! hash of the id ([`payload_for`]), so the same trace always produces
//! the same workload. [`tick_frames`] is the same lowering with one
//! element per tick, empty ticks included, the shape the stage
//! simulators step through.
//!
//! The on-disk codecs, the streaming cursor and the adversarial bridge
//! build on this model in `fabric::trace`.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::message::Message;

/// Ranks of the zipf distribution sampled exactly (inverse CDF over a
/// cumulative table); the remaining tail is sampled by inverting the
/// continuous power-law integral. Keeping the table bounded makes
/// generator construction O(1) in the population size.
const ZIPF_HEAD: u64 = 4096;

/// Largest admissible size class (payload `1 << class` bytes ≤ 4 KiB).
pub const MAX_SIZE_CLASS: u8 = 12;

/// How a record's `source` id maps onto switch input wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSpace {
    /// Sources *are* wire indices (taken modulo the wire count). Used by
    /// the adversarial bridge so an attack pattern lands on exactly the
    /// wires the search discovered.
    Wire,
    /// Sources are external user ids over an arbitrarily large space,
    /// hashed onto wires with [`mix64`]; within a tick, later users
    /// landing on an occupied wire fold away (at most one offer per wire
    /// per tick).
    User,
}

impl SourceSpace {
    /// The space's wire-format label (`"wire"` / `"user"`), as written
    /// in JSONL headers and shown by the CLI.
    pub fn label(self) -> &'static str {
        match self {
            SourceSpace::Wire => "wire",
            SourceSpace::User => "user",
        }
    }
}

/// One trace event: source `source` offers one message of size class
/// `size_class` at virtual tick `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual arrival tick (traces are sorted by this, ties allowed).
    pub tick: u64,
    /// External source id, interpreted per the trace's [`SourceSpace`].
    pub source: u64,
    /// Payload size class: the payload is `1 << size_class` bytes.
    pub size_class: u8,
}

impl TraceRecord {
    /// Payload size in bytes for this record's class.
    pub fn payload_bytes(&self) -> usize {
        1usize << self.size_class
    }
}

/// A fully materialized trace: a source space plus tick-sorted records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// How record sources map onto wires.
    pub space: SourceSpace,
    /// The events, sorted by `tick` (ties keep insertion order).
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Build a trace, checking the [`Trace::validate`] invariants.
    pub fn new(space: SourceSpace, records: Vec<TraceRecord>) -> Result<Self, TraceError> {
        let trace = Trace { space, records };
        trace.validate()?;
        Ok(trace)
    }

    /// Check the format invariants: records sorted by tick, every size
    /// class within [`MAX_SIZE_CLASS`].
    pub fn validate(&self) -> Result<(), TraceError> {
        for (index, record) in self.records.iter().enumerate() {
            if record.size_class > MAX_SIZE_CLASS {
                return Err(TraceError::BadSizeClass {
                    index,
                    class: record.size_class,
                });
            }
            if index > 0 && self.records[index - 1].tick > record.tick {
                return Err(TraceError::Unsorted { index });
            }
        }
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Virtual horizon: one past the last record's tick (0 when empty),
    /// saturating at `u64::MAX` for a record at the last tick.
    pub fn ticks(&self) -> u64 {
        self.records.last().map_or(0, |r| r.tick.saturating_add(1))
    }

    /// The prefix of the trace containing at most `limit` records — the
    /// shrinker's truncation knob.
    pub fn truncated(&self, limit: usize) -> Trace {
        Trace {
            space: self.space,
            records: self.records[..limit.min(self.records.len())].to_vec(),
        }
    }

    /// Realized offered load per wire per tick over `wires` inputs
    /// (records divided by the tick-horizon × wire count; an upper bound
    /// in `User` space, where collisions fold).
    pub fn offered_load(&self, wires: usize) -> f64 {
        let cells = self.ticks() as f64 * wires as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.records.len() as f64 / cells
        }
    }
}

/// Everything that can go wrong reading, writing, or validating a trace.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure (message carries the OS detail).
    Io(String),
    /// The file does not start with the `CTRC` magic (and is not JSONL).
    BadMagic,
    /// A binary header with a version this build does not speak.
    BadVersion(u8),
    /// An unknown source-space code or label.
    BadSpace(u8),
    /// The byte stream ends mid-record: `offset` bytes of a partial
    /// record were left over.
    Truncated {
        /// Bytes of the dangling partial record.
        offset: usize,
    },
    /// A JSONL line that does not parse as a record.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// Records out of tick order at `index`.
    Unsorted {
        /// Index of the first record earlier than its predecessor.
        index: usize,
    },
    /// A size class beyond [`MAX_SIZE_CLASS`].
    BadSizeClass {
        /// Index of the offending record.
        index: usize,
        /// The rejected class.
        class: u8,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(detail) => write!(f, "trace i/o error: {detail}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadSpace(code) => write!(f, "unknown source space code {code}"),
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated mid-record ({offset} dangling bytes)")
            }
            TraceError::Corrupt { line, detail } => {
                write!(f, "corrupt trace at line {line}: {detail}")
            }
            TraceError::Unsorted { index } => {
                write!(f, "trace records out of tick order at index {index}")
            }
            TraceError::BadSizeClass { index, class } => {
                write!(
                    f,
                    "record {index} has size class {class} > {MAX_SIZE_CLASS}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(err: std::io::Error) -> Self {
        TraceError::Io(err.to_string())
    }
}

/// A workload model. Every model is played by [`generate`] as a pure
/// function of `(model, sources, ticks, size class, seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceModel {
    /// Each source offers independently with probability `p` per tick —
    /// the memoryless baseline every other model is compared against.
    /// At `p = 1` every source fires every tick: the adversarial pattern
    /// that holds a switch at its congestion bound.
    Bernoulli {
        /// Offer probability per source per tick.
        p: f64,
    },
    /// A sinusoidal rate envelope over the virtual clock: the offer
    /// probability at tick `t` is
    /// `clamp(base + amplitude · sin(2πt / period), 0, 1)` — the
    /// day/night swing of a user-facing service.
    Diurnal {
        /// Mean offer probability (the long-run offered load).
        base: f64,
        /// Peak-to-mean swing.
        amplitude: f64,
        /// Ticks per full cycle.
        period: u64,
    },
    /// A 2-state Markov-modulated process per source: each tick the
    /// source's state chain steps (`on → off` w.p. `on_to_off`,
    /// `off → on` w.p. `off_to_on`), then the source offers with its
    /// state's emission rate. Bursty on/off sources are the corner
    /// `rate_on = 1, rate_off = 0` — see [`TraceModel::mmpp_from_bursty`].
    Mmpp {
        /// Offer probability while *on*.
        rate_on: f64,
        /// Offer probability while *off*.
        rate_off: f64,
        /// Per-tick probability of leaving *on*.
        on_to_off: f64,
        /// Per-tick probability of leaving *off*.
        off_to_on: f64,
    },
    /// A population of distinct users with zipf-distributed activity
    /// ([`ZipfSampler`]): each tick draws `~p·sources` active users;
    /// records carry the *user rank* as the source id (the trace is in
    /// [`SourceSpace::User`]), and wire hashing + collision folding
    /// happen at lowering. Models millions of users funneling into a
    /// concentrator tier without materializing per-user state.
    ZipfPopulation {
        /// Target offered load per wire per tick (upper bound — wire
        /// collisions between users fold at lowering).
        p: f64,
        /// Distinct users in the population.
        population: u64,
        /// Zipf exponent (`0` = uniform; larger = more skew).
        exponent: f64,
    },
}

impl TraceModel {
    /// The long-run offered load per source per tick.
    pub fn offered_load(&self) -> f64 {
        match *self {
            TraceModel::Bernoulli { p } => p,
            TraceModel::Diurnal { base, .. } => base,
            TraceModel::Mmpp {
                rate_on,
                rate_off,
                on_to_off,
                off_to_on,
            } => {
                // Stationary distribution of the 2-state chain.
                let denom = on_to_off + off_to_on;
                if denom == 0.0 {
                    // A frozen chain stays in its start state (off).
                    return rate_off;
                }
                let pi_on = off_to_on / denom;
                pi_on * rate_on + (1.0 - pi_on) * rate_off
            }
            TraceModel::ZipfPopulation { p, .. } => p,
        }
    }

    /// The source space traces of this model are emitted in.
    pub fn space(&self) -> SourceSpace {
        match self {
            TraceModel::ZipfPopulation { .. } => SourceSpace::User,
            _ => SourceSpace::Wire,
        }
    }

    /// The MMPP of a bursty on/off source with long-run load `p` and
    /// bursts of `mean_burst` ticks on average: emission is
    /// all-or-nothing (`rate_on = 1, rate_off = 0`), an *on* source
    /// turns off w.p. `1/mean_burst` per tick, and an *off* source turns
    /// on at the rate that makes the stationary on-fraction `p`.
    pub fn mmpp_from_bursty(p: f64, mean_burst: f64) -> TraceModel {
        let off_rate = 1.0 / mean_burst.max(1.0);
        let on_rate = if p >= 1.0 {
            1.0
        } else {
            (off_rate * p / (1.0 - p)).min(1.0)
        };
        TraceModel::Mmpp {
            rate_on: 1.0,
            rate_off: 0.0,
            on_to_off: off_rate,
            off_to_on: on_rate,
        }
    }
}

/// Generate a trace: play `model` over `sources` sources for `ticks`
/// virtual ticks, stamping every record with `size_class`. A pure
/// function of its arguments — same `(model, sources, ticks, seed)`,
/// same trace, byte for byte.
pub fn generate(model: TraceModel, sources: usize, ticks: u64, size_class: u8, seed: u64) -> Trace {
    assert!(size_class <= MAX_SIZE_CLASS, "size class out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    match model {
        TraceModel::Bernoulli { p } => {
            assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
            for tick in 0..ticks {
                for source in 0..sources as u64 {
                    if rng.random_bool(p) {
                        records.push(TraceRecord {
                            tick,
                            source,
                            size_class,
                        });
                    }
                }
            }
        }
        TraceModel::Diurnal {
            base,
            amplitude,
            period,
        } => {
            assert!(period > 0, "diurnal period must be positive");
            for tick in 0..ticks {
                let phase = std::f64::consts::TAU * (tick % period) as f64 / period as f64;
                let p = (base + amplitude * phase.sin()).clamp(0.0, 1.0);
                for source in 0..sources as u64 {
                    if rng.random_bool(p) {
                        records.push(TraceRecord {
                            tick,
                            source,
                            size_class,
                        });
                    }
                }
            }
        }
        TraceModel::Mmpp {
            rate_on,
            rate_off,
            on_to_off,
            off_to_on,
        } => {
            let unit = 0.0..=1.0;
            assert!(
                unit.contains(&rate_on)
                    && unit.contains(&rate_off)
                    && unit.contains(&on_to_off)
                    && unit.contains(&off_to_on),
                "mmpp parameters must be probabilities"
            );
            let mut on = vec![false; sources];
            for tick in 0..ticks {
                for (source, state) in on.iter_mut().enumerate() {
                    // Step the chain, then emit at the new state's rate,
                    // so a source that turns on offers in the same tick.
                    if *state {
                        if rng.random_bool(on_to_off) {
                            *state = false;
                        }
                    } else if rng.random_bool(off_to_on) {
                        *state = true;
                    }
                    let rate = if *state { rate_on } else { rate_off };
                    if rate > 0.0 && rng.random_bool(rate) {
                        records.push(TraceRecord {
                            tick,
                            source: source as u64,
                            size_class,
                        });
                    }
                }
            }
        }
        TraceModel::ZipfPopulation {
            p,
            population,
            exponent,
        } => {
            assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
            let sampler = ZipfSampler::new(population, exponent);
            for tick in 0..ticks {
                for _ in 0..sources {
                    if !rng.random_bool(p) {
                        continue;
                    }
                    let user = sampler.sample(&mut rng);
                    records.push(TraceRecord {
                        tick,
                        source: user,
                        size_class,
                    });
                }
            }
        }
    }
    Trace {
        space: model.space(),
        records,
    }
}

/// An inverse-CDF sampler for `P(rank) ∝ (rank + 1)^-exponent` over
/// ranks `0..population` (rank 0 is the hottest user). The first
/// `ZIPF_HEAD` (4096) ranks are sampled exactly from a cumulative table; the
/// tail is sampled by inverting the continuous integral of `x^-s`, an
/// approximation that preserves the power-law shape while keeping
/// construction cost independent of the population size.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    population: u64,
    exponent: f64,
    /// Cumulative (unnormalized) weights of ranks `0..head_cdf.len()`.
    head_cdf: Vec<f64>,
    /// Head mass plus the tail integral.
    total: f64,
}

/// `∫ x^-s dx` over `[a, b]`, with the `s = 1` logarithm special case.
fn power_integral(a: f64, b: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-9 {
        (b / a).ln()
    } else {
        (b.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s)
    }
}

/// Solve `∫ t^-s dt = mass` over `[a, x]` for `x`.
fn power_integral_invert(a: f64, mass: f64, s: f64) -> f64 {
    if (s - 1.0).abs() < 1e-9 {
        a * mass.exp()
    } else {
        ((1.0 - s) * mass + a.powf(1.0 - s)).powf(1.0 / (1.0 - s))
    }
}

impl ZipfSampler {
    /// Build a sampler over `population ≥ 1` users with `exponent ≥ 0`.
    pub fn new(population: u64, exponent: f64) -> Self {
        assert!(population >= 1, "zipf population must be at least 1");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf exponent must be finite and non-negative"
        );
        let head = population.min(ZIPF_HEAD);
        let mut head_cdf = Vec::with_capacity(head as usize);
        let mut acc = 0.0f64;
        for rank in 1..=head {
            acc += (rank as f64).powf(-exponent);
            head_cdf.push(acc);
        }
        // Tail mass of ranks head..population via the midpoint-anchored
        // continuous integral (empty when the head covers everyone).
        let tail = if head < population {
            power_integral(head as f64 + 0.5, population as f64 + 0.5, exponent)
        } else {
            0.0
        };
        ZipfSampler {
            population,
            exponent,
            total: acc + tail,
            head_cdf,
        }
    }

    /// Users in the population.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Draw one user rank in `0..population` (0 = hottest).
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = rng.random::<f64>() * self.total;
        let head_mass = *self.head_cdf.last().expect("population >= 1");
        let head = self.head_cdf.len() as u64;
        if u < head_mass || head == self.population {
            let rank = self.head_cdf.partition_point(|&c| c <= u) as u64;
            return rank.min(head - 1);
        }
        let x = power_integral_invert(head as f64 + 0.5, u - head_mass, self.exponent);
        (x.floor() as u64).clamp(head, self.population - 1)
    }
}

/// SplitMix64 finalizer: the user-rank → input-wire hash of
/// [`lower_tick`] and the payload stream of [`payload_for`]. Spreads
/// adjacent ranks (the hottest users) across the wire space.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt folded into the payload hash stream so payload bytes and wire
/// hashes never correlate.
const PAYLOAD_SALT: u64 = 0xC0DE_57AC_E000_0001;

/// The deterministic payload for message id `id`: a SplitMix64 byte
/// stream keyed on the id, so replaying a trace regenerates identical
/// payload bits without storing them.
pub fn payload_for(id: u64, bytes: usize) -> Vec<u8> {
    let mut z = id ^ PAYLOAD_SALT;
    (0..bytes)
        .map(|_| {
            z = mix64(z);
            z as u8
        })
        .collect()
}

/// Lower one tick's records into that tick's frame over `wires` input
/// wires: the one lowering every frame source shares. `first_id` is the
/// trace index of the tick's first record; message ids are record
/// indices and payloads come from [`payload_for`]. A [`SourceSpace::Wire`]
/// source lands on wire `source mod wires`; a [`SourceSpace::User`]
/// source on its [`mix64`] hash, and a user hashing onto a wire already
/// taken this tick folds away (it still consumes its id, so ids stay
/// record indices).
pub fn lower_tick(
    records: &[TraceRecord],
    space: SourceSpace,
    wires: usize,
    first_id: u64,
) -> Vec<Message> {
    let wires = wires.max(1);
    let mut taken = vec![false; if space == SourceSpace::User { wires } else { 0 }];
    records
        .iter()
        .zip(first_id..)
        .filter_map(|(record, id)| {
            let wire = match space {
                SourceSpace::Wire => (record.source % wires as u64) as usize,
                SourceSpace::User => {
                    let wire = (mix64(record.source) >> 32) as usize % wires;
                    if std::mem::replace(&mut taken[wire], true) {
                        return None;
                    }
                    wire
                }
            };
            Some(Message::new(
                id,
                wire,
                payload_for(id, record.payload_bytes()),
            ))
        })
        .collect()
}

/// Lower a trace into per-tick message frames over `wires` input wires:
/// element `(tick, batch)` is [`lower_tick`] of that tick's records, and
/// ticks with no records are omitted. A pure function of the trace.
///
/// # Panics
/// If the trace fails [`Trace::validate`].
pub fn frames(trace: &Trace, wires: usize) -> Vec<(u64, Vec<Message>)> {
    trace.validate().expect("frames lowers a well-formed trace");
    let mut first_id = 0u64;
    trace
        .records
        .chunk_by(|a, b| a.tick == b.tick)
        .map(|records| {
            let frame = lower_tick(records, trace.space, wires, first_id);
            first_id += records.len() as u64;
            (records[0].tick, frame)
        })
        .collect()
}

/// [`frames`] over ticks `0..ticks`, one element per tick: element `t`
/// is tick `t`'s frame, empty when no record arrives then.
///
/// # Panics
/// If the trace fails [`Trace::validate`] or has a record at or past
/// `ticks`.
pub fn tick_frames(trace: &Trace, wires: usize, ticks: u64) -> Vec<Vec<Message>> {
    let mut lowered = frames(trace, wires).into_iter().peekable();
    let dense = (0..ticks)
        .map(|tick| {
            lowered
                .next_if(|(at, _)| *at == tick)
                .map_or_else(Vec::new, |(_, frame)| frame)
        })
        .collect();
    assert!(
        lowered.next().is_none(),
        "trace has a record at or past tick {ticks}"
    );
    dense
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf(p: f64) -> TraceModel {
        TraceModel::ZipfPopulation {
            p,
            population: 1_000_000,
            exponent: 1.2,
        }
    }

    #[test]
    fn bernoulli_hits_target_load() {
        let trace = generate(TraceModel::Bernoulli { p: 0.3 }, 64, 500, 1, 42);
        let load = trace.len() as f64 / (500 * 64) as f64;
        assert!((load - 0.3).abs() < 0.03, "measured load {load}");
    }

    #[test]
    fn bursty_hits_target_load_with_runs() {
        let model = TraceModel::mmpp_from_bursty(0.4, 8.0);
        assert!((model.offered_load() - 0.4).abs() < 1e-9);
        let frames = tick_frames(&generate(model, 64, 3000, 1, 7), 64, 3000);
        let total: usize = frames.iter().map(Vec::len).sum();
        let load = total as f64 / (3000 * 64) as f64;
        assert!((load - 0.4).abs() < 0.05, "measured load {load}");
        // Offers come in runs: a wire that offers this tick offers again
        // next tick w.p. 1 − 1/8, far above the mean load.
        let busy = |frame: &Vec<Message>| {
            let mut wires = [false; 64];
            frame.iter().for_each(|m| wires[m.source] = true);
            wires
        };
        let (mut offers, mut repeats) = (0usize, 0usize);
        for pair in frames.windows(2) {
            let (now, next) = (busy(&pair[0]), busy(&pair[1]));
            offers += now.iter().filter(|&&b| b).count();
            repeats += (0..64).filter(|&w| now[w] && next[w]).count();
        }
        let stay = repeats as f64 / offers as f64;
        assert!(stay > 0.8, "offers do not come in runs: {stay}");
    }

    #[test]
    fn ids_are_unique_and_sources_in_range() {
        for model in [TraceModel::Bernoulli { p: 0.9 }, zipf(0.9)] {
            let trace = generate(model, 16, 50, 0, 1);
            let mut seen = std::collections::HashSet::new();
            for (_, frame) in frames(&trace, 16) {
                for msg in frame {
                    assert!(msg.source < 16, "{model:?}: wire {}", msg.source);
                    assert!(seen.insert(msg.id), "{model:?}: duplicate id {}", msg.id);
                    assert!(msg.id < trace.len() as u64, "ids are record indices");
                }
            }
        }
    }

    #[test]
    fn adversarial_fires_every_input_every_frame() {
        let model = TraceModel::Bernoulli { p: 1.0 };
        assert_eq!(model.offered_load(), 1.0);
        let frames = tick_frames(&generate(model, 16, 20, 1, 3), 16, 20);
        assert_eq!(frames.len(), 20);
        for frame in frames {
            let sources: Vec<usize> = frame.iter().map(|m| m.source).collect();
            assert_eq!(sources, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_load_is_bounded_and_skewed() {
        let model = zipf(0.6);
        assert!((model.offered_load() - 0.6).abs() < 1e-12);
        let mut per_wire = vec![0u64; 64];
        let mut total = 0u64;
        for (_, frame) in frames(&generate(model, 64, 2000, 1, 11), 64) {
            for msg in frame {
                assert!(msg.source < 64);
                per_wire[msg.source] += 1;
                total += 1;
            }
        }
        let load = total as f64 / (2000 * 64) as f64;
        // p is an upper bound (collisions fold) but most offers land.
        assert!(load <= 0.6 + 1e-9, "load {load} exceeds p");
        assert!(load > 0.3, "load {load} implausibly low");
        // Skew: the busiest wire (carrying the hottest hashed users) sees
        // well above the mean per-wire traffic.
        let max = *per_wire.iter().max().unwrap() as f64;
        let mean = total as f64 / 64.0;
        assert!(max > 1.5 * mean, "max {max} vs mean {mean}: no skew");
    }

    #[test]
    fn tick_frames_keep_empty_ticks() {
        let record = |tick| TraceRecord {
            tick,
            source: 2,
            size_class: 0,
        };
        let trace = Trace::new(SourceSpace::Wire, vec![record(1), record(1), record(4)]).unwrap();
        let sparse = frames(&trace, 4);
        assert_eq!(
            sparse.iter().map(|(tick, _)| *tick).collect::<Vec<_>>(),
            [1, 4]
        );
        let dense = tick_frames(&trace, 4, 6);
        assert_eq!(
            dense.iter().map(Vec::len).collect::<Vec<_>>(),
            [0, 2, 0, 0, 1, 0]
        );
        assert_eq!(dense[1], sparse[0].1);
        assert_eq!(dense[4][0].id, 2, "ids stay record indices");
    }

    #[test]
    fn zipf_sampler_head_ranks_dominate() {
        let sampler = ZipfSampler::new(2_000_000, 1.1);
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 20_000;
        let mut head = 0u64;
        for _ in 0..draws {
            let rank = sampler.sample(&mut rng);
            assert!(rank < 2_000_000);
            if rank < 100 {
                head += 1;
            }
        }
        // For s = 1.1 over 2M users, the top 100 ranks carry a large
        // share of the mass; uniform sampling would give 100/2M ≈ 0.005%.
        let share = head as f64 / draws as f64;
        assert!(share > 0.2, "head share {share} not zipf-skewed");
    }

    #[test]
    fn zipf_exponent_zero_is_near_uniform() {
        let sampler = ZipfSampler::new(10_000, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut below_half = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            if sampler.sample(&mut rng) < 5_000 {
                below_half += 1;
            }
        }
        let share = below_half as f64 / draws as f64;
        assert!((share - 0.5).abs() < 0.05, "uniform share {share}");
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zipf_rejects_empty_population() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        for model in [
            TraceModel::Bernoulli { p: 0.5 },
            TraceModel::mmpp_from_bursty(0.5, 4.0),
            zipf(0.5),
        ] {
            let a = tick_frames(&generate(model, 8, 20, 0, 9), 8, 20);
            let b = tick_frames(&generate(model, 8, 20, 0, 9), 8, 20);
            assert_eq!(a, b, "{model:?}");
        }
    }
}

//! Replayable workload traces: the serving stack's workload interchange
//! format (ROADMAP item 5).
//!
//! A trace is a sorted sequence of [`TraceRecord`]s — `(virtual arrival
//! tick, external source id, payload size class)` — plus a
//! [`SourceSpace`] declaring how source ids map onto switch input wires.
//! The serving stack consumes a trace as the shared frame shape:
//! [`frames`] lowers it into per-tick message batches (ids are record
//! indices, payloads are a pure hash of the id), so the same trace bytes
//! always produce the same workload, and any of the three drivers
//! ([`crate::drive_sync`], [`crate::drive_service`], `tiers::drive_tree`)
//! plays it. A [`TraceCursor`] assembles the same frames straight off a
//! reader without materializing the trace.
//!
//! Two on-disk flavors share the record model: a compact 17-byte-record
//! binary encoding (magic `CTRC`) and a JSON-lines interchange encoding.
//! Both are streaming (no record count in the header) and both fail with
//! typed [`TraceError`]s — truncation and corruption are diagnoses, not
//! panics.
//!
//! Traces come from three generator families ([`TraceModel`]) — diurnal
//! sinusoid, 2-state MMPP (the inline `Bursty` model is the degenerate
//! parameterization, see [`TraceModel::mmpp_from_bursty`]), and a
//! zipf-population over a multi-million-user id space — plus the
//! [`adversarial_trace`] bridge, which lowers
//! [`concentrator::search::epsilon_attack`]'s discovered worst-case
//! input subset into a replayable workload, closing the loop between
//! the paper's ε-nearsorting bounds and serving-tail p99.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use concentrator::search::{epsilon_attack, SearchReport};
use concentrator::StagedSwitch;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use switchsim::traffic::mix64;
use switchsim::{Message, ZipfSampler};

/// On-disk magic for the binary flavor (`CTRC` = Concentrator TRaCe).
pub const TRACE_MAGIC: [u8; 4] = *b"CTRC";
/// Binary format version this build reads and writes.
pub const TRACE_VERSION: u8 = 1;
/// Bytes per binary record: tick (u64 LE) + source (u64 LE) + class (u8).
pub const RECORD_BYTES: usize = 17;
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
    /// hashed onto wires with the same SplitMix64 finalizer as the
    /// inline zipf model; within a tick, later users landing on an
    /// occupied wire fold away (at most one offer per wire per tick).
    User,
}

impl SourceSpace {
    fn code(self) -> u8 {
        match self {
            SourceSpace::Wire => 0,
            SourceSpace::User => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, TraceError> {
        match code {
            0 => Ok(SourceSpace::Wire),
            1 => Ok(SourceSpace::User),
            other => Err(TraceError::BadSpace(other)),
        }
    }

    /// The space's wire-format label (`"wire"` / `"user"`), as written
    /// in JSONL headers and shown by the CLI.
    pub fn label(self) -> &'static str {
        match self {
            SourceSpace::Wire => "wire",
            SourceSpace::User => "user",
        }
    }

    fn from_label(label: &str) -> Result<Self, TraceError> {
        match label {
            "wire" => Ok(SourceSpace::Wire),
            "user" => Ok(SourceSpace::User),
            _ => Err(TraceError::BadSpace(u8::MAX)),
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

/// The two on-disk encodings of the one record model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFlavor {
    /// `CTRC` magic + version + space byte, then 17-byte LE records.
    Binary,
    /// A JSON header line then one JSON object per record — the
    /// interchange flavor (greppable, diffable, language-neutral).
    Jsonl,
}

/// Streaming trace encoder: writes the header up front, then records
/// one at a time, enforcing tick order as it goes.
pub struct TraceWriter<W: Write> {
    inner: W,
    flavor: TraceFlavor,
    written: usize,
    last_tick: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace of the given flavor and source space; the header is
    /// written immediately.
    pub fn new(mut inner: W, flavor: TraceFlavor, space: SourceSpace) -> Result<Self, TraceError> {
        match flavor {
            TraceFlavor::Binary => {
                inner.write_all(&TRACE_MAGIC)?;
                inner.write_all(&[TRACE_VERSION, space.code()])?;
            }
            TraceFlavor::Jsonl => {
                writeln!(
                    inner,
                    "{{\"format\":\"ctrc\",\"version\":{TRACE_VERSION},\"space\":\"{}\"}}",
                    space.label()
                )?;
            }
        }
        Ok(TraceWriter {
            inner,
            flavor,
            written: 0,
            last_tick: 0,
        })
    }

    /// Append one record; records must arrive in tick order.
    pub fn record(&mut self, record: TraceRecord) -> Result<(), TraceError> {
        if record.size_class > MAX_SIZE_CLASS {
            return Err(TraceError::BadSizeClass {
                index: self.written,
                class: record.size_class,
            });
        }
        if self.written > 0 && record.tick < self.last_tick {
            return Err(TraceError::Unsorted {
                index: self.written,
            });
        }
        match self.flavor {
            TraceFlavor::Binary => {
                let mut buf = [0u8; RECORD_BYTES];
                buf[0..8].copy_from_slice(&record.tick.to_le_bytes());
                buf[8..16].copy_from_slice(&record.source.to_le_bytes());
                buf[16] = record.size_class;
                self.inner.write_all(&buf)?;
            }
            TraceFlavor::Jsonl => {
                writeln!(
                    self.inner,
                    "{{\"tick\":{},\"source\":{},\"class\":{}}}",
                    record.tick, record.source, record.size_class
                )?;
            }
        }
        self.last_tick = record.tick;
        self.written += 1;
        Ok(())
    }

    /// Flush and hand the underlying writer back.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming trace decoder: sniffs the flavor from the first byte
/// (`{` ⇒ JSONL, anything else must be the binary magic) and yields
/// records one at a time without materializing the trace.
pub struct TraceReader<R: BufRead> {
    inner: R,
    flavor: TraceFlavor,
    space: SourceSpace,
    read: usize,
    last_tick: u64,
    line: usize,
}

impl<R: BufRead> TraceReader<R> {
    /// Open a trace stream: parse the header, remember the space.
    pub fn open(mut inner: R) -> Result<Self, TraceError> {
        let first = inner.fill_buf()?.first().copied();
        let (flavor, space, line) = match first {
            Some(b'{') => {
                let mut header = String::new();
                inner.read_line(&mut header)?;
                (TraceFlavor::Jsonl, parse_jsonl_header(&header)?, 1)
            }
            _ => {
                let mut header = [0u8; 6];
                inner.read_exact(&mut header).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        TraceError::BadMagic
                    } else {
                        TraceError::from(e)
                    }
                })?;
                if header[0..4] != TRACE_MAGIC {
                    return Err(TraceError::BadMagic);
                }
                if header[4] != TRACE_VERSION {
                    return Err(TraceError::BadVersion(header[4]));
                }
                (TraceFlavor::Binary, SourceSpace::from_code(header[5])?, 0)
            }
        };
        Ok(TraceReader {
            inner,
            flavor,
            space,
            read: 0,
            last_tick: 0,
            line,
        })
    }

    /// The source space declared in the header.
    pub fn space(&self) -> SourceSpace {
        self.space
    }

    /// The flavor that was sniffed.
    pub fn flavor(&self) -> TraceFlavor {
        self.flavor
    }

    /// Decode the next record, `Ok(None)` at a clean end of stream.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        let record = match self.flavor {
            TraceFlavor::Binary => {
                let mut buf = [0u8; RECORD_BYTES];
                let mut filled = 0usize;
                while filled < RECORD_BYTES {
                    let n = self.inner.read(&mut buf[filled..])?;
                    if n == 0 {
                        break;
                    }
                    filled += n;
                }
                match filled {
                    0 => return Ok(None),
                    RECORD_BYTES => TraceRecord {
                        tick: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
                        source: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
                        size_class: buf[16],
                    },
                    offset => return Err(TraceError::Truncated { offset }),
                }
            }
            TraceFlavor::Jsonl => {
                let mut line = String::new();
                loop {
                    line.clear();
                    if self.inner.read_line(&mut line)? == 0 {
                        return Ok(None);
                    }
                    self.line += 1;
                    if !line.trim().is_empty() {
                        break;
                    }
                }
                parse_jsonl_record(&line, self.line)?
            }
        };
        if record.size_class > MAX_SIZE_CLASS {
            return Err(TraceError::BadSizeClass {
                index: self.read,
                class: record.size_class,
            });
        }
        if self.read > 0 && record.tick < self.last_tick {
            return Err(TraceError::Unsorted { index: self.read });
        }
        self.last_tick = record.tick;
        self.read += 1;
        Ok(Some(record))
    }

    /// Materialize the remaining records into a [`Trace`].
    pub fn collect_trace(mut self) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        while let Some(record) = self.next_record()? {
            records.push(record);
        }
        Ok(Trace {
            space: self.space,
            records,
        })
    }
}

/// Parse the JSONL header line. Hand-rolled (as is the record parser):
/// user ids span the full u64 range, and routing them through a
/// float-backed JSON value would silently round ids above 2⁵³.
fn parse_jsonl_header(line: &str) -> Result<SourceSpace, TraceError> {
    let corrupt = |detail: &str| TraceError::Corrupt {
        line: 1,
        detail: detail.to_string(),
    };
    if !line.contains("\"format\":\"ctrc\"") {
        return Err(TraceError::BadMagic);
    }
    let version =
        json_u64_field(line, "version").ok_or_else(|| corrupt("missing version field"))?;
    if version != TRACE_VERSION as u64 {
        return Err(TraceError::BadVersion(version.min(u8::MAX as u64) as u8));
    }
    let space = json_str_field(line, "space").ok_or_else(|| corrupt("missing space field"))?;
    SourceSpace::from_label(&space)
}

/// Parse one JSONL record line (`{"tick":T,"source":S,"class":C}`).
fn parse_jsonl_record(line: &str, line_no: usize) -> Result<TraceRecord, TraceError> {
    let corrupt = |detail: String| TraceError::Corrupt {
        line: line_no,
        detail,
    };
    let trimmed = line.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err(corrupt(format!("not a JSON object: {trimmed:?}")));
    }
    let tick = json_u64_field(trimmed, "tick")
        .ok_or_else(|| corrupt("missing or non-integer tick".to_string()))?;
    let source = json_u64_field(trimmed, "source")
        .ok_or_else(|| corrupt("missing or non-integer source".to_string()))?;
    let class = json_u64_field(trimmed, "class")
        .ok_or_else(|| corrupt("missing or non-integer class".to_string()))?;
    if class > MAX_SIZE_CLASS as u64 {
        return Err(corrupt(format!("size class {class} > {MAX_SIZE_CLASS}")));
    }
    Ok(TraceRecord {
        tick,
        source,
        size_class: class as u8,
    })
}

/// Extract an unsigned integer field (`"key":123`) from a flat JSON
/// object, digit-exact (no float round trip).
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extract a string field (`"key":"value"`) from a flat JSON object.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Encode a whole trace to a writer in the given flavor.
pub fn write_trace<W: Write>(
    trace: &Trace,
    inner: W,
    flavor: TraceFlavor,
) -> Result<W, TraceError> {
    let mut writer = TraceWriter::new(inner, flavor, trace.space)?;
    for &record in &trace.records {
        writer.record(record)?;
    }
    writer.finish()
}

/// Serialize a trace to bytes in the given flavor.
pub fn encode(trace: &Trace, flavor: TraceFlavor) -> Vec<u8> {
    write_trace(trace, Vec::new(), flavor).expect("writing to a Vec cannot fail")
}

/// Decode a trace from bytes (flavor sniffed).
pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    TraceReader::open(bytes)?.collect_trace()
}

/// Write a trace to a file in the given flavor.
pub fn save(trace: &Trace, path: &Path, flavor: TraceFlavor) -> Result<(), TraceError> {
    let file = std::fs::File::create(path)?;
    write_trace(trace, std::io::BufWriter::new(file), flavor)?;
    Ok(())
}

/// Read a trace from a file (flavor sniffed).
pub fn load(path: &Path) -> Result<Trace, TraceError> {
    let file = std::fs::File::open(path)?;
    TraceReader::open(BufReader::new(file))?.collect_trace()
}

/// FNV-1a over a byte stream: the golden-trace checksum (stable, no
/// dependency, easy to recompute from any language).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A workload model that *emits traces* (contrast
/// [`switchsim::TrafficModel`], which draws inline). All models are
/// pure functions of `(model, sources, ticks, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceModel {
    /// Each source offers independently with probability `p` per tick —
    /// the memoryless baseline every other model is compared against.
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
    /// state's emission rate. The inline `Bursty` model is the
    /// degenerate corner `rate_on = 1, rate_off = 0` — see
    /// [`TraceModel::mmpp_from_bursty`].
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
    /// (reusing [`ZipfSampler`]): each tick draws `~p·sources` active
    /// users; records carry the *user rank* as the source id (the trace
    /// is in [`SourceSpace::User`]), and wire hashing + collision
    /// folding happen at replay time.
    ZipfPopulation {
        /// Target offered load per wire per tick (upper bound — wire
        /// collisions between users fold at replay).
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

    /// The MMPP parameterization that degenerates to the inline
    /// `Bursty { p, mean_burst }` model: emission is all-or-nothing
    /// (`rate_on = 1, rate_off = 0`) and the chain's transition rates
    /// are Bursty's (`on → off` w.p. `1/mean_burst`; `off → on` chosen
    /// so the stationary on-fraction is `p`). Statistically equivalent,
    /// letting the old model read as a special case of this one.
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
                    // Step the chain, then emit at the new state's rate —
                    // the same order as the inline Bursty source, so the
                    // degenerate parameterization matches its law exactly.
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

/// Parameters for the [`adversarial_trace`] bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarialPlan {
    /// Hill-climb restarts handed to `epsilon_attack` (each sweeps a
    /// different initial density).
    pub restarts: usize,
    /// Climb rounds per restart.
    pub rounds: usize,
    /// Search seed.
    pub seed: u64,
    /// Ticks to sustain the discovered pattern for.
    pub ticks: u64,
    /// Size class stamped on every record.
    pub size_class: u8,
}

/// Run [`epsilon_attack`] against `switch` and lower the discovered
/// worst-case input subset into a trace: the winning pattern's wires
/// each offer once per tick for `plan.ticks` ticks ([`SourceSpace::Wire`],
/// so the offers land on exactly the wires the search found). Returns
/// the trace and the search report (score = the ε-deficiency achieved).
pub fn adversarial_trace(switch: &StagedSwitch, plan: &AdversarialPlan) -> (Trace, SearchReport) {
    assert!(plan.size_class <= MAX_SIZE_CLASS, "size class out of range");
    let report = epsilon_attack(switch, plan.restarts, plan.rounds, plan.seed);
    let mut records = Vec::new();
    for tick in 0..plan.ticks {
        for (wire, &hot) in report.best_pattern.iter().enumerate() {
            if hot {
                records.push(TraceRecord {
                    tick,
                    source: wire as u64,
                    size_class: plan.size_class,
                });
            }
        }
    }
    (
        Trace {
            space: SourceSpace::Wire,
            records,
        },
        report,
    )
}

// ---------------------------------------------------------------------------
// Replay: records → message frames
// ---------------------------------------------------------------------------

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

/// Lower one record into its message. `index` is the record's position
/// in the trace and becomes the message id; the wire mapping follows
/// the trace's source space.
fn lower_record(record: &TraceRecord, space: SourceSpace, wires: usize, index: u64) -> Message {
    let wire = match space {
        SourceSpace::Wire => (record.source % wires.max(1) as u64) as usize,
        SourceSpace::User => (mix64(record.source) >> 32) as usize % wires.max(1),
    };
    Message::new(index, wire, payload_for(index, record.payload_bytes()))
}

/// Lower a trace into per-tick message frames over `wires` input wires:
/// element `(tick, batch)` carries every surviving record of that tick
/// (ticks with no records are omitted). Message ids are record indices
/// and payloads come from [`payload_for`], so frames are a pure
/// function of the trace bytes. In [`SourceSpace::User`] traces, later
/// users hashing onto an occupied wire within one tick fold away,
/// mirroring the inline zipf model's at-most-one-offer-per-wire rule.
pub fn frames(trace: &Trace, wires: usize) -> Vec<(u64, Vec<Message>)> {
    let bytes = encode(trace, TraceFlavor::Binary);
    let mut cursor = TraceCursor::new(
        TraceReader::open(std::io::Cursor::new(bytes)).expect("in-memory encode round-trips"),
        wires,
    );
    let mut out = Vec::new();
    while let Some(frame) = cursor.next_frame().expect("in-memory trace is well-formed") {
        out.push(frame);
    }
    out
}

/// Streaming frame assembler: pulls records off a [`TraceReader`] and
/// groups them into per-tick batches without ever holding more than one
/// tick's worth of decoded state.
pub struct TraceCursor<R: BufRead> {
    reader: TraceReader<R>,
    wires: usize,
    /// A record already pulled that belongs to the *next* tick.
    lookahead: Option<TraceRecord>,
    next_id: u64,
    done: bool,
}

impl<R: BufRead> TraceCursor<R> {
    /// Wrap an opened reader; frames will target `wires` input wires.
    pub fn new(reader: TraceReader<R>, wires: usize) -> Self {
        TraceCursor {
            reader,
            wires,
            lookahead: None,
            next_id: 0,
            done: false,
        }
    }

    /// The source space of the underlying trace.
    pub fn space(&self) -> SourceSpace {
        self.reader.space()
    }

    /// Assemble the next tick's frame: `Ok(None)` at end of trace.
    pub fn next_frame(&mut self) -> Result<Option<(u64, Vec<Message>)>, TraceError> {
        if self.done && self.lookahead.is_none() {
            return Ok(None);
        }
        let first = match self.lookahead.take() {
            Some(record) => record,
            None => match self.reader.next_record()? {
                Some(record) => record,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            },
        };
        let space = self.reader.space();
        let tick = first.tick;
        let mut taken = vec![
            false;
            if space == SourceSpace::User {
                self.wires
            } else {
                0
            }
        ];
        let mut batch = Vec::new();
        let mut push = |record: TraceRecord, next_id: &mut u64, batch: &mut Vec<Message>| {
            // User-space collisions fold (at most one offer per wire per
            // tick); folded records still consume an id so message ids
            // stay equal to record indices either way.
            let index = *next_id;
            *next_id += 1;
            let message = lower_record(&record, space, self.wires, index);
            if space == SourceSpace::User {
                if taken[message.source] {
                    return;
                }
                taken[message.source] = true;
            }
            batch.push(message);
        };
        push(first, &mut self.next_id, &mut batch);
        loop {
            match self.reader.next_record()? {
                Some(record) if record.tick == tick => push(record, &mut self.next_id, &mut batch),
                Some(record) => {
                    self.lookahead = Some(record);
                    break;
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        Ok(Some((tick, batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::engine::Fabric;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
    use std::sync::Arc;
    use switchsim::traffic::{TrafficGenerator, TrafficModel};

    fn sample_trace() -> Trace {
        generate(TraceModel::Bernoulli { p: 0.5 }, 8, 16, 1, 42)
    }

    fn test_switch() -> Arc<StagedSwitch> {
        Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }

    #[test]
    fn binary_round_trip_is_byte_identical() {
        let trace = sample_trace();
        let bytes = encode(&trace, TraceFlavor::Binary);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(encode(&decoded, TraceFlavor::Binary), bytes);
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let trace = sample_trace();
        let bytes = encode(&trace, TraceFlavor::Jsonl);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(encode(&decoded, TraceFlavor::Jsonl), bytes);
    }

    #[test]
    fn user_space_survives_both_flavors() {
        let trace = generate(
            TraceModel::ZipfPopulation {
                p: 0.5,
                population: 3_000_000,
                exponent: 1.1,
            },
            8,
            8,
            0,
            9,
        );
        assert_eq!(trace.space, SourceSpace::User);
        for flavor in [TraceFlavor::Binary, TraceFlavor::Jsonl] {
            let decoded = decode(&encode(&trace, flavor)).unwrap();
            assert_eq!(decoded, trace);
        }
    }

    #[test]
    fn truncated_binary_is_a_typed_error() {
        let trace = sample_trace();
        let mut bytes = encode(&trace, TraceFlavor::Binary);
        bytes.truncate(bytes.len() - 5);
        match decode(&bytes) {
            Err(TraceError::Truncated { offset }) => assert_eq!(offset, RECORD_BYTES - 5),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_jsonl_is_a_typed_error() {
        let trace = sample_trace();
        let text = String::from_utf8(encode(&trace, TraceFlavor::Jsonl)).unwrap();
        let mangled = text.replacen("\"tick\":", "\"tock\":", 2);
        match decode(mangled.as_bytes()) {
            // Line 1 is the header; the first mangled record is line 2.
            Err(TraceError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_version_and_space_are_typed() {
        assert!(matches!(decode(b"NOPE"), Err(TraceError::BadMagic)));
        assert!(matches!(decode(b"CT"), Err(TraceError::BadMagic)));
        let mut bytes = encode(&sample_trace(), TraceFlavor::Binary);
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(TraceError::BadVersion(99))));
        bytes[4] = TRACE_VERSION;
        bytes[5] = 7;
        assert!(matches!(decode(&bytes), Err(TraceError::BadSpace(7))));
    }

    #[test]
    fn unsorted_records_are_rejected_on_write_and_read() {
        let records = vec![
            TraceRecord {
                tick: 5,
                source: 0,
                size_class: 0,
            },
            TraceRecord {
                tick: 3,
                source: 1,
                size_class: 0,
            },
        ];
        assert!(matches!(
            Trace::new(SourceSpace::Wire, records.clone()),
            Err(TraceError::Unsorted { index: 1 })
        ));
        let mut writer =
            TraceWriter::new(Vec::new(), TraceFlavor::Binary, SourceSpace::Wire).unwrap();
        writer.record(records[0]).unwrap();
        assert!(matches!(
            writer.record(records[1]),
            Err(TraceError::Unsorted { index: 1 })
        ));
        // Forge an unsorted byte stream and make the reader catch it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.extend_from_slice(&[TRACE_VERSION, 0]);
        for r in &records {
            bytes.extend_from_slice(&r.tick.to_le_bytes());
            bytes.extend_from_slice(&r.source.to_le_bytes());
            bytes.push(r.size_class);
        }
        assert!(matches!(
            decode(&bytes),
            Err(TraceError::Unsorted { index: 1 })
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let models = [
            TraceModel::Bernoulli { p: 0.4 },
            TraceModel::Diurnal {
                base: 0.4,
                amplitude: 0.3,
                period: 32,
            },
            TraceModel::mmpp_from_bursty(0.4, 8.0),
            TraceModel::ZipfPopulation {
                p: 0.4,
                population: 1 << 21,
                exponent: 1.2,
            },
        ];
        for model in models {
            let a = generate(model, 16, 64, 1, 7);
            let b = generate(model, 16, 64, 1, 7);
            assert_eq!(a, b, "{model:?} not deterministic");
            assert_eq!(
                encode(&a, TraceFlavor::Binary),
                encode(&b, TraceFlavor::Binary)
            );
        }
    }

    #[test]
    fn mmpp_long_run_load_matches_stationary_rate() {
        let model = TraceModel::Mmpp {
            rate_on: 0.9,
            rate_off: 0.1,
            on_to_off: 0.125,
            off_to_on: 0.125,
        };
        // π_on = 0.5 ⇒ load = 0.5·0.9 + 0.5·0.1 = 0.5.
        assert!((model.offered_load() - 0.5).abs() < 1e-12);
        let trace = generate(model, 64, 3000, 0, 11);
        let load = trace.records.len() as f64 / (3000.0 * 64.0);
        assert!(
            (load - 0.5).abs() < 0.05,
            "mmpp measured load {load}, want 0.5"
        );
    }

    #[test]
    fn mmpp_degenerate_matches_inline_bursty_load() {
        // The PR 2 load-pinning bounds: Bursty at p = 0.4, mean burst 8,
        // over 3000 frames × 64 inputs, within ±0.05. The degenerate
        // MMPP must land in the same band — the equivalence that lets
        // Bursty be documented as a special case instead of a parallel
        // code path.
        let frames = 3000;
        let sources = 64;
        let mut inline = TrafficGenerator::new(
            TrafficModel::Bursty {
                p: 0.4,
                mean_burst: 8.0,
            },
            sources,
            2,
            7,
        );
        let inline_total: usize = (0..frames).map(|_| inline.next_frame().len()).sum();
        let inline_load = inline_total as f64 / (frames * sources) as f64;

        let model = TraceModel::mmpp_from_bursty(0.4, 8.0);
        assert!((model.offered_load() - 0.4).abs() < 1e-9);
        let trace = generate(model, sources, frames as u64, 1, 7);
        let mmpp_load = trace.records.len() as f64 / (frames * sources) as f64;

        assert!(
            (inline_load - 0.4).abs() < 0.05,
            "inline bursty load {inline_load}"
        );
        assert!((mmpp_load - 0.4).abs() < 0.05, "mmpp load {mmpp_load}");
    }

    #[test]
    fn diurnal_mean_load_tracks_base_and_oscillates() {
        let trace = generate(
            TraceModel::Diurnal {
                base: 0.5,
                amplitude: 0.4,
                period: 64,
            },
            64,
            1024,
            0,
            3,
        );
        let load = trace.records.len() as f64 / (1024.0 * 64.0);
        assert!((load - 0.5).abs() < 0.05, "diurnal mean load {load}");
        // The envelope actually swings: peak-phase ticks carry more
        // offers than trough-phase ticks.
        let mut per_tick = vec![0usize; 1024];
        for r in &trace.records {
            per_tick[r.tick as usize] += 1;
        }
        let peak: usize = per_tick.iter().skip(8).step_by(64).sum();
        let trough: usize = per_tick.iter().skip(40).step_by(64).sum();
        assert!(
            peak > trough * 2,
            "no diurnal swing: peak {peak}, trough {trough}"
        );
    }

    #[test]
    fn adversarial_bridge_lowers_the_attack_pattern() {
        let switch = test_switch();
        let plan = AdversarialPlan {
            restarts: 2,
            rounds: 12,
            seed: 5,
            ticks: 4,
            size_class: 0,
        };
        let (trace, report) = adversarial_trace(&switch, &plan);
        let hot = report.best_pattern.iter().filter(|&&b| b).count();
        assert!(hot > 0, "attack found no pattern");
        assert_eq!(trace.space, SourceSpace::Wire);
        assert_eq!(trace.records.len(), hot * 4);
        // Every tick offers exactly the discovered subset.
        for tick in 0..4u64 {
            let wires: Vec<u64> = trace
                .records
                .iter()
                .filter(|r| r.tick == tick)
                .map(|r| r.source)
                .collect();
            let expected: Vec<u64> = report
                .best_pattern
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(w, _)| w as u64)
                .collect();
            assert_eq!(wires, expected);
        }
    }

    #[test]
    fn cursor_streams_the_same_frames_as_materialization() {
        let trace = generate(
            TraceModel::ZipfPopulation {
                p: 0.6,
                population: 1 << 20,
                exponent: 1.1,
            },
            16,
            32,
            1,
            21,
        );
        let materialized = frames(&trace, 16);
        let bytes = encode(&trace, TraceFlavor::Jsonl);
        let mut cursor = TraceCursor::new(TraceReader::open(bytes.as_slice()).unwrap(), 16);
        let mut streamed = Vec::new();
        while let Some(frame) = cursor.next_frame().unwrap() {
            streamed.push(frame);
        }
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn sync_trace_drive_conserves_and_replays_bit_identically() {
        let trace = generate(TraceModel::mmpp_from_bursty(0.5, 6.0), 16, 48, 1, 77);
        let switch = test_switch();
        let run = |tr: &Trace| {
            let mut fabric = Fabric::new(Arc::clone(&switch), FabricConfig::new(2));
            crate::drive_sync(&mut fabric, frames(tr, 16), &[])
        };
        let a = run(&trace);
        let b = run(&trace);
        assert!(a.generated > 0);
        assert!(a.snapshot.conserved());
        assert_eq!(a.snapshot.in_flight, 0);
        assert_eq!(a.completions().count() as u64, a.generated);
        assert_eq!(a, b, "trace replay must be bit-identical");
        // And through the codec: decode(encode(trace)) drives the same.
        let decoded = decode(&encode(&trace, TraceFlavor::Binary)).unwrap();
        assert_eq!(run(&decoded), a);
    }

    /// A record at the last representable tick is legal on disk, so
    /// loading it and replaying it must not overflow the one-past-the-end
    /// horizon or the driver's virtual clock.
    #[test]
    fn record_at_the_last_tick_loads_and_replays() {
        let record = TraceRecord {
            tick: u64::MAX,
            source: 3,
            size_class: 1,
        };
        let path = std::env::temp_dir().join(format!(
            "ctrc-last-tick-{}-{:?}.ctrc",
            std::process::id(),
            std::thread::current().id()
        ));
        save(
            &Trace::new(SourceSpace::Wire, vec![record]).unwrap(),
            &path,
            TraceFlavor::Binary,
        )
        .unwrap();
        let loaded = load(&path);
        std::fs::remove_file(&path).unwrap();
        let trace = loaded.unwrap();
        assert_eq!(trace.records, vec![record]);
        assert_eq!(trace.ticks(), u64::MAX, "horizon saturates");
        assert!(trace.offered_load(16) > 0.0);
        let mut fabric = Fabric::new(test_switch(), FabricConfig::new(2));
        let report = crate::drive_sync(&mut fabric, frames(&trace, 16), &[]);
        assert_eq!((report.generated, report.completions().count()), (1, 1));
        assert!(report.snapshot.conserved());
    }

    #[test]
    fn truncated_trace_is_a_prefix() {
        let trace = sample_trace();
        let cut = trace.truncated(5);
        assert_eq!(cut.records[..], trace.records[..5]);
        assert_eq!(cut.space, trace.space);
        assert!(trace.truncated(usize::MAX).records.len() == trace.len());
    }

    #[test]
    fn fnv1a_is_the_reference_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}

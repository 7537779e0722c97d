//! Replayable workload traces on disk: the serving stack's workload
//! interchange format.
//!
//! The record model, the generator and the lowering into frames live in
//! [`switchsim::traffic`] and are re-exported here: a [`Trace`] is a
//! sorted sequence of [`TraceRecord`]s — `(virtual arrival tick,
//! external source id, payload size class)` — plus a [`SourceSpace`];
//! [`generate`] plays a [`TraceModel`] into one, and [`frames`] lowers
//! it into per-tick message batches (ids are record indices, payloads
//! are a pure hash of the id) that any of the three drivers
//! ([`crate::drive_sync`], [`crate::drive_service`], `tiers::drive_tree`)
//! plays. This module adds what replay from bytes needs: a
//! [`TraceCursor`] assembles the same frames straight off a reader
//! without materializing the trace.
//!
//! Two on-disk flavors share the record model: a compact 17-byte-record
//! binary encoding (magic `CTRC`) and a JSON-lines interchange encoding.
//! Both are streaming (no record count in the header) and both fail with
//! typed [`TraceError`]s — truncation and corruption are diagnoses, not
//! panics.
//!
//! The [`adversarial_trace`] bridge lowers
//! [`concentrator::search::epsilon_attack`]'s discovered worst-case
//! input subset into a replayable workload, closing the loop between
//! the paper's ε-nearsorting bounds and serving-tail p99.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use concentrator::search::{epsilon_attack, SearchReport};
use concentrator::StagedSwitch;
use switchsim::traffic::lower_tick;
use switchsim::Message;

pub use switchsim::traffic::{
    frames, generate, payload_for, SourceSpace, Trace, TraceError, TraceModel, TraceRecord,
    MAX_SIZE_CLASS,
};

/// On-disk magic for the binary flavor (`CTRC` = Concentrator TRaCe).
pub const TRACE_MAGIC: [u8; 4] = *b"CTRC";
/// Binary format version this build reads and writes.
pub const TRACE_VERSION: u8 = 1;
/// Bytes per binary record: tick (u64 LE) + source (u64 LE) + class (u8).
pub const RECORD_BYTES: usize = 17;
/// The binary header's code for `space`.
fn space_code(space: SourceSpace) -> u8 {
    match space {
        SourceSpace::Wire => 0,
        SourceSpace::User => 1,
    }
}

fn space_from_code(code: u8) -> Result<SourceSpace, TraceError> {
    match code {
        0 => Ok(SourceSpace::Wire),
        1 => Ok(SourceSpace::User),
        other => Err(TraceError::BadSpace(other)),
    }
}

fn space_from_label(label: &str) -> Result<SourceSpace, TraceError> {
    match label {
        "wire" => Ok(SourceSpace::Wire),
        "user" => Ok(SourceSpace::User),
        _ => Err(TraceError::BadSpace(u8::MAX)),
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
                inner.write_all(&[TRACE_VERSION, space_code(space)])?;
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
                (TraceFlavor::Binary, space_from_code(header[5])?, 0)
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
    space_from_label(&space)
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
// The adversarial bridge
// ---------------------------------------------------------------------------

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
// Streaming replay: bytes → message frames
// ---------------------------------------------------------------------------

/// Streaming frame assembler: pulls records off a [`TraceReader`],
/// groups them by tick and lowers each tick with the same
/// [`lower_tick`] as [`frames`], never holding more than one tick's
/// worth of decoded records.
pub struct TraceCursor<R: BufRead> {
    reader: TraceReader<R>,
    wires: usize,
    /// A record already pulled that belongs to the *next* tick.
    lookahead: Option<TraceRecord>,
    /// The current tick's records (reused between ticks).
    tick: Vec<TraceRecord>,
    next_id: u64,
}

impl<R: BufRead> TraceCursor<R> {
    /// Wrap an opened reader; frames will target `wires` input wires.
    pub fn new(reader: TraceReader<R>, wires: usize) -> Self {
        TraceCursor {
            reader,
            wires,
            lookahead: None,
            tick: Vec::new(),
            next_id: 0,
        }
    }

    /// The source space of the underlying trace.
    pub fn space(&self) -> SourceSpace {
        self.reader.space()
    }

    /// Assemble the next tick's frame: `Ok(None)` at end of trace.
    pub fn next_frame(&mut self) -> Result<Option<(u64, Vec<Message>)>, TraceError> {
        let first = match self.lookahead.take() {
            Some(record) => record,
            None => match self.reader.next_record()? {
                Some(record) => record,
                None => return Ok(None),
            },
        };
        self.tick.clear();
        self.tick.push(first);
        loop {
            match self.reader.next_record()? {
                Some(record) if record.tick == first.tick => self.tick.push(record),
                next => {
                    self.lookahead = next;
                    break;
                }
            }
        }
        let frame = lower_tick(&self.tick, self.reader.space(), self.wires, self.next_id);
        self.next_id += self.tick.len() as u64;
        Ok(Some((first.tick, frame)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::engine::Fabric;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
    use std::sync::Arc;

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

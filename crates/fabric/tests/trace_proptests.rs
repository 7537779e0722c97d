//! Property-based tests for the trace workload engine: every generator
//! is a pure function of `(model, sources, ticks, seed)`, codecs
//! round-trip arbitrary well-formed traces, and the statistical claims
//! (MMPP long-run load, zipf head skew) hold across the parameter
//! space. The frame-level determinism and well-formedness proptests
//! live with the generator in `switchsim`.

use proptest::prelude::*;

use fabric::trace::{
    decode, encode, frames, generate, SourceSpace, Trace, TraceCursor, TraceFlavor, TraceModel,
    TraceReader, TraceRecord, TRACE_MAGIC, TRACE_VERSION,
};

/// Build the model under test from a proptest-drawn index + parameters.
fn model_for(idx: usize, p: f64, burst: f64, population: u64, exponent: f64) -> TraceModel {
    [
        TraceModel::Bernoulli { p },
        TraceModel::Diurnal {
            base: p,
            amplitude: (1.0 - p).min(p) / 2.0,
            period: 16 + (burst * 8.0) as u64,
        },
        TraceModel::mmpp_from_bursty(p, burst),
        TraceModel::ZipfPopulation {
            p,
            population,
            exponent,
        },
    ][idx]
}

/// Decode untrusted `bytes` both ways — materialized and streamed into
/// frames — and require the two to agree. Reaching the end of this
/// function at all is the property: no input may panic either decoder.
fn decode_untrusted(bytes: &[u8]) {
    let materialized = decode(bytes);
    let mut streamed = Vec::new();
    let streamed_ok = TraceReader::open(bytes).and_then(|reader| {
        let mut cursor = TraceCursor::new(reader, 16);
        while let Some(frame) = cursor.next_frame()? {
            streamed.push(frame);
        }
        Ok(())
    });
    match materialized {
        Ok(trace) => {
            assert!(streamed_ok.is_ok(), "stream failed where decode succeeded");
            assert_eq!(streamed, frames(&trace, 16));
        }
        Err(_) => assert!(streamed_ok.is_err(), "stream accepted what decode refused"),
    }
}

/// The valid JSON-lines header, so fuzzed record lines get past it.
const JSONL_HEADER: &[u8] = b"{\"format\":\"ctrc\",\"version\":1,\"space\":\"wire\"}\n";
/// A record line's fields, in order, and the edge values the line
/// fuzzer puts in them: in range, out of range, overflowing, negative
/// and mistyped.
const JSONL_FIELDS: [&str; 3] = ["tick", "source", "class"];
const JSONL_VALUES: [&str; 8] = [
    "0",
    "7",
    "12",
    "13",
    "18446744073709551615",
    "99999999999999999999",
    "\"wire\"",
    "-1",
];

proptest! {
    /// Arbitrary bytes never panic the decoders: every input ends in a
    /// trace or a typed `TraceError`.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        decode_untrusted(&bytes);
    }

    /// Arbitrary record bytes behind a valid binary header (either
    /// source space) never panic: truncation, bad classes and unsorted
    /// ticks are all typed errors.
    #[test]
    fn arbitrary_records_behind_a_valid_header_never_panic(
        space in 0u8..2,
        body in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&[TRACE_VERSION, space]);
        bytes.extend_from_slice(&body);
        decode_untrusted(&bytes);
    }

    /// Random `{`-prefixed lines never panic the JSON-lines reader.
    /// Each line is a record's three `"field":value` slots holding edge
    /// values; a slot's key may be swapped for another field or a raw
    /// byte (invalid UTF-8 included), and a value or the closing brace
    /// for a raw byte. Most cases start with a valid header line, so the
    /// record parser and its range and order checks are reached.
    #[test]
    fn arbitrary_jsonl_lines_never_panic(
        header in 0u8..4,
        lines in proptest::collection::vec(
            proptest::collection::vec((0usize..16, 0usize..17, any::<u8>()), 3..4),
            0..6,
        ),
    ) {
        let mut bytes = if header > 0 { JSONL_HEADER.to_vec() } else { Vec::new() };
        for slots in lines {
            bytes.push(b'{');
            for (field, &(key, value, raw)) in slots.iter().enumerate() {
                if field > 0 {
                    bytes.push(b',');
                }
                // Mostly the slot's own field, sometimes another one,
                // rarely a raw byte.
                let name = match key {
                    0..=11 => Some(JSONL_FIELDS[field]),
                    12..=14 => Some(JSONL_FIELDS[key - 12]),
                    _ => None,
                };
                match name {
                    Some(name) => bytes.extend_from_slice(format!("\"{name}\":").as_bytes()),
                    None => bytes.push(raw),
                }
                if value < 16 {
                    bytes.extend_from_slice(JSONL_VALUES[value % 8].as_bytes());
                } else {
                    bytes.push(raw);
                }
            }
            let raw = slots[0].2;
            bytes.push(if raw % 16 == 0 { raw } else { b'}' });
            bytes.push(b'\n');
        }
        decode_untrusted(&bytes);
    }

    /// Same `(model, seed, horizon)` ⇒ the identical trace, byte for
    /// byte, for every generator family. Replay determinism rests here.
    #[test]
    fn generators_are_deterministic(
        seed in any::<u64>(),
        p in 0.0f64..1.0,
        burst in 1.0f64..16.0,
        population in 1u64..5_000_000,
        exponent in 0.0f64..2.5,
        sources in 1usize..48,
        ticks in 1u64..40,
        model_idx in 0usize..4,
    ) {
        let model = model_for(model_idx, p, burst, population, exponent);
        let a = generate(model, sources, ticks, 1, seed);
        let b = generate(model, sources, ticks, 1, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            encode(&a, TraceFlavor::Binary),
            encode(&b, TraceFlavor::Binary)
        );
        // Lowering to frames is deterministic too (ids, wires, payloads).
        prop_assert_eq!(frames(&a, sources), frames(&b, sources));
    }

    /// Both codec flavors round-trip any well-formed trace exactly.
    #[test]
    fn codecs_round_trip_arbitrary_traces(
        ticks in proptest::collection::vec(0u64..1000, 0..64),
        user_space in any::<bool>(),
        source_bits in 1u32..64,
        class in 0u8..=12,
        seed in any::<u64>(),
    ) {
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        let records: Vec<TraceRecord> = sorted
            .iter()
            .enumerate()
            .map(|(i, &tick)| TraceRecord {
                tick,
                // Spread sources over a parameterized width so both
                // small wire ids and huge user ids get exercised.
                source: (seed.wrapping_mul(i as u64 + 1)) >> (64 - source_bits),
                size_class: class,
            })
            .collect();
        let space = if user_space { SourceSpace::User } else { SourceSpace::Wire };
        let trace = Trace::new(space, records).unwrap();
        for flavor in [TraceFlavor::Binary, TraceFlavor::Jsonl] {
            let bytes = encode(&trace, flavor);
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(&back, &trace);
            prop_assert_eq!(encode(&back, flavor), bytes);
        }
    }

    /// MMPP long-run offered load lands within tolerance of the
    /// stationary rate `π_on·rate_on + π_off·rate_off` for any
    /// well-mixed chain.
    #[test]
    fn mmpp_long_run_load_within_tolerance(
        seed in any::<u64>(),
        rate_on in 0.2f64..1.0,
        rate_off in 0.0f64..0.2,
        on_to_off in 0.1f64..0.9,
        off_to_on in 0.1f64..0.9,
    ) {
        let model = TraceModel::Mmpp { rate_on, rate_off, on_to_off, off_to_on };
        let ticks = 2000u64;
        let sources = 64usize;
        let trace = generate(model, sources, ticks, 0, seed);
        let load = trace.len() as f64 / (ticks as f64 * sources as f64);
        let want = model.offered_load();
        // Transition probabilities ≥ 0.1 keep the mixing time under ~10
        // ticks, so 2000 ticks × 64 chains concentrate well inside ±0.05
        // (the PR 2 bursty pinning band).
        prop_assert!(
            (load - want).abs() < 0.05,
            "mmpp load {} vs stationary {}", load, want
        );
    }

    /// Zipf-population head frequency is monotone in rank: averaged over
    /// the head, low ranks (hot users) appear at least as often as high
    /// ranks, for any skewed exponent.
    #[test]
    fn zipf_population_head_frequency_monotone(
        seed in any::<u64>(),
        population in 10_000u64..5_000_000,
        exponent in 1.0f64..2.0,
    ) {
        let model = TraceModel::ZipfPopulation { p: 0.8, population, exponent };
        let trace = generate(model, 64, 400, 0, seed);
        // Bucket the head ranks in octaves; octave means must not
        // increase with rank (per-rank counts are too noisy to compare
        // individually, octave aggregates are not).
        let octaves = [0u64..8, 8..64, 64..512, 512..4096];
        let mut mean_per_rank = Vec::new();
        for range in octaves {
            let hits = trace
                .records
                .iter()
                .filter(|r| range.contains(&r.source))
                .count() as f64;
            mean_per_rank.push(hits / (range.end - range.start) as f64);
        }
        for pair in mean_per_rank.windows(2) {
            prop_assert!(
                pair[0] >= pair[1],
                "head frequency not monotone: {:?}", mean_per_rank
            );
        }
    }

    /// Replaying any generated trace through `frames` yields well-formed
    /// batches: ids strictly increasing record indices, wires in range,
    /// payload sizes per the record class, and (in user space) at most
    /// one offer per wire per tick.
    #[test]
    fn lowered_frames_are_well_formed(
        seed in any::<u64>(),
        p in 0.1f64..1.0,
        wires in 1usize..32,
        model_idx in 0usize..4,
    ) {
        let model = model_for(model_idx, p, 4.0, 100_000, 1.2);
        let trace = generate(model, wires, 20, 2, seed);
        let mut last_tick = None;
        for (tick, batch) in frames(&trace, wires) {
            prop_assert!(last_tick.is_none_or(|t| t < tick), "ticks ascend");
            last_tick = Some(tick);
            let mut taken = vec![false; wires];
            for message in &batch {
                prop_assert!(message.source < wires);
                prop_assert_eq!(message.payload.len(), 4, "class 2 = 4 bytes");
                if trace.space == SourceSpace::User {
                    prop_assert!(!taken[message.source], "one offer per wire");
                }
                taken[message.source] = true;
            }
        }
    }
}

//! Gate-level evaluation throughput: the scalar interpreter vs the 64-way
//! bit-parallel block evaluator vs the schedule reference interpreter vs
//! the instruction-compiled emulator, on Revsort switch control netlists.
//!
//! Unlike the Criterion-harnessed benches, this one writes a machine-
//! readable summary to `BENCH_netlist_eval.json` at the repository root:
//! vectors/second per engine for n ∈ {256, 1024, 4096} (the `compiled`
//! column, `eval_matrix` on every core, as the median of five measurement
//! windows), lane-width ablation rows for the emulator (one thread through
//! `eval_words_into`), and the chip-partition pin table at the largest
//! size. Each size also prices the switch's *datapath* two ways: the flat
//! stream (`datapath_insns`, and one 64-lane frame through it in
//! `datapath_us`) against the chip program serving runs (`chip_insns`,
//! summed over distinct chip types, and the same frame in `chip_us`).
//!
//! Flags (after `cargo bench -p bench --bench netlist_eval --`):
//!
//! * `--quick`       measure n = 1024 only and skip the ablation — the CI
//!   perf-smoke configuration;
//! * `--out PATH`    write the JSON somewhere other than the committed
//!   baseline (CI writes a fresh copy for comparison and upload).

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::bench_header;
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::verify::SplitMix64;
use concentrator::StagedSwitch;
use netlist::BitMatrix;

/// Lanes per compiled `eval_matrix` call for the headline rows — large
/// enough to amortize per-call scratch setup and to hand a 4-thread split
/// whole 512-lane groups (the verification and campaign workloads batch
/// at least this wide).
const MATRIX_VECTORS: usize = 4096;
/// Vectors per ablation measurement: a whole number of 512-lane groups.
const ABLATION_VECTORS: usize = 4096;
const MIN_MEASURE: Duration = Duration::from_millis(300);

/// Seconds per call of `routine`, measured over enough iterations to fill
/// the measurement window (with one warm-up call).
fn seconds_per_call<F: FnMut()>(mut routine: F) -> f64 {
    routine();
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        let elapsed = start.elapsed();
        if elapsed >= MIN_MEASURE {
            return elapsed.as_secs_f64() / iters as f64;
        }
        // Scale the iteration count toward the window, at least doubling.
        let scale = MIN_MEASURE.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        iters = (iters as f64 * scale.max(2.0)).ceil() as u64;
    }
}

/// Median of five [`seconds_per_call`] windows. The `compiled` row, which
/// CI's perf smoke gates, sweeps on every core, and single windows of it
/// swung by more than 1.7× between runs of one build on a shared 2-core
/// host; the single-threaded rows did not.
fn median_seconds_per_call<F: FnMut()>(mut routine: F) -> f64 {
    let mut windows: Vec<f64> = (0..5).map(|_| seconds_per_call(&mut routine)).collect();
    windows.sort_by(f64::total_cmp);
    windows[2]
}

struct SizeResult {
    n: usize,
    gates: usize,
    levels: usize,
    insns: usize,
    runs: usize,
    slots: usize,
    datapath_insns: usize,
    chip_insns: usize,
    datapath_us: f64,
    chip_us: f64,
    scalar_vps: f64,
    block64_vps: f64,
    reference_vps: f64,
    compiled_vps: f64,
}

struct AblationRow {
    n: usize,
    lanes: usize,
    vps: f64,
}

fn random_patterns(n: usize, vectors: usize) -> BitMatrix {
    let mut rng = SplitMix64(10);
    let blocks: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    BitMatrix::from_fn(n, vectors, |row, v| {
        blocks[row].rotate_left((v % 64) as u32) & 1 == 1
    })
}

fn measure(n: usize) -> SizeResult {
    let switch = RevsortSwitch::new(n, n / 2, RevsortLayout::TwoDee);
    let elab = switch.staged().control_logic(true);
    let nl = &elab.netlist;
    let compiled = &elab.compiled;
    compiled.self_check();

    let valid = SplitMix64(9).valid_bits(n, 0.5);
    let mut rng = SplitMix64(10);
    let blocks: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let patterns = random_patterns(n, MATRIX_VECTORS);

    // Sanity: all four engines must agree before we time them.
    let reference = nl.eval(&valid);
    let lane0_inputs: Vec<u64> = valid.iter().map(|&v| if v { 1u64 } else { 0 }).collect();
    let word_out = compiled.eval_word(&lane0_inputs);
    let sched_out = compiled.eval_word_reference(&lane0_inputs);
    let block_out = nl.eval_block(&lane0_inputs);
    for (o, &bit) in reference.iter().enumerate() {
        assert_eq!(
            word_out[o] & 1 == 1,
            bit,
            "emulator disagrees at output {o}"
        );
        assert_eq!(
            sched_out[o] & 1 == 1,
            bit,
            "schedule disagrees at output {o}"
        );
        assert_eq!(block_out[o] & 1 == 1, bit, "block disagrees at output {o}");
    }

    let scalar_spc = seconds_per_call(|| {
        black_box(nl.eval(black_box(&valid)));
    });
    let block_spc = seconds_per_call(|| {
        black_box(nl.eval_block(black_box(&blocks)));
    });
    let reference_spc = seconds_per_call(|| {
        black_box(compiled.eval_word_reference(black_box(&blocks)));
    });
    let compiled_spc = median_seconds_per_call(|| {
        black_box(compiled.eval_matrix(black_box(&patterns)));
    });

    let (datapath_us, chip_us) = datapath_frame_us(switch.staged());
    SizeResult {
        n,
        gates: nl.gate_count(),
        levels: compiled.level_count(),
        insns: compiled.insn_count(),
        runs: compiled.run_count(),
        slots: compiled.slot_count(),
        datapath_insns: switch.staged().datapath_logic(false).compiled.insn_count(),
        chip_insns: switch.staged().datapath_program().insn_count(),
        datapath_us,
        chip_us,
        scalar_vps: 1.0 / scalar_spc,
        block64_vps: 64.0 / block_spc,
        reference_vps: 64.0 / reference_spc,
        compiled_vps: MATRIX_VECTORS as f64 / compiled_spc,
    }
}

/// Microseconds per one-word (64-lane) frame of random valid and data
/// words through the switch's datapath on one thread: the flat stream
/// (`eval_word_into`), then the chip program (`ChipProgram::sweep`). The
/// two must agree on the frame before they are timed.
fn datapath_frame_us(switch: &StagedSwitch) -> (f64, f64) {
    let flat = switch.datapath_logic(false);
    let program = switch.datapath_program();
    let mut rng = SplitMix64(11);
    let inputs: Vec<u64> = (0..program.input_count()).map(|_| rng.next_u64()).collect();
    let mut flat_scratch = flat.compiled.scratch();
    let mut chip_scratch = program.scratch();
    let mut want = vec![0u64; program.output_count()];
    let mut got = vec![0u64; program.output_count()];
    flat.compiled
        .eval_word_into(&inputs, &mut flat_scratch, &mut want);
    program.sweep(&inputs, 1, &mut chip_scratch, &mut got);
    assert_eq!(got, want, "chip program disagrees with the flat datapath");
    let flat_spc = median_seconds_per_call(|| {
        flat.compiled
            .eval_word_into(black_box(&inputs), &mut flat_scratch, &mut want);
    });
    let chip_spc = median_seconds_per_call(|| {
        program.sweep(black_box(&inputs), 1, &mut chip_scratch, &mut got);
    });
    (flat_spc * 1e6, chip_spc * 1e6)
}

/// Lane-width sweep over the emulator at one size: the same vectors
/// through `eval_words_into` in groups of 1, 4 or 8 words on one thread,
/// with one scratch and one pair of word-major buffers.
fn ablate(n: usize) -> Vec<AblationRow> {
    let switch = RevsortSwitch::new(n, n / 2, RevsortLayout::TwoDee);
    let elab = switch.staged().control_logic(true);
    let compiled = &elab.compiled;
    let patterns = random_patterns(n, ABLATION_VECTORS);
    let words = patterns.words_per_row();
    let (ins, outs) = (compiled.input_count(), compiled.output_count());
    let word_in: Vec<u64> = (0..words)
        .flat_map(|w| (0..ins).map(move |i| (w, i)))
        .map(|(w, i)| patterns.word(i, w))
        .collect();
    let mut word_out = vec![0u64; words * outs];
    let mut scratch = compiled.scratch();
    let mut rows = Vec::new();
    for lw in [1usize, 4, 8] {
        let spc = seconds_per_call(|| {
            for w0 in (0..words).step_by(lw) {
                compiled.eval_words_into(
                    black_box(&word_in[w0 * ins..(w0 + lw) * ins]),
                    lw,
                    &mut scratch,
                    &mut word_out[w0 * outs..(w0 + lw) * outs],
                );
            }
            black_box(&word_out);
        });
        let (lanes, vps) = (64 * lw, ABLATION_VECTORS as f64 / spc);
        println!("  ablation n={n} lanes={lanes:3} threads=1  {vps:>12.0} v/s");
        rows.push(AblationRow { n, lanes, vps });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netlist_eval.json").to_string()
        });
    // `cargo bench` forwards its own --bench flag; ignore unknown args.

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sizes: &[usize] = if quick { &[1024] } else { &[256, 1024, 4096] };

    let mut results = Vec::new();
    for &n in sizes {
        let r = measure(n);
        println!(
            "n={:5}  gates={:7}  insns={:7}  runs={:5}  slots={:6}  levels={:3}  scalar={:>10.0} v/s  block64={:>11.0} v/s  schedule={:>11.0} v/s  emulator={:>12.0} v/s  speedup={:6.1}x",
            r.n,
            r.gates,
            r.insns,
            r.runs,
            r.slots,
            r.levels,
            r.scalar_vps,
            r.block64_vps,
            r.reference_vps,
            r.compiled_vps,
            r.compiled_vps / r.scalar_vps
        );
        println!(
            "         datapath: flat {:7} insns {:9.2} us/frame  chip program {:6} insns {:9.2} us/frame  ({:.2}x)",
            r.datapath_insns,
            r.datapath_us,
            r.chip_insns,
            r.chip_us,
            r.datapath_us / r.chip_us
        );
        results.push(r);
    }

    let ablation = if quick { Vec::new() } else { ablate(4096) };

    // Chip-partition pin table at the largest measured size.
    let part_n = *sizes.last().unwrap();
    let part_switch = RevsortSwitch::new(part_n, part_n / 2, RevsortLayout::TwoDee);
    let part = part_switch
        .staged()
        .control_logic(true)
        .compiled
        .partition_report();

    // The tentpole gate: ≥ 3× the pre-instruction-stream 25,683 v/s at
    // n=4096, asserted only on hosts with enough cores to exercise the
    // threaded sweep (the acceptance criterion is stated for ≥ 4 cores).
    if !quick {
        let r4096 = results.iter().find(|r| r.n == 4096).unwrap();
        println!(
            "n=4096 emulator {:.0} v/s vs old compiled 25683 v/s: {:.1}x ({} cores)",
            r4096.compiled_vps,
            r4096.compiled_vps / 25683.0,
            cores
        );
        if cores >= 4 {
            assert!(
                r4096.compiled_vps >= 3.0 * 25683.0,
                "n=4096 regressed below 3x the pre-instruction-stream engine"
            );
        }
    }

    let mut json = String::from("{\n");
    for (key, value) in bench_header("netlist_eval", quick) {
        let _ = writeln!(json, "  \"{key}\": {},", value.to_compact());
    }
    json.push_str("  \"netlist\": \"Revsort switch control logic (m = n/2, with pads)\",\n");
    json.push_str("  \"units\": \"vectors_per_second\",\n");
    json.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"gates\": {}, \"insns\": {}, \"runs\": {}, \"slots\": {}, \"levels\": {}, \"datapath_insns\": {}, \"chip_insns\": {}, \"datapath_us\": {:.2}, \"chip_us\": {:.2}, \"scalar\": {:.1}, \"block64\": {:.1}, \"schedule\": {:.1}, \"compiled\": {:.1}, \"speedup_block64_vs_scalar\": {:.2}, \"speedup_compiled_vs_scalar\": {:.2}}}{}",
            r.n,
            r.gates,
            r.insns,
            r.runs,
            r.slots,
            r.levels,
            r.datapath_insns,
            r.chip_insns,
            r.datapath_us,
            r.chip_us,
            r.scalar_vps,
            r.block64_vps,
            r.reference_vps,
            r.compiled_vps,
            r.block64_vps / r.scalar_vps,
            r.compiled_vps / r.scalar_vps,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"ablation\": [\n");
    for (i, r) in ablation.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"lanes\": {}, \"threads\": 1, \"vps\": {:.1}}}{}",
            r.n,
            r.lanes,
            r.vps,
            if i + 1 < ablation.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"partition\": {{\"n\": {}, \"chips\": {}, \"cut_wires\": {}, \"max_pins\": {}, \"max_gates\": {}, \"chip_gates\": {:?}, \"chip_in_pins\": {:?}, \"chip_out_pins\": {:?}}}",
        part_n,
        part.chips,
        part.cut_wires,
        part.max_pins(),
        part.max_gates(),
        part.chip_gates,
        part.chip_in_pins,
        part.chip_out_pins
    );
    json.push('}');
    json.push('\n');

    std::fs::write(&out_path, &json).expect("write netlist_eval JSON");
    println!("wrote {out_path}");
}

//! Acceptance test for the compiled netlist engine: on real switch
//! netlists with n = 16 inputs, [`netlist::CompiledNetlist`] must be
//! bit-identical to the scalar interpreter [`netlist::Netlist::eval`]
//! across the *entire* 2^16-pattern truth table.

use concentrator::full_columnsort::FullColumnsortHyperconcentrator;
use concentrator::full_revsort::FullRevsortHyperconcentrator;
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::{ColumnsortSwitch, StagedSwitch};
use netlist::{BitMatrix, CompiledNetlist};

const CHUNK: usize = 4096;

/// Sweep the full truth table of `switch`'s control netlist through the
/// compiled engine in 4096-lane batches and compare every output bit
/// against the scalar interpreter.
fn assert_truth_table_identical(switch: &StagedSwitch, with_pads: bool) {
    let n = switch.n;
    assert!(n <= 16, "exhaustive sweep only feasible for small n");
    let elab = switch.control_logic(with_pads);
    let total = 1u64 << n;
    let mut scratch = Vec::new();
    let mut base = 0u64;
    while base < total {
        let count = CHUNK.min((total - base) as usize);
        let inputs = BitMatrix::from_fn(n, count, |row, v| (base + v as u64) >> row & 1 == 1);
        let out = elab.compiled.eval_matrix(&inputs);
        for v in 0..count {
            let pattern = base + v as u64;
            scratch.clear();
            scratch.extend((0..n).map(|i| pattern >> i & 1 == 1));
            let expected = elab.netlist.eval(&scratch);
            for (o, &bit) in expected.iter().enumerate() {
                assert_eq!(
                    out.get(o, v),
                    bit,
                    "{}: pattern {pattern:#06x}, output {o}",
                    switch.name
                );
            }
        }
        base += count as u64;
    }
}

#[test]
fn revsort_switch_n16_truth_table() {
    let switch = RevsortSwitch::new(16, 12, RevsortLayout::TwoDee);
    assert_truth_table_identical(switch.staged(), false);
}

#[test]
fn revsort_switch_n16_truth_table_with_pads() {
    let switch = RevsortSwitch::new(16, 12, RevsortLayout::TwoDee);
    assert_truth_table_identical(switch.staged(), true);
}

#[test]
fn columnsort_switch_n16_truth_table() {
    let switch = ColumnsortSwitch::new(4, 4, 12);
    assert_truth_table_identical(switch.staged(), false);
}

#[test]
fn full_columnsort_hyperconcentrator_n16_truth_table() {
    // Exercises hardwired Const(±∞) padding gates in the compiled form.
    let switch = FullColumnsortHyperconcentrator::new(8, 2);
    assert_truth_table_identical(switch.staged(), false);
}

#[test]
fn full_revsort_hyperconcentrator_n16_truth_table() {
    let switch = FullRevsortHyperconcentrator::new(16);
    assert_truth_table_identical(switch.staged(), false);
}

/// Every word of `inputs` through `eval_word_into` on its own: the
/// per-word baseline, word `w` of output `o` at `w * outputs + o`.
fn per_word(compiled: &CompiledNetlist, inputs: &BitMatrix) -> Vec<u64> {
    let outs = compiled.output_count();
    let mut scratch = compiled.scratch();
    let mut out = vec![0u64; inputs.words_per_row() * outs];
    for (w, word) in out.chunks_exact_mut(outs).enumerate() {
        let block: Vec<u64> = (0..inputs.rows()).map(|i| inputs.word(i, w)).collect();
        compiled.eval_word_into(&block, &mut scratch, word);
    }
    out
}

#[test]
fn revsort_n16_truth_table_every_lane_width() {
    // Pin the instruction-stream emulator at every lane width (64/256/512
    // vectors per fetch), and the `eval_matrix` driver over them, against
    // the scalar interpreter over the entire 2^16 truth table. One
    // per-word sweep establishes the expected table; every lane group and
    // the driver must then be bit-identical to it.
    let switch = RevsortSwitch::new(16, 12, RevsortLayout::TwoDee);
    let elab = switch.staged().control_logic(true);
    let compiled = &elab.compiled;
    let (n, outs) = (16usize, compiled.output_count());
    let total = 1usize << n;
    let inputs = BitMatrix::from_fn(n, total, |row, v| v >> row & 1 == 1);

    let baseline = per_word(compiled, &inputs);
    let mut scratch = Vec::new();
    for pattern in (0..total).step_by(523) {
        scratch.clear();
        scratch.extend((0..n).map(|i| pattern >> i & 1 == 1));
        let expected = elab.netlist.eval(&scratch);
        for (o, &bit) in expected.iter().enumerate() {
            assert_eq!(
                baseline[pattern / 64 * outs + o] >> (pattern % 64) & 1 == 1,
                bit,
                "pattern {pattern:#06x} output {o}"
            );
        }
    }

    let mut group_scratch = compiled.scratch();
    for lw in [1usize, 4, 8] {
        let mut out = vec![0u64; lw * outs];
        for w0 in (0..inputs.words_per_row()).step_by(lw) {
            let block: Vec<u64> = (w0..w0 + lw)
                .flat_map(|w| (0..n).map(move |i| (w, i)))
                .map(|(w, i)| inputs.word(i, w))
                .collect();
            compiled.eval_words_into(&block, lw, &mut group_scratch, &mut out);
            assert_eq!(
                out[..],
                baseline[w0 * outs..(w0 + lw) * outs],
                "lw {lw}, word {w0}"
            );
        }
    }
    let out = compiled.eval_matrix(&inputs);
    assert!(out.tail_is_clear());
    for w in 0..inputs.words_per_row() {
        for o in 0..outs {
            assert_eq!(
                out.word(o, w),
                baseline[w * outs + o],
                "word {w} output {o}"
            );
        }
    }
}

#[test]
fn trace_netlist_n16_truth_table_sampled_lanes() {
    // The trace netlist marks the whole final-stage wire vector; check the
    // compiled batch agrees with the scalar trace on every pattern.
    let switch = ColumnsortSwitch::new(4, 4, 16);
    let elab = switch.staged().trace_logic(false);
    let inputs = BitMatrix::from_fn(16, 1 << 16, |row, v| v >> row & 1 == 1);
    let out = elab.compiled.eval_matrix(&inputs);
    for pattern in (0u64..(1 << 16)).step_by(157) {
        let valid: Vec<bool> = (0..16).map(|i| pattern >> i & 1 == 1).collect();
        let traced: Vec<bool> = switch
            .staged()
            .trace(&valid)
            .iter()
            .map(|&(v, _)| v)
            .collect();
        for (o, &bit) in traced.iter().enumerate() {
            assert_eq!(out.get(o, pattern as usize), bit, "pattern {pattern:#06x}");
        }
    }
}

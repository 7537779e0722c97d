//! Property-based tests over randomly generated netlists.

use netlist::{BitMatrix, GateKind, Literal, Netlist};
use proptest::prelude::*;

/// A recipe for one gate in a random DAG: kind selector plus input picks
/// (as fractions of the wires available when the gate is built).
#[derive(Debug, Clone)]
struct GateRecipe {
    kind: u8,
    inputs: Vec<(f64, bool)>,
}

fn recipe_strategy() -> impl Strategy<Value = GateRecipe> {
    (
        0u8..4,
        proptest::collection::vec((0.0f64..1.0, any::<bool>()), 1..5),
    )
        .prop_map(|(kind, inputs)| GateRecipe { kind, inputs })
}

/// Build a random netlist from recipes; every wire built so far (inputs
/// and prior gate outputs) is a candidate gate input.
fn build(n_inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut nl = Netlist::new();
    let mut wires: Vec<Literal> = nl
        .inputs_n(n_inputs)
        .into_iter()
        .map(Literal::pos)
        .collect();
    let c = nl.constant(true);
    wires.push(c);
    let c = nl.constant(false);
    wires.push(c);
    for recipe in recipes {
        let picks: Vec<Literal> = recipe
            .inputs
            .iter()
            .map(|&(frac, inv)| {
                let idx = ((frac * wires.len() as f64) as usize).min(wires.len() - 1);
                if inv {
                    wires[idx].complement()
                } else {
                    wires[idx]
                }
            })
            .collect();
        let out = match recipe.kind {
            0 => nl.and(picks),
            1 => nl.or(picks),
            2 => nl.xor(picks),
            _ => nl.buf(picks[0]),
        };
        wires.push(out);
    }
    // Mark the last few wires as outputs.
    for lit in wires.iter().rev().take(3) {
        nl.mark_output(*lit);
    }
    nl
}

proptest! {
    /// Folding constants never changes the computed function.
    #[test]
    fn fold_preserves_function(
        n_inputs in 1usize..6,
        recipes in proptest::collection::vec(recipe_strategy(), 1..20),
        pattern in any::<u8>(),
    ) {
        let nl = build(n_inputs, &recipes);
        let folded = nl.fold_constants();
        prop_assert_eq!(folded.input_count(), nl.input_count());
        prop_assert_eq!(folded.output_count(), nl.output_count());
        let bits: Vec<bool> = (0..n_inputs).map(|i| (pattern >> i) & 1 == 1).collect();
        prop_assert_eq!(folded.eval(&bits), nl.eval(&bits));
        prop_assert!(folded.area_report().gates <= nl.area_report().gates);
        prop_assert!(folded.depth() <= nl.depth());
    }

    /// Bit-parallel block evaluation agrees with scalar evaluation on
    /// every lane.
    #[test]
    fn block_eval_matches_scalar(
        n_inputs in 1usize..6,
        recipes in proptest::collection::vec(recipe_strategy(), 1..15),
        seed in any::<u64>(),
    ) {
        let nl = build(n_inputs, &recipes);
        let blocks: Vec<u64> = (0..n_inputs)
            .map(|i| seed.rotate_left(i as u32 * 7).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let block_out = nl.eval_block(&blocks);
        for lane in [0usize, 1, 13, 63] {
            let bits: Vec<bool> = blocks.iter().map(|b| (b >> lane) & 1 == 1).collect();
            let scalar = nl.eval(&bits);
            for (o, word) in block_out.iter().enumerate() {
                prop_assert_eq!(scalar[o], (word >> lane) & 1 == 1);
            }
        }
    }

    /// Unbounded fan-in depth is a lower bound for any bounded fan-in
    /// repricing, and large limits converge to it.
    #[test]
    fn bounded_fanin_depth_ordering(
        n_inputs in 1usize..6,
        recipes in proptest::collection::vec(recipe_strategy(), 1..15),
    ) {
        let nl = build(n_inputs, &recipes);
        let wide = nl.depth();
        let d2 = nl.depth_bounded_fanin(2);
        let d4 = nl.depth_bounded_fanin(4);
        let d64 = nl.depth_bounded_fanin(64);
        prop_assert!(wide <= d64);
        prop_assert!(d64 <= d4);
        prop_assert!(d4 <= d2);
        // Fan-in never exceeds 4 literals in these recipes, so limit 64
        // must match the wide depth exactly.
        prop_assert_eq!(d64, wide);
    }

    /// The compiled engine agrees with both interpreters — scalar
    /// [`Netlist::eval`] and 64-lane [`Netlist::eval_block`] — on random
    /// netlists (which include Const gates and inverted fan-ins) and on
    /// inverted output literals, across ragged vector counts.
    #[test]
    fn compiled_matches_interpreters(
        n_inputs in 1usize..6,
        recipes in proptest::collection::vec(recipe_strategy(), 1..20),
        seed in any::<u64>(),
    ) {
        let mut nl = build(n_inputs, &recipes);
        // Mark an inverted twin of an existing output so output-literal
        // application is exercised in the compiled path.
        let twin = nl.outputs()[0].complement();
        nl.mark_output(twin);
        let compiled = nl.compile();

        // 64-lane word path vs the block interpreter.
        let blocks: Vec<u64> = (0..n_inputs)
            .map(|i| seed.rotate_left(i as u32 * 11).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        prop_assert_eq!(compiled.eval_word(&blocks), nl.eval_block(&blocks));

        // Multi-word matrix path vs the scalar interpreter, with a vector
        // count that is not a multiple of 64.
        let vectors = 97usize;
        let m = netlist::BitMatrix::from_fn(n_inputs, vectors, |row, v| {
            (seed.rotate_left((row * 13 + v) as u32) & 1) == 1
        });
        let out = compiled.eval_matrix(&m);
        for v in [0usize, 1, 42, 63, 64, 96] {
            prop_assert_eq!(out.column(v), nl.eval(&m.column(v)));
        }
    }

    /// Every lane width of the emulator, and the `eval_matrix` driver,
    /// agree with the per-word `eval_word_into` baseline on ragged vector
    /// counts (pad words of the last group are zero), and the driver's
    /// matrix has a clear tail.
    #[test]
    fn lane_widths_agree(
        n_inputs in 1usize..6,
        recipes in proptest::collection::vec(recipe_strategy(), 1..20),
        vectors in 1usize..600,
        seed in any::<u64>(),
    ) {
        let nl = build(n_inputs, &recipes);
        let compiled = nl.compile();
        let outs = compiled.output_count();
        let m = BitMatrix::from_fn(n_inputs, vectors, |row, v| {
            (seed.rotate_left((row * 13 + v) as u32) & 1) == 1
        });
        let words = m.words_per_row();
        let block = |w: usize| -> Vec<u64> {
            (0..n_inputs).map(|i| if w < words { m.word(i, w) } else { 0 }).collect()
        };
        let mut scratch = compiled.scratch();
        let mut baseline = vec![0u64; (words + 7) * outs];
        for w in 0..words + 7 {
            compiled.eval_word_into(&block(w), &mut scratch, &mut baseline[w * outs..(w + 1) * outs]);
        }
        for lw in [1usize, 4, 8] {
            let mut out = vec![0u64; lw * outs];
            for w0 in (0..words).step_by(lw) {
                let inputs: Vec<u64> = (w0..w0 + lw).flat_map(block).collect();
                compiled.eval_words_into(&inputs, lw, &mut scratch, &mut out);
                prop_assert_eq!(&out[..], &baseline[w0 * outs..(w0 + lw) * outs], "lw {} word {}", lw, w0);
            }
        }
        let out = compiled.eval_matrix(&m);
        prop_assert!(out.tail_is_clear());
        for w in 0..words {
            let tail = if w + 1 == words && vectors % 64 != 0 { (1u64 << (vectors % 64)) - 1 } else { !0 };
            for o in 0..outs {
                prop_assert_eq!(out.word(o, w), baseline[w * outs + o] & tail, "word {} output {}", w, o);
            }
        }
    }

    /// JSON round trip preserves structure and function.
    #[test]
    fn serde_round_trip(
        n_inputs in 1usize..5,
        recipes in proptest::collection::vec(recipe_strategy(), 1..10),
        pattern in any::<u8>(),
    ) {
        let nl = build(n_inputs, &recipes);
        let json = netlist::json::to_string(&nl);
        let back: Netlist = netlist::json::from_str(&json).expect("deserialize");
        let bits: Vec<bool> = (0..n_inputs).map(|i| (pattern >> i) & 1 == 1).collect();
        prop_assert_eq!(back.eval(&bits), nl.eval(&bits));
        prop_assert_eq!(back.gate_count(), nl.gate_count());
    }

    /// Import into a fresh netlist preserves the function.
    #[test]
    fn import_preserves_function(
        n_inputs in 1usize..5,
        recipes in proptest::collection::vec(recipe_strategy(), 1..10),
        pattern in any::<u8>(),
    ) {
        let sub = build(n_inputs, &recipes);
        let mut outer = Netlist::new();
        let ins: Vec<Literal> =
            outer.inputs_n(n_inputs).into_iter().map(Literal::pos).collect();
        let outs = outer.import(&sub, &ins);
        for o in outs {
            outer.mark_output(o);
        }
        let bits: Vec<bool> = (0..n_inputs).map(|i| (pattern >> i) & 1 == 1).collect();
        prop_assert_eq!(outer.eval(&bits), sub.eval(&bits));
    }
}

#[test]
fn gate_kind_delay_consistency() {
    // Non-property sanity: folding a circuit of only constants leaves no
    // gates at all.
    let mut nl = Netlist::new();
    let t = nl.constant(true);
    let f = nl.constant(false);
    let g = nl.and([t, f]);
    let h = nl.or([g, t]);
    nl.mark_output(h);
    let folded = nl.fold_constants();
    assert_eq!(folded.area_report().gates, 0);
    assert_eq!(folded.eval(&[]), vec![true]);
    assert_eq!(GateKind::And.delay(), 1);
}

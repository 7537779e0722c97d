//! Compiled netlist engine: a two-phase compiler→emulator in the style of
//! hardware emulation engines.
//!
//! [`Netlist::eval`] and [`Netlist::eval_block`] walk the builder's data
//! structures directly: every gate dereferences a `Vec<Literal>` of its own,
//! and every wire dispatches through the driver table. That is fine for
//! one vector, but Monte Carlo verification, fault campaigns, and the
//! serving fabric push millions of vectors through the same circuit, so
//! this module compiles a netlist **once**, in two phases:
//!
//! 1. **Schedule** (phase 1, this file): the gate list is levelized via
//!    the depth machinery and every gate's fan-in literals are flattened
//!    into one contiguous arena. The schedule is the partitioner's input
//!    and doubles as a slow reference interpreter
//!    ([`CompiledNetlist::eval_word_reference`]) for differential
//!    testing.
//! 2. **Instruction stream** (phase 2, [`crate::insn`]): the schedule is
//!    lowered onto a chip partition ([`crate::partition`]) as a dense
//!    stream of fixed-width op/src-a/src-b/dst records over
//!    liveness-recycled value slots, and the emulator sweeps it in lane
//!    groups of 64, 256, or 512 test vectors (portable unrolled u64, AVX2,
//!    or AVX-512 kernels).
//!
//! The emulator has one entry point per lane group,
//! [`CompiledNetlist::eval_words_into`], and one driver for batches,
//! [`CompiledNetlist::sweep`]: it owns the word-major buffers, the
//! scratch, the lane-group rule ([`lane_group`]), pad zeroing and the
//! thread split, and callers give it a per-word fill and a per-word score.
//! [`CompiledNetlist::eval_matrix`] is a short wrapper over it for
//! [`BitMatrix`] batches.
//!
//! Literal semantics are shared with the interpreters through
//! [`Literal::apply`] / [`Literal::apply_word`], so all paths agree by
//! construction; the equivalence is additionally enforced by truth-table
//! and property tests at every lane width.

use std::sync::Mutex;

use crate::builder::Netlist;
use crate::gate::GateKind;
use crate::insn::{detect_simd, lower, InsnStream, Simd};
pub use crate::matrix::BitMatrix;
use crate::partition::{partition_schedule, report, Partition, PartitionReport};
use crate::wire::{Literal, Wire};

/// Chips the default compilation partitions onto: the chip count of the
/// packaging table and of the (level, chip) groups the lowered stream is
/// ordered by. Prefix sharing never crosses chips, so the count shapes
/// the instruction stream (and its gated instruction counts), but never
/// an output.
pub const DEFAULT_CHIPS: usize = 8;

/// Words per [`CompiledNetlist::sweep`] group: one 512-lane sweep, the
/// driver's unit of work and of its thread split.
const GROUP_WORDS: usize = 8;

/// Width, in 64-lane words, of the next lane group when `words_left`
/// words of a batch remain: 1 when one is left, 4 when two to four are,
/// else 8. A group wider than what is left is padded; the outputs of
/// [`CompiledNetlist::eval_words_into`] for real words do not depend on
/// what the pad words hold.
#[inline]
pub fn lane_group(words_left: usize) -> usize {
    match words_left {
        ..=1 => 1,
        2..=4 => 4,
        _ => 8,
    }
}

/// The most threads a library caller of [`CompiledNetlist::sweep`] asks
/// for: [`std::thread::available_parallelism`] as the *calling* thread
/// sees it, which honours its CPU affinity, so a caller pinned to one CPU
/// runs the whole sweep itself.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Compiled gate opcode. [`GateKind::Const`] splits into two opcodes so
/// no evaluator ever touches a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    And,
    Or,
    Xor,
    Buf,
    ConstTrue,
    ConstFalse,
}

/// A literal packed into one word: wire index in the high bits, inversion
/// flag in bit 0.
pub(crate) type PackedLit = u32;

#[inline]
pub(crate) fn pack(lit: Literal) -> PackedLit {
    let w = lit.wire.index() as u32;
    assert!(w < (1 << 31), "netlist exceeds 2^31 wires");
    (w << 1) | lit.inverted as u32
}

#[inline]
pub(crate) fn unpack(packed: PackedLit) -> Literal {
    Literal {
        wire: Wire(packed >> 1),
        inverted: packed & 1 == 1,
    }
}

/// Phase-1 compilation output: the levelized, arena-flattened schedule.
///
/// This is the input to the partitioner and the phase-2 lowering, and —
/// via [`Schedule::eval_word`] — a slow reference evaluator the
/// instruction stream is differentially tested against.
#[derive(Debug, Clone)]
pub(crate) struct Schedule {
    /// Total wire count.
    pub wire_count: usize,
    /// Wire index of each primary input, in input-ordinal order.
    pub input_wires: Vec<u32>,
    /// Opcode per scheduled gate, in levelized order.
    pub ops: Vec<Op>,
    /// Output wire index per scheduled gate.
    pub outs: Vec<u32>,
    /// Prefix offsets into `lits`: gate `g` reads `lits[bounds[g]..bounds[g+1]]`.
    pub lit_bounds: Vec<u32>,
    /// Flattened fan-in literal arena.
    pub lits: Vec<PackedLit>,
    /// Level boundaries over the scheduled gate list: level `l` is the gate
    /// range `levels[l]..levels[l+1]`. Within a level no gate reads another's
    /// output, so a level is a parallel-safe unit of work.
    pub levels: Vec<u32>,
    /// Packed primary-output literals, in marking order.
    pub outputs: Vec<PackedLit>,
}

impl Schedule {
    /// Levelize `nl` via the depth report, then flatten.
    pub(crate) fn new(nl: &Netlist) -> Self {
        let depth = nl.depth_report();
        // Stable sort by output-wire depth keeps builder order within a
        // level, so compilation is deterministic.
        let mut order: Vec<u32> = (0..nl.gates.len() as u32).collect();
        order.sort_by_key(|&g| depth.wire_depth[nl.gates[g as usize].output.index()]);

        let lit_total: usize = nl.gates.iter().map(|g| g.inputs.len()).sum();
        let mut ops = Vec::with_capacity(order.len());
        let mut outs = Vec::with_capacity(order.len());
        let mut lit_bounds = Vec::with_capacity(order.len() + 1);
        let mut lits = Vec::with_capacity(lit_total);
        let mut levels = vec![0u32];
        lit_bounds.push(0u32);

        let mut current_depth = None;
        for (slot, &g) in order.iter().enumerate() {
            let gate = &nl.gates[g as usize];
            let d = depth.wire_depth[gate.output.index()];
            match current_depth {
                Some(prev) if prev == d => {}
                Some(_) => levels.push(slot as u32),
                None => {}
            }
            current_depth = Some(d);
            ops.push(match gate.kind {
                GateKind::And => Op::And,
                GateKind::Or => Op::Or,
                GateKind::Xor => Op::Xor,
                GateKind::Buf => Op::Buf,
                GateKind::Const(true) => Op::ConstTrue,
                GateKind::Const(false) => Op::ConstFalse,
            });
            outs.push(gate.output.index() as u32);
            for &lit in &gate.inputs {
                lits.push(pack(lit));
            }
            lit_bounds.push(lits.len() as u32);
        }
        levels.push(order.len() as u32);

        Schedule {
            wire_count: nl.wire_count(),
            input_wires: nl.inputs().iter().map(|w| w.index() as u32).collect(),
            ops,
            outs,
            lit_bounds,
            lits,
            levels,
            outputs: nl.outputs().iter().map(|&l| pack(l)).collect(),
        }
    }

    /// Fan-in literal span of scheduled gate `g`.
    #[inline]
    pub(crate) fn gate_lits(&self, g: usize) -> &[PackedLit] {
        &self.lits[self.lit_bounds[g] as usize..self.lit_bounds[g + 1] as usize]
    }

    /// One levelized 64-lane sweep over the schedule itself — the
    /// reference semantics the instruction stream must reproduce.
    fn sweep(&self, wires: &mut [u64]) {
        for level in self.levels.windows(2) {
            for g in level[0] as usize..level[1] as usize {
                let span = self.gate_lits(g);
                let fetch = |&packed: &PackedLit| -> u64 {
                    let lit = unpack(packed);
                    lit.apply_word(wires[lit.wire.index()])
                };
                let v = match self.ops[g] {
                    Op::And => span.iter().map(fetch).fold(!0u64, |a, b| a & b),
                    Op::Or => span.iter().map(fetch).fold(0u64, |a, b| a | b),
                    Op::Xor => span.iter().map(fetch).fold(0u64, |a, b| a ^ b),
                    Op::Buf => fetch(&span[0]),
                    Op::ConstTrue => !0u64,
                    Op::ConstFalse => 0u64,
                };
                wires[self.outs[g] as usize] = v;
            }
        }
    }

    /// Evaluate 64 vectors against the schedule directly (one word per
    /// wire, no slot recycling).
    pub(crate) fn eval_word(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(
            inputs.len(),
            self.input_wires.len(),
            "wrong number of input blocks"
        );
        let mut wires = vec![0u64; self.wire_count];
        for (ord, &w) in self.input_wires.iter().enumerate() {
            wires[w as usize] = inputs[ord];
        }
        self.sweep(&mut wires);
        self.outputs
            .iter()
            .map(|&packed| {
                let lit = unpack(packed);
                lit.apply_word(wires[lit.wire.index()])
            })
            .collect()
    }
}

/// A netlist compiled for batch evaluation: the phase-1 `Schedule`, its
/// chip partition, and the phase-2 instruction stream the emulator
/// actually runs.
///
/// Construction is `O(wires + literals)` after one depth pass; the
/// compiled form is immutable and holds no reference to the source
/// [`Netlist`], so it can be cached and shared across verification,
/// simulation, serving, and search.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    schedule: Schedule,
    partition: Partition,
    stream: InsnStream,
    simd: Simd,
}

impl Netlist {
    /// Compile this netlist for batch evaluation, partitioned onto
    /// [`DEFAULT_CHIPS`] chips.
    pub fn compile(&self) -> CompiledNetlist {
        self.compile_partitioned(DEFAULT_CHIPS)
    }

    /// Compile with an explicit chip count (≥ 1). The partition sets the
    /// chips/pins packaging table and the (level, chip) groups of the
    /// lowered stream; every chip count evaluates to the same outputs.
    pub fn compile_partitioned(&self, chips: usize) -> CompiledNetlist {
        CompiledNetlist::new_partitioned(self, chips)
    }
}

impl CompiledNetlist {
    /// Compile `nl` onto [`DEFAULT_CHIPS`] chips.
    pub fn new(nl: &Netlist) -> Self {
        Self::new_partitioned(nl, DEFAULT_CHIPS)
    }

    /// Compile `nl` onto `chips` chips: levelize, partition, lower.
    pub fn new_partitioned(nl: &Netlist, chips: usize) -> Self {
        let schedule = Schedule::new(nl);
        let partition = partition_schedule(&schedule, chips.max(1));
        let stream = lower(&schedule, &partition);
        CompiledNetlist {
            schedule,
            partition,
            stream,
            simd: detect_simd(),
        }
    }

    /// Number of primary inputs.
    #[inline]
    pub fn input_count(&self) -> usize {
        self.schedule.input_wires.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn output_count(&self) -> usize {
        self.schedule.outputs.len()
    }

    /// Number of scheduled gates.
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.schedule.ops.len()
    }

    /// Number of wires in the source netlist.
    #[inline]
    pub fn wire_count(&self) -> usize {
        self.schedule.wire_count
    }

    /// Number of levels in the schedule.
    #[inline]
    pub fn level_count(&self) -> usize {
        self.schedule.levels.len() - 1
    }

    /// Total fan-in literals in the arena.
    #[inline]
    pub fn literal_count(&self) -> usize {
        self.schedule.lits.len()
    }

    /// Number of emulator instructions in the lowered stream.
    #[inline]
    pub fn insn_count(&self) -> usize {
        self.stream.insns.len()
    }

    /// Number of opcode runs in the lowered stream: the emulator's
    /// dispatches per sweep.
    #[inline]
    pub fn run_count(&self) -> usize {
        self.stream.runs.len()
    }

    /// Value slots the emulator sweeps over — peak live wires after
    /// level-blocked recycling, and the scratch words per lane. For the
    /// switch netlists this is a small fraction of [`Self::wire_count`],
    /// which is what keeps wide sweeps cache-resident.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.stream.slot_count
    }

    /// Number of chips the schedule is partitioned onto.
    #[inline]
    pub fn chip_count(&self) -> usize {
        self.partition.chips
    }

    /// Price this compilation's chip partition in the paper's packaging
    /// currency: gates, pins, and cut wires per chip.
    pub fn partition_report(&self) -> PartitionReport {
        report(&self.schedule, &self.partition)
    }

    /// Validate the lowered stream's slot bounds and per-level cross-chip
    /// write/read disjointness. Cheap relative to compilation; runs
    /// automatically in debug builds, callable from tests and benches.
    pub fn self_check(&self) {
        self.stream.self_check();
    }

    /// A fresh scratch buffer for this circuit: one 64-lane word per value
    /// slot, grown to `slot_count × lw` words the first time a wider lane
    /// group is swept through it.
    pub fn scratch(&self) -> EvalScratch {
        EvalScratch {
            slots: self.stream.slot_count,
            vals: vec![0u64; self.stream.slot_count],
        }
    }

    /// Evaluate 64 vectors: bit `j` of `inputs[i]` is primary input `i` in
    /// vector `j`. Compiled counterpart of [`Netlist::eval_block`], writing
    /// one word per output into `out` — the `lw = 1` case of
    /// [`CompiledNetlist::eval_words_into`].
    pub fn eval_word_into(&self, inputs: &[u64], scratch: &mut EvalScratch, out: &mut [u64]) {
        self.eval_words_into(inputs, 1, scratch, out);
    }

    /// Evaluate `lw` words of 64 vectors each (`lw` ∈ {1, 4, 8}) in one
    /// lane-group sweep. `inputs` holds `lw` one-word input blocks back to
    /// back — word `k` of primary input `i` is `inputs[k * input_count + i]`
    /// — and word `k` of output `o` lands in `out[k * output_count + o]`.
    /// One instruction fetch serves all `lw` words, so a 512-lane sweep
    /// costs far less than eight 64-lane ones.
    ///
    /// # Panics
    /// If `lw` is not 1, 4, or 8, a buffer has the wrong length, or
    /// `scratch` was made by another circuit.
    pub fn eval_words_into(
        &self,
        inputs: &[u64],
        lw: usize,
        scratch: &mut EvalScratch,
        out: &mut [u64],
    ) {
        assert!(
            matches!(lw, 1 | 4 | 8),
            "lane group width must be 1, 4, or 8 words"
        );
        let (ins, outs) = (self.stream.input_slots.len(), self.stream.outputs.len());
        assert_eq!(inputs.len(), ins * lw, "wrong number of input blocks");
        assert_eq!(out.len(), outs * lw, "wrong number of output blocks");
        assert_eq!(
            scratch.slots, self.stream.slot_count,
            "scratch sized for another circuit"
        );
        let words = self.stream.slot_count * lw;
        if scratch.vals.len() < words {
            scratch.vals.resize(words, 0);
        }
        self.stream
            .eval_words(inputs, lw, &mut scratch.vals, out, self.simd);
    }

    /// Allocating convenience over [`CompiledNetlist::eval_word_into`].
    pub fn eval_word(&self, inputs: &[u64]) -> Vec<u64> {
        let mut scratch = self.scratch();
        let mut out = vec![0u64; self.stream.outputs.len()];
        self.eval_word_into(inputs, &mut scratch, &mut out);
        out
    }

    /// Evaluate 64 vectors against the phase-1 schedule instead of the
    /// instruction stream — the "old" compiled engine, kept as a
    /// reference implementation for differential tests. Slow path:
    /// allocates a full wire-indexed buffer per call.
    pub fn eval_word_reference(&self, inputs: &[u64]) -> Vec<u64> {
        self.schedule.eval_word(inputs)
    }

    /// Evaluate every vector of `inputs` (one row per primary input):
    /// [`CompiledNetlist::sweep`] on [`sweep_threads`] threads, each word
    /// gathered from the matrix rows and its outputs stored straight into
    /// the result. Unused lanes in the final word of every output row are
    /// zeroed, so row popcounts are exact over the matrix's `vectors`
    /// columns.
    pub fn eval_matrix(&self, inputs: &BitMatrix) -> BitMatrix {
        assert_eq!(
            inputs.rows(),
            self.input_count(),
            "wrong number of input rows"
        );
        let out = Mutex::new(BitMatrix::zeroed(self.output_count(), inputs.vectors()));
        self.sweep::<()>(
            inputs.words_per_row(),
            sweep_threads(),
            |w, rows| {
                for (i, word) in rows.iter_mut().enumerate() {
                    *word = inputs.word(i, w);
                }
            },
            |_, w, _, words| {
                let mut out = out.lock().expect("an eval_matrix worker panicked");
                for (o, &word) in words.iter().enumerate() {
                    *out.word_mut(o, w) = word;
                }
            },
        );
        let mut out = out.into_inner().expect("an eval_matrix worker panicked");
        out.mask_tail();
        out
    }

    /// Sweep a batch of `words` 64-lane input words and score each output
    /// word: the one batch driver over
    /// [`CompiledNetlist::eval_words_into`].
    ///
    /// The batch is cut into groups of 8 words, each swept in one
    /// [`lane_group`]; a short final group is padded with zero words,
    /// which are never scored. Group `g` goes to thread `g % t`, where `t`
    /// is `threads` clamped to `1..=groups`; one thread runs on the
    /// caller, with no spawn. Every thread allocates its scratch, its
    /// word-major input and output buffers and its accumulator once.
    /// Within a thread, words are filled and scored in increasing order.
    ///
    /// * `fill(w, rows)` writes input word `w`: `rows[i]` is primary input
    ///   `i` of vectors `64w..64w + 64`.
    /// * `score(acc, w, inputs, outputs)` folds word `w` into the calling
    ///   thread's accumulator; `inputs` is what `fill` wrote and
    ///   `outputs[o]` is primary output `o` of the same vectors.
    ///
    /// Returns the accumulators, one per thread, in thread order. Library
    /// callers pass [`sweep_threads`]; a result that is a maximum, a sum
    /// or a sorted merge over words does not depend on it.
    pub fn sweep<A: Default + Send>(
        &self,
        words: usize,
        threads: usize,
        fill: impl Fn(usize, &mut [u64]) + Sync,
        score: impl Fn(&mut A, usize, &[u64], &[u64]) + Sync,
    ) -> Vec<A> {
        let (ins, outs) = (self.input_count(), self.output_count());
        let groups = words.div_ceil(GROUP_WORDS);
        let threads = threads.clamp(1, groups.max(1));
        let run = |t: usize| {
            let mut scratch = self.scratch();
            let mut inputs = vec![0u64; GROUP_WORDS * ins];
            let mut out = vec![0u64; GROUP_WORDS * outs];
            let mut acc = A::default();
            for g in (t..groups).step_by(threads) {
                let first = g * GROUP_WORDS;
                let real = GROUP_WORDS.min(words - first);
                let lw = lane_group(real);
                for k in 0..real {
                    fill(first + k, &mut inputs[k * ins..(k + 1) * ins]);
                }
                inputs[real * ins..lw * ins].fill(0);
                self.eval_words_into(&inputs[..lw * ins], lw, &mut scratch, &mut out[..lw * outs]);
                for k in 0..real {
                    let word_in = &inputs[k * ins..(k + 1) * ins];
                    score(&mut acc, first + k, word_in, &out[k * outs..(k + 1) * outs]);
                }
            }
            acc
        };
        std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|t| scope.spawn(move || run(t))).collect();
            let mut accs = vec![run(0)];
            accs.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked")),
            );
            accs
        })
    }
}

/// Reusable per-evaluation scratch: `lw` 64-lane words per value slot
/// for the widest lane group swept through it so far.
///
/// Allocated once via [`CompiledNetlist::scratch`] and reused across calls
/// (e.g. across clock cycles of a frame simulation) to keep the hot loop
/// allocation-free. Sweeps overwrite every slot they read, so no state
/// leaks between calls.
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Value slots of the circuit this scratch was made for.
    slots: usize,
    vals: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority3() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let ab = nl.and([a, b]);
        let bc = nl.and([b, c]);
        let ac = nl.and([a, c]);
        let out = nl.or([ab, bc, ac]);
        nl.mark_output(out);
        nl
    }

    /// A circuit hitting every opcode, inverted fan-ins, wide fan-in
    /// (accumulator chains), and an inverted output literal.
    fn kitchen_sink() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let d = nl.input();
        let t = nl.constant(true);
        let f = nl.constant(false);
        let x1 = nl.xor([Literal::pos(a), Literal::neg(b), t]);
        let x2 = nl.and([x1, Literal::pos(c), f.complement()]);
        let x3 = nl.or([x2, Literal::neg(d), x1.complement()]);
        let x4 = nl.buf(x3);
        let x5 = nl.and([x1, x2, x3, x4, Literal::neg(a)]);
        nl.mark_output(x4);
        nl.mark_output(x3.complement());
        nl.mark_output(f);
        nl.mark_output(x5);
        nl
    }

    fn assert_full_truth_table(nl: &Netlist) {
        let n = nl.input_count();
        assert!(n <= 16, "truth-table check limited to 16 inputs");
        let compiled = nl.compile();
        compiled.self_check();
        let vectors = 1usize << n;
        let m = BitMatrix::from_fn(n, vectors, |row, vector| (vector >> row) & 1 == 1);
        let out = compiled.eval_matrix(&m);
        for vector in 0..vectors {
            let bits: Vec<bool> = (0..n).map(|i| (vector >> i) & 1 == 1).collect();
            let expected = nl.eval(&bits);
            assert_eq!(out.column(vector), expected, "vector {vector}");
        }
    }

    #[test]
    fn compiled_matches_eval_on_majority_truth_table() {
        assert_full_truth_table(&majority3());
    }

    #[test]
    fn compiled_matches_eval_on_kitchen_sink_truth_table() {
        assert_full_truth_table(&kitchen_sink());
    }

    #[test]
    fn eval_word_matches_eval_block_and_reference() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..10 {
            let blocks: Vec<u64> = (0..nl.input_count())
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    state
                })
                .collect();
            assert_eq!(compiled.eval_word(&blocks), nl.eval_block(&blocks));
            assert_eq!(
                compiled.eval_word(&blocks),
                compiled.eval_word_reference(&blocks)
            );
        }
    }

    #[test]
    fn levels_respect_dependencies() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        let sched = &compiled.schedule;
        assert!(compiled.level_count() >= 3);
        // Every gate's fan-in wires must be written by an earlier level or
        // be primary inputs.
        let mut written_level = vec![0usize; compiled.wire_count()];
        for (l, level) in sched.levels.windows(2).enumerate() {
            for g in level[0] as usize..level[1] as usize {
                written_level[sched.outs[g] as usize] = l + 1;
            }
        }
        for (l, level) in sched.levels.windows(2).enumerate() {
            for g in level[0] as usize..level[1] as usize {
                for &p in sched.gate_lits(g) {
                    let src = unpack(p).wire.index();
                    assert!(
                        written_level[src] <= l,
                        "gate at level {} reads wire written at level {}",
                        l + 1,
                        written_level[src]
                    );
                }
            }
        }
    }

    #[test]
    fn slot_recycling_shrinks_the_working_set() {
        // The kitchen sink is tiny, so check on a deliberately deep
        // chain: n stages, each reading only the previous one, should
        // need O(1) slots, not O(n).
        let mut nl = Netlist::new();
        let mut cur = Literal::pos(nl.input());
        for i in 0..200 {
            cur = if i % 2 == 0 {
                nl.and([cur, cur.complement()])
            } else {
                nl.or([cur, cur])
            };
        }
        nl.mark_output(cur);
        let compiled = nl.compile();
        compiled.self_check();
        assert!(
            compiled.slot_count() <= 8,
            "deep chain should recycle slots, used {}",
            compiled.slot_count()
        );
        assert_eq!(compiled.wire_count(), 201);
        // Function survives the recycling.
        assert_eq!(compiled.eval_word(&[!0u64])[0], nl.eval_block(&[!0u64])[0]);
    }

    #[test]
    fn eval_matrix_handles_ragged_vector_counts() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        for vectors in [1usize, 63, 64, 65, 127, 130, 257, 300, 530] {
            let m = BitMatrix::from_fn(nl.input_count(), vectors, |row, v| {
                (v.wrapping_mul(2654435761) >> row) & 1 == 1
            });
            let out = compiled.eval_matrix(&m);
            assert_eq!(out.vectors(), vectors);
            for v in 0..vectors {
                assert_eq!(out.column(v), nl.eval(&m.column(v)), "vector {v}");
            }
            // Tail lanes must be masked: popcounts bounded by vectors.
            assert!(out.tail_is_clear());
            for o in 0..out.rows() {
                assert!(out.row_popcount(o) <= vectors);
            }
        }
    }

    /// A seeded random netlist: `inputs` primary inputs, `gates` gates of
    /// every kind with random (often inverted) fan-ins up to 6 wide, and
    /// a random mix of plain and inverted outputs. Half the gates open
    /// with a leading pair drawn from a small, slowly refreshed pool and
    /// read only primary inputs after it, so gates sharing a pair share a
    /// level, and wide ones on one chip share their chain prefix. One
    /// gate in seven is an AND–OR plane: an OR over AND-2 and AND-3 terms
    /// that nothing else reads (the AND-3s open with a pooled pair), which
    /// lowering fuses into the OR's chain.
    fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut nl = Netlist::new();
        let mut lits: Vec<Literal> = nl.inputs_n(inputs).into_iter().map(Literal::pos).collect();
        let mut pool = [(lits[0], lits[0]); 3];
        for _ in 0..gates {
            let fan_in = 1 + next(6);
            let mut ins: Vec<Literal> = (0..fan_in)
                .map(|_| {
                    let lit = lits[next(lits.len())];
                    if next(2) == 0 {
                        lit.complement()
                    } else {
                        lit
                    }
                })
                .collect();
            if next(8) == 0 {
                // Refresh one pool pair from the newest literals.
                let recent = |k: usize| lits[lits.len() - 1 - k % lits.len().min(8)];
                pool[next(3)] = (recent(next(8)), recent(next(8)).complement());
            }
            if fan_in >= 2 && next(2) == 0 {
                // A pooled pair plus primary inputs: every gate opening
                // with this pair lands on the same level.
                (ins[0], ins[1]) = pool[next(3)];
                for lit in &mut ins[2..] {
                    *lit = lits[next(inputs)];
                }
            }
            let lit = match next(7) {
                0 => nl.and(ins),
                1 => nl.or(ins),
                2 => nl.xor(ins),
                3 => nl.buf(ins[0]),
                4 => nl.constant(next(2) == 0),
                5 => {
                    let terms: Vec<Literal> = (0..fan_in)
                        .map(|k| match next(3) {
                            0 => ins[k],
                            1 => nl.and([ins[k], ins[(k + 1) % fan_in]]),
                            _ => {
                                let (p, q) = pool[next(3)];
                                nl.and([p, q, ins[k]])
                            }
                        })
                        .collect();
                    nl.or(terms)
                }
                _ => nl.and([ins[0], ins[ins.len() - 1].complement()]),
            };
            lits.push(lit);
        }
        for _ in 0..8 {
            let lit = lits[inputs + next(gates)];
            nl.mark_output(if next(2) == 0 { lit.complement() } else { lit });
        }
        nl
    }

    /// Instructions `nl` lowers to with no chain prefix shared and no AND
    /// fused: one per gate of fan-in ≤ 2, k − 1 per wider gate.
    fn unshared_insn_count(nl: &Netlist) -> usize {
        nl.gates().iter().map(|g| g.inputs.len().max(2) - 1).sum()
    }

    /// `OP_ANDOR` instructions in `compiled`'s stream.
    fn andor_count(compiled: &CompiledNetlist) -> usize {
        use crate::insn::{OP_ANDOR, OP_MASK};
        let ops = compiled.stream.insns.iter().map(|i| i.opword & OP_MASK);
        ops.filter(|&op| op == OP_ANDOR).count()
    }

    /// Every kernel family the dispatcher knows, whether or not this CPU
    /// would pick it by default, filtered to the ones it can run.
    fn runnable_kernels() -> Vec<Simd> {
        let mut all = vec![Simd::Scalar];
        #[cfg(target_arch = "x86_64")]
        all.extend([Simd::Avx2, Simd::Avx512]);
        all.into_iter()
            .filter(|&simd| crate::insn::simd_available(simd))
            .collect()
    }

    /// Forced dispatch: the same random netlists and ragged matrices give
    /// bit-identical results through every runnable kernel, in
    /// `eval_matrix` and at every lane width, so the scalar and AVX2
    /// kernels stay covered on hosts whose probe would pick AVX-512. The
    /// netlists carry fused AND–OR planes, so every kernel runs
    /// `OP_ANDOR`.
    #[test]
    fn every_runnable_kernel_is_bit_identical() {
        let kernels = runnable_kernels();
        assert_eq!(kernels[0], Simd::Scalar);
        let (mut sharing, mut fusing) = (0, 0);
        for seed in 0..12u64 {
            let nl = random_netlist(seed, 3 + seed as usize % 9, 40 + 17 * seed as usize);
            let mut compiled = nl.compile_partitioned(1 + seed as usize % 4);
            sharing += usize::from(compiled.insn_count() < unshared_insn_count(&nl));
            fusing += usize::from(andor_count(&compiled) > 0);
            for vectors in [1usize, 63, 65, 257, 530, 1000] {
                let m = BitMatrix::from_fn(nl.input_count(), vectors, |row, v| {
                    (v.wrapping_mul(0x9E37_79B9).wrapping_add(seed as usize) >> (row % 29)) & 1 == 1
                });
                compiled.simd = Simd::Scalar;
                let reference = per_word(&compiled, &m);
                for v in (0..vectors).step_by(37) {
                    assert_eq!(reference.column(v), nl.eval(&m.column(v)), "seed {seed}");
                }
                for &simd in &kernels {
                    compiled.simd = simd;
                    assert_eq!(
                        compiled.eval_matrix(&m),
                        reference,
                        "{simd:?}, seed {seed}, {vectors} vectors"
                    );
                    for lw in [1usize, 4, 8] {
                        assert_lane_groups_match(&nl, &compiled, &m, lw);
                    }
                }
            }
        }
        assert!(
            sharing >= 10,
            "only {sharing} of 12 netlists share a prefix"
        );
        assert!(fusing >= 10, "only {fusing} of 12 netlists run OP_ANDOR");
    }

    /// The per-word baseline: every word of `m` through `eval_word_into`
    /// on its own, stored with a clear tail.
    fn per_word(compiled: &CompiledNetlist, m: &BitMatrix) -> BitMatrix {
        let mut out = BitMatrix::zeroed(compiled.output_count(), m.vectors());
        let mut scratch = compiled.scratch();
        let mut word = vec![0u64; compiled.output_count()];
        for w in 0..m.words_per_row() {
            let block: Vec<u64> = (0..m.rows()).map(|i| m.word(i, w)).collect();
            compiled.eval_word_into(&block, &mut scratch, &mut word);
            for (o, &v) in word.iter().enumerate() {
                *out.word_mut(o, w) = v;
            }
        }
        out.mask_tail();
        out
    }

    /// Sweep every word of `m` through `eval_words_into` in `lw`-word
    /// groups (zero words pad the last group) and require each output
    /// word to equal the one-word `eval_word_into` of the same input
    /// block, and each real vector to equal `Netlist::eval`.
    fn assert_lane_groups_match(
        nl: &Netlist,
        compiled: &CompiledNetlist,
        m: &BitMatrix,
        lw: usize,
    ) {
        let (ins, outs) = (compiled.input_count(), compiled.output_count());
        let words = m.words_per_row();
        let block = |w: usize| -> Vec<u64> {
            (0..ins)
                .map(|i| if w < words { m.row_words(i)[w] } else { 0 })
                .collect()
        };
        let mut wide = compiled.scratch();
        let mut narrow = compiled.scratch();
        let mut one = vec![0u64; outs];
        for w0 in (0..words).step_by(lw) {
            let inputs: Vec<u64> = (w0..w0 + lw).flat_map(block).collect();
            let mut out = vec![0u64; outs * lw];
            compiled.eval_words_into(&inputs, lw, &mut wide, &mut out);
            for k in 0..lw {
                compiled.eval_word_into(&block(w0 + k), &mut narrow, &mut one);
                assert_eq!(
                    out[k * outs..(k + 1) * outs],
                    one[..],
                    "{:?}, lw {lw}, word {}",
                    compiled.simd,
                    w0 + k
                );
                for lane in (0..64).step_by(13) {
                    let v = 64 * (w0 + k) + lane;
                    if v >= m.vectors() {
                        break;
                    }
                    let got: Vec<bool> = (0..outs)
                        .map(|o| out[k * outs + o] >> lane & 1 == 1)
                        .collect();
                    assert_eq!(
                        got,
                        nl.eval(&m.column(v)),
                        "{:?}, lw {lw}, vector {v}",
                        compiled.simd
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch sized for another circuit")]
    fn a_scratch_from_another_circuit_is_rejected() {
        let sink = kitchen_sink().compile();
        let majority = majority3().compile();
        assert_ne!(sink.slot_count(), majority.slot_count());
        // Grown wide enough for any sweep of either circuit, the scratch
        // still belongs to the majority circuit alone.
        let mut scratch = majority.scratch();
        let mut wide = vec![0u64; majority.output_count() * 8];
        majority.eval_words_into(&[0u64; 3 * 8], 8, &mut scratch, &mut wide);
        let mut out = vec![0u64; sink.output_count()];
        sink.eval_word_into(&vec![0u64; sink.input_count()], &mut scratch, &mut out);
    }

    /// The driver at 1–4 threads, over word counts below, at and around
    /// whole groups, with a ragged final word: every word is scored once,
    /// in increasing order within its thread, with the inputs its fill
    /// wrote and outputs equal to the per-word baseline; and
    /// `eval_matrix` over the same batch keeps the tail clear.
    #[test]
    fn sweep_splits_match_the_per_word_baseline() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        for words in [0usize, 1, 3, 7, 8, 9, 17, 33, 64] {
            let vectors = (64 * words).saturating_sub(13);
            let m = BitMatrix::from_fn(nl.input_count(), vectors, |row, v| {
                (v.wrapping_mul(0x9E37_79B9) >> (row % 31)) & 1 == 1
            });
            assert_eq!(m.words_per_row(), words);
            let reference = per_word(&compiled, &m);
            let block = |w: usize| -> Vec<u64> { (0..m.rows()).map(|i| m.word(i, w)).collect() };
            for threads in [1usize, 2, 3, 4] {
                let accs = compiled.sweep(
                    words,
                    threads,
                    |w, rows| rows.copy_from_slice(&block(w)),
                    |acc: &mut Vec<usize>, w, inputs, outputs| {
                        assert_eq!(inputs, block(w), "word {w}");
                        let want: Vec<u64> =
                            (0..outputs.len()).map(|o| reference.word(o, w)).collect();
                        let tail = if 64 * (w + 1) > vectors {
                            !0u64 >> (64 * (w + 1) - vectors)
                        } else {
                            !0
                        };
                        let got: Vec<u64> = outputs.iter().map(|&x| x & tail).collect();
                        assert_eq!(got, want, "{words} words, {threads} threads, word {w}");
                        acc.push(w);
                    },
                );
                assert_eq!(accs.len(), threads.clamp(1, words.div_ceil(8).max(1)));
                for acc in &accs {
                    assert!(acc.windows(2).all(|p| p[0] < p[1]), "{threads} threads");
                }
                let mut scored: Vec<usize> = accs.concat();
                scored.sort_unstable();
                assert_eq!(scored, (0..words).collect::<Vec<_>>(), "{threads} threads");
            }
            let out = compiled.eval_matrix(&m);
            assert!(out.tail_is_clear(), "{words} words");
            assert_eq!(out, reference, "{words} words");
            if words == 17 {
                for lw in [1usize, 4, 8] {
                    assert_lane_groups_match(&nl, &compiled, &m, lw);
                }
            }
        }
    }

    /// Pad words never reach real outputs: with 1–7 real words in a
    /// 4- or 8-word lane group, the real words' outputs equal the
    /// per-word baseline whether the pad words are all zero, all one or
    /// random, through every runnable kernel.
    #[test]
    fn pad_words_never_reach_real_outputs() {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state ^ state >> 29
        };
        for seed in 0..6u64 {
            let nl = random_netlist(seed, 3 + seed as usize % 9, 40 + 17 * seed as usize);
            let mut compiled = nl.compile_partitioned(1 + seed as usize % 4);
            let (ins, outs) = (compiled.input_count(), compiled.output_count());
            let real: Vec<u64> = (0..7 * ins).map(|_| next()).collect();
            compiled.simd = Simd::Scalar;
            let mut scratch = compiled.scratch();
            let mut baseline = vec![0u64; 7 * outs];
            for (block, word) in real.chunks_exact(ins).zip(baseline.chunks_exact_mut(outs)) {
                compiled.eval_word_into(block, &mut scratch, word);
            }
            for simd in runnable_kernels() {
                compiled.simd = simd;
                for lw in [4usize, 8] {
                    for words in 1..lw {
                        for pad in 0..3 {
                            let mut inputs = real[..words * ins].to_vec();
                            inputs.extend((words * ins..lw * ins).map(|_| match pad {
                                0 => 0,
                                1 => !0,
                                _ => next(),
                            }));
                            let mut out = vec![0u64; lw * outs];
                            compiled.eval_words_into(&inputs, lw, &mut scratch, &mut out);
                            assert_eq!(
                                out[..words * outs],
                                baseline[..words * outs],
                                "{simd:?}, seed {seed}, lw {lw}, {words} real words, pad {pad}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every chip count lowers to a stream that passes `self_check` and
    /// evaluates to the per-word baseline, in `eval_matrix` and at every
    /// lane width.
    #[test]
    fn every_chip_count_matches_the_per_word_baseline() {
        let nl = kitchen_sink();
        let m = BitMatrix::from_fn(nl.input_count(), 530, |row, v| {
            (v.wrapping_mul(0x9E37_79B9) >> (row % 31)) & 1 == 1
        });
        let reference = per_word(&nl.compile_partitioned(1), &m);
        for chips in [1usize, 2, 4, 8] {
            let compiled = nl.compile_partitioned(chips);
            compiled.self_check();
            assert_eq!(compiled.eval_matrix(&m), reference, "chips {chips}");
            for lw in [1usize, 4, 8] {
                assert_lane_groups_match(&nl, &compiled, &m, lw);
            }
        }
    }

    #[test]
    fn const_only_netlist_evaluates() {
        let mut nl = Netlist::new();
        let t = nl.constant(true);
        let f = nl.constant(false);
        nl.mark_output(t);
        nl.mark_output(f.complement());
        let compiled = nl.compile();
        let out = compiled.eval_matrix(&BitMatrix::zeroed(0, 70));
        assert_eq!(out.row_popcount(0), 70);
        assert_eq!(out.row_popcount(1), 70);
    }

    #[test]
    fn empty_netlist_compiles() {
        let compiled = Netlist::new().compile();
        assert_eq!(compiled.gate_count(), 0);
        assert_eq!(compiled.insn_count(), 0);
        assert_eq!(compiled.level_count(), 1);
        let out = compiled.eval_matrix(&BitMatrix::zeroed(0, 0));
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        let mut scratch = compiled.scratch();
        let mut out1 = vec![0u64; compiled.output_count()];
        let mut out2 = vec![0u64; compiled.output_count()];
        let inputs = vec![0xAAAA_AAAA_AAAA_AAAAu64; compiled.input_count()];
        compiled.eval_word_into(&inputs, &mut scratch, &mut out1);
        compiled.eval_word_into(&inputs, &mut scratch, &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn partition_report_is_consistent() {
        let nl = kitchen_sink();
        for chips in [1usize, 2, 4] {
            let compiled = nl.compile_partitioned(chips);
            let report = compiled.partition_report();
            assert_eq!(report.chips, chips);
            assert_eq!(report.total_gates, compiled.gate_count());
            assert_eq!(
                report.chip_gates.iter().sum::<usize>(),
                compiled.gate_count()
            );
            if chips == 1 {
                // Everything on one chip: nothing is cut, and the only
                // pins are primary I/O.
                assert_eq!(report.cut_wires, 0);
                assert_eq!(report.chip_in_pins[0], compiled.input_count());
            }
            assert!(report.max_gates() >= compiled.gate_count() / chips);
        }
    }
}

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
//!    into one contiguous arena. The schedule is the fault-injection
//!    surface — [`CompiledNetlist::with_faults`] edits opcodes, literal
//!    inversion bits, and input forces here — and doubles as a slow
//!    reference interpreter ([`CompiledNetlist::eval_word_reference`])
//!    for differential testing.
//! 2. **Instruction stream** (phase 2, [`crate::insn`]): the schedule is
//!    lowered onto a chip partition ([`crate::partition`]) as a dense
//!    stream of fixed-width op/src-a/src-b/dst records over
//!    liveness-recycled value slots, and the emulator sweeps it over a
//!    [`BitMatrix`] in lane groups of 64, 256, or 512 test vectors
//!    (portable unrolled u64, AVX2, or AVX-512 kernels), either splitting
//!    lanes across threads or splitting each level's instruction range
//!    across a barrier-synchronized team.
//!
//! Literal semantics are shared with the interpreters through
//! [`Literal::apply`] / [`Literal::apply_word`], so all paths agree by
//! construction; the equivalence is additionally enforced by truth-table
//! and property tests at every lane width and thread count.

use crate::builder::Netlist;
use crate::gate::GateKind;
use crate::insn::{detect_simd, lower, InsnStream, Simd};
pub use crate::matrix::BitMatrix;
use crate::partition::{partition_schedule, report, Partition, PartitionReport};
use crate::wire::{Literal, Wire};

/// Chips the default compilation partitions onto — enough for the level-
/// parallel sweep to feed eight workers, cheap to ignore on fewer.
pub const DEFAULT_CHIPS: usize = 8;

/// How a faulted wire misbehaves (see [`CompiledNetlist::with_faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireFaultKind {
    /// The wire reads constant 0 regardless of its driver.
    Stuck0,
    /// The wire reads constant 1 regardless of its driver.
    Stuck1,
    /// Every reader of the wire sees the complement of the driven value.
    Flip,
}

/// A located wire fault: which wire, and how it misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireFault {
    /// The faulted wire.
    pub wire: Wire,
    /// The failure mode.
    pub kind: WireFaultKind,
}

impl WireFault {
    /// A stuck-at fault forcing `wire` to `value`.
    pub fn stuck(wire: Wire, value: bool) -> WireFault {
        WireFault {
            wire,
            kind: if value {
                WireFaultKind::Stuck1
            } else {
                WireFaultKind::Stuck0
            },
        }
    }

    /// An inversion fault on `wire`.
    pub fn flip(wire: Wire) -> WireFault {
        WireFault {
            wire,
            kind: WireFaultKind::Flip,
        }
    }
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
/// This is the IR faults are lowered onto, the input to the partitioner
/// and the phase-2 lowering, and — via [`Schedule::eval_word`] — a slow
/// reference evaluator the instruction stream is differentially tested
/// against.
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
    /// Stuck-at values applied to *non-gate* wires (primary inputs) after
    /// the input words are loaded and before the sweep: `(wire, value)`.
    /// Empty for healthy circuits. Gate-output stucks are compiled into
    /// the opcode stream instead.
    pub forces: Vec<(u32, bool)>,
}

impl Schedule {
    /// Levelize `nl` via the depth report, then flatten.
    fn new(nl: &Netlist) -> Self {
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
            forces: Vec::new(),
        }
    }

    /// Fan-in literal span of scheduled gate `g`.
    #[inline]
    pub(crate) fn gate_lits(&self, g: usize) -> &[PackedLit] {
        &self.lits[self.lit_bounds[g] as usize..self.lit_bounds[g + 1] as usize]
    }

    /// Apply `faults` in place (see [`CompiledNetlist::with_faults`] for
    /// the injection strategy and composition semantics).
    fn apply_faults(&mut self, faults: &[WireFault]) {
        // Map wire index -> schedule slot of the gate driving it.
        let mut driver_slot: Vec<Option<u32>> = vec![None; self.wire_count];
        for (slot, &w) in self.outs.iter().enumerate() {
            driver_slot[w as usize] = Some(slot as u32);
        }
        for fault in faults {
            let w = fault.wire.index();
            assert!(w < self.wire_count, "fault names missing wire {w}");
            match fault.kind {
                WireFaultKind::Stuck0 | WireFaultKind::Stuck1 => {
                    let value = fault.kind == WireFaultKind::Stuck1;
                    match driver_slot[w] {
                        Some(slot) => {
                            self.ops[slot as usize] =
                                if value { Op::ConstTrue } else { Op::ConstFalse };
                        }
                        None => self.forces.push((w as u32, value)),
                    }
                }
                WireFaultKind::Flip => {
                    for lit in &mut self.lits {
                        if (*lit >> 1) as usize == w {
                            *lit ^= 1;
                        }
                    }
                    for out in &mut self.outputs {
                        if (*out >> 1) as usize == w {
                            *out ^= 1;
                        }
                    }
                }
            }
        }
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
        for &(w, value) in &self.forces {
            wires[w as usize] = if value { !0u64 } else { 0u64 };
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

    /// Compile with an explicit chip count (≥ 1). The partition bounds
    /// both the level-parallel sweep's useful worker count and the
    /// chips/pins packaging table.
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

    /// Derive a *faulted* copy of this compiled netlist: the returned
    /// engine evaluates the same schedule with the given wire faults
    /// permanently injected, at the same batch-evaluation speed.
    ///
    /// Injection strategy, chosen so the emulator hot loop is untouched:
    ///
    /// * **stuck-at on a gate-output wire** — the driving gate's opcode is
    ///   replaced with `ConstTrue`/`ConstFalse` in the schedule;
    /// * **stuck-at on a primary-input wire** — recorded in a force list
    ///   applied once per sweep, right after the input words are loaded;
    /// * **flip** — every reader literal of the wire (fan-in arena and
    ///   primary outputs) has its inversion bit toggled, which is exactly
    ///   "every consumer sees the complement".
    ///
    /// Faults are applied in order; flipping the same wire twice cancels,
    /// and a stuck-at composed with a flip yields the complemented
    /// constant at every reader — the physical semantics of a shorted
    /// line feeding an inverting receiver.
    ///
    /// The edited schedule is then **re-lowered** onto the same chip
    /// partition, so the faulted engine runs the identical instruction
    /// format, slot layout discipline, and SIMD kernels as the healthy
    /// one. Cost is `O(gates + literals)` — negligible next to one
    /// evaluation sweep — and the source engine is untouched, so cached
    /// healthy elaborations stay clean.
    pub fn with_faults(&self, faults: &[WireFault]) -> CompiledNetlist {
        let mut schedule = self.schedule.clone();
        schedule.apply_faults(faults);
        let stream = lower(&schedule, &self.partition);
        CompiledNetlist {
            schedule,
            partition: self.partition.clone(),
            stream,
            simd: self.simd,
        }
    }

    /// Whether this engine carries injected faults that force primary
    /// input wires (gate-level faults are invisible here by design).
    pub fn has_input_forces(&self) -> bool {
        !self.schedule.forces.is_empty()
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
        let vals = &mut scratch.vals[..words];
        for (ord, &slot) in self.stream.input_slots.iter().enumerate() {
            let at = slot as usize * lw;
            for (k, val) in vals[at..at + lw].iter_mut().enumerate() {
                *val = inputs[k * ins + ord];
            }
        }
        for &(slot, value) in &self.stream.forces {
            let at = slot as usize * lw;
            vals[at..at + lw].fill(if value { !0u64 } else { 0u64 });
        }
        self.stream.sweep(lw, vals, self.simd);
        for (o, &(slot, inverted)) in self.stream.outputs.iter().enumerate() {
            let flip = (inverted as u64).wrapping_neg();
            let at = slot as usize * lw;
            for (k, &val) in vals[at..at + lw].iter().enumerate() {
                out[k * outs + o] = val ^ flip;
            }
        }
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

    /// Evaluate every vector of `inputs` (one row per primary input).
    ///
    /// Picks a strategy from the batch shape: wide batches split lanes
    /// across threads (no synchronization inside a sweep); narrow batches
    /// over large circuits run the level-parallel team sweep. Results are
    /// bit-identical either way. Unused lanes in the final word of every
    /// output row are zeroed, so row popcounts are exact over the
    /// matrix's `vectors` columns.
    pub fn eval_matrix(&self, inputs: &BitMatrix) -> BitMatrix {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let words = inputs.words_per_row();
        if threads > 1 && words < 2 * threads && self.insn_count() >= 1 << 15 {
            self.eval_matrix_level_threads(inputs, threads)
        } else {
            self.eval_matrix_threads(inputs, threads)
        }
    }

    /// [`CompiledNetlist::eval_matrix`] with an explicit worker count,
    /// splitting the lane dimension: word-chunks of the matrix fan out to
    /// `threads` scoped threads, each sweeping its chunk in 512-lane
    /// groups with a private scratch. With one thread (or few words) the
    /// sweep runs inline. Results are identical either way.
    pub fn eval_matrix_threads(&self, inputs: &BitMatrix, threads: usize) -> BitMatrix {
        self.eval_matrix_lanes(inputs, 512, threads)
    }

    /// Lane-splitting evaluation with an explicit maximum lane-group
    /// width (64, 256, or 512 test vectors per instruction fetch) — the
    /// ablation and equivalence-test surface for the emulator's width.
    pub fn eval_matrix_lanes(
        &self,
        inputs: &BitMatrix,
        max_lanes: usize,
        threads: usize,
    ) -> BitMatrix {
        assert_eq!(
            inputs.rows(),
            self.stream.input_slots.len(),
            "wrong number of input rows"
        );
        let max_lw = match max_lanes {
            64 => 1,
            256 => 4,
            512 => 8,
            _ => panic!("lane width must be 64, 256, or 512"),
        };
        let words = inputs.words_per_row();
        let mut out = BitMatrix::zeroed(self.stream.outputs.len(), inputs.vectors());
        let threads = threads.clamp(1, words.max(1));
        if threads <= 1 || words < 2 {
            let mut vals = vec![0u64; self.stream.slot_count * max_lw];
            let mut sink = |o: usize, w: usize, v: u64| *out.word_mut(o, w) = v;
            self.stream
                .sweep_word_range(inputs, 0, words, max_lw, &mut vals, self.simd, &mut sink);
        } else {
            // Chunk the word range; each worker owns disjoint columns and a
            // private scratch, and returns its output slab for stitching.
            let chunk = words.div_ceil(threads);
            let outputs = self.stream.outputs.len();
            let slabs = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(words);
                    if lo >= hi {
                        break;
                    }
                    let inputs = &inputs;
                    handles.push((
                        lo,
                        hi,
                        scope.spawn(move || {
                            let mut vals = vec![0u64; self.stream.slot_count * max_lw];
                            let mut slab = vec![0u64; outputs * (hi - lo)];
                            let width = hi - lo;
                            let mut sink =
                                |o: usize, w: usize, v: u64| slab[o * width + (w - lo)] = v;
                            self.stream.sweep_word_range(
                                inputs, lo, hi, max_lw, &mut vals, self.simd, &mut sink,
                            );
                            slab
                        }),
                    ));
                }
                handles
                    .into_iter()
                    .map(|(lo, hi, h)| (lo, hi, h.join().expect("eval worker panicked")))
                    .collect::<Vec<_>>()
            });
            for (lo, hi, slab) in slabs {
                for o in 0..outputs {
                    for w in lo..hi {
                        *out.word_mut(o, w) = slab[o * (hi - lo) + (w - lo)];
                    }
                }
            }
        }
        out.mask_tail();
        debug_assert!(out.tail_is_clear());
        out
    }

    /// Level-parallel evaluation: instead of splitting lanes, a
    /// barrier-synchronized team of `threads` workers executes each
    /// level's instruction range concurrently, chips striped across
    /// workers — the emulator-side use of the chip partition. Profitable
    /// when the circuit is much wider than the batch; bit-identical to
    /// the lane-splitting path.
    pub fn eval_matrix_level_threads(&self, inputs: &BitMatrix, threads: usize) -> BitMatrix {
        assert_eq!(
            inputs.rows(),
            self.stream.input_slots.len(),
            "wrong number of input rows"
        );
        let mut out = BitMatrix::zeroed(self.stream.outputs.len(), inputs.vectors());
        self.stream
            .eval_level_parallel(inputs, &mut out, threads, self.simd);
        out.mask_tail();
        debug_assert!(out.tail_is_clear());
        out
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
    /// a random mix of plain and inverted outputs.
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
        for _ in 0..gates {
            let fan_in = 1 + next(6);
            let ins: Vec<Literal> = (0..fan_in)
                .map(|_| {
                    let lit = lits[next(lits.len())];
                    if next(2) == 0 {
                        lit.complement()
                    } else {
                        lit
                    }
                })
                .collect();
            let lit = match next(6) {
                0 => nl.and(ins),
                1 => nl.or(ins),
                2 => nl.xor(ins),
                3 => nl.buf(ins[0]),
                4 => nl.constant(next(2) == 0),
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
    /// bit-identical results through every runnable kernel at every lane
    /// width and on the level-parallel path, so the scalar and AVX2
    /// kernels stay covered on hosts whose probe would pick AVX-512.
    #[test]
    fn every_runnable_kernel_is_bit_identical() {
        let kernels = runnable_kernels();
        assert_eq!(kernels[0], Simd::Scalar);
        for seed in 0..12u64 {
            let nl = random_netlist(seed, 3 + seed as usize % 9, 40 + 17 * seed as usize);
            let mut compiled = nl.compile_partitioned(1 + seed as usize % 4);
            for vectors in [1usize, 63, 65, 257, 530, 1000] {
                let m = BitMatrix::from_fn(nl.input_count(), vectors, |row, v| {
                    (v.wrapping_mul(0x9E37_79B9).wrapping_add(seed as usize) >> (row % 29)) & 1 == 1
                });
                compiled.simd = Simd::Scalar;
                let reference = compiled.eval_matrix_lanes(&m, 64, 1);
                for v in (0..vectors).step_by(37) {
                    assert_eq!(reference.column(v), nl.eval(&m.column(v)), "seed {seed}");
                }
                for &simd in &kernels {
                    compiled.simd = simd;
                    for lanes in [64usize, 256, 512] {
                        assert_eq!(
                            compiled.eval_matrix_lanes(&m, lanes, 1),
                            reference,
                            "{simd:?}, seed {seed}, {vectors} vectors, {lanes} lanes"
                        );
                    }
                    assert_eq!(
                        compiled.eval_matrix_level_threads(&m, 2),
                        reference,
                        "{simd:?} level-parallel, seed {seed}, {vectors} vectors"
                    );
                    for lw in [1usize, 4, 8] {
                        assert_lane_groups_match(&nl, &compiled, &m, lw);
                    }
                }
            }
        }
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

    #[test]
    fn eval_matrix_threads_matches_inline_at_every_lane_width() {
        let nl = majority3();
        let compiled = nl.compile();
        let m = BitMatrix::from_fn(3, 1000, |row, v| (v >> row) & 1 == 1);
        let inline = compiled.eval_matrix_threads(&m, 1);
        for lanes in [64usize, 256, 512] {
            for threads in [1usize, 2, 3, 7, 16] {
                assert_eq!(
                    compiled.eval_matrix_lanes(&m, lanes, threads),
                    inline,
                    "lanes {lanes} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn eval_matrix_level_threads_matches_lane_split() {
        let nl = kitchen_sink();
        for chips in [1usize, 2, 4, 8] {
            let compiled = nl.compile_partitioned(chips);
            compiled.self_check();
            let m = BitMatrix::from_fn(nl.input_count(), 530, |row, v| {
                (v.wrapping_mul(0x9E37_79B9) >> (row % 31)) & 1 == 1
            });
            let inline = compiled.eval_matrix_threads(&m, 1);
            for threads in [1usize, 2, 4, 8] {
                assert_eq!(
                    compiled.eval_matrix_level_threads(&m, threads),
                    inline,
                    "chips {chips} threads {threads}"
                );
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

    /// Reference model of a wire fault: re-evaluate the interpreter with
    /// the faulted wire's value overridden at every read.
    fn eval_with_fault(nl: &Netlist, fault: WireFault, bits: &[bool]) -> Vec<bool> {
        // Evaluate healthy wire values in topological order, then replay
        // with the fault applied to every *read* of the wire.
        let mut values = vec![false; nl.wire_count()];
        for (ord, w) in nl.inputs().iter().enumerate() {
            values[w.index()] = bits[ord];
        }
        let read = |values: &[bool], lit: Literal| -> bool {
            let mut v = values[lit.wire.index()];
            if lit.wire == fault.wire {
                v = match fault.kind {
                    WireFaultKind::Stuck0 => false,
                    WireFaultKind::Stuck1 => true,
                    WireFaultKind::Flip => !v,
                };
            }
            v ^ lit.inverted
        };
        for gate in nl.gates() {
            let ins: Vec<bool> = gate.inputs.iter().map(|&l| read(&values, l)).collect();
            values[gate.output.index()] = match gate.kind {
                GateKind::And => ins.iter().all(|&b| b),
                GateKind::Or => ins.iter().any(|&b| b),
                GateKind::Xor => ins.iter().fold(false, |a, b| a ^ b),
                GateKind::Buf => ins[0],
                GateKind::Const(v) => v,
            };
        }
        nl.outputs().iter().map(|&l| read(&values, l)).collect()
    }

    #[test]
    fn single_wire_faults_match_the_reference_model() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        let n = nl.input_count();
        for wire in 0..nl.wire_count() as u32 {
            for kind in [
                WireFaultKind::Stuck0,
                WireFaultKind::Stuck1,
                WireFaultKind::Flip,
            ] {
                let fault = WireFault {
                    wire: Wire(wire),
                    kind,
                };
                let faulted = compiled.with_faults(&[fault]);
                for vector in 0..(1usize << n) {
                    let bits: Vec<bool> = (0..n).map(|i| (vector >> i) & 1 == 1).collect();
                    let words: Vec<u64> = bits.iter().map(|&b| if b { !0u64 } else { 0 }).collect();
                    let got: Vec<bool> = faulted
                        .eval_word(&words)
                        .iter()
                        .map(|&w| w & 1 == 1)
                        .collect();
                    assert_eq!(
                        got,
                        eval_with_fault(&nl, fault, &bits),
                        "wire {wire} {kind:?} vector {vector:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn flip_twice_cancels_and_source_is_untouched() {
        let nl = kitchen_sink();
        let compiled = nl.compile();
        let wire = nl.inputs()[1];
        let twice = compiled.with_faults(&[WireFault::flip(wire), WireFault::flip(wire)]);
        let inputs = vec![0xDEAD_BEEF_0123_4567u64, 0x0F0F_0F0F_0F0F_0F0Fu64, 0, !0u64];
        assert_eq!(twice.eval_word(&inputs), compiled.eval_word(&inputs));
        // The healthy engine must not have been mutated by the derivation.
        let once = compiled.with_faults(&[WireFault::flip(wire)]);
        assert_ne!(once.eval_word(&inputs), compiled.eval_word(&inputs));
        assert_eq!(
            compiled.eval_word(&inputs),
            nl.compile().eval_word(&inputs),
            "with_faults mutated its source engine"
        );
    }

    #[test]
    fn input_wire_stuck_forces_every_lane() {
        let nl = majority3();
        let compiled = nl.compile();
        let stuck = compiled.with_faults(&[WireFault::stuck(nl.inputs()[0], true)]);
        assert!(stuck.has_input_forces());
        assert!(!compiled.has_input_forces());
        // majority(1, b, c) = b | c.
        let b = 0b1100u64;
        let c = 0b1010u64;
        assert_eq!(stuck.eval_word(&[0, b, c])[0], b | c);
        // Matrix path applies the same forces.
        let m = BitMatrix::from_fn(3, 100, |row, v| (v >> row) & 1 == 1);
        let out = stuck.eval_matrix(&m);
        for v in 0..100 {
            let col = m.column(v);
            assert_eq!(out.get(0, v), col[1] | col[2], "vector {v}");
        }
    }

    #[test]
    #[should_panic(expected = "missing wire")]
    fn fault_location_is_validated() {
        majority3()
            .compile()
            .with_faults(&[WireFault::stuck(Wire(1000), false)]);
    }
}

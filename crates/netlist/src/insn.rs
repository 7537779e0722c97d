//! Phase 2 of the compiler: lowering a levelized [`Schedule`] to a dense
//! instruction stream, and the wide-lane emulator that sweeps it.
//!
//! The phase-1 schedule is faithful but pointer-heavy: evaluating a gate
//! means indexing a prefix-offset table, walking a variable-length literal
//! span, and folding through a closure — per gate, per 64-lane word. This
//! module compiles the schedule **once** into the form hardware emulation
//! engines use:
//!
//! * **Dense instructions.** Every gate but a fused AND term (below)
//!   lowers to one or more fixed-width 16-byte records
//!   (`op/src-a/src-b/dst`, inversion flags packed into the opcode word).
//!   Fan-in-k gates become a seeded accumulator chain of k−1 binary ops
//!   into the destination, so the emulator's hot loop is a single linear
//!   pass with no indirection: fetch, two loads, op, store.
//! * **Level-blocked slot allocation.** Wire values live in *slots*
//!   assigned by a liveness pass: a wire's slot is recycled once its last
//!   reader level has run. Peak live wires is far below total wires in a
//!   levelized sorting network, so the working set drops from
//!   `wires × lanes` to `slots × lanes` — small enough to stay cache
//!   resident while the instruction stream streams past it. Frees are
//!   deferred to level boundaries, which also makes every level's
//!   instructions write-disjoint across chips (see below).
//! * **Wide lanes.** The emulator sweeps lane *groups* of 1, 4, or 8
//!   64-bit words (64 / 256 / 512 test vectors per instruction fetch),
//!   monomorphized per width, with explicit AVX2/AVX-512 kernels selected
//!   at runtime on x86-64. One instruction fetch is amortized over up to
//!   512 vectors.
//! * **Chip-partitioned levels.** Gates are assigned to chips by the
//!   partitioner pass ([`crate::partition`]); the stream is ordered
//!   (level, chip, gate), and per-(level, chip) instruction ranges are
//!   recorded. Prefix sharing and chain-step order work within these
//!   groups. Slot recycling deferred to level boundaries guarantees no
//!   two chips touch the same slot within a level (checked by
//!   [`InsnStream::self_check`]), so the chips of one level are
//!   independent units of work, though the emulator sweeps the whole
//!   stream in order on one thread per lane group.
//! * **Shared chain prefixes.** Within one (level, chip) group, wide
//!   AND/OR/XOR gates (fan-in ≥ 3) that open with the same `(op, lit₀,
//!   lit₁)` pair share one instruction: the pair is computed once into a
//!   temporary slot and each gate's chain starts from it (`dst = tmp op
//!   lit₂ …`). The hyperconcentrator merge folds each selector
//!   `eⱼ = L_{j−1} ∧ ¬L_j` into every `eⱼ ∧ R_{i−j}` term of its level,
//!   so the selector pair is computed once per merge rather than once
//!   per gate. The temporary is freed at the level boundary after its
//!   last reader like any other slot, and sharing never crosses chips,
//!   so the write-disjointness above still holds. The netlist and
//!   [`Schedule`] are untouched: this is purely a property of the lowered
//!   stream.
//! * **AND–OR planes.** The hyperconcentrator chip is AND planes feeding
//!   OR planes, and nearly every AND term has exactly one reader, an OR.
//!   An AND of fan-in 2 or 3 whose output is read once, as a positive
//!   literal of an OR, and is no primary output gets no slot and no
//!   instruction of its own: its OR's chain absorbs it, opening with
//!   `dst = a ∧ b` or folding it in with one `OP_ANDOR` (`dst |= a ∧ b`).
//!   A fan-in-3 term reads its leading pair from a temporary computed at
//!   the AND's own level (the shared selector above, or a pair of its
//!   own). The term's operands stay live until the OR's level, which may
//!   be on another chip: cross-level reads are ordinary.
//! * **(Step, opcode) order.** Within each (level, chip) group,
//!   instructions are stably ordered by their step along their dependency
//!   chain inside the group, and within a step by opword: every chain's
//!   first instruction, then every second, and so on. Independent
//!   accumulators interleave, so no single read-modify-write chain
//!   serializes the sweep. Frees wait for level boundaries, so the only
//!   hazards inside a group are reads after writes (a chain reading its
//!   accumulator, a gate reading a temporary); a read's step is above its
//!   write's, so instructions of one step are independent and any order
//!   among them keeps every hazard ([`InsnStream::self_check`] verifies
//!   it).
//! * **Opcode runs.** The order gathers each step's same-opword
//!   instructions into one run, and `lower` records the maximal runs of
//!   the stream (a few hundred where the opword would otherwise change
//!   thousands of times). The emulator dispatches once per run into a
//!   loop monomorphized on its opcode, with the inversion masks hoisted
//!   out of the loop, so no instruction pays an opcode branch.

use crate::compile::{unpack, Op, PackedLit, Schedule};
use crate::partition::Partition;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Opcode field of [`Insn::opword`] (bits 0..3).
pub(crate) const OP_AND: u32 = 0;
pub(crate) const OP_OR: u32 = 1;
pub(crate) const OP_XOR: u32 = 2;
pub(crate) const OP_COPY: u32 = 3;
pub(crate) const OP_CONST0: u32 = 4;
pub(crate) const OP_CONST1: u32 = 5;
/// `dst |= a ∧ b`: folds a fused AND term into an OR accumulator, so it
/// reads `dst` as well as writing it.
pub(crate) const OP_ANDOR: u32 = 6;
/// Inversion flag of source a (bit 3) / source b (bit 4) of `opword`.
pub(crate) const INV_A: u32 = 1 << 3;
pub(crate) const INV_B: u32 = 1 << 4;

pub(crate) const OP_MASK: u32 = 7;

/// One emulator instruction: `dst = a op b` (or `dst |= a ∧ b`) over a
/// whole lane group.
///
/// 16 bytes, fixed width: the stream is a flat `Vec<Insn>` the sweep walks
/// front to back, so instruction fetch is a linear prefetch-friendly scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Insn {
    /// Source slot a (ignored by const ops).
    pub a: u32,
    /// Source slot b (ignored by const and copy ops).
    pub b: u32,
    /// Destination slot.
    pub dst: u32,
    /// Opcode plus inversion flags: bits 0..3 opcode, bit 3 invert a,
    /// bit 4 invert b.
    pub opword: u32,
}

impl Insn {
    /// The slots this instruction reads: none for constants, `a` for a
    /// copy, `a` and `b` otherwise, and `dst` too for [`OP_ANDOR`].
    #[inline]
    fn reads(&self) -> impl Iterator<Item = u32> {
        let n = match self.opword & OP_MASK {
            OP_CONST0 | OP_CONST1 => 0,
            OP_COPY => 1,
            OP_ANDOR => 3,
            _ => 2,
        };
        [self.a, self.b, self.dst].into_iter().take(n)
    }
}

/// The compiled instruction stream plus everything the emulator needs to
/// run it: slot bindings for primary inputs and outputs, level
/// boundaries, and per-(level, chip) ranges.
#[derive(Debug, Clone)]
pub(crate) struct InsnStream {
    pub insns: Vec<Insn>,
    /// Instruction-index boundaries per level: level `l` is
    /// `insns[level_bounds[l]..level_bounds[l+1]]`.
    pub level_bounds: Vec<u32>,
    /// Per-(level, chip) instruction subranges, flattened row-major:
    /// level `l`, chip `c` at `chip_ranges[l * chips + c]`.
    pub chip_ranges: Vec<(u32, u32)>,
    /// Number of chips the stream is partitioned into.
    pub chips: usize,
    /// Opcode runs: maximal stretches of instructions sharing one opword,
    /// as `(end, opword)` with run `r` at `insns[runs[r - 1].0..runs[r].0]`
    /// (from 0 for the first). The emulator dispatches once per run.
    pub runs: Vec<(u32, u32)>,
    /// Value slots required (scratch words per lane).
    pub slot_count: usize,
    /// Slot of each primary input, in input-ordinal order.
    pub input_slots: Vec<u32>,
    /// Primary outputs: `(slot, inverted)` in marking order.
    pub outputs: Vec<(u32, bool)>,
}

/// Leading pair `(opcode, lit₀, lit₁)` of a chain that can be shared.
type PrefixKey = (u32, PackedLit, PackedLit);

/// A chain prefix within one (level, chip) group: how many wide gates
/// open with it, the level after which its last reader is done, and the
/// temporary slot holding it once emitted.
struct Prefix {
    uses: u32,
    free_at: u32,
    slot: u32,
}

/// Multiplicative hasher for the prefix map (the `FxHash` scheme: add,
/// multiply, rotate the well-mixed high bits down on `finish`): `lower`
/// hashes every wide gate twice, and the default SipHash costs several
/// times more per key. Keys are literals of the netlist being compiled;
/// one crafted to collide can only slow its own lowering, never change
/// the stream.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = self
            .0
            .wrapping_add(u64::from(n))
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The shareable leading pair of schedule gate `g`: AND/OR/XOR gates of
/// fan-in ≥ 3 only, whose chain keeps at least one instruction of its
/// own after the shared one.
#[inline]
fn prefix_key(sched: &Schedule, g: usize) -> Option<PrefixKey> {
    let op2 = match sched.ops[g] {
        Op::And => OP_AND,
        Op::Or => OP_OR,
        Op::Xor => OP_XOR,
        _ => return None,
    };
    match sched.gate_lits(g) {
        [first, second, _, ..] => Some((op2, *first, *second)),
        _ => None,
    }
}

/// What lowering knows about a wire's readers, in one record so the
/// walks over literals touch one cache line per wire.
#[derive(Clone, Copy)]
struct WireUse {
    /// The last level (1-based; inputs are level 0) at which the wire is
    /// read.
    last_use: u32,
    /// The fused AND gate driving the wire, or a reader state: `UNREAD`,
    /// `READ_BY_OR` (exactly one reader, a positive OR literal) or
    /// `READ_ELSEWHERE` (any other reader or a second one; a primary
    /// output counts as one).
    term: u32,
}

const UNREAD: u32 = u32::MAX;
const READ_BY_OR: u32 = u32::MAX - 1;
const READ_ELSEWHERE: u32 = u32::MAX - 2;

impl WireUse {
    /// Whether `term` names a fused AND.
    #[inline]
    fn is_term(self) -> bool {
        self.term < READ_ELSEWHERE
    }
}

/// Lower `sched` onto `part`'s chips: liveness-allocate slots, emit the
/// instruction stream in (level, chip) groups with shared chain prefixes
/// and fused AND–OR terms, order each group by (chain step, opword), and
/// record the per-level chip ranges and the opcode runs.
pub(crate) fn lower(sched: &Schedule, part: &Partition) -> InsnStream {
    let num_levels = sched.levels.len() - 1;
    let chips = part.chips.max(1);
    let gate_count = sched.ops.len();

    // Gates regrouped by (level, chip), stable within a group.
    let mut by_level_chip: Vec<Vec<u32>> = vec![Vec::new(); num_levels * chips];
    for (l, level) in sched.levels.windows(2).enumerate() {
        for g in level[0]..level[1] {
            let c = part.chip_of_gate[g as usize] as usize;
            by_level_chip[l * chips + c].push(g);
        }
    }

    // Output wires are pinned — their slot never recycles, so the
    // post-sweep output read always sees the final value.
    let mut pinned = vec![false; sched.wire_count];
    for &packed in &sched.outputs {
        pinned[(packed >> 1) as usize] = true;
    }

    // Liveness, walked backwards so every reader of a wire is seen before
    // its driver. The same walk fuses AND–OR planes: an AND of fan-in 2
    // or 3 whose output is read once, as a positive OR literal, and by
    // nothing outside, becomes a term of that OR's chain, and its
    // output's `term` becomes its gate index. The term's operands are
    // then read where the OR runs, at the AND output's `last_use`, except
    // a fan-in-3 AND's leading pair, which its own level still computes
    // into a temporary.
    let unread = WireUse {
        last_use: 0,
        term: UNREAD,
    };
    let mut uses = vec![unread; sched.wire_count];
    for &packed in &sched.outputs {
        uses[(packed >> 1) as usize].term = READ_ELSEWHERE;
    }
    for (l, level) in sched.levels.windows(2).enumerate().rev() {
        for g in (level[0] as usize..level[1] as usize).rev() {
            let w = sched.outs[g] as usize;
            let lits = sched.gate_lits(g);
            let fused = sched.ops[g] == Op::And
                && matches!(lits.len(), 2 | 3)
                && uses[w].term == READ_BY_OR;
            // Literals read at this gate's own level; the rest at its OR's.
            let here = match (fused, lits.len()) {
                (false, k) => k,
                (true, 3) => 2,
                (true, _) => 0,
            };
            if fused {
                uses[w].term = g as u32;
            }
            let (own, at_or) = (l as u32 + 1, uses[w].last_use);
            let by_or = sched.ops[g] == Op::Or;
            for (k, &packed) in lits.iter().enumerate() {
                let u = &mut uses[(packed >> 1) as usize];
                u.last_use = u.last_use.max(if k < here { own } else { at_or });
                let sole = u.term == UNREAD && by_or && packed & 1 == 0;
                u.term = if sole { READ_BY_OR } else { READ_ELSEWHERE };
            }
        }
    }

    // Slot allocation with frees deferred to level boundaries: a slot
    // last read at level `r` re-enters the free list only when level
    // `r + 1` starts, so within any single level the set of slots written
    // is disjoint from the slots any other chip reads or writes.
    let mut slot_of = vec![u32::MAX; sched.wire_count];
    let mut free: Vec<u32> = Vec::new();
    let mut pending: Vec<Vec<u32>> = vec![Vec::new(); num_levels + 2];
    let mut next_slot = 0u32;
    let mut alloc = |free: &mut Vec<u32>| -> u32 {
        free.pop().unwrap_or_else(|| {
            let s = next_slot;
            next_slot += 1;
            s
        })
    };

    // Level 0: primary inputs.
    let mut input_slots = Vec::with_capacity(sched.input_wires.len());
    for &w in &sched.input_wires {
        let s = alloc(&mut free);
        slot_of[w as usize] = s;
        input_slots.push(s);
        if !pinned[w as usize] {
            pending[uses[w as usize].last_use as usize].push(s);
        }
    }

    let mut insns: Vec<Insn> = Vec::with_capacity(gate_count + gate_count / 4);
    let mut level_bounds = vec![0u32];
    let mut chip_ranges = Vec::with_capacity(num_levels * chips);
    let mut drained = 0usize;
    // One map and one group stage reused by every group, so lowering
    // allocates nothing per group once they have grown to the widest one.
    let mut prefixes: HashMap<PrefixKey, Prefix, BuildHasherDefault<MulHasher>> =
        HashMap::default();
    let mut stage = GroupStage::default();

    for l in 0..num_levels {
        // Def level of this schedule level is l + 1: recycle every slot
        // whose last read is at level ≤ l.
        while drained <= l {
            free.append(&mut pending[drained]);
            drained += 1;
        }
        let def_level = (l + 1) as u32;
        for c in 0..chips {
            let start = insns.len() as u32;
            let group = &by_level_chip[l * chips + c];
            // Count each leading pair's wide gates in this group alone:
            // a prefix shared across chips would be read by a chip that
            // did not write it within the level. A fused AND's pair is
            // read where its OR runs.
            prefixes.clear();
            for &g in group {
                if let Some(key) = prefix_key(sched, g as usize) {
                    let w = sched.outs[g as usize] as usize;
                    let read_at = if uses[w].is_term() {
                        uses[w].last_use
                    } else {
                        def_level
                    };
                    let prefix = prefixes.entry(key).or_insert(Prefix {
                        uses: 0,
                        free_at: 0,
                        slot: u32::MAX,
                    });
                    prefix.uses += 1;
                    prefix.free_at = prefix.free_at.max(read_at);
                }
            }
            for &g in group {
                let g = g as usize;
                let w = sched.outs[g] as usize;
                let fused = uses[w].is_term();
                let dst = if fused {
                    u32::MAX
                } else {
                    let dst = alloc(&mut free);
                    slot_of[w] = dst;
                    if !pinned[w] {
                        pending[uses[w].last_use.max(def_level) as usize].push(dst);
                    }
                    dst
                };
                // A pair opening two or more chains, or a fused AND's
                // pair, is emitted once, at its first use, into a
                // temporary freed after its last reader's level.
                let shared = prefix_key(sched, g).and_then(|key| {
                    let prefix = prefixes.get_mut(&key).filter(|p| p.uses >= 2 || fused)?;
                    if prefix.slot == u32::MAX {
                        let tmp = alloc(&mut free);
                        pending[prefix.free_at as usize].push(tmp);
                        stage.push(pair_insn(key, tmp, &slot_of), 0);
                        prefix.slot = tmp;
                    }
                    Some(prefix.slot)
                });
                if fused {
                    // The OR's chain emits the term; a fan-in-3 AND's
                    // wire reads as the temporary holding its pair.
                    if let Some(tmp) = shared {
                        slot_of[w] = tmp;
                    }
                    continue;
                }
                emit_gate(sched, g, dst, shared, &slot_of, &uses, &mut stage);
            }
            stage.flush(&mut insns);
            chip_ranges.push((start, insns.len() as u32));
        }
        level_bounds.push(insns.len() as u32);
    }

    let outputs = sched
        .outputs
        .iter()
        .map(|&packed| {
            let lit = unpack(packed);
            let s = slot_of[lit.wire.index()];
            assert_ne!(s, u32::MAX, "output reads an undriven wire");
            (s, lit.inverted)
        })
        .collect();

    let stream = InsnStream {
        runs: opcode_runs(&insns),
        insns,
        level_bounds,
        chip_ranges,
        chips,
        slot_count: next_slot as usize,
        input_slots,
        outputs,
    };
    #[cfg(debug_assertions)]
    stream.self_check();
    stream
}

/// The maximal same-opword runs of `insns`, as `(end, opword)`.
fn opcode_runs(insns: &[Insn]) -> Vec<(u32, u32)> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for (k, i) in insns.iter().enumerate() {
        let end = k as u32 + 1;
        match runs.last_mut() {
            Some(run) if run.1 == i.opword => run.0 = end,
            _ => runs.push((end, i.opword)),
        }
    }
    runs
}

/// A chain operand: a slot and whether it is read inverted.
type Src = (u32, bool);

/// Slot and inversion flag of the wire a packed literal reads.
#[inline]
fn lit_slot(packed: PackedLit, slot_of: &[u32]) -> Src {
    let lit = unpack(packed);
    let s = slot_of[lit.wire.index()];
    debug_assert_ne!(s, u32::MAX, "gate reads an unallocated wire");
    (s, lit.inverted)
}

/// The instruction `dst = a op b`, or `dst |= a ∧ b` for [`OP_ANDOR`].
#[inline]
fn binary(op: u32, (a, ia): Src, (b, ib): Src, dst: u32) -> Insn {
    Insn {
        a,
        b,
        dst,
        opword: op | if ia { INV_A } else { 0 } | if ib { INV_B } else { 0 },
    }
}

/// The instruction `dst = value` on every lane.
#[inline]
fn konst(value: bool, dst: u32) -> Insn {
    let opword = if value { OP_CONST1 } else { OP_CONST0 };
    binary(opword, (0, false), (0, false), dst)
}

/// The instruction `dst = first op2 second` opening an accumulator chain.
#[inline]
fn pair_insn((op2, first, second): PrefixKey, dst: u32, slot_of: &[u32]) -> Insn {
    binary(
        op2,
        lit_slot(first, slot_of),
        lit_slot(second, slot_of),
        dst,
    )
}

/// The two operands of the fused AND term an OR reads through `packed`:
/// an AND-2's literals, or an AND-3's pair temporary (which its wire's
/// slot entry names) and last literal.
fn term_operands(
    sched: &Schedule,
    packed: PackedLit,
    slot_of: &[u32],
    uses: &[WireUse],
) -> (Src, Src) {
    let w = (packed >> 1) as usize;
    debug_assert_eq!(packed & 1, 0, "a fused AND is read as a positive literal");
    match *sched.gate_lits(uses[w].term as usize) {
        [a, b] => (lit_slot(a, slot_of), lit_slot(b, slot_of)),
        [_, _, c] => ((slot_of[w], false), lit_slot(c, slot_of)),
        _ => unreachable!("only ANDs of fan-in 2 or 3 are fused"),
    }
}

/// Stage the instruction(s) computing schedule gate `g` into `dst`.
/// With `shared`, the gate's leading pair already sits in that temporary
/// slot and the chain starts from it. An OR's literals on wires whose
/// `uses` name a fused AND are the terms of its chain.
fn emit_gate(
    sched: &Schedule,
    g: usize,
    dst: u32,
    shared: Option<u32>,
    slot_of: &[u32],
    uses: &[WireUse],
    stage: &mut GroupStage,
) {
    // Chain step of the next instruction: every instruction after the
    // first reads the accumulator its predecessor wrote, and one reading
    // the shared temporary comes after the group's step-0 write of it.
    // Every other slot a chain reads was written at an earlier level.
    let mut step = 0;
    let mut push = |insn: Insn, reads_shared: bool| {
        step = step.max(u32::from(reads_shared));
        stage.push(insn, step);
        step += 1;
    };
    let op2 = match sched.ops[g] {
        Op::ConstTrue | Op::ConstFalse => {
            push(konst(sched.ops[g] == Op::ConstTrue, dst), false);
            return;
        }
        Op::And => OP_AND,
        // A Buf is a one-input OR: its chain is one copy.
        Op::Or | Op::Buf => OP_OR,
        Op::Xor => OP_XOR,
    };
    let lits = sched.gate_lits(g);
    // Plain operands (the shared temporary standing for the first two
    // literals) and fused terms. Accumulator chain: dst = acc op next,
    // same level and chip, executed by the owning worker.
    let (opening, rest) = match shared {
        Some(tmp) => (Some((tmp, false)), &lits[2..]),
        None => (None, lits),
    };
    let term = |packed: &&PackedLit| uses[(**packed >> 1) as usize].is_term();
    let plains = opening.into_iter().chain(
        rest.iter()
            .filter(|p| !term(p))
            .map(|&p| lit_slot(p, slot_of)),
    );
    // `dst` holds the chain's value once `open`; a lone plain operand
    // waits for the first term to open the chain.
    let mut open = false;
    let mut held = None;
    for src in plains {
        if open {
            push(binary(op2, (dst, false), src, dst), false);
        } else if let Some(first) = held.take() {
            // With `shared`, `first` is the temporary.
            push(binary(op2, first, src, dst), shared.is_some());
            open = true;
        } else {
            held = Some(src);
        }
    }
    for &packed in rest.iter().filter(term) {
        let (a, b) = term_operands(sched, packed, slot_of, uses);
        let op = if open { OP_ANDOR } else { OP_AND };
        push(binary(op, a, b, dst), false);
        open = true;
        if let Some(src) = held.take() {
            push(binary(op2, (dst, false), src, dst), false);
        }
    }
    if !open {
        // One operand is a copy; none folds to the interpreters' identity
        // (empty AND is true, empty OR/XOR false).
        let insn = match held {
            Some(src) => binary(OP_COPY, src, (0, false), dst),
            None => konst(op2 == OP_AND, dst),
        };
        push(insn, false);
    }
}

/// One (level, chip) group's instructions, staged with their chain
/// steps until [`GroupStage::flush`] appends them to the stream in
/// (chain step, opword) order. Its buffers are reused across groups.
///
/// An instruction's step is its dependency depth inside the group: 0
/// unless it reads a slot written earlier in the group, and otherwise one
/// more than the step of that write. A stable counting sort by step runs
/// every chain's first instruction, then every second, and so on, so
/// independent accumulators interleave. This is legal because frees wait
/// for level boundaries: inside a group no slot is written after another
/// instruction read its old value, so the only hazards are reads after
/// writes (a chain reading its accumulator, a gate reading a temporary),
/// and a read's step is above its write's. Instructions of one step are
/// therefore independent, and sorting them by opword as well gathers
/// each step's same-opword instructions into one run the emulator
/// dispatches once.
#[derive(Default)]
struct GroupStage {
    insns: Vec<Insn>,
    /// Sort key per instruction: `step << OPWORD_BITS | opword`.
    keys: Vec<u32>,
    starts: Vec<u32>,
}

/// Width of [`Insn::opword`]: opcode and the two inversion flags.
const OPWORD_BITS: u32 = 5;

impl GroupStage {
    #[inline]
    fn push(&mut self, insn: Insn, step: u32) {
        debug_assert!(insn.opword < 1 << OPWORD_BITS);
        self.insns.push(insn);
        self.keys.push(step << OPWORD_BITS | insn.opword);
    }

    /// Append the staged group to `out` in (chain step, opword) order and
    /// empty the stage.
    fn flush(&mut self, out: &mut Vec<Insn>) {
        if self.keys.is_sorted() {
            out.extend_from_slice(&self.insns);
        } else {
            let top = *self.keys.iter().max().unwrap_or(&0) as usize;
            self.starts.clear();
            self.starts.resize(top + 2, 0);
            for &s in &self.keys {
                self.starts[s as usize + 1] += 1;
            }
            for k in 1..self.starts.len() {
                self.starts[k] += self.starts[k - 1];
            }
            let base = out.len();
            out.resize(base + self.insns.len(), Insn::default());
            for (&i, &s) in self.insns.iter().zip(&self.keys) {
                let at = &mut self.starts[s as usize];
                out[base + *at as usize] = i;
                *at += 1;
            }
        }
        self.insns.clear();
        self.keys.clear();
    }
}

/// SIMD kernel selection, probed once at compile time and carried by the
/// engine so cached compilations never re-probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Portable unrolled u64 loops (auto-vectorized by the compiler).
    Scalar,
    /// 256-bit AVX2 kernels for the 4- and 8-word lane groups.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit AVX-512F kernel for the 8-word lane group (AVX2 for 4).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Probe the CPU for the widest kernel it can run. The AVX kernels are
/// reached only through a [`Simd`] this function returned, so this probe
/// is the check their `target_feature` safety contract relies on.
pub(crate) fn detect_simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Simd::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Simd::Avx2;
        }
    }
    Simd::Scalar
}

/// Whether the CPU running this process supports `simd`'s kernels.
pub(crate) fn simd_available(simd: Simd) -> bool {
    match simd {
        Simd::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
        }
    }
}

/// A kernel family for one lane-group width: a branch-free loop over a
/// run of instructions that share one opword.
trait Kernel {
    /// Execute `run`, in order, over lane groups of this kernel's width:
    /// every instruction computes opcode `OP` with source a read through
    /// mask `ma` and source b through `mb` (all ones to invert).
    ///
    /// # Safety
    /// `vals` must point to at least `slot_count` writable lane groups of
    /// this kernel's width, every instruction of `run` must name slots
    /// `a`, `b`, `dst` below `slot_count`, and the CPU must support the
    /// kernel's target features. [`InsnStream::eval_words`] slices the buffer to that
    /// length; `lower` hands out only slots below the `slot_count` it
    /// records, and [`InsnStream::self_check`] verifies every slot after
    /// each debug-build `lower`; [`InsnStream::run`] picks an AVX kernel
    /// only for a [`Simd`] that [`detect_simd`] returned. [`OP_ANDOR`]
    /// also reads `dst`: were its accumulator not written earlier in the
    /// group, it would read a stale but initialized word, so the result
    /// would be wrong, not undefined (`self_check` verifies the order
    /// too).
    unsafe fn exec<const OP: u32>(vals: *mut u64, run: &[Insn], ma: u64, mb: u64);
}

/// Portable unrolled u64 loops over `LW`-word lane groups, which the
/// compiler auto-vectorizes to the baseline 128-bit SSE2.
struct Portable<const LW: usize>;

impl<const LW: usize> Kernel for Portable<LW> {
    #[inline(always)]
    unsafe fn exec<const OP: u32>(vals: *mut u64, run: &[Insn], ma: u64, mb: u64) {
        for i in run {
            let a = vals.add(i.a as usize * LW);
            let b = vals.add(i.b as usize * LW);
            let d = vals.add(i.dst as usize * LW);
            for k in 0..LW {
                // Sources an opcode ignores are never loaded once `OP`
                // is folded.
                let (x, y) = (*a.add(k) ^ ma, *b.add(k) ^ mb);
                *d.add(k) = match OP {
                    OP_AND => x & y,
                    OP_OR => x | y,
                    OP_XOR => x ^ y,
                    OP_COPY => x,
                    OP_CONST0 => 0,
                    OP_CONST1 => !0,
                    OP_ANDOR => *d.add(k) | (x & y),
                    _ => unreachable!("unknown opcode {OP}"),
                };
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit 256/512-bit kernels. The portable loops already
    //! auto-vectorize to the baseline 128-bit SSE2; these widen one
    //! instruction's lane group to one or two native vector ops.
    use super::{Insn, Kernel, OP_AND, OP_ANDOR, OP_CONST0, OP_CONST1, OP_COPY, OP_OR, OP_XOR};
    use std::arch::x86_64::*;

    /// AVX2 over `H` 256-bit halves: 4-word lane groups (`H = 1`) or
    /// 8-word ones (`H = 2`).
    pub(super) struct Avx2<const H: usize>;

    impl<const H: usize> Kernel for Avx2<H> {
        #[target_feature(enable = "avx2")]
        unsafe fn exec<const OP: u32>(vals: *mut u64, run: &[Insn], ma: u64, mb: u64) {
            let (ma, mb) = (_mm256_set1_epi64x(ma as i64), _mm256_set1_epi64x(mb as i64));
            for i in run {
                let a = vals.add(i.a as usize * 4 * H) as *const __m256i;
                let b = vals.add(i.b as usize * 4 * H) as *const __m256i;
                let d = vals.add(i.dst as usize * 4 * H) as *mut __m256i;
                for h in 0..H {
                    let x = _mm256_xor_si256(_mm256_loadu_si256(a.add(h)), ma);
                    let y = _mm256_xor_si256(_mm256_loadu_si256(b.add(h)), mb);
                    let r = match OP {
                        OP_AND => _mm256_and_si256(x, y),
                        OP_OR => _mm256_or_si256(x, y),
                        OP_XOR => _mm256_xor_si256(x, y),
                        OP_COPY => x,
                        OP_CONST0 => _mm256_setzero_si256(),
                        OP_CONST1 => _mm256_set1_epi64x(-1),
                        OP_ANDOR => {
                            _mm256_or_si256(_mm256_loadu_si256(d.add(h)), _mm256_and_si256(x, y))
                        }
                        _ => unreachable!("unknown opcode {OP}"),
                    };
                    _mm256_storeu_si256(d.add(h), r);
                }
            }
        }
    }

    /// AVX-512F over 8-word lane groups: one 512-bit op per instruction.
    pub(super) struct Avx512;

    impl Kernel for Avx512 {
        #[target_feature(enable = "avx512f")]
        unsafe fn exec<const OP: u32>(vals: *mut u64, run: &[Insn], ma: u64, mb: u64) {
            let (ma, mb) = (_mm512_set1_epi64(ma as i64), _mm512_set1_epi64(mb as i64));
            for i in run {
                let a = vals.add(i.a as usize * 8) as *const __m512i;
                let b = vals.add(i.b as usize * 8) as *const __m512i;
                let d = vals.add(i.dst as usize * 8) as *mut __m512i;
                let x = _mm512_xor_si512(_mm512_loadu_si512(a), ma);
                let y = _mm512_xor_si512(_mm512_loadu_si512(b), mb);
                let r = match OP {
                    OP_AND => _mm512_and_si512(x, y),
                    OP_OR => _mm512_or_si512(x, y),
                    OP_XOR => _mm512_xor_si512(x, y),
                    OP_COPY => x,
                    OP_CONST0 => _mm512_setzero_si512(),
                    OP_CONST1 => _mm512_set1_epi64(-1),
                    OP_ANDOR => _mm512_or_si512(_mm512_loadu_si512(d), _mm512_and_si512(x, y)),
                    _ => unreachable!("unknown opcode {OP}"),
                };
                _mm512_storeu_si512(d, r);
            }
        }
    }
}

impl InsnStream {
    /// Number of levels.
    #[inline]
    pub fn level_count(&self) -> usize {
        self.level_bounds.len() - 1
    }

    /// Execute every instruction, in order, over lane groups of `lw` words.
    ///
    /// # Safety
    /// `vals` must cover `slot_count * lw` words, `lw ∈ {1, 4, 8}`, and
    /// `simd` must be a value [`detect_simd`] returned on this CPU. Slot
    /// bounds are the stream's own invariant (see [`Kernel::exec`]).
    unsafe fn run(&self, lw: usize, vals: *mut u64, simd: Simd) {
        debug_assert!(
            simd_available(simd),
            "{simd:?} kernels on a CPU without them"
        );
        match (lw, simd) {
            (1, _) => self.sweep::<Portable<1>>(vals),
            #[cfg(target_arch = "x86_64")]
            (4, Simd::Avx2 | Simd::Avx512) => self.sweep::<x86::Avx2<1>>(vals),
            (4, _) => self.sweep::<Portable<4>>(vals),
            #[cfg(target_arch = "x86_64")]
            (8, Simd::Avx512) => self.sweep::<x86::Avx512>(vals),
            #[cfg(target_arch = "x86_64")]
            (8, Simd::Avx2) => self.sweep::<x86::Avx2<2>>(vals),
            (8, _) => self.sweep::<Portable<8>>(vals),
            _ => unreachable!("lane group width must be 1, 4, or 8 words"),
        }
    }

    /// Walk the opcode runs, dispatching each once into `K`'s loop for
    /// its opcode with its inversion masks hoisted.
    ///
    /// # Safety
    /// As [`Kernel::exec`], for every run of the stream. An opcode outside
    /// `OP_AND..=OP_ANDOR` panics.
    #[inline(always)]
    unsafe fn sweep<K: Kernel>(&self, vals: *mut u64) {
        let mut lo = 0;
        for &(end, opword) in &self.runs {
            let run = &self.insns[lo..end as usize];
            let ma = u64::from(opword & INV_A != 0).wrapping_neg();
            let mb = u64::from(opword & INV_B != 0).wrapping_neg();
            match opword & OP_MASK {
                OP_AND => K::exec::<OP_AND>(vals, run, ma, mb),
                OP_OR => K::exec::<OP_OR>(vals, run, ma, mb),
                OP_XOR => K::exec::<OP_XOR>(vals, run, ma, mb),
                OP_COPY => K::exec::<OP_COPY>(vals, run, ma, mb),
                OP_CONST0 => K::exec::<OP_CONST0>(vals, run, ma, mb),
                OP_CONST1 => K::exec::<OP_CONST1>(vals, run, ma, mb),
                OP_ANDOR => K::exec::<OP_ANDOR>(vals, run, ma, mb),
                op => unreachable!("unknown opcode {op}"),
            }
            lo = end as usize;
        }
    }

    /// Evaluate one lane group of `lw` words: load `inputs` (word `k` of
    /// primary input `i` at `inputs[k * inputs_per_word + i]`) into
    /// `vals`, sweep the whole stream, and write word `k` of output `o` to
    /// `out[k * outputs + o]`.
    pub(crate) fn eval_words(
        &self,
        inputs: &[u64],
        lw: usize,
        vals: &mut [u64],
        out: &mut [u64],
        simd: Simd,
    ) {
        let (ins, outs) = (self.input_slots.len(), self.outputs.len());
        let vals = &mut vals[..self.slot_count * lw];
        for (ord, &slot) in self.input_slots.iter().enumerate() {
            let at = slot as usize * lw;
            for (k, val) in vals[at..at + lw].iter_mut().enumerate() {
                *val = inputs[k * ins + ord];
            }
        }
        // SAFETY: `vals` was sliced to exactly the `slot_count * lw` words
        // `run` needs (the slicing panics if the buffer is shorter); every
        // slot is `< slot_count` because `lower` allocates no slot past the
        // count it records (`self_check` verifies it in debug builds);
        // `run` itself rejects an `lw` outside {1, 4, 8} before touching
        // memory; and `simd` came from `detect_simd` (the engine's only
        // source of it), so an AVX kernel runs only on a CPU that reported
        // the feature.
        unsafe { self.run(lw, vals.as_mut_ptr(), simd) }
        for (o, &(slot, inverted)) in self.outputs.iter().enumerate() {
            let flip = (inverted as u64).wrapping_neg();
            let at = slot as usize * lw;
            for (k, &val) in vals[at..at + lw].iter().enumerate() {
                out[k * outs + o] = val ^ flip;
            }
        }
    }

    /// Validate the stream: every slot index in range; the opcode runs
    /// tiling the stream (contiguous, none empty, adjacent runs of
    /// different opwords, every instruction of its run's known opword);
    /// every level's instructions parallel-safe across chips (no slot
    /// written by two chips in one level, and no slot read by one chip
    /// while another writes it in the same level; `OP_ANDOR` reads its
    /// `dst`); and every (level, chip) group in dependency order, which
    /// is the chain-step sort's contract: a read of a slot the group
    /// writes comes after the group's first write of it, so in particular
    /// every `OP_ANDOR` accumulates into a slot its group has already
    /// written.
    pub(crate) fn self_check(&self) {
        let mut lo = 0;
        for (r, &(end, opword)) in self.runs.iter().enumerate() {
            let end = end as usize;
            assert!(
                lo < end && end <= self.insns.len(),
                "opcode run {r} is empty or leaves the stream"
            );
            assert!(
                opword & OP_MASK <= OP_ANDOR && opword < 1 << OPWORD_BITS,
                "opcode run {r} has unknown opword {opword:#x}"
            );
            assert!(
                r == 0 || self.runs[r - 1].1 != opword,
                "opcode runs {} and {r} share opword {opword:#x}",
                r - 1
            );
            for (k, i) in self.insns[lo..end].iter().enumerate() {
                assert_eq!(
                    i.opword,
                    opword,
                    "instruction {} is not of its opcode run {r}",
                    lo + k
                );
            }
            lo = end;
        }
        assert_eq!(lo, self.insns.len(), "opcode runs end before the stream");
        let n = self.slot_count as u32;
        for i in &self.insns {
            assert!(
                i.a < n && i.b < n && i.dst < n,
                "instruction slot out of range"
            );
        }
        for &(s, _) in &self.outputs {
            assert!(s < n, "output slot out of range");
        }
        assert_eq!(self.chip_ranges.len(), self.level_count() * self.chips);
        // Per slot: (level, chip) of its latest write, and (group, index
        // in group) of the current group's first write.
        let none = (u32::MAX, u32::MAX);
        let mut writer = vec![none; self.slot_count];
        let mut first = vec![none; self.slot_count];
        for l in 0..self.level_count() {
            let level = l as u32;
            let group = |c: usize| {
                let (lo, hi) = self.chip_ranges[l * self.chips + c];
                assert!(
                    self.level_bounds[l] <= lo && hi <= self.level_bounds[l + 1],
                    "chip range escapes its level"
                );
                &self.insns[lo as usize..hi as usize]
            };
            for c in 0..self.chips {
                for i in group(c) {
                    let (wl, wc) = writer[i.dst as usize];
                    assert!(
                        wl != level || wc == c as u32,
                        "slot {} written by chips {wc} and {c} in level {l}",
                        i.dst
                    );
                    writer[i.dst as usize] = (level, c as u32);
                }
            }
            for c in 0..self.chips {
                let id = (l * self.chips + c) as u32;
                for (k, i) in group(c).iter().enumerate() {
                    if first[i.dst as usize].0 != id {
                        first[i.dst as usize] = (id, k as u32);
                    }
                }
                for (k, i) in group(c).iter().enumerate() {
                    for r in i.reads() {
                        let (wl, wc) = writer[r as usize];
                        assert!(
                            wl != level || wc == c as u32,
                            "chip {c} reads slot {r} written by chip {wc} in level {l}"
                        );
                        let (fg, fk) = first[r as usize];
                        assert!(
                            fg != id || fk < k as u32,
                            "instruction {k} of level {l} chip {c} reads slot {r} \
                             before its group writes it"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Literal, Netlist};

    /// Lower `nl` onto a hand-placed partition (`chip_of_gate` in
    /// schedule order) and check the stream.
    fn lower_placed(nl: &Netlist, chip_of_gate: Vec<u32>, chips: usize) -> InsnStream {
        let sched = Schedule::new(nl);
        assert_eq!(chip_of_gate.len(), sched.ops.len());
        let stream = lower(
            &sched,
            &Partition {
                chips,
                chip_of_gate,
            },
        );
        stream.self_check();
        stream
    }

    /// `stream` in lane groups of 1, 4 and 8 words on this CPU's kernels.
    /// Word 0 of a group carries every input vector of `nl` (≤ 6 inputs,
    /// one per lane); the others carry rotations and complements of it.
    /// Each word of a group must equal that word swept alone (`lw = 1`),
    /// and each lane must equal `Netlist::eval`.
    fn assert_truth_table(nl: &Netlist, stream: &InsnStream) {
        let (n, outs) = (nl.input_count(), stream.outputs.len());
        let block = |k: usize| -> Vec<u64> {
            (0..n)
                .map(|i| {
                    let table = (0..64).fold(0u64, |w, v| w | ((v >> i) & 1) << v);
                    table.rotate_left(7 * k as u32) ^ (k as u64 & 1).wrapping_neg()
                })
                .collect()
        };
        let simd = detect_simd();
        let mut vals = vec![0u64; stream.slot_count * 8];
        let mut one = vec![0u64; outs];
        for lw in [1usize, 4, 8] {
            let inputs: Vec<u64> = (0..lw).flat_map(block).collect();
            let mut out = vec![0u64; outs * lw];
            stream.eval_words(&inputs, lw, &mut vals, &mut out, simd);
            for k in 0..lw {
                let words = block(k);
                stream.eval_words(&words, 1, &mut vals, &mut one, Simd::Scalar);
                assert_eq!(out[k * outs..(k + 1) * outs], one[..], "lw {lw}, word {k}");
                for lane in 0..64 {
                    let bits: Vec<bool> = words.iter().map(|&w| w >> lane & 1 == 1).collect();
                    let got: Vec<bool> = one.iter().map(|&w| w >> lane & 1 == 1).collect();
                    assert_eq!(got, nl.eval(&bits), "lw {lw}, word {k}, lane {lane}");
                }
            }
        }
    }

    fn insn(opword: u32, a: u32, b: u32, dst: u32) -> Insn {
        Insn { a, b, dst, opword }
    }

    #[test]
    fn a_leading_pair_is_shared_once_per_level_and_chip() {
        // Inputs a..f are slots 0..5. On chip 0, two AND-3 gates open
        // with `a ∧ ¬b` and share it; an OR-3 over the same literals is a
        // different pair. On chip 1, a third AND-3 opens with `a ∧ ¬b`
        // too, but a prefix never crosses chips.
        let mut nl = Netlist::new();
        let x: Vec<Literal> = nl.inputs_n(6).into_iter().map(Literal::pos).collect();
        let (a, nb) = (x[0], x[1].complement());
        let g0 = nl.and([a, nb, x[2]]);
        let g1 = nl.and([a, nb, x[3]]);
        let g2 = nl.or([a, nb, x[4]]);
        let g3 = nl.and([a, nb, x[5]]);
        for g in [g0, g1, g2, g3] {
            nl.mark_output(g);
        }
        let stream = lower_placed(&nl, vec![0, 0, 0, 1], 2);

        // Unshared, every 3-input gate costs two instructions (8 total);
        // the shared pair saves exactly one.
        assert_eq!(stream.insns.len(), 7);
        // Six inputs, four pinned outputs, one temporary (slot 7).
        assert_eq!(stream.slot_count, 11);
        // Chain-step order on chip 0: the temporary and g2's opening pair
        // (step 0), then the three instructions that read them (step 1).
        assert_eq!(
            stream.insns,
            [
                insn(OP_AND | INV_B, 0, 1, 7),  // shared temporary: a ∧ ¬b
                insn(OP_OR | INV_B, 0, 1, 9),   // g2 opens its own pair ...
                insn(OP_AND, 7, 2, 6),          // g0 = tmp ∧ c
                insn(OP_AND, 7, 3, 8),          // g1 = tmp ∧ d
                insn(OP_OR, 9, 4, 9),           // ... and chains e
                insn(OP_AND | INV_B, 0, 1, 10), // g3 on chip 1 recomputes it
                insn(OP_AND, 10, 5, 10),
            ]
        );
        assert_eq!(stream.chip_ranges, [(0, 5), (5, 7)]);
        let outputs: Vec<u32> = stream.outputs.iter().map(|&(s, _)| s).collect();
        assert_eq!(outputs, [6, 8, 9, 10]);
        assert_truth_table(&nl, &stream);
    }

    #[test]
    fn a_temporary_is_recycled_only_at_the_next_level() {
        // Level 1 shares `a ∧ b` between two gates; level 2 gates then
        // allocate into recycled slots. The temporary must still hold
        // its pair until the last level-1 reader has run, and only the
        // next level may reuse it.
        let mut nl = Netlist::new();
        let x: Vec<Literal> = nl.inputs_n(5).into_iter().map(Literal::pos).collect();
        let p = nl.and([x[0], x[1], x[2]]);
        let q = nl.and([x[0], x[1], x[3]]);
        let r = nl.and([p, q, x[4]]);
        let s = nl.xor([p, q.complement(), x[2]]);
        nl.mark_output(r);
        nl.mark_output(s);
        let stream = lower_placed(&nl, vec![0; 4], 1);
        assert_eq!(stream.insns.len(), 1 + 1 + 1 + 2 + 2);
        let tmp = stream.insns[0].dst;
        let level1 = &stream.insns[..stream.level_bounds[1] as usize];
        assert!(level1[1..].iter().all(|i| i.dst != tmp && i.a == tmp));
        let level2 = &stream.insns[stream.level_bounds[1] as usize..];
        assert!(
            level2.iter().any(|i| i.dst == tmp),
            "the temporary's slot is free again at level 2"
        );
        assert_truth_table(&nl, &stream);
    }

    #[test]
    fn single_reader_and_terms_fold_into_their_or_chains() {
        // Inputs a..e are slots 0..4. Level 1 is four ANDs, each read
        // once by a positive OR literal at level 2: an AND-2, two AND-3s
        // opening with the shared pair c ∧ ¬d, and an AND-2 that is a
        // one-input OR's only literal.
        let mut nl = Netlist::new();
        let x: Vec<Literal> = nl.inputs_n(5).into_iter().map(Literal::pos).collect();
        let (a, b, c, nd, e) = (x[0], x[1], x[2], x[3].complement(), x[4]);
        let t1 = nl.and([a, b]);
        let t2 = nl.and([c, nd, e]);
        let t3 = nl.and([c, nd, a]);
        let t4 = nl.and([b, e.complement()]);
        let o1 = nl.or([t1, t2]);
        let o2 = nl.or([b, t3]);
        let o3 = nl.or([t4]);
        for o in [o1, o2, o3] {
            nl.mark_output(o);
        }
        let stream = lower_placed(&nl, vec![0; 7], 1);

        // Unfused this is 8 instructions (t1, the shared pair, t2, t3,
        // t4, o1, o2 and o3's copy); fused, the ANDs leave only their
        // shared pair (slot 5), kept live until the ORs' level.
        assert_eq!(
            stream.insns,
            [
                insn(OP_AND | INV_B, 2, 3, 5), // level 1: tmp = c ∧ ¬d
                insn(OP_AND, 0, 1, 3),         // o1 opens with t1 = a ∧ b
                insn(OP_AND, 5, 0, 2),         // o2 opens with t3 = tmp ∧ a
                insn(OP_AND | INV_B, 1, 4, 6), // o3 = t4 = b ∧ ¬e, no copy
                insn(OP_OR, 2, 1, 2),          // o2 |= b
                insn(OP_ANDOR, 5, 4, 3),       // o1 |= tmp ∧ e (t2)
            ]
        );
        // Step 0 of level 2 is one OP_AND run and one inverted one; step
        // 1 sorts OP_OR before OP_ANDOR.
        assert_eq!(
            stream.runs,
            [
                (1, OP_AND | INV_B),
                (3, OP_AND),
                (4, OP_AND | INV_B),
                (5, OP_OR),
                (6, OP_ANDOR),
            ]
        );
        assert_eq!(stream.level_bounds, [0, 1, 6]);
        // c and d are last read at level 1, so o1 and o2 reuse them.
        assert_eq!(stream.slot_count, 7);
        let outputs: Vec<u32> = stream.outputs.iter().map(|&(s, _)| s).collect();
        assert_eq!(outputs, [3, 2, 6]);
        assert_truth_table(&nl, &stream);

        // The ORs on another chip than their ANDs read the terms' operands
        // across chips, one level later.
        let split = lower_placed(&nl, vec![0, 0, 0, 0, 1, 1, 0], 2);
        assert_eq!(split.insns.len(), 6);
        assert_truth_table(&nl, &split);
    }

    #[test]
    fn each_step_of_a_group_is_sorted_into_opcode_runs() {
        // One level, one chip: OR, inverted-AND, AND and inverted-OR gates
        // of fan-in 2 interleaved, so chain-step order alone would change
        // opword at every instruction.
        let mut nl = Netlist::new();
        let x: Vec<Literal> = nl.inputs_n(4).into_iter().map(Literal::pos).collect();
        for k in 0..8 {
            let (a, b) = (x[k % 4], x[(k + 1) % 4]);
            let g = match k % 4 {
                0 => nl.or([a, b]),
                1 => nl.and([a, b.complement()]),
                2 => nl.and([a, b]),
                _ => nl.or([a.complement(), b]),
            };
            nl.mark_output(g);
        }
        let stream = lower_placed(&nl, vec![0; 8], 1);
        assert_eq!(
            stream.runs,
            [
                (2, OP_AND),
                (4, OP_OR),
                (6, OP_OR | INV_A),
                (8, OP_AND | INV_B)
            ]
        );
        assert_truth_table(&nl, &stream);
    }

    #[test]
    #[should_panic(expected = "is not of its opcode run")]
    fn self_check_rejects_a_shifted_run_boundary() {
        let mut nl = Netlist::new();
        let x: Vec<Literal> = nl.inputs_n(2).into_iter().map(Literal::pos).collect();
        let g = nl.and([x[0], x[1]]);
        let h = nl.or([x[0], x[1]]);
        nl.mark_output(g);
        nl.mark_output(h);
        let mut stream = lower_placed(&nl, vec![0; 2], 1);
        assert_eq!(stream.runs, [(1, OP_AND), (2, OP_OR)]);
        // The AND run now claims the OR.
        stream.runs[0].0 = 2;
        stream.self_check();
    }

    #[test]
    fn an_and_is_fused_only_into_a_sole_positive_or_literal() {
        // t = a ∧ b and u = b ∧ c feed o = t ∨ u. `fused` says whether t's
        // pair is computed in o's chain, at o's level, rather than at its
        // own level 1.
        let build = |edit: &dyn Fn(&mut Netlist, Literal, Literal) -> Literal| {
            let mut nl = Netlist::new();
            let x: Vec<Literal> = nl.inputs_n(3).into_iter().map(Literal::pos).collect();
            let t = nl.and([x[0], x[1]]);
            let u = nl.and([x[1], x[2]]);
            let o = edit(&mut nl, t, u);
            nl.mark_output(o);
            nl
        };
        let fused = |nl: &Netlist| {
            let stream = lower_placed(nl, vec![0; nl.gates().len()], 1);
            assert_truth_table(nl, &stream);
            let at = stream
                .insns
                .iter()
                .position(|i| (i.opword, i.a, i.b) == (OP_AND, 0, 1))
                .expect("t's pair is computed");
            at >= stream.level_bounds[1] as usize
        };
        assert!(fused(&build(&|nl, t, u| nl.or([t, u]))));
        assert!(!fused(&build(&|nl, t, u| {
            nl.mark_output(t); // a primary output keeps its slot
            nl.or([t, u])
        })));
        assert!(!fused(&build(&|nl, t, u| {
            let o = nl.or([t, u]);
            nl.xor([o, t]) // a second reader
        })));
        assert!(!fused(&build(&|nl, t, u| nl.or([t.complement(), u]))));
        assert!(!fused(&build(&|nl, t, u| nl.and([t, u]))));
    }
}

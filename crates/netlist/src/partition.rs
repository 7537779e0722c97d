//! Netlist partitioning: mapping scheduled gates onto chips.
//!
//! The 1987 paper's multichip packaging problem is pin-count-dominated:
//! a partial concentrator is split across identical chips, and the cost of
//! a partition is the wires that must cross chip boundaries (Sections 4–6
//! count exactly those pins for the Revsort and Columnsort packagings).
//! The emulator's lowering has the *same* shape of problem: it orders the
//! instruction stream by (level, chip), shares chain prefixes and orders
//! chains within each (level, chip) group, and keeps the chips of one
//! level write-disjoint, so a value produced on one chip and consumed on
//! another is a cross-chip wire. The emulator itself sweeps the whole
//! stream in order on one thread per lane group; the grouping does not
//! change any output.
//!
//! One pass therefore serves both: [`partition_schedule`] assigns every
//! scheduled gate to a chip, balancing gate counts *within each level*
//! while greedily minimizing cut wires, and [`PartitionReport`] prices the
//! result in the paper's currency — gates per chip, pins per chip, and
//! total cut wires.
//!
//! The partitioner is deliberately a two-pass heuristic, not an exact
//! min-cut: a fan-in-affinity greedy placement (each gate lands where most
//! of its producers already live, subject to a per-level balance cap)
//! followed by one Fiduccia–Mattheyses-style refinement sweep (each gate
//! may move to the chip where most of its *neighbours* — producers and
//! consumers — live, if the balance cap allows). Both passes are linear in
//! gates + literals, so partitioning never dominates compilation.

use crate::compile::Schedule;

/// A gate→chip assignment over a levelized schedule.
#[derive(Debug, Clone)]
pub(crate) struct Partition {
    /// Number of chips (≥ 1).
    pub chips: usize,
    /// Chip of each scheduled gate, indexed by schedule slot.
    pub chip_of_gate: Vec<u32>,
}

/// Per-chip and aggregate cost of a gate-to-chip partition, in the
/// packaging currency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionReport {
    /// Number of chips.
    pub chips: usize,
    /// Gates placed on each chip.
    pub chip_gates: Vec<usize>,
    /// Input pins per chip: distinct wires a chip reads that it does not
    /// itself produce (primary inputs included).
    pub chip_in_pins: Vec<usize>,
    /// Output pins per chip: distinct wires a chip produces that leave it
    /// (read on another chip, or marked as a primary output).
    pub chip_out_pins: Vec<usize>,
    /// Gate-driven wires read on a chip other than their producer's.
    /// Primary outputs alone do not make a wire "cut": they leave the
    /// package no matter how gates are placed.
    pub cut_wires: usize,
    /// Total scheduled gates.
    pub total_gates: usize,
}

impl PartitionReport {
    /// Largest pin count (in + out) over all chips — the packaging
    /// bottleneck the paper's multichip constructions minimize.
    pub fn max_pins(&self) -> usize {
        (0..self.chips)
            .map(|c| self.chip_in_pins[c] + self.chip_out_pins[c])
            .max()
            .unwrap_or(0)
    }

    /// Largest gate count over all chips.
    pub fn max_gates(&self) -> usize {
        self.chip_gates.iter().copied().max().unwrap_or(0)
    }
}

/// Per-level balance cap: a chip may hold at most `cap(level)` gates of a
/// level, with a 1/4 slack over the even split so affinity has room to
/// cluster connected gates.
fn level_cap(level_gates: usize, chips: usize) -> usize {
    let even = level_gates.div_ceil(chips).max(1);
    even + even / 4
}

/// Assign every scheduled gate to one of `chips` chips.
pub(crate) fn partition_schedule(sched: &Schedule, chips: usize) -> Partition {
    let chips = chips.max(1);
    let gate_count = sched.ops.len();
    let mut chip_of_gate = vec![0u32; gate_count];
    if chips == 1 || gate_count == 0 {
        return Partition {
            chips,
            chip_of_gate,
        };
    }

    // Producer chip per wire; u32::MAX marks external producers (primary
    // inputs), which carry no placement affinity.
    let mut chip_of_wire = vec![u32::MAX; sched.wire_count];
    let mut affinity = vec![0u32; chips];

    // Greedy placement, level by level so the balance cap is per level.
    for level in sched.levels.windows(2) {
        let (lo, hi) = (level[0] as usize, level[1] as usize);
        let cap = level_cap(hi - lo, chips);
        let mut load = vec![0usize; chips];
        for g in lo..hi {
            affinity.iter_mut().for_each(|a| *a = 0);
            for &packed in sched.gate_lits(g) {
                let producer = chip_of_wire[(packed >> 1) as usize];
                if producer != u32::MAX {
                    affinity[producer as usize] += 1;
                }
            }
            // Best chip under the cap: max affinity, then least load.
            let mut best = usize::MAX;
            for c in 0..chips {
                if load[c] >= cap {
                    continue;
                }
                if best == usize::MAX
                    || affinity[c] > affinity[best]
                    || (affinity[c] == affinity[best] && load[c] < load[best])
                {
                    best = c;
                }
            }
            debug_assert_ne!(best, usize::MAX, "cap × chips always covers a level");
            chip_of_gate[g] = best as u32;
            load[best] += 1;
            chip_of_wire[sched.outs[g] as usize] = best as u32;
        }
    }

    refine(sched, chips, &mut chip_of_gate);
    Partition {
        chips,
        chip_of_gate,
    }
}

/// One FM-style refinement sweep: move a gate to the chip holding the
/// majority of its neighbours (fan-in producers and fan-out consumers)
/// when that strictly reduces local cut and the level cap allows it.
fn refine(sched: &Schedule, chips: usize, chip_of_gate: &mut [u32]) {
    let gate_count = chip_of_gate.len();
    // Driver slot per wire, for producer lookup.
    let mut driver = vec![u32::MAX; sched.wire_count];
    for (g, &w) in sched.outs.iter().enumerate() {
        driver[w as usize] = g as u32;
    }
    // Consumer adjacency (gate -> reader gates), CSR over the lit arena.
    let mut reader_counts = vec![0u32; gate_count];
    for g in 0..gate_count {
        for &packed in sched.gate_lits(g) {
            let p = driver[(packed >> 1) as usize];
            if p != u32::MAX {
                reader_counts[p as usize] += 1;
            }
        }
    }
    let mut reader_bounds = vec![0u32; gate_count + 1];
    for g in 0..gate_count {
        reader_bounds[g + 1] = reader_bounds[g] + reader_counts[g];
    }
    let mut readers = vec![0u32; reader_bounds[gate_count] as usize];
    let mut cursor = reader_bounds.clone();
    for g in 0..gate_count {
        for &packed in sched.gate_lits(g) {
            let p = driver[(packed >> 1) as usize];
            if p != u32::MAX {
                readers[cursor[p as usize] as usize] = g as u32;
                cursor[p as usize] += 1;
            }
        }
    }

    let mut level_of = vec![0u32; gate_count];
    for (l, level) in sched.levels.windows(2).enumerate() {
        for g in level[0]..level[1] {
            level_of[g as usize] = l as u32;
        }
    }
    let mut level_load = vec![vec![0usize; chips]; sched.levels.len() - 1];
    for g in 0..gate_count {
        level_load[level_of[g] as usize][chip_of_gate[g] as usize] += 1;
    }

    let mut neighbours = vec![0u32; chips];
    for g in 0..gate_count {
        neighbours.iter_mut().for_each(|n| *n = 0);
        for &packed in sched.gate_lits(g) {
            let p = driver[(packed >> 1) as usize];
            if p != u32::MAX {
                neighbours[chip_of_gate[p as usize] as usize] += 1;
            }
        }
        for &r in &readers[reader_bounds[g] as usize..reader_bounds[g + 1] as usize] {
            neighbours[chip_of_gate[r as usize] as usize] += 1;
        }
        let cur = chip_of_gate[g] as usize;
        let lvl = level_of[g] as usize;
        let cap = level_cap((sched.levels[lvl + 1] - sched.levels[lvl]) as usize, chips);
        let mut best = cur;
        for c in 0..chips {
            if c != cur && neighbours[c] > neighbours[best] && level_load[lvl][c] < cap {
                best = c;
            }
        }
        if best != cur {
            chip_of_gate[g] = best as u32;
            level_load[lvl][cur] -= 1;
            level_load[lvl][best] += 1;
        }
    }
}

/// Price `part` in gates, pins, and cut wires.
pub(crate) fn report(sched: &Schedule, part: &Partition) -> PartitionReport {
    let chips = part.chips;
    assert!(chips <= 64, "pin report uses a 64-chip consumer bitmask");
    let mut chip_gates = vec![0usize; chips];
    for &c in &part.chip_of_gate {
        chip_gates[c as usize] += 1;
    }

    // Producer chip per wire (u32::MAX = primary input, off-package).
    let mut producer = vec![u32::MAX; sched.wire_count];
    for (g, &w) in sched.outs.iter().enumerate() {
        producer[w as usize] = part.chip_of_gate[g];
    }
    // Consumer chip set per wire, as a bitmask.
    let mut consumers = vec![0u64; sched.wire_count];
    for g in 0..part.chip_of_gate.len() {
        let c = part.chip_of_gate[g];
        for &packed in sched.gate_lits(g) {
            consumers[(packed >> 1) as usize] |= 1u64 << c;
        }
    }

    let mut chip_in_pins = vec![0usize; chips];
    let mut chip_out_pins = vec![0usize; chips];
    let mut cut_wires = 0usize;
    let mut is_output = vec![false; sched.wire_count];
    for &packed in &sched.outputs {
        is_output[(packed >> 1) as usize] = true;
    }
    for w in 0..sched.wire_count {
        let p = producer[w];
        let mask = consumers[w];
        let off_chip_readers = if p == u32::MAX {
            mask
        } else {
            mask & !(1u64 << p)
        };
        for (c, pins) in chip_in_pins.iter_mut().enumerate() {
            if off_chip_readers >> c & 1 == 1 {
                *pins += 1;
            }
        }
        if p != u32::MAX {
            if off_chip_readers != 0 {
                cut_wires += 1;
            }
            if off_chip_readers != 0 || is_output[w] {
                chip_out_pins[p as usize] += 1;
            }
        }
    }

    PartitionReport {
        chips,
        chip_gates,
        chip_in_pins,
        chip_out_pins,
        cut_wires,
        total_gates: part.chip_of_gate.len(),
    }
}

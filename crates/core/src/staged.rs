//! A generic multichip switch engine.
//!
//! Every switch in the paper has the same shape: *stages* of identical
//! single-chip hyperconcentrators joined by *fixed wiring* (crossbars in the
//! 2-D layouts, stack junctions in the 3-D packagings), with the switch
//! outputs read off a subset of the last stage's wires. This module captures
//! that shape once and walks it in exactly two places: one message-level
//! tracer (routing, healthy or with injected chip faults) and one gate-level
//! elaborator that produces every flat [`netlist::Netlist`] flavour —
//! control, trace and datapath. The tracer is the reference the netlists
//! and the chip programs are tested against. Delay accounting sits
//! alongside; the concrete switches of §§4–6 are thin constructors on top.

use std::sync::Arc;

use netlist::{Literal, Netlist};
use serde::{Deserialize, Serialize};

use crate::elab::{ElabCache, Elaboration};
use crate::faults::{ChipFault, FaultMode};
use crate::hyper::{ceil_lg, Hyperconcentrator, PAD_LEVELS};
use crate::spec::{ConcentratorKind, ConcentratorSwitch, Routing};

mod program;

pub use program::{ChipProgram, ChipScratch};

/// Where a chip input pin's signal comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinSource {
    /// Wire `i` of the previous stage's output vector (or of the switch
    /// inputs, for the first stage).
    Prev(usize),
    /// A hardwired constant — the ±∞ padding of Columnsort steps 6–8.
    Const(bool),
}

/// What the chips in a stage do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// p-by-p hyperconcentrator chips: stable compaction of valid pins to
    /// the lowest-numbered output pins.
    Compactor,
    /// Pass-through boards (the hardwired barrel shifters of Fig. 4): the
    /// permutation lives in the wiring; the chip adds only pad/mux delay.
    PassThrough,
}

/// One stage: `chip_count` identical chips of `chip_pins` pins each.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchStage {
    /// Human-readable stage role, e.g. `"sort columns"`.
    pub label: String,
    /// Chip behaviour.
    pub kind: StageKind,
    /// Chips in this stage.
    pub chip_count: usize,
    /// Data pins (inputs = outputs) per chip.
    pub chip_pins: usize,
    /// For chip `c` pin `p` (index `c*chip_pins + p`): its signal source.
    pub input_map: Vec<PinSource>,
    /// For chip `c` pin `p`: where its output lands in this stage's output
    /// vector, or `None` if the wire is dropped (padding removal).
    pub output_map: Vec<Option<usize>>,
    /// Length of this stage's output vector.
    pub out_len: usize,
}

impl SwitchStage {
    /// Gate delays a message incurs traversing one chip of this stage
    /// (logic plus I/O pads).
    pub fn chip_delay(&self) -> u32 {
        match self.kind {
            StageKind::Compactor => 2 * ceil_lg(self.chip_pins) + PAD_LEVELS,
            StageKind::PassThrough => crate::barrel::BARREL_LEVELS,
        }
    }

    fn validate(&self, prev_len: usize) {
        let total = self.chip_count * self.chip_pins;
        assert_eq!(
            self.input_map.len(),
            total,
            "{}: input map size",
            self.label
        );
        assert_eq!(
            self.output_map.len(),
            total,
            "{}: output map size",
            self.label
        );
        for src in &self.input_map {
            if let PinSource::Prev(i) = src {
                assert!(
                    *i < prev_len,
                    "{}: input reads wire {i} >= {prev_len}",
                    self.label
                );
            }
        }
        let mut seen = vec![false; self.out_len];
        for dst in self.output_map.iter().flatten() {
            assert!(
                *dst < self.out_len,
                "{}: output target out of range",
                self.label
            );
            assert!(!seen[*dst], "{}: duplicate output target {dst}", self.label);
            seen[*dst] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "{}: some output positions are undriven",
            self.label
        );
    }
}

/// A complete multichip switch: stages plus the output read-off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedSwitch {
    /// Descriptive name, e.g. `"Revsort switch"`.
    pub name: String,
    /// Input wire count `n`.
    pub n: usize,
    /// Output wire count `m`.
    pub m: usize,
    /// The guarantee this construction makes.
    pub kind: ConcentratorKind,
    /// The chip stages, in traversal order.
    pub stages: Vec<SwitchStage>,
    /// Positions in the last stage's output vector that are the switch's
    /// `m` outputs, in output order.
    pub output_positions: Vec<usize>,
    /// Lazily-built elaborations (netlist + compiled engine), shared by
    /// verification, search, simulation, and benches. Invisible to value
    /// semantics: ignored by equality, reset by clone.
    #[serde(skip)]
    cache: ElabCache,
}

/// A message slot traveling between stages during routing: its valid bit
/// and the switch input carrying it (`None` for padding and phantoms).
pub(crate) type Slot = (bool, Option<usize>);

/// The netlist flavours the one elaboration walk produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavour {
    /// Valid rail only, the `m` output valid bits out; `with_pads` adds the
    /// per-chip pad levels so depth equals [`StagedSwitch::delay`].
    Control { with_pads: bool },
    /// Valid rail only, the whole final-stage wire vector out.
    Trace,
    /// Valid and data rails, the `m` output valid bits then data bits out.
    Datapath,
}

impl StagedSwitch {
    /// Build and validate a staged switch.
    ///
    /// # Panics
    /// On any structural inconsistency (see [`StagedSwitch::validate`]).
    pub fn new(
        name: impl Into<String>,
        n: usize,
        m: usize,
        kind: ConcentratorKind,
        stages: Vec<SwitchStage>,
        output_positions: Vec<usize>,
    ) -> Self {
        let switch = StagedSwitch {
            name: name.into(),
            n,
            m,
            kind,
            stages,
            output_positions,
            cache: ElabCache::default(),
        };
        switch.validate();
        switch
    }

    /// Validate internal consistency (map sizes, ranges, disjointness).
    ///
    /// # Panics
    /// On any inconsistency; constructors call this before returning.
    pub fn validate(&self) {
        assert!(self.m <= self.n, "m must not exceed n");
        let mut len = self.n;
        for stage in &self.stages {
            stage.validate(len);
            len = stage.out_len;
        }
        let mut seen = vec![false; len];
        assert_eq!(
            self.output_positions.len(),
            self.m,
            "need m output positions"
        );
        for &pos in &self.output_positions {
            assert!(pos < len, "output position {pos} out of range");
            assert!(!seen[pos], "duplicate output position {pos}");
            seen[pos] = true;
        }
    }

    /// Total gate delays through the switch (sum of per-stage chip delays;
    /// inter-stage wiring is free).
    pub fn delay(&self) -> u32 {
        self.stages.iter().map(SwitchStage::chip_delay).sum()
    }

    /// Total chips across all stages.
    pub fn chip_count(&self) -> usize {
        self.stages.iter().map(|s| s.chip_count).sum()
    }

    /// The largest per-chip data pin count (`2p` for a p-pin-in, p-pin-out
    /// chip).
    pub fn max_data_pins_per_chip(&self) -> usize {
        self.stages
            .iter()
            .map(|s| 2 * s.chip_pins)
            .max()
            .unwrap_or(0)
    }

    /// Trace messages through the stages, returning the final wire vector
    /// as `(valid, source)` pairs. Exposed for layout renderers.
    ///
    /// # Panics
    /// If a stage drops a wire carrying a real message (only padding may
    /// be dropped).
    pub fn trace(&self, valid: &[bool]) -> Vec<(bool, Option<usize>)> {
        self.trace_faulted(valid, &[])
    }

    /// The one message-level tracer: gather each chip's pins through
    /// `input_map`, compact (or pass through), present the pins through
    /// any fault on the chip (first match in `faults` wins), and scatter
    /// through `output_map`. With no faults, dropping a real message is a
    /// wiring bug and panics; with faults it is the failure being modelled.
    pub(crate) fn trace_faulted(&self, valid: &[bool], faults: &[ChipFault]) -> Vec<Slot> {
        assert_eq!(valid.len(), self.n, "valid bit vector must have length n");
        let mut wires: Vec<Slot> = valid
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, v.then_some(i)))
            .collect();
        for (stage_idx, stage) in self.stages.iter().enumerate() {
            let pins = stage.chip_pins;
            let mut out = vec![(false, None); stage.out_len];
            for chip in 0..stage.chip_count {
                let base = chip * pins;
                let fault = faults
                    .iter()
                    .find(|f| f.stage == stage_idx && f.chip == chip)
                    .map(|f| f.mode);
                let mut emit = |pin: usize, slot: Slot| {
                    let slot = FaultMode::present(fault, slot);
                    match stage.output_map[base + pin] {
                        Some(dst) => out[dst] = slot,
                        None => assert!(
                            !faults.is_empty() || slot.1.is_none(),
                            "{}: dropped a real message from input {:?}",
                            stage.label,
                            slot.1
                        ),
                    }
                };
                let gathered = stage.input_map[base..base + pins]
                    .iter()
                    .map(|src| match *src {
                        PinSource::Prev(i) => wires[i],
                        PinSource::Const(v) => (v, None),
                    });
                match stage.kind {
                    // Stable compaction: valid slots first, in pin order.
                    StageKind::Compactor => {
                        let mut filled = 0;
                        for slot in gathered.filter(|s| s.0) {
                            emit(filled, slot);
                            filled += 1;
                        }
                        for pin in filled..pins {
                            emit(pin, (false, None));
                        }
                    }
                    StageKind::PassThrough => {
                        for (pin, slot) in gathered.enumerate() {
                            emit(pin, slot);
                        }
                    }
                }
            }
            wires = out;
        }
        wires
    }

    /// Route through the tracer: each output position holding a real
    /// message assigns that message's input to the output.
    pub(crate) fn route_faulted(&self, valid: &[bool], faults: &[ChipFault]) -> Routing {
        let final_wires = self.trace_faulted(valid, faults);
        let mut assignment = vec![None; self.n];
        for (out_idx, &pos) in self.output_positions.iter().enumerate() {
            if let (true, Some(src)) = final_wires[pos] {
                assignment[src] = Some(out_idx);
            }
        }
        Routing::from_assignment(assignment, self.m)
    }

    /// The one gate-level elaborator. It walks the stages over *rails*:
    /// rail 0 is the valid bits, rail 1 (datapath flavour) the data bits.
    /// Each chip gathers its pins rail by rail through `input_map` — a
    /// `Const(v)` pad is `v` on the valid rail and 0 on data rails, since
    /// padding carries no payload — then imports one rail-generic
    /// [`Hyperconcentrator`] build or passes the pins through, and
    /// scatters through `output_map`.
    fn elaborate(&self, flavour: Flavour) -> Netlist {
        let (rails, with_pads) = match flavour {
            Flavour::Control { with_pads } => (1, with_pads),
            Flavour::Trace => (1, false),
            Flavour::Datapath => (2, false),
        };
        let mut nl = Netlist::new();
        let mut wires: Vec<Vec<Literal>> = (0..rails)
            .map(|_| nl.inputs_n(self.n).into_iter().map(Literal::pos).collect())
            .collect();
        for stage in &self.stages {
            let pins = stage.chip_pins;
            // One elaboration per stage; all chips in a stage are identical.
            let chip_netlist = match stage.kind {
                StageKind::Compactor => {
                    Some(Hyperconcentrator::new(pins).build_rails(rails, with_pads))
                }
                StageKind::PassThrough => None,
            };
            let mut next: Vec<Vec<Option<Literal>>> = vec![vec![None; stage.out_len]; rails];
            for chip in 0..stage.chip_count {
                let base = chip * pins;
                let mut ins: Vec<Literal> = Vec::with_capacity(rails * pins);
                for (rail, prev) in wires.iter().enumerate() {
                    for src in &stage.input_map[base..base + pins] {
                        ins.push(match *src {
                            PinSource::Prev(i) => prev[i],
                            PinSource::Const(v) => nl.constant(v && rail == 0),
                        });
                    }
                }
                let outs = match &chip_netlist {
                    Some(sub) => nl.import(sub, &ins),
                    None if with_pads => ins
                        .into_iter()
                        .map(|l| (0..crate::barrel::BARREL_LEVELS).fold(l, |l, _| nl.buf(l)))
                        .collect(),
                    None => ins,
                };
                for (rail, next) in next.iter_mut().enumerate() {
                    for (p, dst) in stage.output_map[base..base + pins].iter().enumerate() {
                        if let Some(dst) = *dst {
                            next[dst] = Some(outs[rail * pins + p]);
                        }
                    }
                }
            }
            wires = next
                .into_iter()
                .map(|rail| {
                    rail.into_iter()
                        .map(|l| l.expect("validated stages drive every output"))
                        .collect()
                })
                .collect();
        }
        for rail in &wires {
            if flavour == Flavour::Trace {
                for &lit in rail {
                    nl.mark_output(lit);
                }
            } else {
                for &pos in &self.output_positions {
                    nl.mark_output(rail[pos]);
                }
            }
        }
        nl
    }

    /// Elaborate the whole switch to one flat *data-path* netlist for one
    /// bit-serial time slice: inputs are the `n` valid bits followed by
    /// `n` data bits; outputs are the `m` output valid bits followed by
    /// the `m` data bits carried along the established electrical paths.
    ///
    /// Holding the valid bits constant across a frame makes repeated
    /// evaluation of this netlist cycle-for-cycle equivalent to the real
    /// hardware, where the paths are latched at setup. Padding constants
    /// (Columnsort steps 6–8) carry data 0.
    pub fn build_datapath_netlist(&self) -> Netlist {
        self.elaborate(Flavour::Datapath)
    }

    /// Elaborate the whole switch to one flat control netlist (valid bits
    /// in, the `m` output valid bits out). `with_pads` adds per-chip pad
    /// levels so the netlist depth equals [`StagedSwitch::delay`].
    pub fn build_netlist(&self, with_pads: bool) -> Netlist {
        self.elaborate(Flavour::Control { with_pads })
    }

    /// Like [`StagedSwitch::build_netlist`] without pads, but marking the
    /// *entire* final-stage wire vector as outputs (the gate-level
    /// equivalent of [`StagedSwitch::trace`]'s valid bits) — the form
    /// nearsortedness measurement and ε-attacks evaluate.
    pub fn build_trace_netlist(&self) -> Netlist {
        self.elaborate(Flavour::Trace)
    }

    /// The cached control elaboration (netlist + compiled engine); built on
    /// first use, shared thereafter. See [`crate::elab`].
    pub fn control_logic(&self, with_pads: bool) -> Arc<Elaboration> {
        self.cache
            .control(with_pads, || self.build_netlist(with_pads))
    }

    /// The cached datapath elaboration (netlist + compiled engine).
    ///
    /// The datapath has no padded flavour: `with_pads` must be `false` (the
    /// parameter stays for source compatibility).
    pub fn datapath_logic(&self, with_pads: bool) -> Arc<Elaboration> {
        assert!(!with_pads, "the datapath netlist has no padded flavour");
        self.cache.datapath(|| self.build_datapath_netlist())
    }

    /// The cached chip program: the healthy datapath as one compiled chip
    /// per distinct chip type, swept across each stage's chips as lanes
    /// (see [`ChipProgram`]). It computes what
    /// [`StagedSwitch::datapath_logic`] computes, bit for bit, with the
    /// same input and output layout.
    pub fn datapath_program(&self) -> Arc<ChipProgram> {
        self.cache.program(|| ChipProgram::new(self))
    }

    /// The chip program with `faults` injected: every output pin of a
    /// faulted chip presents valid 0 ([`FaultMode::StuckInvalid`]), valid
    /// 1 ([`FaultMode::StuckValid`]) or its complemented valid rail
    /// ([`FaultMode::Inverted`]), with data 0 in all three, and the first
    /// fault that names a chip wins, as in the message-level tracer. It
    /// shares the cached [`StagedSwitch::datapath_program`]'s compiled
    /// chips and rebuilds only its gathers, so it costs O(wires) and
    /// compiles nothing. The caller owns it: the cache stays healthy.
    ///
    /// # Panics
    /// If a fault names a stage or chip that does not exist.
    pub fn faulted_program(&self, faults: &[ChipFault]) -> ChipProgram {
        self.datapath_program().faulted(self, faults)
    }

    /// The cached full-trace elaboration (netlist + compiled engine).
    ///
    /// The trace netlist has no padded flavour: `with_pads` must be
    /// `false` (the parameter stays for source compatibility).
    pub fn trace_logic(&self, with_pads: bool) -> Arc<Elaboration> {
        assert!(!with_pads, "the trace netlist has no padded flavour");
        self.cache.trace(|| self.build_trace_netlist())
    }
}

impl ConcentratorSwitch for StagedSwitch {
    fn inputs(&self) -> usize {
        self.n
    }

    fn outputs(&self) -> usize {
        self.m
    }

    fn kind(&self) -> ConcentratorKind {
        self.kind
    }

    fn route(&self, valid: &[bool]) -> Routing {
        self.route_faulted(valid, &[])
    }
}

/// Axis a sorting stage operates along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// One chip per matrix column; pin `p` is row `p`.
    Columns,
    /// One chip per matrix row; pin `p` is column `p`.
    Rows,
}

/// Build a sorting stage over an r×c matrix held in row-major order on the
/// inter-stage wires.
///
/// * `pre_perm`, if given, is wiring applied *before* the chips: the
///   element at matrix position `i` moves to position `pre_perm[i]`.
/// * `post_perm` likewise permutes the stage's outputs back into row-major
///   matrix order.
///
/// Compactor chips put valid bits at low pin numbers, so a plain column
/// stage sorts 1s to the top and a plain row stage sorts 1s to the left —
/// the paper's nonincreasing convention. Reversed directions (Shearsort's
/// snake) are expressed with row-reversal permutations.
pub fn sort_stage(
    rows: usize,
    cols: usize,
    axis: Axis,
    pre_perm: Option<&[usize]>,
    post_perm: Option<&[usize]>,
    label: impl Into<String>,
) -> SwitchStage {
    let len = rows * cols;
    let inv_pre = pre_perm.map(meshsort::invert);
    if let Some(p) = pre_perm {
        assert_eq!(p.len(), len, "pre_perm length mismatch");
    }
    if let Some(p) = post_perm {
        assert_eq!(p.len(), len, "post_perm length mismatch");
    }
    let (chip_count, chip_pins) = match axis {
        Axis::Columns => (cols, rows),
        Axis::Rows => (rows, cols),
    };
    let matrix_pos = |chip: usize, pin: usize| -> usize {
        match axis {
            Axis::Columns => pin * cols + chip,
            Axis::Rows => chip * cols + pin,
        }
    };
    let mut input_map = Vec::with_capacity(len);
    let mut output_map = Vec::with_capacity(len);
    for chip in 0..chip_count {
        for pin in 0..chip_pins {
            let pos = matrix_pos(chip, pin);
            let src = match &inv_pre {
                Some(inv) => inv[pos],
                None => pos,
            };
            input_map.push(PinSource::Prev(src));
            let dst = match post_perm {
                Some(p) => p[pos],
                None => pos,
            };
            output_map.push(Some(dst));
        }
    }
    SwitchStage {
        label: label.into(),
        kind: StageKind::Compactor,
        chip_count,
        chip_pins,
        input_map,
        output_map,
        out_len: len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshsort::{transpose_permutation, Grid, SortOrder};

    fn bits_of(pattern: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| (pattern >> i) & 1 == 1).collect()
    }

    /// A single column-sort stage must behave exactly like sorting the
    /// columns of the matrix.
    #[test]
    fn column_stage_equals_grid_column_sort() {
        let (rows, cols) = (4, 3);
        let stage = sort_stage(rows, cols, Axis::Columns, None, None, "cols");
        let switch = StagedSwitch::new(
            "one column stage",
            rows * cols,
            rows * cols,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            (0..rows * cols).collect(),
        );
        for pattern in 0u64..(1 << 12) {
            let valid = bits_of(pattern, 12);
            let traced = switch.trace(&valid);
            let mut grid = Grid::from_row_major(rows, cols, valid.clone());
            grid.sort_columns(SortOrder::Descending);
            let got: Vec<bool> = traced.iter().map(|&(v, _)| v).collect();
            assert_eq!(&got, grid.as_row_major(), "pattern {pattern:#x}");
        }
    }

    #[test]
    fn row_stage_equals_grid_row_sort() {
        let (rows, cols) = (3, 4);
        let stage = sort_stage(rows, cols, Axis::Rows, None, None, "rows");
        let switch = StagedSwitch::new(
            "one row stage",
            12,
            12,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            (0..12).collect(),
        );
        for pattern in 0u64..(1 << 12) {
            let valid = bits_of(pattern, 12);
            let traced = switch.trace(&valid);
            let mut grid = Grid::from_row_major(rows, cols, valid.clone());
            grid.sort_rows(SortOrder::Descending);
            let got: Vec<bool> = traced.iter().map(|&(v, _)| v).collect();
            assert_eq!(&got, grid.as_row_major(), "pattern {pattern:#x}");
        }
    }

    #[test]
    fn pre_perm_is_applied_before_sorting() {
        // Transpose then sort columns == sort rows of the original, read
        // transposed.
        let side = 4;
        let perm = transpose_permutation(side, side);
        let stage = sort_stage(side, side, Axis::Columns, Some(&perm), None, "t+cols");
        let switch = StagedSwitch::new(
            "transpose then column sort",
            16,
            16,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            (0..16).collect(),
        );
        for pattern in [0x0F0Fu64, 0xBEEF, 0x1234] {
            let valid = bits_of(pattern, 16);
            let traced: Vec<bool> = switch.trace(&valid).iter().map(|&(v, _)| v).collect();
            let grid = Grid::from_row_major(side, side, valid.clone());
            let mut transposed = grid.transposed();
            transposed.sort_columns(SortOrder::Descending);
            assert_eq!(&traced, transposed.as_row_major(), "pattern {pattern:#x}");
        }
    }

    #[test]
    fn netlist_matches_trace() {
        let (rows, cols) = (4, 2);
        let stage1 = sort_stage(rows, cols, Axis::Columns, None, None, "cols");
        let stage2 = sort_stage(rows, cols, Axis::Rows, None, None, "rows");
        let switch = StagedSwitch::new(
            "two stages",
            8,
            8,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage1, stage2],
            (0..8).collect(),
        );
        let nl = switch.build_netlist(false);
        for pattern in 0u64..256 {
            let valid = bits_of(pattern, 8);
            let traced: Vec<bool> = switch.trace(&valid).iter().map(|&(v, _)| v).collect();
            assert_eq!(nl.eval(&valid), traced, "pattern {pattern:#x}");
        }
    }

    #[test]
    fn delay_sums_stage_chip_delays() {
        let stage1 = sort_stage(4, 4, Axis::Columns, None, None, "cols");
        let stage2 = sort_stage(4, 4, Axis::Rows, None, None, "rows");
        let switch = StagedSwitch::new(
            "delay",
            16,
            16,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage1, stage2],
            (0..16).collect(),
        );
        // Each 4-pin compactor chip: 2*2 logic + 2 pads = 6.
        assert_eq!(switch.delay(), 12);
        let nl = switch.build_netlist(true);
        assert_eq!(nl.depth(), 12);
    }

    #[test]
    #[should_panic(expected = "undriven")]
    fn validate_catches_undriven_outputs() {
        let mut stage = sort_stage(2, 2, Axis::Columns, None, None, "bad");
        stage.output_map[0] = None;
        let _ = StagedSwitch::new(
            "bad",
            4,
            4,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            (0..4).collect(),
        );
    }

    #[test]
    fn datapath_netlist_carries_message_identity() {
        // Stream 4-bit source ids through the multichip data path; the id
        // arriving at each output must name the input route() assigned.
        let (rows, cols) = (4usize, 4usize);
        let n = rows * cols;
        let stage1 = sort_stage(rows, cols, Axis::Columns, None, None, "cols");
        let stage2 = sort_stage(rows, cols, Axis::Rows, None, None, "rows");
        let switch = StagedSwitch::new(
            "datapath",
            n,
            n,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage1, stage2],
            (0..n).collect(),
        );
        let nl = switch.build_datapath_netlist();
        for pattern in (0u64..(1 << 16)).step_by(311) {
            let valid: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            let routing = switch.route(&valid);
            // One evaluation per id bit.
            let mut received_ids = vec![0usize; n];
            for bit in 0..4 {
                let mut inputs = valid.clone();
                inputs.extend((0..n).map(|i| valid[i] && (i >> bit) & 1 == 1));
                let out = nl.eval(&inputs);
                let (_vout, dout) = out.split_at(n);
                for (slot, &d) in dout.iter().enumerate() {
                    if d {
                        received_ids[slot] |= 1 << bit;
                    }
                }
            }
            for (input, &assigned) in routing.assignment.iter().enumerate() {
                if let Some(out) = assigned {
                    // Id 0 is ambiguous with "no data"; check valid first.
                    if input != 0 {
                        assert_eq!(
                            received_ids[out], input,
                            "pattern {pattern:#x}: output {out} got wrong message"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn datapath_depth_matches_control_netlist() {
        let stage = sort_stage(4, 2, Axis::Columns, None, None, "cols");
        let switch = StagedSwitch::new(
            "depth",
            8,
            8,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            (0..8).collect(),
        );
        assert_eq!(
            switch.build_datapath_netlist().depth(),
            switch.build_netlist(false).depth()
        );
    }

    #[test]
    fn routing_tracks_message_sources() {
        let stage = sort_stage(4, 1, Axis::Columns, None, None, "col");
        let switch = StagedSwitch::new(
            "4-to-2",
            4,
            2,
            ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            vec![0, 1],
        );
        let routing = switch.route(&[false, true, false, true]);
        assert_eq!(routing.assignment, vec![None, Some(0), None, Some(1)]);
        let routing = switch.route(&[true, true, true, false]);
        // Three messages, two outputs: exactly two delivered, in order.
        assert_eq!(routing.assignment, vec![Some(0), Some(1), None, None]);
    }
}

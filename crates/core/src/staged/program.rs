//! Chip programs: the datapath run one chip type at a time.
//!
//! A switch is a few identical chip types joined by fixed wiring, yet the
//! flat datapath netlist lowers every chip copy on its own. A
//! [`ChipProgram`] instead compiles one datapath chip per distinct pin
//! count and, per stage, turns each (frame word, chip) pair into one lane
//! word of that chip's sweep: a *gather* table fills every chip's input
//! block from the previous stage's chip outputs (or the switch inputs),
//! the chip program sweeps all of them in [`lane_group`] steps, and a
//! final gather reads the switch outputs off the last stage. Pass-through
//! stages run no sweep: their wiring folds into the next gather. The
//! healthy program equals the flat [`StagedSwitch::datapath_logic`]
//! stream bit for bit, since every chip copy in the flat netlist imports
//! the same chip netlist on the same wires.
//!
//! Chip faults are gather entries too. Every [`FaultMode`] replaces a
//! whole chip's output pins with what [`FaultMode::present`] gives: valid
//! 0, valid 1 or the complemented valid rail, with data 0 in all three.
//! So the walk that lowers the wiring passes each chip output through its
//! chip's fault before the next gather reads it, and a faulted program
//! ([`StagedSwitch::faulted_program`]) is the healthy one's compiled
//! chips behind rebuilt gathers.

use std::sync::Arc;

use netlist::{lane_group, CompiledNetlist, EvalScratch};

use super::{PinSource, StageKind, StagedSwitch};
use crate::faults::{ChipFault, FaultMode};
use crate::hyper::Hyperconcentrator;

/// Pad blocks a stage buffer needs past its last real pair: a final lane
/// group of 8 may start with 5 real pairs, so at most 3 blocks are pad.
const GROUP_PAD: usize = 3;

/// The valid-rail source of one wire once pass-through stages are folded
/// in: a word of the current source frame block (its data-rail word is
/// one rail stride further on), a hardwired constant, or the valid rail
/// alone of a word that crossed an `Inverted` chip.
#[derive(Debug, Clone, Copy)]
enum Src {
    Word(u32),
    Const(bool),
    /// The valid rail reads `word`, complemented when `invert` holds; the
    /// data rail reads zero, since a failed pad carries no payload.
    Valid {
        word: u32,
        invert: bool,
    },
}

impl Src {
    /// What a chip output pin driven by `self` presents when its chip has
    /// `fault`: [`FaultMode::present`] as a gather source.
    fn present(self, fault: Option<FaultMode>) -> Src {
        match (fault, self) {
            (None, src) => src,
            (Some(FaultMode::StuckInvalid), _) => Src::Const(false),
            (Some(FaultMode::StuckValid), _) => Src::Const(true),
            (Some(FaultMode::Inverted), Src::Const(v)) => Src::Const(!v),
            (Some(FaultMode::Inverted), Src::Word(word)) => Src::Valid { word, invert: true },
            (Some(FaultMode::Inverted), Src::Valid { word, invert }) => Src::Valid {
                word,
                invert: !invert,
            },
        }
    }
}

/// How to fill one frame's destination words from one frame's source
/// words: `dst[k] = src[from[k]]`, then the constant words, then the
/// complemented ones.
#[derive(Debug)]
struct Gather {
    from: Vec<u32>,
    /// `(destination word, value)`: a `Const(v)` pad reads all ones on
    /// the valid rail when `v` holds and zero otherwise; on the data rail
    /// it always reads zero, since padding carries no payload.
    consts: Vec<(u32, u64)>,
    /// Destination words whose copied valid word is complemented.
    flips: Vec<u32>,
}

impl Gather {
    /// The gather for destination blocks of `width` pins each, valid rail
    /// then data rail, from valid-rail sources `srcs` in block order; a
    /// source's data-rail word is `stride` words after its valid one.
    fn new(srcs: &[Src], width: usize, stride: usize) -> Gather {
        let mut from = Vec::with_capacity(2 * srcs.len());
        let mut consts = Vec::new();
        let mut flips = Vec::new();
        for block in srcs.chunks(width) {
            for rail in 0..2 {
                for &src in block {
                    let at = from.len() as u32;
                    match src {
                        Src::Word(w) => from.push(w + (rail * stride) as u32),
                        Src::Valid { word, invert } if rail == 0 => {
                            if invert {
                                flips.push(at);
                            }
                            from.push(word);
                        }
                        Src::Valid { .. } => {
                            consts.push((at, 0));
                            from.push(0);
                        }
                        Src::Const(v) => {
                            let word = if v && rail == 0 { !0 } else { 0 };
                            consts.push((at, word));
                            from.push(0);
                        }
                    }
                }
            }
        }
        Gather {
            from,
            consts,
            flips,
        }
    }

    fn apply(&self, src: &[u64], dst: &mut [u64]) {
        for (d, &f) in dst.iter_mut().zip(&self.from) {
            *d = src[f as usize];
        }
        for &(at, word) in &self.consts {
            dst[at as usize] = word;
        }
        for &at in &self.flips {
            dst[at as usize] = !dst[at as usize];
        }
    }
}

/// One compactor stage: which chip type it runs, on how many chips, and
/// how each chip's input block is gathered.
#[derive(Debug)]
struct ChipStage {
    chip: usize,
    chip_count: usize,
    pins: usize,
    gather: Gather,
}

/// The datapath of a [`StagedSwitch`] as one compiled chip per distinct
/// chip type, swept across each stage's chips as lanes. The healthy
/// program is built once per switch and cached (see
/// [`StagedSwitch::datapath_program`]); a faulted one shares its compiled
/// chips (see [`StagedSwitch::faulted_program`]).
#[derive(Debug)]
pub struct ChipProgram {
    /// `(pins, compiled datapath chip)` per distinct chip type, shared by
    /// every program of the switch.
    chips: Arc<[(usize, CompiledNetlist)]>,
    stages: Vec<ChipStage>,
    /// Reads the `m` output valid words, then the `m` data words, off the
    /// last compactor stage's outputs (or the switch inputs).
    read: Gather,
    inputs: usize,
    outputs: usize,
}

/// Per-caller buffers of a [`ChipProgram`] sweep: the gathered chip input
/// blocks, the swept chip output blocks and one evaluation scratch per
/// chip type. Grown to the widest batch swept through it, never shrunk;
/// it serves every program of the switch that made it.
#[derive(Debug)]
pub struct ChipScratch {
    ins: Vec<u64>,
    outs: Vec<u64>,
    evals: Vec<EvalScratch>,
}

impl ChipProgram {
    /// Compile `switch`'s healthy datapath chip by chip: one
    /// [`Hyperconcentrator::build_datapath_netlist`] per distinct pin
    /// count, with the stages' wiring lowered to gather tables.
    pub(super) fn new(switch: &StagedSwitch) -> ChipProgram {
        let mut chips: Vec<(usize, CompiledNetlist)> = Vec::new();
        for stage in &switch.stages {
            let pins = stage.chip_pins;
            if stage.kind == StageKind::Compactor && chips.iter().all(|&(p, _)| p != pins) {
                let netlist = Hyperconcentrator::new(pins).build_datapath_netlist();
                chips.push((pins, netlist.compile()));
            }
        }
        ChipProgram::lower(switch, chips.into(), &[])
    }

    /// This program's compiled chips behind gathers that lower `faults`:
    /// O(wires), and nothing is compiled.
    pub(super) fn faulted(&self, switch: &StagedSwitch, faults: &[ChipFault]) -> ChipProgram {
        ChipProgram::lower(switch, Arc::clone(&self.chips), faults)
    }

    /// Lower `switch`'s wiring onto `chips`, passing every chip output
    /// through the first fault in `faults` that names its chip.
    ///
    /// # Panics
    /// If a fault names a stage or chip that does not exist.
    fn lower(
        switch: &StagedSwitch,
        chips: Arc<[(usize, CompiledNetlist)]>,
        faults: &[ChipFault],
    ) -> ChipProgram {
        let mut chip_faults: Vec<Vec<Option<FaultMode>>> = switch
            .stages
            .iter()
            .map(|stage| vec![None; stage.chip_count])
            .collect();
        for fault in faults {
            let stage = chip_faults
                .get_mut(fault.stage)
                .expect("fault names missing stage");
            let chip = stage.get_mut(fault.chip).expect("fault names missing chip");
            chip.get_or_insert(fault.mode);
        }
        let mut stages = Vec::new();
        // The source of every wire of the current wire vector, and the
        // rail stride of the block those sources index: the switch inputs
        // (valid rail, then data rail, `n` each) until a compactor runs.
        let mut wires: Vec<Src> = (0..switch.n).map(|i| Src::Word(i as u32)).collect();
        let mut stride = switch.n;
        for (stage, chip_faults) in switch.stages.iter().zip(&chip_faults) {
            let pins = stage.chip_pins;
            let srcs: Vec<Src> = stage
                .input_map
                .iter()
                .map(|src| match *src {
                    PinSource::Prev(i) => wires[i],
                    PinSource::Const(v) => Src::Const(v),
                })
                .collect();
            // What pin `k` of the stage (chip `k / pins`) drives before
            // its chip's fault.
            let outs: Vec<Src> = match stage.kind {
                StageKind::PassThrough => srcs,
                StageKind::Compactor => {
                    let chip = chips
                        .iter()
                        .position(|&(p, _)| p == pins)
                        .expect("every compactor pin count is compiled");
                    stages.push(ChipStage {
                        chip,
                        chip_count: stage.chip_count,
                        pins,
                        gather: Gather::new(&srcs, pins, stride),
                    });
                    stride = pins;
                    (0..srcs.len())
                        .map(|k| Src::Word((2 * pins * (k / pins) + k % pins) as u32))
                        .collect()
                }
            };
            let mut next = vec![Src::Const(false); stage.out_len];
            for (k, dst) in stage.output_map.iter().enumerate() {
                if let Some(dst) = *dst {
                    next[dst] = outs[k].present(chip_faults[k / pins]);
                }
            }
            wires = next;
        }
        let outs: Vec<Src> = switch.output_positions.iter().map(|&p| wires[p]).collect();
        ChipProgram {
            chips,
            stages,
            read: Gather::new(&outs, switch.m.max(1), stride),
            inputs: 2 * switch.n,
            outputs: 2 * switch.m,
        }
    }

    /// Words per input block: the `n` valid bits, then the `n` data bits.
    pub fn input_count(&self) -> usize {
        self.inputs
    }

    /// Words per output block: the `m` output valid bits, then the `m`
    /// data bits.
    pub fn output_count(&self) -> usize {
        self.outputs
    }

    /// Emulator instructions of the distinct chip programs, summed: what
    /// one chip sweep per chip type costs to stream.
    pub fn insn_count(&self) -> usize {
        self.chips.iter().map(|(_, c)| c.insn_count()).sum()
    }

    /// A fresh scratch for this program.
    pub fn scratch(&self) -> ChipScratch {
        ChipScratch {
            ins: Vec::new(),
            outs: Vec::new(),
            evals: self.chips.iter().map(|(_, c)| c.scratch()).collect(),
        }
    }

    /// Evaluate `lanes` one-word blocks: the layout contract of
    /// [`CompiledNetlist::eval_words_into`] on the flat datapath — word
    /// `k` of input `i` is `inputs[k * input_count + i]` and word `k` of
    /// output `o` lands in `out[k * output_count + o]` — for any `lanes`.
    ///
    /// Each stage gathers its `lanes × chip_count` (frame word, chip)
    /// pairs into chip input blocks, frame by frame and chip by chip, and
    /// sweeps them through the stage's chip program in [`lane_group`]
    /// steps.
    ///
    /// # Panics
    /// If a buffer has the wrong length or `scratch` was made by another
    /// program.
    pub fn sweep(&self, inputs: &[u64], lanes: usize, scratch: &mut ChipScratch, out: &mut [u64]) {
        assert_eq!(
            inputs.len(),
            lanes * self.inputs,
            "wrong number of input blocks"
        );
        assert_eq!(
            out.len(),
            lanes * self.outputs,
            "wrong number of output blocks"
        );
        assert_eq!(
            scratch.evals.len(),
            self.chips.len(),
            "scratch made by another program"
        );
        let ChipScratch { ins, outs, evals } = scratch;
        let need = self
            .stages
            .iter()
            .map(|s| (lanes * s.chip_count + GROUP_PAD) * 2 * s.pins)
            .max()
            .unwrap_or(0);
        if ins.len() < need {
            ins.resize(need, 0);
            outs.resize(need, 0);
        }
        let (mut src, mut src_frame): (&[u64], usize) = (inputs, self.inputs);
        for stage in &self.stages {
            let block = 2 * stage.pins;
            let frame = block * stage.chip_count;
            for l in 0..lanes {
                let dst = &mut ins[l * frame..(l + 1) * frame];
                stage
                    .gather
                    .apply(&src[l * src_frame..(l + 1) * src_frame], dst);
            }
            let pairs = lanes * stage.chip_count;
            let chip = &self.chips[stage.chip].1;
            let mut lo = 0;
            while lo < pairs {
                let lw = lane_group(pairs - lo);
                let words = lo * block..(lo + lw) * block;
                chip.eval_words_into(
                    &ins[words.clone()],
                    lw,
                    &mut evals[stage.chip],
                    &mut outs[words],
                );
                lo += lw;
            }
            (src, src_frame) = (outs.as_slice(), frame);
        }
        for l in 0..lanes {
            let dst = &mut out[l * self.outputs..(l + 1) * self.outputs];
            self.read
                .apply(&src[l * src_frame..(l + 1) * src_frame], dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Hyperconcentrator;
    use crate::columnsort_switch::ColumnsortSwitch;
    use crate::faults::{ChipFault, FaultMode};
    use crate::full_columnsort::FullColumnsortHyperconcentrator;
    use crate::full_revsort::FullRevsortHyperconcentrator;
    use crate::revsort_switch::{RevsortLayout, RevsortSwitch};
    use crate::spec::ConcentratorKind;
    use crate::staged::{sort_stage, Axis, StagedSwitch};
    use crate::verify::SplitMix64;

    /// `ChipProgram::sweep` must equal the flat datapath stream word for
    /// word on random valid and data words, for every lane count.
    fn assert_matches_flat(switch: &StagedSwitch, seed: u64) {
        let flat = switch.datapath_logic(false);
        let program = switch.datapath_program();
        let (ins, outs) = (program.input_count(), program.output_count());
        assert_eq!(
            (ins, outs),
            (flat.compiled.input_count(), flat.compiled.output_count())
        );
        let mut scratch = program.scratch();
        let mut flat_scratch = flat.compiled.scratch();
        let mut rng = SplitMix64(seed);
        for lanes in [1usize, 2, 3, 8, 9] {
            let inputs: Vec<u64> = (0..lanes * ins).map(|_| rng.next_u64()).collect();
            let mut want = vec![0u64; lanes * outs];
            for l in 0..lanes {
                flat.compiled.eval_word_into(
                    &inputs[l * ins..(l + 1) * ins],
                    &mut flat_scratch,
                    &mut want[l * outs..(l + 1) * outs],
                );
            }
            let mut got = vec![!0u64; lanes * outs];
            program.sweep(&inputs, lanes, &mut scratch, &mut got);
            assert_eq!(got, want, "{}: {lanes} lanes", switch.name);
        }
    }

    #[test]
    fn chip_program_matches_flat_datapath_on_every_family() {
        let switches = [
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
            RevsortSwitch::new(64, 32, RevsortLayout::TwoDee)
                .staged()
                .clone(),
            RevsortSwitch::new(256, 128, RevsortLayout::TwoDee)
                .staged()
                .clone(),
            RevsortSwitch::new(64, 48, RevsortLayout::ThreeDee)
                .staged()
                .clone(),
            ColumnsortSwitch::new(8, 4, 20).staged().clone(),
            FullRevsortHyperconcentrator::new(64).staged().clone(),
            FullColumnsortHyperconcentrator::new(32, 4).staged().clone(),
            two_chip_types(),
        ];
        for (seed, switch) in switches.iter().enumerate() {
            assert_matches_flat(switch, seed as u64);
        }
    }

    #[test]
    fn chip_types_are_compiled_once() {
        let chip_insns = |pins| {
            Hyperconcentrator::new(pins)
                .build_datapath_netlist()
                .compile()
                .insn_count()
        };
        // Three Revsort stages, one 32-pin chip program.
        let switch = RevsortSwitch::new(1024, 512, RevsortLayout::TwoDee);
        let program = switch.staged().datapath_program();
        assert_eq!(program.insn_count(), chip_insns(32));
        assert!(std::sync::Arc::ptr_eq(
            &program,
            &switch.staged().datapath_program()
        ));
        // A faulted program reuses the cached program's compiled chips.
        let fault = ChipFault {
            stage: 1,
            chip: 3,
            mode: FaultMode::Inverted,
        };
        let faulted = switch.staged().faulted_program(&[fault]);
        assert!(std::sync::Arc::ptr_eq(&program.chips, &faulted.chips));
        // An 8×2 grid sorted by columns, then by rows: two chip types.
        let two = two_chip_types().datapath_program();
        assert_eq!(two.insn_count(), chip_insns(8) + chip_insns(2));
    }

    /// Columns of 8 pins, then rows of 2, read off 10 of the 16 wires.
    fn two_chip_types() -> StagedSwitch {
        StagedSwitch::new(
            "8×2 columns then rows",
            16,
            10,
            ConcentratorKind::Partial { alpha: 0.5 },
            vec![
                sort_stage(8, 2, Axis::Columns, None, None, "cols"),
                sort_stage(8, 2, Axis::Rows, None, None, "rows"),
            ],
            (3..13).collect(),
        )
    }

    #[test]
    #[ignore = "release-mode differential at n = 4096; run with --release --ignored"]
    fn chip_program_matches_flat_datapath_at_4096() {
        let switch = RevsortSwitch::new(4096, 2048, RevsortLayout::TwoDee);
        assert_matches_flat(switch.staged(), 4096);
    }
}

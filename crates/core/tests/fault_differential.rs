//! Differential harness: the faulted chip program versus the
//! message-level [`FaultySwitch`] reference, bit for bit.
//!
//! The chip program lowers chip faults into its gather tables
//! ([`StagedSwitch::faulted_program`]) and sweeps 64 offered patterns per
//! lane word, as a faulted serving shard does. The reference applies the
//! same faults during slot propagation ([`FaultySwitch::trace`]). For
//! every output and every lane the two must agree on:
//!
//! * the **valid** bit (including phantom carriers from `StuckValid` /
//!   `Inverted` chips), and
//! * the **marker** bit `valid ∧ data` when the data rail carries the
//!   valid pattern — 1 exactly when the slot holds a *real* message
//!   (phantoms and padding carry data 0 through the fault lowering).
//!
//! Coverage: every single-chip fault exhaustively over all 2^16 input
//! patterns at n = 16, then 256+ seeded random (switch, fault-set) pairs
//! across sizes and every switch family, then a proptest sweep.

use concentrator::faults::{ChipFault, FaultMode, FaultySwitch};
use concentrator::full_columnsort::FullColumnsortHyperconcentrator;
use concentrator::full_revsort::FullRevsortHyperconcentrator;
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::staged::StageKind;
use concentrator::verify::SplitMix64;
use concentrator::{ChipProgram, ColumnsortSwitch, ConcentratorSwitch, StagedSwitch};
use proptest::prelude::*;

const MODES: [FaultMode; 3] = [
    FaultMode::StuckInvalid,
    FaultMode::StuckValid,
    FaultMode::Inverted,
];

/// Every (stage, chip) location in `switch`.
fn locations(switch: &StagedSwitch) -> Vec<(usize, usize)> {
    switch
        .stages
        .iter()
        .enumerate()
        .flat_map(|(s, stage)| (0..stage.chip_count).map(move |c| (s, c)))
        .collect()
}

/// Check the faulted chip program against the reference on one word of
/// 64 lane patterns (`words[i]` bit `b` = lane `b`'s valid bit for input
/// `i`). Returns the number of (lane, output) points compared.
fn check_word(switch: &StagedSwitch, faults: &[ChipFault], words: &[u64]) -> usize {
    let program = switch.faulted_program(faults);
    let reference = FaultySwitch::new(switch, faults.to_vec());
    check_word_against(switch, &program, &reference, faults, words)
}

/// [`check_word`] with the program and reference hoisted, for callers
/// sweeping many pattern words against one fault set.
fn check_word_against(
    switch: &StagedSwitch,
    program: &ChipProgram,
    reference: &FaultySwitch<&StagedSwitch>,
    faults: &[ChipFault],
    words: &[u64],
) -> usize {
    let n = switch.n;
    let m = switch.m;
    assert_eq!(words.len(), n);
    // Marker trick: the data rail carries the valid pattern, so every
    // real message carries marker 1 and everything else carries 0.
    let mut inputs = vec![0u64; 2 * n];
    inputs[..n].copy_from_slice(words);
    inputs[n..].copy_from_slice(words);
    let mut out = vec![0u64; 2 * m];
    program.sweep(&inputs, 1, &mut program.scratch(), &mut out);

    let mut points = 0;
    for lane in 0..64 {
        let valid: Vec<bool> = (0..n).map(|i| (words[i] >> lane) & 1 == 1).collect();
        let wires = reference.trace(&valid);
        for (j, &pos) in switch.output_positions.iter().enumerate() {
            let (ref_valid, ref_source) = wires[pos];
            let net_valid = (out[j] >> lane) & 1 == 1;
            let net_marker = net_valid && (out[m + j] >> lane) & 1 == 1;
            assert_eq!(
                net_valid, ref_valid,
                "valid mismatch at output {j}, lane {lane}, faults {faults:?}"
            );
            assert_eq!(
                net_marker,
                ref_valid && ref_source.is_some(),
                "real-message marker mismatch at output {j}, lane {lane}, faults {faults:?}"
            );
            points += 1;
        }
    }
    points
}

/// Exhaustive differential check at n = 16: every single-chip fault in
/// every mode, against *all* 2^16 offered patterns (1024 words of 64
/// lanes each).
#[test]
fn exhaustive_single_faults_at_n16() {
    let switch = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
    let staged = switch.staged();
    let mut points = 0usize;
    for (stage, chip) in locations(staged) {
        for mode in MODES {
            let fault = [ChipFault { stage, chip, mode }];
            let program = staged.faulted_program(&fault);
            let reference = FaultySwitch::new(staged, fault.to_vec());
            for chunk in 0..(1usize << 16) / 64 {
                let words: Vec<u64> = (0..16)
                    .map(|i| {
                        let mut w = 0u64;
                        for b in 0..64 {
                            if (chunk * 64 + b) >> i & 1 == 1 {
                                w |= 1 << b;
                            }
                        }
                        w
                    })
                    .collect();
                points += check_word_against(staged, &program, &reference, &fault, &words);
            }
        }
    }
    assert!(points > 0);
}

/// 256+ seeded random (switch, fault-set) pairs across sizes and every
/// switch family (Revsort 2-D and 3-D, Columnsort, full Revsort and full
/// Columnsort), multi-chip fault sets included.
#[test]
fn random_fault_sets_match_the_reference() {
    let revsort_16 = RevsortSwitch::new(16, 8, RevsortLayout::TwoDee);
    let revsort_64 = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
    let revsort_3d = RevsortSwitch::new(64, 32, RevsortLayout::ThreeDee);
    let columnsort = ColumnsortSwitch::new(16, 4, 12);
    let full_revsort = FullRevsortHyperconcentrator::new(64);
    let full_columnsort = FullColumnsortHyperconcentrator::new(32, 4);
    let switches: [&StagedSwitch; 6] = [
        revsort_16.staged(),
        revsort_64.staged(),
        revsort_3d.staged(),
        columnsort.staged(),
        full_revsort.staged(),
        full_columnsort.staged(),
    ];
    let mut rng = SplitMix64(0x0D1F_F5E7);
    let mut pairs = 0usize;
    while pairs < 260 {
        let switch = switches[(rng.next_u64() % switches.len() as u64) as usize];
        let locs = locations(switch);
        let count = 1 + (rng.next_u64() % 4) as usize;
        let faults: Vec<ChipFault> = (0..count)
            .map(|_| {
                let (stage, chip) = locs[(rng.next_u64() % locs.len() as u64) as usize];
                ChipFault {
                    stage,
                    chip,
                    mode: MODES[(rng.next_u64() % 3) as usize],
                }
            })
            .collect();
        let words: Vec<u64> = (0..switch.n).map(|_| rng.next_u64()).collect();
        check_word(switch, &faults, &words);
        pairs += 1;
    }
}

/// On the 3-D layout a barrel board reads a compactor chip's outputs
/// directly, so an `Inverted` board behind an `Inverted` chip complements
/// the valid rail twice and must still carry no payload; boards behind a
/// healthy or stuck chip are covered too.
#[test]
fn inversions_in_a_row_on_3d_boards() {
    let switch = RevsortSwitch::new(64, 32, RevsortLayout::ThreeDee);
    let staged = switch.staged();
    let board = staged
        .stages
        .iter()
        .position(|s| s.kind == StageKind::PassThrough)
        .expect("the 3-D layout has barrel boards");
    let whole_stage = |stage: usize, mode: FaultMode| {
        (0..staged.stages[stage].chip_count).map(move |chip| ChipFault { stage, chip, mode })
    };
    let mut rng = SplitMix64(0x3D);
    for before in [None, Some(FaultMode::Inverted), Some(FaultMode::StuckValid)] {
        for mode in MODES {
            let mut faults: Vec<ChipFault> = before
                .map(|m| whole_stage(board - 1, m).collect())
                .unwrap_or_default();
            // Every other board, so healthy boards sit beside faulted ones.
            faults.extend(whole_stage(board, mode).step_by(2));
            for _ in 0..4 {
                let words: Vec<u64> = (0..staged.n).map(|_| rng.next_u64()).collect();
                check_word(staged, &faults, &words);
            }
        }
    }
}

proptest! {
    /// Random fault sets on the 64-input switch: faulted chip program ≡
    /// reference on 64 random lanes per case.
    #[test]
    fn proptest_fault_compiled_matches_reference(
        seed in any::<u64>(),
        picks in proptest::collection::vec((any::<u64>(), 0usize..3), 1..4),
    ) {
        let switch = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let staged = switch.staged();
        let locs = locations(staged);
        let faults: Vec<ChipFault> = picks
            .iter()
            .map(|&(loc, mode)| {
                let (stage, chip) = locs[(loc % locs.len() as u64) as usize];
                ChipFault { stage, chip, mode: MODES[mode] }
            })
            .collect();
        let mut rng = SplitMix64(seed);
        let words: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        check_word(staged, &faults, &words);
    }

    /// Degradation monotonicity, per pattern: on a stage-0 fault set of
    /// silent chips, adding one more `StuckInvalid` fault never increases
    /// the delivered count (silencing a chip only removes messages, and
    /// the downstream compaction network is monotone).
    #[test]
    fn adding_a_silent_fault_never_helps(
        seed in any::<u64>(),
        base_chip in 0usize..8,
        extra_chip in 0usize..8,
    ) {
        let switch = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let staged = switch.staged();
        let base = vec![ChipFault {
            stage: 0,
            chip: base_chip,
            mode: FaultMode::StuckInvalid,
        }];
        let mut extended = base.clone();
        extended.push(ChipFault {
            stage: 0,
            chip: extra_chip,
            mode: FaultMode::StuckInvalid,
        });
        let with_base = FaultySwitch::new(staged, base);
        let with_extra = FaultySwitch::new(staged, extended);
        let mut rng = SplitMix64(seed);
        for _ in 0..16 {
            let valid = rng.valid_bits(64, 0.6);
            prop_assert!(
                with_extra.route(&valid).routed() <= with_base.route(&valid).routed(),
                "adding a StuckInvalid fault increased delivery"
            );
        }
    }

    /// `StuckValid` is never better than `StuckInvalid` on the same
    /// stage-0 chip: both lose the chip's real messages, but the flooding
    /// mode additionally injects phantom carriers that steal output slots
    /// from the survivors.
    #[test]
    fn flooding_is_never_better_than_silence(
        seed in any::<u64>(),
        chip in 0usize..8,
    ) {
        let switch = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let staged = switch.staged();
        let silent = FaultySwitch::new(
            staged,
            vec![ChipFault { stage: 0, chip, mode: FaultMode::StuckInvalid }],
        );
        let flooding = FaultySwitch::new(
            staged,
            vec![ChipFault { stage: 0, chip, mode: FaultMode::StuckValid }],
        );
        let mut rng = SplitMix64(seed);
        for _ in 0..16 {
            let valid = rng.valid_bits(64, 0.6);
            prop_assert!(
                flooding.route(&valid).routed() <= silent.route(&valid).routed(),
                "a flooding chip delivered more than a silent one"
            );
        }
    }
}

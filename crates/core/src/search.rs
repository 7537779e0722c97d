//! Adversarial search for worst-case valid-bit patterns.
//!
//! Random sampling under-estimates worst cases: the patterns that maximize
//! a nearsorter's dirty window are rare and structured. This module runs a
//! seeded stochastic hill climb (bit-flip neighborhood with restarts) on
//! any pattern objective — used by the theorem experiments to push the
//! measured ε toward the proven bound, and by tests to confirm the bounds
//! survive directed attack, not just random sampling.

use netlist::WORD_BITS;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::spec::ConcentratorSwitch;
use crate::staged::StagedSwitch;
use crate::verify::{ColumnSplits, Load, SplitMix64};

/// Result of a hill-climb campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchReport {
    /// The best objective value found.
    pub best_score: usize,
    /// A pattern achieving it.
    pub best_pattern: Vec<bool>,
    /// Objective evaluations performed.
    pub evaluations: usize,
}

/// Maximize `objective` over valid-bit patterns of length `n` by
/// first-improvement hill climbing with `restarts` random starts and up to
/// `steps` bit flips per start. Deterministic for a given seed; restarts
/// run in parallel.
pub fn hill_climb<F>(
    n: usize,
    restarts: usize,
    steps: usize,
    seed: u64,
    objective: F,
) -> SearchReport
where
    F: Fn(&[bool]) -> usize + Sync,
{
    let results: Vec<(usize, Vec<bool>, usize)> = (0..restarts)
        .into_par_iter()
        .map(|restart| {
            let mut rng = SplitMix64(seed ^ (restart as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            let density = 0.1 + 0.8 * (restart as f64 / restarts.max(1) as f64);
            let mut pattern = rng.valid_bits(n, density);
            let mut score = objective(&pattern);
            let mut evaluations = 1usize;
            for _ in 0..steps {
                let flip = (rng.next_u64() % n as u64) as usize;
                pattern[flip] = !pattern[flip];
                let candidate = objective(&pattern);
                evaluations += 1;
                if candidate >= score {
                    score = candidate; // accept ties to drift across plateaus
                } else {
                    pattern[flip] = !pattern[flip]; // revert
                }
            }
            (score, pattern, evaluations)
        })
        .collect();
    let evaluations = results.iter().map(|r| r.2).sum();
    let (best_score, best_pattern, _) = results
        .into_iter()
        .max_by_key(|r| r.0)
        .expect("at least one restart");
    SearchReport {
        best_score,
        best_pattern,
        evaluations,
    }
}

/// Maximize a *batched* objective by steepest-ascent hill climbing: each
/// round packs up to 64 single-bit-flip neighbors of the current pattern
/// into the lanes of one word per input wire and scores them all with a
/// single call. Built for compiled-netlist objectives, where one
/// [`CompiledNetlist::eval_word_into`](netlist::CompiledNetlist::eval_word_into)
/// sweep prices the whole neighborhood at roughly the cost the scalar
/// interpreter charges for one pattern.
///
/// The objective receives `n` words (bit `l` of word `r` is input wire
/// `r` of candidate `l`) and the candidate count `lanes` ≤ 64, and must
/// return one score per candidate; lanes past `lanes` read zero.
/// Deterministic for a given seed.
pub fn hill_climb_block<F>(
    n: usize,
    restarts: usize,
    rounds: usize,
    seed: u64,
    mut objective: F,
) -> SearchReport
where
    F: FnMut(&[u64], usize) -> Vec<usize>,
{
    assert!(n > 0 && restarts > 0, "need a non-trivial search space");
    let mut best_score = 0usize;
    let mut best_pattern = Vec::new();
    let mut evaluations = 0usize;
    let mut positions: Vec<usize> = (0..n).collect();
    let mut neighbors = vec![0u64; n];
    for restart in 0..restarts {
        let mut rng = SplitMix64(seed ^ (restart as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let density = 0.1 + 0.8 * (restart as f64 / restarts.max(1) as f64);
        let mut pattern = rng.valid_bits(n, density);
        let start: Vec<u64> = pattern.iter().map(|&bit| bit as u64).collect();
        let mut score = objective(&start, 1)[0];
        evaluations += 1;
        let lanes = n.min(WORD_BITS);
        for _ in 0..rounds {
            // Sample `lanes` distinct flip positions (partial Fisher-Yates).
            for i in 0..lanes {
                let j = i + (rng.next_u64() % (n - i) as u64) as usize;
                positions.swap(i, j);
            }
            let flips = &positions[..lanes];
            // Lane `l` holds the pattern with bit `flips[l]` flipped.
            let all_lanes = u64::MAX >> (WORD_BITS - lanes);
            for (word, &bit) in neighbors.iter_mut().zip(&pattern) {
                *word = if bit { all_lanes } else { 0 };
            }
            for (lane, &row) in flips.iter().enumerate() {
                neighbors[row] ^= 1 << lane;
            }
            let scores = objective(&neighbors, lanes);
            assert_eq!(scores.len(), lanes, "objective must score every lane");
            evaluations += lanes;
            let (lane, &candidate) = scores
                .iter()
                .enumerate()
                .max_by_key(|&(_, &s)| s)
                .expect("at least one lane");
            if candidate >= score {
                score = candidate; // accept ties to drift across plateaus
                pattern[flips[lane]] = !pattern[flips[lane]];
            }
        }
        if restart == 0 || score > best_score {
            best_score = score;
            best_pattern = pattern;
        }
    }
    SearchReport {
        best_score,
        best_pattern,
        evaluations,
    }
}

/// Directed attack on a staged switch's nearsortedness: maximize the
/// dirty-window ε of the final-stage wire vector, scoring 64 candidate
/// patterns per compiled sweep through the switch's cached trace netlist.
/// Each lane's ε comes in closed form from its packed output column, by
/// the scorer [`crate::verify::measure_epsilon`] uses.
pub fn epsilon_attack(
    switch: &StagedSwitch,
    restarts: usize,
    rounds: usize,
    seed: u64,
) -> SearchReport {
    let elab = switch.trace_logic(false);
    let compiled = &elab.compiled;
    let mut scratch = compiled.scratch();
    let mut out = vec![0u64; compiled.output_count()];
    let mut splits = ColumnSplits::default();
    hill_climb_block(switch.n, restarts, rounds, seed, |rows, lanes| {
        compiled.eval_word_into(rows, &mut scratch, &mut out);
        let mut scores = vec![0; lanes];
        splits.each(&out, lanes, |lane, split| scores[lane] = split.epsilon());
        scores
    })
}

/// Directed attack on a staged switch's concentration guarantee: maximize
/// messages *lost* among at-most-capacity offered loads, scoring 64
/// candidates per compiled sweep through the cached datapath netlist, by
/// the load scorer the compiled guarantee screens use. A correct switch
/// pins this objective at zero.
pub fn deficiency_attack(
    switch: &StagedSwitch,
    restarts: usize,
    rounds: usize,
    seed: u64,
) -> SearchReport {
    let elab = switch.datapath_logic(false);
    let compiled = &elab.compiled;
    let capacity = switch.guaranteed_capacity();
    let n = switch.n;
    let mut scratch = compiled.scratch();
    let mut fed = vec![0u64; 2 * n];
    let mut out = vec![0u64; compiled.output_count()];
    hill_climb_block(n, restarts, rounds, seed, |rows, lanes| {
        // Feed the valid bits on both the valid and data rails, so an
        // output carries a real message iff valid_out ∧ data_out.
        fed[..n].copy_from_slice(rows);
        fed[n..].copy_from_slice(rows);
        compiled.eval_word_into(&fed, &mut scratch, &mut out);
        let load = Load::of_word(&fed, &out);
        (0..lanes)
            .map(|lane| {
                let k = load.offered(lane);
                if k > capacity {
                    0 // outside the guarantee's precondition
                } else {
                    k - load.delivered(lane)
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revsort_switch::{RevsortLayout, RevsortSwitch};
    use crate::ColumnsortSwitch;
    use meshsort::{nearsort_epsilon, SortOrder};

    #[test]
    fn finds_the_all_ones_maximum_of_popcount() {
        let report = hill_climb(24, 4, 600, 1, |bits| bits.iter().filter(|&&b| b).count());
        assert_eq!(
            report.best_score, 24,
            "hill climb must solve the trivial objective"
        );
        assert!(report.evaluations > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = |bits: &[bool]| {
            bits.iter()
                .enumerate()
                .filter(|&(i, &b)| b && i % 3 == 0)
                .count()
        };
        let a = hill_climb(16, 3, 200, 9, f);
        let b = hill_climb(16, 3, 200, 9, f);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.best_pattern, b.best_pattern);
    }

    #[test]
    fn attack_on_columnsort_epsilon_stays_within_bound() {
        // Directed attack on the nearsorter; the proven bound must hold.
        let switch = ColumnsortSwitch::new(8, 4, 32);
        let report = hill_climb(32, 6, 400, 0xA77AC4, |valid| {
            let bits: Vec<bool> = switch
                .staged()
                .trace(valid)
                .iter()
                .map(|&(v, _)| v)
                .collect();
            nearsort_epsilon(&bits, SortOrder::Descending)
        });
        assert!(
            report.best_score <= switch.epsilon_bound(),
            "attack found ε = {} beyond the bound {}",
            report.best_score,
            switch.epsilon_bound()
        );
        // And it should do at least as well as a blind sample.
        assert!(report.best_score >= 1);
    }

    #[test]
    fn attack_on_revsort_deficiency_stays_within_guarantee() {
        let switch = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let capacity = switch.guaranteed_capacity();
        // Objective: messages lost among the first `capacity` offered.
        let report = hill_climb(64, 6, 400, 0xDEF1C17, |valid| {
            let k = valid.iter().filter(|&&v| v).count();
            if k > capacity {
                return 0; // outside the guarantee's precondition
            }
            let routing = switch.route(valid);
            k - routing.routed()
        });
        assert_eq!(
            report.best_score, 0,
            "directed attack dropped a message under guaranteed capacity"
        );
    }

    #[test]
    fn block_climb_finds_the_all_ones_maximum_of_popcount() {
        let report = hill_climb_block(24, 4, 40, 1, |rows, lanes| {
            (0..lanes)
                .map(|lane| rows.iter().filter(|&&row| row >> lane & 1 == 1).count())
                .collect()
        });
        assert_eq!(
            report.best_score, 24,
            "batched climb must solve the trivial objective"
        );
        assert!(report.evaluations > 0);
    }

    #[test]
    fn block_climb_deterministic_for_fixed_seed() {
        let f = |rows: &[u64], lanes: usize| -> Vec<usize> {
            (0..lanes)
                .map(|lane| {
                    (0..16)
                        .filter(|&r| rows[r] >> lane & 1 == 1 && r % 3 == 0)
                        .count()
                })
                .collect()
        };
        let a = hill_climb_block(16, 3, 30, 9, f);
        let b = hill_climb_block(16, 3, 30, 9, f);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.best_pattern, b.best_pattern);
    }

    #[test]
    fn compiled_epsilon_attack_stays_within_bound_and_bites() {
        let switch = ColumnsortSwitch::new(8, 4, 32);
        let report = epsilon_attack(switch.staged(), 4, 60, 0xA77AC4);
        assert!(
            report.best_score <= switch.epsilon_bound(),
            "attack found ε = {} beyond the bound {}",
            report.best_score,
            switch.epsilon_bound()
        );
        assert!(
            report.best_score >= 1,
            "attack should beat the all-sorted baseline"
        );
        // The batched score must agree with the scalar trace objective.
        let bits: Vec<bool> = switch
            .staged()
            .trace(&report.best_pattern)
            .iter()
            .map(|&(v, _)| v)
            .collect();
        assert_eq!(
            report.best_score,
            nearsort_epsilon(&bits, SortOrder::Descending)
        );
    }

    /// FNV-1a over a pattern's bits.
    fn fnv(bits: &[bool]) -> u64 {
        bits.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// The attacks' reports, pinned as the per-column scorers produced
    /// them: `(best_score, evaluations, pattern length, FNV of
    /// best_pattern)`.
    #[test]
    fn attack_reports_are_pinned() {
        let pin = |r: SearchReport| {
            (
                r.best_score,
                r.evaluations,
                r.best_pattern.len(),
                fnv(&r.best_pattern),
            )
        };
        let columnsort_8x4 = ColumnsortSwitch::new(8, 4, 32);
        let columnsort_24x4 = ColumnsortSwitch::new(24, 4, 48);
        let revsort_64_48 = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let revsort_64_64 = RevsortSwitch::new(64, 64, RevsortLayout::TwoDee);
        let revsort_256 = RevsortSwitch::new(256, 128, RevsortLayout::TwoDee);
        let cases = [
            (
                pin(epsilon_attack(columnsort_8x4.staged(), 4, 60, 0xA77AC4)),
                (9, 7684, 32, 0xd520_ec8c_55af_1b95),
            ),
            (
                pin(deficiency_attack(revsort_64_48.staged(), 4, 60, 0xDEF1C17)),
                (0, 15364, 64, 0x1781_7f88_36ff_1992),
            ),
            (
                pin(epsilon_attack(revsort_64_64.staged(), 4, 60, 0xA77AC4)),
                (17, 15364, 64, 0x60da_c7df_70f8_9d2c),
            ),
            (
                pin(epsilon_attack(columnsort_24x4.staged(), 4, 60, 0xA77AC4)),
                (9, 15364, 96, 0xab48_9d74_f398_f231),
            ),
            (
                pin(deficiency_attack(
                    columnsort_24x4.staged(),
                    4,
                    60,
                    0xDEF1C17,
                )),
                (0, 15364, 96, 0xb36a_3142_4379_1dfb),
            ),
            (
                pin(epsilon_attack(revsort_256.staged(), 3, 40, 0xA77AC4)),
                (41, 7683, 256, 0xf1f8_f7ab_8a9a_c44b),
            ),
            (
                pin(deficiency_attack(revsort_256.staged(), 3, 40, 0xDEF1C17)),
                (0, 7683, 256, 0x3e8f_d890_cec2_c9a5),
            ),
        ];
        for (i, (got, want)) in cases.into_iter().enumerate() {
            assert_eq!(got, want, "case {i}");
        }
    }

    #[test]
    fn compiled_deficiency_attack_stays_at_zero() {
        let switch = RevsortSwitch::new(64, 48, RevsortLayout::TwoDee);
        let report = deficiency_attack(switch.staged(), 4, 60, 0xDEF1C17);
        assert_eq!(
            report.best_score, 0,
            "compiled attack dropped a message under guaranteed capacity"
        );
    }
}

//! Mechanical verification of concentration guarantees: exhaustive checks
//! for small switches, seeded Monte Carlo plus structured adversarial
//! patterns for large ones, and empirical worst-case measurement of the
//! nearsortedness ε a switch actually achieves.
//!
//! Two evaluation paths exist. The generic functions ([`exhaustive_check`],
//! [`monte_carlo_check`]) route every pattern through
//! [`ConcentratorSwitch::route`] — the message-level functional model. The
//! `_compiled` variants and [`measure_epsilon`] are word-parallel end to
//! end: seeded patterns are drawn lane-major, one row word for 64 patterns
//! at a time (SplitMix64 is a pure function of trial and draw index, so
//! every lane's stream advances in step), 64 patterns per word sweep the
//! switch's cached compiled netlist ([`StagedSwitch::datapath_logic`],
//! [`StagedSwitch::trace_logic`]), and the results are scored from whole
//! words — bit-sliced lane counters for the guarantee screen, popcounts
//! and trailing-ones/leading-zeros runs of each output column
//! ([`CleanDirtySplit::from_words`]) for ε. Only screened-out suspects
//! ever reach the per-pattern `route()` path (solely to produce a rich
//! failure report).

use meshsort::CleanDirtySplit;
use netlist::{lane_group, transpose64, BitMatrix, CompiledNetlist, WORD_BITS};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::spec::{check_concentration, ConcentratorKind, ConcentratorSwitch};
use crate::staged::StagedSwitch;

/// Patterns per screening chunk: bounds peak matrix memory while keeping
/// whole words busy.
const SCREEN_CHUNK: usize = 2048;

/// Per-trial seed mixer and density grid of the Monte Carlo checks.
const SCREEN_MIX: u64 = 0xA24B_AED4_963E_E407;
const SCREEN_DENSITIES: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

/// Per-trial seed mixer and density grid of [`measure_epsilon`].
const EPSILON_MIX: u64 = 0x9FB2_1C65_1E98_DF25;
const EPSILON_DENSITIES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Patterns per [`measure_epsilon`] work unit: one 512-lane sweep.
const EPSILON_GROUP: usize = 8 * WORD_BITS;

/// SplitMix64's state increment: draw `k` (from 0) of `SplitMix64(s)` is
/// `splitmix_mix(s + (k + 1)·GAMMA)`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function.
#[inline(always)]
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic SplitMix64 — a tiny seeded generator so verification runs
/// are reproducible without threading an RNG type through the API.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        splitmix_mix(self.0)
    }

    /// A Bernoulli(`p`) draw.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// A valid-bit vector of length `n` with density `p`.
    pub fn valid_bits(&mut self, n: usize, p: f64) -> Vec<bool> {
        (0..n).map(|_| self.bernoulli(p)).collect()
    }
}

/// A failed check: the offending pattern and its violations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckFailure {
    /// The valid bits that broke the guarantee.
    pub pattern: Vec<bool>,
    /// Human-readable description of the violations.
    pub violations: Vec<String>,
}

/// Check every one of the `2^n` valid-bit patterns. Only call for small
/// `n` (≤ ~20). Parallelized with rayon.
pub fn exhaustive_check<S>(switch: &S) -> Result<(), CheckFailure>
where
    S: ConcentratorSwitch + Sync,
{
    let n = switch.inputs();
    assert!(
        n <= 24,
        "exhaustive check over 2^{n} patterns is infeasible"
    );
    (0u64..(1u64 << n))
        .into_par_iter()
        .map(|pattern| {
            let valid: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            let violations = check_concentration(switch, &valid);
            if violations.is_empty() {
                Ok(())
            } else {
                Err(CheckFailure {
                    pattern: valid,
                    violations: violations.iter().map(|v| format!("{v:?}")).collect(),
                })
            }
        })
        .find_map_first(|r| r.err())
        .map_or(Ok(()), Err)
}

/// Structured adversarial valid-bit patterns — the layouts known to
/// maximize dirty regions in mesh nearsorters (checkerboards, bit-reversal
/// stripes, half-split blocks, single-column floods).
pub fn adversarial_patterns(n: usize) -> Vec<Vec<bool>> {
    let side = (n as f64).sqrt() as usize;
    let mut patterns: Vec<Vec<bool>> = Vec::new();
    // Checkerboard and inverse.
    if side * side == n {
        for phase in 0..2 {
            patterns.push((0..n).map(|x| (x / side + x % side) % 2 == phase).collect());
        }
        // Alternating full rows.
        patterns.push((0..n).map(|x| (x / side).is_multiple_of(2)).collect());
        // Alternating full columns.
        patterns.push((0..n).map(|x| (x % side).is_multiple_of(2)).collect());
        // One column all valid.
        patterns.push((0..n).map(|x| x % side == 0).collect());
        // Lower-left triangle.
        patterns.push((0..n).map(|x| x % side <= x / side).collect());
    }
    // Halves and quarters.
    patterns.push((0..n).map(|x| x < n / 2).collect());
    patterns.push((0..n).map(|x| x >= n / 2).collect());
    patterns.push((0..n).map(|x| x % 4 == 0).collect());
    // Everything / nothing.
    patterns.push(vec![true; n]);
    patterns.push(vec![false; n]);
    patterns
}

/// Result of a randomized verification campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloReport {
    /// Patterns tried.
    pub trials: usize,
    /// Failures found (empty = guarantee held everywhere tested).
    pub failures: Vec<CheckFailure>,
}

/// Run `trials` random patterns (density swept over a grid) plus the
/// structured adversarial patterns through the switch's guarantee checker.
pub fn monte_carlo_check<S>(switch: &S, trials: usize, seed: u64) -> MonteCarloReport
where
    S: ConcentratorSwitch + Sync,
{
    let n = switch.inputs();
    let adversaries = adversarial_patterns(n);
    let mut failures: Vec<CheckFailure> = (0..trials)
        .into_par_iter()
        .filter_map(|t| {
            let mut rng = SplitMix64(seed ^ (t as u64).wrapping_mul(SCREEN_MIX));
            let p = SCREEN_DENSITIES[t % SCREEN_DENSITIES.len()];
            let valid = rng.valid_bits(n, p);
            let violations = check_concentration(switch, &valid);
            (!violations.is_empty()).then(|| CheckFailure {
                pattern: valid,
                violations: violations.iter().map(|v| format!("{v:?}")).collect(),
            })
        })
        .collect();
    let adversary_count = adversaries.len();
    for valid in adversaries {
        let violations = check_concentration(switch, &valid);
        if !violations.is_empty() {
            failures.push(CheckFailure {
                pattern: valid,
                violations: violations.iter().map(|v| format!("{v:?}")).collect(),
            });
        }
    }
    MonteCarloReport {
        trials: trials + adversary_count,
        failures,
    }
}

/// Bit-sliced vertical counter over 64 lanes: adding `j` one-bit words
/// leaves each lane's count readable across the planes. Turns "popcount of
/// one column per pattern" into a handful of word operations shared by all
/// 64 patterns of a word.
#[derive(Default)]
struct LaneCounts {
    planes: Vec<u64>,
}

impl LaneCounts {
    /// Add a one-bit addend to all 64 lanes (ripple-carry across planes).
    fn add(&mut self, word: u64) {
        let mut carry = word;
        for plane in &mut self.planes {
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
            if carry == 0 {
                return;
            }
        }
        if carry != 0 {
            self.planes.push(carry);
        }
    }

    /// The accumulated count in one lane.
    fn get(&self, lane: usize) -> usize {
        self.planes
            .iter()
            .enumerate()
            .map(|(i, p)| (((p >> lane) & 1) as usize) << i)
            .sum()
    }
}

/// Screen a block of valid-bit patterns (one per [`BitMatrix`] column)
/// against `switch`'s guarantee using one compiled datapath sweep. Returns
/// the column indices that *may* violate the guarantee; every column not
/// returned is proven clean.
///
/// The valid bits are fed on both the valid and the data rails, so an
/// output carries a *real* (non-padding) message exactly when its valid
/// and data bits are both set — padding constants carry data 0, and a
/// staged switch cannot route an invalid input by construction, so
/// phantom-message checks need no per-pattern work.
fn staged_screen(switch: &StagedSwitch, patterns: &BitMatrix) -> Vec<usize> {
    let n = switch.n;
    let m = switch.m;
    assert_eq!(patterns.rows(), n, "one row per switch input");
    let cap = switch.guaranteed_capacity();
    let hyper = matches!(switch.kind, ConcentratorKind::Hyperconcentrator);
    let elab = switch.datapath_logic(false);

    let vectors = patterns.vectors();
    let mut fed = BitMatrix::zeroed(2 * n, vectors);
    for r in 0..n {
        for w in 0..patterns.words_per_row() {
            let word = patterns.word(r, w);
            *fed.word_mut(r, w) = word;
            *fed.word_mut(n + r, w) = word;
        }
    }
    let out = elab.compiled.eval_matrix(&fed);

    let mut suspects = Vec::new();
    for w in 0..patterns.words_per_row() {
        let mut offered = LaneCounts::default();
        for r in 0..n {
            offered.add(patterns.word(r, w));
        }
        let mut routed = LaneCounts::default();
        // A hyperconcentrator's delivered set must be a prefix: flag any
        // lane where a silent output is followed by a carrying one.
        let mut prefix_break = 0u64;
        let mut prev_real = !0u64;
        for o in 0..m {
            let real = out.word(o, w) & out.word(m + o, w);
            routed.add(real);
            prefix_break |= !prev_real & real;
            prev_real = real;
        }
        let base = w * netlist::WORD_BITS;
        let lanes = netlist::WORD_BITS.min(vectors - base);
        for lane in 0..lanes {
            let k = offered.get(lane);
            let delivered = routed.get(lane);
            let mut bad = delivered < k.min(cap);
            if hyper {
                bad |= (prefix_break >> lane) & 1 == 1 || delivered != k.min(m);
            }
            if bad {
                suspects.push(base + lane);
            }
        }
    }
    suspects
}

/// The integer cutoff behind [`SplitMix64::bernoulli`]: for every `x`,
/// `x < bernoulli_threshold(p)` exactly when
/// `(x as f64 / u64::MAX as f64) < p`. The predicate is monotone in `x`,
/// so a binary search over `u64` finds the one cutoff that reproduces it
/// bit for bit, and the hot loop compares integers instead of converting
/// and dividing.
fn bernoulli_threshold(p: f64) -> u64 {
    let below = |x: u64| (x as f64 / u64::MAX as f64) < p;
    assert!(!below(u64::MAX), "density {p} accepts every draw");
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The generator body for 64 lanes: for each row word, advance every
/// lane's SplitMix64 state by one draw and set bit `j` when lane `j`'s
/// draw falls below its threshold. A lane with threshold 0 never sets its
/// bit. Written once and compiled for AVX2 and for AVX-512 ([`Fill`]);
/// the baseline target runs [`fill_rows_scalar`] instead.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn fill_rows_body(states: &mut [u64; WORD_BITS], thresholds: &[u64; WORD_BITS], rows: &mut [u64]) {
    for row in rows {
        let mut word = 0u64;
        for (j, (state, &threshold)) in states.iter_mut().zip(thresholds).enumerate() {
            *state = state.wrapping_add(GAMMA);
            word |= ((splitmix_mix(*state) < threshold) as u64) << j;
        }
        *row = word;
    }
}

/// The generator body for [`Fill::Portable`], in a shape the vectorizer
/// leaves alone. On the baseline target the shared body vectorizes to SSE2 and emulates
/// each 64-bit multiply from three `pmuludq`s, which is slower than
/// plain `imul`s. Here each lane's bit enters at the top of the word and
/// the word shifts right once per lane: a loop-carried recurrence that
/// is not a reduction, so the lane loop stays scalar. After all 64 lanes,
/// lane `j`'s bit has moved down to bit `j`, as in the shared body.
fn fill_rows_scalar(
    states: &mut [u64; WORD_BITS],
    thresholds: &[u64; WORD_BITS],
    rows: &mut [u64],
) {
    for row in rows {
        let mut word = 0u64;
        for (state, &threshold) in states.iter_mut().zip(thresholds) {
            *state = state.wrapping_add(GAMMA);
            word = word >> 1 | ((splitmix_mix(*state) < threshold) as u64) << (WORD_BITS - 1);
        }
        *row = word;
    }
}

/// Which pattern fill the generator runs, probed once per
/// [`PatternSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// The baseline target's code, kept scalar ([`fill_rows_scalar`]):
    /// it has no 64-bit vector multiply.
    Portable,
    /// AVX2: 4 lanes per vector, the multiplies emulated from 32-bit ones.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F/DQ: 8 lanes per vector with `vpmullq`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Fill {
    /// Every variant this target compiles, widest last.
    #[cfg(test)]
    const ALL: &'static [Fill] = &[
        Fill::Portable,
        #[cfg(target_arch = "x86_64")]
        Fill::Avx2,
        #[cfg(target_arch = "x86_64")]
        Fill::Avx512,
    ];

    /// The widest variant the running CPU supports. An x86 variant is
    /// used only after [`Fill::available`] approved it, here or in the
    /// test entry `PatternSource::with_fill`, so that check is what the
    /// `target_feature` contract of the kernels in `x86` relies on.
    fn detect() -> Fill {
        #[cfg(target_arch = "x86_64")]
        {
            if Fill::Avx512.available() {
                return Fill::Avx512;
            }
            if Fill::Avx2.available() {
                return Fill::Avx2;
            }
        }
        Fill::Portable
    }

    /// Whether the running CPU supports this variant.
    fn available(self) -> bool {
        match self {
            Fill::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Fill::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Fill::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
            }
        }
    }

    /// Run this variant's pattern fill.
    fn rows(self, states: &mut [u64; WORD_BITS], thresholds: &[u64; WORD_BITS], rows: &mut [u64]) {
        debug_assert!(self.available(), "{self:?} fill on a CPU without it");
        match self {
            Fill::Portable => fill_rows_scalar(states, thresholds, rows),
            // SAFETY: a `Fill::Avx2` exists only where `Fill::detect` or the
            // test entry `PatternSource::with_fill` saw
            // `is_x86_feature_detected!("avx2")` succeed on this CPU.
            #[cfg(target_arch = "x86_64")]
            Fill::Avx2 => unsafe { x86::fill_rows_avx2(states, thresholds, rows) },
            // SAFETY: a `Fill::Avx512` exists only where `Fill::detect` or
            // the test entry `PatternSource::with_fill` saw
            // `is_x86_feature_detected!` succeed for both "avx512f" and
            // "avx512dq" on this CPU.
            #[cfg(target_arch = "x86_64")]
            Fill::Avx512 => unsafe { x86::fill_rows_avx512(states, thresholds, rows) },
        }
    }
}

/// [`fill_rows_body`] compiled with wider instruction sets enabled.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{fill_rows_body, WORD_BITS};

    #[target_feature(enable = "avx2")]
    pub(super) fn fill_rows_avx2(
        states: &mut [u64; WORD_BITS],
        thresholds: &[u64; WORD_BITS],
        rows: &mut [u64],
    ) {
        fill_rows_body(states, thresholds, rows)
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn fill_rows_avx512(
        states: &mut [u64; WORD_BITS],
        thresholds: &[u64; WORD_BITS],
        rows: &mut [u64],
    ) {
        fill_rows_body(states, thresholds, rows)
    }
}

/// A seeded verification campaign's patterns. Pattern `t < trials` is
/// `SplitMix64(seed ^ t·mix).valid_bits(n, densities[t % densities.len()])`
/// — the same stream, drawn lane-major: draw `k` of trial `t` is
/// `splitmix_mix(seed ^ t·mix + (k+1)·GAMMA)`, a pure function of
/// `(t, k)`, so 64 trials' draws for row `k` come out as one word
/// against integer thresholds. The patterns after them are
/// [`adversarial_patterns`].
struct PatternSource {
    n: usize,
    trials: usize,
    seed: u64,
    mix: u64,
    thresholds: Vec<u64>,
    adversaries: Vec<Vec<bool>>,
    fill: Fill,
}

impl PatternSource {
    fn new(n: usize, trials: usize, seed: u64, mix: u64, densities: &[f64]) -> Self {
        PatternSource {
            n,
            trials,
            seed,
            mix,
            thresholds: densities.iter().map(|&p| bernoulli_threshold(p)).collect(),
            adversaries: adversarial_patterns(n),
            fill: Fill::detect(),
        }
    }

    /// The same source on the generator variant `fill`, which this CPU
    /// must support: the entry the generator tests use to run every
    /// variant.
    #[cfg(test)]
    fn with_fill(self, fill: Fill) -> Self {
        assert!(fill.available(), "{fill:?} fill on a CPU without it");
        PatternSource { fill, ..self }
    }

    /// Random trials plus adversarial patterns.
    fn total(&self) -> usize {
        self.trials + self.adversaries.len()
    }

    /// Patterns `first..first + lanes` (`lanes ≤ 64`) as one word per row:
    /// bit `j` of `rows[r]` is row `r` of pattern `first + j`. Lanes past
    /// `lanes` read zero.
    fn fill_word(&self, first: usize, lanes: usize, rows: &mut [u64]) {
        assert!(lanes <= WORD_BITS, "at most one word of lanes");
        assert_eq!(rows.len(), self.n, "one word per row");
        if first < self.trials {
            let mut states = [0u64; WORD_BITS];
            let mut thresholds = [0u64; WORD_BITS];
            for (j, t) in (first..self.trials.min(first + lanes)).enumerate() {
                states[j] = self.seed ^ (t as u64).wrapping_mul(self.mix);
                thresholds[j] = self.thresholds[t % self.thresholds.len()];
            }
            self.fill.rows(&mut states, &thresholds, rows);
        } else {
            rows.fill(0);
        }
        for t in first.max(self.trials)..first + lanes {
            let lane = t - first;
            for (row, &bit) in rows.iter_mut().zip(&self.adversaries[t - self.trials]) {
                *row |= (bit as u64) << lane;
            }
        }
    }

    /// Patterns `base..base + count`, one per column.
    fn block(&self, base: usize, count: usize) -> BitMatrix {
        let mut block = BitMatrix::zeroed(self.n, count);
        let mut rows = vec![0u64; self.n];
        for w in 0..block.words_per_row() {
            let first = base + w * WORD_BITS;
            self.fill_word(first, WORD_BITS.min(base + count - first), &mut rows);
            for (r, &word) in rows.iter().enumerate() {
                *block.word_mut(r, w) = word;
            }
        }
        block
    }
}

/// Bit `j` of lane mask `r` is bit `r` of `j`: row `r < 6` of any 64
/// consecutive patterns counting up from a multiple of 64.
const LANE_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Patterns `base..base + count` of the exhaustive enumeration (pattern
/// `v`'s row `r` is bit `r` of `v`), one per column, for a 64-aligned
/// `base`. Each row word is written in closed form: rows below 6 are the
/// [`LANE_MASKS`], and a higher row is constant across a word's 64 lanes.
fn counting_block(n: usize, base: u64, count: usize) -> BitMatrix {
    assert_eq!(base % WORD_BITS as u64, 0, "64-aligned block");
    let mut block = BitMatrix::zeroed(n, count);
    for w in 0..block.words_per_row() {
        let first = base + (w * WORD_BITS) as u64;
        let lanes = !0u64 >> (WORD_BITS - (count - w * WORD_BITS).min(WORD_BITS));
        for r in 0..n {
            let word = match LANE_MASKS.get(r) {
                Some(&mask) => mask,
                None => (first >> r & 1).wrapping_neg(),
            };
            *block.word_mut(r, w) = word & lanes;
        }
    }
    block
}

/// [`exhaustive_check`] over the compiled batch engine: all `2^n` patterns
/// stream through the cached compiled datapath netlist, 64 per word;
/// `route()` runs only on screened suspects to reconstruct the violation
/// report.
pub fn exhaustive_check_compiled(switch: &StagedSwitch) -> Result<(), CheckFailure> {
    let n = switch.n;
    assert!(
        n <= 24,
        "exhaustive check over 2^{n} patterns is infeasible"
    );
    let total = 1u64 << n;
    let mut base = 0u64;
    while base < total {
        let count = (SCREEN_CHUNK as u64).min(total - base) as usize;
        let block = counting_block(n, base, count);
        for suspect in staged_screen(switch, &block) {
            let valid = block.column(suspect);
            let violations = check_concentration(switch, &valid);
            if !violations.is_empty() {
                return Err(CheckFailure {
                    pattern: valid,
                    violations: violations.iter().map(|v| format!("{v:?}")).collect(),
                });
            }
        }
        base += count as u64;
    }
    Ok(())
}

/// [`monte_carlo_check`] over the compiled batch engine. Pattern generation
/// is identical (same seeds, densities, and adversarial suite), so reports
/// are comparable; only the evaluation strategy differs.
pub fn monte_carlo_check_compiled(
    switch: &StagedSwitch,
    trials: usize,
    seed: u64,
) -> MonteCarloReport {
    let source = PatternSource::new(switch.n, trials, seed, SCREEN_MIX, &SCREEN_DENSITIES);
    let total = source.total();
    let mut failures = Vec::new();
    let mut base = 0usize;
    while base < total {
        let count = SCREEN_CHUNK.min(total - base);
        let block = source.block(base, count);
        for suspect in staged_screen(switch, &block) {
            let valid = block.column(suspect);
            let violations = check_concentration(switch, &valid);
            if !violations.is_empty() {
                failures.push(CheckFailure {
                    pattern: valid,
                    violations: violations.iter().map(|v| format!("{v:?}")).collect(),
                });
            }
        }
        base += count;
    }
    MonteCarloReport {
        trials: total,
        failures,
    }
}

/// Empirical nearsortedness of a staged switch: the worst ε observed over
/// random and adversarial patterns, to compare against the proven bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpsilonReport {
    /// Patterns measured.
    pub trials: usize,
    /// Largest ε observed.
    pub worst_epsilon: usize,
    /// Largest dirty-window length observed.
    pub worst_dirty: usize,
}

/// Measure the ε the switch's *full wire vector* achieves (before the
/// output truncation to `m` wires), over `trials` seeded random patterns
/// (densities 0.1–0.9) plus the [`adversarial_patterns`].
///
/// Word-parallel end to end and spread over
/// [`std::thread::available_parallelism`] threads: each thread takes
/// 512-pattern groups in turn, draws each group lane-major straight into
/// the sweep's input words, sweeps it once through the cached compiled
/// full-trace netlist ([`StagedSwitch::trace_logic`], which agrees
/// gate-for-gate with the message-level [`StagedSwitch::trace`]), turns
/// each 64×64 output block into packed output columns ([`transpose64`]),
/// and scores them in closed form by [`CleanDirtySplit::from_words`] and
/// [`CleanDirtySplit::epsilon`] — equal to [`meshsort::nearsort_epsilon`]
/// on 0/1 sequences, without a sort. The report is a maximum over
/// patterns, so it does not depend on the thread count.
pub fn measure_epsilon(switch: &StagedSwitch, trials: usize, seed: u64) -> EpsilonReport {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    measure_epsilon_threads(switch, trials, seed, threads)
}

/// [`measure_epsilon`] on `threads` threads (at most one per group).
fn measure_epsilon_threads(
    switch: &StagedSwitch,
    trials: usize,
    seed: u64,
    threads: usize,
) -> EpsilonReport {
    let source = PatternSource::new(switch.n, trials, seed, EPSILON_MIX, &EPSILON_DENSITIES);
    let compiled = &switch.trace_logic(false).compiled;
    let groups = source.total().div_ceil(EPSILON_GROUP);
    let threads = threads.clamp(1, groups);
    let worst = |first: usize| worst_split(&source, compiled, (first..groups).step_by(threads));
    let (worst_epsilon, worst_dirty) = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads)
            .map(|t| scope.spawn(move || worst(t)))
            .collect();
        others
            .into_iter()
            .map(|h| h.join().expect("ε worker panicked"))
            .fold(worst(0), |a, b| (a.0.max(b.0), a.1.max(b.1)))
    });
    EpsilonReport {
        trials: source.total(),
        worst_epsilon,
        worst_dirty,
    }
}

/// The largest ε and dirty-window length over the pattern groups
/// `groups` of [`measure_epsilon`]. Each group is drawn into the
/// word-major input layout of [`CompiledNetlist::eval_words_into`] and
/// swept in one [`lane_group`] (the tail group's pad words, left over
/// from the previous group, are swept but not scored); the buffers serve
/// every group.
fn worst_split(
    source: &PatternSource,
    compiled: &CompiledNetlist,
    groups: impl Iterator<Item = usize>,
) -> (usize, usize) {
    let (ins, outs) = (compiled.input_count(), compiled.output_count());
    assert_eq!(ins, source.n, "one input per switch input");
    let cw = outs.div_ceil(WORD_BITS);
    let total = source.total();
    let mut scratch = compiled.scratch();
    let mut inputs = vec![0u64; 8 * ins];
    let mut out = vec![0u64; 8 * outs];
    let mut columns = vec![0u64; WORD_BITS * cw];
    let mut block = [0u64; WORD_BITS];
    let mut worst = (0, 0);
    for g in groups {
        let base = g * EPSILON_GROUP;
        let words = EPSILON_GROUP.min(total - base).div_ceil(WORD_BITS);
        let lw = lane_group(words);
        for (w, rows) in inputs.chunks_exact_mut(ins).take(words).enumerate() {
            let first = base + w * WORD_BITS;
            source.fill_word(first, WORD_BITS.min(total - first), rows);
        }
        compiled.eval_words_into(&inputs[..lw * ins], lw, &mut scratch, &mut out[..lw * outs]);
        for (w, word_out) in out.chunks_exact(outs).take(words).enumerate() {
            for (k, rows) in word_out.chunks(WORD_BITS).enumerate() {
                block[..rows.len()].copy_from_slice(rows);
                block[rows.len()..].fill(0);
                transpose64(&mut block);
                for (lane, &word) in block.iter().enumerate() {
                    columns[lane * cw + k] = word;
                }
            }
            let lanes = WORD_BITS.min(total - base - w * WORD_BITS);
            for column in columns.chunks_exact(cw).take(lanes) {
                let split = CleanDirtySplit::from_words(column, outs);
                worst = (worst.0.max(split.epsilon()), worst.1.max(split.dirty_len));
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnsort_switch::ColumnsortSwitch;
    use crate::hyper::Hyperconcentrator;
    use crate::revsort_switch::{RevsortLayout, RevsortSwitch};

    /// Pack boolean patterns (one per column) into a [`BitMatrix`], bit by
    /// bit: the reference for [`PatternSource::block`].
    fn pack_columns(n: usize, patterns: &[Vec<bool>]) -> BitMatrix {
        let mut m = BitMatrix::zeroed(n, patterns.len());
        for (v, pattern) in patterns.iter().enumerate() {
            assert_eq!(pattern.len(), n, "pattern length mismatch");
            for (r, &bit) in pattern.iter().enumerate() {
                if bit {
                    m.set(r, v, true);
                }
            }
        }
        m
    }

    /// Patterns `base..base + count` as the per-column verifier drew them:
    /// one `Vec<bool>` per pattern from f64 Bernoulli draws.
    fn reference_patterns(
        n: usize,
        trials: usize,
        seed: u64,
        mix: u64,
        densities: &[f64],
        range: std::ops::Range<usize>,
    ) -> Vec<Vec<bool>> {
        let adversaries = adversarial_patterns(n);
        range
            .map(|t| {
                if t < trials {
                    let mut rng = SplitMix64(seed ^ (t as u64).wrapping_mul(mix));
                    rng.valid_bits(n, densities[t % densities.len()])
                } else {
                    adversaries[t - trials].clone()
                }
            })
            .collect()
    }

    /// The per-column ε measurement: every output column is extracted bit
    /// by bit and scored by a stable sort. The oracle for
    /// [`measure_epsilon`].
    fn measure_epsilon_reference(switch: &StagedSwitch, trials: usize, seed: u64) -> EpsilonReport {
        let n = switch.n;
        let elab = switch.trace_logic(false);
        let total = trials + adversarial_patterns(n).len();
        let (mut worst_epsilon, mut worst_dirty) = (0usize, 0usize);
        let mut base = 0usize;
        while base < total {
            let count = SCREEN_CHUNK.min(total - base);
            let patterns = reference_patterns(
                n,
                trials,
                seed,
                EPSILON_MIX,
                &EPSILON_DENSITIES,
                base..base + count,
            );
            let out = elab.compiled.eval_matrix(&pack_columns(n, &patterns));
            for v in 0..count {
                let bits = out.column(v);
                let eps = meshsort::nearsort_epsilon(&bits, meshsort::SortOrder::Descending);
                let dirty = meshsort::clean_dirty_split(&bits).dirty_len;
                worst_epsilon = worst_epsilon.max(eps);
                worst_dirty = worst_dirty.max(dirty);
            }
            base += count;
        }
        EpsilonReport {
            trials: total,
            worst_epsilon,
            worst_dirty,
        }
    }

    /// [`monte_carlo_check_compiled`] over per-pattern `Vec<bool>`s packed
    /// bit by bit: its oracle.
    fn monte_carlo_check_compiled_reference(
        switch: &StagedSwitch,
        trials: usize,
        seed: u64,
    ) -> MonteCarloReport {
        let n = switch.n;
        let total = trials + adversarial_patterns(n).len();
        let mut failures = Vec::new();
        let mut base = 0usize;
        while base < total {
            let count = SCREEN_CHUNK.min(total - base);
            let patterns = reference_patterns(
                n,
                trials,
                seed,
                SCREEN_MIX,
                &SCREEN_DENSITIES,
                base..base + count,
            );
            for suspect in staged_screen(switch, &pack_columns(n, &patterns)) {
                let valid = patterns[suspect].clone();
                let violations = check_concentration(switch, &valid);
                if !violations.is_empty() {
                    failures.push(CheckFailure {
                        pattern: valid,
                        violations: violations.iter().map(|v| format!("{v:?}")).collect(),
                    });
                }
            }
            base += count;
        }
        MonteCarloReport {
            trials: total,
            failures,
        }
    }

    /// The 4-to-2 switch that reads its outputs off the *highest* pins: the
    /// compactor pushes messages to low pins, so any single message is
    /// dropped under capacity.
    fn broken_read_off() -> StagedSwitch {
        use crate::staged::{sort_stage, Axis};
        let stage = sort_stage(4, 1, Axis::Columns, None, None, "col");
        StagedSwitch::new(
            "broken read-off",
            4,
            2,
            crate::spec::ConcentratorKind::Partial { alpha: 1.0 },
            vec![stage],
            vec![2, 3],
        )
    }

    /// The oracle cases: Revsort 16→12, 64→64, 256→128 and 1024→512, and
    /// Columnsort 4×4, 24×4 (n = 96, not a multiple of 64) and 32×4, with
    /// trial counts that keep the large ones quick in debug builds.
    fn oracle_switches() -> Vec<(StagedSwitch, usize)> {
        vec![
            (
                RevsortSwitch::new(16, 12, RevsortLayout::TwoDee)
                    .staged()
                    .clone(),
                2100,
            ),
            (
                RevsortSwitch::new(64, 64, RevsortLayout::TwoDee)
                    .staged()
                    .clone(),
                300,
            ),
            (
                RevsortSwitch::new(256, 128, RevsortLayout::TwoDee)
                    .staged()
                    .clone(),
                150,
            ),
            (
                RevsortSwitch::new(1024, 512, RevsortLayout::TwoDee)
                    .staged()
                    .clone(),
                70,
            ),
            (ColumnsortSwitch::new(4, 4, 12).staged().clone(), 300),
            (ColumnsortSwitch::new(24, 4, 64).staged().clone(), 300),
            (ColumnsortSwitch::new(32, 4, 96).staged().clone(), 300),
        ]
    }

    const ORACLE_SEEDS: [u64; 4] = [1, 2, 3, 101];

    #[test]
    fn measure_epsilon_equals_the_per_column_reference() {
        for (switch, trials) in oracle_switches() {
            for seed in ORACLE_SEEDS {
                assert_eq!(
                    measure_epsilon(&switch, trials, seed),
                    measure_epsilon_reference(&switch, trials, seed),
                    "{} n={} seed {seed}",
                    switch.name,
                    switch.n
                );
            }
        }
    }

    #[test]
    fn compiled_monte_carlo_equals_the_per_column_reference() {
        let mut cases = oracle_switches();
        cases.push((broken_read_off(), 150));
        for (switch, trials) in cases {
            for seed in ORACLE_SEEDS {
                let fast = monte_carlo_check_compiled(&switch, trials, seed);
                let reference = monte_carlo_check_compiled_reference(&switch, trials, seed);
                let what = format!("{} n={} seed {seed}", switch.name, switch.n);
                assert_eq!(fast.trials, reference.trials, "{what}");
                assert_eq!(fast.failures.len(), reference.failures.len(), "{what}");
                for (a, b) in fast.failures.iter().zip(&reference.failures) {
                    assert_eq!(a.pattern, b.pattern, "{what}");
                    assert_eq!(a.violations, b.violations, "{what}");
                }
            }
        }
    }

    #[test]
    fn integer_thresholds_reproduce_the_f64_bernoulli_predicate() {
        let densities = EPSILON_DENSITIES.iter().chain(&SCREEN_DENSITIES);
        let cases: Vec<(f64, u64)> = densities.map(|&p| (p, bernoulli_threshold(p))).collect();
        for &(p, t) in &cases {
            let below = |x: u64| (x as f64 / u64::MAX as f64) < p;
            for x in [t - 1, t, t + 1, 0, u64::MAX] {
                assert_eq!(x < t, below(x), "p = {p}, x = {x:#x}, t = {t:#x}");
            }
        }
        // On random draws, against `bernoulli` itself: each copy of the
        // generator sees the same next draw `x`.
        let mut rng = SplitMix64(0x7E57);
        for _ in 0..1_000_000 {
            let copy = rng;
            let x = rng.next_u64();
            for &(p, t) in &cases {
                assert_eq!(x < t, { copy }.bernoulli(p), "p = {p}, x = {x:#x}");
            }
        }
    }

    #[test]
    fn pattern_blocks_equal_packed_valid_bits() {
        let skipped: Vec<_> = Fill::ALL.iter().filter(|f| !f.available()).collect();
        if !skipped.is_empty() {
            eprintln!("pattern fills this CPU cannot run, skipped: {skipped:?}");
        }
        for &fill in Fill::ALL.iter().filter(|f| f.available()) {
            for (mix, densities) in [
                (EPSILON_MIX, &EPSILON_DENSITIES),
                (SCREEN_MIX, &SCREEN_DENSITIES),
            ] {
                for n in [1usize, 16, 63, 64, 65, 96, 130] {
                    let trials = 150;
                    let source =
                        PatternSource::new(n, trials, 0xC0FFEE, mix, densities).with_fill(fill);
                    let total = source.total();
                    for (base, count) in [
                        (0, total),
                        (37, 100),
                        (64, 64),
                        (120, 35),
                        (140, total - 140),
                        (150, total - 150),
                    ] {
                        let block = source.block(base, count);
                        assert!(block.tail_is_clear());
                        let patterns = reference_patterns(
                            n,
                            trials,
                            0xC0FFEE,
                            mix,
                            densities,
                            base..base + count,
                        );
                        assert_eq!(
                            block,
                            pack_columns(n, &patterns),
                            "{fill:?} n={n} mix {mix:#x} patterns {base}+{count}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn epsilon_is_independent_of_threads_and_group_boundaries() {
        for (switch, _) in oracle_switches() {
            for trials in [0, 1, 511, 512, 513, 5000] {
                let reference = measure_epsilon_reference(&switch, trials, 7);
                for threads in [1, 2, 3] {
                    assert_eq!(
                        measure_epsilon_threads(&switch, trials, 7, threads),
                        reference,
                        "{} n={} trials {trials} threads {threads}",
                        switch.name,
                        switch.n
                    );
                }
            }
        }
    }

    #[test]
    fn counting_blocks_equal_the_enumeration() {
        for n in [1usize, 3, 6, 7, 12] {
            let total = 1u64 << n;
            for (base, count) in [(0, total.min(2048)), (64, 100), (128, 64), (192, 1)] {
                if base + count > total {
                    continue;
                }
                let count = count as usize;
                assert_eq!(
                    counting_block(n, base, count),
                    BitMatrix::from_fn(n, count, |row, v| (base + v as u64) >> row & 1 == 1),
                    "n={n} patterns {base}+{count}"
                );
            }
        }
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn exhaustive_check_passes_for_hyperconcentrator() {
        let h = Hyperconcentrator::new(12);
        assert!(exhaustive_check(&h).is_ok());
    }

    #[test]
    fn monte_carlo_passes_for_revsort_switch() {
        let switch = RevsortSwitch::new(64, 40, RevsortLayout::TwoDee);
        let report = monte_carlo_check(&switch, 500, 7);
        assert!(report.failures.is_empty(), "{:?}", report.failures.first());
    }

    #[test]
    fn measured_epsilon_within_proven_bound() {
        let switch = RevsortSwitch::new(64, 64, RevsortLayout::TwoDee);
        let report = measure_epsilon(switch.staged(), 500, 3);
        assert!(
            report.worst_epsilon <= switch.epsilon_bound(),
            "measured ε {} exceeds proven bound {}",
            report.worst_epsilon,
            switch.epsilon_bound()
        );
    }

    #[test]
    fn adversarial_patterns_cover_square_layouts() {
        let patterns = adversarial_patterns(16);
        assert!(patterns.len() >= 10);
        assert!(patterns.iter().all(|p| p.len() == 16));
    }

    #[test]
    fn compiled_monte_carlo_matches_routed_monte_carlo() {
        let switch = RevsortSwitch::new(64, 40, RevsortLayout::TwoDee);
        let legacy = monte_carlo_check(&switch, 300, 7);
        let compiled = monte_carlo_check_compiled(switch.staged(), 300, 7);
        assert_eq!(compiled.trials, legacy.trials);
        assert_eq!(compiled.failures.len(), legacy.failures.len());
        assert!(
            compiled.failures.is_empty(),
            "{:?}",
            compiled.failures.first()
        );
    }

    #[test]
    fn compiled_exhaustive_matches_routed_exhaustive_on_small_switch() {
        use crate::columnsort_switch::ColumnsortSwitch;
        let switch = ColumnsortSwitch::new(4, 4, 12);
        assert!(exhaustive_check(switch.staged()).is_ok());
        assert!(exhaustive_check_compiled(switch.staged()).is_ok());
    }

    #[test]
    fn compiled_exhaustive_covers_hyperconcentrator_prefix_property() {
        // Full-Columnsort staged switches make the Hyperconcentrator
        // guarantee and contain ±∞ padding constants — the case the
        // valid∧data real-message mask exists for.
        use crate::full_columnsort::FullColumnsortHyperconcentrator;
        let switch = FullColumnsortHyperconcentrator::new(4, 2);
        assert!(exhaustive_check_compiled(switch.staged()).is_ok());
    }

    #[test]
    fn compiled_screen_catches_broken_switches() {
        let broken = broken_read_off();
        let report = monte_carlo_check_compiled(&broken, 100, 11);
        assert!(
            !report.failures.is_empty(),
            "screen must flag dropped messages"
        );
        let legacy = monte_carlo_check(&broken, 100, 11);
        assert_eq!(report.failures.len(), legacy.failures.len());
        assert!(exhaustive_check_compiled(&broken).is_err());
    }
}

//! Sortedness and nearsortedness metrics (§3 of the paper).
//!
//! A sequence is *ε-nearsorted* if each element is within ε positions of
//! where it belongs in the fully sorted sequence; for sequences with
//! duplicates we take the assignment of equal elements that minimizes the
//! maximum displacement, which a stable sort realizes.

use serde::{Deserialize, Serialize};

use crate::grid::{Grid, SortOrder};

/// The minimal ε such that `values` is ε-nearsorted with respect to the
/// fully sorted sequence in direction `order`.
///
/// A fully sorted sequence yields 0. The example of §3 —
/// "5, 3, 6, 1, 4, 2 is 2-nearsorted" — yields 2:
///
/// ```
/// use meshsort::{nearsort_epsilon, SortOrder};
/// assert_eq!(nearsort_epsilon(&[5, 3, 6, 1, 4, 2], SortOrder::Descending), 2);
/// assert_eq!(nearsort_epsilon(&[6, 5, 4, 3, 2, 1], SortOrder::Descending), 0);
/// ```
pub fn nearsort_epsilon<T: Ord>(values: &[T], order: SortOrder) -> usize {
    // Stable-sort the source positions by value; position t of that ranking
    // is where the element belongs in the fully sorted sequence, and stable
    // matching of duplicates minimizes the max displacement.
    let mut ranked: Vec<usize> = (0..values.len()).collect();
    match order {
        SortOrder::Ascending => ranked.sort_by(|&a, &b| values[a].cmp(&values[b])),
        SortOrder::Descending => ranked.sort_by(|&a, &b| values[b].cmp(&values[a])),
    }
    ranked
        .iter()
        .enumerate()
        .map(|(target, &source)| target.abs_diff(source))
        .max()
        .unwrap_or(0)
}

/// Decomposition of a 0/1 sequence per Lemma 1 / Figure 1: a clean prefix of
/// 1s, a dirty window, and a clean suffix of 0s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleanDirtySplit {
    /// Length of the leading run of 1s.
    pub clean_ones: usize,
    /// Start index of the dirty window (== `clean_ones`).
    pub dirty_start: usize,
    /// Length of the dirty window (0 when fully sorted).
    pub dirty_len: usize,
    /// Length of the trailing run of 0s.
    pub clean_zeros: usize,
    /// Total number of 1s in the sequence (`k` in the paper).
    pub ones: usize,
}

impl CleanDirtySplit {
    /// Check Lemma 1's characterization for a claimed ε: clean prefix
    /// ≥ k − ε, dirty window ≤ 2ε, clean suffix ≥ n − k − ε.
    pub fn satisfies_lemma1(&self, n: usize, epsilon: usize) -> bool {
        self.clean_ones + epsilon >= self.ones
            && self.dirty_len <= 2 * epsilon
            && self.clean_zeros + self.ones + epsilon >= n
    }

    /// The decomposition of the `n`-bit 0/1 sequence packed in `words`:
    /// element `i` is bit `i % 64` of `words[i / 64]`, and bits past `n`
    /// are ignored. Equal to [`clean_dirty_split`] of the unpacked
    /// sequence, from popcounts, trailing ones and leading zeros.
    pub fn from_words(words: &[u64], n: usize) -> Self {
        let words = &words[..n.div_ceil(64)];
        let last = words.len().wrapping_sub(1);
        // Element count of word `i`, and its bits with the tail masked off.
        let width = |i: usize| if i == last { n - 64 * i } else { 64 };
        let bits = |i: usize| match width(i) {
            64 => words[i],
            w => words[i] & ((1u64 << w) - 1),
        };
        let ones = (0..words.len())
            .map(|i| bits(i).count_ones() as usize)
            .sum();
        let mut clean_ones = 0;
        for i in 0..words.len() {
            let run = bits(i).trailing_ones() as usize;
            clean_ones += run;
            if run < 64 {
                break;
            }
        }
        let mut clean_zeros = 0;
        for i in (0..words.len()).rev() {
            let run = bits(i).leading_zeros() as usize - (64 - width(i));
            clean_zeros += run;
            if run < width(i) {
                break;
            }
        }
        CleanDirtySplit {
            clean_ones,
            dirty_start: clean_ones,
            dirty_len: n.saturating_sub(clean_ones + clean_zeros),
            clean_zeros,
            ones,
        }
    }

    /// The sequence's ε in closed form, equal to
    /// `nearsort_epsilon(bits, SortOrder::Descending)`. Under the stable
    /// matching, the i-th 1 moves right by the number of 0s before it,
    /// which is largest for the last 1: `(n − clean_zeros) − ones`. The
    /// j-th 0 moves left by the number of 1s after it, which is largest
    /// for the first 0: `ones − clean_ones`.
    pub fn epsilon(&self) -> usize {
        let last_one_end = self.clean_ones + self.dirty_len; // n − clean_zeros
        last_one_end
            .saturating_sub(self.ones)
            .max(self.ones.saturating_sub(self.clean_ones))
    }
}

/// Compute the clean/dirty decomposition of a 0/1 sequence.
pub fn clean_dirty_split(bits: &[bool]) -> CleanDirtySplit {
    let n = bits.len();
    let ones = bits.iter().filter(|&&b| b).count();
    let clean_ones = bits.iter().take_while(|&&b| b).count();
    let clean_zeros = bits.iter().rev().take_while(|&&b| !b).count();
    let dirty_len = n.saturating_sub(clean_ones + clean_zeros);
    CleanDirtySplit {
        clean_ones,
        dirty_start: clean_ones,
        dirty_len,
        clean_zeros,
        ones,
    }
}

/// Clean/dirty row structure of a 0/1 grid: `(clean 1-rows on top,
/// dirty rows, clean 0-rows at the bottom)`.
///
/// This is the quantity bounded by Theorem 3's proof: after Algorithm 1 the
/// matrix has "only clean rows of 1's at the top, clean rows of 0's at the
/// bottom, and at most 2⌈n^{1/4}⌉ − 1 dirty rows in the middle".
pub fn dirty_row_band(grid: &Grid<bool>) -> (usize, usize, usize) {
    let all_ones = |row: &[bool]| row.iter().all(|&b| b);
    let all_zeros = |row: &[bool]| row.iter().all(|&b| !b);
    let mut top = 0usize;
    while top < grid.rows() && all_ones(grid.row(top)) {
        top += 1;
    }
    let mut bottom = 0usize;
    while bottom < grid.rows() - top && all_zeros(grid.row(grid.rows() - 1 - bottom)) {
        bottom += 1;
    }
    let dirty = grid.rows() - top - bottom;
    (top, dirty, bottom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_zero_for_sorted() {
        assert_eq!(nearsort_epsilon(&[9, 7, 7, 1], SortOrder::Descending), 0);
        assert_eq!(nearsort_epsilon(&[1, 2, 3], SortOrder::Ascending), 0);
        assert_eq!(nearsort_epsilon::<u32>(&[], SortOrder::Descending), 0);
    }

    #[test]
    fn epsilon_paper_example() {
        // §3: "5, 3, 6, 1, 4, 2 is 2-nearsorted".
        assert_eq!(
            nearsort_epsilon(&[5, 3, 6, 1, 4, 2], SortOrder::Descending),
            2
        );
    }

    #[test]
    fn epsilon_reversed_sequence_is_maximal() {
        assert_eq!(nearsort_epsilon(&[1, 2, 3, 4], SortOrder::Descending), 3);
    }

    #[test]
    fn epsilon_duplicates_use_stable_matching() {
        // [1, 1, 0, 1]: ones at 0,1,3 belong at 0,1,2; zero at 2 belongs
        // at 3. Max displacement 1.
        let bits = [true, true, false, true];
        assert_eq!(nearsort_epsilon(&bits, SortOrder::Descending), 1);
    }

    #[test]
    fn clean_dirty_split_cases() {
        let s = clean_dirty_split(&[true, true, false, true, false, false]);
        assert_eq!(s.clean_ones, 2);
        assert_eq!(s.dirty_start, 2);
        assert_eq!(s.dirty_len, 2);
        assert_eq!(s.clean_zeros, 2);
        assert_eq!(s.ones, 3);

        let sorted = clean_dirty_split(&[true, false, false]);
        assert_eq!(sorted.dirty_len, 0);

        let all_ones = clean_dirty_split(&[true, true]);
        assert_eq!(all_ones.clean_ones, 2);
        assert_eq!(all_ones.dirty_len, 0);
        assert_eq!(all_ones.clean_zeros, 0);

        let all_zeros = clean_dirty_split(&[false, false]);
        assert_eq!(all_zeros.clean_zeros, 2);
        assert_eq!(all_zeros.dirty_len, 0);
    }

    #[test]
    fn from_words_pins_the_degenerate_sequences() {
        let empty = CleanDirtySplit::from_words(&[], 0);
        assert_eq!(empty, clean_dirty_split(&[]));
        assert_eq!(empty.epsilon(), 0);
        for n in [1usize, 63, 64, 65, 128, 130] {
            let all_ones = CleanDirtySplit::from_words(&vec![!0u64; n.div_ceil(64)], n);
            assert_eq!(all_ones, clean_dirty_split(&vec![true; n]), "{n} ones");
            assert_eq!((all_ones.clean_ones, all_ones.epsilon()), (n, 0));
            let all_zeros = CleanDirtySplit::from_words(&vec![0u64; n.div_ceil(64)], n);
            assert_eq!(all_zeros, clean_dirty_split(&vec![false; n]), "{n} zeros");
            assert_eq!((all_zeros.clean_zeros, all_zeros.epsilon()), (n, 0));
        }
    }

    #[test]
    fn from_words_matches_the_reference_on_the_worked_cases() {
        // [1, 1, 0, 1, 0, 0] packs to 0b001011.
        let split = CleanDirtySplit::from_words(&[0b001011 | !0u64 << 6], 6);
        assert_eq!(
            split,
            clean_dirty_split(&[true, true, false, true, false, false])
        );
        assert_eq!(split.epsilon(), 1);
        // Reversed [0, 0, 0, 1]: the lone 1 moves three places.
        let split = CleanDirtySplit::from_words(&[0b1000], 4);
        assert_eq!(split.epsilon(), 3);
        assert_eq!(
            split.epsilon(),
            nearsort_epsilon(&[false, false, false, true], SortOrder::Descending)
        );
    }

    #[test]
    fn lemma1_forward_direction() {
        // An ε-nearsorted 0/1 sequence satisfies the decomposition bounds.
        let bits = [true, true, false, true, false, false];
        let eps = nearsort_epsilon(&bits, SortOrder::Descending);
        let split = clean_dirty_split(&bits);
        assert!(split.satisfies_lemma1(bits.len(), eps));
    }

    #[test]
    fn dirty_row_band_structure() {
        let g = Grid::from_row_major(
            4,
            2,
            vec![true, true, true, false, false, true, false, false],
        );
        assert_eq!(dirty_row_band(&g), (1, 2, 1));

        let clean = Grid::from_row_major(2, 2, vec![true, true, false, false]);
        assert_eq!(dirty_row_band(&clean), (1, 0, 1));

        let all1 = Grid::filled(3, 2, true);
        assert_eq!(dirty_row_band(&all1), (3, 0, 0));

        let all0 = Grid::filled(3, 2, false);
        assert_eq!(dirty_row_band(&all0), (0, 0, 3));
    }
}

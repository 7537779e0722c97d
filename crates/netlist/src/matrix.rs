//! Row-major bit matrices, the batch format of
//! [`crate::CompiledNetlist::eval_matrix`], and the 64×64 bit transpose
//! that turns a swept word of signals into per-vector columns.

/// Transpose a 64×64 bit block in place: afterwards bit `j` of `block[i]`
/// is what bit `i` of `block[j]` was. Swaps ever smaller off-diagonal
/// sub-blocks (32, 16, …, 1 bits wide), so it costs 6·32 masked word
/// swaps instead of 4096 bit moves. Applying it twice is the identity.
///
/// On 64 signals' words of one 64-vector lane word it yields each
/// vector's bits packed 64 signals per word: how the ε scorer turns a
/// swept word of output signals into one packed output column per
/// vector.
pub fn transpose64(block: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((block[k] >> width) ^ block[k + width]) & mask;
            block[k] ^= t << width;
            block[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// A rows × vectors bit matrix: `rows` signals, each carrying `vectors`
/// independent boolean test patterns packed 64 per machine word.
///
/// Row-major storage: row `r` occupies `words_per_row` consecutive words,
/// vector `j` living in word `j / 64` bit `j % 64`. Inputs to
/// [`crate::CompiledNetlist::eval_matrix`] use one row per primary input;
/// outputs come back with one row per primary output.
///
/// **Tail invariant:** lanes past `vectors` in the final word of every row
/// are always zero. Construction maintains it, every emulator sweep
/// re-masks before returning, and [`BitMatrix::tail_is_clear`] checks it,
/// so `count_ones`-style reductions over row words are exact even when
/// wide lane groups (256/512 lanes) sweep garbage into the tail word
/// mid-evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    vectors: usize,
    words: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// All-zero matrix carrying `vectors` patterns over `rows` signals.
    pub fn zeroed(rows: usize, vectors: usize) -> Self {
        let words = vectors.div_ceil(crate::eval::WORD_BITS);
        BitMatrix {
            rows,
            vectors,
            words,
            data: vec![0u64; rows * words],
        }
    }

    /// Build from a per-bit function: `f(row, vector)`.
    pub fn from_fn(rows: usize, vectors: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = BitMatrix::zeroed(rows, vectors);
        for r in 0..rows {
            for v in 0..vectors {
                if f(r, v) {
                    m.set(r, v, true);
                }
            }
        }
        debug_assert!(m.tail_is_clear());
        m
    }

    /// Number of signal rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of test vectors (columns).
    #[inline]
    pub fn vectors(&self) -> usize {
        self.vectors
    }

    /// Words per row (`⌈vectors/64⌉`).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// Bit of `row` in test vector `vector`.
    #[inline]
    pub fn get(&self, row: usize, vector: usize) -> bool {
        assert!(
            row < self.rows && vector < self.vectors,
            "bit matrix index out of range"
        );
        let w = self.data[row * self.words + vector / 64];
        (w >> (vector % 64)) & 1 == 1
    }

    /// Set the bit of `row` in test vector `vector`.
    #[inline]
    pub fn set(&mut self, row: usize, vector: usize, value: bool) {
        assert!(
            row < self.rows && vector < self.vectors,
            "bit matrix index out of range"
        );
        let slot = &mut self.data[row * self.words + vector / 64];
        let mask = 1u64 << (vector % 64);
        if value {
            *slot |= mask;
        } else {
            *slot &= !mask;
        }
    }

    /// The `w`-th 64-lane word of `row`.
    #[inline]
    pub fn word(&self, row: usize, w: usize) -> u64 {
        self.data[row * self.words + w]
    }

    /// Mutable access to the `w`-th 64-lane word of `row`.
    #[inline]
    pub fn word_mut(&mut self, row: usize, w: usize) -> &mut u64 {
        &mut self.data[row * self.words + w]
    }

    /// The words of one row.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        &self.data[row * self.words..(row + 1) * self.words]
    }

    /// Extract test vector `vector` as one bit per row.
    pub fn column(&self, vector: usize) -> Vec<bool> {
        (0..self.rows).map(|r| self.get(r, vector)).collect()
    }

    /// Count set bits in `row` across all vectors.
    pub fn row_popcount(&self, row: usize) -> usize {
        self.row_words(row)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Whether every lane past `vectors` in the final word of every row is
    /// zero — the invariant that makes row popcounts exact. Sweeps restore
    /// it via an internal `mask_tail` pass before returning a result matrix.
    pub fn tail_is_clear(&self) -> bool {
        let used = self.vectors % 64;
        if used == 0 || self.words == 0 {
            return true;
        }
        let mask = (1u64 << used) - 1;
        (0..self.rows).all(|r| self.data[r * self.words + self.words - 1] & !mask == 0)
    }

    /// Zero the lanes past `vectors` in the final word of every row, so
    /// popcounts never see garbage from inverted or constant signals.
    pub(crate) fn mask_tail(&mut self) {
        let used = self.vectors % 64;
        if used == 0 || self.words == 0 {
            return;
        }
        let mask = (1u64 << used) - 1;
        for r in 0..self.rows {
            self.data[r * self.words + self.words - 1] &= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_matrix_set_get_round_trip() {
        let mut m = BitMatrix::zeroed(2, 130);
        m.set(0, 0, true);
        m.set(0, 129, true);
        m.set(1, 64, true);
        assert!(m.get(0, 0) && m.get(0, 129) && m.get(1, 64));
        assert!(!m.get(0, 1) && !m.get(1, 0));
        assert_eq!(m.row_popcount(0), 2);
        m.set(0, 129, false);
        assert_eq!(m.row_popcount(0), 1);
        assert_eq!(m.words_per_row(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_matrix_get_bounds_checked() {
        BitMatrix::zeroed(1, 64).get(0, 64);
    }

    #[test]
    fn from_fn_keeps_the_tail_clear() {
        for vectors in [1usize, 63, 64, 65, 127, 130, 511, 513] {
            let m = BitMatrix::from_fn(3, vectors, |_, _| true);
            assert!(m.tail_is_clear(), "{vectors} vectors");
            for r in 0..3 {
                assert_eq!(m.row_popcount(r), vectors, "{vectors} vectors");
            }
        }
    }

    #[test]
    fn transpose64_is_an_involution_and_a_transpose() {
        let mut block = [0u64; 64];
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        for word in &mut block {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *word = state;
        }
        let original = block;
        transpose64(&mut block);
        for (i, &row) in block.iter().enumerate() {
            for (j, &source) in original.iter().enumerate() {
                assert_eq!(row >> j & 1, source >> i & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn mask_tail_clears_injected_garbage() {
        let mut m = BitMatrix::zeroed(2, 70);
        // Simulate a wide sweep writing a full tail word.
        *m.word_mut(0, 1) = !0u64;
        *m.word_mut(1, 1) = !0u64;
        assert!(!m.tail_is_clear());
        m.mask_tail();
        assert!(m.tail_is_clear());
        assert_eq!(m.row_popcount(0), 6);
        // In-range lanes survive masking.
        assert!(m.get(0, 64) && m.get(0, 69));
    }
}

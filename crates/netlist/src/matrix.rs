//! Multi-vector bit matrices: the data the batch emulator sweeps over.

use crate::eval::WORD_BITS;

/// Transpose a 64×64 bit block in place: afterwards bit `j` of `block[i]`
/// is what bit `i` of `block[j]` was. Swaps ever smaller off-diagonal
/// sub-blocks (32, 16, …, 1 bits wide), so it costs 6·32 masked word
/// swaps instead of 4096 bit moves. Applying it twice is the identity.
///
/// On 64 signals' words of one 64-vector lane word it yields each
/// vector's bits packed 64 signals per word: the step behind
/// [`BitMatrix::read_lane_columns`], for callers that hold lane words
/// outside a matrix.
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

    /// Words per lane column (`⌈rows/64⌉`): the length of one test
    /// vector packed 64 rows per word, as the lane view reads it.
    #[inline]
    pub fn column_words(&self) -> usize {
        self.rows.div_ceil(WORD_BITS)
    }

    /// The lane view of word `w`: for each of its 64 lanes (test vectors
    /// `64w..64w + 64`), that vector's bits packed 64 rows per word.
    /// `columns[lane * cw + k]` receives rows `64k..64k + 64` of the lane,
    /// where `cw` is [`Self::column_words`]; row `64k + b` lands in bit
    /// `b`. Bits past the last row, and lanes past the last vector, read
    /// as zero. One 64×64 transpose per `cw`, instead of 64·rows bit reads.
    pub fn read_lane_columns(&self, w: usize, columns: &mut [u64]) {
        let cw = self.column_words();
        assert!(w < self.words, "word {w} out of range");
        assert_eq!(columns.len(), WORD_BITS * cw, "one column per lane");
        let mut block = [0u64; WORD_BITS];
        for k in 0..cw {
            let rows = k * WORD_BITS..self.rows.min((k + 1) * WORD_BITS);
            block.fill(0);
            for (slot, r) in block.iter_mut().zip(rows) {
                *slot = self.data[r * self.words + w];
            }
            transpose64(&mut block);
            for (lane, &word) in block.iter().enumerate() {
                columns[lane * cw + k] = word;
            }
        }
    }

    /// Apply `f` to every test vector's column words (see
    /// [`Self::read_lane_columns`]), in vector order.
    pub fn map_lane_columns<T>(&self, mut f: impl FnMut(&[u64]) -> T) -> Vec<T> {
        let cw = self.column_words();
        if cw == 0 {
            return (0..self.vectors).map(|_| f(&[])).collect();
        }
        let mut columns = vec![0u64; WORD_BITS * cw];
        let mut out = Vec::with_capacity(self.vectors);
        for w in 0..self.words {
            self.read_lane_columns(w, &mut columns);
            let lanes = WORD_BITS.min(self.vectors - w * WORD_BITS);
            out.extend(columns.chunks_exact(cw).take(lanes).map(&mut f));
        }
        out
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

    /// A deterministic, bit-dense filler for the lane-view tests.
    fn scrambled(rows: usize, vectors: usize) -> BitMatrix {
        BitMatrix::from_fn(rows, vectors, |r, v| {
            let x = (r as u64 * 0x9E37_79B9 + v as u64 * 0x85EB_CA6B) ^ (r * v) as u64;
            x.wrapping_mul(0xC2B2_AE35) >> 61 & 1 == 1
        })
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
    fn lane_columns_agree_with_column() {
        for rows in [1usize, 63, 64, 65, 130] {
            for vectors in [1usize, 63, 64, 65, 130] {
                let m = scrambled(rows, vectors);
                let cw = m.column_words();
                let mut columns = vec![0u64; 64 * cw];
                for w in 0..m.words_per_row() {
                    m.read_lane_columns(w, &mut columns);
                    for lane in 0..64 {
                        let v = w * 64 + lane;
                        let got: Vec<bool> = (0..64 * cw)
                            .map(|r| columns[lane * cw + r / 64] >> (r % 64) & 1 == 1)
                            .collect();
                        let want: Vec<bool> = (0..64 * cw)
                            .map(|r| v < vectors && r < rows && m.get(r, v))
                            .collect();
                        assert_eq!(got, want, "{rows} rows, {vectors} vectors, lane {v}");
                    }
                }
                let mapped = m.map_lane_columns(|c| c.to_vec());
                assert_eq!(mapped.len(), vectors);
                for (v, c) in mapped.iter().enumerate() {
                    let bits: Vec<bool> =
                        (0..rows).map(|r| c[r / 64] >> (r % 64) & 1 == 1).collect();
                    assert_eq!(bits, m.column(v), "{rows} rows, vector {v}");
                }
            }
        }
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

//! Property-based tests for the mesh sorting algorithms and permutation
//! machinery.

use meshsort::{
    clean_dirty_split, cm_to_rm_permutation, columnsort_full, columnsort_steps123, compose,
    dirty_row_band, identity_permutation, invert, is_permutation, nearsort_epsilon, rev_bits,
    revsort_algorithm1, revsort_full, rm_to_cm_permutation, row_reversal_permutation, shearsort,
    CleanDirtySplit, ColumnsortShape, Grid, ShearsortSchedule, SortOrder,
};
use proptest::prelude::*;

fn bit_grid(rows: usize, cols: usize, seed: u64) -> Grid<bool> {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect();
    Grid::from_row_major(rows, cols, data)
}

proptest! {
    /// Revsort Algorithm 1 preserves the multiset and meets the dirty-row
    /// bound on power-of-two square grids.
    #[test]
    fn algorithm1_dirty_row_bound(side_exp in 1u32..5, seed in any::<u64>()) {
        let side = 1usize << side_exp;
        let n = side * side;
        let mut grid = bit_grid(side, side, seed);
        let ones = grid.count_ones();
        revsort_algorithm1(&mut grid, SortOrder::Descending);
        prop_assert_eq!(grid.count_ones(), ones);
        let bound = 2 * (n as f64).powf(0.25).ceil() as usize - 1;
        let (_, dirty, _) = dirty_row_band(&grid);
        prop_assert!(dirty <= bound, "dirty {dirty} > bound {bound} at n={n}");
    }

    /// Full Revsort sorts completely in row-major order.
    #[test]
    fn revsort_full_sorts(side_exp in 1u32..5, seed in any::<u64>()) {
        let side = 1usize << side_exp;
        let mut grid = bit_grid(side, side, seed);
        let ones = grid.count_ones();
        revsort_full(&mut grid, SortOrder::Descending);
        prop_assert!(SortOrder::Descending.is_sorted(grid.as_row_major()));
        prop_assert_eq!(grid.count_ones(), ones);
    }

    /// Columnsort steps 1-3 meet the (s−1)² bound on row-major reading.
    #[test]
    fn columnsort_nearsort_bound(
        shape_idx in 0usize..5,
        seed in any::<u64>(),
    ) {
        let (r, s) = [(8usize, 2usize), (8, 4), (16, 4), (12, 3), (32, 8)][shape_idx];
        let shape = ColumnsortShape::new(r, s);
        let mut grid = bit_grid(r, s, seed);
        columnsort_steps123(&mut grid, SortOrder::Descending);
        let eps = nearsort_epsilon(grid.as_row_major(), SortOrder::Descending);
        prop_assert!(eps <= shape.nearsort_bound());
    }

    /// Full Columnsort sorts in column-major order whenever the shape
    /// conditions hold; both directions.
    #[test]
    fn columnsort_full_sorts(
        shape_idx in 0usize..4,
        seed in any::<u64>(),
        descending in any::<bool>(),
    ) {
        let (r, s) = [(8usize, 2usize), (9, 3), (32, 4), (18, 3)][shape_idx];
        let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
        let mut grid = bit_grid(r, s, seed);
        columnsort_full(&mut grid, order);
        prop_assert!(order.is_sorted(&grid.to_column_major()));
    }

    /// Shearsort's full schedule sorts any 0/1 grid (and hence, by the 0-1
    /// principle, any grid) in row-major order.
    #[test]
    fn shearsort_full_schedule_sorts(
        rows in 2usize..10,
        cols in 2usize..10,
        seed in any::<u64>(),
    ) {
        let mut grid = bit_grid(rows, cols, seed);
        shearsort(&mut grid, SortOrder::Descending, ShearsortSchedule::full_sort(rows));
        prop_assert!(SortOrder::Descending.is_sorted(grid.as_row_major()));
    }

    /// ε = 0 iff the sequence is fully sorted; ε < n always.
    #[test]
    fn epsilon_extremes(values in proptest::collection::vec(0u8..4, 1..60)) {
        let eps = nearsort_epsilon(&values, SortOrder::Descending);
        prop_assert!(values.is_empty() || eps < values.len());
        let sorted = SortOrder::Descending.is_sorted(&values);
        prop_assert_eq!(eps == 0, sorted);
    }

    /// Lemma 1 decomposition bounds hold for the measured ε.
    #[test]
    fn lemma1_holds(bits in proptest::collection::vec(any::<bool>(), 1..120)) {
        let eps = nearsort_epsilon(&bits, SortOrder::Descending);
        let split = clean_dirty_split(&bits);
        prop_assert!(split.satisfies_lemma1(bits.len(), eps));
    }

    /// The packed decomposition equals the per-element one, and its closed
    /// form ε equals the stable-sort ε, across word boundaries.
    #[test]
    fn packed_split_matches_per_element_split(bits in proptest::collection::vec(any::<bool>(), 0..301)) {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        // Bits past the end must be ignored.
        if bits.len() % 64 != 0 {
            *words.last_mut().unwrap() |= !0u64 << (bits.len() % 64);
        }
        let split = CleanDirtySplit::from_words(&words, bits.len());
        prop_assert_eq!(split, clean_dirty_split(&bits));
        prop_assert_eq!(split.epsilon(), nearsort_epsilon(&bits, SortOrder::Descending));
    }

    /// Permutation algebra: compose(p, invert(p)) is the identity, and all
    /// the wiring constructors produce genuine permutations.
    #[test]
    fn wiring_permutation_laws(rows in 1usize..9, cols in 1usize..9) {
        let n = rows * cols;
        for p in [
            cm_to_rm_permutation(rows, cols),
            rm_to_cm_permutation(rows, cols),
            row_reversal_permutation(rows, cols),
        ] {
            prop_assert!(is_permutation(&p));
            prop_assert_eq!(compose(&p, &invert(&p)), identity_permutation(n));
        }
        // Row reversal is an involution.
        let rr = row_reversal_permutation(rows, cols);
        prop_assert_eq!(compose(&rr, &rr), identity_permutation(n));
    }

    /// rev_bits is an involution and preserves range.
    #[test]
    fn rev_bits_involution(q in 1u32..10, frac in 0.0f64..1.0) {
        let max = 1usize << q;
        let i = ((frac * max as f64) as usize).min(max - 1);
        let r = rev_bits(i, q);
        prop_assert!(r < max);
        prop_assert_eq!(rev_bits(r, q), i);
    }

    /// Sorting a grid's rows then columns never un-sorts the columns
    /// (the classic exercise underpinning all these algorithms): after a
    /// row sort followed by a column sort, columns are sorted AND rows
    /// remain sorted.
    #[test]
    fn row_then_column_sort_keeps_rows_sorted(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut grid = bit_grid(rows, cols, seed);
        grid.sort_rows(SortOrder::Descending);
        grid.sort_columns(SortOrder::Descending);
        for row in 0..rows {
            prop_assert!(SortOrder::Descending.is_sorted(grid.row(row)));
        }
    }
}

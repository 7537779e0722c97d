//! Property-based tests for the concentrator constructions.

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::spec::{check_concentration, ConcentratorSwitch};
use concentrator::{ColumnsortSwitch, FullColumnsortHyperconcentrator, Hyperconcentrator};
use proptest::prelude::*;

fn bits_from_seed(n: usize, seed: u64) -> Vec<bool> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect()
}

proptest! {
    /// The hyperconcentrator netlist equals the functional model for
    /// arbitrary sizes (not only powers of two).
    #[test]
    fn chip_netlist_equals_model(n in 1usize..24, seed in any::<u64>()) {
        let chip = Hyperconcentrator::new(n);
        let nl = chip.build_netlist(false);
        let valid = bits_from_seed(n, seed);
        prop_assert_eq!(nl.eval(&valid), chip.concentrate(&valid));
    }

    /// The chip's data-path netlist routes every message's data bit to the
    /// slot the routing assigned.
    #[test]
    fn chip_datapath_follows_routing(n in 2usize..16, seed in any::<u64>()) {
        let chip = Hyperconcentrator::new(n);
        let nl = chip.build_datapath_netlist();
        let valid = bits_from_seed(n, seed);
        let data: Vec<bool> = (0..n).map(|i| valid[i] && i % 3 == 0).collect();
        let mut inputs = valid.clone();
        inputs.extend(&data);
        let out = nl.eval(&inputs);
        let (_, dout) = out.split_at(n);
        let routing = chip.route(&valid);
        for (input, slot) in routing.assignment.iter().enumerate() {
            if let Some(out_idx) = slot {
                prop_assert_eq!(dout[*out_idx], data[input]);
            }
        }
    }

    /// Folding the switch netlist (which contains constants in the padded
    /// Columnsort stage) preserves the function and sheds gates.
    #[test]
    fn folded_full_columnsort_netlist_equivalent(seed in any::<u64>()) {
        let switch = FullColumnsortHyperconcentrator::new(8, 2);
        let nl = switch.staged().build_netlist(false);
        let folded = nl.fold_constants();
        prop_assert!(folded.area_report().gates < nl.area_report().gates,
            "padding constants must fold away some logic");
        let valid = bits_from_seed(16, seed);
        prop_assert_eq!(folded.eval(&valid), nl.eval(&valid));
    }

    /// Both Revsort layouts agree on every pattern.
    #[test]
    fn revsort_layouts_agree(seed in any::<u64>()) {
        let two = RevsortSwitch::new(64, 40, RevsortLayout::TwoDee);
        let three = RevsortSwitch::new(64, 40, RevsortLayout::ThreeDee);
        let valid = bits_from_seed(64, seed);
        prop_assert_eq!(two.route(&valid), three.route(&valid));
    }

    /// The guarantee holds across random m at n = 64 for both designs.
    #[test]
    fn guarantees_hold_for_random_m(m in 1usize..=64, seed in any::<u64>()) {
        let valid = bits_from_seed(64, seed);
        let revsort = RevsortSwitch::new(64, m, RevsortLayout::TwoDee);
        prop_assert!(check_concentration(&revsort, &valid).is_empty());
        let columnsort = ColumnsortSwitch::new(16, 4, m);
        prop_assert!(check_concentration(&columnsort, &valid).is_empty());
    }

    /// Capacity accounting: the exact integer override equals m − ε.
    #[test]
    fn capacity_is_exact(m in 1usize..=64) {
        let switch = ColumnsortSwitch::new(16, 4, m);
        prop_assert_eq!(
            switch.guaranteed_capacity(),
            m.saturating_sub(switch.epsilon_bound())
        );
        let revsort = RevsortSwitch::new(64, m, RevsortLayout::TwoDee);
        prop_assert_eq!(
            revsort.guaranteed_capacity(),
            m.saturating_sub(revsort.epsilon_bound())
        );
    }

    /// Output valid bits of the staged switches are monotone in the
    /// inputs (compaction networks are monotone circuits), hence delivery
    /// counts are monotone too.
    #[test]
    fn outputs_are_monotone(seed in any::<u64>(), flip in 0usize..64) {
        let switch = RevsortSwitch::new(64, 64, RevsortLayout::TwoDee);
        let mut valid = bits_from_seed(64, seed);
        valid[flip] = false;
        let before: Vec<bool> =
            switch.staged().trace(&valid).iter().map(|&(v, _)| v).collect();
        valid[flip] = true;
        let after: Vec<bool> =
            switch.staged().trace(&valid).iter().map(|&(v, _)| v).collect();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(!b || *a, "output fell when an input rose");
        }
    }

    /// Barrel shifter rotation composes: rotating by a then b equals
    /// rotating by a + b.
    #[test]
    fn barrel_rotation_composes(a in 0usize..16, b in 0usize..16, seed in any::<u64>()) {
        let barrel = concentrator::barrel::Barrel::new(16);
        let data = bits_from_seed(16, seed);
        let two_step = barrel.rotate(&barrel.rotate(&data, a), b);
        let one_step = barrel.rotate(&data, a + b);
        prop_assert_eq!(two_step, one_step);
    }
}

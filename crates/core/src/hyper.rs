//! The single-chip n-by-n hyperconcentrator (Cormen–Leiserson 1986), the
//! building block every multichip switch in the paper is made of.
//!
//! Functionally it is a *stable compactor*: the `k` valid inputs are routed,
//! in input order, to outputs `0..k`. The gate-level realization here is a
//! recursive two-block merge. At each doubling, the left block `L` (already
//! compacted) doubles as a **unary encoding of its own valid count** `l`,
//! so the right block can be shifted down by `l` positions with a single
//! AND–OR plane pair:
//!
//! ```text
//! out_i = L_i  ∨  ⋁_j (eⱼ ∧ R_{i−j})        eⱼ = "l = j" = L_{j−1} ∧ ¬L_j
//! ```
//!
//! Each `eⱼ ∧ R_{i−j}` is a single wide-fan-in AND (complements are free in
//! the dual-rail model), so a merge costs exactly **two gate levels**, and
//! the full chip costs `2⌈lg n⌉` — precisely the delay the paper quotes for
//! the 1986 design — with `Θ(n²)` gates.
//!
//! The same recursion carries any further *rails* — the data bits of the
//! datapath netlist — along the paths the valid bits establish, so the
//! control and datapath chips are one build over one or two rails.

use netlist::{Literal, Netlist};
use serde::{Deserialize, Serialize};

use crate::spec::{ConcentratorKind, ConcentratorSwitch, Routing};

/// An n-by-n hyperconcentrator chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hyperconcentrator {
    n: usize,
}

impl Hyperconcentrator {
    /// Create an n-by-n hyperconcentrator.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "hyperconcentrator needs at least one wire");
        Hyperconcentrator { n }
    }

    /// Port count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Compact a valid-bit vector: `k` ones followed by `n−k` zeros.
    pub fn concentrate(&self, valid: &[bool]) -> Vec<bool> {
        assert_eq!(valid.len(), self.n);
        let k = valid.iter().filter(|&&v| v).count();
        (0..self.n).map(|i| i < k).collect()
    }

    /// Gate delays through the bare merge network: `2⌈lg n⌉`.
    pub fn logic_delay(&self) -> u32 {
        2 * ceil_lg(self.n)
    }

    /// Gate delays through the packaged chip: logic plus one input and one
    /// output pad level — the `O(1)` term of the paper's per-chip delay.
    pub fn chip_delay(&self) -> u32 {
        self.logic_delay() + PAD_LEVELS
    }

    /// Build the control netlist: `n` valid-bit inputs, `n` compacted
    /// valid-bit outputs.
    ///
    /// `with_pads` adds one [`netlist::GateKind::Buf`] level at each of the
    /// input and output pad rings, so the measured depth equals
    /// [`Hyperconcentrator::chip_delay`]; without pads it equals
    /// [`Hyperconcentrator::logic_delay`].
    pub fn build_netlist(&self, with_pads: bool) -> Netlist {
        self.build_rails(1, with_pads)
    }

    /// Build the data-path netlist for one bit-serial time slice: inputs
    /// are `n` valid bits followed by `n` data bits; outputs are `n`
    /// compacted valid bits followed by the `n` data bits carried along the
    /// established paths. Vacant outputs are don't-cares (they carry 0 when
    /// invalid inputs drive 0, as the simulator does).
    ///
    /// In hardware the selectors are latched at setup and the data bits of
    /// later cycles flow through the frozen paths; holding the valid bits
    /// constant over the frame makes this single combinational network
    /// cycle-for-cycle equivalent.
    pub fn build_datapath_netlist(&self) -> Netlist {
        self.build_rails(2, false)
    }

    /// Build the chip over `rails` signal rails of `n` wires each: rail 0
    /// is the valid bits, which the chip compacts; every further rail is
    /// carried along the same paths. Inputs and outputs are rail-major
    /// (all of rail 0, then all of rail 1, …). `with_pads` adds one `Buf`
    /// level per pad ring on every rail.
    pub(crate) fn build_rails(&self, rails: usize, with_pads: bool) -> Netlist {
        let mut nl = Netlist::new();
        let mut ins: Vec<Vec<Literal>> = (0..rails)
            .map(|_| nl.inputs_n(self.n).into_iter().map(Literal::pos).collect())
            .collect();
        if with_pads {
            pad_ring(&mut nl, &mut ins);
        }
        let borrowed: Vec<&[Literal]> = ins.iter().map(Vec::as_slice).collect();
        let mut outs = compact_block(&mut nl, &borrowed);
        if with_pads {
            pad_ring(&mut nl, &mut outs);
        }
        for &lit in outs.iter().flatten() {
            nl.mark_output(lit);
        }
        nl
    }
}

impl ConcentratorSwitch for Hyperconcentrator {
    fn inputs(&self) -> usize {
        self.n
    }

    fn outputs(&self) -> usize {
        self.n
    }

    fn kind(&self) -> ConcentratorKind {
        ConcentratorKind::Hyperconcentrator
    }

    fn route(&self, valid: &[bool]) -> Routing {
        assert_eq!(valid.len(), self.n);
        let mut rank = 0usize;
        let assignment = valid
            .iter()
            .map(|&v| {
                if v {
                    rank += 1;
                    Some(rank - 1)
                } else {
                    None
                }
            })
            .collect();
        Routing::from_assignment(assignment, self.n)
    }
}

/// Pad levels per chip traversal (input ring + output ring).
pub const PAD_LEVELS: u32 = 2;

/// `⌈lg n⌉` (0 for n = 1).
pub fn ceil_lg(n: usize) -> u32 {
    assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

/// The selector literals `e_j = [count of ones in compacted L == j]`, as
/// AND-term *input lists* (so callers can widen the AND with more literals
/// without paying an extra level).
fn selector_terms(left: &[Literal]) -> Vec<Vec<Literal>> {
    let a = left.len();
    (0..=a)
        .map(|j| {
            let mut term = Vec::with_capacity(2);
            if j > 0 {
                term.push(left[j - 1]);
            }
            if j < a {
                term.push(left[j].complement());
            }
            term
        })
        .collect()
}

/// One pad ring: a `Buf` on every wire, rail by rail.
fn pad_ring(nl: &mut Netlist, rails: &mut [Vec<Literal>]) {
    for lit in rails.iter_mut().flatten() {
        *lit = nl.buf(*lit);
    }
}

/// Merge two compacted blocks into one compacted block: two gate levels.
/// `left[0]`/`right[0]` are the valid rails; merged valid slot `i` is
/// `L_i ∨ ⋁ⱼ (eⱼ ∧ R_{i−j})`. Every further rail carries, in slot `i`, the
/// left slot-`i` bit when `l > i` (that is, `L_i = 1`, the left block being
/// compacted), else the right slot-`(i−l)` bit.
fn merge_blocks(
    nl: &mut Netlist,
    left: &[Vec<Literal>],
    right: &[Vec<Literal>],
) -> Vec<Vec<Literal>> {
    let (left_valid, a, b) = (&left[0], left[0].len(), right[0].len());
    let selectors = selector_terms(left_valid);
    let mut merged = Vec::with_capacity(left.len());
    for (rail, (l, r)) in left.iter().zip(right).enumerate() {
        let mut out = Vec::with_capacity(a + b);
        for i in 0..a + b {
            // Terms e_j ∧ R_{i−j} for all j with 0 ≤ i−j < b and 0 ≤ j ≤ a.
            let j_lo = i.saturating_sub(b - 1);
            let j_hi = i.min(a);
            let mut or_inputs: Vec<Literal> = Vec::new();
            if i < a {
                or_inputs.push(if rail == 0 {
                    l[i]
                } else {
                    nl.and([left_valid[i], l[i]])
                });
            }
            for j in j_lo..=j_hi {
                let mut and_inputs = selectors[j].clone();
                and_inputs.push(r[i - j]);
                or_inputs.push(nl.and(and_inputs));
            }
            out.push(nl.or(or_inputs));
        }
        merged.push(out);
    }
    merged
}

/// Recursively compact the valid rail `rails[0]`, carrying every further
/// rail along the same paths. Returns the compacted rails.
fn compact_block(nl: &mut Netlist, rails: &[&[Literal]]) -> Vec<Vec<Literal>> {
    let len = rails[0].len();
    if len <= 1 {
        return rails.iter().map(|r| r.to_vec()).collect();
    }
    let mid = len.div_ceil(2);
    let halves: (Vec<&[Literal]>, Vec<&[Literal]>) = rails.iter().map(|r| r.split_at(mid)).unzip();
    let left = compact_block(nl, &halves.0);
    let right = compact_block(nl, &halves.1);
    merge_blocks(nl, &left, &right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::check_concentration;

    fn bits_of(pattern: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| (pattern >> i) & 1 == 1).collect()
    }

    #[test]
    fn functional_model_compacts_all_patterns() {
        let h = Hyperconcentrator::new(10);
        for pattern in 0u64..(1 << 10) {
            let valid = bits_of(pattern, 10);
            assert!(
                check_concentration(&h, &valid).is_empty(),
                "pattern {pattern:#x}"
            );
        }
    }

    #[test]
    fn routing_is_stable_order_preserving() {
        let h = Hyperconcentrator::new(6);
        let routing = h.route(&[false, true, true, false, true, false]);
        assert_eq!(
            routing.assignment,
            vec![None, Some(0), Some(1), None, Some(2), None]
        );
    }

    #[test]
    fn netlist_matches_functional_model_exhaustively() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 12, 16] {
            let h = Hyperconcentrator::new(n);
            let nl = h.build_netlist(false);
            assert_eq!(nl.input_count(), n);
            assert_eq!(nl.output_count(), n);
            for pattern in 0u64..(1u64 << n) {
                let valid = bits_of(pattern, n);
                assert_eq!(
                    nl.eval(&valid),
                    h.concentrate(&valid),
                    "n={n}, pattern {pattern:#x}"
                );
            }
        }
    }

    #[test]
    fn netlist_depth_is_exactly_two_ceil_lg_n() {
        // "a signal incurs exactly 2 lg n gate delays through the switch"
        // (the 1986 chip, quoted in §1).
        for n in [2usize, 4, 8, 16, 32, 64, 3, 5, 6, 7, 9, 33] {
            let h = Hyperconcentrator::new(n);
            let nl = h.build_netlist(false);
            assert_eq!(nl.depth(), 2 * ceil_lg(n), "n = {n}");
            let padded = h.build_netlist(true);
            assert_eq!(
                padded.depth(),
                2 * ceil_lg(n) + PAD_LEVELS,
                "n = {n} padded"
            );
        }
    }

    #[test]
    fn gate_count_scales_quadratically() {
        // Θ(n²) components: check the growth ratio quadruples (±50%) when
        // n doubles, over a few doublings.
        let counts: Vec<usize> = [16usize, 32, 64, 128]
            .iter()
            .map(|&n| {
                Hyperconcentrator::new(n)
                    .build_netlist(false)
                    .area_report()
                    .area_units
            })
            .collect();
        for w in counts.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(
                (2.5..=6.0).contains(&ratio),
                "area growth ratio {ratio} not ~4x"
            );
        }
    }

    #[test]
    fn datapath_routes_message_bits() {
        let n = 8;
        let h = Hyperconcentrator::new(n);
        let nl = h.build_datapath_netlist();
        for pattern in 0u64..(1 << n) {
            let valid = bits_of(pattern, n);
            // Give each valid input a distinguishing data bit: input i
            // carries bit (i % 2 == 0).
            let data: Vec<bool> = (0..n).map(|i| valid[i] && i % 2 == 0).collect();
            let mut inputs = valid.clone();
            inputs.extend(&data);
            let out = nl.eval(&inputs);
            let (vout, dout) = out.split_at(n);

            let routing = h.route(&valid);
            for (input, &slot) in routing.assignment.iter().enumerate() {
                if let Some(out_idx) = slot {
                    assert!(vout[out_idx]);
                    assert_eq!(
                        dout[out_idx], data[input],
                        "pattern {pattern:#x}: data bit of input {input} mangled"
                    );
                }
            }
            // Vacant outputs carry 0.
            let k = valid.iter().filter(|&&v| v).count();
            for (i, &d) in dout.iter().enumerate() {
                if i >= k {
                    assert!(!d, "pattern {pattern:#x}: vacant output {i} carries data");
                }
            }
        }
    }

    #[test]
    fn datapath_depth_matches_control_depth() {
        let h = Hyperconcentrator::new(16);
        assert_eq!(
            h.build_datapath_netlist().depth(),
            h.build_netlist(false).depth()
        );
    }

    #[test]
    fn critical_path_spans_exactly_the_depth() {
        // The 2 lg n bound is realized by an actual input-to-output path.
        for n in [8usize, 16, 32] {
            let nl = Hyperconcentrator::new(n).build_netlist(false);
            let path = nl.critical_path();
            assert_eq!(path.len() as u32 - 1, nl.depth(), "n = {n}");
        }
    }

    #[test]
    fn delay_helpers() {
        let h = Hyperconcentrator::new(64);
        assert_eq!(h.logic_delay(), 12);
        assert_eq!(h.chip_delay(), 14);
        assert_eq!(ceil_lg(1), 0);
        assert_eq!(ceil_lg(2), 1);
        assert_eq!(ceil_lg(3), 2);
        assert_eq!(ceil_lg(1024), 10);
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_size_rejected() {
        Hyperconcentrator::new(0);
    }
}

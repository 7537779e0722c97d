//! Multistage concentration: trees of concentrator switches, the routing-
//! network setting §1 places the switches in ("the switches that route
//! these messages" in a parallel computing system).
//!
//! Because every switch in this library is combinational, a whole cascade
//! still routes within a single frame: level-0 groups of processors feed
//! concentrators whose outputs concatenate into the next level's inputs,
//! down to the root's resource ports. This module composes arbitrary
//! [`ConcentratorSwitch`]es into such a cascade, itself a
//! `ConcentratorSwitch`, so all the frame/congestion machinery applies
//! unchanged.

use concentrator::spec::{ConcentratorKind, ConcentratorSwitch, Routing};

/// A cascade of concentrator levels. Level `ℓ`'s switches partition the
/// concatenated outputs of level `ℓ−1` (level 0 partitions the network
/// inputs), in order.
pub struct MultistageNetwork {
    levels: Vec<Vec<Box<dyn ConcentratorSwitch + Send + Sync>>>,
    n: usize,
    m: usize,
}

impl MultistageNetwork {
    /// Build a cascade from per-level switch lists.
    ///
    /// # Panics
    /// If any level's total input count does not match the previous
    /// level's total output count, or the cascade is empty.
    pub fn new(levels: Vec<Vec<Box<dyn ConcentratorSwitch + Send + Sync>>>) -> Self {
        assert!(!levels.is_empty(), "cascade needs at least one level");
        assert!(levels.iter().all(|l| !l.is_empty()), "levels need switches");
        let n = levels[0].iter().map(|s| s.inputs()).sum();
        let mut carry: usize = n;
        for (idx, level) in levels.iter().enumerate() {
            let ins: usize = level.iter().map(|s| s.inputs()).sum();
            assert_eq!(
                ins, carry,
                "level {idx} consumes {ins} wires but {carry} arrive"
            );
            carry = level.iter().map(|s| s.outputs()).sum();
        }
        MultistageNetwork {
            n,
            m: carry,
            levels,
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total switches across all levels.
    pub fn switch_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Wires entering each level (diagnostic).
    pub fn level_widths(&self) -> Vec<usize> {
        self.levels
            .iter()
            .map(|level| level.iter().map(|s| s.inputs()).sum())
            .collect()
    }
}

impl ConcentratorSwitch for MultistageNetwork {
    fn inputs(&self) -> usize {
        self.n
    }

    fn outputs(&self) -> usize {
        self.m
    }

    fn kind(&self) -> ConcentratorKind {
        // No closed-form end-to-end guarantee: a single over-subscribed
        // group can lose messages below global capacity, so the cascade
        // promises nothing and the simulator measures actual delivery.
        ConcentratorKind::Partial { alpha: 0.0 }
    }

    fn route(&self, valid: &[bool]) -> Routing {
        assert_eq!(valid.len(), self.n);
        // (valid, original input) per wire between levels.
        let mut wires: Vec<(bool, Option<usize>)> = valid
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, v.then_some(i)))
            .collect();
        for level in &self.levels {
            let mut next: Vec<(bool, Option<usize>)> = Vec::new();
            let mut cursor = 0usize;
            for switch in level {
                let group = &wires[cursor..cursor + switch.inputs()];
                cursor += switch.inputs();
                let group_valid: Vec<bool> = group.iter().map(|&(v, _)| v).collect();
                let routing = switch.route(&group_valid);
                let base = next.len();
                next.resize(base + switch.outputs(), (false, None));
                for (local_in, slot) in routing.assignment.iter().enumerate() {
                    if let Some(local_out) = slot {
                        next[base + local_out] = group[local_in];
                    }
                }
            }
            wires = next;
        }
        let mut assignment = vec![None; self.n];
        for (out, &(v, source)) in wires.iter().enumerate() {
            if v {
                if let Some(src) = source {
                    assignment[src] = Some(out);
                }
            }
        }
        Routing::from_assignment(assignment, self.m)
    }
}

/// Convenience constructor: a regular tree where every level splits its
/// wires into groups of `group_in` feeding identical `group_in → group_out`
/// switches, built by `make_switch`, until at most `group_in` wires remain
/// (a final root switch concentrates those onto `root_out` ports).
pub fn regular_tree<F>(
    n: usize,
    group_in: usize,
    group_out: usize,
    root_out: usize,
    make_switch: F,
) -> MultistageNetwork
where
    F: Fn(usize, usize) -> Box<dyn ConcentratorSwitch + Send + Sync>,
{
    assert!(group_out < group_in, "levels must concentrate");
    assert!(n.is_multiple_of(group_in), "n must split into whole groups");
    let mut levels: Vec<Vec<Box<dyn ConcentratorSwitch + Send + Sync>>> = Vec::new();
    let mut width = n;
    while width > group_in {
        assert!(
            width.is_multiple_of(group_in),
            "level width {width} does not split into groups of {group_in}"
        );
        let groups = width / group_in;
        levels.push(
            (0..groups)
                .map(|_| make_switch(group_in, group_out))
                .collect(),
        );
        width = groups * group_out;
    }
    levels.push(vec![make_switch(width, root_out.min(width))]);
    MultistageNetwork::new(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::simulate_frame;
    use crate::message::Message;
    use concentrator::{ColumnsortSwitch, Hyperconcentrator};

    fn hyper_tree() -> MultistageNetwork {
        // 64 inputs, groups of 16 concentrated onto 8 wires per level
        // (Columnsort 8x2 partial switches), 8 root ports:
        // 64 -> 32 -> 16 -> 8.
        regular_tree(64, 16, 8, 8, |ins, outs| {
            debug_assert_eq!(ins, 16);
            Box::new(ColumnsortSwitch::new(8, 2, outs))
        })
    }

    #[test]
    fn widths_and_counts() {
        let net = hyper_tree();
        assert_eq!(net.inputs(), 64);
        assert_eq!(net.outputs(), 8);
        assert_eq!(net.depth(), 3);
        assert_eq!(net.switch_count(), 7);
        assert_eq!(net.level_widths(), vec![64, 32, 16]);
    }

    #[test]
    fn light_load_routes_everything_end_to_end() {
        let net = hyper_tree();
        // 6 messages spread across groups: well under every group's
        // capacity (15 per leaf, 8 at root... root m=8 with eps 9 -> cap 0;
        // but actual routing still succeeds for spread-out traffic).
        let mut valid = vec![false; 64];
        for i in [1usize, 18, 30, 40, 52, 63] {
            valid[i] = true;
        }
        let routing = net.route(&valid);
        assert_eq!(routing.routed(), 6);
    }

    #[test]
    fn overload_is_bounded_by_root_ports() {
        let net = hyper_tree();
        let valid = vec![true; 64];
        let routing = net.route(&valid);
        assert!(routing.routed() <= net.outputs());
        assert!(routing.routed() > 0);
    }

    #[test]
    fn frames_flow_through_the_cascade() {
        let net = hyper_tree();
        let offered: Vec<Message> = [2usize, 21, 37, 55]
            .iter()
            .enumerate()
            .map(|(i, &src)| Message::new(i as u64, src, vec![0xA0 | i as u8]))
            .collect();
        let outcome = simulate_frame(&net, &offered);
        assert_eq!(outcome.delivered.len(), 4);
        assert!(outcome.payloads_intact(&offered));
    }

    #[test]
    fn single_level_tree_equals_its_switch() {
        let inner = Hyperconcentrator::new(16);
        let net = MultistageNetwork::new(vec![vec![Box::new(Hyperconcentrator::new(16))]]);
        for pattern in [0u64, 0xF0F0, 0xFFFF, 0x8421] {
            let valid: Vec<bool> = (0..16).map(|i| (pattern >> i) & 1 == 1).collect();
            assert_eq!(
                net.route(&valid),
                inner.route(&valid),
                "pattern {pattern:#x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "consumes")]
    fn mismatched_levels_rejected() {
        MultistageNetwork::new(vec![
            vec![Box::new(Hyperconcentrator::new(16))],
            vec![Box::new(Hyperconcentrator::new(8))],
        ]);
    }
}

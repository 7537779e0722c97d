//! Golden-netlist pins: an FNV-1a hash of the JSON serialization of every
//! elaboration flavour on a fixed design set, plus the single chip's own
//! netlists.
//!
//! The hash covers gate order, gate kinds, input literals and wire
//! numbering, so any change to how a switch is elaborated — even one that
//! leaves the logic function intact — shows up here. A second table pins
//! the lowered instruction and slot counts of the compiled control and
//! datapath netlists, which also move when only the lowering changes. If
//! an intentional elaboration or lowering change lands, run
//!
//! ```text
//! cargo test -p concentrator --test golden_netlists -- --nocapture
//! ```
//!
//! and replace the affected table with the lines the failing test prints.

use concentrator::full_columnsort::FullColumnsortHyperconcentrator;
use concentrator::full_revsort::FullRevsortHyperconcentrator;
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::{ColumnsortSwitch, Hyperconcentrator, StagedSwitch};
use netlist::Netlist;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn netlist_hash(nl: &Netlist) -> u64 {
    fnv1a(netlist::json::to_string(nl).as_bytes())
}

/// The design set: every switch family and both Revsort layouts, including
/// pass-through boards (ThreeDee) and padding constants (full Columnsort).
fn designs() -> Vec<(&'static str, StagedSwitch)> {
    vec![
        (
            "revsort16x8-2d",
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        ),
        (
            "revsort16x8-3d",
            RevsortSwitch::new(16, 8, RevsortLayout::ThreeDee)
                .staged()
                .clone(),
        ),
        (
            "revsort64x28-2d",
            RevsortSwitch::new(64, 28, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        ),
        (
            "columnsort8x2",
            ColumnsortSwitch::new(8, 2, 8).staged().clone(),
        ),
        (
            "columnsort8x4",
            ColumnsortSwitch::new(8, 4, 16).staged().clone(),
        ),
        (
            "full-revsort16",
            FullRevsortHyperconcentrator::new(16).staged().clone(),
        ),
        (
            "full-columnsort8x2",
            FullColumnsortHyperconcentrator::new(8, 2).staged().clone(),
        ),
    ]
}

/// Every pinned artifact, as `(name, hash)` in a fixed order.
fn current_hashes() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for n in [1usize, 3, 4, 7, 16] {
        let chip = Hyperconcentrator::new(n);
        out.push((
            format!("chip{n}.control"),
            netlist_hash(&chip.build_netlist(false)),
        ));
        out.push((
            format!("chip{n}.control-pads"),
            netlist_hash(&chip.build_netlist(true)),
        ));
        out.push((
            format!("chip{n}.datapath"),
            netlist_hash(&chip.build_datapath_netlist()),
        ));
    }
    for (name, switch) in designs() {
        out.push((
            format!("{name}.control"),
            netlist_hash(&switch.build_netlist(false)),
        ));
        out.push((
            format!("{name}.control-pads"),
            netlist_hash(&switch.build_netlist(true)),
        ));
        out.push((
            format!("{name}.trace"),
            netlist_hash(&switch.trace_logic(false).netlist),
        ));
        out.push((
            format!("{name}.datapath"),
            netlist_hash(&switch.datapath_logic(false).netlist),
        ));
    }
    out
}

/// Hashes recorded before the elaborators were merged into one.
const GOLDEN: &[(&str, u64)] = &[
    ("chip1.control", 0x63903b14e198adff),
    ("chip1.control-pads", 0x63f3cd763ec544b3),
    ("chip1.datapath", 0x5673108028ad0262),
    ("chip3.control", 0x4f534e6f125e9908),
    ("chip3.control-pads", 0x00fd0f9b8aed0037),
    ("chip3.datapath", 0x128612efe9a6e6b0),
    ("chip4.control", 0x20891d2b4a8872e8),
    ("chip4.control-pads", 0xa5a7b687a002b42a),
    ("chip4.datapath", 0x3308852163397afd),
    ("chip7.control", 0xf1e1bb82319741a0),
    ("chip7.control-pads", 0xd769613af823f2b1),
    ("chip7.datapath", 0xd7101ff6a25bf71e),
    ("chip16.control", 0xcc6a74b1697f3a6b),
    ("chip16.control-pads", 0x7b96a065a4d257ab),
    ("chip16.datapath", 0x92ad16a7cc24862f),
    ("revsort16x8-2d.control", 0xf41163639e637185),
    ("revsort16x8-2d.control-pads", 0xc9be279f06084795),
    ("revsort16x8-2d.trace", 0xd851363dfa25ae40),
    ("revsort16x8-2d.datapath", 0x3fef1d35b6e5776a),
    ("revsort16x8-3d.control", 0xf41163639e637185),
    ("revsort16x8-3d.control-pads", 0xbabce497aee95a2b),
    ("revsort16x8-3d.trace", 0xd851363dfa25ae40),
    ("revsort16x8-3d.datapath", 0x3fef1d35b6e5776a),
    ("revsort64x28-2d.control", 0x45af1affe955d11f),
    ("revsort64x28-2d.control-pads", 0xfd9984e810d0101c),
    ("revsort64x28-2d.trace", 0xd1a1530cf101022a),
    ("revsort64x28-2d.datapath", 0xb7f855af098c6e14),
    ("columnsort8x2.control", 0x04e1a5648a13354d),
    ("columnsort8x2.control-pads", 0x8c99afa76a410b9a),
    ("columnsort8x2.trace", 0x287f6b678519e116),
    ("columnsort8x2.datapath", 0x0b3f84ab0c9d5d12),
    ("columnsort8x4.control", 0xc0ef6f057c82fc68),
    ("columnsort8x4.control-pads", 0x3b9b2d4aab99da7a),
    ("columnsort8x4.trace", 0x285d0a15c9a0827c),
    ("columnsort8x4.datapath", 0xd37eb8938c0664a8),
    ("full-revsort16.control", 0x43a337db586e84cf),
    ("full-revsort16.control-pads", 0xcc9795da3edb3400),
    ("full-revsort16.trace", 0x43a337db586e84cf),
    ("full-revsort16.datapath", 0x414c8c7eb0a85040),
    ("full-columnsort8x2.control", 0xc99360056e43687e),
    ("full-columnsort8x2.control-pads", 0x43a2399379b2ae79),
    ("full-columnsort8x2.trace", 0xa8e3a0515aecdade),
    ("full-columnsort8x2.datapath", 0x21f6bf478fd5054f),
];

#[test]
fn elaborations_match_the_golden_hashes() {
    let current = current_hashes();
    let listing: String = current
        .iter()
        .map(|(name, hash)| format!("    (\"{name}\", {hash:#018x}),\n"))
        .collect();
    let got: Vec<(&str, u64)> = current.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(
        got, GOLDEN,
        "netlist hashes drifted; current table:\n{listing}"
    );
}

/// Lowered-stream sizes `(name, insns, slots)` of every compiled control
/// and datapath netlist: the chips, the design set, and the Revsort
/// 1024→512 datapath the benchmark serves. They are deterministic
/// functions of the netlist *and* of `netlist::insn::lower`, so unlike
/// the hashes above they move whenever lowering changes (shared chain
/// prefixes, fused AND–OR terms, slot allocation order) and show the
/// change in review.
fn current_counts() -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut push = |name: String, compiled: &netlist::CompiledNetlist| {
        out.push((name, compiled.insn_count(), compiled.slot_count()));
    };
    for n in [1usize, 3, 4, 7, 16] {
        let chip = Hyperconcentrator::new(n);
        push(
            format!("chip{n}.control"),
            &chip.build_netlist(false).compile(),
        );
        push(
            format!("chip{n}.datapath"),
            &chip.build_datapath_netlist().compile(),
        );
    }
    for (name, switch) in designs() {
        push(
            format!("{name}.control"),
            &switch.control_logic(false).compiled,
        );
        push(
            format!("{name}.datapath"),
            &switch.datapath_logic(false).compiled,
        );
    }
    let big = RevsortSwitch::new(1024, 512, RevsortLayout::TwoDee);
    push(
        "revsort1024x512-2d.datapath".into(),
        &big.staged().datapath_logic(false).compiled,
    );
    out
}

/// Counts with shared chain prefixes and fused AND–OR planes in the
/// lowering.
const GOLDEN_COUNTS: &[(&str, usize, usize)] = &[
    ("chip1.control", 0, 1),
    ("chip1.datapath", 0, 2),
    ("chip3.control", 9, 7),
    ("chip3.datapath", 18, 14),
    ("chip4.control", 16, 10),
    ("chip4.datapath", 32, 20),
    ("chip7.control", 50, 20),
    ("chip7.datapath", 99, 40),
    ("chip16.control", 239, 64),
    ("chip16.datapath", 443, 107),
    ("revsort16x8-2d.control", 191, 40),
    ("revsort16x8-2d.datapath", 368, 78),
    ("revsort16x8-3d.control", 191, 40),
    ("revsort16x8-3d.datapath", 368, 78),
    ("revsort64x28-2d.control", 1477, 199),
    ("revsort64x28-2d.datapath", 2748, 332),
    ("columnsort8x2.control", 252, 47),
    ("columnsort8x2.datapath", 484, 91),
    ("columnsort8x4.control", 509, 98),
    ("columnsort8x4.datapath", 931, 167),
    ("full-revsort16.control", 574, 40),
    ("full-revsort16.datapath", 1094, 76),
    ("full-columnsort8x2.control", 577, 69),
    ("full-columnsort8x2.datapath", 1083, 123),
    ("revsort1024x512-2d.datapath", 136031, 6630),
];

#[test]
fn lowered_streams_match_the_golden_counts() {
    let current = current_counts();
    let listing: String = current
        .iter()
        .map(|(name, insns, slots)| format!("    (\"{name}\", {insns}, {slots}),\n"))
        .collect();
    let got: Vec<(&str, usize, usize)> = current
        .iter()
        .map(|(n, i, s)| (n.as_str(), *i, *s))
        .collect();
    assert_eq!(
        got, GOLDEN_COUNTS,
        "lowered instruction/slot counts drifted; current table:\n{listing}"
    );
}

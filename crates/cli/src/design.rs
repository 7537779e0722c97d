//! Design specifiers: `revsort:<n>:<m>` and `columnsort:<r>x<s>:<m>`.
//!
//! Every spec is validated before a switch is built, and a switch has at
//! most [`MAX_INPUTS`] inputs, so a spec that parses but names an
//! impossible size (`revsort:4611686018427387904:1` = `4^31`) returns an
//! error instead of dying in the allocator.

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::spec::ConcentratorSwitch;
use concentrator::ColumnsortSwitch;

/// The largest input count `n` (Revsort) or `r·s` (Columnsort) a spec may
/// name: 2^20 = 4^10. It admits every size the repository builds (the
/// largest are `scale_smoke`'s Revsort n = 65,536 and Columnsort
/// 8192×16 = 131,072) with room to spare.
pub const MAX_INPUTS: usize = 1 << 20;

/// Reject an input count above [`MAX_INPUTS`].
fn check_size(n: usize) -> Result<(), String> {
    if n > MAX_INPUTS {
        return Err(format!(
            "n = {n} exceeds the supported maximum {MAX_INPUTS}"
        ));
    }
    Ok(())
}

/// A parsed design with its constructed switch.
pub enum Design {
    /// The §4 three-stage switch.
    Revsort(RevsortSwitch),
    /// The §5 two-stage switch.
    Columnsort(ColumnsortSwitch),
}

impl Design {
    /// Parse a specifier and build the switch.
    pub fn parse(spec: &str) -> Result<Design, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        match parts.as_slice() {
            ["revsort", n, m] => {
                let n: usize = n.parse().map_err(|_| format!("bad n `{n}`"))?;
                let m: usize = m.parse().map_err(|_| format!("bad m `{m}`"))?;
                let side = (n as f64).sqrt() as usize;
                if side.checked_mul(side) != Some(n) || !side.is_power_of_two() {
                    return Err(format!("revsort needs n = 4^q, got {n}"));
                }
                check_size(n)?;
                if m == 0 || m > n {
                    return Err(format!("need 0 < m <= n, got m = {m}"));
                }
                Ok(Design::Revsort(RevsortSwitch::new(
                    n,
                    m,
                    RevsortLayout::ThreeDee,
                )))
            }
            ["columnsort", shape, m] => {
                let (r, s) = shape
                    .split_once('x')
                    .ok_or_else(|| format!("bad shape `{shape}` (want RxS)"))?;
                let r: usize = r.parse().map_err(|_| format!("bad r `{r}`"))?;
                let s: usize = s.parse().map_err(|_| format!("bad s `{s}`"))?;
                let m: usize = m.parse().map_err(|_| format!("bad m `{m}`"))?;
                if r == 0 || s == 0 || !r.is_multiple_of(s) {
                    return Err(format!("columnsort needs s | r, got {r}x{s}"));
                }
                let n = r
                    .checked_mul(s)
                    .ok_or_else(|| format!("columnsort shape {r}x{s} overflows n"))?;
                check_size(n)?;
                if m == 0 || m > n {
                    return Err(format!("need 0 < m <= n = {n}, got m = {m}"));
                }
                Ok(Design::Columnsort(ColumnsortSwitch::new(r, s, m)))
            }
            _ => Err(format!(
                "bad design `{spec}` (want revsort:<n>:<m> or columnsort:<r>x<s>:<m>)"
            )),
        }
    }

    /// The switch as a trait object.
    pub fn switch(&self) -> &dyn ConcentratorSwitch {
        match self {
            Design::Revsort(s) => s,
            Design::Columnsort(s) => s,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> String {
        match self {
            Design::Revsort(s) => s.staged().name.clone(),
            Design::Columnsort(s) => s.staged().name.clone(),
        }
    }

    /// The staged view of the switch (shared elaboration cache included).
    pub fn staged(&self) -> &concentrator::StagedSwitch {
        match self {
            Design::Revsort(s) => s.staged(),
            Design::Columnsort(s) => s.staged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_designs() {
        let d = Design::parse("revsort:64:28").unwrap();
        assert_eq!(d.switch().inputs(), 64);
        assert_eq!(d.switch().outputs(), 28);
        let d = Design::parse("columnsort:8x4:18").unwrap();
        assert_eq!(d.switch().inputs(), 32);
        assert!(d.name().contains("Columnsort"));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "revsort:48:10",     // not 4^q
            "revsort:64:0",      // m = 0
            "revsort:64:100",    // m > n
            "columnsort:8x3:10", // s does not divide r
            "columnsort:8:10",   // missing shape
            "mystery:8:10",
            "revsort:64",
            "revsort:18446744073709551615:1", // side * side overflows
            "columnsort:6442450944x6442450944:1", // r * s overflows
            "revsort:4611686018427387904:1",  // 4^31 > MAX_INPUTS
            "revsort:4194304:1",              // 4^11 > MAX_INPUTS
            "columnsort:2097152x2:1",         // r * s = 2^22 > MAX_INPUTS
            "columnsort:1048576x1048576:1",   // r * s = 2^40 > MAX_INPUTS
        ] {
            assert!(Design::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn the_size_cap_is_inclusive() {
        assert!(check_size(MAX_INPUTS).is_ok());
        assert!(check_size(MAX_INPUTS + 1).is_err());
        let err = Design::parse("revsort:4611686018427387904:1")
            .err()
            .unwrap();
        assert!(err.contains("exceeds the supported maximum"), "{err}");
    }

    /// Numbers for generated specs: valid and invalid shapes on both sides
    /// of [`MAX_INPUTS`] and of `usize`, plus non-numbers.
    const NUMBERS: &str = "0 1 2 3 4 8 16 48 64 256 1024 1048576 4194304 \
        4611686018427387904 18446744073709551615 18446744073709551616 -4 +4 4e2";

    /// Everything else a spec string is made of, and some garbage.
    const WORDS: &str = "revsort columnsort : : :: x X é \0 \n";

    proptest::proptest! {
        /// Arbitrary token strings (mostly garbage) plus random chars.
        #[test]
        fn any_spec_string_parses_or_errs(
            picks in proptest::collection::vec(0usize..32, 0..8),
            chars in proptest::collection::vec(0u32..0x11_0000, 0..4),
        ) {
            let tokens: Vec<&str> =
                WORDS.split(' ').chain(NUMBERS.split_whitespace()).collect();
            let mut spec: String =
                picks.iter().map(|&i| tokens.get(i).copied().unwrap_or("")).collect();
            spec.extend(chars.iter().filter_map(|&c| char::from_u32(c)));
            if let Ok(design) = Design::parse(&spec) {
                proptest::prop_assert!(design.switch().inputs() <= MAX_INPUTS);
            }
        }

        /// Specs of the right shape over every number class, so sizes at,
        /// below and above the cap are all built or rejected.
        #[test]
        fn any_well_formed_spec_parses_or_errs(
            kind in 0usize..3,
            a in 0usize..20,
            b in 0usize..20,
            m in 0usize..20,
        ) {
            let numbers: Vec<&str> = NUMBERS.split_whitespace().collect();
            let pick = |i: usize| numbers.get(i).copied().unwrap_or("");
            let (a, b, m) = (pick(a), pick(b), pick(m));
            let spec = match kind {
                0 => format!("revsort:{a}:{m}"),
                1 => format!("columnsort:{a}x{b}:{m}"),
                _ => format!("columnsort:{a}{b}:{m}"),
            };
            if let Ok(design) = Design::parse(&spec) {
                let switch = design.switch();
                proptest::prop_assert!(switch.inputs() <= MAX_INPUTS);
                proptest::prop_assert!(switch.outputs() <= switch.inputs());
            }
        }
    }
}

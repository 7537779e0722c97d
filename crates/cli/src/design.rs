//! Design specifiers: `revsort:<n>:<m>` and `columnsort:<r>x<s>:<m>`.

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::spec::ConcentratorSwitch;
use concentrator::ColumnsortSwitch;

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
        ] {
            assert!(Design::parse(bad).is_err(), "accepted {bad}");
        }
    }
}

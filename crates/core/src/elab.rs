//! Shared elaboration cache: netlist + compiled engine, built once per
//! switch instance.
//!
//! Elaborating a multichip switch to a flat [`Netlist`] and compiling it
//! with [`Netlist::compile`] are both `O(gates)` — cheap next to the
//! millions of evaluations a verification campaign performs, but wasteful
//! to repeat per campaign. Verification, adversarial search, frame
//! simulation, and the benches all want the *same* three artifacts:
//!
//! * the **control** netlist (valid bits in → the `m` output valid bits),
//! * the **datapath** netlist (valid + data bits in → output valid + data),
//! * the **trace** netlist (valid bits in → the *entire* final-stage wire
//!   vector, for nearsortedness measurement).
//!
//! [`ElabCache`] holds all three — the control netlist in both pad
//! flavors, the datapath and trace netlists without pads — plus the
//! datapath's healthy [`ChipProgram`] (one compiled chip per chip type,
//! which serving sweeps) behind [`OnceLock`]s inside every
//! [`crate::StagedSwitch`], so the first consumer pays the elaboration cost
//! and everyone after shares one [`Arc`]. The netlists come from the
//! switch's one elaboration walk. Faulted chip programs are derived from
//! the cached one and owned by their callers, never stored here. The cache is invisible to the switch's
//! value semantics: clones start empty and equality ignores it.

use std::sync::{Arc, OnceLock};

use netlist::{CompiledNetlist, Netlist};

use crate::staged::ChipProgram;

/// One elaboration product: the flat netlist and its compiled form.
#[derive(Debug, Clone)]
pub struct Elaboration {
    /// The flat gate-level netlist.
    pub netlist: Netlist,
    /// The levelized, arena-flattened batch evaluator for it.
    pub compiled: CompiledNetlist,
}

impl Elaboration {
    /// Compile `netlist` and pair the two.
    pub fn new(netlist: Netlist) -> Self {
        let compiled = netlist.compile();
        Elaboration { netlist, compiled }
    }
}

type Slot = OnceLock<Arc<Elaboration>>;

/// Lazily-built elaborations of one switch, keyed by flavor (and, for the
/// control netlist, by the `with_pads` flag: index `with_pads as usize`).
#[derive(Default)]
pub struct ElabCache {
    control: [Slot; 2],
    datapath: Slot,
    trace: Slot,
    program: OnceLock<Arc<ChipProgram>>,
}

impl ElabCache {
    /// The cached control elaboration, building via `make` on first use.
    pub fn control(&self, with_pads: bool, make: impl FnOnce() -> Netlist) -> Arc<Elaboration> {
        Self::get(&self.control[with_pads as usize], make)
    }

    /// The cached datapath elaboration, building via `make` on first use.
    pub fn datapath(&self, make: impl FnOnce() -> Netlist) -> Arc<Elaboration> {
        Self::get(&self.datapath, make)
    }

    /// The cached full-trace elaboration, building via `make` on first use.
    pub fn trace(&self, make: impl FnOnce() -> Netlist) -> Arc<Elaboration> {
        Self::get(&self.trace, make)
    }

    /// The cached chip program, building via `make` on first use.
    pub fn program(&self, make: impl FnOnce() -> ChipProgram) -> Arc<ChipProgram> {
        self.program.get_or_init(|| Arc::new(make())).clone()
    }

    fn get(slot: &Slot, make: impl FnOnce() -> Netlist) -> Arc<Elaboration> {
        slot.get_or_init(|| Arc::new(Elaboration::new(make())))
            .clone()
    }
}

/// Caches are identity-free scratch state: a cloned switch starts cold.
impl Clone for ElabCache {
    fn clone(&self) -> Self {
        ElabCache::default()
    }
}

/// Caches never participate in switch equality.
impl PartialEq for ElabCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for ElabCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let controls = self.control.iter().filter(|s| s.get().is_some()).count();
        write!(
            f,
            "ElabCache {{ control: {controls}/2, datapath: {}, trace: {}, program: {} }}",
            self.datapath.get().is_some(),
            self.trace.get().is_some(),
            self.program.get().is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let g = nl.and([a, b]);
        nl.mark_output(g);
        nl
    }

    #[test]
    fn cache_builds_once_and_shares() {
        let cache = ElabCache::default();
        let mut builds = 0usize;
        let first = cache.control(false, || {
            builds += 1;
            tiny()
        });
        let again = cache.control(false, || {
            builds += 1;
            tiny()
        });
        assert_eq!(builds, 1, "second access must hit the cache");
        assert!(Arc::ptr_eq(&first, &again));
        // The other pad flavor is a distinct slot.
        let padded = cache.control(true, || {
            builds += 1;
            tiny()
        });
        assert_eq!(builds, 2);
        assert!(!Arc::ptr_eq(&first, &padded));
    }

    #[test]
    fn clone_starts_cold() {
        let cache = ElabCache::default();
        let _ = cache.control(false, tiny);
        let cloned = cache.clone();
        let mut built = false;
        let _ = cloned.control(false, || {
            built = true;
            tiny()
        });
        assert!(built, "cloned cache must rebuild");
    }

    #[test]
    fn equality_ignores_cache_state() {
        let a = ElabCache::default();
        let b = ElabCache::default();
        let _ = a.control(false, tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn elaboration_pairs_netlist_and_compiled() {
        let e = Elaboration::new(tiny());
        assert_eq!(e.netlist.gate_count(), e.compiled.gate_count());
        assert_eq!(e.compiled.eval_word(&[!0, 0]), vec![0]);
        assert_eq!(e.compiled.eval_word(&[!0, !0]), vec![!0]);
    }
}

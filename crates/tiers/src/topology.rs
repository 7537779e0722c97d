//! Describing a concentrator tree: tiers of identical fabrics and the
//! wiring between them.
//!
//! A [`TierTopology`] is a list of [`TierSpec`]s, tier 0 being the leaf
//! tier external traffic enters through and the last tier the spine
//! whose deliveries leave the tree. Every fabric within one tier runs
//! the same switch (one shared [`StagedSwitch`], so the whole tier pays
//! a single datapath elaboration through the switch's cache) under the
//! same [`FabricConfig`].
//!
//! **Inter-tier wiring.** Tier `t+1`'s switch has `n` input wires,
//! partitioned evenly among tier `t`'s fabrics: fabric `f` owns the
//! contiguous block of [`TierTopology::link_ports`]`(t)` wires starting
//! at `f × link_ports(t)`. A message delivered by fabric `f` on output
//! `o` re-enters the next tier on wire `f × ports + (o mod ports)` —
//! the same wire on whichever downstream fabric the load-aware link
//! picks, so the wiring is a property of the topology, not of a routing
//! decision. Each worker's link (`crate::core`) applies the map.
//!
//! **External ingress.** An external source id (a user, of which there
//! may be millions) is hashed once: the high bits pick the leaf fabric,
//! the low bits the input wire on that leaf's switch.

use std::sync::Arc;

use concentrator::staged::StagedSwitch;
use fabric::FabricConfig;

/// One tier: `fabrics` identical fabrics over one shared switch.
#[derive(Clone)]
pub struct TierSpec {
    /// Fabrics in this tier.
    pub fabrics: usize,
    /// The switch every fabric in the tier serves (shared: one
    /// elaboration for the whole tier).
    pub switch: Arc<StagedSwitch>,
    /// Per-fabric serving configuration (shards, queues, backpressure).
    pub config: FabricConfig,
}

impl std::fmt::Debug for TierSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierSpec")
            .field("fabrics", &self.fabrics)
            .field("switch", &self.switch.name)
            .field("n", &self.switch.n)
            .field("m", &self.switch.m)
            .field("config", &self.config)
            .finish()
    }
}

/// A complete concentrator tree: tier 0 (leaves) through the spine.
#[derive(Debug, Clone)]
pub struct TierTopology {
    /// The tiers, leaf first.
    pub tiers: Vec<TierSpec>,
}

impl TierTopology {
    /// Build and validate a topology.
    ///
    /// # Panics
    /// If there are no tiers, a tier has no fabrics, a config is
    /// invalid, or a tier has more fabrics than its downstream switch
    /// has input wires (every fabric needs at least one uplink port).
    pub fn new(tiers: Vec<TierSpec>) -> TierTopology {
        let topology = TierTopology { tiers };
        topology.validate();
        topology
    }

    /// Validate the tree (see [`TierTopology::new`] for the rules).
    pub fn validate(&self) {
        assert!(!self.tiers.is_empty(), "a topology needs at least one tier");
        for (t, spec) in self.tiers.iter().enumerate() {
            assert!(spec.fabrics > 0, "tier {t} has no fabrics");
            spec.config.validate();
        }
        for t in 0..self.tiers.len() - 1 {
            let up = self.tiers[t].fabrics;
            let n = self.tiers[t + 1].switch.n;
            assert!(
                up <= n,
                "tier {t} has {up} fabrics but tier {} only {n} input wires",
                t + 1
            );
        }
    }

    /// Number of tiers.
    pub fn depth(&self) -> usize {
        self.tiers.len()
    }

    /// Leaf fabrics (tier 0).
    pub fn leaves(&self) -> usize {
        self.tiers[0].fabrics
    }

    /// Input wires on tier `t+1`'s switch owned by each tier-`t` fabric.
    ///
    /// # Panics
    /// If `t` is the last tier (it has no uplink).
    pub fn link_ports(&self, t: usize) -> usize {
        assert!(t + 1 < self.tiers.len(), "tier {t} is the spine");
        self.tiers[t + 1].switch.n / self.tiers[t].fabrics
    }

    /// Where external source `source` enters the tree: `(leaf fabric,
    /// input wire on that leaf's switch)`. A pure hash of the source id
    /// ([`switchsim::mix64`], the traffic layer's user→wire hash).
    pub fn ingress(&self, source: u64) -> (usize, usize) {
        let h = switchsim::mix64(source);
        let leaf = ((h >> 32) as usize) % self.tiers[0].fabrics;
        let wire = (h as u32 as usize) % self.tiers[0].switch.n;
        (leaf, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};

    fn leaf_switch() -> Arc<StagedSwitch> {
        Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }

    fn two_tier() -> TierTopology {
        TierTopology::new(vec![
            TierSpec {
                fabrics: 2,
                switch: leaf_switch(),
                config: FabricConfig::new(1),
            },
            TierSpec {
                fabrics: 1,
                switch: leaf_switch(),
                config: FabricConfig::new(1),
            },
        ])
    }

    #[test]
    fn ingress_is_a_stable_full_range_hash() {
        let topology = two_tier();
        let mut leaves_hit = [false; 2];
        for source in 0..1000u64 {
            let (leaf, wire) = topology.ingress(source);
            assert_eq!((leaf, wire), topology.ingress(source));
            assert!(leaf < 2 && wire < 16);
            leaves_hit[leaf] = true;
        }
        assert!(leaves_hit.iter().all(|&h| h), "hash never spread leaves");
    }

    #[test]
    #[should_panic(expected = "input wires")]
    fn too_many_uplinks_are_rejected() {
        TierTopology::new(vec![
            TierSpec {
                fabrics: 32,
                switch: leaf_switch(),
                config: FabricConfig::new(1),
            },
            TierSpec {
                fabrics: 1,
                switch: leaf_switch(),
                config: FabricConfig::new(1),
            },
        ]);
    }
}

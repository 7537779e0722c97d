//! Replay the committed regression-seed corpus (`seeds.txt`): every
//! `<scenario> <seed>` line is one interleaving that must keep passing
//! every oracle. Seeds that once exposed a bug are appended to the
//! corpus when the bug is fixed, so the exact schedule stays covered.

use std::collections::{HashMap, HashSet};

use simtest::{
    by_name, catalogue, check_lossless, parse_seed_corpus, run_scenario, run_tree_scenario,
    tree_by_name, tree_catalogue, Scenario,
};

const CORPUS: &str = include_str!("../seeds.txt");

/// Every message a scenario's producers offer, id → payload, rebuilt
/// from the workload itself: the trace's frames for trace scenarios,
/// each producer's plan frames otherwise.
fn offered_payloads(scenario: &Scenario) -> HashMap<u64, Vec<u8>> {
    scenario
        .frames()
        .into_iter()
        .flatten()
        .flat_map(|(_, frame)| frame)
        .map(|message| (message.id, message.payload.as_ref().to_vec()))
        .collect()
}

#[test]
fn corpus_covers_every_scenario() {
    let named: HashSet<String> = parse_seed_corpus(CORPUS)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for scenario in catalogue() {
        assert!(
            named.contains(&scenario.name),
            "seeds.txt has no regression seed for scenario `{}`",
            scenario.name
        );
    }
    for scenario in tree_catalogue() {
        assert!(
            named.contains(&scenario.name),
            "seeds.txt has no regression seed for tree scenario `{}`",
            scenario.name
        );
    }
}

#[test]
fn every_corpus_seed_passes_every_oracle() {
    let mut references: HashMap<String, HashMap<u64, Vec<u8>>> = HashMap::new();
    for (name, seed) in parse_seed_corpus(CORPUS) {
        let Some(scenario) = by_name(&name) else {
            // Tree scenarios replay through the tree executor; every
            // oracle (conservation, per-frame reference, capacity,
            // lossless where declared) runs inside it.
            let tree = tree_by_name(&name)
                .unwrap_or_else(|| panic!("seeds.txt names unknown scenario `{name}`"));
            let run = run_tree_scenario(&tree, seed);
            assert!(
                run.passed(),
                "tree regression seed regressed — replay with \
                 `cli sim --scenario {name} --seed {seed}`: {:?}",
                run.violations
            );
            continue;
        };
        let mut run = run_scenario(&scenario, seed);
        if scenario.lossless {
            let expected = references
                .entry(name.clone())
                .or_insert_with(|| offered_payloads(&scenario));
            run.violations
                .extend(check_lossless(expected, &run.completions));
        }
        assert!(
            run.passed(),
            "regression seed regressed — replay with \
             `cli sim --scenario {name} --seed {seed} --trace`: {:?}",
            run.violations
        );
    }
}

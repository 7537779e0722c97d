//! The `verify-1024` workload: one `verify::measure_epsilon` call per
//! round on the 1024→512 Revsort switch, the batch job behind the ε of
//! Lemma 2 and Theorem 3. It bypasses the fabric entirely.

use std::hint::black_box;

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::verify::{adversarial_patterns, measure_epsilon, SplitMix64};
use concentrator::StagedSwitch;
use meshsort::{clean_dirty_split, nearsort_epsilon, SortOrder};
use netlist::{BitMatrix, WORD_BITS};

use crate::measure::{best_of, peak_growth_mib, reset_peak_rss, Clock, Span};
use crate::round::{Kind, Round};

#[derive(Debug, Clone, Copy)]
pub struct VerifySpec {
    pub n: usize,
    pub m: usize,
    pub trials: usize,
}

pub struct VerifyInputs {
    spec: VerifySpec,
    seed: u64,
}

impl VerifyInputs {
    pub fn generate(spec: VerifySpec, seed: u64, scale: u64) -> VerifyInputs {
        VerifyInputs {
            spec: VerifySpec {
                trials: spec.trials / scale as usize,
                ..spec
            },
            seed,
        }
    }

    /// A discarded call over a tenth of the trials on its own switch.
    pub fn warm_up(&self) {
        let VerifySpec { n, m, trials } = self.spec;
        let warm = RevsortSwitch::new(n, m, RevsortLayout::TwoDee);
        black_box(measure_epsilon(warm.staged(), trials / 10, self.seed));
    }

    /// Set up the switch and time one `measure_epsilon` call. A memory
    /// round resets the peak-memory mark just before set-up.
    pub fn round(&self, kind: Kind, clock: &Clock) -> Result<Round, String> {
        let VerifySpec { n, m, trials } = self.spec;
        let base_kib = match kind {
            Kind::Memory => Some(reset_peak_rss()?),
            Kind::Timed | Kind::Traced => None,
        };
        let mut round = Round::default();
        let t = clock.now();
        let switch = RevsortSwitch::new(n, m, RevsortLayout::TwoDee);
        let compile_start = clock.now();
        let elab = switch.staged().trace_logic(false);
        round.compile_s = (clock.now() - compile_start) as f64 * 1e-9;
        round.insns = elab.compiled.insn_count() as u64;
        round.setup_s = (clock.now() - t) as f64 * 1e-9;

        let start = clock.now();
        let report = measure_epsilon(switch.staged(), trials, self.seed);
        let end = clock.now();
        if let Some(base_kib) = base_kib {
            round.peak_rss_mib = peak_growth_mib(base_kib)?;
        }

        let expected_trials = trials + adversarial_patterns(n).len();
        let bound = switch.epsilon_bound();
        let mut failed = 0;
        if report.trials != expected_trials {
            round.violations.push(format!(
                "measure_epsilon ran {} patterns, expected {expected_trials}",
                report.trials
            ));
            failed += 1;
        }
        if report.worst_epsilon > bound {
            round.violations.push(format!(
                "worst ε {} exceeds the proven bound {bound}",
                report.worst_epsilon
            ));
            failed += 1;
        }
        round.items = report.trials as u64;
        round.attempted = report.trials as u64;
        round.failed = failed;
        round.epsilon = Some(report.worst_epsilon);
        round.active_s = (end - start) as f64 * 1e-9;
        round.set_latencies(vec![end - start]);
        if kind == Kind::Traced {
            round.spans.push(Span {
                name: "concentrator.verify.measure_epsilon",
                start_ns: start,
                end_ns: end,
                parent: None,
                id: 0,
            });
            self.trace_layers(
                switch.staged(),
                end - start,
                report.worst_epsilon,
                clock,
                &mut round,
            );
        }
        Ok(round)
    }

    /// Attribute the call's time by re-executing two of its parts, best of
    /// three, on blocks of the same shape: the `eval_matrix` sweep and the
    /// meshsort analysis of the output columns. What the call spends
    /// beyond them — pattern generation and packing, which the program
    /// keeps private — is the remainder. `eval_matrix` runs the same
    /// instruction stream whatever the bits are, so the blocks hold random
    /// patterns at the call's densities rather than the call's own. The
    /// spans of the repeated parts are laid end to end.
    fn trace_layers(
        &self,
        switch: &StagedSwitch,
        call_ns: u64,
        worst_epsilon: usize,
        clock: &Clock,
        round: &mut Round,
    ) {
        /// Patterns per block, as `measure_epsilon` screens them.
        const BLOCK: usize = 2048;
        const DENSITIES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
        let n = switch.n;
        let total = self.spec.trials + adversarial_patterns(n).len();
        let elab = switch.trace_logic(false);
        let mut rng = SplitMix64(self.seed);
        let mut random_block = |count: usize| {
            BitMatrix::from_fn(n, count, |_, v| {
                rng.bernoulli(DENSITIES[v % DENSITIES.len()])
            })
        };
        let mut block = random_block(BLOCK.min(total));
        let (mut eval_ns, mut analysis_ns, mut words) = (0u64, 0u64, 0u64);
        let mut base = 0usize;
        while base < total {
            let count = BLOCK.min(total - base);
            if count != block.vectors() {
                block = random_block(count);
            }
            let t0 = clock.now();
            let mut out = None;
            let eval = best_of(clock, || {
                out = Some(elab.compiled.eval_matrix(black_box(&block)))
            });
            let out = out.expect("evaluated");
            let analysis = best_of(clock, || {
                for v in 0..count {
                    let bits = out.column(v);
                    black_box(nearsort_epsilon(&bits, SortOrder::Descending));
                    black_box(clean_dirty_split(&bits));
                }
            });
            let (t1, t2) = (t0 + eval, t0 + eval + analysis);
            eval_ns += eval;
            analysis_ns += analysis;
            words += count.div_ceil(WORD_BITS) as u64;
            round.spans.extend(
                [
                    ("netlist.compile.eval_matrix", t0, t1),
                    ("meshsort.analysis", t1, t2),
                ]
                .map(|(name, start_ns, end_ns)| Span {
                    name,
                    start_ns,
                    end_ns,
                    parent: None,
                    id: base as u64,
                }),
            );
            base += count;
        }
        let vectors = total as f64;
        let other_ns = call_ns as f64 - (eval_ns + analysis_ns) as f64;
        let layers = &mut round.layers;
        layers.insert("pipeline.input_ns_per_item".into(), 0.0);
        layers.insert(
            "pipeline.control_ns_per_item".into(),
            analysis_ns as f64 / vectors,
        );
        layers.insert(
            "pipeline.datapath_ns_per_item".into(),
            eval_ns as f64 / vectors,
        );
        layers.insert("pipeline.other_ns_per_item".into(), other_ns / vectors);
        layers.insert("pipeline.busy_ns_per_item".into(), call_ns as f64 / vectors);
        layers.insert(
            "netlist.compile.sweep_ns_per_word".into(),
            eval_ns as f64 / words as f64,
        );
        layers.insert(
            "netlist.compile.items_per_sweep".into(),
            vectors / words as f64,
        );
        layers.insert("fabric.shard.max_pending".into(), 0.0);
        layers.insert("fabric.shard.retries".into(), 0.0);
        layers.insert("fabric.service.parked_frac".into(), 0.0);
        layers.insert("tiers.link.forward_stalls".into(), 0.0);
        layers.insert("verify.worst_epsilon".into(), worst_epsilon as f64);
    }
}

//! An exact analytical model of the drop-policy concentration stage —
//! simulation's sanity anchor.
//!
//! The VLSI report this paper appeared in pairs every simulator with an
//! analytical model ("an analytical model of latency … that agrees with
//! network simulation results to within 5%"). For the concentration stage
//! under Bernoulli offers and the drop policy, the per-frame state is
//! memoryless, so the model is *exact*, not approximate: offered load is
//! `Binomial(n, p)` and the switch delivers `min(k, capacity(k))`
//! messages, where `capacity` reflects the worst-case guarantee or the
//! measured typical behavior.
//!
//! The binomial is evaluated with a stable multiplicative recurrence (no
//! factorials), so the model stays exact at n in the thousands.

use serde::{Deserialize, Serialize};

/// Predicted per-frame statistics for the drop policy under
/// `Bernoulli(p)` offers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropModelPrediction {
    /// Expected messages offered per frame, `n·p`.
    pub offered_per_frame: f64,
    /// Expected messages delivered per frame.
    pub delivered_per_frame: f64,
    /// Expected delivery ratio.
    pub delivery_ratio: f64,
}

/// Binomial(n, p) probability mass function as a vector over `0..=n`,
/// via the multiplicative recurrence
/// `P(k+1) = P(k) · (n−k)/(k+1) · p/(1−p)`.
pub fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut pmf = vec![0.0; n + 1];
    if p == 0.0 {
        pmf[0] = 1.0;
        return pmf;
    }
    if p == 1.0 {
        pmf[n] = 1.0;
        return pmf;
    }
    // Start at the mode-side anchor k = 0 in log space for stability.
    let log_q = (1.0 - p).ln();
    pmf[0] = (n as f64 * log_q).exp();
    let ratio = p / (1.0 - p);
    for k in 0..n {
        pmf[k + 1] = pmf[k] * (n - k) as f64 / (k + 1) as f64 * ratio;
    }
    // Renormalize the tiny drift of the recurrence.
    let total: f64 = pmf.iter().sum();
    if total > 0.0 {
        for value in &mut pmf {
            *value /= total;
        }
    }
    pmf
}

/// Predict the drop-policy stage exactly, given the switch's per-frame
/// delivery function `delivered(k)` (how many of `k` offered messages get
/// paths — use the guarantee for a worst-case model or a measured curve
/// for a typical-case model).
pub fn predict_drop<F: Fn(usize) -> usize>(n: usize, p: f64, delivered: F) -> DropModelPrediction {
    let pmf = binomial_pmf(n, p);
    let mut expected_delivered = 0.0;
    for (k, &prob) in pmf.iter().enumerate() {
        expected_delivered += prob * delivered(k) as f64;
    }
    let offered = n as f64 * p;
    DropModelPrediction {
        offered_per_frame: offered,
        delivered_per_frame: expected_delivered,
        delivery_ratio: if offered == 0.0 {
            1.0
        } else {
            expected_delivered / offered
        },
    }
}

/// Measure a switch's *expected* delivery curve `E[delivered | k]` by
/// averaging over random placements of `k` messages (the analytic model's
/// one empirical input, since delivery depends on positions, not just
/// counts).
pub fn measure_delivery_curve<S: concentrator::spec::ConcentratorSwitch + ?Sized>(
    switch: &S,
    samples_per_k: usize,
    seed: u64,
) -> Vec<f64> {
    let n = switch.inputs();
    let mut curve = Vec::with_capacity(n + 1);
    let mut rng = concentrator::verify::SplitMix64(seed);
    for k in 0..=n {
        if k == 0 {
            curve.push(0.0);
            continue;
        }
        let mut total = 0usize;
        for _ in 0..samples_per_k {
            // Random k-subset via partial Fisher-Yates.
            let mut positions: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + (rng.next_u64() as usize) % (n - i);
                positions.swap(i, j);
            }
            let mut valid = vec![false; n];
            for &pos in &positions[..k] {
                valid[pos] = true;
            }
            total += switch.route(&valid).routed();
        }
        curve.push(total as f64 / samples_per_k as f64);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, tick_frames};
    use crate::{ConcentrationStage, CongestionPolicy, TraceModel};
    use concentrator::spec::ConcentratorSwitch;
    use concentrator::{ColumnsortSwitch, Hyperconcentrator};

    #[test]
    fn binomial_pmf_is_a_distribution_with_right_mean() {
        for (n, p) in [
            (10usize, 0.3f64),
            (100, 0.5),
            (1000, 0.05),
            (7, 0.0),
            (7, 1.0),
        ] {
            let pmf = binomial_pmf(n, p);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}, p={p}: total {total}");
            let mean: f64 = pmf.iter().enumerate().map(|(k, &q)| k as f64 * q).sum();
            assert!(
                (mean - n as f64 * p).abs() < 1e-6,
                "n={n}, p={p}: mean {mean}"
            );
        }
    }

    #[test]
    fn hyperconcentrator_model_is_exact() {
        // For a full hyperconcentrator m = n, delivered(k) = k exactly.
        let n = 32;
        let prediction = predict_drop(n, 0.4, |k| k);
        assert!((prediction.delivery_ratio - 1.0).abs() < 1e-12);
        assert!((prediction.delivered_per_frame - 12.8).abs() < 1e-9);
    }

    #[test]
    fn truncated_hyper_model_matches_simulation_tightly() {
        // min(k, m) is the exact delivery of a truncated hyperconcentrator.
        struct Trunc(Hyperconcentrator, usize);
        impl ConcentratorSwitch for Trunc {
            fn inputs(&self) -> usize {
                self.0.inputs()
            }
            fn outputs(&self) -> usize {
                self.1
            }
            fn kind(&self) -> concentrator::ConcentratorKind {
                concentrator::ConcentratorKind::Perfect
            }
            fn route(&self, valid: &[bool]) -> concentrator::Routing {
                let full = self.0.route(valid);
                let assignment = full
                    .assignment
                    .into_iter()
                    .map(|a| a.filter(|&o| o < self.1))
                    .collect();
                concentrator::Routing::from_assignment(assignment, self.1)
            }
        }
        let n = 64;
        let m = 16;
        let switch = Trunc(Hyperconcentrator::new(n), m);
        let p = 0.4;
        let prediction = predict_drop(n, p, |k| k.min(m));

        let traffic = generate(TraceModel::Bernoulli { p }, n, 3000, 0, 0xA11A);
        let mut stage = ConcentrationStage::new(&switch, CongestionPolicy::Drop);
        let report = stage.run(tick_frames(&traffic, n, 3000));
        let simulated = report.stats.delivered as f64 / report.stats.frames as f64;
        let relative =
            (simulated - prediction.delivered_per_frame).abs() / prediction.delivered_per_frame;
        assert!(
            relative < 0.05,
            "model {} vs simulation {simulated} ({relative:.3} off)",
            prediction.delivered_per_frame
        );
    }

    #[test]
    fn measured_curve_model_matches_partial_concentrator_simulation() {
        let switch = ColumnsortSwitch::new(8, 4, 8);
        let curve = measure_delivery_curve(&switch, 60, 0xC11);
        let p = 0.5;
        let prediction = predict_drop(32, p, |k| curve[k].round() as usize);

        let traffic = generate(TraceModel::Bernoulli { p }, 32, 4000, 0, 0xB22);
        let mut stage = ConcentrationStage::new(&switch, CongestionPolicy::Drop);
        let report = stage.run(tick_frames(&traffic, 32, 4000));
        let simulated = report.stats.delivered as f64 / report.stats.frames as f64;
        let relative = (simulated - prediction.delivered_per_frame).abs() / simulated;
        assert!(
            relative < 0.05,
            "model {} vs simulation {simulated}",
            prediction.delivered_per_frame
        );
    }

    #[test]
    fn delivery_curve_is_monotone_and_bounded() {
        let switch = ColumnsortSwitch::new(8, 2, 10);
        let curve = measure_delivery_curve(&switch, 40, 0xD33);
        assert_eq!(curve.len(), 17);
        assert_eq!(curve[0], 0.0);
        for w in curve.windows(2) {
            assert!(w[1] + 1e-9 >= w[0], "curve must be nondecreasing");
        }
        assert!(curve.iter().all(|&d| d <= 10.0));
    }
}

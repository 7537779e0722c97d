//! Service configuration: shard placement, queue bounds, backpressure,
//! admission control, and retry budgets.

use serde::{Deserialize, Serialize};
use switchsim::CongestionPolicy;

/// How submitted messages are spread across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Each message goes to the next shard in rotation — even load, but a
    /// source's messages interleave across shards.
    RoundRobin,
    /// Shard chosen by hashing the message's source wire — all traffic
    /// from one source lands on one shard (preserves per-source FIFO
    /// delivery order, but skewed sources skew the shards).
    SourceHash,
}

impl Placement {
    /// The shard index for a message from `source`, given `shards` shards
    /// and the round-robin `cursor` (ignored by [`Placement::SourceHash`]).
    pub fn place(self, source: usize, cursor: usize, shards: usize) -> usize {
        debug_assert!(shards > 0);
        match self {
            Placement::RoundRobin => cursor % shards,
            // Fibonacci hashing: spreads consecutive sources uniformly
            // and deterministically.
            Placement::SourceHash => {
                ((source as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
            }
        }
    }
}

/// What happens when a message arrives at a full ingress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backpressure {
    /// The submitter waits for space. A non-blocking submission
    /// ([`ServiceCore::try_submit`](crate::ServiceCore::try_submit), and so
    /// [`Fabric::submit`](crate::Fabric::submit)) hands the message back
    /// as [`SubmitStep::Blocked`](crate::SubmitStep) with its placement, to
    /// be re-offered through `retry_submit`; the threaded service's
    /// `submit` blocks on the ring instead.
    Block,
    /// The oldest queued message is dropped to admit the new one.
    ShedOldest,
    /// The new message is rejected.
    Reject,
}

/// How many extra send attempts an unrouted (congested) message is
/// granted before the fabric drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryBudget {
    /// `None` means retry until delivered (the queue bound is the only
    /// limit); `Some(k)` allows `k` re-offers after the first attempt.
    pub budget: Option<usize>,
}

impl RetryBudget {
    /// Retry until delivered.
    pub const UNLIMITED: RetryBudget = RetryBudget { budget: None };

    /// Exactly `k` re-offers after the first attempt.
    pub const fn limited(k: usize) -> RetryBudget {
        RetryBudget { budget: Some(k) }
    }

    /// Whether a message that has already made `attempts` unsuccessful
    /// attempts may be re-offered.
    pub fn allows(self, attempts: usize) -> bool {
        match self.budget {
            None => true,
            Some(k) => attempts <= k,
        }
    }
}

/// The fabric honours the paper's §1 congestion-control taxonomy: each
/// [`CongestionPolicy`] maps onto a retry budget with the same semantics
/// (drop = no retries, input buffering = retry while queued, ack-resend =
/// a bounded resend budget).
impl From<CongestionPolicy> for RetryBudget {
    fn from(policy: CongestionPolicy) -> RetryBudget {
        match policy {
            CongestionPolicy::Drop => RetryBudget::limited(0),
            CongestionPolicy::InputBuffer { .. } => RetryBudget::UNLIMITED,
            CongestionPolicy::AckResend { max_retries } => RetryBudget::limited(max_retries),
        }
    }
}

/// Shard health monitoring and quarantine thresholds.
///
/// Every executed frame updates a per-shard delivery-health EWMA: the
/// frame's delivered count over what the switch's analytic capacity bound
/// says it *should* have delivered (`min(batched, ⌊α·m⌋)` for a partial
/// concentrator of guarantee `α` — Lemma 2's capacity floor — and
/// `min(batched, m)` otherwise). A healthy shard holds the EWMA near 1;
/// chip faults pull it down. Once the EWMA has `min_frames` of history
/// and sinks below `quarantine_below`, the shard is quarantined: it keeps
/// draining its own backlog, but placement steers *new* traffic to
/// healthy shards. Recovery uses a higher threshold (`recover_above`),
/// the usual hysteresis so a borderline shard does not flap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// EWMA weight of the newest frame, in `(0, 1]`.
    pub alpha: f64,
    /// Enter quarantine when the EWMA drops below this.
    pub quarantine_below: f64,
    /// Leave quarantine when the EWMA recovers above this (hysteresis;
    /// should exceed `quarantine_below`).
    pub recover_above: f64,
    /// Executed frames before the EWMA is trusted for quarantine calls.
    pub min_frames: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            alpha: 0.25,
            quarantine_below: 0.7,
            recover_above: 0.85,
            min_frames: 4,
        }
    }
}

impl HealthPolicy {
    /// Validate invariants.
    ///
    /// # Panics
    /// If the smoothing weight or thresholds are out of range.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "EWMA weight must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.quarantine_below),
            "quarantine threshold must be in [0, 1]"
        );
        assert!(
            self.recover_above >= self.quarantine_below,
            "recovery threshold below quarantine threshold would flap"
        );
    }
}

/// Full configuration of a fabric instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Independent switch-serving shards at startup.
    pub shards: usize,
    /// Upper bound on concurrently pre-allocated shard lanes: the elastic
    /// control plane ([`crate::reconfig`]) can grow the fabric up to this
    /// many shards at runtime. Lanes are monotonic — a removed shard's
    /// lane retires rather than being reused — so this also bounds the
    /// number of `add_shard` operations over the service's lifetime.
    pub max_shards: usize,
    /// Message → shard placement.
    pub placement: Placement,
    /// Per-shard ingress ring bound: fresh messages not yet taken in by
    /// the shard's worker. A shard's retry backlog does not count.
    pub queue_capacity: usize,
    /// Policy at a full ingress queue.
    pub backpressure: Backpressure,
    /// Admission control: reject outright once this many messages are in
    /// flight across the whole fabric, regardless of per-queue headroom.
    /// `None` disables the global cap.
    pub admission_limit: Option<usize>,
    /// Re-offer budget for congestion losers.
    pub retry: RetryBudget,
    /// Shard health monitoring and quarantine thresholds.
    pub health: HealthPolicy,
}

impl FabricConfig {
    /// A sensible default: round-robin over `shards` shards, 1024-deep
    /// queues, blocking backpressure, unlimited retries (input-buffer
    /// semantics), no global admission cap.
    pub fn new(shards: usize) -> FabricConfig {
        FabricConfig {
            shards,
            max_shards: shards,
            placement: Placement::RoundRobin,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
            admission_limit: None,
            retry: RetryBudget::UNLIMITED,
            health: HealthPolicy::default(),
        }
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// If `shards` or `queue_capacity` is zero.
    pub fn validate(&self) {
        assert!(self.shards > 0, "need at least one shard");
        assert!(
            self.max_shards >= self.shards,
            "max_shards must cover the startup shard count"
        );
        assert!(self.queue_capacity > 0, "queue capacity must be positive");
        if let Some(limit) = self.admission_limit {
            assert!(limit > 0, "admission limit must be positive");
        }
        self.health.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_policies_map_to_retry_budgets() {
        assert_eq!(
            RetryBudget::from(CongestionPolicy::Drop),
            RetryBudget::limited(0)
        );
        assert_eq!(
            RetryBudget::from(CongestionPolicy::InputBuffer { capacity: 4 }),
            RetryBudget::UNLIMITED
        );
        assert_eq!(
            RetryBudget::from(CongestionPolicy::AckResend { max_retries: 3 }),
            RetryBudget::limited(3)
        );
    }

    #[test]
    fn retry_budget_allows() {
        assert!(!RetryBudget::limited(0).allows(1));
        assert!(RetryBudget::limited(2).allows(2));
        assert!(!RetryBudget::limited(2).allows(3));
        assert!(RetryBudget::UNLIMITED.allows(usize::MAX));
    }

    #[test]
    fn round_robin_cycles_and_hash_is_stable() {
        let placed: Vec<usize> = (0..6)
            .map(|c| Placement::RoundRobin.place(0, c, 3))
            .collect();
        assert_eq!(placed, vec![0, 1, 2, 0, 1, 2]);
        for source in 0..64 {
            let a = Placement::SourceHash.place(source, 0, 4);
            let b = Placement::SourceHash.place(source, 17, 4);
            assert_eq!(a, b, "hash placement ignores the cursor");
            assert!(a < 4);
        }
        // The hash spreads 64 consecutive sources over all 4 shards.
        let mut seen = [false; 4];
        for source in 0..64 {
            seen[Placement::SourceHash.place(source, 0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let mut config = FabricConfig::new(1);
        config.shards = 0;
        config.max_shards = 0;
        config.validate();
    }

    #[test]
    #[should_panic(expected = "max_shards must cover")]
    fn max_shards_below_startup_rejected() {
        let mut config = FabricConfig::new(4);
        config.max_shards = 2;
        config.validate();
    }
}

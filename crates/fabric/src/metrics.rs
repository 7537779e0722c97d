//! Per-shard metrics: counters plus log-bucketed latency histograms,
//! snapshotted to JSON.
//!
//! The histogram generalizes `switchsim::Stats::wait_histogram` (linear,
//! 33 buckets) to logarithmic buckets, so a fabric that keeps messages
//! waiting for thousands of frames still resolves its tail: bucket 0
//! holds zero-frame waits and bucket `k ≥ 1` holds waits in
//! `[2^(k-1), 2^k)`, with the final bucket absorbing everything beyond.
//! Percentiles carry the same saturation flag as
//! `Stats::wait_percentile_bounded`: a percentile landing in the absorbing
//! bucket is only a lower bound.

use serde::{Deserialize, Serialize};
use serde_json::{object, ToJson, Value};

/// A log₂-bucketed histogram of non-negative integer samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// `buckets[0]` counts zeros; `buckets[k]` counts samples in
    /// `[2^(k-1), 2^k)`; the last bucket absorbs the overflow.
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; Self::BUCKETS],
            total: 0,
        }
    }
}

impl LogHistogram {
    /// Bucket count: zeros, 30 doubling ranges, one absorbing bucket.
    pub const BUCKETS: usize = 32;

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(Self::BUCKETS - 1)
        }
    }

    /// The smallest sample value a bucket can hold.
    pub fn bucket_floor(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1 << (bucket - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.total = self.total.saturating_add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.total as f64 / count as f64
        }
    }

    /// The p-th percentile (0 < p ≤ 100) as `(floor, saturated)`: the
    /// lower edge of the bucket the percentile lands in, and whether that
    /// bucket is the absorbing final one (making the value a lower bound).
    pub fn percentile(&self, p: f64) -> (u64, bool) {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let count = self.count();
        if count == 0 {
            return (0, false);
        }
        let threshold = (p / 100.0 * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bucket, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= threshold {
                return (Self::bucket_floor(bucket), bucket == Self::BUCKETS - 1);
            }
        }
        (Self::bucket_floor(Self::BUCKETS - 1), true)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// The bucket-wise difference `self - baseline`, saturating at zero:
    /// the histogram of samples recorded *since* `baseline` was captured,
    /// assuming `baseline` is an earlier snapshot of the same monotone
    /// counters. The SLO controller uses this to read interval (not
    /// lifetime) tail latency from cumulative wait histograms.
    pub fn delta(&self, baseline: &LogHistogram) -> LogHistogram {
        let mut out = LogHistogram::default();
        for (bucket, (mine, theirs)) in self.buckets.iter().zip(&baseline.buckets).enumerate() {
            out.buckets[bucket] = mine.saturating_sub(*theirs);
        }
        out.total = self.total.saturating_sub(baseline.total);
        out
    }
}

impl ToJson for LogHistogram {
    fn to_json(&self) -> Value {
        let (p50, p50_lb) = self.percentile(50.0);
        let (p99, p99_lb) = self.percentile(99.0);
        object([
            ("count", self.count().to_json()),
            ("mean", self.mean().to_json()),
            ("p50", p50.to_json()),
            ("p50_is_lower_bound", p50_lb.to_json()),
            ("p99", p99.to_json()),
            ("p99_is_lower_bound", p99_lb.to_json()),
            ("buckets", self.buckets.to_json()),
        ])
    }
}

/// Counters for one shard (or, merged, for a whole fabric).
///
/// The conservation identity every fabric mode maintains:
/// `offered = delivered + rejected + shed + retry_dropped + in-flight`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMetrics {
    /// Messages directed at this shard (accepted or not).
    pub offered: u64,
    /// Messages refused at admission (full queue under
    /// [`Backpressure::Reject`](crate::Backpressure), or the global
    /// admission cap).
    pub rejected: u64,
    /// Queued messages dropped to make room for newer arrivals
    /// ([`Backpressure::ShedOldest`](crate::Backpressure)).
    pub shed: u64,
    /// Messages delivered to an output wire.
    pub delivered: u64,
    /// Messages dropped after exhausting their retry budget.
    pub retry_dropped: u64,
    /// Re-offers of congestion losers (attempts beyond the first).
    pub retries: u64,
    /// Routing frames executed.
    pub frames: u64,
    /// Compiled netlist lane-group sweeps dispatched (one sweep moves up
    /// to 8 lane words of 64 payload cycles each).
    pub sweeps: u64,
    /// Largest pending-queue depth observed.
    pub max_pending: u64,
    /// Delivery-health EWMA in thousandths (1000 = meeting the analytic
    /// capacity bound). Zero only before the shard has executed a frame;
    /// merged snapshots report the *worst* shard.
    pub health_milli: u64,
    /// Times the shard entered quarantine.
    pub quarantines: u64,
    /// Frames executed while quarantined.
    pub quarantined_frames: u64,
    /// Chip faults currently injected into the shard's switch.
    pub faults_active: u64,
    /// Frames each delivered message waited from acceptance to delivery.
    pub wait_frames: LogHistogram,
}

impl ShardMetrics {
    /// All terminal outcomes that are not delivery.
    pub fn dropped(&self) -> u64 {
        self.rejected + self.shed + self.retry_dropped
    }

    /// Delivered messages per executed frame.
    pub fn throughput_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.delivered as f64 / self.frames as f64
        }
    }

    /// Delivered messages per compiled sweep — the batching win: the
    /// unbatched baseline pins this at ≤ 1.
    pub fn deliveries_per_sweep(&self) -> f64 {
        if self.sweeps == 0 {
            0.0
        } else {
            self.delivered as f64 / self.sweeps as f64
        }
    }

    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.offered += other.offered;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.delivered += other.delivered;
        self.retry_dropped += other.retry_dropped;
        self.retries += other.retries;
        self.frames += other.frames;
        self.sweeps += other.sweeps;
        self.max_pending = self.max_pending.max(other.max_pending);
        // Health is a gauge, not a counter: a merged view reports the
        // least healthy shard (ignoring shards that never ran a frame).
        self.health_milli = match (self.health_milli, other.health_milli) {
            (0, h) | (h, 0) => h,
            (a, b) => a.min(b),
        };
        self.quarantines += other.quarantines;
        self.quarantined_frames += other.quarantined_frames;
        self.faults_active += other.faults_active;
        self.wait_frames.merge(&other.wait_frames);
    }
}

impl ToJson for ShardMetrics {
    fn to_json(&self) -> Value {
        object([
            ("offered", self.offered.to_json()),
            ("rejected", self.rejected.to_json()),
            ("shed", self.shed.to_json()),
            ("delivered", self.delivered.to_json()),
            ("retry_dropped", self.retry_dropped.to_json()),
            ("retries", self.retries.to_json()),
            ("frames", self.frames.to_json()),
            ("sweeps", self.sweeps.to_json()),
            ("max_pending", self.max_pending.to_json()),
            ("health_milli", self.health_milli.to_json()),
            ("quarantines", self.quarantines.to_json()),
            ("quarantined_frames", self.quarantined_frames.to_json()),
            ("faults_active", self.faults_active.to_json()),
            (
                "deliveries_per_sweep",
                self.deliveries_per_sweep().to_json(),
            ),
            ("wait_frames", self.wait_frames.to_json()),
        ])
    }
}

/// A point-in-time view of a whole fabric: per-shard metrics plus their
/// merge. `PartialEq` makes bit-determinism directly assertable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricSnapshot {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardMetrics>,
    /// Messages still queued (ingress + pending) when the snapshot was
    /// taken; zero after a completed drain.
    pub in_flight: u64,
}

impl FabricSnapshot {
    /// All shards merged into one counter set.
    pub fn totals(&self) -> ShardMetrics {
        let mut totals = ShardMetrics::default();
        for shard in &self.shards {
            totals.merge(shard);
        }
        totals
    }

    /// Whether `offered = delivered + dropped + in_flight` holds.
    pub fn conserved(&self) -> bool {
        let t = self.totals();
        t.offered == t.delivered + t.dropped() + self.in_flight
    }
}

impl ToJson for FabricSnapshot {
    fn to_json(&self) -> Value {
        object([
            ("totals", self.totals().to_json()),
            ("in_flight", self.in_flight.to_json()),
            ("shards", self.shards.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_buckets_partition_the_range() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(
            LogHistogram::bucket_index(u64::MAX),
            LogHistogram::BUCKETS - 1
        );
        // Every bucket's floor indexes back into itself.
        for b in 0..LogHistogram::BUCKETS {
            assert_eq!(LogHistogram::bucket_index(LogHistogram::bucket_floor(b)), b);
        }
    }

    #[test]
    fn percentiles_report_floors_and_saturation() {
        let mut h = LogHistogram::default();
        for _ in 0..90 {
            h.record(0);
        }
        for _ in 0..9 {
            h.record(5); // bucket 3, floor 4
        }
        h.record(u64::MAX); // absorbing bucket
        assert_eq!(h.percentile(50.0), (0, false));
        assert_eq!(h.percentile(99.0), (4, false));
        assert_eq!(
            h.percentile(100.0),
            (LogHistogram::bucket_floor(LogHistogram::BUCKETS - 1), true)
        );
        assert_eq!(LogHistogram::default().percentile(99.0), (0, false));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::default();
        a.record(3);
        let mut b = LogHistogram::default();
        b.record(3);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total, 106);
        assert_eq!(a.buckets[2], 2);
    }

    #[test]
    fn delta_recovers_the_interval() {
        let mut baseline = LogHistogram::default();
        baseline.record(3);
        baseline.record(100);
        let mut later = baseline.clone();
        later.record(7); // bucket 3
        later.record(7);
        let interval = later.delta(&baseline);
        assert_eq!(interval.count(), 2);
        assert_eq!(interval.total, 14);
        assert_eq!(interval.buckets[3], 2);
        assert_eq!(interval.percentile(99.0), (4, false));
        // Delta against a *newer* snapshot saturates instead of wrapping.
        let backwards = baseline.delta(&later);
        assert_eq!(backwards.count(), 0);
    }

    #[test]
    fn snapshot_conservation_and_json() {
        let mut shard = ShardMetrics {
            offered: 10,
            rejected: 1,
            shed: 2,
            delivered: 5,
            retry_dropped: 1,
            ..ShardMetrics::default()
        };
        shard.wait_frames.record(0);
        let snapshot = FabricSnapshot {
            shards: vec![shard],
            in_flight: 1,
        };
        assert!(snapshot.conserved());
        let json = serde_json::to_string_pretty(&snapshot).unwrap();
        let value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["totals"]["offered"].as_u64(), Some(10));
        assert_eq!(value["in_flight"].as_u64(), Some(1));
        assert_eq!(value["shards"].as_array().map(Vec::len), Some(1));
    }
}

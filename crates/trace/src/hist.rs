//! A hand-rolled, mergeable, log-bucketed latency histogram (HDR-style)
//! for service telemetry: atomic buckets, no locks on the record path,
//! bounded-error quantiles.
//!
//! # Bucket layout
//!
//! Values are nanoseconds (any `u64` works). The first
//! [`SUB_BUCKETS`] buckets are unit-width (values `0..16` are exact);
//! above that, each power-of-two range is split into [`SUB_BUCKETS`]
//! linear sub-buckets, so the bucket holding value `v` is never wider
//! than `v / 16`. That bounds the relative quantile error at
//! `1/SUB_BUCKETS` (6.25%) while keeping the whole table at
//! [`NUM_BUCKETS`] (976) buckets — small enough to hold one histogram
//! per request stage without caring.
//!
//! # Concurrency
//!
//! [`Histogram::record`] is a handful of relaxed atomic RMWs — no locks,
//! no allocation — so it is safe on the hottest server paths.
//! [`Histogram::snapshot`] reads the buckets without stopping writers;
//! a snapshot taken during concurrent recording is a consistent-enough
//! point-in-time view (each bucket individually exact, totals re-derived
//! from the buckets).
//!
//! # Snapshots are a commutative monoid
//!
//! [`HistSnapshot::merge`] adds bucket-wise and is associative and
//! commutative (property-tested in this module), so per-shard histograms
//! can be combined in any grouping. [`HistSnapshot::delta`] subtracts an
//! earlier snapshot from a later one of the *same* histogram, which is
//! how `snslp-top` and perfbench's serve phase turn lifetime server
//! counters into per-window latency distributions.
//!
//! The exact nearest-rank [`percentile`] lives here too — next to the
//! approximation it bounds — and perfbench uses it for its client-side
//! latency series.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two range; also the number of exact
/// unit-width buckets at the bottom of the table.
pub const SUB_BUCKETS: usize = 16;

/// Total bucket count: 16 exact buckets for `0..16`, then 16 sub-buckets
/// for each of the 60 power-of-two ranges `[2^4, 2^64)`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// The bucket index holding `v`.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    // v >= 16, so the leading bit position is >= 4.
    let exp = 63 - v.leading_zeros() as usize;
    let group = exp - 4;
    let sub = ((v >> group) & 0xF) as usize;
    SUB_BUCKETS + group * SUB_BUCKETS + sub
}

/// The smallest value filed into bucket `idx`.
#[inline]
#[must_use]
pub fn bucket_lo(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let group = (idx - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((idx - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << group
}

/// The width of bucket `idx`: every value in the bucket is in
/// `[bucket_lo(idx), bucket_lo(idx) + bucket_width(idx))`.
#[inline]
#[must_use]
pub fn bucket_width(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        1
    } else {
        1u64 << ((idx - SUB_BUCKETS) / SUB_BUCKETS)
    }
}

/// A concurrent log-bucketed histogram. All methods are lock-free; see
/// the module docs for the bucket layout and error bound.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Files one observation. Relaxed atomic RMWs only — safe on the
    /// record path of a loaded server.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the whole distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, immutable copy of a [`Histogram`]: the unit that is merged
/// across shards, subtracted across time, serialized into the
/// `snslpd-telemetry/v1` snapshot, and queried for quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Dense per-bucket counts, `NUM_BUCKETS` long.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// An all-zero snapshot (the merge identity).
    #[must_use]
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Nearest-rank quantile, `p` in `[0, 100]`, returned as the lower
    /// bound of the bucket holding the rank'th observation. The exact
    /// nearest-rank value lies in the same bucket, so the result is
    /// never above it and never more than one bucket width below it
    /// (relative error at most `1/SUB_BUCKETS`). Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_lo(idx);
            }
        }
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds another snapshot into this one, bucket-wise. Associative and
    /// commutative, so shard histograms merge in any grouping.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// The distribution recorded between `earlier` and `self` (two
    /// snapshots of the *same* histogram, `self` taken later).
    /// Bucket-wise saturating subtraction; `min`/`max` are re-derived
    /// from the surviving buckets, so they are bucket-rounded rather
    /// than exact — fine for the phase summaries this feeds.
    #[must_use]
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        let first = buckets.iter().position(|&c| c > 0);
        let last = buckets.iter().rposition(|&c| c > 0);
        HistSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            min: first.map_or(0, bucket_lo),
            max: last.map_or(0, |i| bucket_lo(i) + bucket_width(i) - 1),
            buckets,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted series. `p` in
/// `[0, 100]`. Returns 0 for an empty series. This is the *exact*
/// counterpart of [`HistSnapshot::quantile`] — the property tests below
/// hold the approximation to within one bucket width of this function.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the same tiny deterministic PRNG the fuzz crate
    /// seeds itself with; enough randomness for property tests without
    /// any dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A value whose magnitude spans the full latency range (ns to
        /// minutes), so every bucket group gets exercised.
        fn latency(&mut self) -> u64 {
            let shift = self.next() % 40;
            self.next() % (1u64 << (shift + 4))
        }
    }

    #[test]
    fn bucket_geometry_is_consistent() {
        // Every index maps back into itself, lo is the smallest member,
        // and widths bound the relative error at 1/SUB_BUCKETS.
        for idx in 0..NUM_BUCKETS {
            let lo = bucket_lo(idx);
            let w = bucket_width(idx);
            assert_eq!(bucket_index(lo), idx, "lo of bucket {idx}");
            if w > 1 {
                assert_eq!(bucket_index(lo + (w - 1)), idx, "hi of bucket {idx}");
            }
            if lo >= SUB_BUCKETS as u64 {
                assert!(w * SUB_BUCKETS as u64 <= lo, "width bound at {idx}");
            }
        }
        // Adjacent buckets tile the line with no gaps.
        for idx in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_lo(idx) + bucket_width(idx), bucket_lo(idx + 1));
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_one_bucket() {
        // Property: for random value sets of many shapes, the histogram
        // quantile equals the lower bound of the bucket holding the
        // exact nearest-rank sample — i.e. never above the exact value
        // and less than one bucket width below it.
        let mut rng = SplitMix(0x7E1E_AB1E);
        for case in 0..50 {
            let n = 1 + (rng.next() % 400) as usize;
            let hist = Histogram::new();
            let mut values: Vec<u64> = (0..n).map(|_| rng.latency()).collect();
            for &v in &values {
                hist.record(v);
            }
            values.sort_unstable();
            let sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            let snap = hist.snapshot();
            assert_eq!(snap.count, n as u64);
            assert_eq!(snap.min, values[0]);
            assert_eq!(snap.max, *values.last().unwrap());
            for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let exact = percentile(&sorted, p) as u64;
                let approx = snap.quantile(p);
                let width = bucket_width(bucket_index(exact));
                assert!(
                    approx <= exact && exact - approx < width,
                    "case {case}: p{p} exact {exact} approx {approx} width {width}"
                );
            }
        }
    }

    #[test]
    fn merge_is_associative_and_commutative_over_random_shards() {
        let mut rng = SplitMix(0x5EED);
        for _ in 0..20 {
            // Random observations dealt onto random shards.
            let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
            let all = Histogram::new();
            for _ in 0..200 {
                let v = rng.latency();
                shards[(rng.next() % 4) as usize].record(v);
                all.record(v);
            }
            let snaps: Vec<HistSnapshot> = shards.iter().map(Histogram::snapshot).collect();

            // Left fold, right fold, and a split-merge tree must agree
            // with each other and with the unsharded histogram.
            let fold = |order: &[usize]| {
                let mut acc = HistSnapshot::empty();
                for &i in order {
                    acc.merge(&snaps[i]);
                }
                acc
            };
            let left = fold(&[0, 1, 2, 3]);
            let right = fold(&[3, 2, 1, 0]);
            let mut tree_a = snaps[0].clone();
            tree_a.merge(&snaps[1]);
            let mut tree_b = snaps[2].clone();
            tree_b.merge(&snaps[3]);
            let mut tree = tree_a;
            tree.merge(&tree_b);
            assert_eq!(left, right);
            assert_eq!(left, tree);
            assert_eq!(left, all.snapshot());
        }
    }

    #[test]
    fn delta_recovers_the_recorded_window() {
        let hist = Histogram::new();
        hist.record(100);
        hist.record(2_000);
        let before = hist.snapshot();
        hist.record(100);
        hist.record(40_000);
        let after = hist.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 40_100);
        assert_eq!(delta.buckets[bucket_index(100)], 1);
        assert_eq!(delta.buckets[bucket_index(40_000)], 1);
        // min/max are bucket-rounded.
        assert_eq!(delta.min, bucket_lo(bucket_index(100)));
        assert!(delta.max >= 40_000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
    }

    #[test]
    fn empty_and_single_value_edges() {
        let snap = HistSnapshot::empty();
        assert_eq!(snap.quantile(50.0), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);

        let hist = Histogram::new();
        hist.record(7);
        let snap = hist.snapshot();
        assert_eq!(snap.quantile(0.0), 7);
        assert_eq!(snap.quantile(100.0), 7);
        assert_eq!(snap.min, 7);
        assert_eq!(snap.max, 7);
    }
}

//! Log-linear histogram with *exact*, mergeable buckets.
//!
//! The fleet digest algebra (`iw-sim::fleet`) proves scalar aggregates
//! are topology-invariant; distributions need the same property. A
//! histogram of `u64` values is mergeable bit-exactly iff (a) the
//! bucket boundaries are a pure function of the value — no adaptive
//! resizing, no centroid drift — and (b) merge is element-wise `u64`
//! addition, which is associative and commutative. This module picks
//! the classic log-linear layout (HdrHistogram-style): 16 linear
//! sub-buckets per power-of-two octave, giving ≤ 6.25 % relative error
//! over the full `u64` range with at most 976 buckets, values `< 16`
//! stored exactly.

/// Sub-bucket resolution: each octave `[2^e, 2^{e+1})` is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Maximum bucket index + 1 for any `u64` value (`index(u64::MAX) + 1`).
pub const MAX_BUCKETS: usize = SUB + (63 - SUB_BITS as usize + 1) * SUB;

/// Bucket index for a value: identity below 16, then
/// `16 + (exp − 4)·16 + sub` where `exp` is the position of the leading
/// bit and `sub` the next four bits below it.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + (exp - SUB_BITS) as usize * SUB + sub
    }
}

/// Inclusive `(lower, upper)` value range covered by bucket `i`.
///
/// Exact singletons below 16; otherwise a `2^{exp−4}`-wide slice of the
/// octave. `upper` saturates at `u64::MAX` in the final bucket.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        (i as u64, i as u64)
    } else {
        let exp = SUB_BITS + ((i - SUB) / SUB) as u32;
        let sub = ((i - SUB) % SUB) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        let lower = (SUB as u64 + sub) << (exp - SUB_BITS);
        (lower, lower.saturating_add(width - 1))
    }
}

/// A mergeable log-linear histogram of `u64` values.
///
/// `merge` is element-wise addition on a canonical dense bucket vector
/// (no trailing zeros), so `A ⊕ (B ⊕ C) == (A ⊕ B) ⊕ C` holds
/// *bucket-exactly* — the property the fleet topology test asserts.
/// `sum` is kept in `u128` so it cannot overflow or lose precision;
/// `min`/`max` are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` in one step.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Element-wise merge; exact and associative.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `true` when [`Histogram::merge`] with `other` would overflow a
    /// bucket, the count or the sum (only hand-built or decoded
    /// histograms can get there).
    pub fn merge_overflows(&self, other: &Histogram) -> bool {
        self.count.checked_add(other.count).is_none()
            || self.sum.checked_add(other.sum).is_none()
            || self
                .buckets
                .iter()
                .zip(&other.buckets)
                .any(|(a, b)| a.checked_add(*b).is_none())
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile (`0 ≤ q ≤ 1`),
    /// clamped to the exact observed `min`/`max`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, upper) = bucket_bounds(i);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates the non-empty buckets as `(lower, upper, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, n)
            })
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sparse `(bucket_index, count)` pairs — the wire representation
    /// used by `iw-sim::record`.
    pub fn sparse(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u16, n))
    }

    /// Rebuilds a histogram from its carried scalars and sparse bucket
    /// pairs, validating internal consistency (bucket counts must sum to
    /// `count`, indices must be in range and strictly increasing, and
    /// `min`/`max` must bracket the populated buckets). Returns `None`
    /// on malformed input so codecs can reject corrupt frames.
    pub fn from_parts(
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        pairs: &[(u16, u64)],
    ) -> Option<Histogram> {
        if count == 0 {
            if sum != 0 || min != u64::MAX || max != 0 || !pairs.is_empty() {
                return None;
            }
            return Some(Histogram::new());
        }
        if pairs.is_empty() || min > max {
            return None;
        }
        let mut buckets = Vec::new();
        let mut total = 0u64;
        let mut last: Option<u16> = None;
        for &(i, n) in pairs {
            if (i as usize) >= MAX_BUCKETS || n == 0 || last.is_some_and(|p| p >= i) {
                return None;
            }
            last = Some(i);
            buckets.resize(i as usize + 1, 0);
            buckets[i as usize] = n;
            total = total.checked_add(n)?;
        }
        if total != count {
            return None;
        }
        // min/max must land in the first/last populated buckets.
        let first = pairs[0].0 as usize;
        let last = pairs[pairs.len() - 1].0 as usize;
        if bucket_index(min) != first || bucket_index(max) != last {
            return None;
        }
        Some(Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        })
    }

    /// Raw carried scalars `(count, sum, min, max)` for the codec.
    pub fn scalars(&self) -> (u64, u128, u64, u64) {
        (self.count, self.sum, self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0u64..16 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bounds_invert_index() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            65_535,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} lo={lo} hi={hi}");
            assert!(i < MAX_BUCKETS);
        }
    }

    #[test]
    fn buckets_tile_the_line() {
        // Consecutive buckets must be contiguous: upper(i) + 1 == lower(i+1).
        for i in 0..MAX_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo, "gap between bucket {i} and {}", i + 1);
        }
        assert_eq!(bucket_bounds(MAX_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [100u64, 1_000, 123_456, 1 << 33, (1 << 50) + 12345] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = hi - lo;
            assert!((width as f64) <= v as f64 / 16.0, "v={v} width={width}");
        }
    }

    #[test]
    fn record_merge_and_stats() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            a.record(v);
        }
        for v in [5u64, 1000, 1000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.sum(), 1 + 2 + 3 + 100 + 5 + 1000 + 1000);
        assert_eq!(merged.min(), Some(1));
        assert_eq!(merged.max(), Some(1000));
        assert_eq!(merged.quantile(0.0), Some(1));
        assert_eq!(merged.quantile(1.0), Some(1000));
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), Some(1_000_000));
        assert_eq!(h.min(), Some(1_000_000));
        assert_eq!(h.max(), Some(1_000_000));
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 7, 900, 1 << 20, u64::MAX] {
            h.record_n(v, 3);
        }
        let (count, sum, min, max) = h.scalars();
        let pairs: Vec<_> = h.sparse().collect();
        let back = Histogram::from_parts(count, sum, min, max, &pairs).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn from_parts_rejects_malformed() {
        // count mismatch
        assert!(Histogram::from_parts(3, 0, 1, 1, &[(1, 2)]).is_none());
        // zero-count bucket
        assert!(Histogram::from_parts(1, 1, 1, 1, &[(1, 0)]).is_none());
        // unsorted indices
        assert!(Histogram::from_parts(2, 3, 1, 2, &[(2, 1), (1, 1)]).is_none());
        // out-of-range index
        assert!(Histogram::from_parts(1, 1, 1, 1, &[(u16::MAX, 1)]).is_none());
        // min outside first bucket
        assert!(Histogram::from_parts(1, 5, 0, 5, &[(5, 1)]).is_none());
        // non-empty scalars with empty pairs
        assert!(Histogram::from_parts(1, 1, 1, 1, &[]).is_none());
        // empty histogram must carry the canonical scalars
        assert!(Histogram::from_parts(0, 1, u64::MAX, 0, &[]).is_none());
        assert_eq!(
            Histogram::from_parts(0, 0, u64::MAX, 0, &[]),
            Some(Histogram::new())
        );
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        let mut m = Histogram::new();
        m.merge(&h);
        assert_eq!(m, Histogram::new());
    }
}

//! Reliability accounting shared by the device layer and the fleet
//! aggregator: per-kind fault counters, BLE sync outcomes, and the
//! downtime / recovery bookkeeping behind the uptime metric.

use crate::plan::FaultKind;

/// Per-fault-kind episode counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    counts: [u64; FaultKind::COUNT],
}

impl FaultCounters {
    /// Records one episode of `kind`.
    pub fn add(&mut self, kind: FaultKind) {
        self.counts[kind.index()] += 1;
    }

    /// Episodes of `kind` recorded so far.
    #[must_use]
    pub fn get(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Overwrites the episode count of `kind` — the deserialization
    /// path (e.g. the fleet record codec rebuilding counters from a
    /// byte stream). Simulation code records episodes with
    /// [`FaultCounters::add`].
    pub fn set(&mut self, kind: FaultKind, count: u64) {
        self.counts[kind.index()] = count;
    }

    /// Total episodes across every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kind, count)` for every kind with at least one episode.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (FaultKind, u64)> + '_ {
        FaultKind::ALL
            .into_iter()
            .map(|k| (k, self.get(k)))
            .filter(|&(_, n)| n > 0)
    }

    /// Folds the other counter set into this one (fleet aggregation).
    pub fn merge(&mut self, other: &FaultCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `true` when [`FaultCounters::merge`] with `other` would overflow
    /// a count.
    #[must_use]
    pub fn merge_overflows(&self, other: &FaultCounters) -> bool {
        self.counts
            .iter()
            .zip(&other.counts)
            .any(|(a, b)| a.checked_add(*b).is_none())
    }
}

/// How one BLE sync episode resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Delivered on the first burst.
    Ok,
    /// Delivered after one or more retries.
    Retried,
    /// Dropped after exhausting the retry budget.
    Dropped,
}

/// Raw reliability accumulators for one device run. Everything here is an
/// exact integer (or microsecond) count, so fleet digests over these
/// fields are bit-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReliabilityCounters {
    /// Time spent browned out (acquisition-off), microseconds.
    pub downtime_us: u64,
    /// Brownout episodes entered.
    pub brownouts: u64,
    /// Brownout episodes recovered from.
    pub recoveries: u64,
    /// Summed brownout-entry → resume time over recovered episodes, µs.
    pub recovery_us: u64,
    /// Acquisition windows discarded by the signal-quality gate.
    pub degraded_windows: u64,
    /// Acquisitions the policy skipped while browned out.
    pub skipped_acquisitions: u64,
    /// Resolved BLE sync episodes (= ok + dropped).
    pub sync_episodes: u64,
    /// Episodes delivered (first try or after retries).
    pub sync_ok: u64,
    /// Delivered episodes that needed at least one retry.
    pub sync_retried: u64,
    /// Episodes dropped after the retry budget.
    pub sync_dropped: u64,
}

impl ReliabilityCounters {
    /// Records one resolved sync episode.
    pub fn record_sync(&mut self, outcome: SyncOutcome) {
        self.sync_episodes += 1;
        match outcome {
            SyncOutcome::Ok => self.sync_ok += 1,
            SyncOutcome::Retried => {
                self.sync_ok += 1;
                self.sync_retried += 1;
            }
            SyncOutcome::Dropped => self.sync_dropped += 1,
        }
    }

    /// Fraction of `duration_us` the device was operational.
    #[must_use]
    pub fn uptime_fraction(&self, duration_us: u64) -> f64 {
        if duration_us == 0 {
            return 1.0;
        }
        1.0 - self.downtime_us.min(duration_us) as f64 / duration_us as f64
    }

    /// Mean brownout-to-resume time over recovered episodes, seconds
    /// (zero when nothing ever recovered).
    #[must_use]
    pub fn mean_recovery_s(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_us as f64 / self.recoveries as f64 / 1e6
        }
    }

    /// Folds the other counter set into this one (fleet aggregation).
    pub fn merge(&mut self, other: &ReliabilityCounters) {
        self.downtime_us += other.downtime_us;
        self.brownouts += other.brownouts;
        self.recoveries += other.recoveries;
        self.recovery_us += other.recovery_us;
        self.degraded_windows += other.degraded_windows;
        self.skipped_acquisitions += other.skipped_acquisitions;
        self.sync_episodes += other.sync_episodes;
        self.sync_ok += other.sync_ok;
        self.sync_retried += other.sync_retried;
        self.sync_dropped += other.sync_dropped;
    }

    /// `true` when [`ReliabilityCounters::merge`] with `other` would
    /// overflow a counter.
    #[must_use]
    pub fn merge_overflows(&self, other: &ReliabilityCounters) -> bool {
        let pairs = [
            (self.downtime_us, other.downtime_us),
            (self.brownouts, other.brownouts),
            (self.recoveries, other.recoveries),
            (self.recovery_us, other.recovery_us),
            (self.degraded_windows, other.degraded_windows),
            (self.skipped_acquisitions, other.skipped_acquisitions),
            (self.sync_episodes, other.sync_episodes),
            (self.sync_ok, other.sync_ok),
            (self.sync_retried, other.sync_retried),
            (self.sync_dropped, other.sync_dropped),
        ];
        pairs.iter().any(|(a, b)| a.checked_add(*b).is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_merge() {
        let mut a = FaultCounters::default();
        a.add(FaultKind::EcgLeadOff);
        a.add(FaultKind::EcgLeadOff);
        a.add(FaultKind::Brownout);
        assert_eq!(a.get(FaultKind::EcgLeadOff), 2);
        assert_eq!(a.total(), 3);
        let mut b = FaultCounters::default();
        b.add(FaultKind::Brownout);
        a.merge(&b);
        assert_eq!(a.get(FaultKind::Brownout), 2);
        assert_eq!(a.iter_nonzero().count(), 2);
    }

    #[test]
    fn sync_outcomes_partition_episodes() {
        let mut r = ReliabilityCounters::default();
        r.record_sync(SyncOutcome::Ok);
        r.record_sync(SyncOutcome::Retried);
        r.record_sync(SyncOutcome::Dropped);
        assert_eq!(r.sync_episodes, 3);
        assert_eq!(r.sync_ok + r.sync_dropped, r.sync_episodes);
        assert_eq!(r.sync_retried, 1);
    }

    #[test]
    fn uptime_and_recovery_arithmetic() {
        let r = ReliabilityCounters {
            downtime_us: 25_000_000,
            recoveries: 2,
            recovery_us: 20_000_000,
            ..ReliabilityCounters::default()
        };
        assert!((r.uptime_fraction(100_000_000) - 0.75).abs() < 1e-12);
        assert!((r.mean_recovery_s() - 10.0).abs() < 1e-12);
        assert_eq!(ReliabilityCounters::default().uptime_fraction(0), 1.0);
        assert_eq!(ReliabilityCounters::default().mean_recovery_s(), 0.0);
    }
}

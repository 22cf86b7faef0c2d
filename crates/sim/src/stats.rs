//! Engine statistics and simple measurement containers.

/// Accumulated statistics of a [`RoundEngine`](crate::engine::RoundEngine) run:
/// running totals of constant size, so recording a round never allocates and a
/// long-lived engine's statistics stay flat however many rounds it runs.
#[derive(Debug, Clone)]
pub struct EngineStats {
    rounds: u64,
    state_changes: u64,
    /// Nodes evaluated over all rounds.  With active-frontier scheduling a round
    /// evaluates the frontier; with full evaluation, every non-faulty node.  It is an
    /// execution detail (like `threads`), not part of a round's bit-identical record.
    evaluated: u64,
    /// Worker threads the engine executes rounds with (1 = serial).
    threads: usize,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            rounds: 0,
            state_changes: 0,
            evaluated: 0,
            threads: 1,
        }
    }
}

impl EngineStats {
    /// Adds one executed round to the totals: the nodes whose state changed and the
    /// nodes the engine evaluated.
    pub fn record_round(&mut self, state_changes: u64, evaluated: u64) {
        self.rounds += 1;
        self.state_changes += state_changes;
        self.evaluated += evaluated;
    }

    /// Total nodes evaluated over all rounds.
    pub fn total_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Mean nodes evaluated per round (0.0 before any round ran).
    pub fn mean_evaluated_per_round(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.evaluated as f64 / self.rounds as f64
    }

    /// Records the active worker-thread count, so downstream summaries and benchmark
    /// reports know which execution mode produced the numbers.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The worker-thread count the engine ran with (1 = serial).  Thread count is an
    /// execution detail: every other statistic is bit-identical across settings.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of rounds recorded.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total state changes over all rounds.
    pub fn total_state_changes(&self) -> u64 {
        self.state_changes
    }
}

/// A small integer histogram used for detour/latency distributions.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

/// Two histograms are equal when they hold the same observations — trailing empty
/// buckets (left by [`Histogram::reserve_to`] pre-sizing) do not count, so a
/// reserved and an unreserved histogram over identical data compare equal.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        let trim = |counts: &[u64]| -> usize {
            counts
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| i + 1)
                .unwrap_or(0)
        };
        self.total == other.total
            && self.counts[..trim(&self.counts)] == other.counts[..trim(&other.counts)]
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Adds an observation of value `v`.
    pub fn record(&mut self, v: u64) {
        let idx = v as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Pre-sizes the bucket table so recording values up to `max_value` performs no
    /// further allocation (steady-state zero-alloc recording).
    pub fn reserve_to(&mut self, max_value: u64) {
        let needed = max_value as usize + 1;
        if self.counts.len() < needed {
            self.counts.resize(needed, 0);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Number of observations of exactly `v`.
    pub fn count_of(&self, v: u64) -> u64 {
        self.counts.get(v as usize).copied().unwrap_or(0)
    }

    /// The largest observed value, if any.
    pub fn max(&self) -> Option<u64> {
        self.counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(i, _)| i as u64)
    }

    /// The smallest observed value, if any.
    pub fn min(&self) -> Option<u64> {
        self.counts
            .iter()
            .enumerate()
            .find(|(_, &c)| c > 0)
            .map(|(i, _)| i as u64)
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The `q`-quantile (0.0 ..= 1.0) using the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(v as u64);
            }
        }
        self.max()
    }

    /// Forgets all observations while keeping the bucket table allocated, so a
    /// cleared histogram records again without allocating (the warm-path reset of
    /// accumulators such as `SloTracker`).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_stats_aggregate() {
        let mut s = EngineStats::default();
        s.record_round(3, 10);
        s.record_round(0, 2);
        s.record_round(1, 0);
        assert_eq!(s.rounds(), 3);
        assert_eq!(s.total_state_changes(), 4);
        assert_eq!(s.total_evaluated(), 12);
        assert_eq!(s.mean_evaluated_per_round(), 4.0);
    }

    #[test]
    fn empty_engine_stats() {
        let s = EngineStats::default();
        assert_eq!(s.rounds(), 0);
        assert_eq!(s.total_evaluated(), 0);
        assert_eq!(s.mean_evaluated_per_round(), 0.0);
        assert_eq!(s.threads(), 1);
    }

    #[test]
    fn histogram_basic_statistics() {
        let mut h = Histogram::new();
        for v in [0, 0, 1, 3, 3, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.count_of(3), 3);
        assert_eq!(h.count_of(7), 0);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(10));
        assert!((h.mean() - 20.0 / 7.0).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(10));
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn reserved_histograms_compare_equal_to_unreserved() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.reserve_to(1_000);
        assert_eq!(a, b, "pre-sizing must not affect equality");
        a.record(7);
        b.record(7);
        assert_eq!(a, b);
        b.record(7);
        assert_ne!(a, b);
    }

    #[test]
    fn histogram_clear_keeps_capacity() {
        let mut h = Histogram::new();
        h.reserve_to(100);
        h.record(7);
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h, Histogram::new());
        h.record(99);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(2);
        let mut b = Histogram::new();
        b.record(2);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.count_of(2), 2);
        assert_eq!(a.max(), Some(9));
    }
}

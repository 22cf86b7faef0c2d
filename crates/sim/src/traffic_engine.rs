//! Cycle-driven traffic accounting: injection scheduling and
//! latency/throughput statistics.
//!
//! The round/step machinery of this crate models *information* flow; this module
//! supplies the router-agnostic pieces of the *data* flow under contention that
//! the concurrent-traffic engine in `lgfi-core` uses (its links, virtual channels
//! and flit buffers live there, in `lgfi_core::linkstate`):
//!
//! * [`InjectionProcess`] — a deterministic closed-form injection schedule: an
//!   offered load of `r` packets per cycle injects `floor(r)` or `ceil(r)`
//!   packets each cycle such that the long-run average is exactly `r`.
//! * [`TrafficStats`] — injected/delivered/failed/deadlocked counters, per-packet
//!   hop and stall totals, and the delivered-latency distribution (mean, quantiles)
//!   backed by the integer [`Histogram`].

use crate::stats::Histogram;

/// A deterministic injection schedule: an offered load of `rate` packets per cycle,
/// realised as `floor(rate * (c + 1)) - floor(rate * c)` injections in cycle `c`
/// (`floor(rate)` or `ceil(rate)` per cycle), so after `C` cycles exactly
/// `floor(rate * C)` packets have been injected — the long-run average is exactly
/// `rate`, with no accumulator drift (a running `+= rate` accumulator loses one
/// packet every few hundred cycles for rates like 0.1 that are not binary
/// representable).
///
/// The schedule is a pure function of the rate and the cycle count — no randomness —
/// so every traffic run over the same generator sees the exact same injection times.
#[derive(Debug, Clone)]
pub struct InjectionProcess {
    rate: f64,
    cycles: u64,
}

impl InjectionProcess {
    /// A schedule offering `rate` packets per cycle (negative rates are clamped
    /// to zero).
    pub fn new(rate: f64) -> Self {
        InjectionProcess {
            rate: rate.max(0.0),
            cycles: 0,
        }
    }

    /// The offered load in packets per cycle.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The number of packets to inject this cycle.
    pub fn packets_this_cycle(&mut self) -> usize {
        let before = (self.rate * self.cycles as f64).floor();
        self.cycles += 1;
        let after = (self.rate * self.cycles as f64).floor();
        (after - before) as usize
    }
}

/// Accumulated counters of a concurrent-traffic run.
///
/// Latency (in cycles, injection to delivery, queueing included) is recorded for
/// *delivered* packets only; failed packets (unreachable destination, exhausted
/// cycle budget, a deterministic router giving up) are counted separately so a
/// saturated network cannot hide losses inside a pretty latency mean.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    injected: u64,
    delivered: u64,
    failed: u64,
    deadlocked: u64,
    cycles: u64,
    total_hops: u64,
    total_stalls: u64,
    latency: Histogram,
}

impl TrafficStats {
    /// Empty statistics.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records `n` injected packets.
    pub fn record_injected(&mut self, n: u64) {
        self.injected += n;
    }

    /// Records one executed cycle.
    pub fn record_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Records one finished packet: its latency in cycles, hops taken (forward and
    /// backtrack), cycles spent stalled, and whether it was delivered.
    pub fn record_finished(&mut self, latency: u64, hops: u64, stalls: u64, delivered: bool) {
        self.total_hops += hops;
        self.total_stalls += stalls;
        if delivered {
            self.delivered += 1;
            self.latency.record(latency);
        } else {
            self.failed += 1;
        }
    }

    /// Pre-sizes the latency table for values up to `max_latency`, so steady-state
    /// recording performs no allocations.
    pub fn reserve_latency(&mut self, max_latency: u64) {
        self.latency.reserve_to(max_latency);
    }

    /// Packets injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets that finished without being delivered.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records `n` packets torn down by the deadlock detector.  The packets also
    /// finish (failed) through [`TrafficStats::record_finished`]; this counter
    /// additionally attributes them to a detected cyclic credit wait.
    pub fn record_deadlocked(&mut self, n: u64) {
        self.deadlocked += n;
    }

    /// Packets torn down by the deadlock detector so far (a subset of
    /// [`TrafficStats::failed`]).
    pub fn deadlocked(&self) -> u64 {
        self.deadlocked
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total hops over all finished packets.
    pub fn total_hops(&self) -> u64 {
        self.total_hops
    }

    /// Total stall cycles over all finished packets.
    pub fn total_stalls(&self) -> u64 {
        self.total_stalls
    }

    /// The delivered-latency distribution.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// Mean delivered latency in cycles (0.0 before any delivery).
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// The `q`-quantile of the delivered latency (nearest rank), if any packet was
    /// delivered.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        self.latency.quantile(q)
    }

    /// Delivered fraction of the finished packets (delivered + failed; packets
    /// still in flight do not count), 1.0 before any packet finished.
    pub fn delivery_ratio(&self) -> f64 {
        let finished = self.delivered + self.failed;
        if finished == 0 {
            1.0
        } else {
            self.delivered as f64 / finished as f64
        }
    }

    /// Mean stall cycles per finished packet (0.0 before any packet finished).
    pub fn mean_stalls(&self) -> f64 {
        let finished = self.delivered + self.failed;
        if finished == 0 {
            0.0
        } else {
            self.total_stalls as f64 / finished as f64
        }
    }

    /// Accepted throughput: delivered packets per executed cycle (0.0 before any
    /// cycle ran).
    pub fn accepted_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_accumulator_hits_the_exact_average() {
        let mut inj = InjectionProcess::new(0.25);
        let counts: Vec<usize> = (0..8).map(|_| inj.packets_this_cycle()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 2);
        assert_eq!(counts, vec![0, 0, 0, 1, 0, 0, 0, 1]);
        let mut inj = InjectionProcess::new(2.5);
        let counts: Vec<usize> = (0..4).map(|_| inj.packets_this_cycle()).collect();
        assert_eq!(counts, vec![2, 3, 2, 3]);
    }

    #[test]
    fn non_binary_representable_rates_do_not_drift() {
        // A running `acc += 0.1` accumulator loses a packet every ~10 cycles to
        // rounding; the closed-form schedule must inject exactly floor(rate * C).
        for (rate, cycles, expected) in [(0.1f64, 200u64, 20usize), (0.3, 1_000, 300)] {
            let mut inj = InjectionProcess::new(rate);
            let total: usize = (0..cycles).map(|_| inj.packets_this_cycle()).sum();
            assert_eq!(total, expected, "rate {rate} over {cycles} cycles");
        }
    }

    #[test]
    fn zero_rate_never_injects() {
        let mut inj = InjectionProcess::new(0.0);
        assert_eq!(inj.rate(), 0.0);
        assert!((0..1000).all(|_| inj.packets_this_cycle() == 0));
        let mut negative = InjectionProcess::new(-3.0);
        assert_eq!(negative.rate(), 0.0);
        assert_eq!(negative.packets_this_cycle(), 0);
    }

    #[test]
    fn stats_accumulate_and_summarise() {
        let mut s = TrafficStats::new();
        s.record_injected(3);
        s.record_cycle();
        s.record_cycle();
        s.record_finished(4, 4, 0, true);
        s.record_finished(8, 5, 3, true);
        s.record_finished(2, 2, 0, false);
        assert_eq!(s.injected(), 3);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.failed(), 1);
        assert_eq!(s.cycles(), 2);
        assert_eq!(s.total_hops(), 11);
        assert_eq!(s.total_stalls(), 3);
        assert_eq!(s.mean_latency(), 6.0);
        assert_eq!(s.latency_quantile(0.99), Some(8));
        assert_eq!(s.accepted_throughput(), 1.0);
        assert_eq!(s.latency_histogram().count(), 2);
        assert_eq!(s.delivery_ratio(), 2.0 / 3.0);
        assert_eq!(s.mean_stalls(), 1.0);
    }

    #[test]
    fn latency_p99_is_the_nearest_rank() {
        // 150 deliveries with latencies 1..=150: rank ceil(0.99 * 150) = 149.
        let mut s = TrafficStats::new();
        for latency in (1..=150).rev() {
            s.record_finished(latency, latency, 0, true);
        }
        assert_eq!(s.latency_quantile(0.99), Some(149));
        assert_eq!(s.latency_quantile(0.5), Some(75));
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = TrafficStats::new();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.latency_quantile(0.99), None);
        assert_eq!(s.accepted_throughput(), 0.0);
        assert_eq!(s.delivery_ratio(), 1.0, "nothing finished, nothing lost");
        assert_eq!(s.mean_stalls(), 0.0);
    }
}

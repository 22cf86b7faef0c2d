//! Availability-SLO accumulators for long-horizon fault campaigns.
//!
//! The paper's robustness claim — LGFI routing keeps delivering under faults, with
//! Theorem 4 bounding detours — is evaluated by running the concurrent-traffic data
//! plane under adversarial fault schedules for very long horizons.  [`SloTracker`] is
//! the warm-path accumulator of that evaluation: per-node delivery counters, a
//! latency histogram for p50/p99/p999 quantiles, Theorem-4 detour-bound violation
//! counts, unreachable-pair accounting and time-to-reconverge after each fault burst.
//!
//! All recording paths are allocation-free once the tracker is sized to its mesh
//! ([`SloTracker::new`] + [`SloTracker::reserve`]): counters live in fixed per-node
//! slots, histograms are pre-sized, and [`SloTracker::reset`] clears only the touched
//! node slots (the touched-stack idiom of `lgfi_core::linkstate::LinkState`'s
//! per-cycle reset) so a dense campaign can reuse one tracker across many runs
//! without reallocating.

use crate::stats::Histogram;

/// How one packet's journey ended, as seen by the SLO plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOutcome {
    /// Delivered to its destination.
    Delivered,
    /// Dropped because destination (or source) became unreachable — counted against
    /// the unreachable-pair SLO.
    Unreachable,
    /// Dropped for any other reason (step budget exhausted, router gave up).
    Failed,
}

/// Per-node SLO counters (one slot per router).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSlo {
    /// Packets injected at this node.
    pub injected: u64,
    /// Packets injected here and delivered.
    pub delivered: u64,
    /// Packets injected here and dropped as unreachable.
    pub unreachable: u64,
    /// Packets injected here and dropped for other reasons.
    pub failed: u64,
    /// Sum of delivered latencies (cycles) for packets injected here.
    pub latency_sum: u64,
    /// Delivered packets from this node whose detour exceeded the Theorem-4 budget.
    pub detour_violations: u64,
}

impl NodeSlo {
    /// Delivery rate of packets injected at this node (1.0 when none were injected).
    pub fn delivery_rate(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Mean delivered latency in cycles (0.0 when nothing was delivered).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.delivered as f64
    }
}

/// The warm-path SLO accumulator.  See the module docs for the contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloTracker {
    per_node: Vec<NodeSlo>,
    /// Nodes with non-default slots, in first-touch order (O(touched) reset).
    touched: Vec<u32>,
    /// Delivered end-to-end latencies, mesh-wide.
    latency: Histogram,
    /// Steps from each fault burst to the next labeling stabilisation.
    reconverge: Histogram,
    /// Fault bursts observed (steps in which at least one node failed).
    bursts: u64,
    /// Total detour-bound violations, mesh-wide.
    detour_violations: u64,
    /// Total unreachable drops, mesh-wide.
    unreachable: u64,
}

impl SloTracker {
    /// A tracker for a mesh of `node_count` routers.
    pub fn new(node_count: usize) -> Self {
        SloTracker {
            per_node: vec![NodeSlo::default(); node_count],
            touched: Vec::with_capacity(node_count),
            latency: Histogram::new(),
            reconverge: Histogram::new(),
            bursts: 0,
            detour_violations: 0,
            unreachable: 0,
        }
    }

    /// Pre-sizes the histograms so recording latencies up to `max_latency` and
    /// reconvergence times up to `max_reconverge` performs no allocation.
    pub fn reserve(&mut self, max_latency: u64, max_reconverge: u64) {
        self.latency.reserve_to(max_latency);
        self.reconverge.reserve_to(max_reconverge);
    }

    fn touch(&mut self, node: usize) -> &mut NodeSlo {
        let slot = &mut self.per_node[node];
        if *slot == NodeSlo::default() {
            self.touched.push(node as u32);
        }
        &mut self.per_node[node]
    }

    /// Records one finished packet: injected at `source`, ending in `outcome` with
    /// the given delivered latency (ignored unless delivered) and whether its detour
    /// exceeded the Theorem-4 budget.
    pub fn record_packet(
        &mut self,
        source: usize,
        outcome: SloOutcome,
        latency: u64,
        detour_violation: bool,
    ) {
        let slot = self.touch(source);
        slot.injected += 1;
        match outcome {
            SloOutcome::Delivered => {
                slot.delivered += 1;
                slot.latency_sum += latency;
                if detour_violation {
                    slot.detour_violations += 1;
                }
                self.latency.record(latency);
                if detour_violation {
                    self.detour_violations += 1;
                }
            }
            SloOutcome::Unreachable => {
                slot.unreachable += 1;
                self.unreachable += 1;
            }
            SloOutcome::Failed => slot.failed += 1,
        }
    }

    /// Records a fault burst (a step in which at least one node failed).
    pub fn record_burst(&mut self) {
        self.bursts += 1;
    }

    /// Records the number of steps from a fault burst to the labeling's
    /// re-stabilisation.
    pub fn record_reconverge(&mut self, steps: u64) {
        self.reconverge.record(steps);
    }

    /// Forgets all observations while keeping every buffer allocated: clears only the
    /// touched per-node slots and zeroes the histograms in place.
    pub fn reset(&mut self) {
        while let Some(node) = self.touched.pop() {
            self.per_node[node as usize] = NodeSlo::default();
        }
        self.latency.clear();
        self.reconverge.clear();
        self.bursts = 0;
        self.detour_violations = 0;
        self.unreachable = 0;
    }

    /// The per-node counter slots (indexed by node id).
    pub fn per_node(&self) -> &[NodeSlo] {
        &self.per_node
    }

    /// The mesh-wide delivered-latency histogram.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The burst-to-stabilisation histogram (steps).
    pub fn reconverge(&self) -> &Histogram {
        &self.reconverge
    }

    /// Fault bursts observed.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    /// Total Theorem-4 detour-bound violations.
    pub fn detour_violations(&self) -> u64 {
        self.detour_violations
    }

    /// Total unreachable drops.
    pub fn unreachable(&self) -> u64 {
        self.unreachable
    }

    /// Total packets recorded.
    pub fn injected(&self) -> u64 {
        self.per_node.iter().map(|n| n.injected).sum()
    }

    /// Total delivered packets.
    pub fn delivered(&self) -> u64 {
        self.latency.count()
    }

    /// Mesh-wide delivery rate (1.0 when nothing was injected).
    pub fn delivery_rate(&self) -> f64 {
        let injected = self.injected();
        if injected == 0 {
            return 1.0;
        }
        self.delivered() as f64 / injected as f64
    }

    /// The worst per-node delivery rate over nodes that injected anything (1.0 when
    /// none did).
    pub fn worst_node_delivery(&self) -> f64 {
        self.per_node
            .iter()
            .filter(|n| n.injected > 0)
            .map(|n| n.delivery_rate())
            .fold(1.0f64, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_accumulate_per_node_and_mesh_wide() {
        let mut t = SloTracker::new(4);
        t.record_packet(1, SloOutcome::Delivered, 10, false);
        t.record_packet(1, SloOutcome::Delivered, 30, true);
        t.record_packet(2, SloOutcome::Unreachable, 0, false);
        t.record_packet(2, SloOutcome::Failed, 0, false);
        assert_eq!(t.injected(), 4);
        assert_eq!(t.delivered(), 2);
        assert_eq!(t.detour_violations(), 1);
        assert_eq!(t.unreachable(), 1);
        assert_eq!(t.per_node()[1].injected, 2);
        assert_eq!(t.per_node()[1].latency_sum, 40);
        assert_eq!(t.per_node()[1].mean_latency(), 20.0);
        assert_eq!(t.per_node()[2].delivery_rate(), 0.0);
        assert_eq!(t.per_node()[3].delivery_rate(), 1.0);
        assert_eq!(t.worst_node_delivery(), 0.0);
        assert_eq!(t.latency().quantile(0.5), Some(10));
    }

    #[test]
    fn bursts_and_reconvergence() {
        let mut t = SloTracker::new(2);
        t.record_burst();
        t.record_reconverge(5);
        t.record_burst();
        t.record_reconverge(9);
        assert_eq!(t.bursts(), 2);
        assert_eq!(t.reconverge().count(), 2);
        assert_eq!(t.reconverge().max(), Some(9));
    }

    #[test]
    fn reset_restores_a_fresh_tracker() {
        let mut t = SloTracker::new(8);
        t.reserve(100, 50);
        t.record_packet(3, SloOutcome::Delivered, 7, true);
        t.record_packet(5, SloOutcome::Unreachable, 0, false);
        t.record_burst();
        t.record_reconverge(4);
        t.reset();
        let mut fresh = SloTracker::new(8);
        fresh.reserve(100, 50);
        assert_eq!(t, fresh);
        assert_eq!(t.delivery_rate(), 1.0);
    }
}

//! The SLO observation plane: wiring the [`SloTracker`] accumulator to the dynamic
//! network and the concurrent-traffic engine.
//!
//! [`SloObserver`] rides [`LgfiNetwork::run_traffic_step`]: after every executed
//! step it folds the newly finished packets, newly recorded convergence events and
//! this step's fault events into availability SLOs — delivery rate, latency
//! quantiles, Theorem-4 detour-bound violations, unreachable-pair counts and
//! time-to-reconverge after each fault burst.  The per-step path is allocation-free
//! once [`SloObserver::reserve`] has sized the buffers (see
//! `crates/audit/hotpaths.toml`), so a multi-million-cycle churn campaign observes
//! every packet without perturbing the data plane it measures.
//!
//! The Theorem-4 check is deliberately conservative: a delivered packet that saw `k`
//! fault bursts while in flight is allowed `(k + 1) · (e_max + a_max)` detour steps,
//! where `e_max` is the largest block extent seen so far and `a_max` the longest
//! stabilisation (in steps) seen so far.  Theorem 4 bounds the detours of LGFI
//! routing by `k (e_max + a_max)` for `k` faults with fully distributed information;
//! the `+1` absorbs the boundary effects of bursts straddling injection/retirement,
//! so a violation flagged here is a genuine excursion past the paper's budget.

use lgfi_sim::{FaultEvent, FaultEventKind, SloOutcome, SloTracker};

use crate::network::LgfiNetwork;
use crate::routing::ProbeStatus;
use crate::traffic_engine::TrafficEngine;

/// Accumulates per-router availability SLOs over a traffic-driven network run.
#[derive(Debug, Clone)]
pub struct SloObserver {
    tracker: SloTracker,
    /// Convergence records already folded in.
    seen_convergence: usize,
    /// Finished-packet records already folded in (reset by
    /// [`SloObserver::notify_records_cleared`]).
    seen_records: usize,
    /// Cycles at which a fault burst took effect, in order (for the per-packet
    /// burst count `k`).
    burst_cycles: Vec<u64>,
    /// Largest block extent seen so far (the running `e_max` of Theorem 4).
    e_max_seen: u64,
    /// Longest labeling stabilisation seen so far, in steps (the running `a_max`).
    a_steps_max: u64,
}

impl SloObserver {
    /// An observer for a mesh of `node_count` routers.
    pub fn new(node_count: usize) -> Self {
        SloObserver {
            tracker: SloTracker::new(node_count),
            seen_convergence: 0,
            seen_records: 0,
            burst_cycles: Vec::new(),
            e_max_seen: 0,
            a_steps_max: 0,
        }
    }

    /// Pre-sizes every buffer so observing runs with latencies up to `max_latency`,
    /// reconvergence times up to `max_reconverge` and at most `max_bursts` fault
    /// bursts performs no allocation.
    pub fn reserve(&mut self, max_latency: u64, max_reconverge: u64, max_bursts: usize) {
        self.tracker.reserve(max_latency, max_reconverge);
        self.burst_cycles.reserve(max_bursts);
    }

    /// Folds the effects of the step just executed into the SLOs.  Call once after
    /// every [`LgfiNetwork::run_traffic_step`] /
    /// [`LgfiNetwork::run_traffic_step_with`], passing the same external events (or
    /// `&[]`); the plan's own events for the step are read from `net`.
    pub fn observe_step(
        &mut self,
        net: &LgfiNetwork,
        traffic: &TrafficEngine,
        external: &[FaultEvent],
    ) {
        // `run_traffic_step` already advanced the clock, so the cycle just executed:
        let cycle = net.step().saturating_sub(1);

        // Fault bursts: any Fail taking effect this step, from the plan or external.
        let planned_fail = net
            .plan()
            .events_at(cycle)
            .any(|e| e.kind == FaultEventKind::Fail);
        let external_fail = external.iter().any(|e| e.kind == FaultEventKind::Fail);
        if planned_fail || external_fail {
            self.tracker.record_burst();
            self.burst_cycles.push(cycle);
        }

        // Newly stabilised disturbances: time-to-reconverge in steps, and the running
        // Theorem-4 parameters.  Blocks change only in a rebuild, which records one.
        let records = net.convergence_records();
        if records.len() > self.seen_convergence {
            self.e_max_seen = self.e_max_seen.max(net.blocks().e_max() as u64);
        }
        for rec in &records[self.seen_convergence.min(records.len())..] {
            self.tracker
                .record_reconverge(cycle.saturating_sub(rec.step));
            let a_steps = net.step_config().steps_for_rounds(rec.a_rounds);
            self.a_steps_max = self.a_steps_max.max(a_steps);
        }
        self.seen_convergence = records.len();

        // Newly finished packets.
        let records = traffic.records();
        for rec in &records[self.seen_records.min(records.len())..] {
            let outcome = match rec.status {
                ProbeStatus::Delivered => SloOutcome::Delivered,
                ProbeStatus::Unreachable => SloOutcome::Unreachable,
                _ => SloOutcome::Failed,
            };
            let violation = outcome == SloOutcome::Delivered && {
                let k = (self.burst_cycles.partition_point(|&b| b <= rec.finished_at)
                    - self.burst_cycles.partition_point(|&b| b < rec.injected_at))
                    as u64;
                let allowed = (k + 1) * (self.e_max_seen + self.a_steps_max);
                rec.hops.saturating_sub(u64::from(rec.initial_distance)) > allowed
            };
            self.tracker
                .record_packet(rec.source, outcome, rec.latency(), violation);
        }
        self.seen_records = records.len();
    }

    /// Tells the observer the traffic engine's finished-packet records were cleared
    /// ([`TrafficEngine::clear_records`]), so the next [`SloObserver::observe_step`]
    /// starts reading them from the beginning again.
    pub fn notify_records_cleared(&mut self) {
        self.seen_records = 0;
    }

    /// The accumulated SLOs.
    pub fn tracker(&self) -> &SloTracker {
        &self.tracker
    }

    /// Consumes the observer, returning the accumulated SLOs.
    pub fn into_tracker(self) -> SloTracker {
        self.tracker
    }

    /// The largest block extent seen so far (the running Theorem-4 `e_max`).
    pub fn e_max_seen(&self) -> u64 {
        self.e_max_seen
    }

    /// The longest stabilisation seen so far in steps (the running Theorem-4
    /// `a_max`).
    pub fn a_steps_max(&self) -> u64 {
        self.a_steps_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::traffic_engine::TrafficSpec;
    use lgfi_sim::FaultPlan;
    use lgfi_topology::{coord, Mesh};

    fn run_observed(plan: FaultPlan, steps: u64) -> (SloObserver, LgfiNetwork, TrafficEngine) {
        let mesh = Mesh::cubic(8, 2);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        let mut traffic = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
            Box::new(crate::routing::LgfiRouter::new())
        });
        let mut obs = SloObserver::new(mesh.node_count());
        let src = mesh.id_of(&coord![1, 1]);
        let dst = mesh.id_of(&coord![6, 6]);
        traffic.inject(src, dst);
        for _ in 0..steps {
            net.run_traffic_step(&mut traffic);
            obs.observe_step(&net, &traffic, &[]);
        }
        (obs, net, traffic)
    }

    #[test]
    fn fault_free_run_delivers_without_violations() {
        let (obs, _, _) = run_observed(FaultPlan::empty(), 30);
        let t = obs.tracker();
        assert_eq!(t.injected(), 1);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.detour_violations(), 0);
        assert_eq!(t.bursts(), 0);
        // Minimal path: latency = initial distance.
        assert_eq!(t.latency().max(), Some(10));
    }

    #[test]
    fn bursts_and_reconvergence_are_observed() {
        let mesh = Mesh::cubic(8, 2);
        let f = mesh.id_of(&coord![4, 4]);
        let plan = FaultPlan::new(vec![lgfi_sim::FaultEvent::fail(3, f)]);
        let (obs, _, _) = run_observed(plan, 40);
        let t = obs.tracker();
        assert_eq!(t.bursts(), 1);
        assert!(t.reconverge().count() >= 1);
        assert!(obs.e_max_seen() >= 1);
    }

    #[test]
    fn external_events_count_as_bursts() {
        let mesh = Mesh::cubic(8, 2);
        let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
        let mut traffic = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
            Box::new(crate::routing::LgfiRouter::new())
        });
        let mut obs = SloObserver::new(mesh.node_count());
        let f = mesh.id_of(&coord![3, 3]);
        let external = [FaultEvent::fail(net.step(), f)];
        net.run_traffic_step_with(&external, &mut traffic);
        obs.observe_step(&net, &traffic, &external);
        assert_eq!(obs.tracker().bursts(), 1);
        assert_eq!(net.statuses()[f], crate::status::NodeStatus::Faulty);
    }

    #[test]
    fn cleared_records_are_not_double_counted() {
        let mesh = Mesh::cubic(8, 2);
        let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
        let mut traffic = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
            Box::new(crate::routing::LgfiRouter::new())
        });
        let mut obs = SloObserver::new(mesh.node_count());
        let src = mesh.id_of(&coord![1, 1]);
        let dst = mesh.id_of(&coord![2, 1]);
        for _ in 0..3 {
            traffic.inject(src, dst);
            net.run_traffic_step(&mut traffic);
            obs.observe_step(&net, &traffic, &[]);
            traffic.clear_records();
            obs.notify_records_cleared();
        }
        // Drain.
        for _ in 0..5 {
            net.run_traffic_step(&mut traffic);
            obs.observe_step(&net, &traffic, &[]);
        }
        assert_eq!(obs.tracker().injected(), 3);
        assert_eq!(obs.tracker().delivered(), 3);
    }
}

//! Adversarial fault campaigns with SLO observation, and the one traffic loop.
//!
//! An [`SloCampaign`] is the robustness counterpart of
//! [`Scenario::run_traffic`](crate::scenario::Scenario::run_traffic): it drives
//! the dynamic network and the concurrent
//! traffic engine for a long horizon under a fault campaign — either a materialised
//! [`FaultPlan`] (shaped clusters, fault fronts, regional outages from
//! [`crate::faultgen`]) or a streaming Poisson [`ChurnProcess`] — and accumulates
//! per-router availability SLOs in an [`SloObserver`] instead of keeping every
//! packet record.
//!
//! Both run the same loop (warm-up, injection window, drain) and differ only in
//! the fault source they give it and in what they do with each step's finished
//! packets.  The network itself always runs with an *empty* plan: the loop feeds
//! every fault event through `LgfiNetwork::run_traffic_step_with` from a reused
//! buffer (a [`FaultPlanCursor`] over the held plan, or
//! [`ChurnProcess::events_at`]), so a multi-million-cycle churn run never
//! materialises its schedule, the per-step burst scan inside the observer stays
//! O(1), and the traffic engine's finished-packet records are handed on and
//! cleared every cycle.  A campaign's drain applies no events; a scenario's plan
//! keeps firing through it.  Results are bit-identical across every thread knob.

use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_core::routing::Router;
use lgfi_core::slo::SloObserver;
use lgfi_core::status::NodeStatus;
use lgfi_core::traffic_engine::{TrafficEngine, TrafficSpec};
use lgfi_sim::{
    FaultEvent, FaultEventKind, FaultPlan, FaultPlanCursor, InjectionProcess, SloTracker,
};
use lgfi_topology::Mesh;

use crate::churn::{ChurnConfig, ChurnProcess};
use crate::traffic::{TrafficGenerator, TrafficPattern};

/// The fault process driving a campaign.
#[derive(Debug, Clone)]
pub enum CampaignFaults {
    /// A materialised schedule (shaped clusters, fault fronts, regional outages).
    Plan(FaultPlan),
    /// A streaming Poisson fail/repair process seeded from the campaign seed.
    Churn(ChurnConfig),
}

/// A long-horizon fault campaign observed through the SLO plane.
#[derive(Debug, Clone)]
pub struct SloCampaign {
    /// Mesh radices.
    pub dims: Vec<i32>,
    /// Random seed (drives churn and traffic; plans carry their own seed).
    pub seed: u64,
    /// Rounds of information exchange per step (λ).
    pub lambda: u64,
    /// Worker threads for the information rounds (1 = serial); bit-identical
    /// results for every setting.
    pub threads: usize,
    /// Active-frontier scheduling for the labeling rounds.
    pub frontier: bool,
    /// Worker threads for probe routing decisions (unused by traffic campaigns but
    /// part of the network configuration).
    pub probe_threads: usize,
    /// The unified traffic surface: injection rate, injection cycles
    /// (`traffic.cycles` is the campaign horizon), drain window, the wormhole
    /// knobs (flits, VCs, buffers, escape class) and the traffic decision-worker
    /// count.
    pub traffic: TrafficSpec,
    /// Traffic pattern for the injected packets.
    pub pattern: TrafficPattern,
    /// The fault process.
    pub faults: CampaignFaults,
}

impl SloCampaign {
    /// A small churn campaign useful in examples and tests.
    pub fn small_churn() -> Self {
        SloCampaign {
            dims: vec![12, 12],
            seed: 1,
            lambda: 1,
            threads: 1,
            frontier: true,
            probe_threads: 1,
            traffic: TrafficSpec::at_rate(0.5)
                .cycles(1_500)
                .drain_cycles(2_000)
                .max_packet_cycles(2_000),
            pattern: TrafficPattern::UniformRandom,
            faults: CampaignFaults::Churn(ChurnConfig {
                fail_rate: 0.01,
                mean_downtime: 120.0,
                max_faulty: 6,
            }),
        }
    }

    /// The mesh described by this campaign.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(&self.dims)
    }

    /// Runs the campaign with routers produced by `make_router` and returns the
    /// accumulated SLOs.  Deterministic in the campaign fields: every thread knob
    /// yields a bit-identical [`CampaignResult`].
    pub fn run(&self, make_router: &dyn Fn() -> Box<dyn Router>) -> CampaignResult {
        let mesh = self.mesh();
        let horizon = self.traffic.cycles;
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                lambda: self.lambda,
                max_probe_steps: horizon + self.traffic.drain_cycles,
                threads: self.threads,
                frontier: self.frontier,
                probe_threads: self.probe_threads,
            },
        );
        let mut engine = TrafficEngine::new(mesh.clone(), self.traffic, make_router);
        let mut obs = SloObserver::new(mesh.node_count());

        // Pre-size the accumulators: latencies are capped by `max_packet_cycles`,
        // reconvergence times by the stabilisation horizon, bursts by the fault
        // process itself.
        let max_bursts = match &self.faults {
            CampaignFaults::Plan(plan) => plan
                .events()
                .iter()
                .filter(|e| e.kind == FaultEventKind::Fail)
                .count(),
            CampaignFaults::Churn(cfg) => (cfg.fail_rate * horizon as f64).ceil() as usize + 16,
        };
        obs.reserve(self.traffic.max_packet_cycles + 2, 4_096, max_bursts);
        engine.reserve(
            64 + (self.traffic.injection_rate.ceil() as usize) * 64,
            self.traffic.max_packet_cycles + 2,
        );

        // The event stream of the injection window: a cursor over the held plan,
        // or the churn process.  The drain runs without events.
        let mut plan_cursor = FaultPlanCursor::new();
        let mut churn = match &self.faults {
            CampaignFaults::Churn(cfg) => Some(ChurnProcess::new(mesh, self.seed, *cfg)),
            CampaignFaults::Plan(_) => None,
        };
        let drained = drive(
            &mut net,
            &mut engine,
            self.pattern,
            self.seed,
            0,
            |step, events| match (&self.faults, churn.as_mut()) {
                (CampaignFaults::Plan(plan), _) if step < horizon => {
                    events.clear();
                    events.extend_from_slice(plan_cursor.events_at(plan, step));
                }
                (CampaignFaults::Churn(_), Some(churn)) if step < horizon => {
                    churn.events_at(step, events);
                }
                _ => events.clear(),
            },
            |net, engine, events| {
                obs.observe_step(net, engine, events);
                obs.notify_records_cleared();
            },
        );

        CampaignResult {
            router: engine.router_name(),
            threads: net.threads(),
            traffic_threads: engine.traffic_threads(),
            horizon,
            drained,
            e_max_seen: obs.e_max_seen(),
            a_steps_max: obs.a_steps_max(),
            tracker: obs.into_tracker(),
        }
    }
}

/// The traffic loop of [`SloCampaign::run`] and
/// [`Scenario::run_traffic`](crate::scenario::Scenario::run_traffic).
///
/// `warmup` steps run the network without traffic; then `spec.cycles` steps
/// inject packets drawn from `pattern` at `spec.injection_rate`, and up to
/// `spec.drain_cycles` further steps let the in-flight packets finish (`spec`
/// is the engine's).  Every step applies the fault events `faults` writes for
/// it into a reused buffer.  After each step `sink` sees the network, the
/// engine and those events, and the engine's finished-packet records are then
/// cleared.  Returns the drain steps used.
pub(crate) fn drive(
    net: &mut LgfiNetwork,
    engine: &mut TrafficEngine,
    pattern: TrafficPattern,
    seed: u64,
    warmup: u64,
    mut faults: impl FnMut(u64, &mut Vec<FaultEvent>),
    mut sink: impl FnMut(&LgfiNetwork, &TrafficEngine, &[FaultEvent]),
) -> u64 {
    let spec = *engine.spec();
    let mut traffic = TrafficGenerator::new(net.mesh().clone(), pattern, seed ^ 0x00AF_F1C0);
    let mut injection = InjectionProcess::new(spec.injection_rate);
    let mut events = Vec::with_capacity(32);
    let injection_end = warmup + spec.cycles;
    let mut step = 0;
    while step < injection_end
        || (engine.in_flight() > 0 && step - injection_end < spec.drain_cycles)
    {
        faults(net.step(), &mut events);
        if step < warmup {
            net.run_step_with(&events);
        } else {
            if step < injection_end {
                for _ in 0..injection.packets_this_cycle() {
                    let statuses = net.statuses();
                    if let Some(req) =
                        traffic.next_request(|id| statuses[id] == NodeStatus::Enabled)
                    {
                        engine.inject(req.source, req.dest);
                    }
                }
            }
            net.run_traffic_step_with(&events, engine);
        }
        sink(net, engine, &events);
        engine.clear_records();
        step += 1;
    }
    step - injection_end
}

/// The outcome of an [`SloCampaign`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Name of the router that drove the packets.
    pub router: &'static str,
    /// Resolved information-round worker count (execution detail).
    pub threads: usize,
    /// Resolved traffic decision-worker count (execution detail).
    pub traffic_threads: usize,
    /// Injection cycles executed.
    pub horizon: u64,
    /// Drain cycles actually used.
    pub drained: u64,
    /// Largest block extent seen (the running Theorem-4 `e_max`).
    pub e_max_seen: u64,
    /// Longest stabilisation seen in steps (the running Theorem-4 `a_max`).
    pub a_steps_max: u64,
    /// The accumulated SLOs.
    pub tracker: SloTracker,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultgen::{ClusterShape, FaultGenerator, FaultPlacement};
    use lgfi_core::routing::LgfiRouter;

    #[test]
    fn plan_campaign_delivers_under_shaped_faults() {
        let mesh = Mesh::cubic(12, 2);
        let plan = FaultGenerator::new(mesh, 5).dynamic_plan(
            crate::faultgen::DynamicFaultConfig {
                fault_count: 5,
                first_step: 20,
                interval: 40,
                with_recovery: false,
                recovery_delay: 0,
            },
            FaultPlacement::Shaped(ClusterShape::L),
        );
        let mut campaign = SloCampaign {
            faults: CampaignFaults::Plan(plan),
            ..SloCampaign::small_churn()
        };
        campaign.traffic = campaign.traffic.cycles(400);
        let result = campaign.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(result.router, "lgfi");
        assert!(result.tracker.injected() > 100);
        assert!(
            result.tracker.delivery_rate() > 0.9,
            "rate {}",
            result.tracker.delivery_rate()
        );
        assert!(result.tracker.bursts() >= 1);
        assert!(result.e_max_seen >= 1);
    }

    #[test]
    fn churn_campaign_observes_bursts_and_reconvergence() {
        let campaign = SloCampaign::small_churn();
        let result = campaign.run(&|| Box::new(LgfiRouter::new()));
        assert!(result.tracker.injected() > 400);
        assert!(
            result.tracker.bursts() >= 3,
            "{} bursts",
            result.tracker.bursts()
        );
        assert!(result.tracker.reconverge().count() >= 1);
        assert!(
            result.tracker.delivery_rate() > 0.8,
            "rate {}",
            result.tracker.delivery_rate()
        );
        // Per-node SLOs were actually populated.
        assert!(result.tracker.per_node().iter().any(|n| n.injected > 0));
    }

    #[test]
    fn wormhole_campaigns_stay_deadlock_free_under_churn() {
        let mut campaign = SloCampaign::small_churn();
        campaign.traffic = campaign.traffic.cycles(400).flits_per_packet(4);
        let result = campaign.run(&|| Box::new(LgfiRouter::new()));
        assert!(result.tracker.injected() > 100);
        assert!(
            result.tracker.delivery_rate() > 0.8,
            "rate {}",
            result.tracker.delivery_rate()
        );
    }

    #[test]
    fn campaigns_are_deterministic_and_thread_invariant() {
        let mut campaign = SloCampaign::small_churn();
        campaign.traffic = campaign.traffic.cycles(500);
        let a = campaign.run(&|| Box::new(LgfiRouter::new()));
        let b = campaign.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(a, b);
        campaign.threads = 4;
        campaign.traffic = campaign.traffic.traffic_threads(4);
        let sharded = campaign.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(sharded.traffic_threads, 4);
        assert_eq!(a.tracker, sharded.tracker, "sharding must be invisible");
        assert_eq!(a.e_max_seen, sharded.e_max_seen);
    }
}

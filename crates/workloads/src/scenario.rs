//! Complete experiment scenarios: mesh + fault schedule + traffic + step model.

use lgfi_core::network::{ConvergenceRecord, LgfiNetwork, NetworkConfig, ProbeReport};
use lgfi_core::routing::Router;
use lgfi_core::traffic_engine::{PacketRecord, TrafficEngine, TrafficSpec};
use lgfi_sim::{FaultPlan, FaultPlanCursor, TrafficStats};
use lgfi_topology::Mesh;

use crate::campaign::drive;
use crate::faultgen::{DynamicFaultConfig, FaultGenerator, FaultPlacement};
use crate::traffic::{TrafficGenerator, TrafficPattern};

/// A self-contained experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Mesh radices.
    pub dims: Vec<i32>,
    /// Random seed (drives fault placement and traffic).
    pub seed: u64,
    /// Number of fault occurrences.
    pub fault_count: usize,
    /// Fault placement policy.
    pub placement: FaultPlacement,
    /// If `Some`, faults occur dynamically with this configuration; if `None`, all
    /// faults are static (present from step 0).
    pub dynamic: Option<DynamicFaultConfig>,
    /// Rounds of information exchange per step (λ).
    pub lambda: u64,
    /// Traffic pattern for the probes.
    pub traffic: TrafficPattern,
    /// Number of probes to route.
    pub messages: usize,
    /// Step at which the probes are launched.
    pub launch_step: u64,
    /// Hard cap on the total number of steps simulated.
    pub max_steps: u64,
    /// Worker threads for the network's information rounds (`1` = serial, `0` = one
    /// per available core); results are bit-identical for every setting.
    pub threads: usize,
    /// Active-frontier scheduling for the labeling rounds (on by default); like
    /// `threads`, an execution detail that never changes results.
    pub frontier: bool,
    /// Worker threads for the per-step probe routing decisions (`1` = serial, `0` =
    /// one per available core); like `threads`, results are bit-identical for every
    /// setting.
    pub probe_threads: usize,
}

impl Scenario {
    /// A small default scenario useful in examples and tests.
    pub fn small() -> Self {
        Scenario {
            dims: vec![10, 10],
            seed: 1,
            fault_count: 6,
            placement: FaultPlacement::UniformInterior,
            dynamic: None,
            lambda: 1,
            traffic: TrafficPattern::UniformRandom,
            messages: 10,
            launch_step: 60,
            max_steps: 5_000,
            threads: 1,
            frontier: true,
            probe_threads: 1,
        }
    }

    /// The mesh described by this scenario.
    pub fn mesh(&self) -> Mesh {
        Mesh::new(&self.dims)
    }

    /// The fault plan described by this scenario.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut generator = FaultGenerator::new(self.mesh(), self.seed);
        match self.dynamic {
            None => generator.static_plan(self.fault_count, self.placement),
            Some(mut cfg) => {
                cfg.fault_count = self.fault_count;
                generator.dynamic_plan(cfg, self.placement)
            }
        }
    }

    /// Runs the scenario with probes driven by routers produced by `router_factory`
    /// (one router instance per probe).
    pub fn run(&self, router_factory: &dyn Fn() -> Box<dyn Router>) -> ScenarioResult {
        let mesh = self.mesh();
        let plan = self.fault_plan();
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            plan,
            NetworkConfig {
                lambda: self.lambda,
                max_probe_steps: self.max_steps,
                threads: self.threads,
                frontier: self.frontier,
                probe_threads: self.probe_threads,
            },
        );
        // Warm-up: run to the launch step so static faults and their information can
        // (partially or fully) stabilise, exactly as a routing that starts at time t
        // with p earlier faults.
        while net.step() < self.launch_step {
            net.run_step();
        }
        // Launch the probes over nodes that are usable at launch time.
        let statuses = net.statuses().to_vec();
        let mut traffic = TrafficGenerator::new(mesh, self.traffic, self.seed ^ 0x5EED);
        let requests = traffic.requests(self.messages, |id| {
            statuses[id] == lgfi_core::status::NodeStatus::Enabled
        });
        for r in &requests {
            net.launch_probe(r.source, r.dest, router_factory());
        }
        net.run_to_completion(self.max_steps);
        ScenarioResult {
            requested: self.messages,
            launched: requests.len(),
            threads: net.threads(),
            reports: net.reports().to_vec(),
            convergence: net.convergence_records().to_vec(),
        }
    }

    /// Runs the scenario as a *concurrent-traffic* experiment: instead of a fixed
    /// batch of independent probes, multi-flit packets (worms) are injected at
    /// `spec.injection_rate` packets per cycle (drawn from this scenario's traffic
    /// pattern over nodes usable at injection time) and contend for
    /// finite-capacity links, virtual channels and flit-buffer credits while the
    /// fault plan unfolds, so queueing latency and accepted throughput become
    /// observable.
    ///
    /// `spec` carries every traffic setting, including the per-packet cycle budget
    /// (`max_packet_cycles`) and the decision-worker count (`traffic_threads`); the
    /// scenario's `max_steps` bounds only the probe steps of the network.
    ///
    /// One network step is one traffic cycle.  The first `launch_step` steps run
    /// without traffic (information warm-up, as in [`Scenario::run`]), then
    /// `spec.cycles` injection cycles, then up to `spec.drain_cycles` further
    /// cycles to let the in-flight packets finish.  The fault plan fires at every
    /// one of these steps, the drain included.
    ///
    /// ```
    /// use lgfi_core::routing::LgfiRouter;
    /// use lgfi_core::traffic_engine::TrafficSpec;
    /// use lgfi_workloads::Scenario;
    ///
    /// let scenario = Scenario::small();
    /// // 1 = serial, 0 = one worker per core; results are identical for every count.
    /// let spec = TrafficSpec::at_rate(1.0).traffic_threads(4);
    /// let result = scenario.run_traffic(spec, &|| Box::new(LgfiRouter::new()));
    /// println!("accepted {:.2} pkt/cycle, mean latency {:.1} cycles",
    ///          result.accepted_throughput(), result.mean_latency());
    /// assert_eq!(result.traffic_threads, 4);
    /// ```
    pub fn run_traffic(
        &self,
        spec: TrafficSpec,
        router_factory: &dyn Fn() -> Box<dyn Router>,
    ) -> TrafficResult {
        let mesh = self.mesh();
        let plan = self.fault_plan();
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                lambda: self.lambda,
                max_probe_steps: self.max_steps,
                threads: self.threads,
                frontier: self.frontier,
                probe_threads: self.probe_threads,
            },
        );
        let mut engine = TrafficEngine::new(mesh, spec, router_factory);
        // The plan fires at every step: warm-up, injection window and drain.
        let mut cursor = FaultPlanCursor::new();
        let mut records = Vec::new();
        drive(
            &mut net,
            &mut engine,
            self.traffic,
            self.seed,
            self.launch_step,
            |step, events| {
                events.clear();
                events.extend_from_slice(cursor.events_at(&plan, step));
            },
            |_, engine, _| records.extend_from_slice(engine.records()),
        );
        TrafficResult {
            offered_load: spec.injection_rate,
            measured_cycles: spec.cycles,
            traffic_threads: engine.traffic_threads(),
            router: engine.router_name(),
            stats: engine.stats().clone(),
            records,
        }
    }
}

/// The outcome of a [`Scenario::run_traffic`] run.
#[derive(Debug, Clone)]
pub struct TrafficResult {
    /// The offered load (packets per cycle).
    pub offered_load: f64,
    /// Injection-window cycles (the throughput denominator).
    pub measured_cycles: u64,
    /// Resolved traffic decision-worker count the engine ran with (1 = serial).
    pub traffic_threads: usize,
    /// Name of the router that drove the packets.
    pub router: &'static str,
    /// Accumulated counters (latency distribution, stalls, hops).
    pub stats: TrafficStats,
    /// Per-packet records in retirement order.
    pub records: Vec<PacketRecord>,
}

impl TrafficResult {
    /// Number of delivered packets.
    pub fn delivered(&self) -> usize {
        self.stats.delivered() as usize
    }

    /// Delivered fraction of the injected packets (1.0 when nothing was injected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.stats.injected() == 0 {
            1.0
        } else {
            self.stats.delivered() as f64 / self.stats.injected() as f64
        }
    }

    /// Accepted throughput: packets delivered per injection-window cycle
    /// (deliveries completed while draining count towards the numerator).
    pub fn accepted_throughput(&self) -> f64 {
        self.stats.delivered() as f64 / self.measured_cycles.max(1) as f64
    }

    /// Mean delivered latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.stats.mean_latency()
    }

    /// 99th-percentile delivered latency in cycles (0 before any delivery).
    pub fn p99_latency(&self) -> u64 {
        self.stats.latency_quantile(0.99).unwrap_or(0)
    }

    /// Number of worms the cycle-driven deadlock detector tore down.
    pub fn deadlocked(&self) -> u64 {
        self.stats.deadlocked()
    }
}

/// The outcome of running a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Number of probes requested by the scenario.
    pub requested: usize,
    /// Number of probes actually launched (usable endpoints found).
    pub launched: usize,
    /// Resolved worker-thread count the network ran with (`1` = serial), recorded so
    /// summaries and benchmark output state which execution mode produced the numbers.
    pub threads: usize,
    /// Per-probe reports.
    pub reports: Vec<ProbeReport>,
    /// Convergence records of the fault-information constructions.
    pub convergence: Vec<ConvergenceRecord>,
}

impl ScenarioResult {
    /// Number of delivered probes.
    pub fn delivered(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome.delivered())
            .count()
    }

    /// Delivery ratio over the launched probes.
    pub fn delivery_ratio(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.delivered() as f64 / self.reports.len() as f64
        }
    }

    /// Mean number of detour steps over the delivered probes.
    pub fn mean_detours(&self) -> f64 {
        let detours: Vec<u64> = self
            .reports
            .iter()
            .filter_map(|r| r.outcome.detours())
            .collect();
        if detours.is_empty() {
            0.0
        } else {
            detours.iter().sum::<u64>() as f64 / detours.len() as f64
        }
    }

    /// Mean path stretch over the delivered probes.
    pub fn mean_stretch(&self) -> f64 {
        let stretches: Vec<f64> = self
            .reports
            .iter()
            .filter_map(|r| r.outcome.stretch())
            .collect();
        if stretches.is_empty() {
            0.0
        } else {
            stretches.iter().sum::<f64>() / stretches.len() as f64
        }
    }

    /// The largest `a_i + b_i + c_i` over all disturbances (how long the information
    /// took to converge).
    pub fn max_convergence_rounds(&self) -> u64 {
        self.convergence
            .iter()
            .map(|c| c.total_rounds())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_core::routing::LgfiRouter;

    #[test]
    fn small_scenario_runs_and_delivers() {
        let scenario = Scenario::small();
        let result = scenario.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(result.requested, 10);
        assert!(result.launched > 0);
        assert_eq!(result.reports.len(), result.launched);
        assert!(
            result.delivery_ratio() > 0.9,
            "ratio {}",
            result.delivery_ratio()
        );
        assert!(result.mean_stretch() >= 1.0 || result.reports.is_empty());
        assert!(!result.convergence.is_empty());
        assert!(result.max_convergence_rounds() > 0);
    }

    #[test]
    fn dynamic_scenario_with_recovery_runs() {
        let scenario = Scenario {
            dims: vec![12, 12],
            seed: 3,
            fault_count: 3,
            placement: FaultPlacement::UniformInterior,
            dynamic: Some(DynamicFaultConfig {
                fault_count: 3,
                first_step: 5,
                interval: 60,
                with_recovery: true,
                recovery_delay: 120,
            }),
            lambda: 2,
            traffic: TrafficPattern::CornerToCorner,
            messages: 4,
            launch_step: 0,
            max_steps: 5_000,
            threads: 1,
            frontier: true,
            probe_threads: 1,
        };
        let result = scenario.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(result.launched, 4);
        assert_eq!(
            result.delivered(),
            4,
            "corner-to-corner probes must all deliver"
        );
        // Faults and recoveries both trigger convergence records.
        assert!(result.convergence.len() >= 3);
    }

    #[test]
    fn scenario_results_are_deterministic() {
        let scenario = Scenario::small();
        let a = scenario.run(&|| Box::new(LgfiRouter::new()));
        let b = scenario.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(a.delivered(), b.delivered());
        assert_eq!(a.mean_detours(), b.mean_detours());
        assert_eq!(a.convergence, b.convergence);
    }

    #[test]
    fn scenario_frontier_knob_does_not_change_results() {
        let mut scenario = Scenario::small();
        scenario.dims = vec![12, 12];
        scenario.fault_count = 5;
        assert!(scenario.frontier, "frontier scheduling is the default");
        let on = scenario.run(&|| Box::new(LgfiRouter::new()));
        scenario.frontier = false;
        let off = scenario.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(on.delivered(), off.delivered());
        assert_eq!(on.convergence, off.convergence);
        assert_eq!(format!("{:?}", on.reports), format!("{:?}", off.reports));
    }

    #[test]
    fn traffic_run_delivers_under_load() {
        let mut scenario = Scenario::small();
        scenario.fault_count = 4;
        let load = TrafficSpec::at_rate(0.5)
            .cycles(100)
            .drain_cycles(2_000)
            .max_packet_cycles(scenario.max_steps);
        let result = scenario.run_traffic(load, &|| Box::new(LgfiRouter::new()));
        assert_eq!(result.router, "lgfi");
        assert_eq!(result.traffic_threads, 1);
        assert!(result.stats.injected() >= 45, "{:?}", result.stats);
        assert!(
            result.delivery_ratio() > 0.95,
            "ratio {}",
            result.delivery_ratio()
        );
        assert!(result.accepted_throughput() > 0.0);
        assert!(result.mean_latency() >= 1.0);
        assert!(result.p99_latency() >= result.stats.latency_quantile(0.5).unwrap_or(0));
        assert_eq!(result.records.len(), result.stats.injected() as usize);
    }

    #[test]
    fn traffic_runs_are_deterministic_and_thread_invariant() {
        let mut scenario = Scenario::small();
        scenario.dims = vec![12, 12];
        scenario.fault_count = 5;
        let load = TrafficSpec::at_rate(0.8)
            .flits_per_packet(4)
            .max_packet_cycles(scenario.max_steps);
        let a = scenario.run_traffic(load, &|| Box::new(LgfiRouter::new()));
        let b = scenario.run_traffic(load, &|| Box::new(LgfiRouter::new()));
        assert_eq!(a.records, b.records);
        assert_eq!(a.stats, b.stats);
        // The spec's worker count is the one the run uses.
        let sharded =
            scenario.run_traffic(load.traffic_threads(4), &|| Box::new(LgfiRouter::new()));
        assert_eq!(sharded.traffic_threads, 4);
        assert_eq!(a.records, sharded.records, "sharding must be invisible");
        assert_eq!(a.stats, sharded.stats);
    }

    #[test]
    fn multi_flit_worms_deliver_through_faults() {
        let mut scenario = Scenario::small();
        scenario.fault_count = 4;
        let load = TrafficSpec::at_rate(0.4)
            .cycles(80)
            .flits_per_packet(8)
            .max_packet_cycles(scenario.max_steps);
        let result = scenario.run_traffic(load, &|| Box::new(LgfiRouter::new()));
        assert!(result.stats.injected() > 0);
        assert!(
            result.delivery_ratio() > 0.95,
            "ratio {}",
            result.delivery_ratio()
        );
        assert_eq!(
            result.deadlocked(),
            0,
            "escape VCs keep worms deadlock-free"
        );
        // Each worm needs at least F - 1 extra cycles to stream its body.
        assert!(result.mean_latency() >= 8.0, "{}", result.mean_latency());
    }

    #[test]
    fn zero_injection_rate_produces_no_traffic() {
        let scenario = Scenario::small();
        let load = TrafficSpec::at_rate(0.0).max_packet_cycles(scenario.max_steps);
        let result = scenario.run_traffic(load, &|| Box::new(LgfiRouter::new()));
        assert_eq!(result.stats.injected(), 0);
        assert_eq!(result.records.len(), 0);
        assert_eq!(
            result.delivery_ratio(),
            1.0,
            "nothing offered, nothing lost"
        );
        assert_eq!(result.accepted_throughput(), 0.0);
    }

    #[test]
    fn scenario_threads_knob_does_not_change_results() {
        let mut scenario = Scenario::small();
        scenario.dims = vec![12, 12];
        scenario.fault_count = 5;
        let serial = scenario.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(serial.threads, 1);
        scenario.threads = 4;
        let parallel = scenario.run(&|| Box::new(LgfiRouter::new()));
        assert_eq!(parallel.threads, 4);
        assert_eq!(serial.delivered(), parallel.delivered());
        assert_eq!(serial.convergence, parallel.convergence);
        assert_eq!(
            format!("{:?}", serial.reports),
            format!("{:?}", parallel.reports)
        );
    }
}

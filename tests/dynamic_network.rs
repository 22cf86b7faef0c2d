//! Integration tests for the dynamic Figure-7 step loop: information convergence,
//! inconsistent-information periods, recoveries, multiple concurrent probes and λ.

use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;

#[test]
fn information_distribution_is_gradual_and_complete() {
    let mesh = Mesh::cubic(14, 2);
    let faults = [coord![6, 7], coord![7, 8], coord![6, 8], coord![7, 7]];
    let plan = FaultPlan::static_faults(&faults.iter().map(|c| mesh.id_of(c)).collect::<Vec<_>>());
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let mut coverage = Vec::new();
    for _ in 0..60 {
        net.run_step();
        coverage.push(net.nodes_with_visible_info());
    }
    // Coverage grows monotonically (no oscillation for a single static block) and
    // saturates.
    assert!(coverage.windows(2).all(|w| w[1] >= w[0]), "{coverage:?}");
    let final_coverage = *coverage.last().unwrap();
    assert!(final_coverage > 0);
    assert_eq!(
        coverage.iter().copied().max().unwrap(),
        final_coverage,
        "coverage must saturate"
    );
    // And it matches the statically computed information placement.
    let layout = StaticLayout::from_statuses(mesh, net.statuses());
    assert_eq!(final_coverage, layout.boundary().nodes_with_info());
}

#[test]
fn converging_period_can_mislead_but_routing_still_succeeds() {
    // Launch the probe immediately, before any block information exists; faults appear
    // right in front of it.  During the converging period the probe routes on
    // inconsistent information but must still arrive.
    let mesh = Mesh::cubic(16, 2);
    let mut events = Vec::new();
    for c in [coord![7, 7], coord![8, 8], coord![7, 8], coord![8, 7]] {
        events.push(FaultEvent::fail(4, mesh.id_of(&c)));
    }
    let plan = FaultPlan::new(events);
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    net.launch_probe(
        mesh.id_of(&coord![7, 0]),
        mesh.id_of(&coord![8, 15]),
        Box::new(LgfiRouter::new()),
    );
    net.run_to_completion(5_000);
    let report = &net.reports()[0];
    assert!(report.outcome.delivered());
    assert!(report.outcome.steps >= u64::from(report.outcome.initial_distance));
    assert_eq!(report.distance_at_fault.len(), 1);
}

#[test]
fn multiple_probes_share_the_network() {
    let mesh = Mesh::cubic(14, 2);
    let mut generator = FaultGenerator::new(mesh.clone(), 3);
    let plan = generator.dynamic_plan(
        DynamicFaultConfig {
            fault_count: 4,
            first_step: 5,
            interval: 30,
            with_recovery: false,
            recovery_delay: 0,
        },
        FaultPlacement::UniformInterior,
    );
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let corners = [
        (coord![0, 0], coord![13, 13]),
        (coord![13, 0], coord![0, 13]),
        (coord![0, 13], coord![13, 0]),
        (coord![13, 13], coord![0, 0]),
        (coord![0, 6], coord![13, 7]),
    ];
    for (s, d) in &corners {
        net.launch_probe(mesh.id_of(s), mesh.id_of(d), Box::new(LgfiRouter::new()));
    }
    assert_eq!(net.probes_in_flight(), corners.len());
    net.run_to_completion(10_000);
    assert_eq!(net.reports().len(), corners.len());
    assert_eq!(net.probes_in_flight(), 0);
    for report in net.reports() {
        assert!(report.outcome.delivered(), "{report:?}");
    }
}

#[test]
fn recovery_mid_route_and_stale_information_deletion() {
    let mesh = Mesh::cubic(14, 2);
    let block_nodes = [coord![6, 6], coord![7, 7], coord![6, 7], coord![7, 6]];
    let mut plan = FaultPlan::static_faults(
        &block_nodes
            .iter()
            .map(|c| mesh.id_of(c))
            .collect::<Vec<_>>(),
    );
    for c in &block_nodes {
        plan.push(FaultEvent::recover(60, mesh.id_of(c)));
    }
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    // Let the block information spread first.
    for _ in 0..30 {
        net.run_step();
    }
    assert!(net.nodes_with_visible_info() > 0);
    net.launch_probe(
        mesh.id_of(&coord![6, 1]),
        mesh.id_of(&coord![7, 12]),
        Box::new(LgfiRouter::new()),
    );
    net.run_to_completion(5_000);
    assert!(net.reports()[0].outcome.delivered());
    // After the recovery stabilises, every piece of stale boundary information is
    // eventually deleted — the deletion wave itself travels one hop per round, so give
    // it a few more steps to drain.
    assert_eq!(net.blocks().len(), 0);
    for _ in 0..40 {
        net.run_step();
    }
    assert_eq!(net.nodes_with_visible_info(), 0);
    // Both the fault burst and the recovery produced convergence records.
    assert!(net.convergence_records().len() >= 2);
}

#[test]
fn larger_lambda_never_slows_down_information_convergence() {
    let mesh = Mesh::cubic(16, 2);
    let faults: Vec<usize> = [coord![7, 8], coord![8, 9], coord![7, 9], coord![8, 8]]
        .iter()
        .map(|c| mesh.id_of(c))
        .collect();
    let observer = mesh.id_of(&coord![6, 0]);
    let steps_until_visible = |lambda: u64| -> u64 {
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::static_faults(&faults),
            NetworkConfig {
                lambda,
                max_probe_steps: 1_000,
                ..NetworkConfig::default()
            },
        );
        for step in 0..500 {
            net.run_step();
            if !net.visible_info(observer).is_empty() {
                return step;
            }
        }
        panic!("information never arrived for lambda {lambda}");
    };
    let mut previous = u64::MAX;
    for lambda in [1, 2, 4, 8] {
        let steps = steps_until_visible(lambda);
        assert!(steps <= previous, "lambda {lambda}: {steps} > {previous}");
        previous = steps;
    }
}

#[test]
fn scenario_harness_end_to_end_with_every_router_name() {
    use lgfi::core::routing::Router;
    type RouterFactory = Box<dyn Fn() -> Box<dyn Router>>;
    let factories: Vec<(&str, RouterFactory)> = vec![
        (
            "lgfi",
            Box::new(|| Box::new(LgfiRouter::new()) as Box<dyn Router>),
        ),
        (
            "global-info",
            Box::new(|| Box::new(GlobalInfoRouter::new()) as Box<dyn Router>),
        ),
        (
            "local-only",
            Box::new(|| Box::new(LocalInfoRouter::new()) as Box<dyn Router>),
        ),
    ];
    for (name, factory) in &factories {
        let mut scenario = Scenario::small();
        scenario.dims = vec![12, 12];
        scenario.messages = 8;
        scenario.fault_count = 5;
        let result = scenario.run(factory.as_ref());
        assert!(result.launched > 0, "{name}");
        assert!(
            result.delivery_ratio() > 0.9,
            "{name}: delivery {}",
            result.delivery_ratio()
        );
        for report in &result.reports {
            assert_eq!(report.router, *name);
        }
    }
}

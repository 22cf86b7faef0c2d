//! Equivalence property matrix for the batched/parallel probe data plane.
//!
//! The routing rework introduced recycled probe engines ([`ProbeEngine`]), batched
//! static sweeps ([`StaticLayout::sweep`]) and sharded per-step probe decisions in the
//! dynamic network (`NetworkConfig::probe_threads`).  All of them are execution
//! details: this suite asserts, over a matrix of routers × thread counts × fault
//! patterns (static and dynamic, with recoveries), that every configuration produces
//! **bit-identical** outcomes and [`ProbeReport`]s to the serial one-probe-at-a-time
//! seed path.

use lgfi::core::routing::{ProbeEngine, ProbeOutcome, Router};
use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;
use lgfi_sim::FaultEvent;

fn router_by_name(name: &str) -> Box<dyn Router> {
    match name {
        "lgfi" => Box::new(LgfiRouter::new()),
        "global-info" => Box::new(GlobalInfoRouter::new()),
        "local-only" => Box::new(LocalInfoRouter::new()),
        "wu-minimal-block" => Box::new(StaticBlockRouter::new()),
        "dimension-order" => Box::new(DimensionOrderRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

const ROUTERS: [&str; 5] = [
    "lgfi",
    "global-info",
    "local-only",
    "wu-minimal-block",
    "dimension-order",
];

/// `fault_count` uniform faults, stabilised, and `probes` seeded pairs among
/// the enabled nodes.
fn static_world(
    dims: &[i32],
    fault_count: usize,
    seed: u64,
    probes: usize,
) -> (StaticLayout, Vec<(NodeId, NodeId)>) {
    let mesh = Mesh::new(dims);
    let mut generator = FaultGenerator::new(mesh.clone(), seed);
    let faults = generator.place(fault_count, FaultPlacement::UniformInterior);
    let mut traffic = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed ^ 7);
    let layout = StaticLayout::new(mesh, &faults);
    let statuses = layout.statuses();
    let pairs = traffic
        .requests(probes, |id| statuses[id] == NodeStatus::Enabled)
        .into_iter()
        .map(|r| (r.source, r.dest))
        .collect();
    (layout, pairs)
}

/// The serial seed path: one fresh one-shot engine per probe
/// ([`StaticLayout::route`]), no buffer recycling anywhere.
fn seed_outcomes(
    layout: &StaticLayout,
    pairs: &[(NodeId, NodeId)],
    router: &dyn Router,
) -> Vec<ProbeOutcome> {
    pairs
        .iter()
        .map(|&(s, d)| layout.route(router, s, d, 100_000))
        .collect()
}

#[test]
fn recycled_probe_engine_matches_one_shot_engines() {
    // Buffer recycling (path, used-direction arena, neighbor slots) must be
    // invisible: a single warm engine routing the whole batch produces the same
    // outcomes as a fresh engine per probe.
    for (dims, faults) in [(&[16i32, 16][..], 14usize), (&[8, 8, 8][..], 20)] {
        let (layout, pairs) = static_world(dims, faults, 3, 30);
        for name in ROUTERS {
            let router = router_by_name(name);
            let fresh = seed_outcomes(&layout, &pairs, router.as_ref());
            let mut engine = ProbeEngine::new();
            let env = layout.env();
            let recycled: Vec<ProbeOutcome> = pairs
                .iter()
                .map(|&(s, d)| engine.route(layout.mesh(), &env, router.as_ref(), s, d, 100_000))
                .collect();
            assert_eq!(fresh, recycled, "router {name} dims {dims:?}");
        }
    }
}

#[test]
fn batched_sweeps_are_bit_identical_to_serial_for_every_router_and_thread_count() {
    for (dims, faults, seed) in [
        (&[20i32, 20][..], 18usize, 1u64),
        (&[12, 12][..], 8, 5),
        (&[9, 9, 9][..], 22, 2),
    ] {
        let (layout, pairs) = static_world(dims, faults, seed, 40);
        for name in ROUTERS {
            let serial = seed_outcomes(&layout, &pairs, router_by_name(name).as_ref());
            for threads in [1usize, 2, 3, 8] {
                let batched = layout.sweep(&|| router_by_name(name), &pairs, 100_000, threads);
                assert_eq!(
                    serial, batched,
                    "router {name} threads {threads} dims {dims:?} seed {seed}"
                );
            }
        }
    }
}

/// Pool-lifecycle cross-check: every `StaticLayout::sweep` call spins up its own
/// worker pool, so back-to-back pooled sweeps (pool spawn → sweep → pool
/// teardown, repeated) must reproduce each other and the one-engine-per-probe
/// serial path exactly — no state may leak between pools or linger in a
/// half-torn-down one.
#[test]
fn repeated_pooled_sweeps_are_stable_and_match_serial() {
    let (layout, pairs) = static_world(&[18, 18], 16, 11, 48);
    for name in ROUTERS {
        let serial = seed_outcomes(&layout, &pairs, router_by_name(name).as_ref());
        let sweep =
            |threads: usize| layout.sweep(&|| router_by_name(name), &pairs, 100_000, threads);
        let first = sweep(4);
        let second = sweep(4);
        let narrower = sweep(2);
        assert_eq!(
            first, second,
            "router {name}: pooled sweeps diverged run-to-run"
        );
        assert_eq!(
            first, narrower,
            "router {name}: pool width changed the outcomes"
        );
        assert_eq!(
            serial, first,
            "router {name}: pooled sweep diverged from serial"
        );
    }
}

#[test]
fn empty_and_single_probe_batches_are_handled() {
    let (layout, pairs) = static_world(&[10, 10], 6, 9, 1);
    let lgfi = || router_by_name("lgfi");
    assert!(layout.sweep(&lgfi, &[], 100_000, 4).is_empty());
    let one = layout.sweep(&lgfi, &pairs, 100_000, 4);
    assert_eq!(one, seed_outcomes(&layout, &pairs, lgfi().as_ref()));
}

/// Runs a dynamic scenario (faults appearing mid-flight, one recovery wave) with
/// many probes in flight and returns every observable network output.
fn dynamic_fingerprint(router: &str, probe_threads: usize) -> (Vec<NodeStatus>, String, u64) {
    let mesh = Mesh::cubic(14, 2);
    let mut plan = FaultPlan::new(vec![
        FaultEvent::fail(0, mesh.id_of(&coord![6, 6])),
        FaultEvent::fail(0, mesh.id_of(&coord![7, 7])),
        FaultEvent::fail(0, mesh.id_of(&coord![6, 7])),
        FaultEvent::fail(12, mesh.id_of(&coord![3, 9])),
        FaultEvent::fail(12, mesh.id_of(&coord![4, 10])),
        FaultEvent::fail(30, mesh.id_of(&coord![10, 4])),
    ]);
    plan.push(FaultEvent::recover(50, mesh.id_of(&coord![6, 6])));
    let mut net = LgfiNetwork::new(
        mesh.clone(),
        plan,
        NetworkConfig {
            lambda: 2,
            probe_threads,
            ..NetworkConfig::default()
        },
    );
    // A spread of probes launched at different times so the in-flight set the
    // decision workers shard over keeps changing.
    let launches = [
        (coord![0, 0], coord![13, 13]),
        (coord![13, 0], coord![0, 13]),
        (coord![0, 13], coord![13, 0]),
        (coord![1, 6], coord![12, 7]),
        (coord![6, 1], coord![7, 12]),
        (coord![2, 2], coord![11, 11]),
        (coord![12, 12], coord![1, 1]),
    ];
    for (i, (s, d)) in launches.iter().enumerate() {
        if i == 4 {
            // Stagger: advance a few steps mid-launch sequence.
            for _ in 0..3 {
                net.run_step();
            }
        }
        net.launch_probe(mesh.id_of(s), mesh.id_of(d), router_by_name(router));
    }
    net.run_to_completion(5_000);
    assert_eq!(
        net.probe_threads(),
        lgfi_sim::resolve_threads(probe_threads)
    );
    (
        net.statuses().to_vec(),
        format!("{:?}{:?}", net.reports(), net.convergence_records()),
        net.round(),
    )
}

#[test]
fn dynamic_network_probe_sharding_is_bit_identical_to_serial() {
    for router in ROUTERS {
        let serial = dynamic_fingerprint(router, 1);
        for probe_threads in [2usize, 4, 0] {
            let parallel = dynamic_fingerprint(router, probe_threads);
            assert_eq!(
                serial.0, parallel.0,
                "router {router} probe_threads {probe_threads}: statuses diverged"
            );
            assert_eq!(
                serial.1, parallel.1,
                "router {router} probe_threads {probe_threads}: reports diverged"
            );
            assert_eq!(serial.2, parallel.2);
        }
    }
}

#[test]
fn probe_sharding_composes_with_round_sharding_and_frontier() {
    // All three execution knobs at once must still be bit-identical to the fully
    // serial run.
    let run = |threads: usize, probe_threads: usize, frontier: bool| {
        let scenario = Scenario {
            dims: vec![12, 12],
            seed: 11,
            fault_count: 6,
            placement: FaultPlacement::UniformInterior,
            dynamic: Some(DynamicFaultConfig {
                fault_count: 6,
                first_step: 2,
                interval: 25,
                with_recovery: true,
                recovery_delay: 60,
            }),
            lambda: 1,
            traffic: TrafficPattern::UniformRandom,
            messages: 12,
            launch_step: 5,
            max_steps: 50_000,
            threads,
            frontier,
            probe_threads,
        };
        let result = scenario.run(&|| router_by_name("lgfi"));
        (
            format!("{:?}", result.reports),
            result.delivered(),
            result.convergence,
        )
    };
    let reference = run(1, 1, true);
    for (threads, probe_threads, frontier) in
        [(2, 2, true), (4, 3, false), (1, 4, false), (3, 1, true)]
    {
        assert_eq!(
            reference,
            run(threads, probe_threads, frontier),
            "threads {threads} probe_threads {probe_threads} frontier {frontier}"
        );
    }
}

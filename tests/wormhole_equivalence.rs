//! Equivalence and deadlock property matrix for the wormhole data plane.
//!
//! With `flits_per_packet > 1` a packet is a worm occupying a path of links
//! head-to-tail, contending for virtual channels and flit-buffer credits.  The
//! decision sweep is still sharded over `traffic_threads` workers while every
//! worm/VC/credit mutation is resolved serially in packet-id order, so sharding
//! must remain an execution detail: this suite asserts, over a matrix of routers ×
//! thread counts × fault patterns × escape-class settings, that every
//! configuration produces **bit-identical** flit-level records and statistics to
//! the serial run (mirrors `tests/traffic_equivalence.rs` for the single-flit
//! plane).
//!
//! The second half is the deadlock suite: an adversarial ring-cluster workload
//! that produces a cyclic credit wait around a central faulty block.  Without the
//! escape class the cycle-driven detector must fire and tear the cycle down;
//! with escape VCs enabled (dimension-order restricted VC 0) the same workload
//! must drain with **zero** deadlocks for every router.
//!
//! `env_configured_wormhole_is_bit_identical_to_serial` honours `LGFI_VCS` /
//! `LGFI_FLITS` (plus the execution knobs), which is what the CI
//! determinism-matrix wormhole leg varies.

use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;
use lgfi_core::traffic_engine::{TrafficEngine, TrafficSpec};
use lgfi_sim::TrafficStats;
use lgfi_topology::coord;

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

/// A wormhole scenario stressful enough that sharding bugs would show: several
/// multi-flit worms in flight at once spanning decision chunks, VC contention at
/// shared links, and (optionally) faults appearing and recovering mid-flight.
fn scenario(dynamic: bool) -> Scenario {
    Scenario {
        dims: vec![12, 12],
        seed: 29,
        fault_count: 6,
        placement: FaultPlacement::Clustered { clusters: 2 },
        dynamic: if dynamic {
            Some(DynamicFaultConfig {
                fault_count: 6,
                first_step: 10,
                interval: 25,
                with_recovery: true,
                recovery_delay: 70,
            })
        } else {
            None
        },
        lambda: 1,
        traffic: TrafficPattern::UniformRandom,
        messages: 0,
        launch_step: if dynamic { 0 } else { 40 },
        max_steps: 50_000,
        threads: 1,
        frontier: true,
        probe_threads: 1,
    }
}

fn fingerprint(
    router: &str,
    dynamic: bool,
    traffic_threads: usize,
    spec: TrafficSpec,
) -> (Vec<PacketRecord>, TrafficStats) {
    let s = scenario(dynamic);
    let spec = spec
        .max_packet_cycles(s.max_steps)
        .traffic_threads(traffic_threads);
    let result = s.run_traffic(spec, &|| router_by_name(router));
    assert!(
        result.stats.injected() >= 50,
        "the run must actually exercise wormhole concurrency: {:?}",
        result.stats
    );
    (result.records, result.stats)
}

fn worm_spec(flits: u32, vcs: u32, escape: bool) -> TrafficSpec {
    TrafficSpec::at_rate(1.2)
        .cycles(60)
        .drain_cycles(5_000)
        .flits_per_packet(flits)
        .vc_count(vcs)
        .escape_vc(escape)
}

#[test]
fn sharded_static_wormhole_is_bit_identical_to_serial_for_every_router() {
    for router in ROUTERS {
        let serial = fingerprint(router, false, 1, worm_spec(4, 2, true));
        for traffic_threads in [2usize, 0] {
            let sharded = fingerprint(router, false, traffic_threads, worm_spec(4, 2, true));
            assert_eq!(
                serial.0, sharded.0,
                "router {router} traffic_threads {traffic_threads}: records diverged"
            );
            assert_eq!(
                serial.1, sharded.1,
                "router {router} traffic_threads {traffic_threads}: stats diverged"
            );
        }
    }
}

#[test]
fn sharded_dynamic_wormhole_is_bit_identical_to_serial_for_every_router() {
    // Faults appear and recover *while* worms hold multi-link paths: forced
    // teardowns and retreats off freshly faulty nodes must shard identically too.
    for router in ROUTERS {
        let serial = fingerprint(router, true, 1, worm_spec(4, 2, true));
        for traffic_threads in [3usize, 0] {
            let sharded = fingerprint(router, true, traffic_threads, worm_spec(4, 2, true));
            assert_eq!(
                serial.0, sharded.0,
                "router {router} traffic_threads {traffic_threads}: records diverged"
            );
            assert_eq!(serial.1, sharded.1);
        }
    }
}

#[test]
fn escape_class_setting_shards_identically_in_both_positions() {
    // The escape class changes *which* VCs a head may take (and therefore which
    // worms deadlock); it must not change the determinism story.  Both settings,
    // including any detector teardowns under `escape_vc(false)`, must be
    // bit-identical across thread counts.
    for escape in [true, false] {
        let spec = worm_spec(6, 2, escape).deadlock_threshold(32);
        let serial = fingerprint("lgfi", true, 1, spec);
        for traffic_threads in [2usize, 4] {
            let sharded = fingerprint("lgfi", true, traffic_threads, spec);
            assert_eq!(
                serial.0, sharded.0,
                "escape {escape} traffic_threads {traffic_threads}: records diverged"
            );
            assert_eq!(serial.1, sharded.1);
        }
    }
}

#[test]
fn env_configured_wormhole_is_bit_identical_to_serial() {
    // The CI determinism matrix varies LGFI_VCS / LGFI_FLITS alongside the
    // execution knobs; whatever combination is set, the run must reproduce the
    // serial reference (same worm geometry, one thread) exactly.
    let knob = |name: &str, default: usize| -> usize {
        match std::env::var(name) {
            Ok(s) if !s.trim().is_empty() => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer, got {s:?}")),
            _ => default,
        }
    };
    let flits = knob("LGFI_FLITS", 4) as u32;
    let vcs = (knob("LGFI_VCS", 2) as u32).max(2);
    let traffic_threads = knob("LGFI_TRAFFIC_THREADS", 1);
    let spec = worm_spec(flits.max(1), vcs, true);
    let reference = fingerprint("lgfi", true, 1, spec);
    let configured = fingerprint("lgfi", true, traffic_threads, spec);
    assert_eq!(
        reference.0, configured.0,
        "LGFI_FLITS={flits} LGFI_VCS={vcs} LGFI_TRAFFIC_THREADS={traffic_threads}: \
         records diverged from serial"
    );
    assert_eq!(reference.1, configured.1);
}

// --- Deadlock suite -----------------------------------------------------------

/// The adversarial ring-cluster pattern: a central faulty block forces four long
/// worms around its ring of healthy nodes, each turning one corner, each blocked
/// by the previous worm's tail — a textbook cyclic credit wait.
fn ring_cluster() -> (StaticLayout, Vec<(NodeId, NodeId)>) {
    let mesh = Mesh::cubic(8, 2);
    let mut faults = Vec::new();
    for x in 2..=5usize {
        for y in 2..=5usize {
            faults.push(coord![x, y]);
        }
    }
    let pairs = vec![
        (mesh.id_of(&coord![1, 1]), mesh.id_of(&coord![6, 4])),
        (mesh.id_of(&coord![6, 1]), mesh.id_of(&coord![3, 6])),
        (mesh.id_of(&coord![6, 6]), mesh.id_of(&coord![1, 3])),
        (mesh.id_of(&coord![1, 6]), mesh.id_of(&coord![4, 1])),
    ];
    (StaticLayout::new(mesh, &faults), pairs)
}

fn run_ring_cluster(router: &str, escape: bool) -> (u64, u64, usize) {
    let (layout, pairs) = ring_cluster();
    let spec = TrafficSpec::new()
        .flits_per_packet(8)
        .vc_count(if escape { 2 } else { 1 })
        .escape_vc(escape)
        .vc_buffer_flits(1)
        .deadlock_threshold(16);
    let mut eng = TrafficEngine::new(layout.mesh().clone(), spec, &|| router_by_name(router));
    for &(s, d) in &pairs {
        eng.inject(s, d);
    }
    eng.drain_static(&layout.env(), 10_000);
    assert_eq!(
        eng.in_flight(),
        0,
        "router {router} escape {escape}: worms must retire one way or the other"
    );
    let delivered = eng.records().iter().filter(|r| r.delivered()).count();
    (eng.stats().deadlocked(), eng.stats().injected(), delivered)
}

#[test]
fn escape_vcs_drain_the_ring_cluster_for_every_router() {
    for router in ROUTERS {
        let (deadlocked, injected, delivered) = run_ring_cluster(router, true);
        assert_eq!(
            deadlocked, 0,
            "router {router}: escape class must prevent deadlock"
        );
        if router == "dimension-order" {
            // DOR cannot detour the central block: the two worms whose XY path
            // crosses it fail at the fault — but they fail cleanly, without
            // wedging the others.
            assert_eq!(delivered, 2, "router {router}: the two clear paths drain");
        } else {
            assert_eq!(
                delivered, injected as usize,
                "router {router}: every worm must drain through the escape class"
            );
        }
    }
}

#[test]
fn deadlock_detector_fires_on_the_ring_cluster_without_escape_vcs() {
    // Without the escape class every adaptive router wedges into the cyclic
    // credit wait and the stamp-walk detector must tear it down; no router may
    // leave worms silently stuck forever (the in_flight assertion inside the
    // helper).  Dimension-order routing is deadlock-free by construction even
    // without escape channels, so it is the control: zero teardowns.
    for router in ROUTERS {
        let (deadlocked, injected, delivered) = run_ring_cluster(router, false);
        if router == "dimension-order" {
            assert_eq!(deadlocked, 0, "XY routing cannot form a credit cycle");
        } else {
            assert!(
                deadlocked >= 2,
                "router {router}: the cyclic credit wait must be detected \
                 (deadlocked {deadlocked})"
            );
            assert_eq!(
                delivered as u64 + deadlocked,
                injected,
                "router {router}: every worm either delivers or is torn down"
            );
        }
    }
}

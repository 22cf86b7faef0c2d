//! Equivalence property matrix for the concurrent-traffic data plane.
//!
//! The traffic engine shards its per-cycle packet decisions over
//! `traffic_threads` workers (contiguous launch-order chunks, each with its own
//! router instance) and resolves link contention serially in packet-id order.
//! Sharding is an execution detail: this suite asserts, over a matrix of routers ×
//! thread counts × fault patterns (static and dynamic, with recoveries), that every
//! configuration produces **bit-identical** packet records and statistics to the
//! serial run — and that the traffic knob composes with the round-sharding,
//! frontier and probe knobs (mirrors `tests/probe_batch_equivalence.rs`).
//!
//! The `LGFI_*` environment knobs are honoured by
//! `env_configured_configuration_is_bit_identical_to_serial`, which is what the
//! CI determinism-matrix job varies.

use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;
use lgfi_core::traffic_engine::TrafficSpec;
use lgfi_sim::TrafficStats;

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

/// A traffic scenario stressful enough that sharding bugs would show: enough
/// packets in flight to span several decision chunks, contention at shared links,
/// and (optionally) faults appearing and recovering mid-flight.
fn scenario(dynamic: bool, threads: usize, frontier: bool, probe_threads: usize) -> Scenario {
    Scenario {
        dims: vec![14, 14],
        seed: 23,
        fault_count: 8,
        placement: FaultPlacement::Clustered { clusters: 2 },
        dynamic: if dynamic {
            Some(DynamicFaultConfig {
                fault_count: 8,
                first_step: 10,
                interval: 20,
                with_recovery: true,
                recovery_delay: 60,
            })
        } else {
            None
        },
        lambda: 1,
        traffic: TrafficPattern::UniformRandom,
        messages: 0,
        launch_step: if dynamic { 0 } else { 40 },
        max_steps: 50_000,
        threads,
        frontier,
        probe_threads,
    }
}

fn fingerprint(
    router: &str,
    dynamic: bool,
    traffic_threads: usize,
    threads: usize,
    frontier: bool,
    probe_threads: usize,
) -> (Vec<PacketRecord>, TrafficStats, usize) {
    let s = scenario(dynamic, threads, frontier, probe_threads);
    let load = TrafficSpec::at_rate(1.5)
        .cycles(80)
        .drain_cycles(5_000)
        .max_packet_cycles(s.max_steps)
        .traffic_threads(traffic_threads);
    let result = s.run_traffic(load, &|| router_by_name(router));
    assert!(
        result.stats.injected() >= 100,
        "the run must actually exercise concurrency: {:?}",
        result.stats
    );
    (result.records, result.stats, result.traffic_threads)
}

#[test]
fn sharded_static_traffic_is_bit_identical_to_serial_for_every_router() {
    for router in ROUTERS {
        let serial = fingerprint(router, false, 1, 1, true, 1);
        assert_eq!(serial.2, 1);
        for traffic_threads in [2usize, 3, 8, 0] {
            let sharded = fingerprint(router, false, traffic_threads, 1, true, 1);
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
fn sharded_dynamic_traffic_is_bit_identical_to_serial_for_every_router() {
    // Faults appear and recover *while* packets are in flight: the decision sweep
    // then runs against a different frozen env every cycle, and forced backtracks
    // off freshly faulty nodes must shard identically too.
    for router in ROUTERS {
        let serial = fingerprint(router, true, 1, 1, true, 1);
        for traffic_threads in [2usize, 4] {
            let sharded = fingerprint(router, true, traffic_threads, 1, true, 1);
            assert_eq!(
                serial.0, sharded.0,
                "router {router} traffic_threads {traffic_threads}: records diverged"
            );
            assert_eq!(serial.1, sharded.1);
        }
    }
}

/// The plan of `routing_golden`'s `traffic_run_applies_plan_events_through_the_drain`:
/// `fault_count` nodes fail one per step from the end of the 40-cycle injection
/// window on, each recovering 6 steps later, so 4-flit worms still in flight
/// meet them while the run drains.  Every event lies after the window, so with
/// `fault_count` 0 the plan is the same plan cut off at the window.
fn drain_fault_fingerprint(
    router: &str,
    fault_count: usize,
    traffic_threads: usize,
) -> (Vec<PacketRecord>, TrafficStats) {
    const CYCLES: u64 = 40;
    let s = Scenario {
        dims: vec![12, 12],
        seed: 31,
        fault_count,
        placement: FaultPlacement::Clustered { clusters: 2 },
        dynamic: Some(DynamicFaultConfig {
            fault_count,
            first_step: CYCLES,
            interval: 1,
            with_recovery: true,
            recovery_delay: 6,
        }),
        launch_step: 0,
        ..scenario(true, 1, true, 1)
    };
    let spec = TrafficSpec::at_rate(1.2)
        .cycles(CYCLES)
        .drain_cycles(5_000)
        .flits_per_packet(4)
        .vc_count(2)
        .escape_vc(true)
        .max_packet_cycles(s.max_steps)
        .traffic_threads(traffic_threads);
    let result = s.run_traffic(spec, &|| router_by_name(router));
    (result.records, result.stats)
}

#[test]
fn drain_time_faults_are_bit_identical_across_traffic_threads_for_every_router() {
    // The other dynamic scenarios apply their faults during injection only; here
    // every plan event takes effect while the run drains.
    let mut unchanged = Vec::new();
    for router in ROUTERS {
        let serial = drain_fault_fingerprint(router, 12, 1);
        for traffic_threads in [2usize, 3] {
            let sharded = drain_fault_fingerprint(router, 12, traffic_threads);
            assert_eq!(
                serial.0, sharded.0,
                "router {router} traffic_threads {traffic_threads}: records diverged"
            );
            assert_eq!(serial.1, sharded.1);
        }
        if serial.0 == drain_fault_fingerprint(router, 0, 1).0 {
            unchanged.push(router);
        }
    }
    assert!(
        unchanged.is_empty(),
        "no drain-time fault changed a packet record of {unchanged:?}"
    );
}

#[test]
fn traffic_sharding_composes_with_every_other_knob() {
    // All four execution knobs at once must still be bit-identical to the fully
    // serial run.
    let reference = fingerprint("lgfi", true, 1, 1, true, 1);
    for (traffic_threads, threads, frontier, probe_threads) in [
        (2, 2, true, 2),
        (4, 3, false, 1),
        (3, 1, false, 4),
        (0, 0, true, 0),
    ] {
        let combined = fingerprint(
            "lgfi",
            true,
            traffic_threads,
            threads,
            frontier,
            probe_threads,
        );
        assert_eq!(
            reference.0, combined.0,
            "traffic {traffic_threads} threads {threads} frontier {frontier} probe {probe_threads}"
        );
        assert_eq!(reference.1, combined.1);
    }
}

#[test]
fn env_configured_configuration_is_bit_identical_to_serial() {
    // The CI determinism matrix varies LGFI_THREADS / LGFI_FRONTIER /
    // LGFI_PROBE_THREADS / LGFI_TRAFFIC_THREADS; whatever combination is set, the
    // run must reproduce the serial reference exactly.
    let knob = |name: &str, default: usize| -> usize {
        match std::env::var(name) {
            Ok(s) if !s.trim().is_empty() => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer, got {s:?}")),
            _ => default,
        }
    };
    let threads = knob("LGFI_THREADS", 1);
    let probe_threads = knob("LGFI_PROBE_THREADS", 1);
    let traffic_threads = knob("LGFI_TRAFFIC_THREADS", 1);
    let frontier = !matches!(
        std::env::var("LGFI_FRONTIER").as_deref().map(str::trim),
        Ok("0") | Ok("false") | Ok("off")
    );
    let reference = fingerprint("lgfi", true, 1, 1, true, 1);
    let configured = fingerprint(
        "lgfi",
        true,
        traffic_threads,
        threads,
        frontier,
        probe_threads,
    );
    assert_eq!(
        reference.0, configured.0,
        "LGFI_THREADS={threads} LGFI_FRONTIER={frontier} LGFI_PROBE_THREADS={probe_threads} \
         LGFI_TRAFFIC_THREADS={traffic_threads}: records diverged from serial"
    );
    assert_eq!(reference.1, configured.1);
}

/// Pool-lifecycle cross-check: the traffic engine's decision workers are a
/// persistent pool, spawned on the first contended cycle and reused for every
/// cycle after (warm pool).  Two complete pooled runs — each spawning, warming
/// and tearing down its own pool — must reproduce each other and the serial
/// reference bit for bit.
#[test]
fn warm_pooled_traffic_runs_are_reproducible_and_match_serial() {
    for dynamic in [false, true] {
        let serial = fingerprint("lgfi", dynamic, 1, 1, true, 1);
        let first = fingerprint("lgfi", dynamic, 4, 1, true, 1);
        let second = fingerprint("lgfi", dynamic, 4, 1, true, 1);
        assert_eq!(
            first.0, second.0,
            "dynamic {dynamic}: pooled runs diverged run-to-run"
        );
        assert_eq!(first.1, second.1);
        assert_eq!(
            serial.0, first.0,
            "dynamic {dynamic}: pooled records diverged from serial"
        );
        assert_eq!(serial.1, first.1);
    }
}

#[test]
fn contention_is_actually_exercised_by_the_matrix_workload() {
    // Guard against the suite silently degenerating into uncontended traffic (in
    // which case the equivalence assertions would prove much less).
    let (records, stats, _) = fingerprint("lgfi", false, 1, 1, true, 1);
    assert!(
        stats.total_stalls() > 0,
        "matrix workload must produce link contention"
    );
    assert!(records.iter().any(|r| r.stalls > 0));
    assert!(records
        .iter()
        .all(|r| r.delivered() || r.status != ProbeStatus::InFlight));
}

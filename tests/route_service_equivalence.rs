//! Snapshot-vs-live equivalence of the epoch-snapshot route-query plane.
//!
//! The correctness contract of `lgfi_core::route_service`: a route resolved
//! against a published [`EpochSnapshot`] is **bit-identical** to a route resolved
//! against the live network frozen at the same epoch
//! ([`LgfiNetwork::resolve_live`] drives the same `ProbeEngine::route` hop loop
//! over the live arena).  Verified across all five routers, at a fully converged
//! epoch, mid-convergence (information partially distributed — the snapshot must
//! faithfully copy the *partial* view, not an idealised one), and after recovery
//! churn.  At the converged epoch, two more owners of the same environment must
//! agree as well: `StaticLayout::route` over the static layout of the same
//! faults, and probes launched on the network's own probe plane.  Also covered
//! here: reader-count independence (the same
//! batch resolved through 1 or 4 reader objects is identical), epoch
//! monotonicity, and the recycled-buffer memory contract (steady-state
//! republish reuses retired buffers, also beside a lagging reader, and snapshot
//! size stays flat).

use std::collections::BTreeMap;

use lgfi_core::layout::StaticLayout;
use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_core::routing::ProbeEngine;
use lgfi_core::status::NodeStatus;
use lgfi_sim::{FaultEvent, FaultPlan};
use lgfi_topology::{Mesh, NodeId};
use lgfi_workloads::{FaultGenerator, FaultPlacement, TrafficGenerator, TrafficPattern};

const ROUTERS: [&str; 5] = [
    "lgfi",
    "global-info",
    "local-only",
    "wu-minimal-block",
    "dimension-order",
];

fn router_by_name(name: &str) -> Box<dyn lgfi_core::routing::Router> {
    use lgfi_baselines::{
        DimensionOrderRouter, GlobalInfoRouter, LocalInfoRouter, StaticBlockRouter,
    };
    use lgfi_core::routing::LgfiRouter;
    match name {
        "lgfi" => Box::new(LgfiRouter::new()),
        "global-info" => Box::new(GlobalInfoRouter::new()),
        "local-only" => Box::new(LocalInfoRouter::new()),
        "wu-minimal-block" => Box::new(StaticBlockRouter::new()),
        "dimension-order" => Box::new(DimensionOrderRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

fn pairs(mesh: &Mesh, statuses: &[NodeStatus], count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut traffic = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed);
    traffic
        .requests(count, |id| statuses[id] == NodeStatus::Enabled)
        .into_iter()
        .map(|r| (r.source, r.dest))
        .collect()
}

/// Asserts that a fully converged network routes `batch` like the static layout
/// of its faults, for every router: `StaticLayout::route`, and probes launched
/// on the network's probe plane, both equal
/// `resolve_live` (which [`assert_snapshot_matches_live`] ties to the snapshot).
fn assert_static_and_probes_match_live(
    net: &mut LgfiNetwork,
    faults: &[NodeId],
    batch: &[(NodeId, NodeId)],
) {
    let mesh = net.mesh().clone();
    let coords: Vec<_> = faults.iter().map(|&id| mesh.coord_of(id)).collect();
    let layout = StaticLayout::new(mesh, &coords);
    assert_eq!(layout.statuses(), net.statuses(), "converged statuses");
    for router_name in ROUTERS {
        let router = router_by_name(router_name);
        let mut live_engine = ProbeEngine::new();
        let mut live = BTreeMap::new();
        for &(s, d) in batch {
            let outcome = net.resolve_live(&*router, s, d, 100_000, &mut live_engine);
            let fixed = layout.route(&*router, s, d, 100_000);
            assert_eq!(
                fixed, outcome,
                "router {router_name}: static route {s}->{d} diverged from the live network"
            );
            live.insert((s, d), outcome);
        }
        let before = net.reports().len();
        for &(s, d) in batch {
            net.launch_probe(s, d, router_by_name(router_name));
        }
        while net.probes_in_flight() > 0 {
            net.run_step();
        }
        let reports = &net.reports()[before..];
        assert_eq!(reports.len(), batch.len());
        for r in reports {
            assert_eq!(
                r.outcome,
                live[&(r.source, r.dest)],
                "router {router_name}: network probe {}->{} diverged from the live network",
                r.source,
                r.dest
            );
        }
    }
}

/// Asserts the snapshot/live fingerprint equality for every router over `pairs`.
fn assert_snapshot_matches_live(net: &mut LgfiNetwork, batch: &[(NodeId, NodeId)]) {
    let service = net.route_service();
    for router_name in ROUTERS {
        let router = router_by_name(router_name);
        let mut reader = service.reader();
        let mut live_engine = ProbeEngine::new();
        for &(s, d) in batch {
            let snap = reader.resolve(&*router, s, d, 100_000);
            let live = net.resolve_live(&*router, s, d, 100_000, &mut live_engine);
            assert_eq!(
                snap.outcome, live,
                "router {router_name}: snapshot route {s}->{d} diverged from the \
                 live network at epoch {}",
                snap.epoch
            );
            assert_eq!(snap.epoch, service.epoch());
        }
    }
}

#[test]
fn snapshot_routes_equal_live_routes_for_all_routers() {
    let mesh = Mesh::cubic(16, 2);
    let faults: Vec<NodeId> = FaultGenerator::new(mesh.clone(), 13)
        .place(12, FaultPlacement::Clustered { clusters: 3 })
        .iter()
        .map(|c| mesh.id_of(c))
        .collect();
    let mut net = LgfiNetwork::new(
        mesh.clone(),
        FaultPlan::static_faults(&faults),
        NetworkConfig::default(),
    );
    let _service = net.route_service();

    // Mid-convergence: the labeling has stabilised but the boundary information
    // has only partially arrived — the snapshot must copy the partial view.
    for _ in 0..6 {
        net.run_step();
    }
    let early_batch = pairs(&mesh, net.statuses(), 64, 17);
    assert_snapshot_matches_live(&mut net, &early_batch);

    // Fully converged.
    for _ in 0..200 {
        net.run_step();
    }
    let batch = pairs(&mesh, net.statuses(), 128, 19);
    assert_snapshot_matches_live(&mut net, &batch);
    assert_static_and_probes_match_live(&mut net, &faults, &batch);

    // After recovery churn: fail and recover more nodes, then re-check.
    for node in [lgfi_topology::coord![2, 12], lgfi_topology::coord![12, 2]] {
        let step = net.step();
        net.run_step_with(&[FaultEvent::fail(step, mesh.id_of(&node))]);
    }
    for _ in 0..40 {
        net.run_step();
    }
    let step = net.step();
    net.run_step_with(&[FaultEvent::recover(
        step,
        mesh.id_of(&lgfi_topology::coord![2, 12]),
    )]);
    for _ in 0..60 {
        net.run_step();
    }
    let churned_batch = pairs(&mesh, net.statuses(), 64, 23);
    assert_snapshot_matches_live(&mut net, &churned_batch);
}

#[test]
fn reader_count_does_not_change_results() {
    let mesh = Mesh::cubic(16, 2);
    let faults: Vec<NodeId> = FaultGenerator::new(mesh.clone(), 31)
        .place(10, FaultPlacement::Clustered { clusters: 2 })
        .iter()
        .map(|c| mesh.id_of(c))
        .collect();
    let mut net = LgfiNetwork::new(
        mesh.clone(),
        FaultPlan::static_faults(&faults),
        NetworkConfig::default(),
    );
    let service = net.route_service();
    for _ in 0..120 {
        net.run_step();
    }
    let batch = pairs(&mesh, net.statuses(), 96, 37);
    let router = router_by_name("lgfi");
    let mut single = service.reader();
    let serial: Vec<_> = batch
        .iter()
        .map(|&(s, d)| single.resolve(&*router, s, d, 100_000).outcome)
        .collect();
    // The same batch striped across four independent readers, interleaved.
    let mut readers: Vec<_> = (0..4).map(|_| service.reader()).collect();
    let striped: Vec<_> = batch
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| readers[i % 4].resolve(&*router, s, d, 100_000).outcome)
        .collect();
    assert_eq!(serial, striped);
}

#[test]
fn republish_reuses_buffers_and_size_stays_flat() {
    let mesh = Mesh::cubic(16, 2);
    let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
    let service = net.route_service();
    let node = mesh.id_of(&lgfi_topology::coord![8, 8]);
    // Warm up full fail/recover cycles so buffer capacities reach high water
    // (the recycled buffers keep their capacity across publishes, so identical
    // cycles settle to a fixed point).
    let cycle = |net: &mut LgfiNetwork| {
        let step = net.step();
        net.run_step_with(&[FaultEvent::fail(step, node)]);
        for _ in 0..30 {
            net.run_step();
        }
        let step = net.step();
        net.run_step_with(&[FaultEvent::recover(step, node)]);
        for _ in 0..30 {
            net.run_step();
        }
    };
    // The plane double-buffers: two snapshot buffers alternate, and the reported
    // heap size is whichever was last published, so track the high-water mark
    // over enough warm cycles to have exercised both buffers.
    let mut high_water = 0u64;
    for _ in 0..4 {
        cycle(&mut net);
        high_water = high_water.max(service.stats().snapshot_heap_bytes);
    }
    let warm = service.stats();
    assert!(warm.epochs_published > 1);
    let mut epochs_seen = vec![service.epoch()];
    for _ in 0..5 {
        cycle(&mut net);
        let stats = service.stats();
        assert!(
            stats.snapshot_heap_bytes <= high_water,
            "steady-state churn must not grow the snapshot: {} > {high_water}",
            stats.snapshot_heap_bytes,
        );
        epochs_seen.push(service.epoch());
    }
    let end = service.stats();
    assert!(
        end.buffers_reused > warm.buffers_reused,
        "republishes with no straggling readers must recycle the retired buffers"
    );
    assert!(
        epochs_seen.windows(2).all(|w| w[0] < w[1]),
        "epochs must be strictly monotone: {epochs_seen:?}"
    );
    assert!(end.bytes_per_node() > 0.0);

    // A reader lagging by up to two epochs holds one retired snapshot while the
    // next is published.  The publisher's recycle list still has a free one to
    // refill, so after one fresh snapshot every publish reuses buffers (and the
    // reader never drops the last reference to a snapshot on its query path).
    let mut lagging = service.reader();
    let start = service.stats();
    let mut steps = 0u64;
    while service.epoch() < start.epoch + 20 {
        let step = net.step();
        match steps % 60 {
            0 => net.run_step_with(&[FaultEvent::fail(step, node)]),
            30 => net.run_step_with(&[FaultEvent::recover(step, node)]),
            _ => net.run_step(),
        }
        steps += 1;
        if service.epoch() - lagging.epoch() >= 2 {
            assert!(lagging.refresh());
        }
    }
    let lagged = service.stats();
    let published = lagged.epochs_published - start.epochs_published;
    let reused = lagged.buffers_reused - start.buffers_reused;
    assert!(
        published - reused <= 1,
        "a reader lagging by two epochs forced {} fresh snapshots in {published} publishes",
        published - reused
    );
}

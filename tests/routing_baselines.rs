//! Integration tests comparing the LGFI router against the baselines on shared
//! scenarios — the qualitative shape of the paper's comparison claims.

use lgfi::core::routing::Router;
use lgfi::prelude::*;

fn route(world: &StaticLayout, router: &dyn Router, s: &Coord, d: &Coord) -> ProbeOutcome {
    let mesh = world.mesh();
    world.route(router, mesh.id_of(s), mesh.id_of(d), 100_000)
}

fn wall_faults() -> Vec<Coord> {
    let mut faults = Vec::new();
    for x in 5..=12 {
        faults.push(coord![x, 8]);
        faults.push(coord![x, 9]);
    }
    faults
}

#[test]
fn all_adaptive_routers_agree_on_a_fault_free_mesh() {
    let world = StaticLayout::new(Mesh::cubic(12, 3), &[]);
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(LgfiRouter::new()),
        Box::new(GlobalInfoRouter::new()),
        Box::new(LocalInfoRouter::new()),
        Box::new(StaticBlockRouter::new()),
        Box::new(DimensionOrderRouter::new()),
    ];
    for router in &routers {
        let out = route(&world, router.as_ref(), &coord![1, 2, 3], &coord![10, 9, 8]);
        assert!(out.delivered(), "{}", router.name());
        assert_eq!(out.detours(), Some(0), "{}", router.name());
    }
}

#[test]
fn informed_routing_is_never_worse_than_uninformed_on_the_wall_scenario() {
    let world = StaticLayout::new(Mesh::cubic(18, 2), &wall_faults());
    assert_eq!(world.blocks().len(), 1);
    let lgfi = LgfiRouter::new();
    let global = GlobalInfoRouter::new();
    let local = LocalInfoRouter::new();
    // Several probes crossing the wall's shadow.
    for x in [6, 8, 10, 12] {
        let s = coord![x, 2];
        let d = coord![x, 15];
        let out_lgfi = route(&world, &lgfi, &s, &d);
        let out_global = route(&world, &global, &s, &d);
        let out_local = route(&world, &local, &s, &d);
        assert!(out_lgfi.delivered() && out_global.delivered() && out_local.delivered());
        assert!(
            out_global.steps <= out_local.steps,
            "x={x}: global {} vs local {}",
            out_global.steps,
            out_local.steps
        );
        assert!(
            out_lgfi.steps <= out_local.steps,
            "x={x}: lgfi {} vs local {}",
            out_lgfi.steps,
            out_local.steps
        );
    }
}

#[test]
fn dimension_order_fails_exactly_when_its_path_is_cut() {
    let world = StaticLayout::new(Mesh::cubic(18, 2), &wall_faults());
    let dor = DimensionOrderRouter::new();
    // The x-first path from (2,2) to (2,15) at x = 2 misses the wall entirely.
    let clear = route(&world, &dor, &coord![2, 2], &coord![2, 15]);
    assert!(clear.delivered());
    assert_eq!(clear.detours(), Some(0));
    // The path from (8,2) to (8,15) runs straight into the wall.
    let cut = route(&world, &dor, &coord![8, 2], &coord![8, 15]);
    assert_eq!(cut.status, ProbeStatus::Failed);
}

#[test]
fn minimal_block_router_only_succeeds_when_a_minimal_path_survives() {
    let world = StaticLayout::new(Mesh::cubic(18, 2), &wall_faults());
    let wu = StaticBlockRouter::new();
    // Destination reachable minimally (off to the side of the wall).
    let ok = route(&world, &wu, &coord![2, 2], &coord![16, 15]);
    assert!(ok.delivered());
    assert_eq!(ok.detours(), Some(0));
    // Destination straight across the wall: every minimal path is blocked.
    let blocked = route(&world, &wu, &coord![8, 2], &coord![8, 15]);
    assert_eq!(blocked.status, ProbeStatus::Failed);
    // The LGFI router still delivers that pair by detouring.
    let lgfi = route(&world, &LgfiRouter::new(), &coord![8, 2], &coord![8, 15]);
    assert!(lgfi.delivered());
    assert!(lgfi.detours().unwrap() > 0);
}

#[test]
fn delivery_ranking_over_random_fault_patterns() {
    // Over a batch of random patterns and pairs: local/lgfi/global (backtracking)
    // deliver everything; wu-minimal and dimension-order deliver strictly less as the
    // fault density grows.
    let mesh_dims = [16, 16];
    let mut delivered = std::collections::BTreeMap::new();
    for seed in 0..4u64 {
        let mesh = Mesh::new(&mesh_dims);
        let mut generator = FaultGenerator::new(mesh.clone(), seed);
        let faults = generator.place(20, FaultPlacement::UniformInterior);
        let world = StaticLayout::new(mesh.clone(), &faults);
        let statuses = world.statuses();
        let mut traffic = TrafficGenerator::new(mesh, TrafficPattern::UniformRandom, seed);
        let requests = traffic.requests(20, |id| statuses[id] == NodeStatus::Enabled);
        let routers: Vec<Box<dyn Router>> = vec![
            Box::new(LgfiRouter::new()),
            Box::new(GlobalInfoRouter::new()),
            Box::new(LocalInfoRouter::new()),
            Box::new(StaticBlockRouter::new()),
            Box::new(DimensionOrderRouter::new()),
        ];
        for router in &routers {
            let count = requests
                .iter()
                .filter(|r| {
                    route(
                        &world,
                        router.as_ref(),
                        &world.mesh().coord_of(r.source),
                        &world.mesh().coord_of(r.dest),
                    )
                    .delivered()
                })
                .count();
            *delivered.entry(router.name().to_string()).or_insert(0usize) += count;
        }
    }
    let total = 4 * 20;
    assert_eq!(
        delivered["lgfi"], total,
        "the backtracking LGFI router delivers everything"
    );
    assert_eq!(delivered["local-only"], total);
    assert_eq!(delivered["global-info"], total);
    assert!(delivered["dimension-order"] < total);
    assert!(delivered["wu-minimal-block"] <= total);
    assert!(
        delivered["dimension-order"] <= delivered["wu-minimal-block"],
        "adaptive minimal routing tolerates at least as much as deterministic routing"
    );
}

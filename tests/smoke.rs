//! Build-surface smoke test.
//!
//! Exercises the whole facade in one pass — mesh construction, fault labeling,
//! block extraction, boundary construction, and a route with each of the four
//! baseline routers plus the LGFI router — so that a future manifest or feature
//! regression (a dropped re-export, a broken crate wiring, a feature-gated module)
//! fails this suite immediately rather than surfacing deep inside an experiment.

use lgfi::prelude::*;

#[test]
fn facade_smoke_every_router_routes_across_a_faulty_mesh() {
    let mesh = Mesh::cubic(8, 2);
    let layout = StaticLayout::new(mesh.clone(), &[coord![3, 3], coord![4, 3], coord![3, 4]]);
    assert_eq!(
        layout.blocks().len(),
        1,
        "the 3-fault cluster must form one block"
    );
    assert!(
        layout.boundary().nodes_with_info() > 0,
        "boundary construction must distribute information"
    );

    let routers: Vec<(&str, Box<dyn Router>)> = vec![
        ("lgfi", Box::new(LgfiRouter::new())),
        ("dimension-order", Box::new(DimensionOrderRouter::new())),
        ("local-only", Box::new(LocalInfoRouter::new())),
        ("global-info", Box::new(GlobalInfoRouter::new())),
        ("static-block", Box::new(StaticBlockRouter::new())),
    ];
    let source = mesh.id_of(&coord![0, 0]);
    let dest = mesh.id_of(&coord![7, 7]);
    for (name, router) in &routers {
        let out = layout.route(router.as_ref(), source, dest, 10_000);
        // Corner-to-corner with one interior block: every router delivers here —
        // even oblivious dimension-order, whose x-then-y path hugs the mesh edge
        // and never meets the block.
        assert!(out.delivered(), "{name} failed: {out:?}");
    }
}

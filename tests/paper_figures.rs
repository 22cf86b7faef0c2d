//! Integration tests reproducing the paper's worked figures end-to-end through the
//! public facade API (Figures 1–6).

use lgfi::prelude::*;

fn figure1_faults() -> Vec<Coord> {
    vec![
        coord![3, 5, 4],
        coord![4, 5, 4],
        coord![5, 5, 3],
        coord![3, 6, 3],
    ]
}

fn figure1_layout() -> StaticLayout {
    StaticLayout::new(Mesh::cubic(10, 3), &figure1_faults())
}

#[test]
fn figure1_block_and_surfaces() {
    let layout = figure1_layout();
    let (mesh, blocks) = (layout.mesh(), layout.blocks());
    // One block with the extent quoted in the paper.
    assert_eq!(blocks.len(), 1);
    let block = &blocks.blocks()[0];
    assert_eq!(block.region, Region::new(vec![3, 5, 3], vec![5, 6, 4]));
    assert!(block.is_rectangular());
    assert_eq!(block.faulty_count, 4);
    // Exactly the nodes of the block are faulty or disabled.
    for c in mesh.coords() {
        let expected = block.region.contains(&c);
        assert_eq!(
            layout.statuses()[mesh.id_of(&c)].in_block(),
            expected,
            "{c:?}"
        );
    }
    // The six adjacent surfaces of Definition 3 all exist and are one unit away.
    let frame = BlockFrame::of_block(mesh, block);
    for dir in Direction::all(3) {
        let surface = frame.adjacent_surface(mesh, dir).unwrap();
        assert!(!surface.intersects(&block.region));
        assert_eq!(surface.volume(), {
            let mut dims: Vec<u64> = (0..3).map(|d| block.region.len(d) as u64).collect();
            dims[dir.dim] = 1;
            dims.iter().product::<u64>()
        });
    }
}

#[test]
fn figure2_corner_structure() {
    let layout = figure1_layout();
    let mesh = layout.mesh();
    let frame = BlockFrame::of_block(mesh, &layout.blocks().blocks()[0]);
    // The 3-level corner (6,4,5) and the exact neighbor structure described in the
    // paper.
    assert_eq!(
        frame.role_of(mesh.id_of(&coord![6, 4, 5])),
        Some(Role::Corner(3))
    );
    let edges = [coord![5, 4, 5], coord![6, 5, 5], coord![6, 4, 4]];
    for e in &edges {
        assert_eq!(frame.role_of(mesh.id_of(e)), Some(Role::Corner(2)), "{e:?}");
    }
    // Each 3-level edge node has two neighbors adjacent to the block.
    for e in &edges {
        let adjacent_neighbors = mesh
            .neighbors(e)
            .into_iter()
            .filter(|(_, nc)| frame.role_of(mesh.id_of(nc)) == Some(Role::Adjacent))
            .count();
        assert_eq!(adjacent_neighbors, 2, "{e:?}");
    }
    // Eight corners overall, as for any interior 3-D block.
    assert_eq!(frame.top_corners().len(), 8);
}

#[test]
fn figure3_boundary_guards_the_dangerous_area() {
    let layout = figure1_layout();
    let (mesh, blocks, boundary) = (layout.mesh(), layout.blocks(), layout.boundary());
    // Destination right over S4, source right below S1 -> every minimal path is
    // blocked (critical routing), yet the message is delivered with a bounded detour.
    let source = coord![4, 2, 3];
    let dest = coord![4, 8, 4];
    assert!(!is_safe_source(&source, &dest, blocks.blocks()));
    let out = layout.route(
        &LgfiRouter::new(),
        mesh.id_of(&source),
        mesh.id_of(&dest),
        10_000,
    );
    assert!(out.delivered());
    let detours = out.detours().unwrap();
    assert!(detours > 0, "crossing the block must cost something");
    assert!(
        detours <= 4 * (blocks.e_max() as u64 + 2),
        "detours {detours} must stay within a small multiple of the block's size"
    );
    // Boundary nodes for every one of the 6 surfaces store the block information.
    for dir in Direction::all(3) {
        assert!(!boundary.boundary_nodes(0, dir).is_empty());
    }
}

#[test]
fn figure4_recovery_shrinks_the_block_and_keeps_routing_optimal() {
    let layout_before = figure1_layout();
    let mesh = layout_before.mesh();
    let mut labeling = LabelingEngine::new(mesh.clone());
    labeling.apply_faults(&figure1_faults());
    labeling.recover_coord(&coord![5, 5, 3]);
    labeling.run_to_fixpoint(200).unwrap();
    let layout_after = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
    assert_eq!(
        layout_after.blocks().blocks()[0].region,
        Region::new(vec![3, 5, 3], vec![4, 6, 4])
    );
    // Theorem 1: the recovery construction does not make routing worse.
    for (s, d) in [
        (coord![4, 1, 3], coord![4, 8, 4]),
        (coord![1, 5, 3], coord![8, 6, 4]),
        (coord![0, 0, 0], coord![9, 9, 9]),
    ] {
        let (source, dest) = (mesh.id_of(&s), mesh.id_of(&d));
        let before = layout_before.route(&LgfiRouter::new(), source, dest, 10_000);
        let after = layout_after.route(&LgfiRouter::new(), source, dest, 10_000);
        assert!(before.delivered() && after.delivered());
        assert!(
            after.steps <= before.steps,
            "{s:?}->{d:?}: {} steps after recovery vs {} before",
            after.steps,
            before.steps
        );
    }
}

#[test]
fn figure5_identification_reaches_every_frame_node() {
    let layout = figure1_layout();
    let mesh = layout.mesh();
    let ident = IdentificationProcess::default();
    let outcome = ident.run(
        mesh,
        &layout.blocks().blocks()[0].region,
        layout.statuses(),
        &coord![6, 4, 5],
    );
    assert!(outcome.stable);
    assert_eq!(outcome.opposite_corner, coord![2, 7, 2]);
    let frame = BlockFrame::of_block(mesh, &layout.blocks().blocks()[0]);
    assert_eq!(outcome.info_arrival.len(), frame.len());
    // Arrival times grow with frame distance from the opposite corner and every
    // arrival is at least the formation round.
    for (&node, &round) in &outcome.info_arrival {
        assert!(round >= outcome.formed_round);
        assert!(frame.role_of(node).is_some());
    }
    assert!(outcome.completed_round >= outcome.formed_round);
}

#[test]
fn figure6_information_is_propagated_back_to_the_initialization_corner() {
    let layout = figure1_layout();
    let mesh = layout.mesh();
    let ident = IdentificationProcess::default();
    let outcome = ident.run(
        mesh,
        &layout.blocks().blocks()[0].region,
        layout.statuses(),
        &coord![6, 4, 5],
    );
    let at_init = outcome.arrival_of(mesh.id_of(&coord![6, 4, 5])).unwrap();
    assert!(at_init > outcome.formed_round);
    assert!(at_init <= outcome.completed_round);
}

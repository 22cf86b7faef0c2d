//! Quickstart: the Figure-1 scenario of the paper, end to end.
//!
//! Builds a 10x10x10 mesh, injects the four faults of Figure 1, runs the labeling to
//! obtain the faulty block [3:5, 5:6, 3:4], identifies its frame, distributes the
//! block information along its boundaries, and finally routes a message across the
//! mesh with the fault-information-based PCS router.
//!
//! Run with: `cargo run --release --example quickstart`

use lgfi::prelude::*;

fn main() {
    // 1. The mesh and the fault pattern of Figure 1.
    let mesh = Mesh::cubic(10, 3);
    let faults = [
        coord![3, 5, 4],
        coord![4, 5, 4],
        coord![5, 5, 3],
        coord![3, 6, 3],
    ];
    println!("mesh: {:?} nodes = {}", mesh.dims(), mesh.node_count());
    println!("faults: {faults:?}\n");

    // 2. Algorithm 1: enabled/disabled labeling until stable.
    let mut labeling = LabelingEngine::new(mesh.clone());
    let a_rounds = labeling.apply_faults(&faults);
    let (f, d, _, e) = labeling.census();
    println!("labeling stabilised after {a_rounds} rounds: {f} faulty, {d} disabled, {e} enabled");

    // 3. The static layout: the faulty block and its boundaries.  First the block
    //    and its frame (Definitions 1 and 2).
    let layout = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
    let blocks = layout.blocks();
    let block = &blocks.blocks()[0];
    println!(
        "faulty block: {} ({} nodes, rectangular = {})",
        block.region,
        block.size(),
        block.is_rectangular()
    );
    let frame = BlockFrame::of_block(&mesh, block);
    println!(
        "frame: {} adjacent nodes, {} edge nodes, {} corners",
        frame.nodes_at_level(1).len(),
        frame.nodes_at_level(2).len(),
        frame.nodes_at_level(3).len()
    );

    // 4. Algorithm 2: identification from the corner used in Figure 5.
    let ident = IdentificationProcess::default();
    let outcome = ident.run(&mesh, &block.region, layout.statuses(), &coord![6, 4, 5]);
    println!(
        "identification: info formed at {} after {} rounds, distributed to {} frame nodes after {} rounds (b_i)",
        outcome.opposite_corner,
        outcome.formed_round,
        outcome.info_arrival.len(),
        outcome.completed_round
    );

    // 5. Definition 3: the boundaries the layout constructed.
    let boundary = layout.boundary();
    println!(
        "boundaries: {} nodes hold block information, constructed in {} rounds (c_i)",
        boundary.nodes_with_info(),
        boundary.construction_rounds()
    );

    // 6. Algorithm 3: fault-information-based PCS routing.
    let source = coord![4, 0, 3];
    let dest = coord![4, 9, 4];
    let safe = is_safe_source(&source, &dest, blocks.blocks());
    let out = layout.route(
        &LgfiRouter::new(),
        mesh.id_of(&source),
        mesh.id_of(&dest),
        10_000,
    );
    println!("\nrouting {source} -> {dest} (safe source: {safe})");
    println!(
        "  delivered = {}, steps = {}, minimal distance = {}, detours = {:?}, backtracks = {}",
        out.delivered(),
        out.steps,
        out.initial_distance,
        out.detours(),
        out.backtracks
    );

    // 7. Memory footprint of the limited-global information.
    let store = InfoStore::build(&mesh, blocks, boundary);
    let fp = store.footprint(&mesh, blocks);
    println!(
        "\ninformation placement: {} of {} nodes ({:.1}%) store block records; {} records vs {} under a global model",
        fp.nodes_with_info,
        fp.node_count,
        100.0 * fp.coverage(),
        fp.limited_records,
        fp.global_records
    );
}

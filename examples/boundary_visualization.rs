//! ASCII visualisation of faulty blocks, their boundaries and a routed path in a 2-D
//! mesh — a way to *see* Definitions 1–3 and Algorithm 3 at work.
//!
//! Legend:
//!   `F` faulty node          `D` disabled node (part of the block)
//!   `#` boundary node        `*` node on the routed path
//!   `S`/`T` source / destination, `.` plain enabled node
//!
//! Run with: `cargo run --release --example boundary_visualization`

use lgfi::prelude::*;

fn main() {
    let mesh = Mesh::cubic(20, 2);
    // Two blocks: a wide wall in the middle and a small square to the north-east.
    let mut faults = Vec::new();
    for x in 6..=12 {
        faults.push(coord![x, 9]);
        faults.push(coord![x, 10]);
    }
    faults.extend([
        coord![15, 15],
        coord![16, 16],
        coord![15, 16],
        coord![16, 15],
    ]);

    let mut labeling = LabelingEngine::new(mesh.clone());
    let rounds = labeling.apply_faults(&faults);
    let layout = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
    let (blocks, boundary) = (layout.blocks(), layout.boundary());
    println!(
        "{} faults, {} blocks after {rounds} labeling rounds; {} nodes hold boundary information\n",
        faults.len(),
        blocks.len(),
        boundary.nodes_with_info()
    );
    for b in blocks.blocks() {
        println!(
            "  block {}: {} ({} nodes, e = {})",
            b.id,
            b.region,
            b.size(),
            b.max_edge()
        );
    }

    // Route a message straight through the wall's shadow.
    let source = coord![9, 2];
    let dest = coord![9, 17];
    let out = layout.route(
        &LgfiRouter::new(),
        mesh.id_of(&source),
        mesh.id_of(&dest),
        10_000,
    );
    println!(
        "\nrouting {source} -> {dest}: delivered = {}, steps = {}, D = {}, detours = {:?}\n",
        out.delivered(),
        out.steps,
        out.initial_distance,
        out.detours()
    );

    // Re-run the probe step by step to recover the final path for drawing: the
    // same hop kernel the library's hop loops call, one decision per step.
    let path = {
        let mut probe =
            lgfi::core::routing::Probe::new(&mesh, mesh.id_of(&source), mesh.id_of(&dest));
        let router = LgfiRouter::new();
        let env = layout.env();
        while probe.status == ProbeStatus::InFlight && probe.steps < 10_000 {
            let decision = probe.decide(&mesh, &env, &router);
            probe.apply(&mesh, decision);
        }
        probe.path.clone()
    };

    // Draw the mesh (y grows upward).
    let k = mesh.dims()[0];
    for y in (0..k).rev() {
        let mut line = String::new();
        for x in 0..k {
            let c = coord![x, y];
            let id = mesh.id_of(&c);
            let ch = if c == source {
                'S'
            } else if c == dest {
                'T'
            } else if path.contains(&id) {
                '*'
            } else {
                match labeling.status(id) {
                    NodeStatus::Faulty => 'F',
                    NodeStatus::Disabled => 'D',
                    _ if !boundary.entries(id).is_empty() => '#',
                    _ => '.',
                }
            };
            line.push(ch);
            line.push(' ');
        }
        println!("{line}");
    }
    println!("\nThe path climbs the shadow of the wall, is warned at the '#' boundary wall,");
    println!("slides around the block and resumes a minimal course towards T.");
}

//! n-D scaling — the paper's generalisation from 2-D/3-D to arbitrary dimensions.
//!
//! Builds meshes of dimension 2 through 5, puts a same-sized fault cluster in each,
//! and reports how the convergence of the three information constructions
//! (`a`, `b`, `c`) and the routing behave as the dimension grows, holding the number
//! of nodes roughly constant.
//!
//! Run with: `cargo run --release --example nd_mesh_scaling`

use lgfi::analysis::Table;
use lgfi::prelude::*;

fn main() {
    let mut table = Table::new(
        "information convergence and routing across dimensions (one 3-wide fault cluster)",
        &[
            "mesh",
            "n",
            "nodes",
            "a (labeling)",
            "b (identify)",
            "c (boundary)",
            "route steps",
            "detours",
        ],
    );

    for dims in [
        vec![64, 64],
        vec![16, 16, 16],
        vec![8, 8, 8, 8],
        vec![6, 6, 6, 6, 6],
    ] {
        let mesh = Mesh::new(&dims);
        let n = mesh.ndim();
        // A 3-wide fault cluster centred in the mesh.
        let centre: Vec<i32> = mesh.dims().iter().map(|&k| k / 2).collect();
        let cluster = Region::new(
            centre.iter().map(|&x| x - 1).collect(),
            centre.iter().map(|&x| x + 1).collect(),
        );
        let faults: Vec<Coord> = cluster.iter_coords().collect();

        let mut labeling = LabelingEngine::new(mesh.clone());
        let a = labeling.apply_faults(&faults);
        let layout = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
        let block = &layout.blocks().blocks()[0];

        let ident = IdentificationProcess::default();
        let b = ident
            .run_from_default_corner(&mesh, &block.region, layout.statuses())
            .map(|o| o.completed_round)
            .unwrap_or(0);

        let c = layout.boundary().construction_rounds();

        // Corner-to-corner routing straight across the cluster.
        let source = mesh.id_of(&Coord::origin(n));
        let dest = mesh.id_of(&Coord::new(
            mesh.dims().iter().map(|&k| k - 1).collect::<Vec<i32>>(),
        ));
        let out = layout.route(&LgfiRouter::new(), source, dest, 100_000);

        table.row(&[
            format!("{dims:?}"),
            n.to_string(),
            mesh.node_count().to_string(),
            a.to_string(),
            b.to_string(),
            c.to_string(),
            out.steps.to_string(),
            out.detours()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{table}");
    println!("As the dimension grows the same-sized cluster blocks a smaller fraction of the");
    println!("minimal paths, so detours shrink, while the boundary information still reaches");
    println!("every endangered column within a handful of rounds — the n-D generalisation the");
    println!("paper argues for.");
}

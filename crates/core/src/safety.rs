//! Theorem 2: safe sources.
//!
//! Wu \[14\] defines a source node to be *safe* with respect to a destination if no
//! faulty block intersects the sections `[0 : u_i]` along every axis — i.e. no block
//! overlaps the minimal-path bounding box spanned by the source and the destination.
//! If the source is safe and no new fault occurs during the routing, a minimal path is
//! guaranteed (Theorem 2); the detour bounds of Theorems 3–5 are stated relative to
//! this property.

use lgfi_topology::{Coord, Region};

use crate::block::{BlockSet, FaultyBlock};

/// True if `source` is safe for routing towards `dest` given the current blocks:
/// no block extent intersects the bounding box of the two nodes.
pub fn is_safe_source(source: &Coord, dest: &Coord, blocks: &[FaultyBlock]) -> bool {
    let bbox = Region::bounding(source, dest);
    !blocks.iter().any(|b| b.region.intersects(&bbox))
}

/// Convenience overload taking a [`BlockSet`].
pub fn is_safe_source_in(source: &Coord, dest: &Coord, blocks: &BlockSet) -> bool {
    is_safe_source(source, dest, blocks.blocks())
}

/// Returns the blocks that make the source unsafe (those intersecting the bounding
/// box), useful for diagnostics in the experiment harness.
pub fn blocking_blocks<'a>(
    source: &Coord,
    dest: &Coord,
    blocks: &'a [FaultyBlock],
) -> Vec<&'a FaultyBlock> {
    let bbox = Region::bounding(source, dest);
    blocks
        .iter()
        .filter(|b| b.region.intersects(&bbox))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::{coord, Mesh};

    fn blocks_for(mesh: &Mesh, faults: &[Coord]) -> BlockSet {
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(faults);
        BlockSet::extract(mesh, eng.statuses())
    }

    #[test]
    fn source_is_safe_when_no_block_touches_the_bounding_box() {
        let mesh = Mesh::cubic(12, 2);
        let blocks = blocks_for(
            &mesh,
            &[coord![8, 8], coord![9, 9], coord![8, 9], coord![9, 8]],
        );
        assert!(is_safe_source_in(&coord![0, 0], &coord![5, 5], &blocks));
        assert!(is_safe_source_in(&coord![0, 11], &coord![5, 11], &blocks));
        assert!(blocking_blocks(&coord![0, 0], &coord![5, 5], blocks.blocks()).is_empty());
    }

    #[test]
    fn source_is_unsafe_when_a_block_intersects_the_bounding_box() {
        let mesh = Mesh::cubic(12, 2);
        let blocks = blocks_for(
            &mesh,
            &[coord![4, 4], coord![5, 5], coord![4, 5], coord![5, 4]],
        );
        assert!(!is_safe_source_in(&coord![0, 0], &coord![8, 8], &blocks));
        assert_eq!(
            blocking_blocks(&coord![0, 0], &coord![8, 8], blocks.blocks()).len(),
            1
        );
        // Safety is symmetric in source and destination.
        assert!(!is_safe_source_in(&coord![8, 8], &coord![0, 0], &blocks));
        // It only depends on the bounding box, not on the exact corner.
        assert!(!is_safe_source_in(&coord![0, 8], &coord![8, 0], &blocks));
    }

    #[test]
    fn partial_overlap_along_one_axis_is_enough_to_be_unsafe() {
        // The block overlaps the bounding box in both axes only partially.
        let mesh = Mesh::cubic(12, 3);
        let blocks = blocks_for(
            &mesh,
            &[
                coord![5, 5, 5],
                coord![6, 6, 5],
                coord![5, 6, 5],
                coord![6, 5, 5],
            ],
        );
        assert!(!is_safe_source_in(
            &coord![4, 4, 5],
            &coord![10, 10, 5],
            &blocks
        ));
        // Shifting the pair away in z makes it safe again.
        assert!(is_safe_source_in(
            &coord![4, 4, 0],
            &coord![10, 10, 2],
            &blocks
        ));
    }

    #[test]
    fn fault_free_mesh_is_always_safe() {
        let mesh = Mesh::cubic(10, 4);
        let blocks = blocks_for(&mesh, &[]);
        assert!(is_safe_source_in(
            &coord![0, 0, 0, 0],
            &coord![9, 9, 9, 9],
            &blocks
        ));
    }

    #[test]
    fn theorem_2_safe_sources_get_minimal_paths_under_static_faults() {
        use crate::layout::StaticLayout;
        use crate::routing::LgfiRouter;
        use lgfi_sim::DetRng;

        let mesh = Mesh::cubic(12, 2);
        let interior: Vec<Coord> = mesh.interior_region().unwrap().iter_coords().collect();
        let mut checked = 0usize;
        for seed in 0..10u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let picks = rng.sample_indices(interior.len(), 10);
            let faults: Vec<Coord> = picks.iter().map(|&i| interior[i]).collect();
            let layout = StaticLayout::new(mesh.clone(), &faults);
            // Try a handful of random pairs; whenever the source is safe, the route
            // must be minimal (Theorem 2).
            for _ in 0..20 {
                let s = mesh.coord_of(rng.below(mesh.node_count()));
                let d = mesh.coord_of(rng.below(mesh.node_count()));
                let enabled = |c: &Coord| {
                    layout.statuses()[mesh.id_of(c)] == crate::status::NodeStatus::Enabled
                };
                if !enabled(&s) || !enabled(&d) || !is_safe_source_in(&s, &d, layout.blocks()) {
                    continue;
                }
                let out = layout.route(&LgfiRouter::new(), mesh.id_of(&s), mesh.id_of(&d), 10_000);
                assert!(out.delivered(), "safe route {s:?}->{d:?} must deliver");
                assert_eq!(
                    out.detours(),
                    Some(0),
                    "safe route {s:?}->{d:?} must be minimal (seed {seed})"
                );
                checked += 1;
            }
        }
        assert!(
            checked > 20,
            "the scenario generator must exercise enough safe pairs"
        );
    }
}

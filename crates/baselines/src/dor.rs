//! Deterministic dimension-order (e-cube) routing.
//!
//! The classic fault-oblivious baseline: correct the lowest dimension first, then the
//! next, and so on.  It has no adaptivity whatsoever; if the next hop on the unique
//! dimension-order path is faulty or disabled, the routing fails.  It brackets the
//! comparison from below: any fault that happens to sit on the e-cube path kills the
//! connection, which is why fault-tolerant routing exists in the first place.

use lgfi_core::routing::{RouteCtx, Router, RoutingDecision};
use lgfi_core::status::NodeStatus;
use lgfi_topology::Direction;

/// Deterministic dimension-order routing (no fault tolerance).
#[derive(Debug, Clone, Default)]
pub struct DimensionOrderRouter;

impl DimensionOrderRouter {
    /// Creates the router.
    pub fn new() -> Self {
        DimensionOrderRouter
    }
}

impl Router for DimensionOrderRouter {
    fn name(&self) -> &'static str {
        "dimension-order"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        for dim in 0..ctx.mesh.ndim() {
            let delta = ctx.dest[dim] - ctx.current[dim];
            if delta == 0 {
                continue;
            }
            let dir = Direction::new(dim, delta > 0);
            return match ctx.neighbor_status(dir) {
                Some(NodeStatus::Enabled) | Some(NodeStatus::Clean) => {
                    RoutingDecision::Forward(dir)
                }
                // The unique next hop is unusable: deterministic routing gives up.
                _ => RoutingDecision::Fail,
            };
        }
        // Already at the destination (the probe engine normally catches this first).
        RoutingDecision::Fail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_core::routing::ProbeStatus;
    use lgfi_core::StaticLayout;
    use lgfi_topology::{coord, Coord, Mesh};

    fn run(
        mesh: &Mesh,
        faults: &[Coord],
        s: &Coord,
        d: &Coord,
    ) -> lgfi_core::routing::ProbeOutcome {
        StaticLayout::new(mesh.clone(), faults).route(
            &DimensionOrderRouter::new(),
            mesh.id_of(s),
            mesh.id_of(d),
            10_000,
        )
    }

    #[test]
    fn fault_free_paths_are_minimal_and_dimension_ordered() {
        let mesh = Mesh::cubic(8, 3);
        let out = run(&mesh, &[], &coord![1, 2, 3], &coord![6, 0, 5]);
        assert!(out.delivered());
        assert_eq!(out.detours(), Some(0));
        assert_eq!(out.steps, 5 + 2 + 2);
    }

    #[test]
    fn a_fault_on_the_ecube_path_fails_the_route() {
        let mesh = Mesh::cubic(8, 2);
        // The e-cube path from (0,3) to (7,3) goes straight along x at y=3.
        let out = run(&mesh, &[coord![4, 3]], &coord![0, 3], &coord![7, 3]);
        assert_eq!(out.status, ProbeStatus::Failed);
        // A fault elsewhere does not matter.
        let ok = run(&mesh, &[coord![4, 6]], &coord![0, 3], &coord![7, 3]);
        assert!(ok.delivered());
    }

    #[test]
    fn disabled_nodes_also_block_the_deterministic_path() {
        let mesh = Mesh::cubic(10, 2);
        // Faults at (4,2) and (5,3) disable (4,3) and (5,2); the x-first path at y = 3
        // hits the disabled node (4,3).
        let out = run(
            &mesh,
            &[coord![4, 2], coord![5, 3]],
            &coord![0, 3],
            &coord![9, 3],
        );
        assert_eq!(out.status, ProbeStatus::Failed);
    }
}

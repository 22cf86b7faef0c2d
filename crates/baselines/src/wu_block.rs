//! Wu-style minimal adaptive faulty-block routing.
//!
//! A baseline in the spirit of Wu's fault-tolerant adaptive *and minimal* routing in
//! n-D meshes \[14\], which the paper builds on: every node knows the (static) faulty
//! blocks, and the routing only ever takes preferred directions, choosing among them
//! one that does not lead into a dangerous area.  If no such preferred direction
//! exists (the source was unsafe, or a dynamic fault appeared after launch), the
//! routing fails instead of detouring — minimality is never given up.
//!
//! Comparing this router with the LGFI router isolates the value of the *detour*
//! machinery (spare-along-block directions, backtracking, boundary warnings) when
//! sources are unsafe or faults are dynamic.

use lgfi_core::boundary::BoundaryEntry;
use lgfi_core::routing::{RouteCtx, Router, RoutingDecision};
use lgfi_core::status::NodeStatus;
use lgfi_topology::Direction;

/// Minimal adaptive routing over a global snapshot of the faulty blocks.
#[derive(Debug, Clone, Default)]
pub struct StaticBlockRouter;

impl StaticBlockRouter {
    /// Creates the router.
    pub fn new() -> Self {
        StaticBlockRouter
    }
}

impl Router for StaticBlockRouter {
    fn name(&self) -> &'static str {
        "wu-minimal-block"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        if ctx.current_status == NodeStatus::Disabled {
            return RoutingDecision::Fail;
        }
        let n = ctx.mesh.ndim();
        let mut best: Option<(Direction, i64)> = None;
        for dir in Direction::iter_all(n) {
            if !ctx.is_preferred(dir) || ctx.used.contains(dir) {
                continue;
            }
            match ctx.neighbor_status(dir) {
                Some(NodeStatus::Enabled) | Some(NodeStatus::Clean) => {}
                _ => continue,
            }
            // The Section-2.2 dangerous-area test with global knowledge: the
            // criticality test of a boundary entry synthesised for every block
            // and guard.
            let next = ctx.current.step(dir);
            let dangerous = ctx.global_blocks.iter().any(|block| {
                Direction::iter_all(n).any(|guard| {
                    BoundaryEntry {
                        block_id: block.id,
                        block: block.region,
                        guard,
                        arrival_offset: 0,
                    }
                    .is_critical_hop(&next, ctx.dest)
                })
            });
            if dangerous {
                continue;
            }
            let offset = (ctx.dest[dir.dim] - ctx.current[dir.dim]).abs() as i64;
            let score = -offset * 16 + dir.index() as i64;
            if best.map(|(_, s)| score < s).unwrap_or(true) {
                best = Some((dir, score));
            }
        }
        match best {
            Some((dir, _)) => RoutingDecision::Forward(dir),
            None => RoutingDecision::Fail,
        }
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
            &StaticBlockRouter::new(),
            mesh.id_of(s),
            mesh.id_of(d),
            10_000,
        )
    }

    #[test]
    fn safe_sources_are_routed_minimally() {
        let mesh = Mesh::cubic(12, 2);
        let faults = [coord![8, 8], coord![9, 9], coord![8, 9], coord![9, 8]];
        let out = run(&mesh, &faults, &coord![0, 0], &coord![6, 6]);
        assert!(out.delivered());
        assert_eq!(out.detours(), Some(0));
    }

    #[test]
    fn routes_minimally_around_a_block_when_a_minimal_path_exists() {
        // Source below the block, destination above-left of it: a minimal path exists
        // by moving left first, and the danger test steers the router onto it.
        let mesh = Mesh::cubic(12, 2);
        let faults = [coord![5, 5], coord![6, 6], coord![5, 6], coord![6, 5]];
        let out = run(&mesh, &faults, &coord![5, 2], &coord![2, 9]);
        assert!(out.delivered());
        assert_eq!(out.detours(), Some(0));
    }

    #[test]
    fn fails_rather_than_detours_when_every_minimal_path_is_blocked() {
        // Destination directly above the block, source directly below it: no minimal
        // path exists; the minimal router gives up where the LGFI router detours.
        let mesh = Mesh::cubic(12, 2);
        let faults = [coord![5, 5], coord![6, 6], coord![5, 6], coord![6, 5]];
        let out = run(&mesh, &faults, &coord![5, 2], &coord![6, 9]);
        assert_eq!(out.status, ProbeStatus::Failed);
        let lgfi = StaticLayout::new(mesh.clone(), &faults).route(
            &lgfi_core::routing::LgfiRouter::new(),
            mesh.id_of(&coord![5, 2]),
            mesh.id_of(&coord![6, 9]),
            10_000,
        );
        assert!(
            lgfi.delivered(),
            "the LGFI router detours and still delivers"
        );
    }

    #[test]
    fn fault_free_routing_is_minimal() {
        let mesh = Mesh::cubic(9, 3);
        let out = run(&mesh, &[], &coord![1, 1, 1], &coord![7, 0, 6]);
        assert!(out.delivered());
        assert_eq!(out.detours(), Some(0));
        assert_eq!(StaticBlockRouter::new().name(), "wu-minimal-block");
    }
}

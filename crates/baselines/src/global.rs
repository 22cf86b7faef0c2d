//! Idealised global-information adaptive routing.
//!
//! The "traditional model" the paper contrasts against: every node knows every faulty
//! block instantly (zero distribution delay, no memory limit).  At every node the
//! criticality test of Section 2.2 is evaluated against *all* blocks, not only the
//! ones whose boundary happens to pass through the node, so the router never enters a
//! dangerous area knowingly.
//!
//! This router is an upper bound on what any information-distribution scheme can
//! achieve with the same decision rule; the point of the comparison experiments is
//! that the limited-global model tracks it closely at a small fraction of the memory
//! and update cost.

use std::cell::RefCell;

use lgfi_core::boundary::BoundaryEntry;
use lgfi_core::routing::{LgfiRouter, RouteCtx, Router, RoutingDecision};
use lgfi_topology::Direction;

/// Adaptive routing with instantaneous global block knowledge.
#[derive(Debug, Default)]
pub struct GlobalInfoRouter {
    inner: LgfiRouter,
    /// Recycled scratch for the synthesised global boundary entries: cleared and
    /// refilled per decision, so a warm router allocates nothing per hop.  Interior
    /// mutability keeps [`Router::decide`]'s `&self` signature; routers are owned by
    /// exactly one probe worker at a time (`Router: Send`, not `Sync`), so the
    /// borrow can never be contended.
    scratch: RefCell<Vec<BoundaryEntry>>,
}

impl GlobalInfoRouter {
    /// Creates the router.
    pub fn new() -> Self {
        GlobalInfoRouter {
            inner: LgfiRouter::new(),
            scratch: RefCell::new(Vec::new()),
        }
    }
}

impl Clone for GlobalInfoRouter {
    fn clone(&self) -> Self {
        // Scratch contents are per-decision transients; a clone starts cold.
        GlobalInfoRouter {
            inner: self.inner.clone(),
            scratch: RefCell::new(Vec::new()),
        }
    }
}

impl Router for GlobalInfoRouter {
    fn name(&self) -> &'static str {
        "global-info"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        // Synthesise boundary entries for every block in every guard direction, as if
        // this node stored the complete global picture.
        let n = ctx.mesh.ndim();
        let mut synthetic = self.scratch.borrow_mut();
        synthetic.clear();
        for block in ctx.global_blocks {
            for guard in Direction::iter_all(n) {
                synthetic.push(BoundaryEntry {
                    block_id: block.id,
                    block: block.region,
                    guard,
                    arrival_offset: 0,
                });
            }
        }
        let enriched = RouteCtx {
            boundary_info: &synthetic,
            global_blocks: &[],
            ..*ctx
        };
        self.inner.decide(&enriched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_core::StaticLayout;
    use lgfi_topology::{coord, Coord, Mesh};

    fn outcome_with(
        router: &dyn Router,
        mesh: &Mesh,
        faults: &[Coord],
        s: &Coord,
        d: &Coord,
    ) -> lgfi_core::routing::ProbeOutcome {
        StaticLayout::new(mesh.clone(), faults).route(router, mesh.id_of(s), mesh.id_of(d), 50_000)
    }

    #[test]
    fn delivers_minimally_without_faults() {
        let mesh = Mesh::cubic(7, 3);
        let out = outcome_with(
            &GlobalInfoRouter::new(),
            &mesh,
            &[],
            &coord![0, 0, 0],
            &coord![6, 6, 6],
        );
        assert!(out.delivered());
        assert_eq!(out.detours(), Some(0));
    }

    #[test]
    fn avoids_dangerous_areas_everywhere_not_only_on_boundaries() {
        // Destination directly above a wide block, source below and to the side.  The
        // global router is warned immediately (even away from boundary nodes) and
        // routes around; it must never need more steps than the local router.
        let mesh = Mesh::cubic(18, 2);
        let mut faults = Vec::new();
        for x in 5..=12 {
            faults.push(coord![x, 8]);
            faults.push(coord![x, 9]);
        }
        let s = coord![8, 1];
        let d = coord![9, 15];
        let global = outcome_with(&GlobalInfoRouter::new(), &mesh, &faults, &s, &d);
        let local = outcome_with(
            &super::super::local::LocalInfoRouter::new(),
            &mesh,
            &faults,
            &s,
            &d,
        );
        let lgfi = outcome_with(
            &lgfi_core::routing::LgfiRouter::new(),
            &mesh,
            &faults,
            &s,
            &d,
        );
        assert!(global.delivered() && local.delivered() && lgfi.delivered());
        assert!(global.steps <= local.steps);
        // The limited-global router sits between the two extremes (ties allowed).
        assert!(lgfi.steps >= global.steps);
        assert!(lgfi.steps <= local.steps);
    }

    #[test]
    fn works_with_multiple_blocks() {
        let mesh = Mesh::cubic(16, 2);
        let faults = vec![
            coord![4, 4],
            coord![5, 5],
            coord![4, 5],
            coord![5, 4],
            coord![10, 10],
            coord![11, 11],
            coord![10, 11],
            coord![11, 10],
        ];
        let out = outcome_with(
            &GlobalInfoRouter::new(),
            &mesh,
            &faults,
            &coord![0, 0],
            &coord![15, 15],
        );
        assert!(out.delivered());
        assert_eq!(GlobalInfoRouter::new().name(), "global-info");
    }
}

//! Local-information-only backtracking PCS routing.
//!
//! The same backtracking probe engine as Algorithm 3, but without any distributed
//! fault information: a node only knows the detected status of its immediate
//! neighbors.  Preferred directions are therefore never downgraded to
//! "preferred-but-detour"; the probe discovers blocks only by bumping into them, which
//! is exactly the *routing difficulty* (extra detours and backtracking inside dead-end
//! regions) the paper's limited-global information is designed to avoid.

use lgfi_core::routing::{LgfiRouter, RouteCtx, Router, RoutingDecision};

/// Backtracking PCS routing using neighbor-status information only.
#[derive(Debug, Clone, Default)]
pub struct LocalInfoRouter {
    inner: LgfiRouter,
}

impl LocalInfoRouter {
    /// Creates the router.
    pub fn new() -> Self {
        LocalInfoRouter {
            inner: LgfiRouter::new(),
        }
    }
}

impl Router for LocalInfoRouter {
    fn name(&self) -> &'static str {
        "local-only"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        // Strip the limited-global information: the decision is made exactly like
        // Algorithm 3 but with an empty boundary store.  The context is `Copy`
        // borrows all the way down, so the stripped variant costs nothing.
        let stripped = RouteCtx {
            boundary_info: &[],
            global_blocks: &[],
            ..*ctx
        };
        self.inner.decide(&stripped)
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
    fn delivers_without_faults_minimally() {
        let mesh = Mesh::cubic(9, 3);
        let out = outcome_with(
            &LocalInfoRouter::new(),
            &mesh,
            &[],
            &coord![0, 0, 0],
            &coord![8, 8, 8],
        );
        assert!(out.delivered());
        assert_eq!(out.detours(), Some(0));
    }

    #[test]
    fn still_delivers_around_blocks_but_never_beats_the_informed_router() {
        // A wide wall with a gap far to the side: the local router wanders into the
        // concave pocket, the LGFI router is warned at the boundary.
        let mesh = Mesh::cubic(20, 2);
        let mut faults = Vec::new();
        for x in 4..=15 {
            faults.push(coord![x, 9]);
            faults.push(coord![x, 10]);
        }
        let s = coord![9, 2];
        let d = coord![9, 17];
        let local = outcome_with(&LocalInfoRouter::new(), &mesh, &faults, &s, &d);
        let informed = outcome_with(
            &lgfi_core::routing::LgfiRouter::new(),
            &mesh,
            &faults,
            &s,
            &d,
        );
        assert!(local.delivered());
        assert!(informed.delivered());
        assert!(
            informed.steps <= local.steps,
            "informed {} vs local {}",
            informed.steps,
            local.steps
        );
    }

    #[test]
    fn ignores_boundary_information_by_construction() {
        // Even when the context carries boundary entries, the local router's decision
        // matches what it would do with none: verified indirectly by the name and the
        // behaviour equivalence on a fault-free mesh.
        let mesh = Mesh::cubic(6, 2);
        let out_local = outcome_with(
            &LocalInfoRouter::new(),
            &mesh,
            &[],
            &coord![0, 0],
            &coord![5, 5],
        );
        let out_lgfi = outcome_with(
            &lgfi_core::routing::LgfiRouter::new(),
            &mesh,
            &[],
            &coord![0, 0],
            &coord![5, 5],
        );
        assert_eq!(out_local.steps, out_lgfi.steps);
        assert_eq!(LocalInfoRouter::new().name(), "local-only");
    }
}

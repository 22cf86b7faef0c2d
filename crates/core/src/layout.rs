//! The stabilised static fault layout that every static result routes over:
//! Algorithm 1's labeling at its fixpoint, the faulty blocks it forms and their
//! boundaries (Definition 3).
//!
//! [`StaticLayout`] owns the four parts and is the one way to take a static
//! route: one probe ([`StaticLayout::route`]) or a batch sharded across worker
//! threads ([`StaticLayout::sweep`]), both through [`ProbeEngine::route`] over
//! [`StaticLayout::env`].

use lgfi_topology::{Coord, Mesh, NodeId};

use crate::block::BlockSet;
use crate::boundary::BoundaryMap;
use crate::labeling::LabelingEngine;
use crate::routing::{ProbeEngine, ProbeOutcome, RouteEnv, Router};
use crate::status::NodeStatus;

/// A static fault layout: the node statuses at the labeling's fixpoint, the
/// [`BlockSet`] extracted from them and its complete [`BoundaryMap`].  Nothing
/// changes while a probe travels, and every node's boundary information has
/// fully arrived.
#[derive(Debug)]
pub struct StaticLayout {
    mesh: Mesh,
    statuses: Vec<NodeStatus>,
    blocks: BlockSet,
    boundary: BoundaryMap,
}

impl StaticLayout {
    /// Labels `faults` to the fixpoint of Algorithm 1
    /// ([`LabelingEngine::apply_faults`]), then extracts the blocks and
    /// constructs their boundaries.
    pub fn new(mesh: Mesh, faults: &[Coord]) -> Self {
        let mut labeling = LabelingEngine::new(mesh.clone());
        labeling.apply_faults(faults);
        Self::from_statuses(mesh, labeling.statuses())
    }

    /// The layout of `statuses` that are already labeled (after recoveries, or
    /// by an engine whose round count the caller reads): extracts the blocks and
    /// constructs their boundaries.
    pub fn from_statuses(mesh: Mesh, statuses: &[NodeStatus]) -> Self {
        let blocks = BlockSet::extract(&mesh, statuses);
        let boundary = BoundaryMap::construct(&mesh, &blocks);
        StaticLayout {
            mesh,
            statuses: statuses.to_vec(),
            blocks,
            boundary,
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The detected status of every node.
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// The faulty blocks.
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
    }

    /// The boundary information of every block, fully distributed.
    pub fn boundary(&self) -> &BoundaryMap {
        &self.boundary
    }

    /// The routing environment over the layout: its statuses, its blocks and
    /// the boundary map's view.
    pub fn env(&self) -> RouteEnv<'_> {
        RouteEnv {
            statuses: &self.statuses,
            blocks: self.blocks.blocks(),
            boundary: self.boundary.view(),
        }
    }

    /// Routes one probe from `source` to `dest` through a one-shot
    /// [`ProbeEngine`].  Callers routing many probes should hold an engine or
    /// use [`StaticLayout::sweep`], so the buffers are recycled.
    pub fn route(
        &self,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        ProbeEngine::new().route(&self.mesh, &self.env(), router, source, dest, max_steps)
    }

    /// Routes a whole batch of source/destination pairs, sharding the
    /// independent probes across `threads` worker threads (`1` = serial, `0` =
    /// one worker per available core).
    ///
    /// Each worker owns a recycled [`ProbeEngine`] and its own router from
    /// `make_router`, and routes a contiguous chunk of the batch; the chunks'
    /// outcomes are concatenated in chunk (= launch) order.  Every probe is an
    /// independent deterministic function of the layout, so the outcomes are
    /// **bit-identical** to the serial sweep for every thread count
    /// (`tests/probe_batch_equivalence.rs` asserts this across routers and
    /// fault patterns).
    ///
    /// ```
    /// use lgfi_core::routing::LgfiRouter;
    /// use lgfi_core::StaticLayout;
    /// use lgfi_topology::{coord, Mesh};
    ///
    /// let layout = StaticLayout::new(Mesh::cubic(8, 2), &[coord![3, 3], coord![4, 4]]);
    /// let pairs = [(0, 63), (7, 56), (9, 54)];
    /// let outcomes = layout.sweep(&|| Box::new(LgfiRouter::new()), &pairs, 10_000, 2);
    /// assert!(outcomes.iter().all(|o| o.delivered()));
    /// ```
    pub fn sweep(
        &self,
        make_router: &(dyn Fn() -> Box<dyn Router> + Sync),
        pairs: &[(NodeId, NodeId)],
        max_steps: u64,
        threads: usize,
    ) -> Vec<ProbeOutcome> {
        let threads = lgfi_sim::resolve_threads(threads).min(pairs.len().max(1));
        let env = self.env();
        let route_chunk = |chunk: &[(NodeId, NodeId)]| -> Vec<ProbeOutcome> {
            let router = make_router();
            let mut engine = ProbeEngine::new();
            chunk
                .iter()
                .map(|&(s, d)| engine.route(&self.mesh, &env, router.as_ref(), s, d, max_steps))
                .collect()
        };
        if threads <= 1 || pairs.len() <= 1 {
            return route_chunk(pairs);
        }
        let ranges = lgfi_sim::batch_ranges(pairs.len(), threads);
        let mut slots: Vec<Vec<ProbeOutcome>> = (0..ranges.len()).map(|_| Vec::new()).collect();
        lgfi_sim::WorkerPool::new(threads).run_chunked(&mut slots, threads, |i, slot| {
            slot[0] = route_chunk(&pairs[ranges[i].clone()]);
        });
        let mut out = Vec::with_capacity(pairs.len());
        for slot in &mut slots {
            out.append(slot);
        }
        out
    }
}

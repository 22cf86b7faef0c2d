//! Definition 3: boundaries of a block and their construction.
//!
//! For every pair of opposite adjacent surfaces of a block, a message that enters the
//! *dangerous area* on one side while its destination lies directly beyond the other
//! side has lost every minimal path: it will have to detour around the block.  The
//! **boundary** for a surface `S_g` encloses that dangerous area: it starts from the
//! edges of the opposite surface `S_{(g+n) mod 2n}` (except the corners) and extends
//! away from the block, one node per hop, until it reaches the outermost surface of
//! the mesh or merges into another block.
//!
//! The block information is stored at every node of the boundary, so that a routing
//! message about to cross the wall into the dangerous area can be warned: the
//! preferred direction pointing inside becomes *preferred but detour* (critical
//! routing, Algorithm 3).
//!
//! A per-block builder constructs the boundaries of one block at a time, listing
//! every node of the boundary with the [`BoundaryEntry`] it stores and the number of
//! rounds (counted from the moment the block information is available at the block's
//! frame) after which the information reaches it; the maximum of these offsets is the
//! paper's `c_i`.  [`BoundaryMap::construct`] runs it over every block of a
//! [`BlockSet`]; the dynamic network runs it over the blocks that changed.
//!
//! ## Merging (Figure 3 (d))
//!
//! If the hop-by-hop propagation reaches a node adjacent to another block, the
//! information merges into that block's frame: it continues along the second block's
//! adjacent nodes and down the second block's own boundary for the same surface
//! direction.  This is implemented as a breadth-first propagation whose expansion rule
//! at a node `v` is:
//!
//! * if `v` is a plain wall node (not adjacent to any other block) the information
//!   moves one hop further away from the block (direction `-g`);
//! * if `v` is adjacent to another block `B2`, the information additionally spreads to
//!   every enabled neighbor of `v` that is also adjacent to `B2`, and continues away
//!   from the block from those of `B2`'s frame nodes that lie on `B2`'s own starting
//!   edges for the same guard direction.

use lgfi_topology::{Coord, Direction, FrameLevel, Mesh, NodeId, Region};

use crate::block::{BlockId, BlockSet};

/// One piece of limited-global information stored at a node: "block `block` exists;
/// this node is on the boundary that guards its surface in direction `guard`".
///
/// Plain data (`Copy`, no heap pointer), so arenas and snapshots of entries copy as
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryEntry {
    /// The id of the guarded block within the owning [`BlockSet`].
    pub block_id: BlockId,
    /// The extent of the guarded block (the block information itself).
    pub block: Region,
    /// The direction of the adjacent surface this boundary is *for*: a message whose
    /// destination lies beyond the block in this direction and which is about to enter
    /// the shadow on the opposite side is in danger.
    pub guard: Direction,
    /// Rounds after the block information is available at the block's frame until
    /// this node receives it along the boundary.
    pub arrival_offset: u64,
}

impl BoundaryEntry {
    /// True if, for a message currently able to move to `next` and destined for
    /// `dest`, taking that hop would enter the dangerous area guarded by this entry
    /// (the criticality test of Section 2.2): the destination lies in the shadow
    /// beyond the block in the `guard` direction ([`BoundaryEntry::guards_destination`])
    /// and the next node lies in the shadow on the opposite side
    /// ([`BoundaryEntry::shadows_next_hop`]).
    #[inline]
    pub fn is_critical_hop(&self, next: &Coord, dest: &Coord) -> bool {
        self.guards_destination(dest) && self.shadows_next_hop(next)
    }

    /// The destination half of [`BoundaryEntry::is_critical_hop`]: `dest` lies
    /// beyond the block in the `guard` direction and inside the block's
    /// cross-section.  It does not depend on the hop, so a router tests it once per
    /// entry and decision.
    #[inline]
    pub fn guards_destination(&self, dest: &Coord) -> bool {
        let g = self.guard;
        let beyond = if g.positive {
            dest[g.dim] > self.block.hi()[g.dim]
        } else {
            dest[g.dim] < self.block.lo()[g.dim]
        };
        beyond && self.in_cross_section(dest)
    }

    /// The next-node half of [`BoundaryEntry::is_critical_hop`]: `next` lies in
    /// the shadow on the side opposite to `guard`, inside the block's
    /// cross-section.
    #[inline]
    pub fn shadows_next_hop(&self, next: &Coord) -> bool {
        let g = self.guard;
        let in_shadow = if g.positive {
            next[g.dim] < self.block.lo()[g.dim]
        } else {
            next[g.dim] > self.block.hi()[g.dim]
        };
        in_shadow && self.in_cross_section(next)
    }

    /// True if `c` lies within the block's extent in every dimension except the
    /// guard's.
    #[inline]
    fn in_cross_section(&self, c: &Coord) -> bool {
        let dim = self.guard.dim;
        (0..self.block.ndim())
            .filter(|&d| d != dim)
            .all(|d| c[d] >= self.block.lo()[d] && c[d] <= self.block.hi()[d])
    }
}

/// The boundary information of every node of a mesh for a given block set.
#[derive(Debug, Clone, Default)]
pub struct BoundaryMap {
    entries: Vec<Vec<BoundaryEntry>>,
}

impl BoundaryMap {
    /// An empty map (no blocks, no information anywhere).
    pub fn empty(mesh: &Mesh) -> Self {
        BoundaryMap {
            entries: vec![Vec::new(); mesh.node_count()],
        }
    }

    /// Constructs the boundaries of every block in `blocks`: the per-block builder
    /// run over each block in id order, so every node lists its entries by block,
    /// then by guard in [`Direction::all`] order.
    pub fn construct(mesh: &Mesh, blocks: &BlockSet) -> Self {
        let mut map = BoundaryMap::empty(mesh);
        let mut builder = BoundaryBuilder::default();
        builder.prepare(mesh, blocks);
        let mut out = Vec::new();
        for block in blocks.blocks() {
            builder.block_entries(mesh, blocks, block.id, &mut out);
            for &(node, entry) in &out {
                map.entries[node].push(entry);
            }
        }
        map
    }

    /// The boundary entries stored at a node.
    pub fn entries(&self, id: NodeId) -> &[BoundaryEntry] {
        &self.entries[id]
    }

    /// The boundary entries stored at a node that have already arrived after `rounds`
    /// rounds of boundary construction.
    pub fn entries_at_round(&self, id: NodeId, rounds: u64) -> Vec<&BoundaryEntry> {
        self.entries[id]
            .iter()
            .filter(|e| e.arrival_offset <= rounds)
            .collect()
    }

    /// Number of nodes storing at least one boundary entry.
    pub fn nodes_with_info(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_empty()).count()
    }

    /// Total number of stored entries across all nodes.
    pub fn total_entries(&self) -> usize {
        self.entries.iter().map(|e| e.len()).sum()
    }

    /// The number of rounds for the boundary construction to complete (the paper's
    /// `c_i`): the maximum arrival offset over all entries, 0 if there are none.
    pub fn construction_rounds(&self) -> u64 {
        self.entries
            .iter()
            .flat_map(|e| e.iter().map(|x| x.arrival_offset))
            .max()
            .unwrap_or(0)
    }

    /// All node ids that guard the given block for the given surface direction.
    pub fn boundary_nodes(&self, block_id: BlockId, guard: Direction) -> Vec<NodeId> {
        (0..self.entries.len())
            .filter(|&id| {
                self.entries[id]
                    .iter()
                    .any(|e| e.block_id == block_id && e.guard == guard)
            })
            .collect()
    }
}

/// Builds the boundaries of single blocks of a [`BlockSet`].
///
/// The merge rule needs, for every node, the block whose expanded frame holds it.
/// [`BoundaryBuilder::prepare`] computes that adjacency once per block set by
/// walking each block's `expand(1)` frame in block-id order, where the first block
/// to claim a node wins.  Building one block's boundaries then costs the size of
/// its frame and walls, not the mesh.  [`BoundaryMap::construct`] runs the builder
/// over every block; the dynamic network keeps one builder and runs it over the
/// blocks that changed, so a warm rebuild reuses its tables: preparing clears only
/// the nodes the previous block set claimed, and visit stamps need no clearing.
#[derive(Debug, Default)]
pub(crate) struct BoundaryBuilder {
    /// For every node, the first block whose expanded frame (not its extent)
    /// holds it.
    adjacency: Vec<Option<BlockId>>,
    /// The nodes whose `adjacency` is set, so the next block set clears only them.
    claimed: Vec<NodeId>,
    /// Per-node visit stamp: `seen[v] == pass` once the current propagation
    /// reached `v`.
    seen: Vec<u32>,
    pass: u32,
    /// `(node, offset)` in the order the current propagation reached them (the
    /// breadth-first queue itself).
    reached: Vec<(NodeId, u64)>,
    /// Expansion targets of the node being visited.
    targets: Vec<NodeId>,
}

impl BoundaryBuilder {
    /// Prepares the builder for the blocks of `blocks` on `mesh`; every
    /// [`BoundaryBuilder::block_entries`] call until the next `prepare` must pass
    /// the same mesh and block set.
    pub(crate) fn prepare(&mut self, mesh: &Mesh, blocks: &BlockSet) {
        let nodes = mesh.node_count();
        if self.adjacency.len() != nodes {
            self.adjacency.clear();
            self.adjacency.resize(nodes, None);
            self.claimed.clear();
            self.seen.clear();
            self.seen.resize(nodes, 0);
            self.pass = 0;
        }
        for &v in &self.claimed {
            self.adjacency[v] = None;
        }
        self.claimed.clear();
        for block in blocks.blocks() {
            for c in block.region.expand(1).iter_coords() {
                if !mesh.contains(&c) || block.region.contains(&c) {
                    continue;
                }
                let v = mesh.id_of(&c);
                if self.adjacency[v].is_none() {
                    self.adjacency[v] = Some(block.id);
                    self.claimed.push(v);
                }
            }
        }
    }

    /// Fills `out` with the boundary entries of block `block_id` for every surface
    /// direction, as `(node, entry)` pairs sorted by node, with a node's guards in
    /// [`Direction::all`] order.
    pub(crate) fn block_entries(
        &mut self,
        mesh: &Mesh,
        blocks: &BlockSet,
        block_id: BlockId,
        out: &mut Vec<(NodeId, BoundaryEntry)>,
    ) {
        debug_assert_eq!(
            self.adjacency.len(),
            mesh.node_count(),
            "builder not prepared"
        );
        let region = &blocks.blocks()[block_id].region;
        out.clear();
        for guard in Direction::iter_all(mesh.ndim()) {
            self.propagate(mesh, blocks, block_id, guard);
            out.extend(self.reached.iter().map(|&(node, offset)| {
                let entry = BoundaryEntry {
                    block_id,
                    block: *region,
                    guard,
                    arrival_offset: offset,
                };
                (node, entry)
            }));
        }
        // A propagation reaches a node at most once, so `(node, guard)` is unique
        // and the unstable (allocation-free) sort leaves a node's guards in the
        // order they were produced in.
        out.sort_unstable_by_key(|&(node, entry)| (node, entry.guard.index()));
    }

    /// Propagates the boundary of `block_id` for surface direction `guard`,
    /// leaving the reached nodes and their arrival offsets in `self.reached`.
    fn propagate(&mut self, mesh: &Mesh, blocks: &BlockSet, block_id: BlockId, guard: Direction) {
        self.reached.clear();
        let region = &blocks.blocks()[block_id].region;
        let away = guard.opposite();
        // Seeds: the edge nodes (2-level frame nodes, not corners) of the opposite
        // adjacent surface S_{(g+n) mod 2n}, i.e. frame nodes whose coordinate in the
        // guard dimension is one unit outside the block on the `away` side.
        let expanded = region.expand(1);
        let away_coord = if away.positive {
            expanded.hi()[guard.dim]
        } else {
            expanded.lo()[guard.dim]
        };
        // If that surface lies outside the mesh, there is no shadow on the far side
        // (the block touches the mesh surface there): the dangerous area is empty
        // and no boundary is needed.
        if away_coord < 0 || away_coord >= mesh.radix(guard.dim) {
            return;
        }
        if self.pass == u32::MAX {
            self.seen.fill(0);
            self.pass = 0;
        }
        self.pass += 1;
        let pass = self.pass;

        let mut lo = Coord::from_slice(expanded.lo());
        let mut hi = Coord::from_slice(expanded.hi());
        lo[guard.dim] = away_coord;
        hi[guard.dim] = away_coord;
        for c in Region::from_bounds(lo, hi).iter_coords() {
            if mesh.contains(&c) && region.frame_level(&c) == FrameLevel::Frame(2) {
                let s = mesh.id_of(&c);
                self.seen[s] = pass;
                self.reached.push((s, 0));
            }
        }

        // Breadth-first propagation, one hop per round.
        let mut head = 0;
        while let Some(&(u, t)) = self.reached.get(head) {
            head += 1;
            let uc = mesh.coord_of(u);
            self.targets.clear();
            match self.adjacency[u].filter(|&b| b != block_id) {
                None => {
                    // Plain wall node: continue straight away from the block.
                    self.targets.extend(mesh.neighbor_id(u, away));
                }
                Some(other) => {
                    // Merge into the other block's frame: spread over its adjacent
                    // nodes...
                    for dir in Direction::iter_all(mesh.ndim()) {
                        if let Some(v) = mesh.neighbor_id(u, dir) {
                            if self.adjacency[v] == Some(other) {
                                self.targets.push(v);
                            }
                        }
                    }
                    // ...and continue away from the block from the other block's own
                    // starting edge for the same guard direction.
                    let other_region = &blocks.blocks()[other].region;
                    let other_away_coord = if away.positive {
                        other_region.hi()[guard.dim] + 1
                    } else {
                        other_region.lo()[guard.dim] - 1
                    };
                    if uc[guard.dim] == other_away_coord
                        && other_region.frame_level(&uc) == FrameLevel::Frame(2)
                    {
                        self.targets.extend(mesh.neighbor_id(u, away));
                    }
                }
            }
            for &v in &self.targets {
                if blocks.block_of(v).is_some() || self.seen[v] == pass {
                    continue;
                }
                self.seen[v] = pass;
                self.reached.push((v, t + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSet;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::coord;

    // Geometry and boundary information are plain data: every copy is a byte copy.
    const _: () = {
        const fn assert_copy<T: Copy>() {}
        assert_copy::<Coord>();
        assert_copy::<Region>();
        assert_copy::<BoundaryEntry>();
    };

    fn build(mesh: &Mesh, faults: &[Coord]) -> (BlockSet, BoundaryMap) {
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(faults);
        let blocks = BlockSet::extract(mesh, eng.statuses());
        let map = BoundaryMap::construct(mesh, &blocks);
        (blocks, map)
    }

    fn figure1_mesh() -> (Mesh, BlockSet, BoundaryMap) {
        let mesh = Mesh::cubic(10, 3);
        let (blocks, map) = build(
            &mesh,
            &[
                coord![3, 5, 4],
                coord![4, 5, 4],
                coord![5, 5, 3],
                coord![3, 6, 3],
            ],
        );
        (mesh, blocks, map)
    }

    #[test]
    fn boundary_for_s4_extends_from_the_edges_of_s1_in_negative_y() {
        // Figure 3 (a): block [3:5, 5:6, 3:4]; the boundary for S4 (+Y) starts at the
        // edges of S1 (the y = 4 adjacent surface) and propagates towards y = 0.
        let (mesh, blocks, map) = figure1_mesh();
        assert_eq!(blocks.len(), 1);
        let guard = Direction::pos(1);
        let nodes = map.boundary_nodes(0, guard);
        assert!(!nodes.is_empty());
        for id in &nodes {
            let c = mesh.coord_of(*id);
            // All boundary nodes lie at or below the S1 plane (y <= 4) ...
            assert!(c[1] <= 4, "{c:?} should be below the block");
            // ... and on the lateral ring of the shadow prism: exactly one of x or z is
            // one unit outside the block's extent, the other within.
            let x_out = c[0] == 2 || c[0] == 6;
            let z_out = c[2] == 2 || c[2] == 5;
            let x_in = (3..=5).contains(&c[0]);
            let z_in = (3..=4).contains(&c[2]);
            assert!(
                (x_out && z_in) || (z_out && x_in),
                "{c:?} is not on the lateral walls of the dangerous area"
            );
        }
        // The walls reach the outermost surface of the mesh (y = 0).
        assert!(nodes.iter().any(|&id| mesh.coord_of(id)[1] == 0));
        // Seed nodes (on the S1 plane itself) have offset 0 and the farthest wall node
        // has offset 4 (from y = 4 down to y = 0).
        let offsets: Vec<u64> = nodes
            .iter()
            .flat_map(|&id| {
                map.entries(id)
                    .iter()
                    .filter(|e| e.guard == guard)
                    .map(|e| e.arrival_offset)
            })
            .collect();
        assert_eq!(offsets.iter().copied().min(), Some(0));
        assert_eq!(offsets.iter().copied().max(), Some(4));
    }

    #[test]
    fn every_surface_direction_gets_a_boundary_for_an_interior_block() {
        let (mesh, _blocks, map) = figure1_mesh();
        for guard in Direction::all(3) {
            let nodes = map.boundary_nodes(0, guard);
            assert!(!nodes.is_empty(), "no boundary for {guard}");
            // No boundary node is inside the block.
            let region = Region::new(vec![3, 5, 3], vec![5, 6, 4]);
            assert!(nodes.iter().all(|&id| !region.contains(&mesh.coord_of(id))));
        }
        assert!(map.construction_rounds() > 0);
        assert!(map.nodes_with_info() > 0);
        assert!(map.total_entries() >= map.nodes_with_info());
    }

    #[test]
    fn block_flush_with_mesh_surface_has_no_boundary_on_that_side() {
        // A block whose extent touches y = 0 has no dangerous area below it, hence no
        // boundary for S_{+Y}.
        let mesh = Mesh::cubic(10, 2);
        let mut eng = LabelingEngine::new(mesh.clone());
        // Faults at y = 1 with the block extending to y = 0 after labeling?  Simpler:
        // inject faults forming a block at rows 0..1 directly (the validate() rule
        // about the outermost surface is a modelling assumption, not enforced here).
        eng.inject_fault_coord(&coord![4, 0]);
        eng.inject_fault_coord(&coord![4, 1]);
        eng.inject_fault_coord(&coord![5, 0]);
        eng.inject_fault_coord(&coord![5, 1]);
        eng.run_to_fixpoint(100).unwrap();
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        let map = BoundaryMap::construct(&mesh, &blocks);
        assert!(map.boundary_nodes(0, Direction::pos(1)).is_empty());
        assert!(!map.boundary_nodes(0, Direction::neg(1)).is_empty());
    }

    #[test]
    fn two_d_boundary_is_two_columns() {
        // In 2-D the boundary for S_{+Y} of a block is the two columns just left and
        // right of the block, from the block's lower edge down to y = 0.
        let mesh = Mesh::cubic(12, 2);
        let (blocks, map) = build(
            &mesh,
            &[coord![5, 6], coord![6, 7], coord![5, 7], coord![6, 6]],
        );
        assert_eq!(blocks.len(), 1);
        let nodes = map.boundary_nodes(0, Direction::pos(1));
        let coords: Vec<Coord> = nodes.iter().map(|&id| mesh.coord_of(id)).collect();
        assert!(coords.iter().all(|c| c[0] == 4 || c[0] == 7));
        assert!(coords.iter().all(|c| c[1] <= 5));
        // Both columns reach the mesh edge.
        assert!(coords.iter().any(|c| c[0] == 4 && c[1] == 0));
        assert!(coords.iter().any(|c| c[0] == 7 && c[1] == 0));
        // 2 columns x 6 rows (y=0..5).
        assert_eq!(coords.len(), 12);
    }

    #[test]
    fn criticality_test_matches_the_dangerous_area_definition() {
        let entry = BoundaryEntry {
            block_id: 0,
            block: Region::new(vec![3, 5, 3], vec![5, 6, 4]),
            guard: Direction::pos(1),
            arrival_offset: 0,
        };
        // Destination right above the block, next hop into the shadow below: critical.
        assert!(entry.is_critical_hop(&coord![4, 4, 3], &coord![4, 8, 3]));
        // Destination above but outside the cross-section: a minimal path around the
        // block exists, not critical.
        assert!(!entry.is_critical_hop(&coord![4, 4, 3], &coord![7, 8, 3]));
        // Next hop not inside the shadow: not critical.
        assert!(!entry.is_critical_hop(&coord![6, 4, 3], &coord![4, 8, 3]));
        // Destination below the block: not critical for this guard.
        assert!(!entry.is_critical_hop(&coord![4, 4, 3], &coord![4, 0, 3]));
        // Destination above the block top (z outside cross-section): not critical.
        assert!(!entry.is_critical_hop(&coord![4, 4, 3], &coord![4, 8, 7]));
    }

    #[test]
    fn boundary_merges_into_a_second_block() {
        // Figure 3 (d): block A sits above block B; A's boundary for S_{+Y} propagates
        // downwards, hits B's frame and merges around it instead of stopping.
        let mesh = Mesh::cubic(14, 2);
        let (blocks, map) = build(
            &mesh,
            &[
                // block A: [5:6, 9:10]
                coord![5, 9],
                coord![6, 10],
                coord![5, 10],
                coord![6, 9],
                // block B: [4:5, 4:5] -- offset so that A's left wall (x = 4) runs into
                // B's frame.
                coord![4, 4],
                coord![5, 5],
                coord![4, 5],
                coord![5, 4],
            ],
        );
        assert_eq!(blocks.len(), 2);
        let a = blocks
            .blocks()
            .iter()
            .find(|b| b.region.lo()[1] == 9)
            .unwrap()
            .id;
        let b = blocks
            .blocks()
            .iter()
            .find(|b| b.region.lo()[1] == 4)
            .unwrap()
            .id;
        assert_ne!(a, b);
        let guard = Direction::pos(1);
        let nodes = map.boundary_nodes(a, guard);
        let coords: Vec<Coord> = nodes.iter().map(|&id| mesh.coord_of(id)).collect();
        // The wall at x = 4 stops where block B sits, but A's information continues
        // around B (it reaches nodes adjacent to B) ...
        assert!(
            coords.iter().any(|c| c[0] == 3 && c[1] <= 5),
            "A's info must spread around B's far side: {coords:?}"
        );
        // ... and continues below B along B's own boundary columns.
        assert!(
            coords.iter().any(|c| c[1] < 4),
            "A's info must continue below block B"
        );
        // It never enters either block.
        for c in &coords {
            assert!(!blocks.blocks()[a].region.contains(c));
            assert!(!blocks.blocks()[b].region.contains(c));
        }
    }

    #[test]
    fn arrival_offsets_grow_with_distance_from_the_block() {
        let (mesh, _blocks, map) = figure1_mesh();
        let guard = Direction::pos(1);
        // Wall node right at the S1 plane vs. three hops further down the same wall.
        let near = mesh.id_of(&coord![2, 4, 3]);
        let far = mesh.id_of(&coord![2, 1, 3]);
        let near_e = map
            .entries(near)
            .iter()
            .find(|e| e.guard == guard)
            .expect("near node must hold the info");
        let far_e = map
            .entries(far)
            .iter()
            .find(|e| e.guard == guard)
            .expect("far node must hold the info");
        assert_eq!(near_e.arrival_offset, 0);
        assert_eq!(far_e.arrival_offset, 3);
    }

    #[test]
    fn fault_free_mesh_has_empty_map() {
        let mesh = Mesh::cubic(8, 3);
        let blocks = BlockSet::extract(&mesh, &vec![crate::status::NodeStatus::Enabled; 512]);
        let map = BoundaryMap::construct(&mesh, &blocks);
        assert_eq!(map.nodes_with_info(), 0);
        assert_eq!(map.total_entries(), 0);
        assert_eq!(map.construction_rounds(), 0);
        assert!(map.entries(0).is_empty());
        assert!(map.entries_at_round(0, 100).is_empty());
    }
}

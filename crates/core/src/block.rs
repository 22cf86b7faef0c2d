//! Faulty blocks: connected faulty/disabled components and their extents.
//!
//! Definition 1 produces a labeling in which "connected disabled and faulty nodes form
//! a faulty block".  With interior faults and the labeling stabilised, every block is
//! box-shaped (this is the property of Wu's model \[14\] that the paper relies on); the
//! extent `[lo:hi]` of that box is the *block information* that the identification and
//! boundary processes distribute.
//!
//! [`BlockSet::extract`] computes the blocks of a status vector by connected-component
//! search, records their extents, and exposes the structural checks the rest of the
//! library (and the test-suite) relies on: rectangularity and pairwise disjointness.

use lgfi_topology::{Coord, Direction, Mesh, NodeId, Region};

use crate::status::NodeStatus;

/// Identifier of a block within a [`BlockSet`] (dense, starting at 0, assigned in
/// lexicographic order of the block's lowest node id — deterministic across runs).
pub type BlockId = usize;

/// A faulty block: a maximal connected set of faulty/disabled nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultyBlock {
    /// Dense identifier within the owning [`BlockSet`].
    pub id: BlockId,
    /// Bounding box of the block's nodes; for a stabilised labeling with interior
    /// faults this box is exactly the block ("cube-type blocks", Section 2.2).
    pub region: Region,
    /// The member node ids, sorted.
    pub nodes: Vec<NodeId>,
    /// Number of members that are faulty (the rest are disabled).
    pub faulty_count: usize,
}

impl FaultyBlock {
    /// True if the block fills its bounding box exactly (the "cube-type" shape the
    /// model is designed to produce).
    pub fn is_rectangular(&self) -> bool {
        self.region.volume() == self.nodes.len() as u64
    }

    /// Number of member nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The longest edge of the block's extent; the maximum over all blocks is the
    /// paper's `e_max`.
    pub fn max_edge(&self) -> i32 {
        self.region.max_edge()
    }

    /// True if the coordinate belongs to the block's extent.
    pub fn contains(&self, c: &Coord) -> bool {
        self.region.contains(c)
    }
}

/// All faulty blocks of a labeled mesh.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockSet {
    blocks: Vec<FaultyBlock>,
    /// For each node, the block it belongs to (if any).
    membership: Vec<Option<BlockId>>,
}

impl BlockSet {
    /// Extracts the blocks of a status vector by breadth-first search over the
    /// faulty/disabled nodes.
    pub fn extract(mesh: &Mesh, statuses: &[NodeStatus]) -> Self {
        let mut set = BlockSet::default();
        set.refill(mesh, statuses, &mut Vec::new());
        set
    }

    /// Re-extracts the blocks of `statuses` into this set, reusing its buffers: the
    /// membership table, the block list and every block's member list.  Member
    /// lists of blocks that no longer exist go to `spare`, and new blocks take
    /// their lists from it, so a warm re-extraction allocates nothing.  Block ids
    /// follow the whole-mesh scan order, exactly as [`BlockSet::extract`].
    pub(crate) fn refill(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        spare: &mut Vec<Vec<NodeId>>,
    ) {
        assert_eq!(
            statuses.len(),
            mesh.node_count(),
            "status vector size mismatch"
        );
        self.membership.clear();
        self.membership.resize(statuses.len(), None);
        let mut count = 0;
        for start in 0..statuses.len() {
            if !statuses[start].in_block() || self.membership[start].is_some() {
                continue;
            }
            let id = count;
            count += 1;
            let mut nodes = match self.blocks.get_mut(id) {
                Some(block) => std::mem::take(&mut block.nodes),
                None => spare.pop().unwrap_or_default(),
            };
            // The member list doubles as the breadth-first queue.
            nodes.clear();
            nodes.push(start);
            self.membership[start] = Some(id);
            let mut head = 0;
            while let Some(&u) = nodes.get(head) {
                head += 1;
                for dir in Direction::iter_all(mesh.ndim()) {
                    let Some(v) = mesh.neighbor_id(u, dir) else {
                        continue;
                    };
                    if statuses[v].in_block() && self.membership[v].is_none() {
                        self.membership[v] = Some(id);
                        nodes.push(v);
                    }
                }
            }
            nodes.sort_unstable();
            let region = nodes
                .iter()
                .fold(Region::point(&mesh.coord_of(start)), |r, &v| {
                    r.union_point(&mesh.coord_of(v))
                });
            let faulty_count = nodes
                .iter()
                .filter(|&&v| statuses[v] == NodeStatus::Faulty)
                .count();
            let block = FaultyBlock {
                id,
                region,
                nodes,
                faulty_count,
            };
            match self.blocks.get_mut(id) {
                Some(slot) => *slot = block,
                None => self.blocks.push(block),
            }
        }
        spare.extend(self.blocks.drain(count..).map(|mut b| {
            b.nodes.clear();
            b.nodes
        }));
    }

    /// The blocks, ordered by id.
    pub fn blocks(&self) -> &[FaultyBlock] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are no blocks (fault-free, fully enabled mesh).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block a node belongs to, if any.
    pub fn block_of(&self, id: NodeId) -> Option<&FaultyBlock> {
        self.membership
            .get(id)
            .copied()
            .flatten()
            .map(|b| &self.blocks[b])
    }

    /// The block whose *extent* contains the coordinate, if any (extent-based lookup,
    /// used by routers that only know regions).
    pub fn block_containing(&self, c: &Coord) -> Option<&FaultyBlock> {
        self.blocks.iter().find(|b| b.region.contains(c))
    }

    /// The regions of all blocks.
    pub fn regions(&self) -> Vec<Region> {
        self.blocks.iter().map(|b| b.region).collect()
    }

    /// The paper's `e_max`: the maximum edge length over all blocks (0 if there are
    /// none).
    pub fn e_max(&self) -> i32 {
        self.blocks.iter().map(|b| b.max_edge()).max().unwrap_or(0)
    }

    /// True if every block fills its bounding box (see
    /// [`FaultyBlock::is_rectangular`]).
    pub fn all_rectangular(&self) -> bool {
        self.blocks.iter().all(|b| b.is_rectangular())
    }

    /// True if the block extents are pairwise non-overlapping, which is the
    /// *disjointness* the paper's model maintains (distinct blocks never share a
    /// node; in three and more dimensions two blocks may still sit diagonally next to
    /// each other without merging).
    pub fn all_disjoint(&self) -> bool {
        for i in 0..self.blocks.len() {
            for j in i + 1..self.blocks.len() {
                if self.blocks[i].region.intersects(&self.blocks[j].region) {
                    return false;
                }
            }
        }
        true
    }

    /// Total number of nodes contained in blocks.
    pub fn total_block_nodes(&self) -> usize {
        self.blocks.iter().map(|b| b.size()).sum()
    }

    /// A structural diff against a previous block set: `(appeared, disappeared)`
    /// regions.  Blocks are matched by their extents; a block that changed extent
    /// appears in both lists (its old extent disappeared, its new extent appeared),
    /// which is exactly the granularity at which boundary information must be deleted
    /// and re-distributed.
    pub fn diff(&self, previous: &BlockSet) -> (Vec<Region>, Vec<Region>) {
        let appeared = self
            .blocks
            .iter()
            .filter(|b| !previous.blocks.iter().any(|p| p.region == b.region))
            .map(|b| b.region)
            .collect();
        let disappeared = previous
            .blocks
            .iter()
            .filter(|p| !self.blocks.iter().any(|b| b.region == p.region))
            .map(|p| p.region)
            .collect();
        (appeared, disappeared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::coord;

    fn figure1_blocks() -> (Mesh, BlockSet) {
        let mesh = Mesh::cubic(10, 3);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[
            coord![3, 5, 4],
            coord![4, 5, 4],
            coord![5, 5, 3],
            coord![3, 6, 3],
        ]);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        (mesh, blocks)
    }

    #[test]
    fn figure1_single_rectangular_block() {
        let (_mesh, blocks) = figure1_blocks();
        assert_eq!(blocks.len(), 1);
        let b = &blocks.blocks()[0];
        assert_eq!(b.region, Region::new(vec![3, 5, 3], vec![5, 6, 4]));
        assert!(b.is_rectangular());
        assert_eq!(b.size(), 12);
        assert_eq!(b.faulty_count, 4);
        assert_eq!(b.max_edge(), 3);
        assert_eq!(blocks.e_max(), 3);
        assert!(blocks.all_disjoint());
    }

    #[test]
    fn membership_lookup() {
        let (mesh, blocks) = figure1_blocks();
        let inside = mesh.id_of(&coord![4, 5, 3]);
        let outside = mesh.id_of(&coord![0, 0, 0]);
        assert!(blocks.block_of(inside).is_some());
        assert!(blocks.block_of(outside).is_none());
        assert!(blocks.block_containing(&coord![5, 6, 4]).is_some());
        assert!(blocks.block_containing(&coord![6, 6, 4]).is_none());
    }

    #[test]
    fn two_far_apart_fault_clusters_form_two_disjoint_blocks() {
        let mesh = Mesh::cubic(16, 2);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[
            coord![2, 3],
            coord![3, 2],
            coord![12, 12],
            coord![13, 13],
            coord![12, 13],
        ]);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        assert_eq!(blocks.len(), 2);
        assert!(blocks.all_rectangular());
        assert!(blocks.all_disjoint());
        assert_eq!(blocks.total_block_nodes(), 4 + 4);
    }

    #[test]
    fn empty_mesh_has_no_blocks() {
        let mesh = Mesh::cubic(5, 3);
        let eng = LabelingEngine::new(mesh.clone());
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        assert!(blocks.is_empty());
        assert_eq!(blocks.e_max(), 0);
        assert!(blocks.all_disjoint());
        assert!(blocks.all_rectangular());
    }

    #[test]
    fn nearby_fault_clusters_merge_into_one_block() {
        // Two faults whose disabling interaction connects them must yield one block,
        // not two overlapping ones.
        let mesh = Mesh::cubic(12, 2);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[coord![5, 5], coord![6, 6], coord![5, 6], coord![7, 5]]);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        assert_eq!(blocks.len(), 1);
        assert!(blocks.all_rectangular());
    }

    #[test]
    fn diff_reports_appearing_and_disappearing_extents() {
        let mesh = Mesh::cubic(12, 2);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[coord![2, 3], coord![3, 2]]);
        let before = BlockSet::extract(&mesh, eng.statuses());
        eng.apply_faults(&[coord![8, 8], coord![9, 9], coord![8, 9]]);
        let after = BlockSet::extract(&mesh, eng.statuses());
        let (appeared, disappeared) = after.diff(&before);
        assert_eq!(appeared.len(), 1);
        assert!(disappeared.is_empty());
        assert_eq!(appeared[0], Region::new(vec![8, 8], vec![9, 9]));
        let (appeared2, disappeared2) = before.diff(&after);
        assert_eq!(appeared2.len(), 0);
        assert_eq!(disappeared2.len(), 1);
    }

    #[test]
    fn recovery_shrinks_the_block_extent() {
        let mesh = Mesh::cubic(10, 3);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[
            coord![3, 5, 4],
            coord![4, 5, 4],
            coord![5, 5, 3],
            coord![3, 6, 3],
        ]);
        let before = BlockSet::extract(&mesh, eng.statuses());
        eng.recover_coord(&coord![5, 5, 3]);
        eng.run_to_fixpoint(200).unwrap();
        let after = BlockSet::extract(&mesh, eng.statuses());
        assert_eq!(after.len(), 1);
        assert_eq!(
            after.blocks()[0].region,
            Region::new(vec![3, 5, 3], vec![4, 6, 4])
        );
        assert!(after.blocks()[0].is_rectangular());
        let (appeared, disappeared) = after.diff(&before);
        assert_eq!(appeared.len(), 1);
        assert_eq!(disappeared.len(), 1);
    }

    #[test]
    fn random_interior_faults_always_give_rectangular_disjoint_blocks() {
        use lgfi_sim::DetRng;
        let mesh = Mesh::cubic(12, 3);
        let interior: Vec<Coord> = mesh.interior_region().unwrap().iter_coords().collect();
        for seed in 0..8u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let picks = rng.sample_indices(interior.len(), 25);
            let faults: Vec<Coord> = picks.iter().map(|&i| interior[i]).collect();
            let mut eng = LabelingEngine::new(mesh.clone());
            eng.apply_faults(&faults);
            let blocks = BlockSet::extract(&mesh, eng.statuses());
            assert!(
                blocks.all_rectangular(),
                "seed {seed}: non-rectangular block"
            );
            assert!(blocks.all_disjoint(), "seed {seed}: blocks not disjoint");
        }
    }
}

//! The frame of a faulty block: adjacent nodes, edge nodes and corners.
//!
//! Definition 2 of the paper builds the structure recursively from local adjacency:
//!
//! * an **adjacent node** is an enabled node with a neighbor in the block;
//! * a **2-level corner** is an enabled node with two adjacent nodes of the same block
//!   in different dimensions;
//! * recursively, an **m-level edge node** is an `(m-1)`-level corner, and an
//!   **m-level corner** is an enabled node with `m` m-level edge neighbors of the same
//!   block.
//!
//! Geometrically (for a stabilised box-shaped block) a node is an m-level corner iff
//! exactly `m` of its coordinates lie one unit outside the block's extent and the
//! remaining coordinates lie within the extent — which is what
//! [`Region::frame_level`] computes.  [`BlockFrame`] provides both views: the
//! geometric one (used by the identification and boundary constructions and by the
//! routers) and the round-by-round *distributed role discovery* (a node can determine
//! that it is an m-level corner only after `m` rounds of neighbor exchanges), which
//! feeds the `b_i` accounting.

use std::collections::BTreeMap;

use lgfi_topology::{Coord, Direction, FrameLevel, Mesh, NodeId, Region};

use crate::block::FaultyBlock;

/// The role a node plays in the frame of one particular block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Adjacent node (Definition 2): an enabled node with a neighbor in the block.
    /// Equivalent to a 1-level corner in the geometric classification.
    Adjacent,
    /// An m-level corner with `2 <= m <= n`.  An `m`-level corner is also an
    /// `(m+1)`-level edge node; the `n`-level corners are the outermost corners of the
    /// block.
    Corner(usize),
}

impl Role {
    /// The level of the role (1 for adjacent nodes, `m` for m-level corners).
    pub fn level(self) -> usize {
        match self {
            Role::Adjacent => 1,
            Role::Corner(m) => m,
        }
    }
}

/// The complete frame of one block within a mesh.
#[derive(Debug, Clone)]
pub struct BlockFrame {
    block: Region,
    ndim: usize,
    /// role of every frame node, keyed by node id.
    roles: BTreeMap<NodeId, Role>,
}

impl BlockFrame {
    /// Builds the frame of a block's extent within a mesh.
    ///
    /// Frame nodes outside the mesh (the block touches the outermost surface) are
    /// simply absent; the paper's model avoids this case by assuming no fault on the
    /// outermost surface, but the code tolerates it.
    pub fn new(mesh: &Mesh, block: &Region) -> Self {
        let ndim = mesh.ndim();
        let mut roles = BTreeMap::new();
        for c in block.expand(1).iter_coords() {
            if !mesh.contains(&c) {
                continue;
            }
            match block.frame_level(&c) {
                FrameLevel::Frame(1) => {
                    roles.insert(mesh.id_of(&c), Role::Adjacent);
                }
                FrameLevel::Frame(m) => {
                    roles.insert(mesh.id_of(&c), Role::Corner(m));
                }
                _ => {}
            }
        }
        BlockFrame {
            block: *block,
            ndim,
            roles,
        }
    }

    /// Builds the frame of an extracted [`FaultyBlock`].
    pub fn of_block(mesh: &Mesh, block: &FaultyBlock) -> Self {
        BlockFrame::new(mesh, &block.region)
    }

    /// The block extent this frame belongs to.
    pub fn block(&self) -> &Region {
        &self.block
    }

    /// The role of a node, if it is part of the frame.
    pub fn role_of(&self, id: NodeId) -> Option<Role> {
        self.roles.get(&id).copied()
    }

    /// All `(node, role)` pairs of the frame.
    pub fn roles(&self) -> impl Iterator<Item = (NodeId, Role)> + '_ {
        self.roles.iter().map(|(&id, &r)| (id, r))
    }

    /// Node ids with exactly the given level (1 = adjacent nodes, `n` = n-level
    /// corners).
    pub fn nodes_at_level(&self, level: usize) -> Vec<NodeId> {
        self.roles
            .iter()
            .filter(|(_, r)| r.level() == level)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The n-level corners present in the mesh.
    pub fn top_corners(&self) -> Vec<NodeId> {
        self.nodes_at_level(self.ndim)
    }

    /// Total number of frame nodes (this is the number of nodes that will eventually
    /// store the block information itself, before boundary propagation).
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True if the frame is empty (block covers the whole mesh — degenerate).
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// The adjacent surface of the block in direction `dir` (Definition 3), clipped to
    /// the mesh.  Returns `None` if it falls entirely outside the mesh.
    pub fn adjacent_surface(&self, mesh: &Mesh, dir: Direction) -> Option<Region> {
        self.block.adjacent_surface(dir).clip(&mesh.full_region())
    }

    /// The edge nodes (in the Definition-3 sense) shared by the two adjacent surfaces
    /// `a` and `b`: frame nodes one unit outside the block in both `a.dim` and
    /// `b.dim` and within the extent elsewhere.  For a 3-D block these are the 12
    /// block edges.
    pub fn edge_between(&self, mesh: &Mesh, a: Direction, b: Direction) -> Vec<Coord> {
        assert_ne!(
            a.dim, b.dim,
            "an edge joins surfaces of different dimensions"
        );
        let mut out = Vec::new();
        for c in self.block.expand(1).iter_coords() {
            if !mesh.contains(&c) {
                continue;
            }
            if self.block.frame_level(&c) != FrameLevel::Frame(2) {
                continue;
            }
            let on_a = c[a.dim]
                == if a.positive {
                    self.block.hi()[a.dim] + 1
                } else {
                    self.block.lo()[a.dim] - 1
                };
            let on_b = c[b.dim]
                == if b.positive {
                    self.block.hi()[b.dim] + 1
                } else {
                    self.block.lo()[b.dim] - 1
                };
            if on_a && on_b {
                out.push(c);
            }
        }
        out
    }

    /// The number of rounds of neighbor exchange a node at the given level needs
    /// before it can determine its role (Algorithm 2, step 2): an adjacent node knows
    /// immediately from its neighbor's status (1 round), a 2-level corner needs its
    /// adjacent neighbors to have identified themselves first (2 rounds), and so on.
    pub fn rounds_to_identify_level(level: usize) -> u64 {
        level as u64
    }

    /// The number of rounds after the labeling stabilises until every frame node knows
    /// its role: the deepest role is the n-level corner.
    pub fn role_identification_rounds(&self) -> u64 {
        self.roles
            .values()
            .map(|r| Self::rounds_to_identify_level(r.level()))
            .max()
            .unwrap_or(0)
    }

    /// The distributed role-discovery schedule: for every frame node, the round
    /// (counted from the labeling's stabilisation) at which it knows its role.
    pub fn role_discovery_schedule(&self) -> BTreeMap<NodeId, u64> {
        self.roles
            .iter()
            .map(|(&id, &r)| (id, Self::rounds_to_identify_level(r.level())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_topology::coord;

    fn figure1_frame() -> (Mesh, BlockFrame) {
        let mesh = Mesh::cubic(10, 3);
        let block = Region::new(vec![3, 5, 3], vec![5, 6, 4]);
        let frame = BlockFrame::new(&mesh, &block);
        (mesh, frame)
    }

    #[test]
    fn figure2_corner_and_edge_neighbors() {
        let (mesh, frame) = figure1_frame();
        // (6,4,5) is a 3-level corner of the block [3:5, 5:6, 3:4].
        assert_eq!(
            frame.role_of(mesh.id_of(&coord![6, 4, 5])),
            Some(Role::Corner(3))
        );
        // Its three 3-level edge neighbors are 2-level corners.
        for c in [coord![5, 4, 5], coord![6, 5, 5], coord![6, 4, 4]] {
            assert_eq!(
                frame.role_of(mesh.id_of(&c)),
                Some(Role::Corner(2)),
                "{c:?}"
            );
        }
        // Each of them has two neighbors adjacent to the block, e.g. (5,4,5) has
        // (5,5,5) and (5,4,4).
        for c in [coord![5, 5, 5], coord![5, 4, 4]] {
            assert_eq!(frame.role_of(mesh.id_of(&c)), Some(Role::Adjacent), "{c:?}");
        }
        // Nodes inside the block or far away have no role.
        assert_eq!(frame.role_of(mesh.id_of(&coord![4, 5, 3])), None);
        assert_eq!(frame.role_of(mesh.id_of(&coord![0, 0, 0])), None);
    }

    #[test]
    fn level_population_counts() {
        let (_, frame) = figure1_frame();
        // 3x2x2 block: faces 2*(6+6+4) = 32 adjacent nodes, 12 edges of total length
        // 4*(3+2+2) = 28, and 8 corners.
        assert_eq!(frame.nodes_at_level(1).len(), 32);
        assert_eq!(frame.nodes_at_level(2).len(), 28);
        assert_eq!(frame.nodes_at_level(3).len(), 8);
        assert_eq!(frame.top_corners().len(), 8);
        assert_eq!(frame.len(), 32 + 28 + 8);
        assert!(!frame.is_empty());
    }

    #[test]
    fn recursive_definition_agrees_with_geometry() {
        // Check Definition 2 recursively: an m-level corner must have exactly m
        // m-level edge neighbors (i.e. (m-1)-level corners) of the same block in
        // different dimensions.
        let (mesh, frame) = figure1_frame();
        for (id, role) in frame.roles() {
            let level = role.level();
            if level < 2 {
                continue;
            }
            let c = mesh.coord_of(id);
            let lower_neighbors: Vec<usize> = mesh
                .neighbors(&c)
                .into_iter()
                .filter(|(_, nc)| {
                    frame
                        .role_of(mesh.id_of(nc))
                        .map(|r| r.level() == level - 1)
                        .unwrap_or(false)
                })
                .map(|(dir, _)| dir.dim)
                .collect();
            let mut dims = lower_neighbors.clone();
            dims.sort_unstable();
            dims.dedup();
            assert_eq!(
                dims.len(),
                level,
                "{c:?} at level {level} must touch {level} lower-level nodes in distinct dimensions"
            );
        }
    }

    #[test]
    fn adjacent_nodes_have_a_neighbor_in_the_block() {
        let (mesh, frame) = figure1_frame();
        let block = *frame.block();
        for id in frame.nodes_at_level(1) {
            let c = mesh.coord_of(id);
            assert!(
                mesh.neighbors(&c).iter().any(|(_, nc)| block.contains(nc)),
                "{c:?} is marked adjacent but has no neighbor in the block"
            );
        }
    }

    #[test]
    fn frame_clipped_at_mesh_boundary() {
        // A block touching the mesh's outer layer loses the frame nodes that would
        // fall outside.
        let mesh = Mesh::cubic(6, 2);
        let block = Region::new(vec![0, 2], vec![1, 3]);
        let frame = BlockFrame::new(&mesh, &block);
        // No frame node at x = -1.
        assert!(frame
            .roles()
            .all(|(id, _)| mesh.coord_of(id).as_slice()[0] >= 0));
        // Corners on the clipped side are missing: only the x = 2 corners remain.
        assert_eq!(frame.top_corners().len(), 2);
    }

    #[test]
    fn edges_between_adjacent_surfaces() {
        let (mesh, frame) = figure1_frame();
        // Edge between S1 (negative Y) and S5 (positive Z): y = 4, z = 5, x in [3,5].
        let edge = frame.edge_between(&mesh, Direction::neg(1), Direction::pos(2));
        assert_eq!(edge.len(), 3);
        for c in &edge {
            assert_eq!(c[1], 4);
            assert_eq!(c[2], 5);
        }
        // In 3-D there are 12 edges in total; spot-check the count via all surface
        // pairs of distinct dimensions.
        let mut total = 0;
        for a in Direction::all(3) {
            for b in Direction::all(3) {
                if a.dim < b.dim {
                    total += frame.edge_between(&mesh, a, b).len();
                }
            }
        }
        assert_eq!(total, 28, "sum of all 12 edge lengths");
    }

    #[test]
    fn adjacent_surfaces_of_figure_1b() {
        let (mesh, frame) = figure1_frame();
        let s0 = frame.adjacent_surface(&mesh, Direction::neg(0)).unwrap();
        assert_eq!(s0, Region::new(vec![2, 5, 3], vec![2, 6, 4]));
        let s5 = frame.adjacent_surface(&mesh, Direction::pos(2)).unwrap();
        assert_eq!(s5, Region::new(vec![3, 5, 5], vec![5, 6, 5]));
        // All six exist for an interior block.
        for dir in Direction::all(3) {
            assert!(frame.adjacent_surface(&mesh, dir).is_some());
        }
    }

    #[test]
    fn role_discovery_takes_level_rounds() {
        let (_, frame) = figure1_frame();
        assert_eq!(frame.role_identification_rounds(), 3);
        let schedule = frame.role_discovery_schedule();
        for (id, round) in schedule {
            assert_eq!(frame.role_of(id).unwrap().level() as u64, round);
        }
        assert_eq!(BlockFrame::rounds_to_identify_level(1), 1);
        assert_eq!(BlockFrame::rounds_to_identify_level(4), 4);
    }

    #[test]
    fn two_d_frame_has_no_level_higher_than_two() {
        let mesh = Mesh::cubic(10, 2);
        let block = Region::new(vec![4, 4], vec![6, 5]);
        let frame = BlockFrame::new(&mesh, &block);
        assert!(frame.roles().all(|(_, r)| r.level() <= 2));
        assert_eq!(frame.top_corners().len(), 4);
        assert_eq!(frame.nodes_at_level(1).len(), 2 * (3 + 2));
    }
}

//! The k-ary n-dimensional mesh shape.
//!
//! A [`Mesh`] stores only the per-dimension radices; it converts between dense node
//! ids and coordinates, enumerates neighbors, and answers the structural questions the
//! protocols need (is a node on the outermost surface of the mesh? what is the network
//! diameter? ...).  Section 2.1 of the paper defines the topology; the dynamic-fault
//! model of Section 5 additionally assumes that *no fault occurs on the outermost
//! surface of the mesh*, which is why [`Mesh::on_outermost_surface`] exists.

use crate::coord::{Coord, MAX_DIMS};
use crate::direction::Direction;
use crate::region::Region;

/// Dense node identifier: the row-major linearisation of the node's coordinate.
pub type NodeId = usize;

/// The shape of a k-ary n-dimensional mesh (radix may differ per dimension).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Mesh {
    dims: Vec<i32>,
    /// Row-major strides; `strides[i]` is the id increment of `+1` in dimension `i`.
    strides: Vec<usize>,
    node_count: usize,
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mesh{:?}", self.dims)
    }
}

impl Mesh {
    /// Creates a mesh with the given per-dimension radices.
    ///
    /// # Panics
    /// Panics if `dims` is empty, has more than [`MAX_DIMS`] entries, or any radix
    /// is < 1.
    pub fn new(dims: &[i32]) -> Self {
        assert!(!dims.is_empty(), "a mesh needs at least one dimension");
        assert!(
            dims.len() <= MAX_DIMS,
            "{} dimensions exceed the {MAX_DIMS}-dimension limit",
            dims.len()
        );
        assert!(
            dims.iter().all(|&k| k >= 1),
            "every dimension must have radix >= 1"
        );
        let n = dims.len();
        let mut strides = vec![0usize; n];
        let mut acc = 1usize;
        // Last dimension varies fastest (row-major).
        for d in (0..n).rev() {
            strides[d] = acc;
            acc = acc
                .checked_mul(dims[d] as usize)
                // audit:allow(panic): construction-time overflow is a caller error
                .expect("mesh too large for usize");
        }
        Mesh {
            dims: dims.to_vec(),
            strides,
            node_count: acc,
        }
    }

    /// Creates a k-ary n-D mesh (`k` nodes along each of the `n` dimensions).
    pub fn cubic(k: i32, n: usize) -> Self {
        Mesh::new(&vec![k; n])
    }

    /// Number of dimensions `n`.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension radices.
    pub fn dims(&self) -> &[i32] {
        &self.dims
    }

    /// Radix of dimension `d`.
    pub fn radix(&self, d: usize) -> i32 {
        self.dims[d]
    }

    /// The row-major stride of dimension `d`: the node-id increment of one hop in
    /// the positive direction of `d`.  A walker that carries its coordinate moves
    /// by `±stride(d)` instead of re-deriving the coordinate from the id.
    #[inline]
    pub fn stride(&self, d: usize) -> usize {
        self.strides[d]
    }

    /// Total number of nodes `N = k_1 * ... * k_n`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The network diameter `(k_1 - 1) + ... + (k_n - 1)` (the paper's `(k-1)n` for the
    /// cubic case).
    pub fn diameter(&self) -> u32 {
        self.dims.iter().map(|&k| (k - 1) as u32).sum()
    }

    /// True if `c` lies inside the mesh.
    pub fn contains(&self, c: &Coord) -> bool {
        c.ndim() == self.ndim()
            && c.as_slice()
                .iter()
                .zip(self.dims.iter())
                .all(|(&x, &k)| x >= 0 && x < k)
    }

    /// The whole mesh as a [`Region`].
    pub fn full_region(&self) -> Region {
        Region::new(
            vec![0; self.ndim()],
            self.dims.iter().map(|&k| k - 1).collect(),
        )
    }

    /// Converts a coordinate to its dense node id.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the mesh.
    pub fn id_of(&self, c: &Coord) -> NodeId {
        assert!(self.contains(c), "coordinate {c:?} outside mesh {self:?}");
        c.as_slice()
            .iter()
            .zip(self.strides.iter())
            .map(|(&x, &s)| x as usize * s)
            .sum()
    }

    /// Converts a dense node id back to its coordinate (plain data, no allocation).
    ///
    /// # Panics
    /// Panics if `id >= node_count()`.
    #[inline]
    pub fn coord_of(&self, id: NodeId) -> Coord {
        assert!(id < self.node_count, "node id {id} out of range");
        let mut rest = id;
        let mut c = Coord::origin(self.ndim());
        for (d, &stride) in self.strides.iter().enumerate() {
            c[d] = (rest / stride) as i32;
            rest %= stride;
        }
        c
    }

    /// The position of node `id` along dimension `d`, computed arithmetically
    /// without materialising the full coordinate.
    #[inline]
    pub fn position(&self, id: NodeId, d: usize) -> i32 {
        ((id / self.strides[d]) % self.dims[d] as usize) as i32
    }

    /// The neighbor of `c` in direction `dir`, if it exists in the mesh.
    pub fn neighbor(&self, c: &Coord, dir: Direction) -> Option<Coord> {
        let next = c.step(dir);
        if self.contains(&next) {
            Some(next)
        } else {
            None
        }
    }

    /// The neighbor of node `id` in direction `dir`, if it exists.
    ///
    /// Pure stride arithmetic — no coordinate is materialised and nothing is
    /// allocated; this is the neighbor lookup of the routing hot path.
    #[inline]
    pub fn neighbor_id(&self, id: NodeId, dir: Direction) -> Option<NodeId> {
        let stride = self.strides[dir.dim];
        let x = self.position(id, dir.dim);
        if dir.positive {
            if x + 1 < self.dims[dir.dim] {
                Some(id + stride)
            } else {
                None
            }
        } else if x > 0 {
            Some(id - stride)
        } else {
            None
        }
    }

    /// All (direction, neighbor) pairs of a coordinate.
    pub fn neighbors(&self, c: &Coord) -> Vec<(Direction, Coord)> {
        let mut out = Vec::with_capacity(2 * self.ndim());
        for dir in Direction::all(self.ndim()) {
            if let Some(nc) = self.neighbor(c, dir) {
                out.push((dir, nc));
            }
        }
        out
    }

    /// All (direction, neighbor id) pairs of a node id.
    ///
    /// Allocates the result vector; hot paths should iterate
    /// [`Direction::iter_all`] and call [`Mesh::neighbor_id`] per direction instead.
    pub fn neighbor_ids(&self, id: NodeId) -> Vec<(Direction, NodeId)> {
        Direction::iter_all(self.ndim())
            .filter_map(|dir| self.neighbor_id(id, dir).map(|nid| (dir, nid)))
            .collect()
    }

    /// Node degree (number of in-mesh neighbors) of a coordinate.
    pub fn degree(&self, c: &Coord) -> usize {
        Direction::all(self.ndim())
            .into_iter()
            .filter(|&d| self.neighbor(c, d).is_some())
            .count()
    }

    /// True if `c` lies on the outermost surface of the mesh (some coordinate is `0`
    /// or `k_i - 1`).
    ///
    /// The dynamic fault model (Section 5) assumes no fault occurs on the outermost
    /// surface, which together with the properties of \[14\] guarantees the mesh never
    /// disconnects.
    pub fn on_outermost_surface(&self, c: &Coord) -> bool {
        c.as_slice()
            .iter()
            .zip(self.dims.iter())
            .any(|(&x, &k)| x == 0 || x == k - 1)
    }

    /// The interior of the mesh (all nodes not on the outermost surface), as a region.
    /// Returns `None` if the mesh has no interior (some radix <= 2).
    pub fn interior_region(&self) -> Option<Region> {
        if self.dims.iter().any(|&k| k <= 2) {
            return None;
        }
        Some(Region::new(
            vec![1; self.ndim()],
            self.dims.iter().map(|&k| k - 2).collect(),
        ))
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count
    }

    /// Iterates over all coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.node_count).map(|id| self.coord_of(id))
    }

    /// Manhattan distance between two node ids, computed arithmetically without
    /// materialising coordinates.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (0..self.ndim())
            .map(|d| self.position(a, d).abs_diff(self.position(b, d)))
            .sum()
    }

    /// True if the ids are mesh neighbors (their Manhattan distance is exactly 1).
    #[inline]
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.distance(a, b) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord;

    #[test]
    fn node_count_and_diameter_match_section_2_1() {
        // A k-ary n-D mesh has N = k^n nodes and diameter (k-1)n.
        let mesh = Mesh::cubic(5, 3);
        assert_eq!(mesh.node_count(), 125);
        assert_eq!(mesh.diameter(), 12);
        let mesh = Mesh::new(&[4, 6, 3, 2]);
        assert_eq!(mesh.node_count(), 4 * 6 * 3 * 2);
        assert_eq!(mesh.diameter(), 3 + 5 + 2 + 1);
    }

    #[test]
    fn id_coord_round_trip() {
        let mesh = Mesh::new(&[3, 4, 5]);
        for id in mesh.node_ids() {
            let c = mesh.coord_of(id);
            assert!(mesh.contains(&c));
            assert_eq!(mesh.id_of(&c), id);
        }
    }

    #[test]
    fn interior_degree_is_2n() {
        let mesh = Mesh::cubic(5, 3);
        assert_eq!(mesh.degree(&coord![2, 2, 2]), 6);
        assert_eq!(mesh.degree(&coord![0, 2, 2]), 5);
        assert_eq!(mesh.degree(&coord![0, 0, 0]), 3);
    }

    #[test]
    fn neighbors_are_symmetric_and_unit_distance() {
        let mesh = Mesh::new(&[4, 3, 4]);
        for c in mesh.coords() {
            for (dir, nc) in mesh.neighbors(&c) {
                assert_eq!(c.manhattan(&nc), 1);
                assert_eq!(c.step(dir), nc);
                // symmetric
                assert!(mesh
                    .neighbors(&nc)
                    .into_iter()
                    .any(|(d2, back)| back == c && d2 == dir.opposite()));
            }
        }
    }

    #[test]
    fn neighbor_respects_mesh_boundary() {
        let mesh = Mesh::cubic(4, 2);
        assert_eq!(mesh.neighbor(&coord![0, 0], Direction::neg(0)), None);
        assert_eq!(mesh.neighbor(&coord![3, 3], Direction::pos(1)), None);
        assert_eq!(
            mesh.neighbor(&coord![3, 2], Direction::pos(1)),
            Some(coord![3, 3])
        );
    }

    #[test]
    fn outermost_surface_detection() {
        let mesh = Mesh::cubic(6, 3);
        assert!(mesh.on_outermost_surface(&coord![0, 3, 3]));
        assert!(mesh.on_outermost_surface(&coord![5, 3, 3]));
        assert!(mesh.on_outermost_surface(&coord![3, 3, 5]));
        assert!(!mesh.on_outermost_surface(&coord![3, 3, 3]));
        assert!(!mesh.on_outermost_surface(&coord![1, 4, 4]));
    }

    #[test]
    fn interior_region_excludes_outermost_surface() {
        let mesh = Mesh::cubic(6, 3);
        let interior = mesh.interior_region().unwrap();
        for c in mesh.coords() {
            assert_eq!(interior.contains(&c), !mesh.on_outermost_surface(&c));
        }
        assert!(Mesh::cubic(2, 2).interior_region().is_none());
    }

    #[test]
    fn distance_via_ids() {
        let mesh = Mesh::cubic(8, 2);
        let a = mesh.id_of(&coord![1, 1]);
        let b = mesh.id_of(&coord![6, 3]);
        assert_eq!(mesh.distance(a, b), 7);
        assert!(!mesh.are_neighbors(a, b));
        let c = mesh.id_of(&coord![1, 2]);
        assert!(mesh.are_neighbors(a, c));
    }

    #[test]
    fn neighbor_id_matches_coordinate_neighbor() {
        let mesh = Mesh::new(&[3, 5, 4]);
        for id in mesh.node_ids() {
            for (dir, nid) in mesh.neighbor_ids(id) {
                assert_eq!(mesh.neighbor_id(id, dir), Some(nid));
                assert_eq!(mesh.coord_of(id).step(dir), mesh.coord_of(nid));
            }
        }
    }

    #[test]
    fn stride_steps_match_coordinate_steps() {
        let mesh = Mesh::new(&[3, 5, 4]);
        for id in mesh.node_ids() {
            for dir in Direction::iter_all(mesh.ndim()) {
                let Some(nid) = mesh.neighbor_id(id, dir) else {
                    continue;
                };
                let stride = mesh.stride(dir.dim);
                let stepped = if dir.positive {
                    id + stride
                } else {
                    id - stride
                };
                assert_eq!(stepped, nid);
            }
        }
        assert_eq!(mesh.stride(2), 1);
        assert_eq!(mesh.stride(0), 20);
    }

    #[test]
    fn eight_dimensional_meshes_round_trip_ids() {
        let mesh = Mesh::cubic(2, MAX_DIMS);
        for id in mesh.node_ids() {
            assert_eq!(mesh.id_of(&mesh.coord_of(id)), id);
        }
    }

    #[test]
    #[should_panic(expected = "8-dimension limit")]
    fn meshes_above_eight_dimensions_are_rejected() {
        let _ = Mesh::new(&[3; 9]);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn id_of_out_of_range_panics() {
        Mesh::cubic(3, 2).id_of(&coord![3, 0]);
    }

    #[test]
    fn full_region_covers_all_nodes() {
        let mesh = Mesh::new(&[3, 4]);
        let r = mesh.full_region();
        assert_eq!(r.volume(), mesh.node_count() as u64);
    }
}

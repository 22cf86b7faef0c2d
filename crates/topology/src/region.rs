//! Inclusive n-dimensional boxes and the "frame" geometry of faulty blocks.
//!
//! A faulty block in the paper is a box-shaped set of faulty/disabled nodes; its
//! *adjacent surfaces*, *edges* and *corners* (Definitions 2 and 3) live one unit
//! outside that box.  [`Region`] represents the box itself (inclusive bounds), and
//! [`Region::frame_level`] classifies any coordinate with respect to the expanded
//! frame:
//!
//! * `Inside` — within the box,
//! * `Frame(m)` — exactly `m` coordinates sit one unit outside the box and all the
//!   others are within the box's extent.  `Frame(1)` nodes are the *adjacent nodes*
//!   (they have a neighbor in the block), `Frame(m)` nodes are the paper's `m`-level
//!   corners (equivalently `(m+1)`-level edge nodes), and `Frame(n)` nodes in an n-D
//!   mesh are the `n`-level corners,
//! * `Outside` — anything else.

use crate::coord::Coord;
use crate::direction::Direction;
use crate::mesh::Mesh;

/// Classification of a coordinate with respect to a region's expanded frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FrameLevel {
    /// The coordinate lies inside the region.
    Inside,
    /// Exactly `m` coordinates are one unit outside the region (at `lo-1` or `hi+1`)
    /// and every other coordinate is within the region's extent.  `Frame(1)` =
    /// adjacent node, `Frame(m)` = m-level corner of the block.
    Frame(usize),
    /// Neither inside nor on the expanded frame.
    Outside,
}

/// An inclusive n-dimensional box `[lo_1:hi_1, ..., lo_n:hi_n]`.
///
/// The bounds are stored as [`Coord`]s, so a region is plain data: copying,
/// expanding and clipping one never touches the heap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    lo: Coord,
    hi: Coord,
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for d in 0..self.ndim() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", self.lo[d], self.hi[d])?;
        }
        write!(f, "]")
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

impl Region {
    /// Creates a region from inclusive per-dimension bounds.
    ///
    /// # Panics
    /// Panics if the bounds have different lengths, are empty, or `lo > hi` anywhere.
    pub fn new(lo: Vec<i32>, hi: Vec<i32>) -> Self {
        Region::from_bounds(Coord::new(lo), Coord::new(hi))
    }

    /// Creates a region from inclusive per-dimension bounds given as coordinates —
    /// the allocation-free constructor the routing hot path uses.
    ///
    /// # Panics
    /// Panics if the bounds have different dimensionality, are empty, or `lo > hi`
    /// anywhere.
    #[inline]
    pub fn from_bounds(lo: Coord, hi: Coord) -> Self {
        assert_eq!(lo.ndim(), hi.ndim(), "bound dimensionality mismatch");
        assert!(lo.ndim() > 0, "a region needs at least one dimension");
        assert!(
            lo.as_slice().iter().zip(hi.as_slice()).all(|(a, b)| a <= b),
            "lo must be <= hi in every dimension: {lo:?} vs {hi:?}"
        );
        Region { lo, hi }
    }

    /// The degenerate region containing a single coordinate.
    pub fn point(c: &Coord) -> Self {
        Region::from_bounds(*c, *c)
    }

    /// The smallest region containing both coordinates (the minimal-path bounding box
    /// between a source and a destination).
    pub fn bounding(a: &Coord, b: &Coord) -> Self {
        assert_eq!(a.ndim(), b.ndim(), "dimension mismatch");
        let mut lo = *a;
        let mut hi = *a;
        for d in 0..a.ndim() {
            lo[d] = a[d].min(b[d]);
            hi[d] = a[d].max(b[d]);
        }
        Region::from_bounds(lo, hi)
    }

    /// The smallest region containing all the given coordinates.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding_all<'a, I: IntoIterator<Item = &'a Coord>>(coords: I) -> Option<Self> {
        let mut it = coords.into_iter();
        let first = it.next()?;
        let mut r = Region::point(first);
        for c in it {
            r = r.union_point(c);
        }
        Some(r)
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.lo.ndim()
    }

    /// Inclusive lower bounds.
    #[inline]
    pub fn lo(&self) -> &[i32] {
        self.lo.as_slice()
    }

    /// Inclusive upper bounds.
    #[inline]
    pub fn hi(&self) -> &[i32] {
        self.hi.as_slice()
    }

    /// Extent (`hi - lo + 1`) along dimension `d`.
    pub fn len(&self, d: usize) -> i32 {
        self.hi[d] - self.lo[d] + 1
    }

    /// The longest edge length of the region, the paper's `e_max` contribution of a
    /// single block.
    pub fn max_edge(&self) -> i32 {
        (0..self.ndim()).map(|d| self.len(d)).max().unwrap_or(0)
    }

    /// Number of coordinates contained in the region.
    pub fn volume(&self) -> u64 {
        (0..self.ndim()).map(|d| self.len(d) as u64).product()
    }

    /// True if the coordinate lies inside the region.
    #[inline]
    pub fn contains(&self, c: &Coord) -> bool {
        c.ndim() == self.ndim()
            && c.as_slice()
                .iter()
                .enumerate()
                .all(|(d, &x)| x >= self.lo[d] && x <= self.hi[d])
    }

    /// True if the regions share at least one coordinate.
    pub fn intersects(&self, other: &Region) -> bool {
        assert_eq!(self.ndim(), other.ndim(), "dimension mismatch");
        (0..self.ndim()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// The intersection of the two regions, if non-empty.
    pub fn intersection(&self, other: &Region) -> Option<Region> {
        if !self.intersects(other) {
            return None;
        }
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..self.ndim() {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
        }
        Some(Region::from_bounds(lo, hi))
    }

    /// The smallest region containing both regions.
    pub fn union(&self, other: &Region) -> Region {
        assert_eq!(self.ndim(), other.ndim(), "dimension mismatch");
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..self.ndim() {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        Region::from_bounds(lo, hi)
    }

    /// The smallest region containing this region and the coordinate.
    pub fn union_point(&self, c: &Coord) -> Region {
        assert_eq!(self.ndim(), c.ndim(), "dimension mismatch");
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..self.ndim() {
            lo[d] = self.lo[d].min(c[d]);
            hi[d] = self.hi[d].max(c[d]);
        }
        Region::from_bounds(lo, hi)
    }

    /// The region grown by `by` units in every direction (a copy of plain data;
    /// never allocates).
    pub fn expand(&self, by: i32) -> Region {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..self.ndim() {
            lo[d] -= by;
            hi[d] += by;
        }
        Region::from_bounds(lo, hi)
    }

    /// The region clipped to another region (typically the mesh), if the clip is
    /// non-empty.
    pub fn clip(&self, to: &Region) -> Option<Region> {
        self.intersection(to)
    }

    /// True if the other region is entirely contained in this one.
    pub fn contains_region(&self, other: &Region) -> bool {
        (0..self.ndim()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// True if two regions touch or overlap (their Chebyshev distance is <= 1), which
    /// is the condition under which two faulty blocks would *not* be disjoint in the
    /// sense used by the paper (a node adjacent to both belongs to a merged block
    /// after labeling).
    pub fn adjacent_or_overlapping(&self, other: &Region) -> bool {
        (0..self.ndim()).all(|d| self.lo[d] - 1 <= other.hi[d] && other.lo[d] - 1 <= self.hi[d])
    }

    /// Classifies a coordinate with respect to the expanded frame of this region; see
    /// the module documentation.
    pub fn frame_level(&self, c: &Coord) -> FrameLevel {
        if c.ndim() != self.ndim() {
            return FrameLevel::Outside;
        }
        let mut outside_by_one = 0usize;
        for d in 0..self.ndim() {
            let x = c[d];
            if x >= self.lo[d] && x <= self.hi[d] {
                continue;
            } else if x == self.lo[d] - 1 || x == self.hi[d] + 1 {
                outside_by_one += 1;
            } else {
                return FrameLevel::Outside;
            }
        }
        if outside_by_one == 0 {
            FrameLevel::Inside
        } else {
            FrameLevel::Frame(outside_by_one)
        }
    }

    /// The adjacent surface of the region in direction `dir` (Definition 3): the slab
    /// of coordinates one unit outside the region on that side, spanning the region's
    /// extent in every other dimension.
    pub fn adjacent_surface(&self, dir: Direction) -> Region {
        let mut lo = self.lo;
        let mut hi = self.hi;
        if dir.positive {
            lo[dir.dim] = self.hi[dir.dim] + 1;
            hi[dir.dim] = self.hi[dir.dim] + 1;
        } else {
            lo[dir.dim] = self.lo[dir.dim] - 1;
            hi[dir.dim] = self.lo[dir.dim] - 1;
        }
        Region::from_bounds(lo, hi)
    }

    /// The `2^n` corner coordinates of the expanded frame (the paper's n-level
    /// corners), i.e. every coordinate one unit outside the region in *every*
    /// dimension.
    pub fn frame_corners(&self) -> Vec<Coord> {
        let n = self.ndim();
        let mut out = Vec::with_capacity(1 << n);
        for mask in 0u32..(1u32 << n) {
            let mut c = Coord::origin(n);
            for d in 0..n {
                c[d] = if mask & (1 << d) != 0 {
                    self.hi[d] + 1
                } else {
                    self.lo[d] - 1
                };
            }
            out.push(c);
        }
        out
    }

    /// The coordinates of the expanded frame at exactly `level` (all `m`-level corners
    /// for `m = level`), restricted to `mesh`.
    ///
    /// `frame_nodes(mesh, 1)` are the adjacent nodes, `frame_nodes(mesh, n)` the
    /// n-level corners.
    pub fn frame_nodes(&self, mesh: &Mesh, level: usize) -> Vec<Coord> {
        assert!(level >= 1 && level <= self.ndim());
        let mut out = Vec::new();
        for c in self.expand(1).iter_coords() {
            if mesh.contains(&c) && self.frame_level(&c) == FrameLevel::Frame(level) {
                out.push(c);
            }
        }
        out
    }

    /// The semi-infinite *shadow prism* of the region behind its surface in direction
    /// `away` (clipped to `mesh`): the set of nodes whose coordinates lie within the
    /// region's extent in every dimension except `away.dim`, and beyond the region in
    /// the `away` direction.
    ///
    /// This is the paper's *dangerous area*: a message inside the shadow prism on the
    /// `-a` side whose destination lies in the shadow prism on the `+a` side has no
    /// minimal path (Section 2.2).  Returns `None` if the prism is empty (the region
    /// touches the mesh boundary on that side).
    pub fn shadow_prism(&self, mesh: &Mesh, away: Direction) -> Option<Region> {
        let full = mesh.full_region();
        let mut lo = self.lo;
        let mut hi = self.hi;
        if away.positive {
            lo[away.dim] = self.hi[away.dim] + 1;
            hi[away.dim] = full.hi[away.dim];
        } else {
            lo[away.dim] = full.lo[away.dim];
            hi[away.dim] = self.lo[away.dim] - 1;
        }
        if lo[away.dim] > hi[away.dim] {
            return None;
        }
        Region::from_bounds(lo, hi).clip(&full)
    }

    /// Iterates over every coordinate in the region in row-major order.
    pub fn iter_coords(&self) -> RegionIter {
        RegionIter {
            next: Some(self.lo),
            region: *self,
        }
    }
}

/// Iterator over the coordinates of a [`Region`] in row-major order.
pub struct RegionIter {
    region: Region,
    next: Option<Coord>,
}

impl Iterator for RegionIter {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let current = self.next.take()?;
        // Advance like an odometer with the last dimension varying fastest.
        let mut succ = current;
        let n = self.region.ndim();
        let mut d = n;
        loop {
            if d == 0 {
                // Wrapped past the first dimension: iteration is finished.
                self.next = None;
                break;
            }
            d -= 1;
            if succ[d] < self.region.hi[d] {
                succ[d] += 1;
                for reset in d + 1..n {
                    succ[reset] = self.region.lo[reset];
                }
                self.next = Some(succ);
                break;
            }
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord;

    /// The block of Figure 1: faults (3,5,4), (4,5,4), (5,5,3), (3,6,3) produce the
    /// block [3:5, 5:6, 3:4].
    fn figure1_block() -> Region {
        Region::new(vec![3, 5, 3], vec![5, 6, 4])
    }

    #[test]
    fn volume_and_lengths() {
        let r = figure1_block();
        assert_eq!(r.len(0), 3);
        assert_eq!(r.len(1), 2);
        assert_eq!(r.len(2), 2);
        assert_eq!(r.volume(), 12);
        assert_eq!(r.max_edge(), 3);
    }

    #[test]
    fn bounding_box_of_fault_set_matches_figure_1() {
        let faults = [
            coord![3, 5, 4],
            coord![4, 5, 4],
            coord![5, 5, 3],
            coord![3, 6, 3],
        ];
        let bb = Region::bounding_all(faults.iter()).unwrap();
        assert_eq!(bb, figure1_block());
    }

    #[test]
    fn contains_and_intersection() {
        let r = figure1_block();
        assert!(r.contains(&coord![4, 5, 3]));
        assert!(!r.contains(&coord![2, 5, 3]));
        let other = Region::new(vec![5, 6, 4], vec![8, 8, 8]);
        assert!(r.intersects(&other));
        assert_eq!(
            r.intersection(&other).unwrap(),
            Region::new(vec![5, 6, 4], vec![5, 6, 4])
        );
        let disjoint = Region::new(vec![7, 0, 0], vec![8, 1, 1]);
        assert!(!r.intersects(&disjoint));
        assert!(r.intersection(&disjoint).is_none());
    }

    #[test]
    fn union_and_union_point() {
        let r = Region::new(vec![1, 1], vec![2, 2]);
        let s = Region::new(vec![4, 0], vec![5, 1]);
        assert_eq!(r.union(&s), Region::new(vec![1, 0], vec![5, 2]));
        assert_eq!(
            r.union_point(&coord![0, 7]),
            Region::new(vec![0, 1], vec![2, 7])
        );
    }

    #[test]
    fn expand_and_clip() {
        let mesh = Mesh::cubic(8, 3);
        let r = figure1_block();
        let e = r.expand(1);
        assert_eq!(e, Region::new(vec![2, 4, 2], vec![6, 7, 5]));
        let clipped = e.clip(&mesh.full_region()).unwrap();
        assert_eq!(clipped, e);
        let near_edge = Region::new(vec![0, 0, 0], vec![1, 1, 1]).expand(1);
        assert_eq!(
            near_edge.clip(&mesh.full_region()).unwrap(),
            Region::new(vec![0, 0, 0], vec![2, 2, 2])
        );
    }

    #[test]
    fn frame_level_classifies_paper_figure_2() {
        // Block [3:5, 5:6, 3:4]; the paper's corner representation uses
        // xmin=2, xmax=6, ymin=4, ymax=7, zmin=2, zmax=5 (one unit outside).
        let r = figure1_block();
        // (6,4,5) is a 3-level corner.
        assert_eq!(r.frame_level(&coord![6, 4, 5]), FrameLevel::Frame(3));
        // Its three 3-level edge neighbors (= 2-level corners).
        assert_eq!(r.frame_level(&coord![5, 4, 5]), FrameLevel::Frame(2));
        assert_eq!(r.frame_level(&coord![6, 5, 5]), FrameLevel::Frame(2));
        assert_eq!(r.frame_level(&coord![6, 4, 4]), FrameLevel::Frame(2));
        // (5,4,5) has neighbors (5,5,5) and (5,4,4) adjacent to the block.
        assert_eq!(r.frame_level(&coord![5, 5, 5]), FrameLevel::Frame(1));
        assert_eq!(r.frame_level(&coord![5, 4, 4]), FrameLevel::Frame(1));
        // Inside and outside.
        assert_eq!(r.frame_level(&coord![4, 5, 3]), FrameLevel::Inside);
        assert_eq!(r.frame_level(&coord![7, 4, 5]), FrameLevel::Outside);
        assert_eq!(r.frame_level(&coord![0, 0, 0]), FrameLevel::Outside);
    }

    #[test]
    fn frame_corners_are_the_eight_paper_corners() {
        let r = figure1_block();
        let corners = r.frame_corners();
        assert_eq!(corners.len(), 8);
        for expected in [
            coord![2, 4, 2],
            coord![6, 4, 2],
            coord![6, 7, 2],
            coord![2, 7, 2],
            coord![2, 4, 5],
            coord![6, 4, 5],
            coord![6, 7, 5],
            coord![2, 7, 5],
        ] {
            assert!(corners.contains(&expected), "missing corner {expected:?}");
        }
    }

    #[test]
    fn frame_node_counts_in_3d() {
        let mesh = Mesh::cubic(10, 3);
        let r = figure1_block();
        // Adjacent nodes: the 6 faces of a 3x2x2 block.
        let adj = r.frame_nodes(&mesh, 1);
        assert_eq!(adj.len() as u64, 2 * (2 * 2 + 3 * 2 + 3 * 2));
        // Edge nodes (2-level corners): 12 edges of lengths 3,3,3,3,2,2,2,2,2,2,2,2.
        let edges = r.frame_nodes(&mesh, 2);
        assert_eq!(edges.len() as i32, 4 * (3 + 2 + 2));
        // 3-level corners.
        let corners = r.frame_nodes(&mesh, 3);
        assert_eq!(corners.len(), 8);
    }

    #[test]
    fn adjacent_surface_matches_definition_3() {
        let r = figure1_block();
        let n = 3;
        // S1 is the adjacent surface on the south (negative Y) side.
        let s1 = r.adjacent_surface(Direction::from_surface_index(1, n));
        assert_eq!(s1, Region::new(vec![3, 4, 3], vec![5, 4, 4]));
        // S4 is its opposite on the north side.
        let s4 = r.adjacent_surface(Direction::from_surface_index(4, n));
        assert_eq!(s4, Region::new(vec![3, 7, 3], vec![5, 7, 4]));
        // Surfaces are one unit away from the block and do not intersect it.
        for dir in Direction::all(n) {
            assert!(!r.intersects(&r.adjacent_surface(dir)));
        }
    }

    #[test]
    fn shadow_prism_is_the_dangerous_area() {
        let mesh = Mesh::cubic(10, 3);
        let r = figure1_block();
        // Shadow on the -Y side (below S1): y in [0, 4], x in [3,5], z in [3,4].
        let south = r.shadow_prism(&mesh, Direction::neg(1)).unwrap();
        assert_eq!(south, Region::new(vec![3, 0, 3], vec![5, 4, 4]));
        // Shadow on the +Y side.
        let north = r.shadow_prism(&mesh, Direction::pos(1)).unwrap();
        assert_eq!(north, Region::new(vec![3, 7, 3], vec![5, 9, 4]));
        // A block touching the mesh face has no shadow on that side.
        let flush = Region::new(vec![0, 2, 2], vec![1, 3, 3]);
        assert!(flush.shadow_prism(&mesh, Direction::neg(0)).is_none());
    }

    #[test]
    fn iter_coords_visits_volume_exactly_once() {
        let r = Region::new(vec![1, 2, 3], vec![2, 4, 4]);
        let coords: Vec<Coord> = r.iter_coords().collect();
        assert_eq!(coords.len() as u64, r.volume());
        let mut sorted = coords.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), coords.len());
        assert!(coords.iter().all(|c| r.contains(c)));
        assert_eq!(coords.first().unwrap(), &coord![1, 2, 3]);
        assert_eq!(coords.last().unwrap(), &coord![2, 4, 4]);
    }

    #[test]
    fn adjacency_of_regions() {
        let a = Region::new(vec![0, 0], vec![1, 1]);
        let b = Region::new(vec![2, 0], vec![3, 1]);
        let c = Region::new(vec![3, 2], vec![4, 4]);
        let far = Region::new(vec![5, 5], vec![6, 6]);
        assert!(a.adjacent_or_overlapping(&b));
        assert!(!a.adjacent_or_overlapping(&far));
        assert!(b.adjacent_or_overlapping(&c));
        assert!(!a.adjacent_or_overlapping(&c));
    }

    #[test]
    fn point_and_bounding() {
        let p = Region::point(&coord![2, 3]);
        assert_eq!(p.volume(), 1);
        let bb = Region::bounding(&coord![5, 1], &coord![2, 4]);
        assert_eq!(bb, Region::new(vec![2, 1], vec![5, 4]));
        assert!(Region::bounding_all(std::iter::empty()).is_none());
    }

    #[test]
    fn contains_region_check() {
        let big = Region::new(vec![0, 0], vec![9, 9]);
        let small = Region::new(vec![2, 3], vec![4, 5]);
        assert!(big.contains_region(&small));
        assert!(!small.contains_region(&big));
    }

    #[test]
    #[should_panic(expected = "lo must be <= hi")]
    fn invalid_bounds_panic() {
        Region::new(vec![3, 0], vec![2, 5]);
    }
}

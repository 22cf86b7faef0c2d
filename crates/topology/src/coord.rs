//! n-dimensional node addresses.
//!
//! A [`Coord`] is the address `(u_1, ..., u_n)` of a node in a k-ary n-D mesh.  The
//! paper measures all distances in the Manhattan (L1) metric: the distance between
//! nodes `u` and `v` is `|u_1 - v_1| + ... + |u_n - v_n|` (Section 2.1).
//!
//! Coordinates are the most frequently built value in the routing hot path (one per
//! hop for the current node, plus one per candidate direction), so a coordinate is
//! plain data: a fixed `[i32; MAX_DIMS]` array plus a length, `Copy` and free of heap
//! pointers.  Constructing, copying and stepping one never allocates, and every
//! record built from coordinates ([`Region`](crate::region::Region), the boundary
//! entries of `lgfi-core`) copies as bytes.
//! [`Mesh::new`](crate::mesh::Mesh::new) enforces the [`MAX_DIMS`] limit.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::direction::Direction;

/// The largest dimensionality a [`Coord`] (and therefore a
/// [`Mesh`](crate::mesh::Mesh)) supports.
///
/// `lgfi_sim::MAX_STACK_NEIGHBORS` is `2 * MAX_DIMS`: the round data plane's stack
/// neighbor views cover every mesh this limit admits.
pub const MAX_DIMS: usize = 8;

/// An n-dimensional mesh coordinate.
///
/// Coordinates are stored as `i32` so that the "expanded frame" of a faulty block
/// (one unit outside the block, possibly at `-1` next to the mesh boundary in
/// intermediate computations) can be represented without wrap-around.  Positions
/// past `len` stay 0; equality, hashing, ordering and formatting look only at the
/// first `len` positions.
#[derive(Clone, Copy)]
pub struct Coord {
    len: u8,
    vals: [i32; MAX_DIMS],
}

impl Coord {
    /// Creates a coordinate from per-dimension positions (a `Vec`, array, or
    /// slice — the values are copied, so nothing is consumed).
    ///
    /// # Panics
    /// Panics if there are more than [`MAX_DIMS`] positions.
    pub fn new(values: impl AsRef<[i32]>) -> Self {
        Coord::from_slice(values.as_ref())
    }

    /// Creates the all-zero coordinate (the origin) in `n` dimensions.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`MAX_DIMS`].
    #[inline]
    pub fn origin(n: usize) -> Self {
        assert!(
            n <= MAX_DIMS,
            "{n} dimensions exceed the {MAX_DIMS}-dimension limit"
        );
        Coord {
            len: n as u8,
            vals: [0; MAX_DIMS],
        }
    }

    /// Creates a coordinate from a slice.
    ///
    /// # Panics
    /// Panics if the slice is longer than [`MAX_DIMS`].
    #[inline]
    pub fn from_slice(values: &[i32]) -> Self {
        let mut c = Coord::origin(values.len());
        c.vals[..values.len()].copy_from_slice(values);
        c
    }

    /// The number of dimensions of this coordinate.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.len as usize
    }

    /// Returns the underlying positions as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[i32] {
        &self.vals[..self.len as usize]
    }

    /// The underlying positions as a mutable slice.
    #[inline]
    fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.vals[..self.len as usize]
    }

    /// Manhattan (L1) distance to another coordinate.
    ///
    /// This is the `D(u, v)` of Section 2.1 of the paper.
    ///
    /// # Panics
    /// Panics if the two coordinates have different dimensionality.
    #[inline]
    pub fn manhattan(&self, other: &Coord) -> u32 {
        assert_eq!(self.ndim(), other.ndim(), "dimension mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a.abs_diff(*b))
            .sum()
    }

    /// Chebyshev (L∞) distance to another coordinate.
    #[inline]
    pub fn chebyshev(&self, other: &Coord) -> u32 {
        assert_eq!(self.ndim(), other.ndim(), "dimension mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a.abs_diff(*b))
            .max()
            .unwrap_or(0)
    }

    /// Returns the coordinate obtained by taking one hop in `dir`.
    ///
    /// The result is *not* checked against any mesh bounds; use
    /// [`Mesh::neighbor`](crate::mesh::Mesh::neighbor) for a bounds-checked hop.
    #[inline]
    pub fn step(&self, dir: Direction) -> Coord {
        let mut c = *self;
        c[dir.dim] += dir.delta();
        c
    }

    /// True if the two coordinates differ in exactly one dimension by exactly one,
    /// i.e. they are connected by a mesh link.
    #[inline]
    pub fn is_neighbor_of(&self, other: &Coord) -> bool {
        if self.ndim() != other.ndim() {
            return false;
        }
        let mut diff_dims = 0usize;
        let mut unit = true;
        for (a, b) in self.as_slice().iter().zip(other.as_slice()) {
            if a != b {
                diff_dims += 1;
                if a.abs_diff(*b) != 1 {
                    unit = false;
                }
            }
        }
        diff_dims == 1 && unit
    }

    /// If `other` is a neighbor of `self`, returns the direction of the hop
    /// `self -> other`.
    #[inline]
    pub fn direction_to(&self, other: &Coord) -> Option<Direction> {
        if !self.is_neighbor_of(other) {
            return None;
        }
        for (dim, (a, b)) in self.as_slice().iter().zip(other.as_slice()).enumerate() {
            if a != b {
                return Some(Direction::new(dim, b > a));
            }
        }
        None
    }

    /// The dimensions in which `self` and `other` differ, as an allocation-free
    /// iterator.
    pub fn differing_dims<'a>(&'a self, other: &'a Coord) -> impl Iterator<Item = usize> + 'a {
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .enumerate()
            .filter_map(|(i, (a, b))| if a != b { Some(i) } else { None })
    }

    /// Per-dimension offset `other - self`, as an allocation-free iterator.
    pub fn offset_to<'a>(&'a self, other: &'a Coord) -> impl Iterator<Item = i32> + 'a {
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| b - a)
    }
}

impl PartialEq for Coord {
    #[inline]
    fn eq(&self, other: &Coord) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Coord {}

impl std::hash::Hash for Coord {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Coord {
    #[inline]
    fn partial_cmp(&self, other: &Coord) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coord {
    #[inline]
    fn cmp(&self, other: &Coord) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Index<usize> for Coord {
    type Output = i32;
    #[inline]
    fn index(&self, index: usize) -> &i32 {
        &self.as_slice()[index]
    }
}

impl IndexMut<usize> for Coord {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut i32 {
        &mut self.as_mut_slice()[index]
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<i32>> for Coord {
    fn from(v: Vec<i32>) -> Self {
        Coord::new(v)
    }
}

impl From<&[i32]> for Coord {
    fn from(v: &[i32]) -> Self {
        Coord::from_slice(v)
    }
}

/// Convenience macro for writing coordinates in tests and examples: `coord![3, 5, 4]`.
#[macro_export]
macro_rules! coord {
    ($($x:expr),* $(,)?) => {
        $crate::coord::Coord::from_slice(&[$($x as i32),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_matches_paper_definition() {
        let u = coord![1, 2, 3];
        let v = coord![4, 0, 3];
        assert_eq!(u.manhattan(&v), 3 + 2);
        assert_eq!(v.manhattan(&u), 5);
        assert_eq!(u.manhattan(&u), 0);
    }

    #[test]
    fn chebyshev_distance() {
        let u = coord![1, 2, 3];
        let v = coord![4, 0, 3];
        assert_eq!(u.chebyshev(&v), 3);
    }

    #[test]
    fn neighbor_detection_requires_unit_difference_in_one_dimension() {
        let u = coord![2, 2, 2];
        assert!(u.is_neighbor_of(&coord![3, 2, 2]));
        assert!(u.is_neighbor_of(&coord![2, 1, 2]));
        assert!(!u.is_neighbor_of(&coord![3, 3, 2]));
        assert!(!u.is_neighbor_of(&coord![4, 2, 2]));
        assert!(!u.is_neighbor_of(&coord![2, 2, 2]));
    }

    #[test]
    fn direction_to_neighbor() {
        let u = coord![2, 2];
        assert_eq!(u.direction_to(&coord![3, 2]), Some(Direction::new(0, true)));
        assert_eq!(
            u.direction_to(&coord![2, 1]),
            Some(Direction::new(1, false))
        );
        assert_eq!(u.direction_to(&coord![3, 3]), None);
    }

    #[test]
    fn step_moves_one_hop() {
        let u = coord![2, 2, 2];
        assert_eq!(u.step(Direction::new(2, true)), coord![2, 2, 3]);
        assert_eq!(u.step(Direction::new(0, false)), coord![1, 2, 2]);
    }

    #[test]
    fn differing_dims_and_offset() {
        let u = coord![0, 5, 2];
        let v = coord![3, 5, 0];
        assert_eq!(u.differing_dims(&v).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(u.offset_to(&v).collect::<Vec<_>>(), vec![3, 0, -2]);
    }

    #[test]
    fn display_formats_like_paper() {
        assert_eq!(format!("{}", coord![6, 4, 5]), "(6,4,5)");
    }

    #[test]
    fn eight_dimensions_are_supported_by_every_operation() {
        use std::collections::HashSet;
        let n = MAX_DIMS;
        let u = Coord::origin(n);
        let mut v = Coord::origin(n);
        v[n - 1] = 3;
        v[0] = -1;
        assert_eq!(u.ndim(), n);
        assert_eq!(u.manhattan(&v), 4);
        assert_eq!(u.chebyshev(&v), 3);
        assert_eq!(u.step(Direction::pos(n - 1))[n - 1], 1);
        assert!(u.step(Direction::pos(n - 1)).is_neighbor_of(&u));
        assert!(!u.is_neighbor_of(&v));
        assert_eq!(u.differing_dims(&v).collect::<Vec<_>>(), vec![0, n - 1]);
        // Ordering, equality and hashing look at the positions only.
        let w = Coord::from_slice(v.as_slice());
        assert_eq!(v, w);
        assert!(v < u && u < u.step(Direction::pos(n - 1)));
        let set: HashSet<Coord> = [u, v].into_iter().collect();
        assert!(set.contains(&w) && set.contains(&Coord::origin(n)));
    }

    #[test]
    #[should_panic(expected = "8-dimension limit")]
    fn coordinates_above_the_dimension_limit_are_rejected() {
        let _ = Coord::from_slice(&[0; MAX_DIMS + 1]);
    }

    #[test]
    fn hash_and_compare_by_positions() {
        use std::collections::HashSet;
        let a = coord![1, 2, 3];
        let b = Coord::from_slice(&[1, 2, 3]);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(coord![1, 2] < coord![1, 3]);
        assert!(coord![1, 2] < coord![1, 2, 0]);
    }
}

//! Mesh directions.
//!
//! An interior node of an n-D mesh has degree `2n`: for each dimension there is a
//! positive and a negative direction.  The paper names the six directions of a 3-D
//! mesh after the adjacent surfaces `S0..S5` of a faulty block (Definition 3): `S0`
//! and `S3` are perpendicular to the X axis (negative/positive side), `S1`/`S4` to Y,
//! and `S2`/`S5` to Z.  [`Direction::surface_index`] reproduces that numbering.

use std::fmt;

use crate::coord::MAX_DIMS;

/// One of the `2n` directions of an n-D mesh: a dimension plus a sign.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Direction {
    /// The dimension along which this direction moves (0-based).
    pub dim: usize,
    /// `true` for the positive direction, `false` for the negative one.
    pub positive: bool,
}

impl Direction {
    /// Creates a direction along `dim`, positive if `positive`.
    pub fn new(dim: usize, positive: bool) -> Self {
        Direction { dim, positive }
    }

    /// The positive direction along `dim`.
    pub fn pos(dim: usize) -> Self {
        Direction::new(dim, true)
    }

    /// The negative direction along `dim`.
    pub fn neg(dim: usize) -> Self {
        Direction::new(dim, false)
    }

    /// The coordinate delta of one hop in this direction (`+1` or `-1`).
    #[inline]
    pub fn delta(&self) -> i32 {
        if self.positive {
            1
        } else {
            -1
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn opposite(&self) -> Direction {
        Direction::new(self.dim, !self.positive)
    }

    /// All `2n` directions of an n-D mesh, ordered `(-d0, +d0, -d1, +d1, ...)`.
    ///
    /// Allocates; hot paths should use the allocation-free [`Direction::iter_all`],
    /// which yields the same directions in the same order.
    pub fn all(n: usize) -> Vec<Direction> {
        Direction::iter_all(n).collect()
    }

    /// Iterates over all `2n` directions of an n-D mesh in [`Direction::index`]
    /// order — `(-d0, +d0, -d1, +d1, ...)`, the same order as [`Direction::all`] —
    /// without allocating.
    #[inline]
    pub fn iter_all(n: usize) -> impl Iterator<Item = Direction> {
        (0..2 * n).map(Direction::from_index)
    }

    /// A dense index in `0..2n`, compatible with [`Direction::from_index`].
    ///
    /// The negative direction of dimension `d` maps to `2d`, the positive one to
    /// `2d + 1`.
    #[inline]
    pub fn index(&self) -> usize {
        2 * self.dim + usize::from(self.positive)
    }

    /// Inverse of [`Direction::index`].
    #[inline]
    pub fn from_index(idx: usize) -> Direction {
        Direction::new(idx / 2, idx % 2 == 1)
    }

    /// The adjacent-surface number used by the paper for a block in an n-D mesh
    /// (Definition 3 uses 3-D): surface `S_i` with `i < n` lies on the negative side
    /// of dimension `i`, and `S_{i+n}` on the positive side, so that a surface and its
    /// opposite differ by `n` (the paper writes the opposite of `S_i` as
    /// `S_{(i+3) mod 6}` in 3-D).
    pub fn surface_index(&self, n: usize) -> usize {
        if self.positive {
            self.dim + n
        } else {
            self.dim
        }
    }

    /// Inverse of [`Direction::surface_index`].
    pub fn from_surface_index(surface: usize, n: usize) -> Direction {
        if surface < n {
            Direction::neg(surface)
        } else {
            Direction::pos(surface - n)
        }
    }
}

impl fmt::Debug for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.positive { '+' } else { '-' };
        let name = match self.dim {
            0 => "X".to_string(),
            1 => "Y".to_string(),
            2 => "Z".to_string(),
            d => format!("d{d}"),
        };
        write!(f, "{sign}{name}")
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A compact set of directions, used for the per-node *used direction* lists in the
/// routing header of Algorithm 3 (each forwarding direction at a participant node
/// cannot be used again).
///
/// A mesh has at most [`MAX_DIMS`] dimensions, hence at most 16 directions, so the
/// set is one `u16` bit mask: bit [`Direction::index`] is set when the direction
/// is in the set.  A direction index of 16 or more is rejected with a panic rather
/// than wrapped into a wrong bit.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct DirectionSet {
    bits: u16,
}

/// The bit of `dir` in a [`DirectionSet`] mask.
///
/// # Panics
/// Panics if the direction index is 16 or more (a dimension past [`MAX_DIMS`]).
#[inline]
fn bit(dir: Direction) -> u16 {
    let idx = dir.index();
    assert!(
        idx < 2 * MAX_DIMS,
        "direction index {idx} exceeds the {}-direction set of a {MAX_DIMS}-dimension mesh",
        2 * MAX_DIMS
    );
    1 << idx
}

impl DirectionSet {
    /// The empty set.
    pub fn empty() -> Self {
        DirectionSet { bits: 0 }
    }

    /// The set as a bit mask: bit `i` is set when the direction with
    /// [`Direction::index`] `i` is in the set.
    #[inline]
    pub fn bits(&self) -> u16 {
        self.bits
    }

    /// Inserts a direction; returns `true` if it was not present before.
    ///
    /// # Panics
    /// Panics if the direction index is 16 or more.
    #[inline]
    pub fn insert(&mut self, dir: Direction) -> bool {
        let mask = bit(dir);
        let newly = self.bits & mask == 0;
        self.bits |= mask;
        newly
    }

    /// Removes a direction.
    ///
    /// # Panics
    /// Panics if the direction index is 16 or more.
    pub fn remove(&mut self, dir: Direction) {
        self.bits &= !bit(dir);
    }

    /// True if the set contains `dir`.
    ///
    /// # Panics
    /// Panics if the direction index is 16 or more.
    #[inline]
    pub fn contains(&self, dir: Direction) -> bool {
        self.bits & bit(dir) != 0
    }

    /// Number of directions in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Iterates over the directions in the set (ascending index order).
    pub fn iter(&self) -> impl Iterator<Item = Direction> + '_ {
        (0..2 * MAX_DIMS)
            .filter(move |i| self.bits & (1 << i) != 0)
            .map(Direction::from_index)
    }
}

impl fmt::Debug for DirectionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Direction> for DirectionSet {
    fn from_iter<T: IntoIterator<Item = Direction>>(iter: T) -> Self {
        let mut s = DirectionSet::empty();
        for d in iter {
            s.insert(d);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_directions_of_a_3d_mesh() {
        let dirs = Direction::all(3);
        assert_eq!(dirs.len(), 6);
        assert!(dirs.contains(&Direction::pos(0)));
        assert!(dirs.contains(&Direction::neg(2)));
    }

    #[test]
    fn index_round_trips() {
        for n in 1..=6 {
            for d in Direction::all(n) {
                assert_eq!(Direction::from_index(d.index()), d);
                assert_eq!(Direction::from_surface_index(d.surface_index(n), n), d);
            }
        }
    }

    #[test]
    fn surface_numbering_matches_definition_3() {
        // S0/S3 perpendicular to X (S0 on the west = negative side), S1/S4 to Y,
        // S2/S5 to Z.
        let n = 3;
        assert_eq!(Direction::neg(0).surface_index(n), 0);
        assert_eq!(Direction::pos(0).surface_index(n), 3);
        assert_eq!(Direction::neg(1).surface_index(n), 1);
        assert_eq!(Direction::pos(1).surface_index(n), 4);
        assert_eq!(Direction::neg(2).surface_index(n), 2);
        assert_eq!(Direction::pos(2).surface_index(n), 5);
        // A surface and its opposite differ by n (mod 2n), as in the paper's
        // S_{(i+3) mod 6}.
        for d in Direction::all(n) {
            let i = d.surface_index(n);
            let j = d.opposite().surface_index(n);
            assert_eq!((i + n) % (2 * n), j);
        }
    }

    #[test]
    fn opposite_is_involutive() {
        for d in Direction::all(4) {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn direction_set_basic_operations() {
        let mut s = DirectionSet::empty();
        assert!(s.is_empty());
        assert!(s.insert(Direction::pos(1)));
        assert!(!s.insert(Direction::pos(1)));
        assert!(s.insert(Direction::neg(3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Direction::pos(1)));
        assert!(!s.contains(Direction::neg(1)));
        s.remove(Direction::pos(1));
        assert!(!s.contains(Direction::pos(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn direction_set_iterates_in_index_order() {
        let s: DirectionSet = [Direction::pos(2), Direction::neg(0), Direction::neg(1)]
            .into_iter()
            .collect();
        let v: Vec<Direction> = s.iter().collect();
        assert_eq!(
            v,
            vec![Direction::neg(0), Direction::neg(1), Direction::pos(2)]
        );
    }

    #[test]
    fn direction_set_covers_all_sixteen_directions() {
        let all: DirectionSet = Direction::iter_all(MAX_DIMS).collect();
        assert_eq!(all.len(), 2 * MAX_DIMS);
        assert_eq!(all.bits(), u16::MAX);
        assert!(all.contains(Direction::pos(MAX_DIMS - 1)));
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", Direction::pos(0)), "+X");
        assert_eq!(format!("{}", Direction::neg(1)), "-Y");
        assert_eq!(format!("{}", Direction::pos(2)), "+Z");
        assert_eq!(format!("{}", Direction::neg(5)), "-d5");
    }
}

//! Columnar (structure-of-arrays) trajectory storage for the refine hot
//! path.
//!
//! The distance kernels spend their time streaming coordinates. Stored as
//! `Vec<Point<D>>` per trajectory, every candidate lives in its own heap
//! island and every ε-match reads interleaved `[x, y, x, y, ...]` pairs.
//! [`TrajectoryArena`] packs an entire dataset into one contiguous buffer,
//! dimension-major per trajectory (`[x0..xn][y0..yn]`), so a sequential
//! scan walks memory in layout order and the per-element compares in the
//! kernels become strided loads the autovectorizer can handle.
//!
//! [`CoordSeq`] is the access trait the kernels are generic over: a plain
//! `&[Point<D>]` (array-of-structs), an [`ArenaView`] (columnar), or any
//! other precomputed query-side layout all monomorphize into the same DP
//! loops without copying coordinates at call time.

use crate::{Dataset, Point, Trajectory};

/// Read-only access to a `D`-dimensional coordinate sequence.
///
/// Implementors are cheap handles (`Copy`), so the distance kernels take
/// them by value. `coord(i, d)` must be `#[inline]`-friendly: the kernels
/// call it in their innermost loops.
pub trait CoordSeq<const D: usize>: Copy {
    /// Number of elements in the sequence.
    fn len(&self) -> usize;

    /// Whether the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinate `d` of element `i`. `i < len()`, `d < D`.
    fn coord(&self, i: usize, d: usize) -> f64;
}

impl<const D: usize> CoordSeq<D> for &[Point<D>] {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn coord(&self, i: usize, d: usize) -> f64 {
        self[i][d]
    }
}

impl<const D: usize> CoordSeq<D> for &Trajectory<D> {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn coord(&self, i: usize, d: usize) -> f64 {
        self.points()[i][d]
    }
}

/// One contiguous SoA buffer holding every trajectory of a dataset.
///
/// Each trajectory of length `n` occupies a block of `D * n` floats,
/// dimension-major: dimension `d` of trajectory `i` is the slice
/// `coords[offset_i + d * n .. offset_i + (d + 1) * n]`. Blocks are laid
/// out in dataset order, so engines that iterate candidates by ascending
/// id read the arena front to back.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryArena<const D: usize> {
    coords: Vec<f64>,
    offsets: Vec<usize>,
    lens: Vec<usize>,
    max_len: usize,
}

impl<const D: usize> TrajectoryArena<D> {
    /// Packs a dataset into a fresh arena. O(total points) copies, done
    /// once per engine build.
    pub fn from_dataset(dataset: &Dataset<D>) -> Self {
        Self::from_trajectories(dataset.trajectories())
    }

    /// Packs a slice of trajectories into a fresh arena.
    pub fn from_trajectories(trajectories: &[Trajectory<D>]) -> Self {
        let total: usize = trajectories.iter().map(|t| t.len() * D).sum();
        let mut coords = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(trajectories.len());
        let mut lens = Vec::with_capacity(trajectories.len());
        let mut max_len = 0;
        for t in trajectories {
            offsets.push(coords.len());
            lens.push(t.len());
            max_len = max_len.max(t.len());
            for d in 0..D {
                coords.extend(t.points().iter().map(|p| p[d]));
            }
        }
        TrajectoryArena {
            coords,
            offsets,
            lens,
            max_len,
        }
    }

    /// Number of trajectories stored.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Whether the arena holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Length (number of points) of trajectory `id`.
    pub fn len_of(&self, id: usize) -> usize {
        self.lens[id]
    }

    /// The longest trajectory length in the arena (0 when empty). Engines
    /// use this to pre-size per-worker scratch so the hot path never
    /// grows.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// A borrowed columnar view of trajectory `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn view(&self, id: usize) -> ArenaView<'_, D> {
        let n = self.lens[id];
        let o = self.offsets[id];
        ArenaView {
            coords: &self.coords[o..o + D * n],
            len: n,
        }
    }

    /// Iterates `(id, view)` pairs in layout order.
    pub fn views(&self) -> impl Iterator<Item = (usize, ArenaView<'_, D>)> {
        (0..self.len()).map(|id| (id, self.view(id)))
    }
}

/// A borrowed `(offset, len)` view into a [`TrajectoryArena`] block.
#[derive(Debug, Clone, Copy)]
pub struct ArenaView<'a, const D: usize> {
    coords: &'a [f64],
    len: usize,
}

impl<'a, const D: usize> ArenaView<'a, D> {
    /// Number of points in the viewed trajectory.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the viewed trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The contiguous coordinate column for dimension `d`.
    pub fn dim(&self, d: usize) -> &'a [f64] {
        &self.coords[d * self.len..(d + 1) * self.len]
    }
}

impl<const D: usize> CoordSeq<D> for ArenaView<'_, D> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn coord(&self, i: usize, d: usize) -> f64 {
        self.coords[d * self.len + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trajectory2;

    fn sample() -> Dataset<2> {
        Dataset::new(vec![
            Trajectory2::from_xy(&[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]),
            Trajectory2::from_xy(&[]),
            Trajectory2::from_xy(&[(9.0, -1.0)]),
        ])
    }

    #[test]
    fn arena_round_trips_every_coordinate() {
        let ds = sample();
        let arena = TrajectoryArena::from_dataset(&ds);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.max_len(), 3);
        for (id, t) in ds.iter() {
            let v = arena.view(id);
            assert_eq!(v.len(), t.len());
            assert_eq!(arena.len_of(id), t.len());
            for (i, p) in t.iter().enumerate() {
                for d in 0..2 {
                    assert_eq!(CoordSeq::<2>::coord(&v, i, d), p[d]);
                    assert_eq!(v.dim(d)[i], p[d]);
                }
            }
        }
    }

    #[test]
    fn views_iterate_in_dataset_order() {
        let ds = sample();
        let arena = TrajectoryArena::from_dataset(&ds);
        let ids: Vec<usize> = arena.views().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn dim_columns_are_contiguous() {
        let ds = sample();
        let arena = TrajectoryArena::from_dataset(&ds);
        let v = arena.view(0);
        assert_eq!(v.dim(0), &[0.0, 2.0, 4.0]);
        assert_eq!(v.dim(1), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn point_slices_and_trajectories_implement_coordseq() {
        let t = Trajectory2::from_xy(&[(1.0, 2.0), (3.0, 4.0)]);
        let s = t.points();
        assert_eq!(CoordSeq::<2>::len(&s), 2);
        assert_eq!(CoordSeq::<2>::coord(&s, 1, 0), 3.0);
        assert_eq!(CoordSeq::<2>::coord(&&t, 1, 1), 4.0);
        assert!(!CoordSeq::<2>::is_empty(&s));
    }

    #[test]
    fn empty_arena_is_well_formed() {
        let arena = TrajectoryArena::<2>::from_trajectories(&[]);
        assert!(arena.is_empty());
        assert_eq!(arena.max_len(), 0);
        assert_eq!(arena.views().count(), 0);
    }
}

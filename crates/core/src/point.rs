//! Fixed-dimension sample vectors.

use crate::MatchThreshold;
use std::fmt;
use std::ops::{Add, Div, Index, IndexMut, Mul, Sub};

/// A `D`-dimensional sample vector `s_i` of a trajectory.
///
/// The paper works mostly in two dimensions ("objects are points that move
/// in a two-dimensional space", §2) but notes that all definitions extend to
/// higher dimensions; `D` is a const generic so the extension is free.
///
/// `Point` is a thin wrapper over `[f64; D]` — `#[repr(transparent)]`, so a
/// `Vec<Point<D>>` is a flat, cache-friendly buffer (the DP inner loops in
/// `trajsim-distance` stream over it sequentially).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct Point<const D: usize>(pub [f64; D]);

/// One-dimensional point (projected data sequences, Theorem 4).
pub type Point1 = Point<1>;
/// Two-dimensional point (the x-y plane, the paper's default).
pub type Point2 = Point<2>;
/// Three-dimensional point (the x-y-z plane).
pub type Point3 = Point<3>;

impl<const D: usize> Point<D> {
    /// A point at the origin.
    #[inline]
    pub const fn origin() -> Self {
        Point([0.0; D])
    }

    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// The coordinate array.
    #[inline]
    pub const fn coords(&self) -> &[f64; D] {
        &self.0
    }

    /// Definition 1: `self` and `other` match iff every coordinate differs
    /// by at most ε. A NaN coordinate never matches, since `NaN <= ε` is
    /// false. The check runs without an early return.
    ///
    /// ```
    /// use trajsim_core::{Point2, MatchThreshold};
    /// let eps = MatchThreshold::new(1.0).unwrap();
    /// let a = Point2::new([0.0, 0.0]);
    /// assert!(a.matches(&Point2::new([1.0, -1.0]), eps));
    /// assert!(!a.matches(&Point2::new([1.0, 1.5]), eps));
    /// ```
    #[inline]
    pub fn matches(&self, other: &Self, eps: MatchThreshold) -> bool {
        let e = eps.value();
        let mut hit = true;
        for k in 0..D {
            hit &= (self.0[k] - other.0[k]).abs() <= e;
        }
        hit
    }

    /// Squared Euclidean distance between two points.
    #[inline]
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for k in 0..D {
            let d = self.0[k] - other.0[k];
            acc += d * d;
        }
        acc
    }

    /// Euclidean (L2) distance between two points. This is the element
    /// distance `dist(r_i, s_i)` used by Euclidean distance, DTW and ERP
    /// (Figure 2).
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// L1 (Manhattan) distance between two points; ERP's original paper \[6\]
    /// uses L1 — provided for the ERP variant in `trajsim-distance`.
    #[inline]
    pub fn dist_l1(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for k in 0..D {
            acc += (self.0[k] - other.0[k]).abs();
        }
        acc
    }

    /// Chebyshev (L∞) distance; two points match under ε exactly when their
    /// L∞ distance is at most ε, so this is the "matching norm".
    #[inline]
    pub fn dist_linf(&self, other: &Self) -> f64 {
        let mut acc: f64 = 0.0;
        for k in 0..D {
            acc = acc.max((self.0[k] - other.0[k]).abs());
        }
        acc
    }

    /// True iff every coordinate is finite (no NaN / ±∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }

    /// Projects the point onto one dimension (Theorem 4 works on the x or y
    /// projections of a trajectory).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= D`.
    #[inline]
    pub fn project(&self, dim: usize) -> Point1 {
        Point([self.0[dim]])
    }
}

impl Point2 {
    /// The x coordinate (first dimension).
    #[inline]
    pub fn x(&self) -> f64 {
        self.0[0]
    }

    /// The y coordinate (second dimension).
    #[inline]
    pub fn y(&self) -> f64 {
        self.0[1]
    }

    /// Builds a 2-d point from x and y.
    #[inline]
    pub const fn xy(x: f64, y: f64) -> Self {
        Point([x, y])
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::origin()
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(coords: [f64; D]) -> Self {
        Point(coords)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point([x, y])
    }
}

impl From<f64> for Point1 {
    fn from(v: f64) -> Self {
        Point([v])
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    #[inline]
    fn index(&self, k: usize) -> &f64 {
        &self.0[k]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, k: usize) -> &mut f64 {
        &mut self.0[k]
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        for k in 0..D {
            self.0[k] += rhs.0[k];
        }
        self
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Self;
    fn sub(mut self, rhs: Self) -> Self {
        for k in 0..D {
            self.0[k] -= rhs.0[k];
        }
        self
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Self;
    fn mul(mut self, rhs: f64) -> Self {
        for k in 0..D {
            self.0[k] *= rhs;
        }
        self
    }
}

impl<const D: usize> Div<f64> for Point<D> {
    type Output = Self;
    fn div(mut self, rhs: f64) -> Self {
        for k in 0..D {
            self.0[k] /= rhs;
        }
        self
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (k, v) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn eps(v: f64) -> MatchThreshold {
        MatchThreshold::new(v).unwrap()
    }

    #[test]
    fn matching_is_per_coordinate() {
        let a = Point2::xy(0.0, 0.0);
        // Euclidean distance sqrt(2) > 1, but per-coordinate both are <= 1:
        // Definition 1 uses per-coordinate comparison, not L2.
        assert!(a.matches(&Point2::xy(1.0, 1.0), eps(1.0)));
        assert!(!a.matches(&Point2::xy(0.0, 1.01), eps(1.0)));
    }

    #[test]
    fn nan_never_matches() {
        let nan = f64::NAN;
        let a = Point2::xy(0.0, 0.0);
        for p in [
            Point2::xy(nan, 0.0),
            Point2::xy(0.0, nan),
            Point2::xy(nan, nan),
        ] {
            assert!(!a.matches(&p, eps(1e9)));
            assert!(!p.matches(&a, eps(1e9)));
            assert!(!p.matches(&p, eps(1e9)), "not even itself");
        }
        // ∞ − ∞ is NaN, so infinite coordinates do not match either.
        let inf = Point1::from(f64::INFINITY);
        assert!(!inf.matches(&inf, eps(1.0)));
    }

    #[test]
    fn matching_boundary_is_inclusive() {
        let a = Point1::from(0.0);
        assert!(a.matches(&Point1::from(1.0), eps(1.0)));
    }

    #[test]
    fn distances_agree_on_axis_aligned_points() {
        let a = Point2::xy(0.0, 0.0);
        let b = Point2::xy(3.0, 0.0);
        assert_eq!(a.dist(&b), 3.0);
        assert_eq!(a.dist_l1(&b), 3.0);
        assert_eq!(a.dist_linf(&b), 3.0);
        assert_eq!(a.dist_sq(&b), 9.0);
    }

    #[test]
    fn l2_on_diagonal() {
        let a = Point2::xy(0.0, 0.0);
        let b = Point2::xy(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_l1(&b), 7.0);
        assert_eq!(a.dist_linf(&b), 4.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point2::xy(1.0, 2.0);
        let b = Point2::xy(3.0, 4.0);
        assert_eq!(a + b, Point2::xy(4.0, 6.0));
        assert_eq!(b - a, Point2::xy(2.0, 2.0));
        assert_eq!(a * 2.0, Point2::xy(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::xy(1.5, 2.0));
    }

    #[test]
    fn projection_extracts_single_dimension() {
        let p = Point2::xy(1.5, -2.5);
        assert_eq!(p.project(0), Point1::from(1.5));
        assert_eq!(p.project(1), Point1::from(-2.5));
    }

    #[test]
    fn display_formats_coordinates() {
        assert_eq!(Point2::xy(1.0, 2.5).to_string(), "(1, 2.5)");
    }

    #[test]
    fn finiteness_check() {
        assert!(Point2::xy(1.0, 2.0).is_finite());
        assert!(!Point2::xy(f64::NAN, 0.0).is_finite());
        assert!(!Point2::xy(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn three_dimensional_points_work() {
        let a = Point3::new([0.0, 0.0, 0.0]);
        let b = Point3::new([1.0, 2.0, 2.0]);
        assert_eq!(a.dist(&b), 3.0);
        assert!(a.matches(&b, eps(2.0)));
        assert!(!a.matches(&b, eps(1.5)));
    }

    proptest! {
        /// Matching under ε is exactly "L∞ distance <= ε".
        #[test]
        fn matches_iff_linf_within_eps(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64,
            bx in -100.0..100.0f64, by in -100.0..100.0f64,
            e in 0.0..50.0f64,
        ) {
            let a = Point2::xy(ax, ay);
            let b = Point2::xy(bx, by);
            prop_assert_eq!(a.matches(&b, eps(e)), a.dist_linf(&b) <= e);
        }

        /// Matching is symmetric and reflexive.
        #[test]
        fn matching_symmetric_reflexive(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64,
            bx in -100.0..100.0f64, by in -100.0..100.0f64,
            e in 0.0..50.0f64,
        ) {
            let a = Point2::xy(ax, ay);
            let b = Point2::xy(bx, by);
            let e = eps(e);
            prop_assert!(a.matches(&a, e));
            prop_assert_eq!(a.matches(&b, e), b.matches(&a, e));
        }

        /// Norm ordering: L∞ <= L2 <= L1 for all point pairs.
        #[test]
        fn norm_ordering(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64,
            bx in -100.0..100.0f64, by in -100.0..100.0f64,
        ) {
            let a = Point2::xy(ax, ay);
            let b = Point2::xy(bx, by);
            prop_assert!(a.dist_linf(&b) <= a.dist(&b) + 1e-12);
            prop_assert!(a.dist(&b) <= a.dist_l1(&b) + 1e-12);
        }
    }
}

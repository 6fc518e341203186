//! Owned trajectory sequences and normalization.

use crate::{CoreError, Point, Result};
use std::ops::Index;

/// A moving-object trajectory: the sequence of sampled positions
/// `[s1, ..., sn]`, optionally annotated with sample timestamps.
///
/// The length `n` of the trajectory is the number of sample timestamps
/// (§1). Similarity retrieval ignores the time components, so all distance
/// functions operate on [`points`](Self::points) only; timestamps are kept
/// because trajectory *sources* (sensors, video trackers) produce them and
/// downstream spatio-temporal queries may want them back.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory<const D: usize> {
    points: Vec<Point<D>>,
    timestamps: Option<Vec<f64>>,
}

/// One-dimensional trajectory (a plain time series / projected sequence).
pub type Trajectory1 = Trajectory<1>;
/// Two-dimensional trajectory (the paper's default).
pub type Trajectory2 = Trajectory<2>;
/// Three-dimensional trajectory.
pub type Trajectory3 = Trajectory<3>;

impl<const D: usize> Trajectory<D> {
    /// Creates a trajectory from sample points, with implicit timestamps
    /// `0, 1, 2, ...` (time is discrete in the paper's model, §2).
    pub fn new(points: Vec<Point<D>>) -> Self {
        Trajectory {
            points,
            timestamps: None,
        }
    }

    /// Creates a trajectory with explicit timestamps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TimestampMismatch`] if the lengths differ.
    pub fn with_timestamps(points: Vec<Point<D>>, timestamps: Vec<f64>) -> Result<Self> {
        if points.len() != timestamps.len() {
            return Err(CoreError::TimestampMismatch {
                points: points.len(),
                timestamps: timestamps.len(),
            });
        }
        Ok(Trajectory {
            points,
            timestamps: Some(timestamps),
        })
    }

    /// Creates a trajectory from raw coordinate arrays.
    pub fn from_coords<I>(coords: I) -> Self
    where
        I: IntoIterator<Item = [f64; D]>,
    {
        Trajectory::new(coords.into_iter().map(Point::new).collect())
    }

    /// Number of elements (the trajectory length `n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the trajectory has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sample points.
    #[inline]
    pub fn points(&self) -> &[Point<D>] {
        &self.points
    }

    /// The explicit timestamps, if any were supplied.
    #[inline]
    pub fn timestamps(&self) -> Option<&[f64]> {
        self.timestamps.as_deref()
    }

    /// The timestamp of element `i`: explicit if supplied, otherwise the
    /// implicit discrete time `i`.
    #[inline]
    pub fn timestamp(&self, i: usize) -> f64 {
        match &self.timestamps {
            Some(ts) => ts[i],
            None => i as f64,
        }
    }

    /// Element access without panicking.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Point<D>> {
        self.points.get(i)
    }

    /// Iterator over the sample points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point<D>> {
        self.points.iter()
    }

    /// `Rest(S)`: the sub-trajectory without the first element (Figure 1).
    /// Used by the recursive definitions of DTW/ERP/LCSS/EDR; the iterative
    /// DP implementations never materialize it, but tests exercising the
    /// recurrences directly do.
    #[must_use]
    pub fn rest(&self) -> Self {
        Trajectory {
            points: self.points.get(1..).unwrap_or(&[]).to_vec(),
            timestamps: self
                .timestamps
                .as_ref()
                .map(|ts| ts.get(1..).unwrap_or(&[]).to_vec()),
        }
    }

    /// True iff every coordinate of every element is finite.
    pub fn is_finite(&self) -> bool {
        self.points.iter().all(Point::is_finite)
    }

    /// Index of the first element with a non-finite coordinate, if any.
    pub fn first_non_finite(&self) -> Option<usize> {
        self.points.iter().position(|p| !p.is_finite())
    }

    /// Per-dimension mean of the sample points.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrajectory`] on an empty trajectory.
    pub fn mean(&self) -> Result<Point<D>> {
        if self.is_empty() {
            return Err(CoreError::EmptyTrajectory);
        }
        let mut acc = Point::<D>::origin();
        for p in &self.points {
            acc = acc + *p;
        }
        Ok(acc / self.points.len() as f64)
    }

    /// Per-dimension *population* standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrajectory`] on an empty trajectory.
    pub fn std_dev(&self) -> Result<Point<D>> {
        let mu = self.mean()?;
        let mut acc = Point::<D>::origin();
        for p in &self.points {
            let d = *p - mu;
            for k in 0..D {
                acc[k] += d[k] * d[k];
            }
        }
        let n = self.points.len() as f64;
        for k in 0..D {
            acc[k] = (acc[k] / n).sqrt();
        }
        Ok(acc)
    }

    /// `Norm(S)`: normalizes each dimension to zero mean and unit variance
    /// using that dimension's mean and standard deviation (§2, after
    /// Goldin & Kanellakis \[13\]), so the distance between two trajectories
    /// is invariant to spatial scaling and shifting.
    ///
    /// Dimensions with zero standard deviation (a coordinate that never
    /// changes) are mapped to identically zero rather than dividing by zero.
    /// Non-finite data stays non-finite: a NaN or infinite coordinate
    /// makes its dimension's σ NaN, and that dimension normalizes to NaN
    /// rather than to a plausible-looking zero
    /// ([`crate::Dataset::try_new`] rejects such data up front).
    ///
    /// An empty trajectory normalizes to an empty trajectory.
    #[must_use]
    pub fn normalize(&self) -> Self {
        if self.is_empty() {
            return self.clone();
        }
        // Non-empty: mean()/std_dev() cannot fail.
        let mu = self.mean().expect("non-empty");
        let sigma = self.std_dev().expect("non-empty");
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut q = Point::<D>::origin();
                for k in 0..D {
                    q[k] = if sigma[k] == 0.0 {
                        0.0
                    } else {
                        (p[k] - mu[k]) / sigma[k]
                    };
                }
                q
            })
            .collect();
        Trajectory {
            points,
            timestamps: self.timestamps.clone(),
        }
    }

    /// Projects the trajectory onto one dimension, producing the
    /// one-dimensional data sequence of Theorem 4 (e.g. `R_x`).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= D`.
    #[must_use]
    pub fn project(&self, dim: usize) -> Trajectory<1> {
        assert!(dim < D, "projection dimension {dim} out of range for D={D}");
        Trajectory {
            points: self.points.iter().map(|p| p.project(dim)).collect(),
            timestamps: self.timestamps.clone(),
        }
    }

    /// Consumes the trajectory and returns its points.
    pub fn into_points(self) -> Vec<Point<D>> {
        self.points
    }
}

impl Trajectory<2> {
    /// Builds a 2-d trajectory from `(x, y)` pairs.
    pub fn from_xy(coords: &[(f64, f64)]) -> Self {
        Trajectory::new(coords.iter().map(|&(x, y)| Point([x, y])).collect())
    }
}

impl Trajectory<1> {
    /// Builds a 1-d trajectory from scalar values.
    pub fn from_values(values: &[f64]) -> Self {
        Trajectory::new(values.iter().map(|&v| Point([v])).collect())
    }

    /// The scalar values of a 1-d trajectory.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p[0]).collect()
    }
}

impl<const D: usize> Index<usize> for Trajectory<D> {
    type Output = Point<D>;
    #[inline]
    fn index(&self, i: usize) -> &Point<D> {
        &self.points[i]
    }
}

impl<const D: usize> FromIterator<Point<D>> for Trajectory<D> {
    fn from_iter<I: IntoIterator<Item = Point<D>>>(iter: I) -> Self {
        Trajectory::new(iter.into_iter().collect())
    }
}

impl<'a, const D: usize> IntoIterator for &'a Trajectory<D> {
    type Item = &'a Point<D>;
    type IntoIter = std::slice::Iter<'a, Point<D>>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point2;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let t = Trajectory2::from_xy(&[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t[0], Point2::xy(1.0, 2.0));
        assert_eq!(t.get(1), Some(&Point2::xy(3.0, 4.0)));
        assert_eq!(t.get(2), None);
        assert_eq!(t.timestamp(0), 0.0);
        assert_eq!(t.timestamp(1), 1.0);
    }

    #[test]
    fn explicit_timestamps_roundtrip() {
        let t = Trajectory2::with_timestamps(
            vec![Point2::xy(0.0, 0.0), Point2::xy(1.0, 1.0)],
            vec![10.0, 20.5],
        )
        .unwrap();
        assert_eq!(t.timestamps(), Some(&[10.0, 20.5][..]));
        assert_eq!(t.timestamp(1), 20.5);
    }

    #[test]
    fn timestamp_mismatch_is_rejected() {
        let err = Trajectory2::with_timestamps(vec![Point2::xy(0.0, 0.0)], vec![]).unwrap_err();
        assert_eq!(
            err,
            CoreError::TimestampMismatch {
                points: 1,
                timestamps: 0
            }
        );
    }

    #[test]
    fn rest_drops_first_element() {
        let t = Trajectory2::from_xy(&[(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let r = t.rest();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], Point2::xy(2.0, 2.0));
        // Rest of a single-element trajectory is empty; of empty, empty.
        assert!(r.rest().rest().is_empty());
        assert!(Trajectory2::default().rest().is_empty());
    }

    #[test]
    fn rest_preserves_timestamps() {
        let t = Trajectory2::with_timestamps(
            vec![Point2::xy(0.0, 0.0), Point2::xy(1.0, 1.0)],
            vec![5.0, 6.0],
        )
        .unwrap();
        assert_eq!(t.rest().timestamps(), Some(&[6.0][..]));
    }

    #[test]
    fn mean_and_std() {
        let t = Trajectory2::from_xy(&[(0.0, 10.0), (2.0, 10.0)]);
        assert_eq!(t.mean().unwrap(), Point2::xy(1.0, 10.0));
        assert_eq!(t.std_dev().unwrap(), Point2::xy(1.0, 0.0));
    }

    #[test]
    fn empty_statistics_error() {
        let t = Trajectory2::default();
        assert_eq!(t.mean().unwrap_err(), CoreError::EmptyTrajectory);
        assert_eq!(t.std_dev().unwrap_err(), CoreError::EmptyTrajectory);
    }

    #[test]
    fn normalization_centers_and_scales() {
        let t = Trajectory2::from_xy(&[(0.0, 5.0), (2.0, 5.0), (4.0, 5.0)]);
        let n = t.normalize();
        // x: mean 2, std sqrt(8/3); y constant -> all zeros.
        let mu = n.mean().unwrap();
        assert!(mu.x().abs() < 1e-12);
        assert!(mu.y().abs() < 1e-12);
        let sd = n.std_dev().unwrap();
        assert!((sd.x() - 1.0).abs() < 1e-12);
        assert_eq!(sd.y(), 0.0);
    }

    #[test]
    fn normalization_is_scale_and_shift_invariant() {
        let t = Trajectory2::from_xy(&[(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (5.0, 7.0)]);
        // Affine-transform every coordinate: scale x by 3 and shift by 7,
        // scale y by 0.5 and shift by -2.
        let t2 = Trajectory2::from_xy(
            &t.points()
                .iter()
                .map(|p| (p.x() * 3.0 + 7.0, p.y() * 0.5 - 2.0))
                .collect::<Vec<_>>(),
        );
        let (n1, n2) = (t.normalize(), t2.normalize());
        for (a, b) in n1.iter().zip(n2.iter()) {
            assert!((a.x() - b.x()).abs() < 1e-9);
            assert!((a.y() - b.y()).abs() < 1e-9);
        }
    }

    #[test]
    fn normalization_keeps_non_finite_data_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = Trajectory2::from_xy(&[(0.0, 1.0), (bad, 2.0), (4.0, 3.0)]);
            let n = t.normalize();
            // The poisoned dimension is not silently zeroed ...
            assert!(n.iter().all(|p| p.x().is_nan()), "{bad}: {n:?}");
            assert!(!n.is_finite());
            // ... and the clean one normalizes as usual.
            let clean = Trajectory2::from_xy(&[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]).normalize();
            for (a, b) in n.iter().zip(clean.iter()) {
                assert_eq!(a.y(), b.y());
            }
        }
    }

    #[test]
    fn normalize_empty_is_noop() {
        assert!(Trajectory2::default().normalize().is_empty());
    }

    #[test]
    fn projection() {
        let t = Trajectory2::from_xy(&[(1.0, 4.0), (2.0, 5.0)]);
        assert_eq!(t.project(0).values(), vec![1.0, 2.0]);
        assert_eq!(t.project(1).values(), vec![4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "projection dimension")]
    fn projection_out_of_range_panics() {
        let t = Trajectory2::from_xy(&[(1.0, 4.0)]);
        let _ = t.project(2);
    }

    #[test]
    fn finite_checks() {
        let ok = Trajectory2::from_xy(&[(1.0, 2.0)]);
        assert!(ok.is_finite());
        assert_eq!(ok.first_non_finite(), None);
        let bad = Trajectory2::from_xy(&[(1.0, 2.0), (f64::NAN, 0.0)]);
        assert!(!bad.is_finite());
        assert_eq!(bad.first_non_finite(), Some(1));
    }

    #[test]
    fn from_iterator_and_into_iter() {
        let t: Trajectory2 = (0..3).map(|i| Point2::xy(i as f64, 0.0)).collect();
        assert_eq!(t.len(), 3);
        let xs: Vec<f64> = (&t).into_iter().map(|p| p.x()).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn one_dimensional_values_roundtrip() {
        let t = Trajectory1::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(t.values(), vec![1.0, 2.0, 3.0]);
    }

    proptest! {
        /// Normalized trajectories have zero mean and unit (or zero) std in
        /// every dimension.
        #[test]
        fn normalization_invariants(xs in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 2..50)) {
            let t = Trajectory2::from_xy(&xs);
            let n = t.normalize();
            let mu = n.mean().unwrap();
            let sd = n.std_dev().unwrap();
            for k in 0..2 {
                prop_assert!(mu[k].abs() < 1e-6);
                prop_assert!(sd[k].abs() < 1e-6 || (sd[k] - 1.0).abs() < 1e-6);
            }
        }

        /// Normalization is idempotent (up to float error).
        #[test]
        fn normalization_idempotent(xs in proptest::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 2..50)) {
            let n1 = Trajectory2::from_xy(&xs).normalize();
            let n2 = n1.normalize();
            for (a, b) in n1.iter().zip(n2.iter()) {
                prop_assert!((a.x() - b.x()).abs() < 1e-6);
                prop_assert!((a.y() - b.y()).abs() < 1e-6);
            }
        }

        /// `rest()` shortens by exactly one and preserves the tail.
        #[test]
        fn rest_shortens_by_one(xs in proptest::collection::vec((-10.0..10.0f64, -10.0..10.0f64), 1..20)) {
            let t = Trajectory2::from_xy(&xs);
            let r = t.rest();
            prop_assert_eq!(r.len(), t.len() - 1);
            for i in 0..r.len() {
                prop_assert_eq!(r[i], t[i + 1]);
            }
        }
    }
}

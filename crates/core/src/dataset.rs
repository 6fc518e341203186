//! Trajectory collections for retrieval engines and labelled experiments.

use crate::{CoreError, Result, Trajectory};

/// A database of trajectories, addressed by dense integer ids
/// (`0..dataset.len()`), which the k-NN engines and pruning filters use as
/// stable handles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset<const D: usize> {
    trajectories: Vec<Trajectory<D>>,
}

impl<const D: usize> Dataset<D> {
    /// Creates a dataset from a vector of trajectories, unchecked; use
    /// [`Dataset::try_new`] for data that may hold non-finite values.
    pub fn new(trajectories: Vec<Trajectory<D>>) -> Self {
        Dataset { trajectories }
    }

    /// Creates a dataset, rejecting non-finite coordinates: a NaN or
    /// infinite value has no place in an ε-match (Definition 1), and
    /// normalizing it would spread it over its whole dimension.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonFiniteValue`] carrying the id of the first
    /// trajectory that holds a NaN, +inf or −inf coordinate.
    pub fn try_new(trajectories: Vec<Trajectory<D>>) -> Result<Self> {
        match trajectories.iter().position(|t| !t.is_finite()) {
            Some(index) => Err(CoreError::NonFiniteValue { index }),
            None => Ok(Dataset::new(trajectories)),
        }
    }

    /// Number of trajectories in the database (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// True iff the database is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// The trajectory with the given id.
    #[inline]
    pub fn get(&self, id: usize) -> Option<&Trajectory<D>> {
        self.trajectories.get(id)
    }

    /// All trajectories, indexable by id.
    #[inline]
    pub fn trajectories(&self) -> &[Trajectory<D>] {
        &self.trajectories
    }

    /// Iterator over `(id, trajectory)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Trajectory<D>)> {
        self.trajectories.iter().enumerate()
    }

    /// Adds a trajectory, returning its id.
    pub fn push(&mut self, t: Trajectory<D>) -> usize {
        self.trajectories.push(t);
        self.trajectories.len() - 1
    }

    /// Length of the longest trajectory in the database (the paper's
    /// `l_max`), or 0 for an empty database.
    pub fn max_len(&self) -> usize {
        self.trajectories
            .iter()
            .map(Trajectory::len)
            .max()
            .unwrap_or(0)
    }

    /// Normalizes every trajectory (see [`Trajectory::normalize`]).
    #[must_use]
    pub fn normalize(&self) -> Self {
        Dataset {
            trajectories: self
                .trajectories
                .iter()
                .map(Trajectory::normalize)
                .collect(),
        }
    }

    /// Consumes the dataset and returns the trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory<D>> {
        self.trajectories
    }
}

impl<const D: usize> FromIterator<Trajectory<D>> for Dataset<D> {
    fn from_iter<I: IntoIterator<Item = Trajectory<D>>>(iter: I) -> Self {
        Dataset::new(iter.into_iter().collect())
    }
}

impl<const D: usize> From<Vec<Trajectory<D>>> for Dataset<D> {
    fn from(v: Vec<Trajectory<D>>) -> Self {
        Dataset::new(v)
    }
}

/// A dataset in which every trajectory carries a class label — the shape of
/// the "Cameramouse" and ASL benchmark sets used for the efficacy tests
/// (§3.2: clustering in Table 1, leave-one-out classification in Table 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabeledDataset<const D: usize> {
    dataset: Dataset<D>,
    labels: Vec<usize>,
    class_names: Vec<String>,
}

impl<const D: usize> LabeledDataset<D> {
    /// Creates a labelled dataset.
    ///
    /// `labels[i]` is the class of trajectory `i` and must index into
    /// `class_names`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if `labels` and the dataset
    /// disagree in length, and [`CoreError::InvalidParameter`] if a label is
    /// out of range of `class_names`.
    pub fn new(dataset: Dataset<D>, labels: Vec<usize>, class_names: Vec<String>) -> Result<Self> {
        if dataset.len() != labels.len() {
            return Err(CoreError::LengthMismatch {
                left: dataset.len(),
                right: labels.len(),
            });
        }
        if labels.iter().any(|&l| l >= class_names.len()) {
            return Err(CoreError::InvalidParameter {
                name: "labels",
                reason: "label out of range of class_names",
            });
        }
        Ok(LabeledDataset {
            dataset,
            labels,
            class_names,
        })
    }

    /// The underlying unlabelled dataset.
    #[inline]
    pub fn dataset(&self) -> &Dataset<D> {
        &self.dataset
    }

    /// The class label of each trajectory.
    #[inline]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The class names.
    #[inline]
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// True iff there are no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// Number of distinct classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Ids of the trajectories belonging to class `c`.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == c).then_some(i))
            .collect()
    }

    /// The sub-dataset containing only classes `a` and `b`, with labels
    /// remapped to 0/1 — the shape the pairwise 2-cluster test of Table 1
    /// consumes ("we take all possible pairs of classes ... and partition
    /// them into two clusters").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if either class is out of
    /// range or the classes are equal.
    pub fn class_pair(&self, a: usize, b: usize) -> Result<LabeledDataset<D>> {
        if a >= self.num_classes() || b >= self.num_classes() || a == b {
            return Err(CoreError::InvalidParameter {
                name: "class_pair",
                reason: "classes must be distinct and in range",
            });
        }
        let mut trajectories = Vec::new();
        let mut labels = Vec::new();
        for (i, &l) in self.labels.iter().enumerate() {
            if l == a || l == b {
                trajectories.push(self.dataset.trajectories()[i].clone());
                labels.push(usize::from(l == b));
            }
        }
        LabeledDataset::new(
            Dataset::new(trajectories),
            labels,
            vec![self.class_names[a].clone(), self.class_names[b].clone()],
        )
    }

    /// Normalizes every trajectory, preserving labels.
    #[must_use]
    pub fn normalize(&self) -> Self {
        LabeledDataset {
            dataset: self.dataset.normalize(),
            labels: self.labels.clone(),
            class_names: self.class_names.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trajectory2;

    fn traj(v: f64) -> Trajectory2 {
        Trajectory2::from_xy(&[(v, v), (v + 1.0, v)])
    }

    #[test]
    fn dataset_basics() {
        let mut ds = Dataset::new(vec![traj(0.0)]);
        assert_eq!(ds.len(), 1);
        let id = ds.push(traj(1.0));
        assert_eq!(id, 1);
        assert_eq!(ds.get(1), Some(&traj(1.0)));
        assert_eq!(ds.get(2), None);
        assert_eq!(ds.max_len(), 2);
        assert_eq!(ds.iter().count(), 2);
    }

    #[test]
    fn try_new_rejects_non_finite_coordinates() {
        assert_eq!(
            Dataset::try_new(vec![traj(0.0), traj(1.0)]),
            Ok(Dataset::new(vec![traj(0.0), traj(1.0)]))
        );
        assert_eq!(Dataset::<2>::try_new(Vec::new()), Ok(Dataset::default()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let poisoned = Trajectory2::from_xy(&[(0.0, 0.0), (1.0, bad)]);
            let got = Dataset::try_new(vec![traj(0.0), traj(1.0), poisoned]);
            assert_eq!(got, Err(CoreError::NonFiniteValue { index: 2 }), "{bad}");
        }
    }

    #[test]
    fn empty_dataset() {
        let ds: Dataset<2> = Dataset::default();
        assert!(ds.is_empty());
        assert_eq!(ds.max_len(), 0);
    }

    #[test]
    fn from_iterator() {
        let ds: Dataset<2> = (0..3).map(|i| traj(i as f64)).collect();
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn labeled_dataset_validation() {
        let ds = Dataset::new(vec![traj(0.0), traj(1.0)]);
        // Length mismatch.
        assert!(LabeledDataset::new(ds.clone(), vec![0], vec!["a".into()]).is_err());
        // Label out of range.
        assert!(LabeledDataset::new(ds.clone(), vec![0, 5], vec!["a".into()]).is_err());
        // Valid.
        let ld = LabeledDataset::new(ds, vec![0, 0], vec!["a".into()]).unwrap();
        assert_eq!(ld.num_classes(), 1);
        assert_eq!(ld.members_of(0), vec![0, 1]);
    }

    #[test]
    fn class_pair_remaps_labels() {
        let ds = Dataset::new(vec![traj(0.0), traj(1.0), traj(2.0), traj(3.0)]);
        let ld = LabeledDataset::new(
            ds,
            vec![0, 1, 2, 1],
            vec!["a".into(), "b".into(), "c".into()],
        )
        .unwrap();
        let pair = ld.class_pair(1, 2).unwrap();
        assert_eq!(pair.len(), 3);
        assert_eq!(pair.labels(), &[0, 1, 0]);
        assert_eq!(pair.class_names(), &["b".to_string(), "c".to_string()]);
        // Invalid pairs.
        assert!(ld.class_pair(0, 0).is_err());
        assert!(ld.class_pair(0, 9).is_err());
    }

    #[test]
    fn normalize_preserves_structure() {
        let ds = Dataset::new(vec![traj(0.0), traj(5.0)]);
        let ld = LabeledDataset::new(ds, vec![0, 1], vec!["a".into(), "b".into()]).unwrap();
        let n = ld.normalize();
        assert_eq!(n.labels(), ld.labels());
        assert_eq!(n.len(), ld.len());
    }
}

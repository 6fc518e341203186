//! Error types shared by the trajsim crates.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised by trajectory construction and core operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An operation that requires a non-empty trajectory received an empty
    /// one (e.g. normalization, statistics).
    EmptyTrajectory,
    /// Two sequences were required to have the same length but did not.
    ///
    /// Euclidean distance (Formula 1) is the main client: the paper notes it
    /// "requires trajectories to be the same length" (§2).
    LengthMismatch {
        /// Length of the left-hand sequence.
        left: usize,
        /// Length of the right-hand sequence.
        right: usize,
    },
    /// Timestamps were supplied but their count differs from the number of
    /// sample points.
    TimestampMismatch {
        /// Number of spatial samples.
        points: usize,
        /// Number of timestamps supplied.
        timestamps: usize,
    },
    /// A numeric parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: &'static str,
    },
    /// A coordinate was NaN or infinite, which has no place in a matching
    /// threshold comparison (Definition 1 needs a total order on
    /// |difference|).
    NonFiniteValue {
        /// Index of the element containing the non-finite coordinate: the
        /// trajectory id for [`crate::Dataset::try_new`].
        index: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyTrajectory => write!(f, "operation requires a non-empty trajectory"),
            CoreError::LengthMismatch { left, right } => write!(
                f,
                "sequences must have equal length, got {left} and {right}"
            ),
            CoreError::TimestampMismatch { points, timestamps } => write!(
                f,
                "trajectory has {points} points but {timestamps} timestamps"
            ),
            CoreError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            CoreError::NonFiniteValue { index } => {
                write!(f, "non-finite coordinate at element {index}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CoreError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));

        let e = CoreError::InvalidParameter {
            name: "epsilon",
            reason: "must be positive and finite",
        };
        assert!(e.to_string().contains("epsilon"));

        let e = CoreError::TimestampMismatch {
            points: 4,
            timestamps: 2,
        };
        assert!(e.to_string().contains("4 points"));
        assert!(CoreError::EmptyTrajectory.to_string().contains("non-empty"));
        assert!(CoreError::NonFiniteValue { index: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CoreError::EmptyTrajectory, CoreError::EmptyTrajectory);
        assert_ne!(
            CoreError::EmptyTrajectory,
            CoreError::LengthMismatch { left: 1, right: 2 }
        );
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(CoreError::EmptyTrajectory);
        assert!(e.source().is_none());
    }
}

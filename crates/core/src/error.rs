//! Error types for dataset construction and operator configuration.

use std::fmt;

/// Errors raised while building a [`crate::GroupedDataset`] or configuring an
/// aggregate-skyline computation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A record had a different number of dimensions than the dataset.
    DimensionMismatch {
        /// Dimensionality declared by the dataset.
        expected: usize,
        /// Dimensionality of the offending record.
        got: usize,
    },
    /// A record contained a non-finite value (NaN or ±∞). Dominance is
    /// undefined on NaN, and infinities break the coordinate-sum ordering
    /// the prepared kernel relies on, so both are rejected at ingestion.
    NonFiniteValue {
        /// Index of the dimension holding the non-finite value.
        dimension: usize,
    },
    /// The dataset has zero dimensions.
    ZeroDimensions,
    /// A group with the given label was inserted twice.
    DuplicateGroup(String),
    /// A group was added with no records; empty groups have no defined
    /// domination probability (the denominator `|R|·|S|` would be zero).
    EmptyGroup(String),
    /// A record index was outside a group's bounds.
    RecordIndexOutOfRange {
        /// Group label.
        group: String,
        /// Requested record index.
        index: usize,
        /// Number of records in the group.
        len: usize,
    },
    /// γ was outside `[0.5, 1]`; Proposition 1 requires `γ ≥ 0.5` for the
    /// dominance relation to be asymmetric.
    InvalidGamma(f64),
    /// A group exceeded [`crate::dataset::MAX_GROUP_LEN`] records, the cap
    /// that keeps every pair-count denominator `|S|·|R|` below `2⁶⁴`.
    GroupTooLarge {
        /// Group label.
        group: String,
        /// Attempted record count.
        len: usize,
    },
    /// `|S|·|R|` overflowed `u64`; a wrapped denominator would silently
    /// inflate domination probabilities, so counting refuses to proceed.
    PairCountOverflow {
        /// `|S|`.
        len_s: usize,
        /// `|R|`.
        len_r: usize,
    },
    /// An operator was configured with an out-of-domain argument (e.g. a
    /// kernel block size of zero). The message names the argument and the
    /// accepted domain.
    InvalidArgument(String),
    /// A parallel worker panicked and the scheduler exhausted its per-pair
    /// retry budget. Transient panics are retried and quarantined instead —
    /// see `Stats::worker_retries` / `workers_quarantined`.
    WorkerPanicked {
        /// Index of the worker that observed the final panic.
        worker: usize,
        /// Index of the candidate pair whose retries were exhausted (the
        /// group count when a worker panicked outside the per-pair guard).
        chunk: usize,
    },
    /// A checkpoint I/O operation failed (the message names the path and
    /// the underlying OS error). Carried as a string because [`Error`] is
    /// `Clone + PartialEq` and `std::io::Error` is neither.
    Io(String),
    /// Resume state failed validation: a frame that decodes but mentions
    /// out-of-range group ids, block cursors beyond the kernel's block-pair
    /// space, or tallies that exceed their denominators. Resuming from such
    /// state could be silently wrong, so it is refused instead.
    CorruptCheckpoint(String),
    /// A structurally valid checkpoint was produced by a *different*
    /// dataset or configuration (its embedded fingerprint does not match
    /// the caller's). Distinct from [`Error::CorruptCheckpoint`]: the frame
    /// is intact, it just answers a different question.
    CheckpointMismatch(String),
    /// An intact frame stores its resume state in a layout this version no
    /// longer reads (DESIGN.md §15). The store skips such a frame like a
    /// corrupt one, so its run restarts cold.
    UnsupportedCheckpoint(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, got } => {
                write!(f, "record has {got} dimensions, dataset expects {expected}")
            }
            Error::NonFiniteValue { dimension } => {
                write!(
                    f,
                    "non-finite value in dimension {dimension}; dominance counting requires \
                     finite coordinates"
                )
            }
            Error::ZeroDimensions => write!(f, "dataset must have at least one dimension"),
            Error::DuplicateGroup(label) => write!(f, "group {label:?} inserted twice"),
            Error::EmptyGroup(label) => write!(f, "group {label:?} has no records"),
            Error::RecordIndexOutOfRange { group, index, len } => {
                write!(f, "record index {index} out of range for group {group:?} of {len} records")
            }
            Error::InvalidGamma(g) => {
                write!(f, "gamma {g} outside [0.5, 1]; asymmetry requires gamma >= 0.5")
            }
            Error::GroupTooLarge { group, len } => {
                write!(
                    f,
                    "group {group:?} has {len} records, above the cap that keeps |S|*|R| \
                     pair counts below 2^64"
                )
            }
            Error::PairCountOverflow { len_s, len_r } => {
                write!(f, "pair count {len_s}*{len_r} overflows u64")
            }
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::WorkerPanicked { worker, chunk } => {
                write!(
                    f,
                    "parallel worker {worker} panicked repeatedly on the chunk starting at \
                     group {chunk}; retries exhausted"
                )
            }
            Error::Io(msg) => write!(f, "checkpoint i/o failed: {msg}"),
            Error::CorruptCheckpoint(msg) => write!(f, "corrupt checkpoint: {msg}"),
            Error::CheckpointMismatch(msg) => {
                write!(f, "checkpoint belongs to a different dataset/configuration: {msg}")
            }
            Error::UnsupportedCheckpoint(msg) => {
                write!(f, "checkpoint layout no longer read: {msg}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

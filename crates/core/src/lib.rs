//! # aggsky-core
//!
//! A from-scratch implementation of **aggregate skyline queries** — the
//! operator introduced in *"From Stars to Galaxies: skyline queries on
//! aggregate data"* (M. Magnani, I. Assent, EDBT 2013).
//!
//! A traditional skyline returns the records of a table not Pareto-dominated
//! by any other record. An *aggregate* skyline answers the analogous
//! question about **groups** of records ("who are the most interesting
//! directors, given their movies?"): group `S` γ-dominates group `R` when a
//! randomly drawn record of `S` dominates a randomly drawn record of `R`
//! with probability greater than γ (Definition 3), and the aggregate
//! skyline is the set of groups no other group γ-dominates.
//!
//! ```
//! use aggsky_core::{Algorithm, Gamma, GroupedDatasetBuilder};
//!
//! // Movies as (popularity, quality) records grouped by director.
//! let mut b = GroupedDatasetBuilder::new(2);
//! b.push_group("Tarantino", &[vec![313.0, 8.2], vec![557.0, 9.0]]).unwrap();
//! b.push_group("Kershner", &[vec![362.0, 8.8]]).unwrap();
//! b.push_group("Wiseau", &[vec![10.0, 3.2]]).unwrap();
//! let ds = b.build().unwrap();
//!
//! let result = Algorithm::Indexed.run(&ds, Gamma::DEFAULT);
//! assert_eq!(ds.sorted_labels(&result.skyline), vec!["Kershner", "Tarantino"]);
//! ```
//!
//! ## Modules
//!
//! * [`dominance`] — record-level Pareto dominance (Definition 1).
//! * [`dataset`] — the grouped data model (`U_g`).
//! * [`gamma`] — γ-dominance, `γ̄`, domination probabilities.
//! * [`matrix`] — domination matrices (the Proposition 5 proof machinery).
//! * [`mbb`] — group bounding boxes and corner pruning (Figure 9).
//! * [`paircount`] — pairwise counting with the Section 3.3 stopping rule.
//! * [`prepared`] — one-time sort/block/lane preprocessing for the kernel.
//! * [`kernel`] — block-at-a-time pair counting over a prepared dataset.
//! * [`algorithms`] — NL, TR, SI, IN, LO, the naive oracle and a parallel
//!   extension.
//! * [`record_skyline`] — classic record skylines (BNL, SFS) as substrate.
//! * [`ranking`] — min-γ ranking of groups (Section 2.2).
//! * [`properties`] — executable checkers for the paper's properties.
//! * [`dynamic`] — incremental maintenance under inserts/removes.
//! * [`anytime`] — budgeted, progressive, resumable computation.
//! * [`runctx`] — execution control: cancellation, virtual-clock budgets,
//!   `chaos` fault injection.
//! * [`ord`] — sanctioned total-order float comparisons (lint rule L2).
//! * [`num`] — sanctioned numeric conversions and overflow-checked pair
//!   counting (lint rule L3).
//! * [`invariants`] — `debug_assert!`-based structural contracts, compiled
//!   in behind the `invariants` feature.
//! * [`columnar`] — branch-reduced bitmask kernel for straddling block
//!   pairs over the preparation's structure-of-arrays key lanes.
//! * [`simd`] — the AVX2-vectorized twin of the columnar kernel, selected
//!   at runtime and bit-identical to it (the only sanctioned `unsafe`
//!   module, lint rule L7).
//! * [`cpu`] — runtime CPU-feature detection and the `AGGSKY_FORCE_SCALAR`
//!   override policy (deliberately off the counting path: it reads the
//!   environment).
//! * [`paircache`] — cross-γ memoization of pair tallies, resumable at the
//!   kernel's block cursor.
//! * [`sweep`] — γ-sweep driver sharing one preparation and one pair cache
//!   across thresholds.
//! * [`persist`] — durable crash-consistent checkpoints: CRC-64 frame
//!   codec, atomic temp+fsync+rename store with graceful degradation, and
//!   the fingerprint-bound durable anytime drivers.
//! * [`service`] — epoch-based live serving: snapshot readers that wait
//!   only for a pointer swap, a single incremental writer with atomic
//!   publication, durable epochs.

#![warn(missing_docs)]

pub use aggsky_obs as obs;

pub mod algorithms;
pub mod anytime;
pub mod columnar;
pub mod cpu;
pub mod dataset;
pub mod dominance;
pub mod dynamic;
pub mod error;
pub mod explain;
pub mod gamma;
pub mod invariants;
pub mod kernel;
pub mod matrix;
pub mod mbb;
pub mod num;
pub mod ord;
pub mod paircache;
pub mod paircount;
pub mod persist;
pub mod prepared;
pub mod properties;
pub mod ranking;
pub mod record_skyline;
pub mod runctx;
pub mod service;
pub mod simd;
pub mod skyband;
pub mod skycube;
pub mod stats;
pub mod subspace;
pub mod sweep;

#[cfg(test)]
pub(crate) mod testdata;

pub use algorithms::{
    indexed, naive_skyline, nested_loop, parallel_skyline, parallel_skyline_ctx,
    parallel_skyline_with, resolve_threads, sorted, transitive, AlgoOptions, Algorithm, Pruning,
    SkylineResult, SortStrategy,
};
pub use anytime::{
    anytime_resume, anytime_resume_ctx, anytime_skyline, anytime_skyline_ctx, anytime_skyline_with,
    AnytimeCheckpoint, AnytimeResult, GroupCursor,
};
pub use dataset::{GroupId, GroupedDataset, GroupedDatasetBuilder};
pub use dominance::{compare, dominates, Direction, DomRelation};
pub use dynamic::{DynSkyline, DynamicAggregateSkyline, FlushReport};
pub use error::{Error, Result};
pub use explain::{
    explain_membership, pair_contribution, stars_of, Membership, PairContribution, Threat,
};
pub use gamma::{domination_count, domination_probability, gamma_dominates, Gamma};
pub use kernel::{count_pairs, count_segments, BoundedCompare, Kernel, KernelConfig};
pub use matrix::DominationMatrix;
pub use mbb::Mbb;
pub use paircache::{CachedTally, PairCache};
pub use paircount::{
    compare_groups, compare_groups_exhaustive, DomLevel, PairOptions, PairVerdict,
};
pub use persist::{
    checkpoint_step, checkpoint_step_with, is_regression, render_profile_diff, run_durable,
    CheckpointStore, DurableOutcome, Fingerprint, PairEntry, ProfileSnapshot, Recovery,
    SaveReceipt, SkippedFrame, Snapshot,
};
#[cfg(feature = "chaos")]
pub use persist::{IoFaultKind, IoFaultPlan};
pub use prepared::{BlockView, LaneBlock, PreparedDataset, LANE_VECTOR, MAX_LANE_BLOCK};
pub use ranking::{min_gamma_per_group, ranked_skyline, RankedGroup};
pub use runctx::{CancelToken, InterruptReason, Outcome, RunContext};
#[cfg(feature = "chaos")]
pub use runctx::{FaultKind, FaultPlan};
pub use service::{Epoch, EpochReceipt, ServeRecovery, SkylineService, WriteBatch, WriteOp};
pub use skyband::{k_skyband, top_k_robust};
pub use skycube::{skycube, Skycube, SubspaceSkyline};
pub use stats::Stats;
pub use sweep::{gamma_sweep, gamma_sweep_ctx, SweepOutcome, SweepResult};

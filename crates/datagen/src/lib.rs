//! # aggsky-datagen
//!
//! Workload generators for the aggregate-skyline evaluation:
//!
//! * [`Distribution`] — the classic Börzsönyi independent / correlated /
//!   anti-correlated record distributions,
//! * [`SyntheticConfig`] — grouped synthetic datasets with the paper's knobs
//!   (records, records per class, class spread, dimensionality, uniform or
//!   Zipfian class sizes),
//! * [`movies`] — the Figure 1 running example and a Figure 5 / Table 2
//!   reconstruction,
//! * [`nba`] — a synthetic stand-in for the paper's real NBA dataset,
//! * [`csv`] — dependency-free CSV import/export of grouped datasets,
//! * [`Zipf`] — a small Zipf sampler used by the above,
//! * [`Rng64`] — a seeded `splitmix64`/`xoshiro256**` PRNG (no external
//!   `rand` dependency, so the workspace builds offline).
//!
//! Every generator is deterministic given its seed.

#![warn(missing_docs)]

pub mod csv;
pub mod distributions;
pub mod groups;
pub mod hospitals;
pub mod movies;
pub mod nba;
pub mod rng;
pub mod zipf;

pub use csv::{csv_value_columns, parse_grouped_csv, to_grouped_csv, CsvError, GroupedCsv};
pub use distributions::Distribution;
pub use groups::{ungrouped_records, GroupSizes, SyntheticConfig};
pub use hospitals::{generate_hospitals, hospital_directions, HOSPITAL_METRICS};
pub use movies::{figure5_directors, movie_table, movies_by_director, Movie};
pub use nba::{generate_nba, nba_dataset, NbaGrouping, NbaRecord, STAT_NAMES};
pub use rng::Rng64;
pub use zipf::Zipf;

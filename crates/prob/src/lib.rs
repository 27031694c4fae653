//! Probability substrate for the CPD reproduction.
//!
//! The offline dependency allowlist contains `rand` but not `rand_distr` or
//! any special-function crate, so this crate implements the numeric
//! machinery the inference stack needs:
//!
//! * special functions ([`special`]): `ln_gamma`, `digamma`, `erf`/`erfc`,
//!   `sigmoid`, `log_sum_exp`, …
//! * samplers ([`normal`], [`gamma`], [`beta`], [`dirichlet`],
//!   [`exponential`], [`inverse_gaussian`], [`categorical`], [`zipf`])
//! * running statistics and correlation helpers ([`stats`])
//! * deterministic seeding utilities ([`rng`])
//!
//! Everything is `f64`, allocation-free on the sampling hot paths, and
//! validated by moment tests and property tests.

pub mod beta;
pub mod categorical;
pub mod dirichlet;
pub mod exponential;
pub mod gamma;
pub mod inverse_gaussian;
pub mod logcache;
pub mod normal;
pub mod poisson;
pub mod rng;
pub mod special;
pub mod stats;
pub mod zipf;

pub use categorical::{
    draw_prepared, exp_shift_total, prepare_log_weights, sample_index, sample_log_index,
    sample_log_index_mut, AliasTable, CumulativeTable,
};
pub use dirichlet::{sample_dirichlet, sample_symmetric_dirichlet};
pub use logcache::{LogCountCache, LogShiftCache};
pub use rng::{child_rng, seeded_rng, SeedStream};
pub use special::{digamma, erf, erfc, ln_gamma, log1pexp, log_sum_exp, sigmoid};
pub use stats::RunningStats;

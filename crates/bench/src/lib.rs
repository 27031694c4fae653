//! Shared experiment harness for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index). They share the dataset
//! presets, cross-validation loops, negative samplers and method
//! dispatch implemented here.
//!
//! All binaries take an optional scale argument
//! (`tiny` | `small` | `medium`, default `small`) and print the
//! regenerated rows/series to stdout. An argument they cannot read
//! exits 2 with the binary's usage line, before any data is generated.

pub mod harness;
pub mod methods;

pub use harness::*;
pub use methods::*;

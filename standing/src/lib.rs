//! The repo's standing benchmark (see `README.md` next to this crate's manifest).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cli;
pub mod gate;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod runs;
pub mod stats;
pub mod summary;
pub mod trace;
pub mod wrappers;

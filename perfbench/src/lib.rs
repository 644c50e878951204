//! # perfbench — the repository's benchmark
//!
//! Three workloads (`kernels-exec`, `fuzz-compile`, `serve-mixed`), each
//! measured end to end (untraced) or layer by layer (traced), by timing
//! calls into the public functions of the repository's crates. See
//! `perfbench/README.md` for the workloads and the metric map.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compile;
pub mod exec;
pub mod inputs;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

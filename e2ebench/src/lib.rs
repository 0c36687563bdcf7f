//! End-to-end, layer-by-layer benchmark of the `cfa` pipeline.
//!
//! Four seeded workloads (`dump`, `races`, `serve`, `parallel`) run
//! closed loops from source text to emitted bytes, check every output
//! outside the timed region, and report end-to-end metrics; a traced
//! run wraps a span around every call into a layer and reports
//! per-layer self time, counts and the tracing overhead. See
//! `e2ebench/README.md`.

#![warn(missing_docs)]

pub mod calib;
pub mod cells;
pub mod check;
pub mod job;
pub mod procfs;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

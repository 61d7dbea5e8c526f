//! Retired parallel-sweep settings.
//!
//! The sweep once had a thread-sharded variant selected by
//! [`SWEEP_THREADS_ENV`]. Its measured speedups came from the
//! column-blocked `⊓` fold, which the sequential gate
//! ([`summary::certify`](crate::summary::certify)) now uses itself, so
//! the threads and their knob were removed. Only the variable's name
//! remains, because the repository benchmark (`perfbench`) names it to
//! refuse runs that set it.

/// Name of the environment variable that once selected the parallel sweep.
/// No code reads it any more; it stays only for the repository benchmark,
/// which refuses to run with it set, until a benchmark change drops it.
pub const SWEEP_THREADS_ENV: &str = "FTSCP_SWEEP_THREADS";

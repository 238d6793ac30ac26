//! End-to-end benchmark of the MC2LS workspace: three workloads
//! (`solve-c`, `query-n`, `live-n`), each checked answer by answer, with a
//! traced mode that times calls into each layer's public functions. See
//! README.md for the workloads, the metrics and how to run it.

pub mod common;
pub mod live_n;
pub mod query_n;
pub mod report;
pub mod serving;
pub mod solve_c;
pub mod trace;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["solve-c", "query-n", "live-n"];

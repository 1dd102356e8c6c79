//! # mgpu-graph — graph data substrate
//!
//! Compressed sparse row/column graph structures with the properties the
//! paper's pipeline needs:
//!
//! * Generic vertex-id and edge-offset widths ([`Id`] over `u32` / `u64`) —
//!   the Table V experiment measures the bandwidth cost of moving from
//!   32-bit to 64-bit vertex and edge ids ("reads 2× data per edge …
//!   records 0.5× performance").
//! * A builder that performs the paper's preprocessing (§VII-A): convert to
//!   undirected, remove self-loops and duplicate edges.
//! * CSC (reverse) adjacency for pull-mode traversal — the backward half of
//!   direction-optimizing BFS.
//! * Statistics used by Table II: vertex/edge counts and a BFS-sampled
//!   pseudo-diameter ("approximated diameter computed by multiple runs of
//!   random-sourced BFS").

pub mod builder;
pub mod coo;
pub mod csr;
pub mod ids;
pub mod io;
#[cfg(test)]
mod oracle;
pub mod stats;

pub use builder::{BuildOptions, CsrAuto, GraphBuilder};
pub use coo::Coo;
pub use csr::{Csr, CsrError};
pub use ids::Id;
pub use io::{read_mtx, write_mtx, MtxError};
pub use stats::{degree_stats, estimate_diameter, DegreeStats};

//! Baseline MTM retrieval methods the paper compares Direct Mesh against.
//!
//! * [`pm`] — Progressive Mesh stored in a database and indexed by the
//!   **LOD-quadtree** (Xu, ADC 2003), the best previously reported access
//!   method for MTM data. A query fetches the whole selective-refinement
//!   sub-tree `M'` (every node with `e_high` above the query LOD inside
//!   the ROI), completes missing out-of-ROI ancestors through B+-tree
//!   point lookups, and refines in memory from the root mesh.
//! * [`hdov`] — the **HDoV-tree** (Shou, Huang & Tan, ICDE 2003): an
//!   LOD-R-tree over terrain tiles with per-node generalized meshes,
//!   degree-of-visibility values, and the "indexed-vertical" storage
//!   scheme. Traversal stops at nodes whose stored LOD suffices (adjusted
//!   by visibility) and fetches whole node meshes.
//!
//! Both run on the same `dm-storage` pages and buffer pool as Direct
//! Mesh, so disk-access counts are directly comparable.

#![forbid(unsafe_code)]

pub mod hdov;
pub mod pm;

pub use hdov::{HdovDb, HdovResult};
pub use pm::{PmDb, PmQueryResult};

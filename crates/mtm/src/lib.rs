//! Multiresolution triangular meshes (MTM).
//!
//! This crate builds the Progressive-Mesh-style binary vertex hierarchy
//! that both the Direct Mesh structure (`dm-core`) and the baselines
//! (`dm-baselines`) operate on:
//!
//! * [`quadric`] — Quadric Error Metrics (Garland & Heckbert 1997), the
//!   paper's pre-processing error measure,
//! * [`builder`] — bottom-up PM construction by repeated full-edge
//!   collapse: two nodes collapse into a freshly created parent carrying
//!   an approximation error, `parent`/`child1`/`child2` links and the two
//!   *wing* vertices (paper §2). Collapse order is made globally
//!   monotone in the normalized error, which turns every uniform LOD cut
//!   into an exact construction prefix (see DESIGN.md),
//! * [`hierarchy`] — the node table with LOD intervals
//!   `[e_low, e_high)`, subtree footprints, ancestor tests, uniform cuts
//!   and construction replay (the reference semantics used by tests),
//! * [`refine`](mod@refine) — the runtime refinement engine: an explicit front mesh
//!   that performs vertex splits (with wing re-resolution and forced
//!   splits) to reach any viewpoint-independent or viewpoint-dependent
//!   LOD target.

#![forbid(unsafe_code)]

pub mod builder;
pub mod hierarchy;
pub mod persist;
pub mod quadric;
pub mod refine;

pub use builder::{build_pm, PmBuild, PmBuildConfig, PmBuildStats};
pub use hierarchy::{PmHierarchy, PmNode, NIL_ID};
pub use refine::{refine, FrontMesh, LodTarget, PlaneTarget, RecordSource, UniformTarget};

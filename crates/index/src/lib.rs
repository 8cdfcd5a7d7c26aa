//! Disk-based spatial indexes.
//!
//! * [`rstar`] — a 3D R\*-tree (Beckmann et al., SIGMOD 1990): the index
//!   the paper puts on Direct Mesh vertical segments in `(x, y, e)` space.
//!   Supports dynamic R\* insertion (choose-subtree by overlap, forced
//!   reinsertion, margin-driven split) and Sort-Tile-Recursive bulk
//!   loading.
//! * [`quadtree`] — the adaptive 3D "LOD-quadtree" of Xu (ADC 2003) used
//!   by the Progressive Mesh baseline: quadrant splits in `(x, y)` plus
//!   adaptive median splits in the heavily skewed LOD dimension.
//! * [`costmodel`] — the R-tree range-query disk-access estimator of the
//!   paper's equation (1), `DA(R, q) = Σ_i (q_x + w_i)(q_y + h_i)(q_z +
//!   d_i)`, driving the multi-base query optimizer.
//!
//! Both index structures store their nodes in `dm-storage` pages, so every
//! node touched by a query is a counted disk access.

#![forbid(unsafe_code)]

pub mod costmodel;
pub mod quadtree;
pub mod rstar;

pub use costmodel::RtreeCostModel;
pub use quadtree::LodQuadtree;
pub use rstar::RStarTree;

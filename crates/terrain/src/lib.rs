//! Terrain data: synthetic DEMs, heightfield grids and triangle meshes.
//!
//! The paper evaluates on two real DEMs (a 2M-point proprietary mining
//! dataset and the 17M-point USGS "Crater Lake National Park" model).
//! Neither is available, so [`generate`] provides synthetic stand-ins with
//! the same statistical character: fractal relief (uniform point density
//! in `(x, y)`, heavily skewed detail distribution) and a crater generator
//! mimicking Crater Lake's rim/caldera/lake structure. See DESIGN.md §2
//! for the substitution argument.
//!
//! [`mesh::TriMesh`] is the editable triangulation used during
//! simplification: it supports the full-edge collapse that Progressive
//! Mesh construction performs, reports *wing* vertices (the two vertices
//! adjacent to both endpoints of the collapsed edge — the paper's `wing1`/
//! `wing2` fields), and validates manifoldness.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod generate;
pub mod heightfield;
pub mod io;
pub mod mesh;
pub mod metrics;
pub mod obj;

pub use heightfield::Heightfield;
pub use mesh::{CollapseError, CollapseResult, TriMesh};

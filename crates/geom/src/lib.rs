//! Geometry primitives shared by every crate in the Direct Mesh workspace.
//!
//! The types here are deliberately small and dependency-free:
//!
//! * [`Vec2`] / [`Vec3`] — double-precision points/vectors,
//! * [`Rect`] / [`Box3`] — axis-aligned bounding rectangles and boxes,
//! * [`Interval`] — half-open `[lo, hi)` scalar intervals (used for the
//!   LOD intervals of Direct Mesh nodes),
//! * [`hilbert`] — a Hilbert space-filling curve used to cluster terrain
//!   records on disk in `(x, y)` order,
//! * [`tri`] — robust-enough 2D orientation and triangle predicates used by
//!   the mesh simplifier and the planar face-extraction step.
//!
//! Everything is `f64` in memory; storage layers narrow to `f32` on disk.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod hilbert;
pub mod interval;
pub mod tri;
pub mod vec;

pub use aabb::{Box3, Rect};
pub use interval::Interval;
pub use vec::{Vec2, Vec3};

//! Multi-terrain world catalog: serve many Direct Mesh regions from one
//! process.
//!
//! The paper's system manages a single terrain database; deployments
//! hold many — a planet of tiles, several unrelated datasets, or one
//! huge terrain split for build parallelism. This crate adds a thin
//! catalog layer over unmodified single-terrain stores:
//!
//! * [`manifest`] — the versioned, checksummed world manifest mapping
//!   region ids to store paths and world-frame placement,
//! * [`WorldDb`] — lazy region opens behind an LRU handle cap, a shared
//!   page budget weighted per region (separate pools: a viral region
//!   can never evict a cold one's pages), a region-level R\*-tree for
//!   cross-tile fan-out, and world-frame VI/VD queries that are
//!   bit-identical to single-store answers for split worlds,
//! * [`WorldScope`] — the borrowed view (whole world or one region) that
//!   implements `dm_core`'s query seam, so every query body — and the
//!   navigation session — is the single store's; the [`WorldDb`] itself
//!   implements it as the whole-world view,
//! * [`WorldSession`] — the pins a walkthrough holds on the regions
//!   under its latest frame,
//! * [`build`] — splitting one store into a tiled world and assembling
//!   independent stores into one (`dm world-build`).

#![forbid(unsafe_code)]

pub mod build;
pub mod manifest;
pub mod world;

pub use build::{assemble_manifest, partition_grid, split_world_in_memory, write_split_world};
pub use manifest::{RegionMeta, WorldManifest};
pub use world::{
    open_region_store, RegionStats, WorldDb, WorldOptions, WorldScope, WorldSession,
    DEFAULT_REGION_PAGES,
};

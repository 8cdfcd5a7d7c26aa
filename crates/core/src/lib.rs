//! Direct Mesh (DM): the multiresolution terrain structure of Xu, Zhou &
//! Lin (ICDE 2004).
//!
//! A Direct Mesh node is a Progressive Mesh node plus (a) a normalized
//! LOD interval `[e_low, e_high)` and (b) the list of *connection points
//! with similar LOD* — the nodes whose intervals overlap its own and that
//! are ever adjacent to it during construction. Stored in a database
//! (heap table + id directory + 3D R\*-tree over `(x, y, e)` vertical
//! segments), these lists let queries fetch exactly the points of an
//! approximation *and* its topology without touching ancestor nodes:
//!
//! * [`DirectMeshDb::try_vi_query`] — viewpoint-independent: one degenerate
//!   range query (a *query plane*), then face extraction straight from
//!   the connection lists,
//! * [`DirectMeshDb::try_vd_single_base`] — viewpoint-dependent: one query
//!   cube bounded by the tilted query plane's LOD range; mesh built on
//!   the top plane and refined down (paper Algorithm 1),
//! * [`DirectMeshDb::try_vd_multi_base`] — the cost-model-driven optimization
//!   (paper §5.3): the ROI is recursively split into strips with
//!   individually smaller query cubes whenever the R-tree disk-access
//!   model (eq. 1–7) predicts a win.
//!
//! Each query body exists once, in [`query`], generic over the
//! [`RecordStore`] seam (LOD clamp, the one range fetch, point lookup,
//! the planner's cost probe): [`query::vi_query_flat`],
//! [`query::plan_multi_base`], [`query::vd_with_strips`] and
//! [`query::vd_multi_base`]. A [`DirectMeshDb`] implements the seam with
//! its one page scan ([`DirectMeshDb::range_scan`], into a
//! [`FetchedSet`] arena — a query plane is a one-box batch); the
//! `dm-world` catalog implements it by fanning out to regions. The
//! methods above are one-line callers of those bodies; each returns the
//! answer with an [`IntegrityReport`] of any data it could not read.
//!
//! Modules: [`record`] (on-disk codec), [`store`] (database build and
//! fetch paths), [`faces`] (planar face extraction from connection
//! lists), [`query`] (the three query algorithms and the optimizer),
//! [`stats`] (the §4 connection-point statistics), [`catalog`]
//! (persistence), [`navigation`] (walkthrough sessions).
//!
//! ```
//! use std::sync::Arc;
//! use dm_core::{DirectMeshDb, DmBuildOptions};
//! use dm_mtm::builder::{build_pm, PmBuildConfig};
//! use dm_storage::{BufferPool, MemStore};
//! use dm_terrain::{generate, TriMesh};
//!
//! // Terrain -> PM hierarchy -> Direct Mesh database.
//! let hf = generate::fractal_terrain(17, 17, 7);
//! let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
//! let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
//! let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
//!
//! // One range query returns an approximation *and* its topology.
//! let e = db.e_for_points_fraction(0.25);
//! db.try_cold_start().unwrap();
//! let (res, report) = db.try_vi_query(&db.bounds, e).unwrap();
//! assert!(report.is_clean());
//! assert!(res.points > 0 && res.front.num_triangles() > 0);
//! let (mesh, _ids) = res.front.to_trimesh();
//! mesh.validate().unwrap();
//! assert!(db.disk_accesses() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod faces;
pub mod live;
pub mod navigation;
pub mod parallel;
pub mod query;
pub mod record;
pub mod stats;
pub mod store;
pub mod verify;

pub use live::{LiveDb, LiveOptions, PatchStats, RecoveryInfo};
pub use navigation::{FrameStats, NavigationSession, PlanDecision};
pub use parallel::{vd_query_batch, vi_query_batch};
pub use query::{
    equal_strips, uniform_cut, BoundaryPolicy, RecordStore, VdQuery, VdResult, ViFlatResult,
    ViResult,
};
pub use record::{DmRecord, FetchedSet};
pub use store::{
    DbStats, DirectMeshDb, DmBuildOptions, EditOp, FetchCounters, IntegrityReport, PatchOutcome,
};
pub use verify::{verify_store, VerifyReport};

/// The answer of a fault-tolerant query that must have lost no data.
#[cfg(test)]
fn unwrap_clean<T>(answer: dm_storage::StorageResult<(T, IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

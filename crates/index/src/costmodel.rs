//! The R-tree range-query disk-access estimator (paper equation 1).
//!
//! For an R-tree `R` with `N` nodes and a range query `q`,
//!
//! ```text
//! DA(R, q) = Σ_{i=1..N} (q_x + w_i) · (q_y + h_i) · (q_z + d_i)
//! ```
//!
//! where `(w_i, h_i, d_i)` are node `i`'s extents and all values are
//! normalized to the data space (Kamel & Faloutsos 1993; Pagel et al.
//! 1993). The term for node `i` is the probability that a uniformly
//! placed query of that size intersects the node, so the sum estimates the
//! expected number of node accesses.
//!
//! The multi-base optimizer of `dm-core` evaluates this formula for the
//! single-cube plan and for candidate split plans (paper equations 2–9).

use dm_geom::{Box3, Vec3};

/// Cached per-node statistics of an R-tree.
#[derive(Clone, Debug)]
pub struct RtreeCostModel {
    /// Normalized node extents `(w_i, h_i, d_i)` (for eq. 1).
    extents: Vec<Vec3>,
    /// The raw node regions (for exact a-priori counting).
    regions: Vec<Box3>,
    space: Box3,
}

impl RtreeCostModel {
    /// Build from raw node regions (as returned by
    /// `RStarTree::collect_node_regions`) and the data-space box.
    pub fn new(node_regions: &[Box3], space: Box3) -> Self {
        let ext = space.extent();
        let norm = |v: f64, e: f64| if e > 0.0 { (v / e).min(1.0) } else { 0.0 };
        let regions: Vec<Box3> = node_regions
            .iter()
            .copied()
            .filter(|r| !r.is_empty())
            .collect();
        let extents = regions
            .iter()
            .map(|r| {
                let e = r.extent();
                Vec3::new(norm(e.x, ext.x), norm(e.y, ext.y), norm(e.z, ext.z))
            })
            .collect();
        RtreeCostModel {
            extents,
            regions,
            space,
        }
    }

    /// Number of nodes in the model.
    pub fn num_nodes(&self) -> usize {
        self.extents.len()
    }

    pub fn space(&self) -> Box3 {
        self.space
    }

    /// Estimated disk accesses for one range query (paper eq. 1). Each
    /// node's term is an intersection probability, so it is clamped at 1
    /// (the raw product exceeds 1 for large queries).
    pub fn estimate(&self, q: &Box3) -> f64 {
        let ext = self.space.extent();
        let norm = |v: f64, e: f64| if e > 0.0 { (v / e).min(1.0) } else { 0.0 };
        let qe = q.extent();
        let (qx, qy, qz) = (norm(qe.x, ext.x), norm(qe.y, ext.y), norm(qe.z, ext.z));
        self.extents
            .iter()
            .map(|w| ((qx + w.x) * (qy + w.y) * (qz + w.z)).min(1.0))
            .sum()
    }

    /// Estimated total disk accesses for a multi-query plan (paper eq. 2
    /// generalized to any number of cubes).
    pub fn estimate_plan(&self, cubes: &[Box3]) -> f64 {
        cubes.iter().map(|q| self.estimate(q)).sum()
    }

    /// Exact number of stored node regions intersecting a *concrete*
    /// query box. Eq. 1 prices a query of some size at a uniformly random
    /// position; once the position is known, counting the regions
    /// directly is both cheap (optimizer statistics live in memory) and
    /// far more accurate on skewed data — the multi-base planner uses
    /// this.
    pub fn count_intersecting(&self, q: &Box3) -> usize {
        self.regions.iter().filter(|r| r.intersects(q)).count()
    }

    /// The raw (non-empty) regions the model counts over: data-page boxes
    /// first, then index node regions.
    pub fn regions(&self) -> &[Box3] {
        &self.regions
    }

    /// Exact number of node regions intersecting *any* box of a plan —
    /// pages shared between query cubes are fetched once (the buffer pool
    /// caches within one query), so plan costs must not double-count.
    pub fn count_union(&self, cubes: &[Box3]) -> usize {
        self.count_unions(std::slice::from_ref(&cubes))[0]
    }

    /// [`Self::count_union`] for several candidate plans over the same
    /// ground: the regions meeting the hull of *all* the cubes are
    /// gathered once and every plan is counted inside that subset, so the
    /// work follows the query's extent, not the size of the store.
    pub fn count_unions<P: AsRef<[Box3]>>(&self, plans: &[P]) -> Vec<usize> {
        let hull = plans
            .iter()
            .flat_map(|p| p.as_ref())
            .fold(Box3::EMPTY, |h, q| h.union(q));
        let local: Vec<&Box3> = self
            .regions
            .iter()
            .filter(|r| r.intersects(&hull))
            .collect();
        plans
            .iter()
            .map(|p| {
                let cubes = p.as_ref();
                local
                    .iter()
                    .filter(|r| cubes.iter().any(|q| r.intersects(q)))
                    .count()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x0: f64, y0: f64, z0: f64, x1: f64, y1: f64, z1: f64) -> Box3 {
        Box3::new(Vec3::new(x0, y0, z0), Vec3::new(x1, y1, z1))
    }

    fn unit_space() -> Box3 {
        b(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    }

    #[test]
    fn point_query_costs_total_node_volume() {
        // A degenerate (point) query hits node i with probability
        // w_i · h_i · d_i.
        let nodes = vec![
            b(0.0, 0.0, 0.0, 0.5, 0.5, 0.5),
            b(0.5, 0.5, 0.5, 1.0, 1.0, 1.0),
        ];
        let m = RtreeCostModel::new(&nodes, unit_space());
        let q = Box3::point(Vec3::new(0.3, 0.3, 0.3));
        assert!((m.estimate(&q) - 2.0 * 0.125).abs() < 1e-12);
    }

    #[test]
    fn full_space_query_costs_all_nodes_at_least() {
        let nodes: Vec<Box3> = (0..10)
            .map(|i| b(0.0, 0.0, i as f64 * 0.1, 0.1, 0.1, i as f64 * 0.1 + 0.1))
            .collect();
        let m = RtreeCostModel::new(&nodes, unit_space());
        assert!(m.estimate(&unit_space()) >= 10.0);
    }

    #[test]
    fn bigger_queries_cost_more() {
        let nodes: Vec<Box3> = (0..20)
            .map(|i| {
                let t = i as f64 / 20.0;
                b(t, t, 0.0, (t + 0.1).min(1.0), (t + 0.1).min(1.0), 0.2)
            })
            .collect();
        let m = RtreeCostModel::new(&nodes, unit_space());
        let small = m.estimate(&b(0.4, 0.4, 0.0, 0.5, 0.5, 0.1));
        let large = m.estimate(&b(0.1, 0.1, 0.0, 0.9, 0.9, 0.2));
        assert!(small < large);
    }

    #[test]
    fn split_plan_beats_single_cube_for_staircase_queries() {
        // The situation of paper Fig. 5: a tilted query plane approximated
        // by one big cube vs two half-width cubes with lower tops. With
        // small nodes, halving the wasted volume must reduce estimated DA.
        let mut nodes = Vec::new();
        for i in 0..30 {
            for j in 0..30 {
                let x = i as f64 / 30.0;
                let y = j as f64 / 30.0;
                nodes.push(b(x, y, 0.0, x + 1.0 / 30.0, y + 1.0 / 30.0, 0.05));
            }
        }
        let m = RtreeCostModel::new(&nodes, unit_space());
        let single = m.estimate(&b(0.0, 0.0, 0.0, 1.0, 1.0, 1.0));
        let plan = m.estimate_plan(&[
            b(0.0, 0.0, 0.0, 1.0, 0.5, 0.5),
            b(0.0, 0.5, 0.5, 1.0, 1.0, 1.0),
        ]);
        assert!(plan < single, "plan {plan} !< single {single}");
    }

    #[test]
    fn degenerate_space_extent_is_safe() {
        // 2D data (zero z extent) must not divide by zero.
        let nodes = vec![b(0.0, 0.0, 0.0, 0.5, 0.5, 0.0)];
        let m = RtreeCostModel::new(&nodes, b(0.0, 0.0, 0.0, 1.0, 1.0, 0.0));
        let est = m.estimate(&b(0.1, 0.1, 0.0, 0.2, 0.2, 0.0));
        assert!(est.is_finite());
    }

    #[test]
    fn empty_regions_are_ignored() {
        let nodes = vec![Box3::EMPTY, b(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)];
        let m = RtreeCostModel::new(&nodes, unit_space());
        assert_eq!(m.num_nodes(), 1);
    }

    mod hull_preselection {
        use super::*;
        use proptest::prelude::*;

        /// Boxes on a coarse lattice (so touching faces, containment and
        /// exact duplicates all occur), including degenerate planes /
        /// segments / points and empty boxes.
        fn lattice_box() -> impl Strategy<Value = Box3> {
            (0i32..8, 0i32..8, 0i32..8, -1i32..4, -1i32..4, -1i32..4).prop_map(
                |(x, y, z, w, h, d)| {
                    if w < 0 || h < 0 || d < 0 {
                        return Box3::EMPTY;
                    }
                    let (x, y, z) = (f64::from(x), f64::from(y), f64::from(z));
                    b(
                        x,
                        y,
                        z,
                        x + f64::from(w),
                        y + f64::from(h),
                        z + f64::from(d),
                    )
                },
            )
        }

        proptest! {
            #[test]
            fn count_union_matches_brute_force(
                regions in proptest::collection::vec(lattice_box(), 0..40),
                plans in proptest::collection::vec(
                    proptest::collection::vec(lattice_box(), 0..6), 1..6),
            ) {
                let m = RtreeCostModel::new(&regions, b(0.0, 0.0, 0.0, 12.0, 12.0, 12.0));
                let brute = |cubes: &[Box3]| {
                    regions
                        .iter()
                        .filter(|r| !r.is_empty() && cubes.iter().any(|q| r.intersects(q)))
                        .count()
                };
                let want: Vec<usize> = plans.iter().map(|p| brute(p)).collect();
                prop_assert_eq!(m.count_unions(&plans), want.clone());
                for (p, w) in plans.iter().zip(want) {
                    prop_assert_eq!(m.count_union(p), w);
                }
            }
        }
    }
}

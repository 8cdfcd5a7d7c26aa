//! An editable triangle mesh supporting the full-edge collapse used by
//! Progressive Mesh construction.
//!
//! The mesh is a *terrain*: its projection to the `(x, y)` plane is a
//! planar triangulation with consistently counter-clockwise faces. Edge
//! collapses preserve that invariant (fold-over rejection), which later
//! lets Direct Mesh reconstruct faces from adjacency alone by angular
//! sorting.

use dm_geom::tri::orient2d;
use dm_geom::Vec3;

use crate::heightfield::Heightfield;

/// Sentinel vertex/triangle id.
pub const NIL: u32 = u32::MAX;

/// Why an edge collapse was refused. The mesh is unchanged in every case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollapseError {
    /// One endpoint is dead or the ids are equal.
    BadVertices,
    /// The vertices are not connected by an edge.
    NotAnEdge,
    /// The edge is shared by more than two triangles.
    NonManifold,
    /// Extra common neighbours beyond the wing vertices (collapsing would
    /// glue the surface to itself).
    LinkCondition,
    /// A surviving triangle would flip or degenerate in plan view.
    Foldover,
    /// A wing vertex would lose every incident triangle.
    WouldOrphanWing,
    /// Both endpoints are boundary vertices but the edge is interior.
    BoundaryViolation,
}

/// Outcome of a successful collapse.
#[derive(Clone, Copy, Debug)]
pub struct CollapseResult {
    /// Id of the newly created vertex.
    pub new_vertex: u32,
    /// Wing vertices: third corners of the triangles that shared the
    /// collapsed edge, in incidence order. These are the paper's
    /// `wing1`/`wing2` fields; a boundary edge has one wing and [`NIL`]
    /// in the second slot.
    pub wings: [u32; 2],
}

/// Editable triangle mesh with vertex→triangle incidence.
#[derive(Clone, Debug, Default)]
pub struct TriMesh {
    positions: Vec<Vec3>,
    vert_alive: Vec<bool>,
    tris: Vec<[u32; 3]>,
    tri_alive: Vec<bool>,
    vert_tris: Vec<Vec<u32>>,
    live_verts: usize,
    live_tris: usize,
}

impl TriMesh {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw parts (used by tests and by the reconstruction
    /// validators). Triangle indices must be in range.
    pub fn from_parts(positions: Vec<Vec3>, triangles: &[[u32; 3]]) -> Self {
        let mut mesh = TriMesh::new();
        for p in positions {
            mesh.add_vertex(p);
        }
        for &t in triangles {
            mesh.add_triangle(t);
        }
        mesh
    }

    /// Triangulate a heightfield grid. Cell diagonals alternate with cell
    /// parity to avoid directional bias; all faces are CCW in plan view.
    pub fn from_heightfield(hf: &Heightfield) -> Self {
        let w = hf.width();
        let h = hf.height();
        let mut mesh = TriMesh::new();
        mesh.positions.reserve(w * h);
        for row in 0..h {
            for col in 0..w {
                mesh.add_vertex(hf.world(col, row));
            }
        }
        let id = |col: usize, row: usize| (row * w + col) as u32;
        mesh.tris.reserve((w - 1) * (h - 1) * 2);
        for row in 0..h - 1 {
            for col in 0..w - 1 {
                let v00 = id(col, row);
                let v10 = id(col + 1, row);
                let v01 = id(col, row + 1);
                let v11 = id(col + 1, row + 1);
                if (col + row) % 2 == 0 {
                    mesh.add_triangle([v00, v10, v11]);
                    mesh.add_triangle([v00, v11, v01]);
                } else {
                    mesh.add_triangle([v10, v11, v01]);
                    mesh.add_triangle([v10, v01, v00]);
                }
            }
        }
        mesh
    }

    pub fn add_vertex(&mut self, p: Vec3) -> u32 {
        let id = self.positions.len() as u32;
        self.positions.push(p);
        self.vert_alive.push(true);
        self.vert_tris.push(Vec::new());
        self.live_verts += 1;
        id
    }

    pub fn add_triangle(&mut self, t: [u32; 3]) -> u32 {
        assert!(
            t[0] != t[1] && t[1] != t[2] && t[0] != t[2],
            "degenerate triangle {t:?}"
        );
        for &v in &t {
            assert!(self.is_vertex_alive(v), "dead vertex {v} in triangle");
        }
        let id = self.tris.len() as u32;
        self.tris.push(t);
        self.tri_alive.push(true);
        for &v in &t {
            self.vert_tris[v as usize].push(id);
        }
        self.live_tris += 1;
        id
    }

    #[inline]
    pub fn position(&self, v: u32) -> Vec3 {
        self.positions[v as usize]
    }

    #[inline]
    pub fn is_vertex_alive(&self, v: u32) -> bool {
        (v as usize) < self.vert_alive.len() && self.vert_alive[v as usize]
    }

    #[inline]
    pub fn is_tri_alive(&self, t: u32) -> bool {
        (t as usize) < self.tri_alive.len() && self.tri_alive[t as usize]
    }

    #[inline]
    pub fn triangle(&self, t: u32) -> [u32; 3] {
        self.tris[t as usize]
    }

    pub fn num_live_vertices(&self) -> usize {
        self.live_verts
    }

    pub fn num_live_triangles(&self) -> usize {
        self.live_tris
    }

    /// Total vertex slots ever allocated (dead ones included).
    pub fn vertex_capacity(&self) -> usize {
        self.positions.len()
    }

    /// Iterate live triangle ids.
    pub fn live_triangles(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.tris.len() as u32).filter(move |&t| self.tri_alive[t as usize])
    }

    /// Iterate live vertex ids.
    pub fn live_vertices(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.positions.len() as u32).filter(move |&v| self.vert_alive[v as usize])
    }

    /// Triangles incident to a live vertex.
    pub fn incident_triangles(&self, v: u32) -> &[u32] {
        &self.vert_tris[v as usize]
    }

    /// Unique neighbouring vertex ids of `v` (unordered).
    pub fn neighbors(&self, v: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(8);
        for &t in &self.vert_tris[v as usize] {
            for &o in &self.tris[t as usize] {
                if o != v && !out.contains(&o) {
                    out.push(o);
                }
            }
        }
        out
    }

    /// True when `u`–`v` is an edge of the mesh.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.vert_tris[u as usize]
            .iter()
            .any(|&t| self.tris[t as usize].contains(&v))
    }

    /// A vertex is on the boundary when one of its edges borders only one
    /// triangle.
    pub fn is_boundary_vertex(&self, v: u32) -> bool {
        self.vert_tris[v as usize].iter().any(|&t| {
            self.tris[t as usize]
                .iter()
                .any(|&n| n != v && self.edge_triangle_count(v, n) < 2)
        })
    }

    /// Number of live triangles containing both `u` and `v`.
    pub fn edge_triangle_count(&self, u: u32, v: u32) -> usize {
        self.vert_tris[u as usize]
            .iter()
            .filter(|&&t| self.tris[t as usize].contains(&v))
            .count()
    }

    /// Number of distinct vertices adjacent to both `u` and `v`, counted
    /// without building either neighbour list.
    fn common_neighbor_count(&self, u: u32, v: u32) -> usize {
        let ut = &self.vert_tris[u as usize];
        let mut count = 0;
        for (i, &t) in ut.iter().enumerate() {
            for &n in &self.tris[t as usize] {
                if n == u || n == v || !self.has_edge(v, n) {
                    continue;
                }
                // Count `n` at its first sighting only.
                if !ut[..i].iter().any(|&s| self.tris[s as usize].contains(&n)) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Full-edge collapse `(u, v) → w` where `w` is a *new* vertex at
    /// `new_pos`. On error the mesh is untouched.
    pub fn collapse_edge(
        &mut self,
        u: u32,
        v: u32,
        new_pos: Vec3,
    ) -> Result<CollapseResult, CollapseError> {
        if u == v || !self.is_vertex_alive(u) || !self.is_vertex_alive(v) {
            return Err(CollapseError::BadVertices);
        }
        // Shared triangles, and their third corners: the wings.
        let (mut shared, mut wings, mut n_shared) = ([NIL; 2], [NIL; 2], 0);
        for &t in &self.vert_tris[u as usize] {
            let tri = self.tris[t as usize];
            if tri.contains(&v) {
                if n_shared < 2 {
                    shared[n_shared] = t;
                    wings[n_shared] = tri
                        .into_iter()
                        .find(|&o| o != u && o != v)
                        .expect("a live triangle has three distinct corners");
                }
                n_shared += 1;
            }
        }
        if n_shared == 0 {
            return Err(CollapseError::NotAnEdge);
        }
        if n_shared > 2 {
            return Err(CollapseError::NonManifold);
        }
        if n_shared == 2 && wings[0] == wings[1] {
            return Err(CollapseError::NonManifold);
        }
        // Link condition: the only common neighbours are the wings.
        if self.common_neighbor_count(u, v) != n_shared {
            return Err(CollapseError::LinkCondition);
        }
        // Boundary rule: two boundary endpoints may only collapse along a
        // boundary edge.
        if n_shared == 2 && self.is_boundary_vertex(u) && self.is_boundary_vertex(v) {
            return Err(CollapseError::BoundaryViolation);
        }
        // Wings must survive with at least one triangle.
        for &wv in &wings[..n_shared] {
            if self.vert_tris[wv as usize]
                .iter()
                .all(|t| shared.contains(t))
            {
                return Err(CollapseError::WouldOrphanWing);
            }
        }
        // Fold-over test on every retargeted triangle: every triangle of
        // either endpoint but the shared ones (a triangle holding both
        // endpoints holds the edge, so none is seen twice).
        let pos_of = |x: u32| {
            if x == u || x == v {
                new_pos
            } else {
                self.position(x)
            }
        };
        for &endpoint in &[u, v] {
            for &t in &self.vert_tris[endpoint as usize] {
                if shared.contains(&t) {
                    continue;
                }
                let tri = self.tris[t as usize];
                let before = orient2d(
                    self.position(tri[0]).xy(),
                    self.position(tri[1]).xy(),
                    self.position(tri[2]).xy(),
                );
                let after = orient2d(
                    pos_of(tri[0]).xy(),
                    pos_of(tri[1]).xy(),
                    pos_of(tri[2]).xy(),
                );
                if after.signum() != before.signum() || after.abs() < 1e-12 {
                    return Err(CollapseError::Foldover);
                }
            }
        }

        // --- Commit ---
        let w = self.add_vertex(new_pos);
        for &t in &shared[..n_shared] {
            self.kill_triangle(t);
        }
        // What is left on the endpoints' lists is exactly the retargeted
        // triangles, `u`'s first: they become `w`'s list.
        let mut fan = std::mem::take(&mut self.vert_tris[u as usize]);
        fan.extend_from_slice(&self.vert_tris[v as usize]);
        for &t in &fan {
            for corner in self.tris[t as usize].iter_mut() {
                if *corner == u || *corner == v {
                    *corner = w;
                }
            }
        }
        self.vert_tris[w as usize] = fan;
        self.kill_vertex(u);
        self.kill_vertex(v);

        Ok(CollapseResult {
            new_vertex: w,
            wings,
        })
    }

    fn kill_triangle(&mut self, t: u32) {
        debug_assert!(self.tri_alive[t as usize]);
        self.tri_alive[t as usize] = false;
        self.live_tris -= 1;
        for &v in &self.tris[t as usize] {
            if self.vert_alive[v as usize] {
                self.vert_tris[v as usize].retain(|&x| x != t);
            }
        }
    }

    fn kill_vertex(&mut self, v: u32) {
        debug_assert!(self.vert_alive[v as usize]);
        self.vert_alive[v as usize] = false;
        self.live_verts -= 1;
        self.vert_tris[v as usize] = Vec::new();
    }

    /// Euler characteristic `V − E + F` of the live mesh (counting only
    /// live elements; a topological disc gives 1).
    pub fn euler_characteristic(&self) -> i64 {
        let v = self.live_verts as i64;
        let f = self.live_tris as i64;
        let mut edges = std::collections::HashSet::new();
        for t in self.live_triangles() {
            let tri = self.tris[t as usize];
            for i in 0..3 {
                let a = tri[i].min(tri[(i + 1) % 3]);
                let b = tri[i].max(tri[(i + 1) % 3]);
                edges.insert((a, b));
            }
        }
        v - edges.len() as i64 + f
    }

    /// Structural validation; returns a description of the first problem.
    ///
    /// Checks: live triangles reference distinct live vertices, incidence
    /// lists are exact, every undirected edge borders ≤ 2 triangles, every
    /// directed edge appears at most once (consistent orientation), and
    /// every face is counter-clockwise in plan view.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut directed: HashMap<(u32, u32), u32> = HashMap::new();
        let mut undirected: HashMap<(u32, u32), u32> = HashMap::new();
        let mut live_t = 0usize;
        for t in 0..self.tris.len() as u32 {
            if !self.tri_alive[t as usize] {
                continue;
            }
            live_t += 1;
            let tri = self.tris[t as usize];
            if tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2] {
                return Err(format!("triangle {t} has repeated vertices {tri:?}"));
            }
            for &v in &tri {
                if !self.is_vertex_alive(v) {
                    return Err(format!("triangle {t} references dead vertex {v}"));
                }
                if !self.vert_tris[v as usize].contains(&t) {
                    return Err(format!("incidence list of vertex {v} misses triangle {t}"));
                }
            }
            let area = orient2d(
                self.position(tri[0]).xy(),
                self.position(tri[1]).xy(),
                self.position(tri[2]).xy(),
            );
            if area <= 0.0 {
                return Err(format!(
                    "triangle {t} is not CCW in plan view (2·area = {area})"
                ));
            }
            for i in 0..3 {
                let a = tri[i];
                let b = tri[(i + 1) % 3];
                if directed.insert((a, b), t).is_some() {
                    return Err(format!("directed edge ({a},{b}) used twice"));
                }
                *undirected.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        for (&(a, b), &cnt) in &undirected {
            if cnt > 2 {
                return Err(format!("edge ({a},{b}) borders {cnt} triangles"));
            }
        }
        if live_t != self.live_tris {
            return Err(format!(
                "live_tris counter {} != actual {live_t}",
                self.live_tris
            ));
        }
        let live_v = self.vert_alive.iter().filter(|&&a| a).count();
        if live_v != self.live_verts {
            return Err(format!(
                "live_verts counter {} != actual {live_v}",
                self.live_verts
            ));
        }
        for v in 0..self.positions.len() as u32 {
            for &t in &self.vert_tris[v as usize] {
                if !self.is_tri_alive(t) {
                    return Err(format!("vertex {v} lists dead triangle {t}"));
                }
                if !self.tris[t as usize].contains(&v) {
                    return Err(format!("vertex {v} lists triangle {t} that lacks it"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// Live triangles containing both `u` and `v`.
    fn triangles_with_edge(m: &TriMesh, u: u32, v: u32) -> Vec<u32> {
        m.vert_tris[u as usize]
            .iter()
            .copied()
            .filter(|&t| m.tris[t as usize].contains(&v))
            .collect()
    }

    /// Vertices adjacent to both `u` and `v`.
    fn common_neighbors(m: &TriMesh, u: u32, v: u32) -> Vec<u32> {
        let nv = m.neighbors(v);
        m.neighbors(u)
            .into_iter()
            .filter(|n| nv.contains(n))
            .collect()
    }

    fn grid(n: usize) -> TriMesh {
        TriMesh::from_heightfield(&generate::ramp(n, n, 0.5))
    }

    #[test]
    fn heightfield_triangulation_counts() {
        let m = grid(4);
        assert_eq!(m.num_live_vertices(), 16);
        assert_eq!(m.num_live_triangles(), 2 * 3 * 3);
        m.validate().expect("fresh grid is valid");
        assert_eq!(m.euler_characteristic(), 1, "a disc has χ = 1");
    }

    #[test]
    fn neighbors_of_interior_grid_vertex() {
        let m = grid(5);
        // Vertex (2,2) = id 12; a grid interior vertex touches 6 triangles
        // and has 6 neighbours when both diagonals alternate around it.
        let n = m.neighbors(12);
        assert!(
            n.len() >= 4 && n.len() <= 8,
            "valence {} out of range",
            n.len()
        );
        assert!(n.contains(&11) && n.contains(&13) && n.contains(&7) && n.contains(&17));
    }

    #[test]
    fn interior_collapse_succeeds() {
        let mut m = grid(5);
        let u = 12u32; // (2,2)
        let v = 13u32; // (3,2)
        let mid = (m.position(u) + m.position(v)) / 2.0;
        let before_tris = m.num_live_triangles();
        assert_eq!(triangles_with_edge(&m, u, v).len(), 2);
        let res = m.collapse_edge(u, v, mid).expect("interior collapse");
        assert!(!res.wings.contains(&NIL), "an interior edge has two wings");
        assert_eq!(m.num_live_triangles(), before_tris - 2);
        assert!(!m.is_vertex_alive(u) && !m.is_vertex_alive(v));
        assert!(m.is_vertex_alive(res.new_vertex));
        m.validate().expect("mesh valid after collapse");
        assert_eq!(m.euler_characteristic(), 1);
    }

    #[test]
    fn wings_are_common_neighbors() {
        let mut m = grid(5);
        let commons = common_neighbors(&m, 12, 13);
        let res = m
            .collapse_edge(12, 13, (m.position(12) + m.position(13)) / 2.0)
            .unwrap();
        let mut w = res.wings.to_vec();
        let mut c = commons;
        w.sort();
        c.sort();
        assert_eq!(w, c);
        // The wings connect to the new vertex afterwards.
        for wing in res.wings {
            assert!(m.has_edge(wing, res.new_vertex));
        }
    }

    #[test]
    fn collapse_rejects_non_edges_and_dead() {
        let mut m = grid(4);
        assert_eq!(
            m.collapse_edge(0, 15, Vec3::ZERO).unwrap_err(),
            CollapseError::NotAnEdge
        );
        assert_eq!(
            m.collapse_edge(3, 3, Vec3::ZERO).unwrap_err(),
            CollapseError::BadVertices
        );
        assert_eq!(
            m.collapse_edge(0, 999, Vec3::ZERO).unwrap_err(),
            CollapseError::BadVertices
        );
    }

    #[test]
    fn collapse_rejects_foldover() {
        let mut m = grid(5);
        // Move the merged vertex far outside its neighbourhood: a
        // surviving triangle must flip and the collapse must fail.
        let err = m
            .collapse_edge(12, 13, Vec3::new(-100.0, -100.0, 0.0))
            .expect_err("foldover expected");
        assert_eq!(err, CollapseError::Foldover);
        m.validate().expect("failed collapse must not mutate");
        assert_eq!(m.num_live_vertices(), 25);
    }

    #[test]
    fn boundary_edge_collapse() {
        let mut m = grid(5);
        // (1,0)–(2,0) is a boundary edge (shared by one triangle).
        let shared = triangles_with_edge(&m, 1, 2);
        assert_eq!(shared.len(), 1);
        let mid = (m.position(1) + m.position(2)) / 2.0;
        let res = m.collapse_edge(1, 2, mid).expect("boundary collapse");
        assert!(res.wings[0] != NIL && res.wings[1] == NIL, "one wing");
        m.validate().expect("valid after boundary collapse");
    }

    #[test]
    fn interior_edge_between_boundary_vertices_is_rejected() {
        // A quad split along its diagonal: the diagonal is an interior
        // edge whose endpoints both lie on the boundary.
        let mut m = TriMesh::from_parts(
            vec![
                Vec3::new(0.0, 0.0, 0.0), // A
                Vec3::new(1.0, 0.0, 0.0), // B
                Vec3::new(1.0, 1.0, 0.0), // C
                Vec3::new(0.0, 1.0, 0.0), // D
            ],
            &[[0, 1, 2], [0, 2, 3]],
        );
        assert_eq!(triangles_with_edge(&m, 0, 2).len(), 2);
        assert!(m.is_boundary_vertex(0) && m.is_boundary_vertex(2));
        let err = m
            .collapse_edge(0, 2, Vec3::new(0.5, 0.5, 0.0))
            .expect_err("diagonal collapse must be refused");
        assert_eq!(err, CollapseError::BoundaryViolation);
        m.validate().unwrap();
    }

    #[test]
    fn repeated_collapses_keep_mesh_valid() {
        let mut m = TriMesh::from_heightfield(&generate::fractal_terrain(9, 9, 11));
        let mut collapses = 0;
        // Greedily collapse any collapsible edge until none remain.
        loop {
            let mut done = true;
            let verts: Vec<u32> = m.live_vertices().collect();
            'outer: for &u in &verts {
                if !m.is_vertex_alive(u) {
                    continue;
                }
                for v in m.neighbors(u) {
                    let mid = (m.position(u) + m.position(v)) / 2.0;
                    if m.collapse_edge(u, v, mid).is_ok() {
                        collapses += 1;
                        done = false;
                        break 'outer;
                    }
                }
            }
            if done {
                break;
            }
        }
        assert!(collapses > 20, "only {collapses} collapses on a 9×9 grid");
        m.validate()
            .expect("mesh valid after exhaustive collapsing");
    }

    #[test]
    fn counted_link_and_boundary_tests_match_the_listed_ones() {
        let mut m = TriMesh::from_heightfield(&generate::fractal_terrain(9, 9, 11));
        for step in 0..40u32 {
            let verts: Vec<u32> = m.live_vertices().collect();
            for &u in &verts {
                for v in m.neighbors(u) {
                    assert_eq!(
                        m.common_neighbor_count(u, v),
                        common_neighbors(&m, u, v).len()
                    );
                    assert_eq!(
                        m.edge_triangle_count(u, v),
                        triangles_with_edge(&m, u, v).len()
                    );
                }
                let listed = m
                    .neighbors(u)
                    .into_iter()
                    .any(|n| triangles_with_edge(&m, u, n).len() < 2);
                assert_eq!(m.is_boundary_vertex(u), listed);
            }
            // Collapse some edge to vary the valences.
            let u = verts[(step as usize * 7) % verts.len()];
            for v in m.neighbors(u) {
                let mid = (m.position(u) + m.position(v)) / 2.0;
                if m.collapse_edge(u, v, mid).is_ok() {
                    break;
                }
            }
        }
        m.validate().unwrap();
    }

    #[test]
    fn from_parts_roundtrip() {
        let m = TriMesh::from_parts(
            vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
            ],
            &[[0, 1, 2], [1, 3, 2]],
        );
        assert_eq!(m.num_live_triangles(), 2);
        m.validate().unwrap();
        assert!(m.has_edge(1, 2));
        assert!(!m.has_edge(0, 3));
        assert_eq!(triangles_with_edge(&m, 1, 2).len(), 2);
    }

    #[test]
    fn validate_detects_orientation_flip() {
        let m = TriMesh::from_parts(
            vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            ],
            &[[0, 2, 1]], // clockwise
        );
        assert!(m.validate().is_err());
    }

    #[test]
    fn boundary_detection() {
        let m = grid(4);
        assert!(m.is_boundary_vertex(0));
        assert!(m.is_boundary_vertex(3));
        assert!(m.is_boundary_vertex(7));
        assert!(!m.is_boundary_vertex(5)); // interior (1,1)
    }
}

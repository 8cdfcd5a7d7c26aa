//! Axis-aligned bounding rectangles (2D) and boxes (3D).
//!
//! Both types use *closed* bounds: a point on the boundary is contained.
//! Degenerate extents (zero width/height/depth) are legal and important —
//! a Direct Mesh viewpoint-independent query is a 3D box with zero extent
//! in the LOD dimension (the "query plane" of the paper).

use crate::vec::{Vec2, Vec3};

/// A 2D axis-aligned rectangle `[min, max]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    pub min: Vec2,
    pub max: Vec2,
}

impl Rect {
    /// The "empty" rectangle: contains nothing, unions as the identity.
    pub const EMPTY: Rect = Rect {
        min: Vec2 {
            x: f64::INFINITY,
            y: f64::INFINITY,
        },
        max: Vec2 {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        },
    };

    #[inline]
    pub fn new(min: Vec2, max: Vec2) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "inverted Rect");
        Rect { min, max }
    }

    /// Rectangle from any two corner points (orders the coordinates).
    pub fn from_corners(a: Vec2, b: Vec2) -> Self {
        Rect {
            min: Vec2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Vec2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Rectangle containing a single point.
    #[inline]
    pub fn point(p: Vec2) -> Self {
        Rect { min: p, max: p }
    }

    /// A square centred at `c` with side length `side`.
    pub fn centered_square(c: Vec2, side: f64) -> Self {
        let h = side / 2.0;
        Rect::new(Vec2::new(c.x - h, c.y - h), Vec2::new(c.x + h, c.y + h))
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    #[inline]
    pub fn center(&self) -> Vec2 {
        Vec2::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    #[inline]
    pub fn contains_rect(&self, o: &Rect) -> bool {
        o.is_empty()
            || (o.min.x >= self.min.x
                && o.max.x <= self.max.x
                && o.min.y >= self.min.y
                && o.max.y <= self.max.y)
    }

    #[inline]
    pub fn intersects(&self, o: &Rect) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.min.x <= o.max.x
            && o.min.x <= self.max.x
            && self.min.y <= o.max.y
            && o.min.y <= self.max.y
    }

    /// Smallest rectangle covering both inputs.
    pub fn union(&self, o: &Rect) -> Rect {
        if self.is_empty() {
            return *o;
        }
        if o.is_empty() {
            return *self;
        }
        Rect {
            min: Vec2::new(self.min.x.min(o.min.x), self.min.y.min(o.min.y)),
            max: Vec2::new(self.max.x.max(o.max.x), self.max.y.max(o.max.y)),
        }
    }

    /// Grow to cover a point.
    pub fn expand_point(&mut self, p: Vec2) {
        *self = self.union(&Rect::point(p));
    }

    /// Grow by `m` on every side.
    pub fn inflate(&self, m: f64) -> Rect {
        Rect::from_corners(
            Vec2::new(self.min.x - m, self.min.y - m),
            Vec2::new(self.max.x + m, self.max.y + m),
        )
    }

    /// The rectangle shifted by `d` — the world↔region coordinate map
    /// for tiled terrains (a region's local frame differs from the world
    /// frame by a pure translation, so shapes map both ways with `d` and
    /// `-d`). Empty rectangles stay empty (translating an infinite
    /// sentinel bound would poison later unions).
    #[inline]
    pub fn translated(&self, d: Vec2) -> Rect {
        if self.is_empty() {
            return *self;
        }
        Rect {
            min: self.min + d,
            max: self.max + d,
        }
    }

    /// Intersection; `Rect::EMPTY`-like result when disjoint.
    pub fn intersection(&self, o: &Rect) -> Rect {
        let min = Vec2::new(self.min.x.max(o.min.x), self.min.y.max(o.min.y));
        let max = Vec2::new(self.max.x.min(o.max.x), self.max.y.min(o.max.y));
        if min.x > max.x || min.y > max.y {
            Rect::EMPTY
        } else {
            Rect { min, max }
        }
    }
}

/// A 3D axis-aligned box `[min, max]`.
///
/// In this workspace the third dimension is almost always the LOD axis `e`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Box3 {
    pub min: Vec3,
    pub max: Vec3,
}

impl Box3 {
    pub const EMPTY: Box3 = Box3 {
        min: Vec3 {
            x: f64::INFINITY,
            y: f64::INFINITY,
            z: f64::INFINITY,
        },
        max: Vec3 {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
            z: f64::NEG_INFINITY,
        },
    };

    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "inverted Box3: {min:?} {max:?}"
        );
        Box3 { min, max }
    }

    /// Box containing a single point.
    #[inline]
    pub fn point(p: Vec3) -> Self {
        Box3 { min: p, max: p }
    }

    /// A vertical segment in `(x, y, e)` space — how a Direct Mesh node is
    /// indexed: plan position `(x, y)` extruded over its LOD interval.
    #[inline]
    pub fn vertical_segment(xy: Vec2, e_lo: f64, e_hi: f64) -> Self {
        Box3::new(Vec3::new(xy.x, xy.y, e_lo), Vec3::new(xy.x, xy.y, e_hi))
    }

    /// A query region `rect × [e_lo, e_hi]`. With `e_lo == e_hi` this is the
    /// paper's *query plane*.
    #[inline]
    pub fn prism(rect: Rect, e_lo: f64, e_hi: f64) -> Self {
        Box3::new(
            Vec3::new(rect.min.x, rect.min.y, e_lo),
            Vec3::new(rect.max.x, rect.max.y, e_hi),
        )
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Plan-view footprint.
    #[inline]
    pub fn rect(&self) -> Rect {
        Rect {
            min: self.min.xy(),
            max: self.max.xy(),
        }
    }

    #[inline]
    pub fn extent(&self) -> Vec3 {
        Vec3::new(
            (self.max.x - self.min.x).max(0.0),
            (self.max.y - self.min.y).max(0.0),
            (self.max.z - self.min.z).max(0.0),
        )
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) / 2.0
    }

    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Surface area ("margin" in R*-tree terminology uses the edge sum; this
    /// is the usual half-perimeter-product surface).
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Sum of the three edge lengths; the R*-tree split "margin" metric.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x + e.y + e.z
    }

    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    #[inline]
    pub fn contains_box(&self, o: &Box3) -> bool {
        o.is_empty()
            || (o.min.x >= self.min.x
                && o.max.x <= self.max.x
                && o.min.y >= self.min.y
                && o.max.y <= self.max.y
                && o.min.z >= self.min.z
                && o.max.z <= self.max.z)
    }

    #[inline]
    pub fn intersects(&self, o: &Box3) -> bool {
        !self.is_empty()
            && !o.is_empty()
            && self.min.x <= o.max.x
            && o.min.x <= self.max.x
            && self.min.y <= o.max.y
            && o.min.y <= self.max.y
            && self.min.z <= o.max.z
            && o.min.z <= self.max.z
    }

    pub fn union(&self, o: &Box3) -> Box3 {
        if self.is_empty() {
            return *o;
        }
        if o.is_empty() {
            return *self;
        }
        Box3 {
            min: Vec3::new(
                self.min.x.min(o.min.x),
                self.min.y.min(o.min.y),
                self.min.z.min(o.min.z),
            ),
            max: Vec3::new(
                self.max.x.max(o.max.x),
                self.max.y.max(o.max.y),
                self.max.z.max(o.max.z),
            ),
        }
    }

    /// The box shifted by `d` in the plan-view plane, LOD axis untouched —
    /// the world↔region map for query cubes (regions translate in `(x, y)`
    /// only; LOD is a world-global scale). Empty boxes stay empty.
    #[inline]
    pub fn translated_xy(&self, d: Vec2) -> Box3 {
        if self.is_empty() {
            return *self;
        }
        Box3 {
            min: Vec3::new(self.min.x + d.x, self.min.y + d.y, self.min.z),
            max: Vec3::new(self.max.x + d.x, self.max.y + d.y, self.max.z),
        }
    }

    pub fn intersection(&self, o: &Box3) -> Box3 {
        let min = Vec3::new(
            self.min.x.max(o.min.x),
            self.min.y.max(o.min.y),
            self.min.z.max(o.min.z),
        );
        let max = Vec3::new(
            self.max.x.min(o.max.x),
            self.max.y.min(o.max.y),
            self.max.z.min(o.max.z),
        );
        if min.x > max.x || min.y > max.y || min.z > max.z {
            Box3::EMPTY
        } else {
            Box3 { min, max }
        }
    }

    /// Volume increase of `self ∪ other` over `self` — the R-tree
    /// choose-subtree "enlargement" metric.
    pub fn enlargement(&self, o: &Box3) -> f64 {
        self.union(o).volume() - self.volume()
    }

    /// Volume of overlap with another box.
    pub fn overlap(&self, o: &Box3) -> f64 {
        self.intersection(o).volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Vec2::new(x0, y0), Vec2::new(x1, y1))
    }

    #[test]
    fn rect_contains_boundary() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.contains(Vec2::new(0.0, 0.0)));
        assert!(a.contains(Vec2::new(2.0, 2.0)));
        assert!(a.contains(Vec2::new(1.0, 1.0)));
        assert!(!a.contains(Vec2::new(2.0001, 1.0)));
    }

    #[test]
    fn rect_intersection_and_union() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), r(1.0, 1.0, 2.0, 2.0));
        assert_eq!(a.union(&b), r(0.0, 0.0, 3.0, 3.0));
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn rect_empty_identity() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert!(!Rect::EMPTY.intersects(&a));
        assert_eq!(Rect::EMPTY.area(), 0.0);
        assert!(a.contains_rect(&Rect::EMPTY));
    }

    #[test]
    fn rect_touching_edges_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b)); // closed bounds: shared edge counts
    }

    #[test]
    fn rect_centered_square() {
        let s = Rect::centered_square(Vec2::new(1.0, 1.0), 2.0);
        assert_eq!(s, r(0.0, 0.0, 2.0, 2.0));
        assert_eq!(s.center(), Vec2::new(1.0, 1.0));
        assert_eq!(s.area(), 4.0);
    }

    fn b(x0: f64, y0: f64, z0: f64, x1: f64, y1: f64, z1: f64) -> Box3 {
        Box3::new(Vec3::new(x0, y0, z0), Vec3::new(x1, y1, z1))
    }

    #[test]
    fn box3_metrics() {
        let a = b(0.0, 0.0, 0.0, 2.0, 3.0, 4.0);
        assert_eq!(a.volume(), 24.0);
        assert_eq!(a.margin(), 9.0);
        assert_eq!(a.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
        assert_eq!(a.center(), Vec3::new(1.0, 1.5, 2.0));
    }

    #[test]
    fn box3_degenerate_plane_intersects_segment() {
        // Query plane at e = 5 must hit a vertical segment spanning [3, 7].
        let plane = Box3::prism(r(0.0, 0.0, 10.0, 10.0), 5.0, 5.0);
        let seg = Box3::vertical_segment(Vec2::new(4.0, 4.0), 3.0, 7.0);
        assert!(plane.intersects(&seg));
        // ... and must miss one spanning [6, 9].
        let seg2 = Box3::vertical_segment(Vec2::new(4.0, 4.0), 6.0, 9.0);
        assert!(!plane.intersects(&seg2));
        // Half-open semantics at the top are handled by callers; boxes are
        // closed, so touching at exactly e = 5 counts:
        let seg3 = Box3::vertical_segment(Vec2::new(4.0, 4.0), 5.0, 9.0);
        assert!(plane.intersects(&seg3));
    }

    #[test]
    fn box3_enlargement_and_overlap() {
        let a = b(0.0, 0.0, 0.0, 1.0, 1.0, 1.0);
        let c = b(0.5, 0.5, 0.5, 1.5, 1.5, 1.5);
        assert!((a.overlap(&c) - 0.125).abs() < 1e-12);
        assert!((a.enlargement(&c) - (1.5f64.powi(3) - 1.0)).abs() < 1e-12);
        assert_eq!(a.enlargement(&b(0.2, 0.2, 0.2, 0.8, 0.8, 0.8)), 0.0);
    }

    #[test]
    fn box3_union_with_empty() {
        let a = b(0.0, 0.0, 0.0, 1.0, 1.0, 1.0);
        assert_eq!(Box3::EMPTY.union(&a), a);
        assert_eq!(a.union(&Box3::EMPTY), a);
        assert_eq!(Box3::EMPTY.volume(), 0.0);
    }

    #[test]
    fn box3_contains_box() {
        let a = b(0.0, 0.0, 0.0, 4.0, 4.0, 4.0);
        assert!(a.contains_box(&b(1.0, 1.0, 1.0, 2.0, 2.0, 2.0)));
        assert!(a.contains_box(&a));
        assert!(!a.contains_box(&b(1.0, 1.0, 1.0, 5.0, 2.0, 2.0)));
    }

    #[test]
    fn rect_projection_of_box() {
        let a = b(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        assert_eq!(a.rect(), r(1.0, 2.0, 4.0, 5.0));
    }

    #[test]
    fn translation_maps_world_and_region_frames_both_ways() {
        let d = Vec2::new(100.0, -50.0);
        let r = Rect::new(Vec2::new(1.0, 2.0), Vec2::new(5.0, 6.0));
        let w = r.translated(d);
        assert_eq!(w.min, Vec2::new(101.0, -48.0));
        assert_eq!(w.translated(Vec2::new(-d.x, -d.y)), r);
        assert!(Rect::EMPTY.translated(d).is_empty());

        let cube = Box3::prism(r, 0.25, 0.75);
        let moved = cube.translated_xy(d);
        assert_eq!(moved.rect(), w);
        // The LOD axis is a world-global scale: translation leaves it alone.
        assert_eq!(moved.min.z, 0.25);
        assert_eq!(moved.max.z, 0.75);
        assert_eq!(moved.translated_xy(Vec2::new(-d.x, -d.y)), cube);
        assert!(Box3::EMPTY.translated_xy(d).is_empty());
    }
}

//! Property-based tests for the geometry primitives.

use dm_geom::{hilbert, Box3, Interval, Rect, Vec2, Vec3};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (
        -1000.0..1000.0f64,
        -1000.0..1000.0f64,
        0.0..500.0f64,
        0.0..500.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::new(Vec2::new(x, y), Vec2::new(x + w, y + h)))
}

fn arb_box() -> impl Strategy<Value = Box3> {
    (
        -1000.0..1000.0f64,
        -1000.0..1000.0f64,
        -1000.0..1000.0f64,
        0.0..500.0f64,
        0.0..500.0f64,
        0.0..500.0f64,
    )
        .prop_map(|(x, y, z, w, h, d)| {
            Box3::new(Vec3::new(x, y, z), Vec3::new(x + w, y + h, z + d))
        })
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    (0.0..1000.0f64, 0.0..500.0f64).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

proptest! {
    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn rect_intersection_is_inside_both(a in arb_rect(), b in arb_rect()) {
        let i = a.intersection(&b);
        prop_assert!(a.contains_rect(&i));
        prop_assert!(b.contains_rect(&i));
        prop_assert_eq!(!i.is_empty(), a.intersects(&b));
    }

    #[test]
    fn rect_intersects_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn rect_point_membership_respects_intersection(
        a in arb_rect(),
        b in arb_rect(),
        tx in 0.0..1.0f64,
        ty in 0.0..1.0f64,
    ) {
        // Any point in the intersection is in both rects.
        let i = a.intersection(&b);
        if !i.is_empty() {
            let p = Vec2::new(
                i.min.x + tx * i.width(),
                i.min.y + ty * i.height(),
            );
            prop_assert!(a.contains(p) && b.contains(p));
        }
    }

    #[test]
    fn box_union_volume_superadditive(a in arb_box(), b in arb_box()) {
        let u = a.union(&b);
        prop_assert!(u.volume() + 1e-9 >= a.volume().max(b.volume()));
        prop_assert!(u.contains_box(&a) && u.contains_box(&b));
    }

    #[test]
    fn box_overlap_bounded_by_smaller_volume(a in arb_box(), b in arb_box()) {
        let o = a.overlap(&b);
        prop_assert!(o <= a.volume().min(b.volume()) + 1e-6);
        prop_assert!(o >= 0.0);
    }

    #[test]
    fn box_enlargement_nonnegative(a in arb_box(), b in arb_box()) {
        prop_assert!(a.enlargement(&b) >= -1e-9);
        if a.contains_box(&b) {
            prop_assert!(a.enlargement(&b).abs() < 1e-9);
        }
    }

    #[test]
    fn interval_overlap_matches_intersection(a in arb_interval(), b in arb_interval()) {
        prop_assert_eq!(a.overlaps(&b), !a.intersection(&b).is_empty());
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn interval_contains_implies_overlap(a in arb_interval(), t in 0.0..1.0f64) {
        if !a.is_empty() {
            let v = a.lo + t * (a.hi - a.lo) * 0.999;
            prop_assert!(a.contains(v));
            prop_assert!(a.overlaps(&Interval::new(v, v + 1.0)));
        }
    }

    #[test]
    fn hilbert_roundtrip(order in 1u32..12, d in 0u64..16_000_000) {
        let side = 1u64 << order;
        let d = d % (side * side);
        let (x, y) = hilbert::d_to_xy(order, d);
        prop_assert_eq!(hilbert::xy_to_d(order, x, y), d);
    }

    #[test]
    fn hilbert_continuous_key_is_stable_under_clamping(
        x in -2.0..3.0f64,
        y in -2.0..3.0f64,
    ) {
        let k = hilbert::continuous_key(10, x, y, (0.0, 0.0), (1.0, 1.0));
        let max = 1u64 << 20;
        prop_assert!(k < max);
    }

    #[test]
    fn orient2d_antisymmetric(
        ax in -100.0..100.0f64, ay in -100.0..100.0f64,
        bx in -100.0..100.0f64, by in -100.0..100.0f64,
        cx in -100.0..100.0f64, cy in -100.0..100.0f64,
    ) {
        use dm_geom::tri::orient2d;
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        let c = Vec2::new(cx, cy);
        let o1 = orient2d(a, b, c);
        let o2 = orient2d(a, c, b);
        prop_assert!((o1 + o2).abs() <= 1e-9 * o1.abs().max(o2.abs()).max(1.0));
        // Cyclic permutation preserves orientation exactly in exact
        // arithmetic; allow rounding slack.
        let o3 = orient2d(b, c, a);
        prop_assert!((o1 - o3).abs() <= 1e-9 * o1.abs().max(1.0));
    }
}

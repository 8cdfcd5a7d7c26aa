//! Seeded input generation: every ROI, path and edit region a workload
//! uses is a pure function of `--seed` and the code in this file.
//!
//! ROIs are drawn *stratified*: the feasible origin range is cut into a
//! `k × k` grid and each cell contributes exactly one ROI, jittered
//! inside the cell and visited in a seeded order. Every seed therefore
//! covers the terrain evenly — per-lap totals (pages read, bytes
//! shipped) differ between seeds only by the jitter, which keeps the
//! seed-to-seed spread of a metric well inside its regression bound —
//! while no two seeds issue the same queries.

use crate::layers::{Rect, Vec2};

/// SplitMix64 (Steele, Lea, Flood 2014): the benchmark's only PRNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` (53 mantissa bits).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// `k × k` square ROIs of `area_frac` of `bounds`, one per stratum of
/// the feasible origin range, in seeded order.
pub fn stratified_rois(bounds: &Rect, area_frac: f64, k: usize, rng: &mut SplitMix64) -> Vec<Rect> {
    let side = (bounds.area() * area_frac).sqrt();
    let span_x = (bounds.width() - side).max(0.0);
    let span_y = (bounds.height() - side).max(0.0);
    let mut rois = Vec::with_capacity(k * k);
    for cy in 0..k {
        for cx in 0..k {
            let x = bounds.min.x + span_x * (cx as f64 + rng.unit()) / k as f64;
            let y = bounds.min.y + span_y * (cy as f64 + rng.unit()) / k as f64;
            rois.push(Rect::new(Vec2::new(x, y), Vec2::new(x + side, y + side)));
        }
    }
    rng.shuffle(&mut rois);
    rois
}

/// `frames` square windows of side `window` whose centres move at
/// constant speed once around the closed polygon through `waypoints`
/// (the last waypoint joins back to the first), starting `phase ∈ [0,1)`
/// of the way round. Frame `frames` would equal frame 0: a lap ends
/// where the next begins.
pub fn closed_loop(waypoints: &[Vec2], window: f64, frames: usize, phase: f64) -> Vec<Rect> {
    let n = waypoints.len();
    let mut cum = vec![0.0];
    for i in 0..n {
        let d = waypoints[i].dist(waypoints[(i + 1) % n]);
        cum.push(cum[i] + d);
    }
    let total = cum[n];
    (0..frames)
        .map(|f| {
            let s = ((f as f64 / frames as f64 + phase).fract()) * total;
            let i = (0..n).find(|&i| s <= cum[i + 1]).unwrap_or(n - 1);
            let seg = cum[i + 1] - cum[i];
            let u = if seg > 0.0 { (s - cum[i]) / seg } else { 0.0 };
            let a = waypoints[i];
            let b = waypoints[(i + 1) % n];
            Rect::centered_square(a + (b - a) * u, window)
        })
        .collect()
}

/// The viewer's closed tour of a single store: a jittered quadrilateral
/// around the terrain centre, flown from a seeded start in a seeded
/// direction. The window stays inside `bounds`.
pub fn tour(bounds: &Rect, window_frac: f64, frames: usize, rng: &mut SplitMix64) -> Vec<Rect> {
    let window = bounds.width().min(bounds.height()) * window_frac;
    let c = bounds.center();
    let reach_x = (bounds.width() - window) * 0.5;
    let reach_y = (bounds.height() - window) * 0.5;
    let mut pts: Vec<Vec2> = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        .iter()
        .map(|&(sx, sy)| {
            Vec2::new(
                c.x + sx * reach_x * rng.range(0.75, 1.0),
                c.y + sy * reach_y * rng.range(0.75, 1.0),
            )
        })
        .collect();
    if rng.next_u64() & 1 == 1 {
        pts.reverse();
    }
    closed_loop(&pts, window, frames, rng.unit())
}

/// The world viewer's closed tour: out along one diagonal and back, from
/// the west edge to the east edge, so every lap crosses every
/// north-south seam twice. Which diagonal, and how far north and south
/// it reaches, are seeded; its west-east extent and its start at the
/// west edge are not, so the seams are crossed at the same frames
/// whatever the seed. The window stays inside `bounds`.
pub fn diagonal_tour(
    bounds: &Rect,
    window_frac: f64,
    frames: usize,
    rng: &mut SplitMix64,
) -> Vec<Rect> {
    let window = bounds.width().min(bounds.height()) * window_frac;
    let c = bounds.center();
    let reach_x = (bounds.width() - window) * 0.5;
    let reach_y = (bounds.height() - window) * 0.5;
    let flip = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
    let a = Vec2::new(c.x - reach_x, c.y - flip * reach_y * rng.range(0.8, 1.0));
    let b = Vec2::new(c.x + reach_x, c.y + flip * reach_y * rng.range(0.8, 1.0));
    closed_loop(&[a, b], window, frames, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_bounds() -> Rect {
        Rect::new(Vec2::new(0.0, 0.0), Vec2::new(256.0, 256.0))
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 0, from the reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let b = unit_bounds();
        let a1 = stratified_rois(&b, 0.05, 4, &mut SplitMix64::new(7));
        let a2 = stratified_rois(&b, 0.05, 4, &mut SplitMix64::new(7));
        let c = stratified_rois(&b, 0.05, 4, &mut SplitMix64::new(8));
        assert_eq!(a1, a2);
        assert_ne!(a1, c);
    }

    #[test]
    fn stratified_rois_cover_every_cell_inside_bounds() {
        let b = unit_bounds();
        let k = 4;
        let rois = stratified_rois(&b, 0.05, k, &mut SplitMix64::new(3));
        assert_eq!(rois.len(), k * k);
        let side = (b.area() * 0.05).sqrt();
        let span = b.width() - side;
        let mut cells = vec![false; k * k];
        for r in &rois {
            assert!(b.contains_rect(r), "{r:?}");
            assert!((r.area() / b.area() - 0.05).abs() < 1e-9);
            let cx = ((r.min.x / span) * k as f64) as usize;
            let cy = ((r.min.y / span) * k as f64) as usize;
            cells[cy.min(k - 1) * k + cx.min(k - 1)] = true;
        }
        assert!(cells.iter().all(|&c| c), "a stratum was skipped");
    }

    #[test]
    fn tours_are_closed_evenly_paced_and_inside_bounds() {
        let b = unit_bounds();
        for seed in 0..8 {
            for path in [
                tour(&b, 0.35, 32, &mut SplitMix64::new(seed)),
                diagonal_tour(&b, 0.35, 32, &mut SplitMix64::new(seed)),
            ] {
                assert_eq!(path.len(), 32);
                let steps: Vec<f64> = (0..32)
                    .map(|i| path[i].center().dist(path[(i + 1) % 32].center()))
                    .collect();
                let max = steps.iter().cloned().fold(0.0, f64::max);
                // Constant arc-length speed: a chord across a corner is
                // shorter than a straight step, never longer, and the
                // step that closes the lap is no exception.
                assert!(max > 0.0 && steps.iter().all(|&s| s <= max * 1.0001));
                assert!(steps[31] > 0.25 * max, "lap does not close smoothly");
                for r in &path {
                    assert!(b.contains_rect(r), "{r:?}");
                }
            }
        }
    }

    #[test]
    fn diagonal_tour_crosses_both_seams() {
        let b = unit_bounds();
        let c = b.center();
        let path = diagonal_tour(&b, 0.35, 32, &mut SplitMix64::new(5));
        let west = path.iter().any(|r| r.center().x < c.x);
        let east = path.iter().any(|r| r.center().x > c.x);
        let south = path.iter().any(|r| r.center().y < c.y);
        let north = path.iter().any(|r| r.center().y > c.y);
        assert!(west && east && south && north);
    }
}

//! Synthetic DEM generators.
//!
//! These replace the paper's two real datasets (see DESIGN.md §2):
//!
//! * [`fractal_terrain`] — diamond-square fractal relief standing in for
//!   the 2M-point mining DEM,
//! * [`crater_terrain`] — a caldera (rim ring + interior lake) on top of
//!   damped fractal relief, standing in for the 17M-point USGS Crater
//!   Lake model,
//! * [`ramp`] — a deterministic inclined plane used by tests, because its
//!   simplification behaviour is analytically predictable.
//!
//! All generators are deterministic in their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::heightfield::Heightfield;
use dm_geom::Vec2;

/// Classic diamond-square (plasma fractal) on a `(2^n + 1)²` grid.
///
/// `roughness` in `(0, 1]` controls how fast the perturbation amplitude
/// decays per subdivision level; larger values give craggier terrain.
pub fn diamond_square(n: u32, seed: u64, roughness: f64) -> Heightfield {
    assert!(
        (1..=13).contains(&n),
        "diamond_square size exponent out of range"
    );
    assert!(roughness > 0.0 && roughness <= 1.0);
    let size = (1usize << n) + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hf = Heightfield::flat(size, size, 1.0, 0.0);

    let mut amp = size as f64 / 4.0;
    // Random corners.
    for &(c, r) in &[(0, 0), (size - 1, 0), (0, size - 1), (size - 1, size - 1)] {
        let z = rng.random_range(-amp..amp);
        hf.set(c, r, z);
    }

    let mut step = size - 1;
    while step > 1 {
        let half = step / 2;
        // Diamond step: centres of squares.
        for row in (half..size).step_by(step) {
            for col in (half..size).step_by(step) {
                let avg = (hf.at(col - half, row - half)
                    + hf.at(col + half, row - half)
                    + hf.at(col - half, row + half)
                    + hf.at(col + half, row + half))
                    / 4.0;
                hf.set(col, row, avg + rng.random_range(-amp..amp));
            }
        }
        // Square step: edge midpoints.
        for row in (0..size).step_by(half) {
            let col_start = if (row / half).is_multiple_of(2) {
                half
            } else {
                0
            };
            for col in (col_start..size).step_by(step) {
                let mut sum = 0.0;
                let mut cnt = 0.0;
                if col >= half {
                    sum += hf.at(col - half, row);
                    cnt += 1.0;
                }
                if col + half < size {
                    sum += hf.at(col + half, row);
                    cnt += 1.0;
                }
                if row >= half {
                    sum += hf.at(col, row - half);
                    cnt += 1.0;
                }
                if row + half < size {
                    sum += hf.at(col, row + half);
                    cnt += 1.0;
                }
                hf.set(col, row, sum / cnt + rng.random_range(-amp..amp));
            }
        }
        amp *= roughness;
        step = half;
    }
    hf
}

fn pow2_exp_covering(width: usize, height: usize) -> u32 {
    let need = width.max(height).saturating_sub(1).max(1);
    let mut n = 1;
    while (1usize << n) < need {
        n += 1;
    }
    n as u32
}

/// Fractal relief with a few broad hills — the stand-in for the paper's
/// 2M-point mining DEM.
pub fn fractal_terrain(width: usize, height: usize, seed: u64) -> Heightfield {
    let n = pow2_exp_covering(width, height);
    let mut hf = diamond_square(n, seed, 0.55).crop(width, height);
    // Superimpose a handful of broad Gaussian hills so the terrain has
    // macro structure in addition to fractal noise.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let ext = Vec2::new((width - 1) as f64, (height - 1) as f64);
    let hills: Vec<(f64, f64, f64, f64)> = (0..6)
        .map(|_| {
            (
                rng.random_range(0.0..ext.x),
                rng.random_range(0.0..ext.y),
                rng.random_range(ext.x / 10.0..ext.x / 3.0), // radius
                rng.random_range(-0.15..0.3) * ext.x,        // amplitude
            )
        })
        .collect();
    for row in 0..height {
        for col in 0..width {
            let mut z = hf.at(col, row);
            for &(cx, cy, r, a) in &hills {
                let d2 = ((col as f64 - cx).powi(2) + (row as f64 - cy).powi(2)) / (r * r);
                z += a * (-d2).exp();
            }
            hf.set(col, row, z);
        }
    }
    hf
}

/// A volcanic caldera: raised rim ring, inner depression with a flat lake
/// — the stand-in for the USGS Crater Lake DEM.
pub fn crater_terrain(width: usize, height: usize, seed: u64) -> Heightfield {
    let n = pow2_exp_covering(width, height);
    let mut hf = diamond_square(n, seed, 0.55).crop(width, height);
    let ext = (width.min(height) - 1) as f64;
    let cx = (width - 1) as f64 / 2.0;
    let cy = (height - 1) as f64 / 2.0;
    let rim_r = ext * 0.30;
    let rim_w = ext * 0.07;
    let rim_h = ext * 0.25;
    let depth = ext * 0.18;
    let lake_z = -depth * 0.35;
    for row in 0..height {
        for col in 0..width {
            let r = ((col as f64 - cx).powi(2) + (row as f64 - cy).powi(2)).sqrt();
            // Keep near-full fractal amplitude: real DEMs are rough at the
            // sample scale everywhere except the water surface, and a too
            // smooth surface degenerates the LOD distribution.
            let mut z = hf.at(col, row) * 0.8;
            // Rim: Gaussian ring.
            z += rim_h * (-(r - rim_r).powi(2) / (2.0 * rim_w * rim_w)).exp();
            // Depression inside the rim (smoothstep to the crater floor).
            if r < rim_r {
                let t = (r / rim_r).clamp(0.0, 1.0);
                let s = t * t * (3.0 - 2.0 * t);
                z -= depth * (1.0 - s);
            }
            // The lake: flat water surface.
            if r < rim_r * 0.8 && z < lake_z {
                z = lake_z;
            }
            hf.set(col, row, z);
        }
    }
    hf
}

/// A deterministic inclined plane `z = slope · x`. Every interior point is
/// perfectly predicted by its neighbours, so a simplifier should reduce it
/// with near-zero error — handy for tests.
pub fn ramp(width: usize, height: usize, slope: f64) -> Heightfield {
    Heightfield::from_fn(width, height, 1.0, |x, _| slope * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_square_shape() {
        let hf = diamond_square(4, 7, 0.5);
        assert_eq!(hf.width(), 17);
        assert_eq!(hf.height(), 17);
        let (lo, hi) = hf.z_range();
        assert!(lo < hi, "fractal terrain must not be flat");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = fractal_terrain(33, 33, 42);
        let b = fractal_terrain(33, 33, 42);
        assert_eq!(a.rmse(&b), 0.0);
        let c = crater_terrain(33, 33, 42);
        let d = crater_terrain(33, 33, 42);
        assert_eq!(c.rmse(&d), 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = fractal_terrain(33, 33, 1);
        let b = fractal_terrain(33, 33, 2);
        assert!(a.rmse(&b) > 0.0);
    }

    #[test]
    fn non_square_sizes_work() {
        let hf = fractal_terrain(40, 25, 3);
        assert_eq!((hf.width(), hf.height()), (40, 25));
        let hf = crater_terrain(25, 40, 3);
        assert_eq!((hf.width(), hf.height()), (25, 40));
    }

    #[test]
    fn crater_has_rim_above_center() {
        let hf = crater_terrain(65, 65, 9);
        let center = hf.at(32, 32);
        // Max along the rim radius ring must rise well above the centre.
        let ext = 64.0;
        let rim_r = (ext * 0.30) as isize;
        let mut rim_max = f64::NEG_INFINITY;
        for a in 0..360 {
            let th = (a as f64).to_radians();
            let c = (32.0 + rim_r as f64 * th.cos()).round() as usize;
            let r = (32.0 + rim_r as f64 * th.sin()).round() as usize;
            if c < 65 && r < 65 {
                rim_max = rim_max.max(hf.at(c, r));
            }
        }
        assert!(
            rim_max > center + ext * 0.1,
            "rim {rim_max:.1} should tower over centre {center:.1}"
        );
    }

    #[test]
    fn crater_lake_is_flat() {
        let hf = crater_terrain(129, 129, 5);
        // Sample a small disc at the centre: all values equal (the lake).
        let c = hf.at(64, 64);
        for (dc, dr) in [(1isize, 0isize), (-1, 0), (0, 1), (0, -1), (2, 2), (-3, 1)] {
            let v = hf.at((64 + dc) as usize, (64 + dr) as usize);
            assert_eq!(v, c, "lake surface must be flat");
        }
    }

    #[test]
    fn ramp_is_linear() {
        let hf = ramp(10, 5, 2.0);
        assert_eq!(hf.at(0, 0), 0.0);
        assert_eq!(hf.at(9, 4), 18.0);
        assert_eq!(hf.at(4, 2), 8.0);
    }
}

//! Order statistics and the open-loop schedule.

use std::time::{Duration, Instant};

/// Quantile `q ∈ [0, 1]` of `xs` by linear interpolation between order
/// statistics (what `statistics.quantiles(method="inclusive")` computes).
/// Sorts `xs`; 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile of the ladder 50 / 75 / 90 / 95 / 99 / 99.9
/// that still has at least ten samples beyond it in a sample of `n` —
/// the tail a sample of that size can support. `None` below 20 samples,
/// where not even the median qualifies.
pub fn supported_tail(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand)
    [
        (99.9, 1),
        (99.0, 10),
        (95.0, 50),
        (90.0, 100),
        (75.0, 250),
        (50.0, 500),
    ]
    .into_iter()
    .find(|&(_, beyond)| n * beyond >= 10_000)
    .map(|(p, _)| p)
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule compares against a metric's bound. Quartiles as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(xs: &mut [f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        xs[j - 1] + (xs[j] - xs[j - 1]) * frac
    };
    let (q1, q3) = (cut(1), cut(3));
    let med = cut(2);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// An open-loop send schedule: request `i` is due at `start + i / rate`,
/// whatever happened to the requests before it. Due times never move,
/// so a stall neither drifts the schedule nor squeezes the following
/// due times together; the requests that fell behind are simply late,
/// and their latency — taken from the due time — says by how much.
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, per_second: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / per_second),
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Sleep until request `i` is due; returns its due time and how late
    /// the generator was in getting to it (zero when it had to wait).
    pub fn wait(&self, i: u64) -> (Instant, Duration) {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            (due, Instant::now().saturating_duration_since(due))
        } else {
            (due, now - due)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_choice_follows_sample_size() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(2000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&mut xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_does_not_bunch_after_a_stall() {
        let start = Instant::now();
        let s = Schedule::new(start, 200.0);
        s.wait(0);
        // The generator stalls for six intervals.
        std::thread::sleep(Duration::from_millis(30));
        let (due1, late1) = s.wait(1);
        let (due2, late2) = s.wait(2);
        // Due times stay on the grid: not re-based on the late send, not
        // squeezed together to catch up.
        assert_eq!(due1, start + Duration::from_millis(5));
        assert_eq!(due2 - due1, Duration::from_millis(5));
        // The stall is reported as lateness instead.
        assert!(late1 >= Duration::from_millis(20), "{late1:?}");
        assert!(late2 >= Duration::from_millis(15), "{late2:?}");
        // Once the schedule is ahead of the clock again, it waits.
        let (due20, late20) = s.wait(20);
        assert!(Instant::now() >= due20);
        assert!(late20 < Duration::from_millis(20), "{late20:?}");
    }
}

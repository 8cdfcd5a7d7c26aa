//! `dmbench compare <a.json> <b.json>`: judge result file `b` (the
//! change) against `a` (the parent) by the bounds in `BENCHMARK.json`.
//!
//! One row per workload × end-to-end metric: both medians, how much
//! worse `b` is as a share of `a`, the bound, and a verdict. A pairing
//! whose own run-to-run spread (in either file) exceeds its bound is
//! *unresolved*, not unchanged — as is one with fewer than four runs on
//! either side, whose spread is unknown. The answers digests of the two files
//! must agree workload by workload. Exit status is non-zero on any
//! regression, digest mismatch or incorrect run.

use std::path::Path;

use crate::json::Json;
use crate::stats::{iqr_share, median};

/// Runs per side below which a spread is not computed.
const MIN_RUNS: usize = 4;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark: &Json) -> Vec<Bound> {
    benchmark
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// A metric's values over the runs of one workload in a result file.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(doc, workload)
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn runs<'a>(doc: &'a Json, workload: &str) -> &'a [Json] {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .map_or(&[][..], Json::as_arr)
}

fn digests(doc: &Json, workload: &str) -> Vec<String> {
    let mut ds: Vec<String> = runs(doc, workload)
        .iter()
        .filter_map(|r| Some(r.get("answers_digest")?.as_str()?.to_string()))
        .collect();
    ds.sort();
    ds.dedup();
    ds
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// `spread` is `None` when there are too few runs to know it.
pub fn verdict(worse: f64, spread: Option<f64>, bound: f64) -> Verdict {
    if spread.map_or(worse > bound, |s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Returns `Ok(true)` when `b` is acceptable against `a`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let benchmark = load(Path::new("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut pass = true;
    println!(
        "{:<18} {:<24} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse", "spread", "bound"
    );
    let workloads = benchmark
        .get("workloads")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|w| w.get("name")?.as_str());
    for w in workloads {
        for m in bounds(&benchmark) {
            let (mut va, mut vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<18} {:<24} missing in one input", m.name);
                pass = false;
                continue;
            }
            let (ma, mb) = (median(&mut va), median(&mut vb));
            let worse = worsening(ma, mb, m.higher_is_better);
            let spread = (va.len() >= MIN_RUNS && vb.len() >= MIN_RUNS)
                .then(|| iqr_share(&mut va).max(iqr_share(&mut vb)));
            let v = verdict(worse, spread, m.bound);
            pass &= v != Verdict::Regression;
            println!(
                "{w:<18} {:<24} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7} {:>6.2}%  {}",
                m.name,
                worse * 100.0,
                spread.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        let (da, db) = (digests(&a, w), digests(&b, w));
        let same = da.len() == 1 && da == db;
        pass &= same;
        println!(
            "{w:<18} {:<24} {:>12} {:>12}  {}",
            "answers_digest",
            da.join("|"),
            db.join("|"),
            if same { "same" } else { "DIFFERENT" }
        );
        let all_correct = runs(&a, w)
            .iter()
            .chain(runs(&b, w))
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        if !all_correct {
            println!("{w:<18} a run reported incorrect answers");
            pass = false;
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn verdict_prefers_unresolved_over_a_call_inside_the_noise() {
        assert_eq!(verdict(0.02, Some(0.01), 0.10), Verdict::Ok);
        assert_eq!(verdict(0.12, Some(0.01), 0.10), Verdict::Regression);
        assert_eq!(verdict(0.12, Some(0.11), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(-0.30, Some(0.01), 0.10), Verdict::Ok);
        // Too few runs to know the spread: no regression is called.
        assert_eq!(verdict(0.12, None, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.02, None, 0.10), Verdict::Ok);
    }

    #[test]
    fn reads_values_and_digests_from_a_result_file() {
        let doc = Json::parse(
            r#"{"workloads": {"w": {"runs": [
                {"correct": true, "answers_digest": "ab", "metrics": {"x": 1.5}},
                {"correct": true, "answers_digest": "ab", "metrics": {"x": 2.5}}]}}}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "w", "x"), vec![1.5, 2.5]);
        assert_eq!(digests(&doc, "w"), vec!["ab".to_string()]);
        assert!(values(&doc, "w", "y").is_empty());
        assert!(values(&doc, "other", "x").is_empty());
    }
}

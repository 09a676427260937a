//! `hail-bench diff <a.json> <b.json>`: applies `BENCHMARK.json`'s
//! bounds to two result files of `hail-bench run --out`, one row per
//! (metric, workload). `a` is the baseline.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{iqr_share, median};
use crate::workloads::R;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The baseline's own run-to-run spread exceeds the bound, so the
    /// bound cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when it improved), and the verdict under the bound.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if metric.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let spread = iqr_share(a).max(iqr_share(b));
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (worse_by, spread, verdict)
}

fn load(path: &str) -> R<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn numbers(list: Option<&Json>) -> Vec<f64> {
    list.map(|l| l.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    numbers(
        file.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("values")),
    )
}

/// Failed ops ÷ ops attempted, over all of a file's runs of a workload.
fn failed_share(file: &Json, workload: &str) -> Option<f64> {
    let w = file.get("workloads")?.get(workload)?;
    let attempted: f64 = numbers(w.get("attempted")).iter().sum();
    let failed: f64 = numbers(w.get("failed")).iter().sum();
    (attempted > 0.0).then(|| failed / attempted)
}

/// Prints the table; `Ok(false)` when any pair is `worse`.
pub fn files(a_path: &str, b_path: &str, spec: &Spec) -> R<bool> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<12} {:<28} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{}@{workload} is missing from one of the files",
                    metric.name
                ));
            }
            let (worse_by, spread, verdict) = judge(metric, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<12} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                spread * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.label()
            );
        }
        // A failed op is never within a bound: the bound is 0, absolute.
        let (fa, fb) = match (failed_share(&a, workload), failed_share(&b, workload)) {
            (Some(fa), Some(fb)) => (fa, fb),
            _ => {
                return Err(format!(
                    "attempted/failed@{workload} is missing from a file"
                ))
            }
        };
        let verdict = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Within
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{:<12} {:<28} {:>14.6} {:>14.6} {:>9} {:>8} {:>6.1}%  {}",
            workload,
            "failed_share",
            fa,
            fb,
            "",
            "",
            0.0,
            verdict.label()
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = metric(true, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[105.0]).2, Verdict::Within);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).2, Verdict::Worse);
        assert_eq!(judge(&lower, &[100.0], &[80.0]).2, Verdict::Better);
        let higher = metric(false, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).2, Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0], &[120.0]).2, Verdict::Better);
        assert_eq!(judge(&higher, &[100.0], &[95.0]).2, Verdict::Within);
    }

    #[test]
    fn wide_baseline_spread_is_unresolved_not_unchanged() {
        let lower = metric(true, 0.10);
        // Quartiles of 80..=120 in steps of 10 are 85 and 115: 30 % of
        // the median.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let (_, spread, verdict) = judge(&lower, &noisy, &[100.0, 100.0]);
        assert!((spread - 0.30).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Unresolved);
    }
}

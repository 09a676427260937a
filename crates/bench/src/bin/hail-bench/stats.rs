//! The arithmetic behind every reported number: medians, nearest-rank
//! percentiles, the segment-median throughput and the quartile spread
//! `diff` resolves A/A noise with.

/// Median of unsorted samples (mean of the two middle values for an
/// even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Throughput as the median over `segments` equal consecutive runs of
/// ops of (ops ÷ seconds): one slow stretch moves one segment, not the
/// figure. The tail that does not fill a segment is left out.
pub fn segment_median_rate(op_seconds: &[f64], segments: usize) -> f64 {
    let per = op_seconds.len() / segments.max(1);
    if per == 0 {
        let total: f64 = op_seconds.iter().sum();
        return if total > 0.0 {
            op_seconds.len() as f64 / total
        } else {
            0.0
        };
    }
    let rates: Vec<f64> = op_seconds
        .chunks_exact(per)
        .take(segments)
        .map(|chunk| per as f64 / chunk.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1], delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound is resolved against. 0 when it cannot be computed.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let m = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn segment_median_ignores_one_slow_stretch() {
        // 10 ops: two segments of 1 s ops, one segment with a 100 s stall.
        let mut ops = vec![1.0; 10];
        ops[4] = 100.0;
        // 5 segments of 2 ops: rates 1,1,2/101,1,1 → median 1.
        assert_eq!(segment_median_rate(&ops, 5), 1.0);
        // Fewer ops than segments degrades to the plain mean rate.
        assert_eq!(segment_median_rate(&[0.5, 0.5], 5), 2.0);
        // The unfilled tail is left out: 11 ops → 5 segments of 2.
        ops.push(1000.0);
        assert_eq!(segment_median_rate(&ops, 5), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}

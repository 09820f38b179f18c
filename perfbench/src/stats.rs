//! Order statistics over samples.

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100)`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// Samples strictly beyond the nearest-rank p99 of `n` samples.
pub fn beyond_p99(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, 99.0)
    }
}

/// The smallest sample count whose p99 has at least `beyond` samples past
/// it.
pub fn samples_for_p99(beyond: usize) -> usize {
    (1..)
        .find(|&n| beyond_p99(n) >= beyond)
        .expect("a large enough sample exists")
}

/// Consecutive blocks of `size` samples; a partial last block joins the
/// one before it.
pub fn blocks(samples: &[f64], size: usize) -> Vec<&[f64]> {
    let mut out: Vec<&[f64]> = samples.chunks(size).collect();
    if out.len() > 1 && out.last().map_or(0, |b| b.len()) < size {
        out.pop();
        let start = (out.len() - 1) * size;
        *out.last_mut().expect("a block remains") = &samples[start..];
    }
    out
}

/// Sum divided by count; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_partial_last_block_joins_the_one_before() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let b = blocks(&v, 4);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], &v[..4]);
        assert_eq!(b[1], &v[4..]);
        assert_eq!(blocks(&v, 5).len(), 2);
        assert_eq!(blocks(&v[..3], 4), vec![&v[..3]]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_and_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), beyond_p99(1000));
        assert_eq!(beyond_p99(1000), 10);
        assert_eq!(samples_for_p99(10), 1000);
        assert_eq!(beyond_p99(999), 9);
        assert_eq!(beyond_p99(0), 0);
    }
}

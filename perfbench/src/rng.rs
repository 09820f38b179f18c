//! Seeded pseudo-random draws. Every workload input is a pure function of
//! the `--seed` argument, so two runs with one seed see byte-identical
//! modules and request sequences.

/// SplitMix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// A Zipf distribution over `n` ranks: rank `k` (0-based) has weight
/// `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The probability of rank `k`.
    pub fn probability(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        let d: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_favours_low_ranks_and_sums_to_one() {
        let z = Zipf::new(78, 1.0);
        let total: f64 = (0..78).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.probability(0) > z.probability(1));
        let mut rng = Rng::new(3);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        let expected = z.probability(0) * 10_000.0;
        assert!(
            (hits as f64 - expected).abs() < expected * 0.15,
            "{hits} vs {expected}"
        );
    }
}

//! Seeded sampling primitives on top of plain `rand`.
//!
//! The approved offline crate set includes `rand` but not `rand_distr`, so
//! the handful of distributions the ecosystem model needs are implemented
//! here: standard normal (Box–Muller), log-normal in log10 space (app
//! download counts are classically log-normal with a heavy tail), and
//! weighted index choice.

use rand::Rng;

/// One draw from the standard normal distribution via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Mean of log10(downloads): with [`LOG10_DOWNLOADS_SIGMA`],
/// `P(downloads ≥ 1e5) = P(Z ≥ (5 − 2.2) / 2.0 = 1.4) ≈ 8.08%` — the
/// Play-found → 100K+ funnel ratio of Table 2.
const LOG10_DOWNLOADS_MU: f64 = 2.2;
/// Standard deviation of log10(downloads).
const LOG10_DOWNLOADS_SIGMA: f64 = 2.0;
/// Cap on log10(downloads) (5e9 installs ≈ 9.7).
const LOG10_DOWNLOADS_CAP: f64 = 9.7;

/// Download-count model: `log10(downloads) ~ N(2.2, 2.0)`, clamped to
/// `[0, 9.7]`.
pub fn log10_downloads<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    let x = normal(rng, LOG10_DOWNLOADS_MU, LOG10_DOWNLOADS_SIGMA).clamp(0.0, LOG10_DOWNLOADS_CAP);
    10f64.powf(x) as u64
}

/// Pick an index in `[0, weights.len())` proportionally to `weights`.
/// Zero-weight entries are never chosen. Panics on an empty or all-zero
/// weight slice — callers control the tables passed here.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weighted_index needs a positive total weight");
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    // Floating-point slack: return the last positive-weight index.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("positive total implies a positive weight")
}

/// Bernoulli draw.
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Standard normal CDF (Abramowitz–Stegun 7.1.26 approximation), used by
    /// calibration tests to check sampled tail masses.
    fn normal_cdf(z: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.2316419 * z.abs());
        let poly = t
            * (0.319381530
                + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
        let pdf = (-z * z / 2.0).exp() / (std::f64::consts::TAU).sqrt();
        let p = 1.0 - pdf * poly;
        if z >= 0.0 {
            p
        } else {
            1.0 - p
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn download_tail_matches_funnel_ratio() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 300_000;
        let over = (0..n)
            .filter(|_| log10_downloads(&mut rng) >= 100_000)
            .count();
        let frac = over as f64 / n as f64;
        // Expected P(Z >= 1.4) = 1 - Phi(1.4) ≈ 0.0808.
        let expected = 1.0 - normal_cdf(1.4);
        assert!(
            (frac - expected).abs() < 0.005,
            "tail {frac} vs expected {expected}"
        );
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn weighted_index_rejects_all_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        weighted_index(&mut rng, &[0.0, 0.0]);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.4) - 0.9192).abs() < 5e-4);
        assert!((normal_cdf(-1.0) - 0.1587).abs() < 5e-4);
    }

    #[test]
    fn coin_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| coin(&mut rng, 0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }
}

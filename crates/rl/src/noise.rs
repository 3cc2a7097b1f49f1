//! Gaussian exploration noise via the Box–Muller transform.
//!
//! `rand` alone (without `rand_distr`) provides only uniform variates, so
//! the normal draw is implemented here; Box–Muller is exact and cheap at
//! the volumes TD3 needs.

use rand::Rng;

/// A zero-mean Gaussian noise source with configurable standard deviation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GaussianNoise {
    /// Standard deviation of each sample.
    pub std_dev: f64,
}

impl GaussianNoise {
    /// Creates a source with the given standard deviation.
    pub fn new(std_dev: f64) -> GaussianNoise {
        GaussianNoise {
            std_dev: std_dev.abs(),
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.std_dev * standard_normal(rng)
    }

    /// Draws one sample clipped to `[-clip, clip]`.
    pub(crate) fn sample_clipped<R: Rng>(&self, rng: &mut R, clip: f64) -> f64 {
        self.sample(rng).clamp(-clip.abs(), clip.abs())
    }
}

/// One standard normal variate (Box–Muller).
pub(crate) fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_are_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn std_dev_scales() {
        let mut rng = StdRng::seed_from_u64(7);
        let noise = GaussianNoise::new(0.5);
        let n = 20_000;
        let var = (0..n).map(|_| noise.sample(&mut rng).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn clipping_bounds_samples() {
        let mut rng = StdRng::seed_from_u64(9);
        let noise = GaussianNoise::new(10.0);
        for _ in 0..1000 {
            let s = noise.sample_clipped(&mut rng, 0.3);
            assert!((-0.3..=0.3).contains(&s));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..16)
                .map(|_| standard_normal(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
    }
}

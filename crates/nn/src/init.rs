//! Deterministic weight initialization.

use rand::Rng;

/// Draws from the Xavier/Glorot uniform distribution
/// `U(−√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`, the standard choice
/// for tanh networks like Orca's actor.
pub(crate) fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> f64 {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    rng.random_range(-limit..limit)
}

/// Draws from the He/Kaiming uniform distribution
/// `U(−√(6/fan_in), +√(6/fan_in))`, preferred for ReLU layers.
pub(crate) fn he_uniform<R: Rng>(rng: &mut R, fan_in: usize) -> f64 {
    let limit = (6.0 / fan_in as f64).sqrt();
    rng.random_range(-limit..limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let limit = (6.0f64 / 96.0).sqrt();
        for _ in 0..1000 {
            let w = xavier_uniform(&mut rng, 32, 64);
            assert!(w.abs() < limit);
        }
    }

    #[test]
    fn he_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let limit = (6.0f64 / 32.0).sqrt();
        for _ in 0..1000 {
            let w = he_uniform(&mut rng, 32);
            assert!(w.abs() < limit);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8)
                .map(|_| xavier_uniform(&mut rng, 4, 4))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn roughly_zero_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| xavier_uniform(&mut rng, 16, 16)).sum();
        assert!((sum / n as f64).abs() < 0.01);
    }
}

//! Random initialization helpers (Gaussian via Box–Muller, Xavier/Glorot,
//! uniform) built on top of `rand::StdRng` so that every experiment is fully
//! reproducible from a `u64` seed.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples one standard normal value using the Box–Muller transform.
///
/// `rand_distr` is intentionally not a dependency (the offline crate budget is
/// limited), so the Gaussian sampling the paper's initializers need is
/// implemented directly.
pub fn sample_standard_normal(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 > f32::EPSILON {
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            let v = r * theta.cos();
            if v.is_finite() {
                return v;
            }
        }
    }
}

/// A matrix with i.i.d. `N(mean, std^2)` entries.
pub fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| mean + std * sample_standard_normal(rng))
}

/// A matrix with i.i.d. `U(lo, hi)` entries.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight matrix.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, -limit, limit, rng)
}

/// Samples `k` distinct indices from `0..n` (Fisher–Yates style partial
/// shuffle).  Panics when `k > n`.
pub fn sample_without_replacement(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k <= n, "cannot sample {} items from a pool of {}", k, n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

/// Shuffles a slice in place.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    let n = items.len();
    if n < 2 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_has_roughly_correct_moments() {
        let mut rng = rng_from_seed(7);
        let m = randn(200, 50, 0.0, 1.0, &mut rng);
        let mean = m.mean();
        let var = m.map(|v| (v - mean) * (v - mean)).mean();
        assert!(mean.abs() < 0.05, "mean {} too far from 0", mean);
        assert!((var - 1.0).abs() < 0.1, "variance {} too far from 1", var);
    }

    #[test]
    fn xavier_bounds_respected() {
        let mut rng = rng_from_seed(1);
        let m = xavier_uniform(100, 50, &mut rng);
        let limit = (6.0 / 150.0_f32).sqrt();
        assert!(m.max() <= limit && m.min() >= -limit);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = randn(4, 4, 0.0, 1.0, &mut rng_from_seed(42));
        let b = randn(4, 4, 0.0, 1.0, &mut rng_from_seed(42));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn sampling_without_replacement_is_distinct() {
        let mut rng = rng_from_seed(3);
        let s = sample_without_replacement(100, 40, &mut rng);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
        assert!(sorted.iter().all(|&v| v < 100));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sampling_too_many_panics() {
        let mut rng = rng_from_seed(3);
        let _ = sample_without_replacement(3, 4, &mut rng);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = rng_from_seed(9);
        let mut v: Vec<usize> = (0..50).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}

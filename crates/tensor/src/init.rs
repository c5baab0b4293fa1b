//! Random initialization helpers (Gaussian via Box–Muller, Xavier/Glorot,
//! uniform) built on top of `rand::StdRng` so that every experiment is fully
//! reproducible from a `u64` seed.

use crate::kernel;
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The uniform pair of one Box–Muller sample: pairs are drawn until
/// `u1 > f32::EPSILON`.  That is the whole rejection rule, because the
/// transform of an accepted pair is always finite (see [`box_muller`]).
#[inline]
fn accepted_uniform_pair(rng: &mut StdRng) -> (f32, f32) {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 > f32::EPSILON {
            return (u1, u2);
        }
    }
}

/// The Box–Muller transform of an accepted pair.  `u1` lies in
/// `(f32::EPSILON, 1)`, so `-2 ln u1` lies in `(0, 32)` and the result is
/// finite.
#[inline]
fn box_muller(u1: f32, u2: f32) -> f32 {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    r * theta.cos()
}

/// Uniform pairs drawn per serial block of [`fill_standard_normal`]; one
/// block is large enough for the transform to run on the pool.
const NORMAL_BLOCK: usize = kernel::PAR_ELEM_WORK;

/// Fills `out` with i.i.d. standard normal samples (Box–Muller), in order.
///
/// `rand_distr` is intentionally not a dependency (the offline crate budget is
/// limited), so the Gaussian sampling the paper's initializers need is
/// implemented directly.  Sample `i` reads the same RNG words whatever the
/// fill's length and block boundaries, so the values, and the RNG state left
/// behind, equal those of filling one sample at a time: the stream every
/// generated dataset is pinned to.  The uniform pairs are drawn serially, one
/// block at a time, and the transform of a block runs on the pool above
/// [`kernel::PAR_ELEM_WORK`] elements.
pub fn fill_standard_normal(out: &mut [f32], rng: &mut StdRng) {
    let block = out.len().min(NORMAL_BLOCK);
    let (mut u1, mut u2) = (vec![0.0f32; block], vec![0.0f32; block]);
    for chunk in out.chunks_mut(NORMAL_BLOCK) {
        let (u1, u2) = (&mut u1[..chunk.len()], &mut u2[..chunk.len()]);
        for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
            (*a, *b) = accepted_uniform_pair(rng);
        }
        kernel::binary_map_into(u1, u2, chunk, box_muller);
    }
}

/// A matrix with i.i.d. `N(mean, std^2)` entries, drawn in row-major order.
pub fn randn(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut StdRng) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    fill_standard_normal(out.data_mut(), rng);
    kernel::unary_map_inplace(out.data_mut(), |z| mean + std * z);
    out
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

    /// The former one-sample-per-call sampler, verbatim:
    /// `fill_standard_normal` must reproduce its values and leave the RNG
    /// where it leaves it.
    fn reference_standard_normal(rng: &mut StdRng) -> f32 {
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

    #[test]
    fn fill_standard_normal_matches_repeated_samples_bit_for_bit() {
        // Lengths straddle the RNG's 64-word buffer (32 pairs) and the fill's
        // block, whose full size also takes the pool's parallel path.
        for len in [
            0,
            1,
            31,
            32,
            33,
            64,
            65,
            NORMAL_BLOCK - 1,
            NORMAL_BLOCK,
            NORMAL_BLOCK + 1,
            2 * NORMAL_BLOCK + 33,
        ] {
            let mut filled = rng_from_seed(len as u64);
            let mut referenced = rng_from_seed(len as u64);
            let mut out = vec![f32::NAN; len];
            fill_standard_normal(&mut out, &mut filled);
            for (i, v) in out.iter().enumerate() {
                let want = reference_standard_normal(&mut referenced);
                assert_eq!(v.to_bits(), want.to_bits(), "element {i} of {len}");
            }
            // Both leave the RNG on the same next word.
            assert_eq!(
                filled.gen::<u64>(),
                referenced.gen::<u64>(),
                "RNG state after {len}"
            );
        }
    }

    #[test]
    fn randn_matches_the_per_element_formula() {
        let mut rng = rng_from_seed(5);
        let mut reference = rng_from_seed(5);
        let m = randn(37, 29, 0.5, 2.0, &mut rng);
        let want = Matrix::from_fn(37, 29, |_, _| {
            0.5 + 2.0 * reference_standard_normal(&mut reference)
        });
        assert_eq!(m.data(), want.data());
        assert_eq!(rng.gen::<u32>(), reference.gen::<u32>());
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

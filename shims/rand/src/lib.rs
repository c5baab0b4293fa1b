//! Offline stand-in for the `rand` crate (0.8 API surface).
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a bit-faithful reimplementation of the parts of `rand` 0.8 it uses:
//!
//! * [`rngs::StdRng`] — ChaCha12 with `rand_chacha`'s exact state layout
//!   (64-bit block counter in words 12/13, zero stream), `rand_core`'s
//!   four-block `BlockRng` buffering (including the word-straddling
//!   `next_u64` at the buffer boundary) and `rand_core`'s PCG32-based
//!   `seed_from_u64`. The ChaCha core is verified in the test module against
//!   keystream vectors cross-checked with an independent implementation.
//! * [`Rng::gen`] / [`Rng::gen_range`] — the `Standard` and uniform
//!   int/float sampling algorithms of `rand` 0.8 (widening-multiply
//!   rejection for integers, `[1, 2)` mantissa trick for floats).
//!
//! Faithfulness matters because the workspace's stochastic integration tests
//! were tuned against upstream `StdRng` streams.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Seed type.
    type Seed;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed, expanding it exactly like
    /// `rand_core` 0.6 (PCG32 output function over an LCG).
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore + Sized {
    /// Samples a value of type `T` from its standard distribution
    /// (`[0, 1)` for floats, full range for integers).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from a (half-open or inclusive) range.
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Bernoulli sample with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        // rand 0.8 Bernoulli: compare 64 random bits against p * 2^64.
        let p_int = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.gen::<u64>() < p_int
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Types samplable by [`Rng::gen`], following `rand` 0.8's `Standard`.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        // Multiply-based method, 24 random bits (rand 0.8).
        let scale = 1.0 / ((1u32 << 24) as f32);
        (rng.next_u32() >> 8) as f32 * scale
    }
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        let scale = 1.0 / ((1u64 << 53) as f64);
        (rng.next_u64() >> 11) as f64 * scale
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for usize {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Standard for i64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Standard for i32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32() as i32
    }
}

impl Standard for u8 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32() as u8
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        // Sign test on the most significant bit (rand 0.8).
        (rng.next_u32() as i32) < 0
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// rand 0.8 `UniformInt::sample_single_inclusive` on a 64-bit word:
/// widening-multiply with rejection below the zone.
#[inline]
fn uniform_u64_inclusive<R: RngCore>(rng: &mut R, low: u64, high: u64) -> u64 {
    let range = high.wrapping_sub(low).wrapping_add(1);
    if range == 0 {
        // Full span requested.
        return rng.next_u64();
    }
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let v = rng.next_u64();
        let wide = v as u128 * range as u128;
        let (hi, lo) = ((wide >> 64) as u64, wide as u64);
        if lo <= zone {
            return low.wrapping_add(hi);
        }
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "UniformSampler::sample_single: low >= high"
                );
                uniform_u64_inclusive(rng, self.start as u64, (self.end - 1) as u64) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(
                    lo <= hi,
                    "UniformSampler::sample_single_inclusive: low > high"
                );
                uniform_u64_inclusive(rng, lo as u64, hi as u64) as $t
            }
        }
    )*};
}

// All unsigned call sites in this workspace are usize/u64/u32; the sampling
// word is always u64, matching rand's `uniform_int_impl!` for usize/u64.
int_sample_range!(usize, u64, u32, u16, u8);

macro_rules! signed_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "UniformSampler::sample_single: low >= high"
                );
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = uniform_u64_inclusive(rng, 0, span - 1);
                (self.start as i128 + offset as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(
                    lo <= hi,
                    "UniformSampler::sample_single_inclusive: low > high"
                );
                let span = (hi as i128 - lo as i128) as u64;
                let offset = uniform_u64_inclusive(rng, 0, span);
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

signed_sample_range!(i64, i32, i16, i8, isize);

macro_rules! float_sample_range {
    ($($t:ty, $u:ty, $bits_to_discard:expr, $exp_mask:expr);*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (low, high) = (self.start, self.end);
                assert!(low < high, "UniformSampler::sample_single: low >= high");
                let mut scale = high - low;
                loop {
                    // Generate a value in [1, 2), shift to [0, 1) (rand 0.8).
                    let bits: $u = Standard::sample(rng);
                    let value1_2 = <$t>::from_bits($exp_mask | (bits >> $bits_to_discard));
                    let value0_1 = value1_2 - 1.0;
                    let res = value0_1 * scale + low;
                    if res < high {
                        return res;
                    }
                    // Rounding produced `high`; shrink the scale and retry.
                    scale = <$t>::from_bits(scale.to_bits() - 1);
                }
            }
        }
    )*};
}

float_sample_range!(f32, u32, 9, 0x3F80_0000; f64, u64, 12, 0x3FF0_0000_0000_0000);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    const BLOCK_WORDS: usize = 16;
    /// `rand_core::BlockRng` buffers four ChaCha blocks per refill.
    const BUFFER_WORDS: usize = 64;

    /// The ChaCha12 generator behind `rand` 0.8's `StdRng`, reimplemented
    /// with the identical stream: same state layout, same buffering, same
    /// seeding. See the crate docs for why faithfulness matters.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        results: [u32; BUFFER_WORDS],
        index: usize,
    }

    /// One word of each of the four blocks a refill computes.
    type Lanes = [u32; 4];

    /// The ChaCha quarter round on four independent blocks at once, one per
    /// lane; written lane-wise so the compiler can keep each word in a
    /// vector register.
    #[inline(always)]
    fn quarter_round(state: &mut [Lanes; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        let (mut xa, mut xb, mut xc, mut xd) = (state[a], state[b], state[c], state[d]);
        for (((a, b), c), d) in xa.iter_mut().zip(&mut xb).zip(&mut xc).zip(&mut xd) {
            *a = a.wrapping_add(*b);
            *d = (*d ^ *a).rotate_left(16);
            *c = c.wrapping_add(*d);
            *b = (*b ^ *c).rotate_left(12);
            *a = a.wrapping_add(*b);
            *d = (*d ^ *a).rotate_left(8);
            *c = c.wrapping_add(*d);
            *b = (*b ^ *c).rotate_left(7);
        }
        (state[a], state[b], state[c], state[d]) = (xa, xb, xc, xd);
    }

    /// The four 12-round ChaCha blocks at `counter .. counter + 4`, computed
    /// in one pass with one block per lane and written block after block:
    /// the words of four single-block calls in the djb layout rand_chacha
    /// uses (constants, key, 64-bit little-endian block counter, 64-bit
    /// stream id, always zero here).
    fn chacha12_four_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER_WORDS]) {
        const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
        let mut initial = [[0u32; 4]; BLOCK_WORDS];
        for (word, &c) in initial.iter_mut().zip(CONSTANTS.iter().chain(key)) {
            *word = [c; 4];
        }
        let blocks: [u64; 4] = std::array::from_fn(|lane| counter.wrapping_add(lane as u64));
        initial[12] = blocks.map(|block| block as u32);
        initial[13] = blocks.map(|block| (block >> 32) as u32);
        // words 14/15: stream id = 0.
        let mut working = initial;
        for _ in 0..6 {
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (lane, block) in out.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            for (o, (w, i)) in block.iter_mut().zip(working.iter().zip(initial.iter())) {
                *o = w[lane].wrapping_add(i[lane]);
            }
        }
    }

    impl StdRng {
        fn generate_and_set(&mut self, index: usize) {
            chacha12_four_blocks(&self.key, self.counter, &mut self.results);
            self.counter = self
                .counter
                .wrapping_add((BUFFER_WORDS / BLOCK_WORDS) as u64);
            self.index = index;
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut key = [0u32; 8];
            for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
                *k = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            Self {
                key,
                counter: 0,
                results: [0; BUFFER_WORDS],
                index: BUFFER_WORDS, // empty: first use refills
            }
        }

        fn seed_from_u64(mut state: u64) -> Self {
            // rand_core 0.6: PCG32 output function over an LCG fills the seed.
            const MUL: u64 = 6364136223846793005;
            const INC: u64 = 11634580027462260723;
            let mut seed = [0u8; 32];
            for chunk in seed.chunks_mut(4) {
                state = state.wrapping_mul(MUL).wrapping_add(INC);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                let rot = (state >> 59) as u32;
                chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
            }
            Self::from_seed(seed)
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUFFER_WORDS {
                self.generate_and_set(0);
            }
            let value = self.results[self.index];
            self.index += 1;
            value
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            // rand_core::BlockRng::next_u64, including the boundary case
            // that pairs the last word of one buffer with the first of the
            // next.
            let index = self.index;
            if index < BUFFER_WORDS - 1 {
                self.index += 2;
                (u64::from(self.results[index + 1]) << 32) | u64::from(self.results[index])
            } else if index >= BUFFER_WORDS {
                self.generate_and_set(2);
                (u64::from(self.results[1]) << 32) | u64::from(self.results[0])
            } else {
                let x = u64::from(self.results[BUFFER_WORDS - 1]);
                self.generate_and_set(1);
                (u64::from(self.results[0]) << 32) | x
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The single-block ChaCha12 the four-lane refill replaced: one
        /// block at `counter`, scalar state, same layout.
        fn chacha12_block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
            fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
                s[a] = s[a].wrapping_add(s[b]);
                s[d] = (s[d] ^ s[a]).rotate_left(16);
                s[c] = s[c].wrapping_add(s[d]);
                s[b] = (s[b] ^ s[c]).rotate_left(12);
                s[a] = s[a].wrapping_add(s[b]);
                s[d] = (s[d] ^ s[a]).rotate_left(8);
                s[c] = s[c].wrapping_add(s[d]);
                s[b] = (s[b] ^ s[c]).rotate_left(7);
            }
            const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
            let mut initial = [0u32; 16];
            initial[..4].copy_from_slice(&CONSTANTS);
            initial[4..12].copy_from_slice(key);
            initial[12] = counter as u32;
            initial[13] = (counter >> 32) as u32;
            let mut working = initial;
            for _ in 0..6 {
                quarter_round(&mut working, 0, 4, 8, 12);
                quarter_round(&mut working, 1, 5, 9, 13);
                quarter_round(&mut working, 2, 6, 10, 14);
                quarter_round(&mut working, 3, 7, 11, 15);
                quarter_round(&mut working, 0, 5, 10, 15);
                quarter_round(&mut working, 1, 6, 11, 12);
                quarter_round(&mut working, 2, 7, 8, 13);
                quarter_round(&mut working, 3, 4, 9, 14);
            }
            for (o, (w, i)) in out.iter_mut().zip(working.iter().zip(initial.iter())) {
                *o = w.wrapping_add(*i);
            }
        }

        /// The refill at `counter` against four single-block calls.
        fn assert_refill_matches_single_blocks(rng: &mut StdRng, counter: u64) {
            rng.counter = counter;
            rng.generate_and_set(0);
            let mut want = [0u32; BUFFER_WORDS];
            for (b, block) in want.chunks_exact_mut(BLOCK_WORDS).enumerate() {
                chacha12_block(&rng.key, counter.wrapping_add(b as u64), block);
            }
            assert_eq!(rng.results, want, "refill at counter {counter:#x}");
            assert_eq!(rng.counter, counter.wrapping_add(4));
        }

        #[test]
        fn four_lane_refill_matches_four_single_blocks() {
            let mut rng = StdRng::seed_from_u64(17);
            // The lanes' counters carry into the high word at 2^32 - 2 (the
            // third lane starts it) and wrap the whole counter at the top.
            for counter in [0, 1, 63, (1u64 << 32) - 2, (1u64 << 32) - 1, u64::MAX - 1] {
                assert_refill_matches_single_blocks(&mut rng, counter);
            }
        }

        #[test]
        fn four_lane_stream_matches_the_single_block_stream() {
            let mut rng = StdRng::seed_from_u64(17);
            let key = rng.key;
            let mut block = [0u32; BLOCK_WORDS];
            for n in 0..64_000u64 {
                if n % BLOCK_WORDS as u64 == 0 {
                    chacha12_block(&key, n / BLOCK_WORDS as u64, &mut block);
                }
                assert_eq!(
                    rng.next_u32(),
                    block[(n % BLOCK_WORDS as u64) as usize],
                    "word {n}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    /// First two ChaCha12 keystream blocks for key = 00..1f, counter = 0,
    /// stream = 0 — cross-checked against an independent ChaCha
    /// implementation (the `cryptography` package's ChaCha20 agrees with the
    /// same harness at 20 rounds).
    const CHACHA12_BLOCK0: &str = "f231f9ffd17ac65e4405f325d7e940aa4913601fc2be46bce9c3cac3d91a1a365940b308c2857c9f29d6e2548528d49a612b1b0ae6765d16e585aefb46368879";
    const CHACHA12_BLOCK1: &str = "6cfa9aa0833b72e0db5c15523dd18346358e0ceb2e1b6448049d30327eee851622c65ea358aab7d50d49d2d9151bebc0d9d4261f48cc6c657f8a2b3ce7e08f88";

    #[test]
    fn chacha12_core_matches_reference_vectors() {
        let mut seed = [0u8; 32];
        for (i, b) in seed.iter_mut().enumerate() {
            *b = i as u8;
        }
        let mut rng = StdRng::from_seed(seed);
        let mut stream = Vec::new();
        for _ in 0..32 {
            stream.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        let hex: String = stream.iter().map(|b| format!("{:02x}", b)).collect();
        assert_eq!(&hex[..128], CHACHA12_BLOCK0);
        assert_eq!(&hex[128..], CHACHA12_BLOCK1);
    }

    #[test]
    fn next_u64_pairs_low_then_high_words() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let lo = a.next_u32() as u64;
        let hi = a.next_u32() as u64;
        assert_eq!(b.next_u64(), (hi << 32) | lo);
    }

    #[test]
    fn next_u64_straddles_the_buffer_boundary_like_block_rng() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..63 {
            a.next_u32();
            b.next_u32();
        }
        // `a` reads the straddling u64; `b` reads the raw words around the
        // boundary. BlockRng pairs (last word, first word of next buffer).
        let x = b.next_u32() as u64;
        let y = b.next_u32() as u64;
        assert_eq!(a.next_u64(), (y << 32) | x);
        // And both generators stay in sync afterwards.
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f32 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(0usize..=4);
            assert!(w <= 4);
            let f = rng.gen_range(-2.0f32..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {} is skewed", c);
        }
    }

    #[test]
    #[should_panic(expected = "low >= high")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.gen_range(5usize..5);
    }
}

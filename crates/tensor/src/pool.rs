//! Capacity-keyed buffer pool backing the allocation-free training engine.
//!
//! Every inner training loop of the paper (Eq. 12/16 victim training,
//! Eq. 13/17 trigger updates, Eq. 14/18 gradient matching) records the same
//! computation graph epoch after epoch, so every intermediate buffer has the
//! same length in every epoch.  [`BufferPool`] exploits that: instead of
//! returning buffers to the allocator when a [`crate::Tape`] is reset, their
//! backing `Vec<f32>` storage is parked in a bucket keyed by its capacity and
//! handed back out on the next request of that length.  After the first epoch
//! the hot loop performs (almost) no heap allocation.
//!
//! The pool is deliberately keyed by element count rather than shape: a
//! dense row-major [`Matrix`] is a flat `Vec<f32>` plus a shape, so two
//! shapes with the same element count can share storage.  A buffer the pool
//! allocated has capacity equal to its first length, so exact-length reuse
//! is exact-capacity reuse; keying by capacity keeps a buffer that once
//! served a shorter request available to requests its capacity covers.
//!
//! Buffers handed out by [`BufferPool::raw`] carry **unspecified contents**
//! (whatever the previous user left behind) and must be fully overwritten;
//! [`BufferPool::zeros`] / [`BufferPool::filled`] / [`BufferPool::copy_of`]
//! return fully initialized matrices.  The pool counts every allocator miss
//! in [`PoolStats`], which is what the `training` bench reports as
//! bytes-allocated-per-epoch.

use crate::matrix::Matrix;

/// Allocation counters of a [`BufferPool`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests served by a fresh heap allocation (pool miss).
    pub fresh_allocations: usize,
    /// Total bytes of those fresh allocations.
    pub fresh_bytes: usize,
    /// Buffer requests served from the pool (no allocation).
    pub reuses: usize,
}

/// A recycling pool of `Vec<f32>` buffers (bucketed by capacity) and
/// `Vec<usize>` index lists (any capacity).
#[derive(Debug, Default)]
pub struct BufferPool {
    /// `(capacity, parked buffers of exactly that capacity)`, linear-scanned:
    /// a training loop only ever touches a handful of distinct sizes.
    f32_buckets: Vec<(usize, Vec<Vec<f32>>)>,
    /// Parked index lists, reused for row-selection / label storage.
    usize_buckets: Vec<Vec<usize>>,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimum length for which a larger parked buffer may be shortened to
    /// serve a smaller request (below this, a fresh allocation is cheaper
    /// than tying up a large buffer's capacity in a tiny one).
    const BEST_FIT_MIN_LEN: usize = 4096;
    /// A parked buffer may serve a request down to a quarter of its capacity.
    const BEST_FIT_MAX_RATIO: usize = 4;

    /// Takes a `len`-element buffer with **unspecified contents**.
    ///
    /// Exact-capacity hits come first (steady-state epoch loops reuse their
    /// own buffers).  On a miss, a large request may be served by the
    /// smallest parked buffer whose capacity is within
    /// [`Self::BEST_FIT_MAX_RATIO`], shortened to `len` — without this,
    /// workloads whose buffer sizes differ every step (sampled minibatches
    /// draw a different receptive field per batch) would park every size
    /// forever and answer every request with a fresh allocation.
    fn take_raw(&mut self, len: usize) -> Vec<f32> {
        let exact = self
            .f32_buckets
            .iter()
            .position(|(cap, bucket)| *cap == len && !bucket.is_empty());
        let slot = match exact {
            None if len >= Self::BEST_FIT_MIN_LEN => self.best_fit(len),
            found => found,
        };
        if let Some(mut buf) = slot.and_then(|i| self.f32_buckets[i].1.pop()) {
            // Within capacity: no reallocation, and the zeros a lengthening
            // writes are as unspecified as the rest of the contents.
            buf.resize(len, 0.0);
            self.stats.reuses += 1;
            return buf;
        }
        self.stats.fresh_allocations += 1;
        self.stats.fresh_bytes += len * std::mem::size_of::<f32>();
        vec![0.0; len]
    }

    /// The bucket holding the smallest parked capacity in
    /// `(len, len * BEST_FIT_MAX_RATIO]`.
    fn best_fit(&self, len: usize) -> Option<usize> {
        self.f32_buckets
            .iter()
            .enumerate()
            .filter(|(_, (cap, bucket))| {
                *cap > len && *cap <= len * Self::BEST_FIT_MAX_RATIO && !bucket.is_empty()
            })
            .min_by_key(|(_, (cap, _))| *cap)
            .map(|(i, _)| i)
    }

    /// A `rows x cols` matrix with **unspecified contents**; the caller must
    /// overwrite every entry before the matrix is read.
    pub fn raw(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::new(rows, cols, self.take_raw(rows * cols))
    }

    /// A zero-filled `rows x cols` matrix.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.take_raw(rows * cols);
        buf.fill(0.0);
        Matrix::new(rows, cols, buf)
    }

    /// A constant-filled `rows x cols` matrix.
    pub fn filled(&mut self, rows: usize, cols: usize, value: f32) -> Matrix {
        let mut buf = self.take_raw(rows * cols);
        buf.fill(value);
        Matrix::new(rows, cols, buf)
    }

    /// A pool-backed copy of `src`.
    pub fn copy_of(&mut self, src: &Matrix) -> Matrix {
        self.copy_reshaped(src, src.rows(), src.cols())
    }

    /// A pool-backed copy of `src`'s elements viewed as `rows x cols`
    /// (row-major order preserved; `rows * cols` must equal `src.len()`).
    pub fn copy_reshaped(&mut self, src: &Matrix, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            src.len(),
            rows * cols,
            "copy_reshaped: cannot view {} elements as {}x{}",
            src.len(),
            rows,
            cols
        );
        let mut buf = self.take_raw(src.len());
        buf.copy_from_slice(src.data());
        Matrix::new(rows, cols, buf)
    }

    /// Returns a matrix's storage to the pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.recycle_vec(m.into_data());
    }

    /// Returns a raw buffer to the pool, parked under its capacity.
    pub fn recycle_vec(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        match self.f32_buckets.iter_mut().find(|(c, _)| *c == cap) {
            Some((_, bucket)) => bucket.push(buf),
            None => self.f32_buckets.push((cap, vec![buf])),
        }
    }

    /// A pool-backed copy of an index list.
    pub fn copy_indices(&mut self, src: &[usize]) -> Vec<usize> {
        let mut buf = self.usize_buckets.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Returns an index list to the pool.
    pub fn recycle_indices(&mut self, buf: Vec<usize>) {
        self.usize_buckets.push(buf);
    }

    /// Allocation counters accumulated since construction (or the last
    /// [`BufferPool::reset_stats`]).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Zeroes the allocation counters.
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Drops every parked buffer (the counters are kept).  Used by the
    /// training bench to emulate the pre-pool engine, where every epoch
    /// re-allocated from the system allocator.
    pub fn clear(&mut self) {
        self.f32_buckets.clear();
        self.usize_buckets.clear();
    }

    /// Overwrites every parked `f32` buffer with `value`.  Test-only hook for
    /// proving that a [`crate::Tape::reset`] cannot leak stale values into
    /// the next epoch: poison the pool, re-run, and compare bit-for-bit.
    #[doc(hidden)]
    pub fn poison(&mut self, value: f32) {
        for (_, bucket) in &mut self.f32_buckets {
            for buf in bucket {
                buf.fill(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        let mut pool = BufferPool::new();
        let m = pool.zeros(3, 4);
        pool.recycle(m);
        let m2 = pool.filled(4, 3, 7.0);
        assert_eq!(m2.shape(), (4, 3));
        assert!(m2.data().iter().all(|&v| v == 7.0));
        let s = pool.stats();
        assert_eq!(s.fresh_allocations, 1);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.fresh_bytes, 12 * 4);
    }

    #[test]
    fn copy_of_and_reshape_preserve_contents() {
        let mut pool = BufferPool::new();
        let src = Matrix::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let copy = pool.copy_of(&src);
        assert_eq!(copy, src);
        let reshaped = pool.copy_reshaped(&src, 3, 2);
        assert_eq!(reshaped.data(), src.data());
        assert_eq!(reshaped.shape(), (3, 2));
    }

    #[test]
    fn index_lists_round_trip() {
        let mut pool = BufferPool::new();
        let idx = pool.copy_indices(&[5, 1, 2]);
        assert_eq!(idx, vec![5, 1, 2]);
        pool.recycle_indices(idx);
        let idx2 = pool.copy_indices(&[9]);
        assert_eq!(idx2, vec![9]);
    }

    #[test]
    #[should_panic(expected = "copy_reshaped")]
    fn copy_reshaped_rejects_bad_sizes() {
        let mut pool = BufferPool::new();
        let src = Matrix::ones(2, 2);
        let _ = pool.copy_reshaped(&src, 3, 2);
    }

    #[test]
    fn a_shortened_buffer_still_serves_its_full_capacity() {
        // Best fit shortens a parked 8192-element buffer to serve 8000; once
        // recycled it must serve 8192 again instead of being buried under
        // its shortened length.
        let mut pool = BufferPool::new();
        let a = pool.raw(1, 8192);
        pool.recycle(a);
        let b = pool.raw(1, 8000);
        assert_eq!(b.len(), 8000);
        pool.recycle(b);
        let c = pool.raw(1, 8192);
        assert_eq!(c.len(), 8192);
        let s = pool.stats();
        assert_eq!(s.fresh_allocations, 1);
        assert_eq!(s.reuses, 2);
    }

    #[test]
    fn small_buffers_are_reused_by_exact_length_only() {
        let mut pool = BufferPool::new();
        let a = pool.zeros(10, 10);
        pool.recycle(a);
        let b = pool.zeros(1, 99);
        assert_eq!(
            pool.stats().fresh_allocations,
            2,
            "no best fit below the minimum"
        );
        pool.recycle(b);
        let c = pool.zeros(4, 25);
        assert_eq!(c.len(), 100);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        let m = pool.zeros(0, 5);
        pool.recycle(m);
        let again = pool.zeros(0, 3);
        assert_eq!(again.shape(), (0, 3));
    }
}

//! Poison-recovering lock helpers shared by every crate of the workspace.
//!
//! The workspace's locks protect *caches of deterministic values* (memoized
//! stages, result maps, registries) and are never held across the
//! computation that fills them — a panicking thread can poison the mutex,
//! but it cannot leave the protected map logically mid-update.  Recovering
//! the guard with [`std::sync::PoisonError::into_inner`] is therefore sound
//! and keeps one panicked experiment cell from wedging every other thread
//! behind a `PoisonError`.
//!
//! Use these helpers instead of `.lock().unwrap()` / `.read().unwrap()` /
//! `.write().unwrap()`; clippy's `unwrap_used` and `expect_used`, which
//! every crate root warns on, reject the raw spellings in non-test code.
//!
//! **When recovery would be unsound:** a lock whose critical section
//! performs a multi-step update that must be observed atomically (write A,
//! then write B, invariant links them) must *not* blanket-recover, because
//! a panic between the steps leaves the invariant broken for the recovering
//! reader.  No workspace lock currently does this; if one ever must, keep
//! the explicit `.lock().unwrap()` under
//! `#[expect(clippy::unwrap_used, reason = "...")]`.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
pub fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks an `RwLock`, recovering the guard if it was poisoned.
pub fn relock_read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks an `RwLock`, recovering the guard if it was poisoned.
pub fn relock_write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn relock_recovers_a_poisoned_mutex() {
        let mutex = Arc::new(Mutex::new(7));
        let poisoner = Arc::clone(&mutex);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = poisoner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(mutex.is_poisoned());
        assert_eq!(*relock(&mutex), 7);
        *relock(&mutex) = 8;
        assert_eq!(*relock(&mutex), 8);
    }

    #[test]
    fn relock_read_write_recover_a_poisoned_rwlock() {
        let lock = Arc::new(RwLock::new(vec![1, 2]));
        let poisoner = Arc::clone(&lock);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = poisoner.write().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the lock");
        }));
        assert!(lock.is_poisoned());
        assert_eq!(relock_read(&lock).len(), 2);
        relock_write(&lock).push(3);
        assert_eq!(relock_read(&lock).len(), 3);
    }
}

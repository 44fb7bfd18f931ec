//! The platform's one lock type: `std::sync::Mutex` with poisoning off.
//!
//! A handler panic is contained by `catch_unwind` (see
//! [`crate::supervision`]) while instrumentation and application locks may
//! be held, and the hive keeps running afterwards — so a lock must stay
//! usable after a thread panicked holding it. What these locks guard —
//! counters, journals, queues and maps — is changed one call at a time,
//! each leaving it valid.

use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::Duration;

/// A mutex whose [`Mutex::lock`] never fails: a poisoned lock is recovered.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning what it guarded.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Waits on `cv` for at most `timeout` (spurious wake-ups included; callers
/// re-check their condition), with the same poisoning policy as
/// [`Mutex::lock`].
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lockable_after_a_holder_panicked() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 2;
            panic!("handler fault while holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*m.lock(), 2);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 3);
    }
}

//! The platform's one lock type: `std::sync::Mutex` with poisoning off.
//!
//! A handler panic is contained by `catch_unwind` (see
//! [`crate::supervision`]) while instrumentation and application locks may
//! be held, and the hive keeps running afterwards — so a lock must stay
//! usable after a thread panicked holding it. What these locks guard —
//! counters, journals, queues and maps — is changed one call at a time,
//! each leaving it valid.
//!
//! [`Ring`] is the bounded recorder under the span collector, the event
//! journal and the dead-letter queue.

use std::collections::VecDeque;
use std::fmt;
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

/// A bounded recorder: the newest `capacity` entries in insertion order,
/// plus a count of every entry ever pushed.
///
/// At capacity, [`Ring::push`] evicts the oldest entry. Memory grows with
/// what is retained, never ahead of it, and [`Ring::snapshot`],
/// [`Ring::drain`] and [`Ring::len`] cost O(retained), not O(capacity).
pub struct Ring<T> {
    capacity: usize,
    inner: Mutex<RingInner<T>>,
}

struct RingInner<T> {
    entries: VecDeque<T>,
    recorded: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining up to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner {
                entries: VecDeque::new(),
                recorded: 0,
            }),
        }
    }

    /// Number of entries the ring can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total entries ever pushed, evicted and drained ones included.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the ring retains no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `entry`, evicting the oldest at capacity.
    pub fn push(&self, entry: T) {
        self.push_with(|_| entry);
    }

    /// Appends the entry `make` builds from its 1-based ordinal (the
    /// `recorded` count including it). `make` runs under the ring's lock,
    /// so ordinals and whatever `make` reads alongside them are stamped in
    /// the order the entries are retained.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) {
        let mut inner = self.inner.lock();
        inner.recorded += 1;
        let entry = make(inner.recorded);
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
        }
        inner.entries.push_back(entry);
    }

    /// Appends `entries` in order under one lock, evicting the oldest at
    /// capacity.
    pub fn push_all(&self, entries: impl IntoIterator<Item = T>) {
        let mut inner = self.inner.lock();
        for entry in entries {
            inner.recorded += 1;
            if inner.entries.len() == self.capacity {
                inner.entries.pop_front();
            }
            inner.entries.push_back(entry);
        }
    }

    /// Removes and returns the retained entries, oldest first. `recorded`
    /// is unaffected.
    pub fn drain(&self) -> Vec<T> {
        self.inner.lock().entries.drain(..).collect()
    }
}

impl<T: Clone> Ring<T> {
    /// Clones the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner.lock().entries.iter().cloned().collect()
    }
}

impl<T> fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("len", &inner.entries.len())
            .field("recorded", &inner.recorded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_wrap_keeps_the_newest_in_insertion_order() {
        let ring = Ring::new(3);
        for i in 1..=5u32 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![3, 4, 5]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn ring_recorded_counts_evicted_entries() {
        let ring = Ring::new(2);
        let mut ordinals = Vec::new();
        for _ in 0..5 {
            ring.push_with(|n| {
                ordinals.push(n);
                n
            });
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ordinals, vec![1, 2, 3, 4, 5]);
        assert_eq!(ring.snapshot(), vec![4, 5]);
    }

    #[test]
    fn ring_drain_empties_but_keeps_recorded() {
        let ring = Ring::new(4);
        ring.push("a");
        ring.push("b");
        assert_eq!(ring.drain(), vec!["a", "b"]);
        assert!(ring.is_empty());
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.recorded(), 2);
        ring.push("c");
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn ring_capacity_zero_acts_as_one() {
        let ring = Ring::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.snapshot(), vec![2]);
        assert_eq!(ring.recorded(), 2);
    }

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

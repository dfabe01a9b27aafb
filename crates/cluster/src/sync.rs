//! Minimal poison-tolerant mutex over `std::sync::Mutex`.
//!
//! The cluster harness previously used `parking_lot::Mutex` for its
//! non-poisoning `lock()`. This wrapper restores that call-site shape on
//! top of std: a poisoned lock (a panicking replica thread) yields the
//! inner guard instead of an `Err`, because the harness's shared state
//! (route tables, state machines) stays consistent
//! under panic — every critical section is a small, non-reentrant update.

use std::sync::MutexGuard;

/// A mutex whose `lock()` never fails and never returns a `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering the guard from a poisoned state.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

//! Classed lock wrappers with lockdep-style acquisition recording.
//!
//! Every `Mutex`/`RwLock` in the workspace is constructed through this
//! crate with a static **lock class** (`kernel.procs`, `store.partition`,
//! `obs.ledger`, …) and an instance index (shard number, partition slot).
//! The wrappers behave exactly like the underlying `parking_lot` locks;
//! in addition, each acquisition consults a thread-local held-lock stack
//! and — when recording is enabled — writes the acquisition facts into the
//! current [`lockdep::Recorder`]:
//!
//! * a **cross-class edge** `(held-class, acquired-class, site)` for every
//!   lock already held when a lock of a *different* class is taken,
//! * a **same-class event** `(class, held-index, acquired-index, site)`
//!   when a second lock of the *same* class is taken (the
//!   lower-index-first rule: these must be strictly ascending),
//! * a **blocking event** when [`lockdep::blocking`] is reached with any
//!   classed lock held.
//!
//! The recorded [`lockdep::ObservedRun`] is analyzed by `w5-lockdep`
//! against the declared class-rank manifest (lints W5D001–W5D006) and by
//! the `w5deadlock` CLI. Recording costs one relaxed atomic load per
//! acquisition when disabled; the held stack itself is always maintained
//! so recording can be switched on mid-run.

#![forbid(unsafe_code)]

pub mod lockdep;

use lockdep::HeldToken;

/// A mutual-exclusion lock carrying a static lock class.
pub struct Mutex<T: ?Sized> {
    class: &'static str,
    index: u32,
    inner: parking_lot::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]. Releases the lockdep held-stack
/// entry (by token identity, so out-of-LIFO guard drops are fine) and the
/// underlying lock on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: parking_lot::MutexGuard<'a, T>,
    _token: HeldToken,
}

impl<T> Mutex<T> {
    /// Create a mutex of class `class`, instance index 0.
    pub const fn new(class: &'static str, value: T) -> Self {
        Mutex::with_index(class, 0, value)
    }

    /// Create a mutex of class `class` at instance `index`. Same-class
    /// nesting must acquire strictly ascending indexes (lint W5D002).
    pub const fn with_index(class: &'static str, index: u32, value: T) -> Self {
        Mutex { class, index, inner: parking_lot::Mutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The lock class this mutex was declared with.
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// The instance index within the class.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Acquire the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = lockdep::acquire(self.class, self.index);
        MutexGuard { inner: self.inner.lock(), _token: token }
    }

    /// Attempt to acquire the lock without blocking. A successful try
    /// records the same acquisition facts as [`Mutex::lock`].
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        let token = lockdep::acquire(self.class, self.index);
        Some(MutexGuard { inner, _token: token })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").field("class", &self.class).field("index", &self.index).finish()
    }
}

/// A reader-writer lock carrying a static lock class.
pub struct RwLock<T: ?Sized> {
    class: &'static str,
    index: u32,
    inner: parking_lot::RwLock<T>,
}

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    _token: HeldToken,
}

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    _token: HeldToken,
}

impl<T> RwLock<T> {
    /// Create an rwlock of class `class`, instance index 0.
    pub const fn new(class: &'static str, value: T) -> Self {
        RwLock::with_index(class, 0, value)
    }

    /// Create an rwlock of class `class` at instance `index`.
    pub const fn with_index(class: &'static str, index: u32, value: T) -> Self {
        RwLock { class, index, inner: parking_lot::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The lock class this rwlock was declared with.
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// The instance index within the class.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Acquire a shared read lock. Readers and writers record the same
    /// acquisition facts: lock *order* is what deadlocks, not exclusivity.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = lockdep::acquire(self.class, self.index);
        RwLockReadGuard { inner: self.inner.read(), _token: token }
    }

    /// Acquire an exclusive write lock.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = lockdep::acquire(self.class, self.index);
        RwLockWriteGuard { inner: self.inner.write(), _token: token }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").field("class", &self.class).field("index", &self.index).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new("test.m", 1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.class(), "test.m");
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::with_index("test.rw", 3, vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.index(), 3);
    }

    #[test]
    fn try_lock_respects_contention() {
        let m = Mutex::new("test.try", ());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let rec = Arc::new(lockdep::Recorder::new());
        let a = Mutex::new("test.outer", ());
        let b = Mutex::new("test.inner", ());
        {
            let _scope = lockdep::scoped(Arc::clone(&rec));
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let run = rec.snapshot();
        assert_eq!(run.edges.len(), 1);
        let e = &run.edges[0];
        assert_eq!((e.held.as_str(), e.acquired.as_str()), ("test.outer", "test.inner"));
        assert!(e.site.contains("lib.rs"), "site should carry file:line, got {}", e.site);
    }

    #[test]
    fn guards_release_out_of_lifo_order() {
        let rec = Arc::new(lockdep::Recorder::new());
        let a = Mutex::new("test.lifo.a", ());
        let b = Mutex::new("test.lifo.b", ());
        let c = Mutex::new("test.lifo.c", ());
        let _scope = lockdep::scoped(Arc::clone(&rec));
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // out of LIFO order: b is still held
        let _gc = c.lock();
        drop(gb);
        let run = rec.snapshot();
        // a->b (nested), a->c must NOT exist (a was dropped), b->c must.
        let pairs: Vec<(String, String)> =
            run.edges.iter().map(|e| (e.held.clone(), e.acquired.clone())).collect();
        assert!(pairs.contains(&("test.lifo.a".into(), "test.lifo.b".into())));
        assert!(pairs.contains(&("test.lifo.b".into(), "test.lifo.c".into())));
        assert!(!pairs.contains(&("test.lifo.a".into(), "test.lifo.c".into())));
    }
}

//! `Mutex` and `RwLock` over `std::sync` whose acquisitions return the
//! guard directly: a lock poisoned by a panicking holder is recovered, not
//! propagated.
//!
//! Recovery is sound for the state this workspace guards — the buffer
//! pool's frame table, the fault simulator's inode list, the published
//! snapshot `Arc` and the mapping caches are all updated so that every
//! intermediate step is a valid state; a holder that panics leaves at worst
//! a missing cache entry. One definition for the whole workspace also means
//! there is one set of blocking semantics for genlint's `lock-discipline`
//! and `lock-order-graph` rules to reason about.

use std::sync::PoisonError;

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_lock_poisoned_by_a_panicking_holder_is_recovered() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(1));
        let (m2, rw2) = (m.clone(), rw.clone());
        let holder = std::thread::spawn(move || {
            let _a = m2.lock();
            let _b = rw2.write();
            panic!("holder dies with both guards live");
        });
        assert!(holder.join().is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
    }
}

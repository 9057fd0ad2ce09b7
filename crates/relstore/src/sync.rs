//! The workspace's shared-state primitives, each with its discipline in
//! its type. [`Mutex`] and [`RwLock`] recover a lock poisoned by a
//! panicking holder (every state they guard is valid between steps).
//! [`Swap`] holds a value only read or replaced whole and hands out no
//! guard, so none can be held across an executor or nested. [`Counter`]
//! is telemetry, `Relaxed`; [`SeqFlag`] and [`SeqCount`] make coherence
//! decisions, `SeqCst`. A raw atomic is a clippy `disallowed-types` error
//! outside this file (`clippy.toml`): every ordering is chosen here.

#![expect(
    clippy::disallowed_types,
    reason = "the wrappers below are the one place raw atomics are used; each fixes its ordering"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// A value read by clone and replaced whole: the lock underneath is held
/// only inside [`load`](Self::load) and [`store`](Self::store).
#[derive(Debug, Default)]
pub struct Swap<T>(RwLock<T>);

impl<T: Clone> Swap<T> {
    pub const fn new(value: T) -> Self {
        Swap(RwLock::new(value))
    }

    pub fn load(&self) -> T {
        self.0.read().clone()
    }

    pub fn store(&self, value: T) {
        *self.0.write() = value;
    }
}

/// A monotonic telemetry count: readers see some recent value.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A flag a coherence decision reads.
#[derive(Debug, Default)]
pub struct SeqFlag(AtomicBool);

impl SeqFlag {
    pub fn get(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    pub fn set(&self, value: bool) {
        self.0.store(value, Ordering::SeqCst);
    }
}

/// A count a coherence decision reads.
#[derive(Debug, Default)]
pub struct SeqCount(AtomicU64);

impl SeqCount {
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// The count before.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::SeqCst)
    }

    pub fn sub(&self, n: u64) -> u64 {
        self.0.fetch_sub(n, Ordering::SeqCst)
    }

    /// `Err` holds the count found instead of `current`.
    pub fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
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
        let swap = Arc::new(Swap::new(1));
        let (m2, rw2, swap2) = (m.clone(), rw.clone(), swap.clone());
        let holder = std::thread::spawn(move || {
            let _a = m2.lock();
            let _b = rw2.write();
            let _c = swap2.0.write();
            panic!("holder dies with every guard live");
        });
        assert!(holder.join().is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        swap.store(swap.load() + 1);
        assert_eq!((*m.lock(), *rw.read(), swap.load()), (2, 2, 2));
    }

    #[test]
    fn counts_and_flags_read_what_was_written() {
        let (counter, flag, count) = (Counter::default(), SeqFlag::default(), SeqCount::default());
        counter.add(2);
        counter.add(3);
        flag.set(true);
        assert_eq!(count.add(4), 0);
        assert_eq!(count.sub(1), 4);
        assert_eq!(count.compare_exchange(2, 9), Err(3));
        assert_eq!(count.compare_exchange(3, 9), Ok(3));
        assert_eq!((counter.get(), flag.get(), count.get()), (5, true, 9));
    }
}

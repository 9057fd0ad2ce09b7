//! `crossbeam::scope` over `std::thread::scope`. A panicking worker
//! surfaces as `Err(payload)`, which is what the one caller re-raises.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.0;
        inner.spawn(move || f(&Scope(inner)))
    }
}

pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    // std's scope re-panics on the calling thread once every worker has
    // been joined; catching that restores crossbeam's `Err` contract
    catch_unwind(AssertUnwindSafe(|| std::thread::scope(|s| f(&Scope(s)))))
}

//! Clean R4 counterpart: the snapshot is cloned out of the guard before
//! the executor runs.

pub struct Fixture;

impl Fixture {
    pub fn answer(&self) -> u32 {
        let snap = { self.cache.lock().clone() };
        run_query(&snap)
    }
}

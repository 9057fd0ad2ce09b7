//! Seeded R4 violation: a declared-lock guard still live at a declared
//! guard-free call — the snapshot read path serialized behind a lock.

pub struct Fixture;

impl Fixture {
    pub fn answer(&self) -> u32 {
        let guard = self.cache.lock();
        run_query(&guard)
    }
}

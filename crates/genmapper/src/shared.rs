//! Single-writer / many-reader sharing of one GenMapper system.
//!
//! [`SharedGenMapper`] is the concurrency shell around [`GenMapper`]: the
//! writer (imports, materializations, saved paths) runs under an exclusive
//! `Mutex`, readers run against the currently *published*
//! [`Arc<Snapshot>`](crate::Snapshot). Publication is one `Arc` swap in a
//! [`Swap`], which hands out no guard: nothing can hold it across query
//! execution or snapshot capture, so readers never block on the writer
//! and always observe a fully-published, internally consistent state
//! (MVCC with exactly one writer version in flight).

use crate::{GenMapper, Snapshot};
use gam::{GamError, GamResult};
use relstore::sync::{Mutex, SeqCount, SeqFlag, Swap};
use std::sync::Arc;

/// What the writer is currently doing, as reported to service clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportStatus {
    /// True while a writer operation is executing.
    pub writing: bool,
    /// Number of writer operations completed since startup.
    pub completed: u64,
    /// The version stamp of the currently published snapshot.
    pub published_version: (u64, u64),
}

/// A GenMapper shared between one writer and any number of readers.
pub struct SharedGenMapper {
    /// The live system; every mutation goes through this lock.
    writer: Mutex<GenMapper>,
    /// The snapshot readers see, swapped after each writer operation.
    published: Swap<Arc<Snapshot>>,
    writing: SeqFlag,
    completed: SeqCount,
    /// Writes admitted (via [`try_admit_write`](Self::try_admit_write))
    /// and not yet finished — the semaphore count behind service-level
    /// admission control.
    in_flight: SeqCount,
}

/// An admitted slot in the write budget, returned by
/// [`SharedGenMapper::try_admit_write`]. The slot is held from admission
/// until drop, so it covers both the time a write waits on the writer
/// mutex and the time it executes — callers that shed on `None` bound the
/// writer queue, not just writer concurrency. Run the writer operation
/// through [`run`](Self::run).
#[must_use = "dropping the permit releases the write slot without running anything"]
pub struct WritePermit<'a> {
    shared: &'a SharedGenMapper,
}

impl WritePermit<'_> {
    /// Run one writer operation under this permit (see
    /// [`SharedGenMapper::with_writer`] for publication semantics). The
    /// slot frees when the permit drops, whether `f` succeeds or fails.
    pub fn run<R>(self, f: impl FnOnce(&mut GenMapper) -> GamResult<R>) -> GamResult<R> {
        self.shared.with_writer(f)
    }
}

impl Drop for WritePermit<'_> {
    fn drop(&mut self) {
        self.shared.in_flight.sub(1);
    }
}

impl SharedGenMapper {
    /// Wrap a system, capturing and publishing its initial snapshot.
    pub fn new(gm: GenMapper) -> GamResult<Self> {
        let initial = Arc::new(gm.capture_snapshot()?);
        Ok(SharedGenMapper {
            writer: Mutex::new(gm),
            published: Swap::new(initial),
            writing: SeqFlag::default(),
            completed: SeqCount::default(),
            in_flight: SeqCount::default(),
        })
    }

    /// Writes currently admitted and not yet finished (waiting on the
    /// writer mutex or executing).
    pub fn in_flight_writes(&self) -> usize {
        self.in_flight.get() as usize
    }

    /// Try to admit one write under a budget of `max_in_flight` slots.
    /// Returns `None` — shed, the caller should report a retryable
    /// busy error — when the budget is already full. Reads are never
    /// admission-controlled: they answer from the published snapshot and
    /// cannot queue behind the writer.
    pub fn try_admit_write(&self, max_in_flight: usize) -> Option<WritePermit<'_>> {
        let mut current = self.in_flight.get();
        loop {
            if current >= max_in_flight as u64 {
                return None;
            }
            match self.in_flight.compare_exchange(current, current + 1) {
                Ok(_) => return Some(WritePermit { shared: self }),
                Err(actual) => current = actual,
            }
        }
    }

    /// The currently published snapshot. Never blocks on the writer: the
    /// lock under the [`Swap`] is held only for the `Arc` clone.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.load()
    }

    /// Run one writer operation, then capture and publish the resulting
    /// snapshot. Readers keep answering from the previous snapshot for the
    /// whole duration and switch to the new state atomically. The new
    /// snapshot is published even when `f` fails partway: a failed import
    /// may have durably changed the store, and readers must never be left
    /// on a state the writer has moved past. An operation that left the
    /// store's content alone (a skipped release, a request refused before
    /// any write) publishes in constant time: the new snapshot carries
    /// the new version and shares the previous one's GAM data.
    pub fn with_writer<R>(
        &self,
        f: impl FnOnce(&mut GenMapper) -> GamResult<R>,
    ) -> GamResult<R> {
        let mut gm = self.writer.lock();
        self.writing.set(true);
        let result = f(&mut gm);
        let capture = gm.capture_snapshot();
        self.writing.set(false);
        self.completed.add(1);
        match capture {
            Ok(snap) => {
                self.published.store(Arc::new(snap));
                result
            }
            Err(e) => {
                // keep the previous snapshot; surface whichever error
                // happened first
                result?;
                Err(GamError::Invalid(format!(
                    "writer succeeded but snapshot capture failed: {e}"
                )))
            }
        }
    }

    /// Writer/publication status for service clients.
    pub fn import_status(&self) -> ImportStatus {
        ImportStatus {
            writing: self.writing.get(),
            completed: self.completed.get(),
            published_version: self.snapshot().version(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuerySpec;
    use sources::ecosystem::{Ecosystem, EcosystemParams};

    fn shared() -> SharedGenMapper {
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        SharedGenMapper::new(gm).unwrap()
    }

    #[test]
    fn publication_is_atomic_per_writer_op() {
        let sh = shared();
        let v0 = sh.snapshot().version();
        let before = sh.snapshot().cardinalities().unwrap();
        // a reader holding the old snapshot across a write is unaffected
        let held = sh.snapshot();
        sh.with_writer(|gm| gm.materialize_subsumed("GO").map(|_| ()))
            .unwrap();
        assert_eq!(held.cardinalities().unwrap(), before);
        let now = sh.snapshot();
        assert_ne!(now.version(), v0);
        assert_ne!(now.cardinalities().unwrap(), before);
        let status = sh.import_status();
        assert!(!status.writing);
        assert_eq!(status.completed, 1);
        assert_eq!(status.published_version, now.version());
    }

    #[test]
    fn failed_writer_op_republishes_current_state() {
        let sh = shared();
        let err = sh.with_writer(|gm| gm.materialize_subsumed("NoSuchSource").map(|_| ()));
        assert!(err.is_err());
        // publication still advanced and readers still get working queries
        let snap = sh.snapshot();
        let view = snap
            .query(&QuerySpec::source("LocusLink").accessions(["353"]).target("Hugo"))
            .unwrap();
        assert!(!view.is_empty());
        assert_eq!(sh.import_status().completed, 1);
    }

    #[test]
    fn only_a_content_change_recaptures_the_store() {
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps[1..]).unwrap();
        let sh = SharedGenMapper::new(gm).unwrap();
        let first = sh.snapshot();

        // a real import: new GAM data
        let reports = sh.with_writer(|gm| gm.import_dumps(&eco.dumps)).unwrap();
        assert!(!reports[0].skipped && reports[1..].iter().all(|r| r.skipped));
        let imported = sh.snapshot();
        assert!(!std::ptr::eq(imported.reader(), first.reader()));
        assert_ne!(
            imported.cardinalities().unwrap(),
            first.cardinalities().unwrap()
        );

        // every release already in: the version moves, the data is shared
        let reports = sh.with_writer(|gm| gm.import_dumps(&eco.dumps)).unwrap();
        assert!(reports.iter().all(|r| r.skipped));
        let skipped = sh.snapshot();
        assert!(std::ptr::eq(skipped.reader(), imported.reader()));
        assert_ne!(skipped.version(), imported.version());

        // refused before any write (no NetAffx-Enzyme mapping): likewise
        assert!(sh
            .with_writer(|gm| gm.materialize_composed(&["NetAffx", "Enzyme"]))
            .is_err());
        let refused = sh.snapshot();
        assert!(std::ptr::eq(refused.reader(), imported.reader()));
        assert_ne!(refused.version(), skipped.version());
        assert_eq!(sh.import_status().completed, 3);
    }

    #[test]
    fn readers_share_one_published_snapshot() {
        let sh = shared();
        let a = sh.snapshot();
        let b = sh.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn write_admission_sheds_beyond_the_budget() {
        let sh = shared();
        assert_eq!(sh.in_flight_writes(), 0);
        let first = sh.try_admit_write(2).expect("first slot");
        let second = sh.try_admit_write(2).expect("second slot");
        assert_eq!(sh.in_flight_writes(), 2);
        assert!(sh.try_admit_write(2).is_none(), "budget full: shed");
        drop(second);
        assert_eq!(sh.in_flight_writes(), 1);
        // a freed slot is admittable again
        let refill = sh.try_admit_write(2).expect("slot freed by drop");
        drop(refill);
        // the permit's run() goes through the normal publish path
        let v0 = sh.snapshot().version();
        first
            .run(|gm| gm.materialize_subsumed("GO").map(|_| ()))
            .unwrap();
        assert_ne!(sh.snapshot().version(), v0);
        assert_eq!(sh.in_flight_writes(), 0, "slot freed after run");
    }

    #[test]
    fn failed_write_still_frees_its_slot() {
        let sh = shared();
        let permit = sh.try_admit_write(1).expect("slot");
        assert!(permit
            .run(|gm| gm.materialize_subsumed("NoSuchSource").map(|_| ()))
            .is_err());
        assert_eq!(sh.in_flight_writes(), 0);
        assert!(sh.try_admit_write(1).is_some());
    }

    #[test]
    fn zero_budget_sheds_everything() {
        let sh = shared();
        assert!(sh.try_admit_write(0).is_none());
    }
}

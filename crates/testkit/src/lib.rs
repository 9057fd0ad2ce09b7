//! `testkit` — what the workspace's seeded test sweeps share: the PRNG, a
//! case loop whose failures name their seed, a text generator, a
//! skewed-fanout chain generator and a scratch directory; and the row type
//! of the mutant table.
//!
//! A sweep replaces a property-test runner with a plain loop: case `i`
//! draws its inputs from `Prng::seed_from_u64(i)` and asserts with the
//! ordinary macros. There is no shrinking; a failure prints the seed, and
//! `testkit::case(seed, ..)` with the same body replays exactly that case.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

// The one PRNG lives in `sources` (the generators are its first user), and
// `sources` sits above relstore and gam, whose tests sweep too: including
// the file keeps this crate dependency-free instead of closing a cycle.
#[path = "../../sources/src/prng.rs"]
mod prng;
pub use prng::Prng;

/// Run `body` on the cases seeded `0..n`.
pub fn cases(n: u64, mut body: impl FnMut(&mut Prng)) {
    for seed in 0..n {
        case(seed, &mut body);
    }
}

/// Run `body` on the one case drawn from `seed`. If it panics, the seed is
/// printed behind the assertion's own message.
pub fn case(seed: u64, body: impl FnOnce(&mut Prng)) {
    struct NameSeed(u64);
    impl Drop for NameSeed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "testkit: the failing case has seed {0}; replay it alone with testkit::case({0}, ..)",
                    self.0
                );
            }
        }
    }
    let _named = NameSeed(seed);
    body(&mut Prng::seed_from_u64(seed));
}

/// A string of `len` characters (a range is drawn from) out of `alphabet`.
pub fn text(rng: &mut Prng, alphabet: &[u8], len: std::ops::RangeInclusive<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| *rng.pick(alphabet) as char)
        .collect()
}

/// The hops of a chain of fact mappings over `width` objects a source,
/// with skewed fanouts, so that the sizes of the intermediate joins depend
/// on the order they are joined in. Each hop is its `(from, to)` object
/// index pairs, and draws one of three shapes: a fan-out (every object
/// links to 4, 8 or 16 objects of the next source), a funnel (every object
/// links to one of `width / 16` objects) or one-to-one. Every object links
/// to at least one object, so no chain composes to nothing.
pub fn skewed_fact_chain(rng: &mut Prng, hops: usize, width: usize) -> Vec<Vec<(usize, usize)>> {
    (0..hops)
        .map(|_| {
            let shape = rng.below(3);
            let fanout = *rng.pick(&[4, 8, 16]);
            let funnel = (width / 16).max(1);
            let mut pairs = Vec::new();
            for from in 0..width {
                match shape {
                    0 => pairs.extend((0..fanout).map(|_| (from, rng.below(width)))),
                    1 => pairs.push((from, rng.below(funnel))),
                    _ => pairs.push((from, from)),
                }
            }
            pairs
        })
        .collect()
}

pub use scratch::TempDir;

/// The tests' way past `relstore::vfs` to the real filesystem (clippy's
/// `disallowed-methods` refuses `std::fs` elsewhere).
mod scratch {
    #![expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "test scratch directories: no state of the product's lives here"
    )]

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh directory under the system temp dir, removed again on
    /// drop. It derefs to its path, and its methods join a name to it.
    #[derive(Debug)]
    pub struct TempDir(PathBuf);

    impl TempDir {
        /// `label` only makes a leftover recognisable; uniqueness comes
        /// from the process id and a counter, so parallel tests never
        /// share one.
        pub fn new(label: &str) -> TempDir {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("{label}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create a scratch directory");
            TempDir(dir)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }

        pub fn read(&self, name: impl AsRef<Path>) -> Vec<u8> {
            let path = self.0.join(name);
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        }

        pub fn write(&self, name: impl AsRef<Path>, data: impl AsRef<[u8]>) {
            let path = self.0.join(name);
            std::fs::write(&path, data).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }

        /// The files directly in the directory, sorted.
        pub fn files(&self) -> Vec<PathBuf> {
            let entries = std::fs::read_dir(&self.0).expect("list a scratch directory");
            let mut files: Vec<PathBuf> = entries.map(|e| e.expect("a directory entry").path()).collect();
            files.sort();
            files
        }
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A workspace source file, for [`Mutant::apply`](crate::Mutant::apply).
    pub(crate) fn read_source(path: &Path) -> std::io::Result<String> {
        std::fs::read_to_string(path)
    }
}

/// One textual mutant of the workspace sources: a regression someone could
/// plausibly commit. The mutant table (`tests/mutants.rs`) is a list of
/// these; `scripts/mutants.py` applies each row in a scratch clone and
/// records what kills it. Tier-1 only checks that every needle still
/// matches.
#[derive(Debug)]
pub struct Mutant {
    /// The regression, in words.
    pub what: &'static str,
    /// Workspace-relative file the mutant edits.
    pub path: &'static str,
    /// Text that occurs exactly once in `path`.
    pub needle: &'static str,
    pub replacement: &'static str,
    /// What kills the mutant: the failing tests as `suite::test`, a rustc
    /// error, a clippy lint, or `none: <why it survives>`.
    pub killer: &'static str,
}

impl Mutant {
    /// The text of `path` under the workspace `root` with the needle
    /// replaced, or why the row no longer applies.
    pub fn apply(&self, root: &Path) -> Result<String, String> {
        let raw = scratch::read_source(&root.join(self.path))
            .map_err(|e| format!("{}: {}: {e}", self.what, self.path))?;
        match raw.matches(self.needle).count() {
            1 => Ok(raw.replacen(self.needle, self.replacement, 1)),
            n => Err(format!("{}: needle occurs {n} times in {}", self.what, self.path)),
        }
    }
}

/// The workspace root: the nearest ancestor of `manifest_dir` (a crate's
/// `CARGO_MANIFEST_DIR`) that holds `Cargo.lock`.
pub fn workspace_root(manifest_dir: &str) -> PathBuf {
    Path::new(manifest_dir)
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .expect("a workspace root above the crate")
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_names_one_stream_and_ranges_hold() {
        cases(64, |rng| {
            let mut twin = rng.clone();
            for _ in 0..32 {
                let v: i64 = rng.gen_range(-5..=5);
                assert!((-5..=5).contains(&v));
                assert_eq!(twin.gen_range::<i64, _>(-5..=5), v);
                assert!(rng.below(3) < 3);
                twin.below(3);
            }
        });
    }

    #[test]
    fn a_failing_case_fails_the_sweep() {
        let swept = std::panic::catch_unwind(|| cases(4, |rng| assert!(rng.below(2) > 1)));
        assert!(swept.is_err());
    }

    #[test]
    fn a_mutant_applies_only_where_its_needle_occurs_once() {
        let dir = TempDir::new("testkit-mutant");
        dir.write("f.rs", "a + b; c - d; c - d;");
        let row = |needle| Mutant {
            what: "w",
            path: "f.rs",
            needle,
            replacement: "a - b",
            killer: "",
        };
        assert_eq!(row("a + b").apply(dir.path()).unwrap(), "a - b; c - d; c - d;");
        assert!(row("c - d").apply(dir.path()).unwrap_err().contains("2 times"));
        assert!(row("e * f").apply(dir.path()).unwrap_err().contains("0 times"));
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let (a, b) = (TempDir::new("testkit"), TempDir::new("testkit"));
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_owned();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.is_dir());
    }
}

//! R1 `vfs-bypass`: all durable I/O must flow through `relstore::vfs::Vfs`.
//!
//! The crash-recovery sweeps (PR 4) can only fault-inject I/O that goes
//! through the `Vfs` trait. A direct `std::fs` call in production code is
//! a hole in the power-cut model: the sweep will claim full coverage
//! while that file silently escapes torn-write and lost-dir-entry
//! simulation. The rule flags every direct `std::fs` use in non-test
//! code, outside the one file whose job is to wrap `std::fs`
//! (`crates/relstore/src/vfs.rs`) and the justified non-durable
//! allowlist in `genlint.toml`.

use super::{Finding, Rule};
use crate::config::Config;
use crate::source::SourceFile;

/// The one place direct `std::fs` is the point.
const VFS_SHIM: &str = "crates/relstore/src/vfs.rs";

pub struct VfsBypass;

impl Rule for VfsBypass {
    fn name(&self) -> &'static str {
        "vfs-bypass"
    }

    fn description(&self) -> &'static str {
        "durable I/O must go through relstore::vfs::Vfs so crash sweeps can fault-inject it"
    }

    fn check(&self, file: &SourceFile, _cfg: &Config, out: &mut Vec<Finding>) {
        if file.is_test_file() || file.rel_path == VFS_SHIM {
            return;
        }
        // does the file import std::fs (making bare `fs::` a filesystem
        // call)? Detected on tokens so masked strings can't fake it.
        let imports_std_fs = || {
            (0..file.tokens.len()).any(|i| file.seq_matches(i, &["use", "std", ":", ":", "fs"]))
        };
        let mut lines_seen = Vec::new();
        for i in 0..file.tokens.len() {
            let t = &file.tokens[i];
            // every shape below starts with one of these
            if !t.is_ident || !matches!(t.text.as_str(), "std" | "fs" | "use") || file.is_test(t.off) {
                continue;
            }
            let direct = file.seq_matches(i, &["std", ":", ":", "fs", ":", ":"]);
            let bare = file.seq_matches(i, &["fs", ":", ":"])
                // not the `fs` inside `std::fs::...` (already reported)
                && !(i >= 3
                    && file.tokens[i - 1].text == ":"
                    && file.tokens[i - 2].text == ":"
                    && file.tokens[i - 3].text == "std")
                && imports_std_fs();
            let import = file.seq_matches(i, &["use", "std", ":", ":", "fs"]);
            if !(direct || bare || import) {
                continue;
            }
            let line = file.line_of(t.off);
            if lines_seen.contains(&line) {
                continue;
            }
            lines_seen.push(line);
            out.push(Finding::at(
                self.name(),
                file,
                t.off,
                "direct std::fs I/O bypasses the Vfs fault-injection layer; \
                 route it through relstore::vfs::Vfs (or add a justified \
                 non-durable [[allow]] entry)"
                    .to_owned(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, src);
        let mut out = Vec::new();
        VfsBypass.check(&file, &Config::default(), &mut out);
        out
    }

    #[test]
    fn flags_direct_std_fs() {
        let out = findings(
            "crates/import/src/pipeline.rs",
            "fn f() { std::fs::write(p, d); }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "vfs-bypass");
    }

    #[test]
    fn flags_bare_fs_after_import() {
        let out = findings(
            "crates/x/src/a.rs",
            "use std::fs;\nfn f() { fs::write(p, d); }",
        );
        assert_eq!(out.len(), 2, "the use and the call");
    }

    #[test]
    fn ignores_vfs_shim_tests_and_strings() {
        assert!(findings("crates/relstore/src/vfs.rs", "fn f() { std::fs::write(p, d); }")
            .is_empty());
        assert!(findings(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests { fn f() { std::fs::write(p, d); } }",
        )
        .is_empty());
        assert!(findings("crates/x/src/a.rs", "fn f() { log(\"std::fs::write\"); }").is_empty());
        assert!(findings("crates/x/tests/t.rs", "fn f() { std::fs::write(p, d); }").is_empty());
    }
}

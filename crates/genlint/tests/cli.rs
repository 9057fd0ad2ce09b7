//! The `genlint` binary's argument surface.

use std::process::Command;

/// The incremental cache, the worker pool and the JSON/SARIF reporters
/// are gone, and their flags with them: each is rejected like any other
/// unknown argument (exit code 2), not ignored.
#[test]
fn removed_cache_flags_are_unknown_arguments() {
    for args in [
        &["--cache", "x"][..],
        &["--no-cache"],
        &["--jobs", "2"],
        &["--format", "json"],
        &["--json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_genlint"))
            .args(args)
            .output()
            .expect("run genlint");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
}

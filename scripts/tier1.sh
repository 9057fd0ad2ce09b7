#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run from the repo root of a clean
# clone; needs no network, no registry and nothing outside the checkout
# (every cargo leg is --offline --locked against a committed Cargo.lock).
# No leg writes into the repository outside the ignored build and run
# directories (target/, scripts/e2e/target/, scripts/e2e/out/): the last
# step checks that `git status --porcelain` is what it was at the start.
# CONTRIBUTING.md ("Which suite proves what") names the suite behind each
# evidence class and the one-liner that runs it alone.
set -euo pipefail
cd "$(dirname "$0")/.."
status_before="$(git status --porcelain)"

# gmbench's own package (scripts/e2e, separate workspace and lock file):
# --self-test builds it and proves the benchmark's oracle counts a wrong
# answer; its unit tests cover the harness itself.
bash scripts/e2e/run.sh --self-test
(cd scripts/e2e && cargo test --offline --locked)

# Every seeded sweep prints the failing case's seed (DESIGN.md §9).
cargo build --release --offline --locked
cargo test -q --offline --locked --workspace
# clippy.toml and the crates' lint attributes hold the architectural
# invariants (DESIGN.md §11): Vfs-only I/O, typed atomics, no dropped
# Result on the durable path. Clippy's dep-info lists clippy.toml only
# where it existed at the last lint, so a warm target directory can pass a
# new clippy.toml unlinted: its hash, as a cfg no code reads, is part of
# every crate's build flags, and any change to it re-lints every crate.
clippy_toml="clippy_toml_$( (cat clippy.toml 2>/dev/null || true) | sha256sum | cut -c1-16)"
RUSTFLAGS="${RUSTFLAGS:-} --cfg $clippy_toml" \
    cargo clippy --offline --locked --workspace --all-targets -- -D warnings

# a deleted item must not leave a doc link dangling, and a public doc must
# not link a private item (rustdoc renders that link as plain text)
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" cargo doc --no-deps --offline --locked --workspace

if [ "$(git status --porcelain)" != "$status_before" ]; then
    echo "tier1: the run changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

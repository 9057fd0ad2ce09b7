#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run from the repo root of a clean
# clone; needs no network, no registry and nothing outside the checkout
# (every cargo leg is --offline --locked against a committed Cargo.lock,
# every harness binary lands in target/).
set -euo pipefail
cd "$(dirname "$0")/.."

# gmbench's own package (scripts/e2e, separate workspace and lock file):
# --self-test builds it and proves the benchmark's oracle counts a wrong
# answer; its unit tests cover the harness itself.
bash scripts/e2e/run.sh --self-test
(cd scripts/e2e && cargo test --offline --locked)

cargo build --release --offline --locked
cargo test -q --offline --locked --workspace
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

# The suites below already ran with the workspace; naming them keeps each
# evidence class one copy-pastable line when only that class is in doubt.
# Every seeded sweep prints the failing case's seed (DESIGN.md §9).
t() { cargo test -q --offline --locked "$@"; }
# bulk-import equivalence sweeps (bit-identical fast path)
t -p import --test bulk_prop
# crash safety: exhaustive power-cut sweeps, seeded random crash points,
# recovery, crash during import
t -p relstore --test crash_sweep --test crash_prop --test recovery
t -p import --test crash_import
# on-disk format and generator identity (bytes pinned to constants)
t -p relstore --test format_identity
t -p sources --test dump_identity
# index build equivalence: encoded key order ≡ value order, bulk-built ≡
# maintained indexes, reopen ≡ closed store across snapshot + WAL mixes,
# crafted logs/snapshots refused with typed errors
t -p relstore --test index_build_equiv
# paged ≡ resident across random workloads, pool sizes down to one page,
# reopen and compaction
t -p relstore --test paged_prop
# MVCC snapshot reads under concurrent churn, and the service layer
# end-to-end over real TCP
t -p genmapper --test snapshot_stress
t -p serve
# the one executor bit-identical to the baselines::naive oracle across
# chain shapes, floors, negation, worker counts, join strategies
t -p operators --test algebra_equiv
# store ≡ snapshot for every object and every issued, deleted or unknown
# mapping id; capture cost on a paged store pinned in pool misses
t -p gam --test snapshot_equiv

# dependency-free measurement replicas (each rewrites its BENCH_*.json):
# paged storage, concurrent service, network-fault chaos sweep, lint engine
for harness in page serve chaos genlint; do
    rustc -O "scripts/${harness}_harness.rs" -o "target/${harness}_harness"
    "target/${harness}_harness"
done

# architectural invariant gate (DESIGN.md §11, §16): any unbaselined
# finding fails the build; the same scan is exported as a SARIF artifact
# for code-scanning UIs (target/genlint.sarif)
cargo run -q --offline --locked -p genlint -- --deny
cargo run -q --offline --locked -p genlint -- --format sarif > target/genlint.sarif

#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Offline-capable leg first: gmbench's package builds the real crates/
# against std-only shims and a committed lock file, so these two steps are
# the only ones that compile and run the product code on a host without a
# registry — an index or recovery regression fails here, before the
# crates.io-dependent legs below are reached. --self-test also proves the
# benchmark's oracle counts a wrong answer.
bash scripts/e2e/run.sh --self-test
(cd scripts/e2e && cargo test --offline)

cargo build --release
cargo test -q
# bulk-import equivalence proptests (bit-identical fast path), explicitly:
cargo test -q -p import --test bulk_prop
# crash-safety sweeps (fault points are seeded deterministically from the
# crash index, so these runs are reproducible), explicitly:
cargo test -q -p relstore --test crash_sweep
cargo test -q -p relstore --test crash_prop
cargo test -q -p relstore --test recovery
cargo test -q -p import --test crash_import
# index build equivalence (std-only seeded sweep): encoded key order ≡ value
# order, bulk-built ≡ maintained indexes, reopen ≡ closed store across
# snapshot + WAL mixes, and crafted logs/snapshots refused with typed errors
cargo test -q -p relstore --test index_build_equiv
# paged-storage equivalence (paged ≡ resident across random workloads,
# pool sizes down to one page, reopen, and compaction), explicitly:
cargo test -q -p relstore --test paged_prop
# MVCC snapshot reads: concurrent readers bit-identical to the
# single-threaded path, readers never blocking on the writer, and the
# service layer end-to-end over real TCP, explicitly:
cargo test -q -p genmapper --test snapshot_stress
cargo test -q -p serve
# mapping-algebra equivalence (std-only seeded sweep): the one executor
# bit-identical to the baselines::naive oracle across chain shapes, floors,
# negation, worker counts, join strategies and missing steps
cargo test -q -p operators --test algebra_equiv
# store ≡ snapshot (std-only seeded sweep): per-object associations in the
# documented order, counts and shared indexes for every object and every
# issued, deleted or unknown mapping id; capture cost on a paged store
# pinned in pool misses
cargo test -q -p gam --test snapshot_equiv
# paged-storage measurement replica: checkpoint bytes vs dirty fraction,
# lookup latency/residency at dataset/pool ratios 1x/10x/100x
rustc -O scripts/page_harness.rs -o /tmp/page_harness && /tmp/page_harness
# concurrent-service measurement replica: mixed read/write load p50/p99,
# reader progress during a bulk import -> BENCH_serve.json
rustc -O scripts/serve_harness.rs -o /tmp/serve_harness && /tmp/serve_harness
# hardened-service chaos replica: 104-point deterministic network-fault
# sweep (disconnect/torn/stall/delay) with bit-identical recovery probes,
# plus read p50/p99 under overload with shedding on vs off
# -> BENCH_chaos.json
rustc -O scripts/chaos_harness.rs -o /tmp/chaos_harness && /tmp/chaos_harness
cargo clippy --all-targets -- -D warnings
# architectural invariant gate (DESIGN.md §11, §16): any unbaselined
# finding fails the build; the same scan is exported as a SARIF artifact
# for code-scanning UIs (target/genlint.sarif)
cargo run -q -p genlint -- --deny
cargo run -q -p genlint -- --format sarif > target/genlint.sarif
# lint-engine measurement replica: serial vs parallel full-workspace
# scans and cache cold/warm latency -> BENCH_lint.json
rustc -O scripts/genlint_harness.rs -o /tmp/genlint_harness && /tmp/genlint_harness

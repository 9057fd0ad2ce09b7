#!/usr/bin/env bash
# gmbench: one benchmark run, or the A/A repeatability table.
#
#   bash scripts/e2e/run.sh --workload <name> --seed <n> [--seconds S] [--trace 0|1]
#   bash scripts/e2e/run.sh --aa [--runs N]
#   bash scripts/e2e/run.sh --self-test
#
# Run from the root of the checkout. The package is built first, outside the
# run's own clock, offline and against the committed lock file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"
mkdir -p "$out"

# --locked: a lock file that would change is an error, not a rewrite
if ! cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" \
    >"$out/build.log" 2>&1; then
  cat "$out/build.log" >&2
  echo "gmbench: build failed (offline, --locked); see above" >&2
  exit 1
fi
bin="$CARGO_TARGET_DIR/release/gmbench"

workloads=(load_recover serve_reads paged_live)

case "${1:-}" in
--aa)
  shift
  runs=5
  if [ "${1:-}" = "--runs" ]; then runs="$2"; fi
  rm -rf "$out/aa"
  mkdir -p "$out/aa"
  # two sets on one build, interleaved so both see the same stretch of host
  for r in $(seq 1 "$runs"); do
    for w in "${workloads[@]}"; do
      for set in A B; do
        echo "aa: run $r/$runs set $set $w" >&2
        "$bin" --workload "$w" --seed $((100 + r)) --out "$out" |
          tail -n 1 >"$out/aa/$set-$w-$r.json"
      done
    done
  done
  exec "$bin" --aa-report "$out/aa"
  ;;
--self-test)
  # one expected answer is corrupted: the run must count failures
  line="$("$bin" --workload serve_reads --seed 7 --seconds 3 --self-test --out "$out" | tail -n 1)"
  echo "$line"
  case "$line" in
  *'"correct": false'*) echo "self-test: the wrong answer was counted" >&2 ;;
  *)
    echo "self-test: a corrupted expectation went unnoticed" >&2
    exit 1
    ;;
  esac
  ;;
*)
  exec "$bin" --out "$out" "$@"
  ;;
esac

#!/usr/bin/env python3
"""Re-run the killer column of the mutant table in a scratch clone.

    python3 scripts/mutants.py <scratch-dir> [row-id ...]

The table is `tests/mutants.rs`; a row's id is `product#N`, its index in
the table. The first run clones the checkout
into `<scratch-dir>/mutants-tree` and commits the checkout's uncommitted
edits there, so the checkout itself is never touched. Then, for each row:

  1. apply the mutation (the needle must occur exactly once);
  2. `cargo test --no-fail-fast` over every package whose build the edited
     crate is part of, under a timeout: a hang counts as a kill;
  3. if it compiled, `cargo clippy --lib --bins -- -D warnings` on the
     edited package;
  4. restore the file and append one line to
     `<scratch-dir>/mutants-results.tsv`: the row id, what it mutates, and
     what killed it, as `package/suite::test` names (`lib` for in-module
     tests), `rustc: ...`, `clippy: ...`, `timeout` or `none`.

Rows already in the results file are skipped, so a run that was cut off
resumes where it stopped. Naming row ids re-runs just those rows (their
old lines stay; the last line of a row wins). Expect one to two minutes a
row on two cores; run it in the background.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

TABLE = "tests/mutants.rs"
TEST_TIMEOUT_S = 900
ROOT_PACKAGE = "genmapper-suite"
# the table's own needle check fails under every mutation by design
SKIP_TESTS = ["every_product_needle_matches_once"]


def rust_string(text, i):
    """Decode the Rust string literal starting at text[i] == '"'."""
    assert text[i] == '"'
    out, i = [], i + 1
    simple = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}
    while text[i] != '"':
        c = text[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        e = text[i + 1]
        if e in simple:
            out.append(simple[e])
            i += 2
        elif e == "\n":  # line continuation: skip the newline and indentation
            i += 2
            while text[i] in " \t\n":
                i += 1
        elif e == "u":
            end = text.index("}", i)
            out.append(chr(int(text[i + 3 : end], 16)))
            i = end + 1
        else:
            raise ValueError(f"unknown escape \\{e}")
    return "".join(out), i + 1


def rows_of(path):
    """The (what, path, needle, replacement) of every row of a table."""
    text = Path(path).read_text()
    rows = []
    for m in re.finditer(r"\bwhat:\s*\"", text):
        fields, i = {}, m.end() - 1
        fields["what"], i = rust_string(text, i)
        for name in ("path", "needle", "replacement"):
            f = re.compile(name + r":\s*\"").search(text, i)
            fields[name], i = rust_string(text, f.end() - 1)
        rows.append(fields)
    return rows


def run(cmd, cwd, env, timeout=None):
    """(exit code, output) of cmd; (None, output so far) on a timeout. The
    command runs in its own process group, and a timeout kills the whole
    group, so a hung test binary does not outlive its row."""
    with subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
            return p.returncode, out
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            out, _ = p.communicate()
            return None, out


def package_of(rel_path, packages):
    """The workspace package whose directory holds rel_path."""
    best = ROOT_PACKAGE
    for name, info in packages.items():
        d = info["dir"]
        if d and (rel_path + "/").startswith(d + "/") and len(d) > len(packages[best]["dir"]):
            best = name
    return best


def dependents(pkg, packages):
    """pkg and every package that (transitively, dev-dependencies too) uses it."""
    found, frontier = {pkg}, [pkg]
    while frontier:
        p = frontier.pop()
        for name, info in packages.items():
            if p in info["deps"] and name not in found:
                found.add(name)
                frontier.append(name)
    return sorted(found)


def killers(log, pkg):
    """Failing tests as package/suite::test, from one package's verbose cargo test log."""
    out, suite = [], "?"
    name = "tests" if pkg == ROOT_PACKAGE else pkg
    for line in log.splitlines():
        m = re.match(r"\s*Running (unittests )?(\S+) \(", line)
        if m:
            src = m.group(2)
            if not m.group(1):
                suite = f"{name}/{Path(src).stem}"
            elif src.startswith("src/bin/") or src == "src/main.rs":
                suite = f"{name}/bin"
            else:
                suite = f"{name}/lib"
        elif line.lstrip().startswith("Doc-tests"):
            suite = f"{name}/doc"
        else:
            m = re.match(r"test (\S+) \.\.\. FAILED", line)
            if m:
                out.append(f"{suite}::{m.group(1)}")
    return out


def mutant_kills(tree, env, pkg, selected):
    """What kills the mutation now applied in tree: failing tests, a
    compile error, a timeout or a clippy lint."""
    code, log = run(["cargo", "test", "--offline", "--no-run", *[a for p in selected for a in ("-p", p)]],
                    tree, env, TEST_TIMEOUT_S)
    if code is None:
        return ["timeout (build)"]
    if code != 0:
        error = re.search(r"^error(\[E\d+\])?: .*$", log, re.M)
        return ["rustc: " + (error.group(0) if error else "build failed")]
    kills = []
    for p in selected:
        skips = [a for t in SKIP_TESTS for a in ("--skip", t)]
        code, log = run(["cargo", "test", "--offline", "--no-fail-fast", "-p", p, "--", *skips],
                        tree, env, TEST_TIMEOUT_S)
        found = killers(log, p)
        if code is None:
            found.append(f"{p}: timeout")
        elif code != 0 and not found:
            found.append(f"{p}: cargo test exited {code}")
        kills += found
    # the mutation is in the package's library or binaries: their lints are
    # the ones it can change
    code, log = run(["cargo", "clippy", "--offline", "-q", "-p", pkg, "--lib", "--bins",
                     "--", "-D", "warnings"], tree, env)
    if code != 0:
        lint = re.search(r"`-D ([a-z_:-]+)`|#\[deny\(([a-z_:]+)\)\]|^error: (.*)$", log, re.M)
        kills.append("clippy: " + (next(g for g in lint.groups() if g) if lint else "failed"))
    return kills


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    repo = Path(__file__).resolve().parent.parent
    scratch = Path(sys.argv[1]).resolve()
    if scratch == repo or repo in scratch.parents:
        sys.exit("the scratch directory must lie outside the checkout")
    only = set(sys.argv[2:])
    scratch.mkdir(parents=True, exist_ok=True)
    tree, results = scratch / "mutants-tree", scratch / "mutants-results.tsv"
    env = dict(os.environ, CARGO_TARGET_DIR=str(scratch / "mutants-target"))

    if not tree.exists():
        subprocess.run(["git", "clone", "-q", str(repo), str(tree)], check=True)
        def git_names(*args):
            out = subprocess.run(["git", *args, "-z"], cwd=repo, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
            return filter(None, out.split("\0"))
        # edits since HEAD, staged or not, and new files; deleted ones go too
        for rel in [*git_names("diff", "--name-only", "HEAD"),
                    *git_names("ls-files", "--others", "--exclude-standard")]:
            src, dst = repo / rel, tree / rel
            if src.exists():
                dst.parent.mkdir(parents=True, exist_ok=True)
                dst.write_bytes(src.read_bytes())
            else:
                dst.unlink(missing_ok=True)
                # a deleted crate must not leave a directory `crates/*` matches
                parent = dst.parent
                while parent != tree and parent.is_dir() and not any(parent.iterdir()):
                    parent.rmdir()
                    parent = parent.parent
        subprocess.run(["git", "add", "-A"], cwd=tree, check=True)
        subprocess.run(["git", "-c", "user.name=mutants", "-c", "user.email=mutants@localhost",
                        "commit", "-qm", "checkout as tested", "--allow-empty"], cwd=tree, check=True)
    # a row cut off mid-run left its mutation behind
    subprocess.run(["git", "checkout", "-q", "--", "."], cwd=tree, check=True)

    meta = json.loads(subprocess.run(
        ["cargo", "metadata", "--offline", "--no-deps", "--format-version", "1"],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True).stdout)
    packages = {}
    for p in meta["packages"]:
        d = str(Path(p["manifest_path"]).parent.relative_to(tree))
        packages[p["name"]] = {"dir": "" if d == "." else d,
                               "deps": {x["name"] for x in p["dependencies"] if x.get("path")}}

    done = set()
    if results.exists():
        done = {line.split("\t", 1)[0] for line in results.read_text().splitlines()}
    todo = [(f"product#{n}", row) for n, row in enumerate(rows_of(tree / TABLE))]
    for rid, row in todo:
        if (only and rid not in only) or (not only and rid in done):
            continue
        target = tree / row["path"]
        original = target.read_text()
        hits = original.count(row["needle"])
        if hits != 1:
            verdict = f"stale: the needle occurs {hits} times"
        else:
            target.write_text(original.replace(row["needle"], row["replacement"], 1))
            pkg = package_of(row["path"], packages)
            selected = dependents(pkg, packages)
            kills = mutant_kills(tree, env, pkg, selected)
            target.write_text(original)
            verdict = ", ".join(kills) if kills else "none"
        with results.open("a") as f:
            f.write(f"{rid}\t{row['what']}\t{verdict}\n")
        print(f"{rid}\t{verdict[:200]}", flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Check that two commits put the same serve responses on the wire.

    python3 bench/wire/compare.py BASE [--work DIR]

Run from anywhere inside a mineq checkout.  BASE is a git revision:
the script extracts it with `git archive`, copies this directory
(bench/wire) into the extracted tree, builds wire_dump.exe in both
trees and runs both over the same inputs:

  - perfbench's serve_hot inputs (priming pass, closed and open phases)
    and serve_cold inputs (closed and open phases) at seeds 1 and 2, with
    the op mixes and phase sizes of perfbench/workloads.json;
  - wire_dump's error-path set (MINEQ-S001/S002/S003/S007 and ids that
    hold control characters and non-ASCII bytes).

It prints one line per input set and exits 1 unless every response of
the two commits is byte-identical.  Builds and outputs go to --work (a
fresh temporary directory by default), never into the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def build(root, build_dir, target):
    subprocess.run(["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile",
                    "release", "./" + target], cwd=root, check=True)
    return os.path.join(build_dir, "default", target)


def build_pair(rev, work, target, overlay=None):
    """Build TARGET (a path from the repo root) in REV and in this checkout.

    REV is extracted with `git archive` to WORK/base (a fresh temporary
    WORK if None), with this checkout's directory OVERLAY, if given,
    copied over REV's own.  The builds use the release profile and go to
    WORK/build_base and WORK/build_head.  Returns WORK and the two
    executables, REV's first.
    """
    work = os.path.abspath(work or tempfile.mkdtemp(prefix="mineq_compare_"))
    base_tree = os.path.join(work, "base")
    if os.path.exists(base_tree):
        shutil.rmtree(base_tree)
    os.makedirs(base_tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
    if overlay:
        dest = os.path.join(base_tree, overlay)
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, overlay), dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return (work, build(base_tree, os.path.join(work, "build_base"), target),
            build(ROOT, os.path.join(work, "build_head"), target))


def first_difference(a, b):
    la, lb = a.split(b"\n"), b.split(b"\n")
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return i, x, y
    return min(len(la), len(lb)), b"", b""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--work", help="working directory (default: a fresh temporary one)")
    args = ap.parse_args()

    work, base, head = build_pair(args.base, args.work, "bench/wire/wire_dump.exe",
                                  overlay="bench/wire")
    dumps = {"base": base, "head": head}

    with open(os.path.join(ROOT, "perfbench", "workloads.json")) as fh:
        workloads = json.load(fh)["workloads"]
    inputs = []
    for seed in ("1", "2"):
        for name in ("serve_hot", "serve_cold"):
            cfg = workloads[name]
            mix = ",".join(f"{label}={share}" for label, share in cfg["op_mix"].items())
            inputs.append((f"{name} seed {seed}",
                           ["serve", name, seed, mix, str(cfg["closed_loop"]["requests"]),
                            str(cfg["open_loop"]["requests"])]))
    inputs.append(("error paths", ["errors"]))

    failed = 0
    for label, argv in inputs:
        out = {side: subprocess.run([exe, *argv], check=True, stdout=subprocess.PIPE).stdout
               for side, exe in dumps.items()}
        counts = {side: text.count(b"\n") for side, text in out.items()}
        if out["base"] == out["head"]:
            print(f"{label}: {counts['head']} responses, byte-identical")
        else:
            failed += 1
            i, a, b = first_difference(out["base"], out["head"])
            print(f"{label}: DIFFERS at response {i} ({counts['base']} vs {counts['head']})")
            print(f"  base: {a[:300]!r}\n  head: {b[:300]!r}")
    print(f"{len(inputs) - failed} of {len(inputs)} input sets byte-identical (work dir {work})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

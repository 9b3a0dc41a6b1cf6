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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(root, build_dir):
    subprocess.run(["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile",
                    "release", "./bench/wire/wire_dump.exe"], cwd=root, check=True)
    return os.path.join(build_dir, "default", "bench", "wire", "wire_dump.exe")


def extract(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    wire = os.path.join(dest, "bench", "wire")
    shutil.rmtree(wire, ignore_errors=True)
    shutil.copytree(HERE, wire, ignore=shutil.ignore_patterns("__pycache__"))


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

    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="wire_compare_"))
    os.makedirs(work, exist_ok=True)
    base_tree = os.path.join(work, "base")
    if os.path.exists(base_tree):
        shutil.rmtree(base_tree)
    extract(args.base, base_tree)
    dumps = {"base": build(base_tree, os.path.join(work, "build_base")),
             "head": build(ROOT, os.path.join(work, "build_head"))}

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

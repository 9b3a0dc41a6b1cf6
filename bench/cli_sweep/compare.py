#!/usr/bin/env python3
"""Check that two commits print the same answers from the CLI.

    python3 bench/cli_sweep/compare.py BASE [--work DIR]

Run from anywhere inside a mineq checkout.  BASE is a git revision:
the script extracts it with `git archive`, builds bin/mineq_cli.exe
(release profile) there and in the checkout with bench/wire/compare.py's
`build_pair`, and runs both binaries over the same invocations:

  - `check NAME -n N` and `equiv NAME -n N -m independence|characterization`
    at N = 2..8;
  - `equiv NAME -n N -m isomorphism` and `iso NAME baseline -n N` at
    N = 2..6;

for NAME in the six classical names, random:1..7, pipid:1..7 and
buddy:1..6, plus `rsurvey --radix 3 -n 2..5` and `--radix 4 -n 2..4`.

Wherever BASE exits 0, the checkout must exit 0 with byte-identical
stdout.  Invocations on which BASE exits non-zero are counted and listed
with both exit codes, not compared; one that runs past TIMEOUT_S seconds
counts as exit "timeout".  It exits 1 on any difference.
Builds go to --work (a fresh temporary directory by default), never
into the checkout.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "bench", "wire"))
from compare import build_pair  # noqa: E402  (bench/wire/compare.py)

TIMEOUT_S = 120
CLASSICAL = ["omega", "flip", "cube", "mdm", "baseline", "reverse-baseline"]
NAMES = (CLASSICAL + [f"random:{s}" for s in range(1, 8)]
         + [f"pipid:{s}" for s in range(1, 8)] + [f"buddy:{s}" for s in range(1, 7)])


def invocations():
    for name in NAMES:
        for n in range(2, 9):
            yield ["check", name, "-n", str(n)]
            for method in ("independence", "characterization"):
                yield ["equiv", name, "-n", str(n), "-m", method]
        for n in range(2, 7):
            yield ["equiv", name, "-n", str(n), "-m", "isomorphism"]
            yield ["iso", name, "baseline", "-n", str(n)]
    for radix, top in ((3, 5), (4, 4)):
        for n in range(2, top + 1):
            yield ["rsurvey", "--radix", str(radix), "-n", str(n)]


def run(exe, argv):
    try:
        p = subprocess.run([exe, *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           timeout=TIMEOUT_S)
        return p.returncode, p.stdout
    except subprocess.TimeoutExpired:
        return "timeout", b""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--work", help="working directory (default: a fresh temporary one)")
    args = ap.parse_args()

    work, base, head = build_pair(args.base, args.work, "bin/mineq_cli.exe")

    total = compared = 0
    skipped, differ = [], []
    for argv in invocations():
        total += 1
        base_code, base_out = run(base, argv)
        head_code, head_out = run(head, argv)
        if base_code != 0:
            skipped.append((argv, base_code, head_code))
            continue
        compared += 1
        if head_code != 0 or head_out != base_out:
            differ.append((argv, head_code))
    for argv, code in differ:
        print(f"DIFFERS (exit {code}): mineq {' '.join(argv)}")
    for argv, base_code, head_code in skipped:
        print(f"base exit {base_code}, head exit {head_code}: mineq {' '.join(argv)}")
    print(f"{total} invocations: {compared} where the base exits 0, {len(differ)} of them "
          f"differ; {len(skipped)} not compared (work dir {work})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every bundled example through the CLI and check the expected verdicts.

Each row is (expected exit code, CLI arguments). Exit code 0 means an
affirmative verdict, 1 a negative one. A demo passes only if it exits with
its expected status and writes nothing to stderr, so a child that fails to
import the package (exit 1 with a traceback) does not pass as a "no". The
children import the package from this checkout's ``src``, which is put
first on their ``PYTHONPATH``, and run with the interpreter's own ``-O``
level, so ``python -O scripts/run_demos.py`` shows that no verdict rests on
an ``assert``. The script fails loudly if any demo does not pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"

DEMOS = [
    (0, ["verify", "fig2.json", "--spline", "3,15,5"]),
    (0, ["verify", "fig2-text.json", "--spline", "3,15,5"]),
    (1, ["verify", "fig2.json", "--spline", "0,1,0"]),
    (0, ["flowup", "fig2.json"]),
    (0, ["flowup", "fig2-text.json"]),
    (0, ["flowup", "xy.json"]),
    (0, ["q", "fig2.json"]),
    (0, ["q", "xy.json"]),
    (0, ["q", "squares.json"]),
    (0, ["check-basis", "fig2.json", "--spline", "1,1,1", "--spline", "0,4,4", "--spline", "0,0,10"]),
    (1, ["check-basis", "fig2.json", "--spline", "1,1,1", "--spline", "0,4,4", "--spline", "0,0,20"]),
    (0, ["check-basis", "xy.json", "--spline", "1,1,1", "--spline", "0,x,x+y", "--spline", "0,0,y*(x+y)"]),
    (0, ["search", "xy.json", "--factors", "x;y;x+y", "--degree", "2"]),
    (1, ["search", "squares.json", "--factors", "x;x;y;y;x+y;x+y", "--degree", "6"]),
    (0, ["search", "xy.json", "--factors", "x;y;x+y"]),
    (1, ["search", "squares.json", "--factors", "x;x;y;y;x+y;x+y"]),
    (0, ["obstruct", "zx-obstruction.json"]),
    (0, ["obstruct", "squares.json"]),
    (1, ["obstruct", "xy.json"]),
    (0, ["probe", "fig2.json", "--trials", "200"]),
    (1, ["probe", "fig2.json", "--q", "80", "--trials", "200"]),
    (1, ["probe", "fig2.json", "--q", "200"]),
]


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def passed(expected: int, result: subprocess.CompletedProcess) -> bool:
    """Whether a demo exited with its expected status and wrote no stderr."""
    return result.returncode == expected and not result.stderr


def main() -> int:
    failures = 0
    for expected, args in DEMOS:
        argv = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "graphsplines"]
        argv += [args[0], str(GRAPHS / args[1]), *args[2:]]
        print(f"$ graphsplines {args[0]} graphs/{args[1]} {' '.join(args[2:])}")
        result = subprocess.run(argv, capture_output=True, text=True, env=child_env())
        sys.stdout.write(result.stdout)
        if result.stderr:
            sys.stderr.write(result.stderr)
        status = "ok" if passed(expected, result) else "UNEXPECTED"
        if status == "UNEXPECTED":
            failures += 1
        print(f"-> exit {result.returncode} (expected {expected}) {status}")
        print()
    if failures:
        print(f"{failures} demo(s) returned an unexpected status or wrote to stderr")
        return 1
    print(f"all {len(DEMOS)} demos behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two checkouts on the splinebench workloads, in alternating pairs.

    python3 scripts/bench.py PARENT CHANGE --label mychange --workload poly-det \
        --seed 101 --seed 102 ... --seconds 20

For each workload and each seed, runs ``splinebench/run.py`` once in each
checkout (each run uses its own checkout's harness and package), alternating
which side runs first from one pair to the next. For every end-to-end metric
named in the parent's ``BENCHMARK.json`` it writes each side's median and
quartiles, the runs themselves and the number of pairs the change won
(ties count for neither side) to ``BENCH_<label>.json``. It then prints
one closing line per workload and metric: both medians, their ratio, the
pairs the change won, and ``PAST BOUND`` where the change's median is worse
than the parent's by more than that metric's ``bound``, a fraction of the
parent's median, as the paired check counts a regression.

Both sides run with the same bytecode state: each run is made in a fresh
copy of its checkout without ``__pycache__`` (nor ``.git``), with ``-B`` and
``PYTHONDONTWRITEBYTECODE=1``, so no bytecode that a test run left in a
checkout is read and none is written. The checkout's own modules are
compiled from source on both sides, in the interpreters that ``run.py``
starts as well, while the standard library reads its installed bytecode:
``PYTHONPYCACHEPREFIX`` is unset for the run, so it does not send the
standard library to an empty cache either.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one benchmark run of ``checkout``,
    made in a copy of it without bytecode caches that writes none."""
    command = [sys.executable, "-B", "splinebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns("__pycache__", ".git"))
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    """Median and quartiles of a list of runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, metrics) -> dict:
    """Per-metric summary of ``pairs``, a list of {"parent": result, "change": result}.

    ``metrics`` maps each end-to-end metric to "lower" or "higher", the
    direction in which it is better.
    """
    summary = {
        "pairs": len(pairs),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES},
        "metrics": {},
    }
    for name, better in metrics.items():
        runs = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        sign = 1 if better == "lower" else -1
        won = sum(1 for old, new in zip(runs["parent"], runs["change"])
                  if sign * (old - new) > 0)
        summary["metrics"][name] = {
            "better": better,
            **{side: {**spread(runs[side]), "runs": runs[side]} for side in SIDES},
            "change_won": won,
        }
    return summary


def past_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median."""
    if better == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def closing_lines(workloads: dict, declared: list) -> list[str]:
    """One line per workload and end-to-end metric of ``declared`` (the
    ``end_to_end`` list of ``BENCHMARK.json``) for the per-workload summaries
    ``workloads``: the medians, their ratio, the pairs won and any bound passed."""
    lines = []
    for workload, summary in workloads.items():
        for metric in declared:
            name = metric["name"]
            entry = summary["metrics"][name]
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            ratio = f"{change / parent:.3f}x" if parent else "n/a"
            mark = "  PAST BOUND" if past_bound(parent, change, metric["better"],
                                                metric["bound"]) else ""
            lines.append(f"{workload} {name}: parent {parent:.4g}, change {change:.4g} "
                         f"({ratio}), change won {entry['change_won']} of "
                         f"{summary['pairs']}{mark}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json here")
    args = parser.parse_args(argv)
    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    report = {"label": args.label, "seconds": args.seconds, "seeds": args.seed, "workloads": {}}
    for workload in args.workload:
        pairs = []
        for index, seed in enumerate(args.seed):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(checkouts[side], workload, seed, args.seconds)
                    for side in order}
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                f"{pair['change']['metrics'][name]['value']:.4g}" for name in metrics),
                file=sys.stderr)
        report["workloads"][workload] = summarize(pairs, metrics)
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    print("\n".join(closing_lines(report["workloads"], declared["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

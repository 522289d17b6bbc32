#!/usr/bin/env python3
"""Benchmark of the graphsplines command line, driven in-process.

    python3 splinebench/run.py --workload zz-lattice --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from site-packages. One run:

1. measures set-up time: fresh interpreters (started one after another,
   each waited for) import the package, generate the seeded instances and
   make one warm-up call; ``setup_s`` is the median of these, each scaled
   to the reference host speed like the calls below;
2. sets up in this process the same way, then replays whole cycles of CLI
   calls through ``graphsplines.cli.main(argv)`` in a closed loop with one
   client, until another cycle would overrun ``--seconds`` (and at least
   100 calls are timed); every call's time is scaled to a fixed host speed
   with the reference kernel of ``reference.py``, timed between calls, and
   the latency and throughput figures are taken over all the scaled calls;
3. with ``--trace 1`` runs the first half of the time untraced and the
   second half with every layer's public functions wrapped (``tracer.py``),
   and reports per-layer metrics instead of end-to-end ones;
4. checks every distinct call's output with an independent check
   (``checks.py``) outside the timed region, and that repeats of a call
   print the same output.

Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
MIN_CALLS = 100  # so that at least 10 timed calls lie beyond the 90th percentile
GAUGE_EVERY_S = 0.25
SETUP_TIMEOUT_S = 120

# functions that must record calls in the traced run of each workload
REQUIRED_CALLS = {
    "zz-lattice": (
        "lattice.spline_lattice_generators",
        "lattice.hermite_normal_form",
        "lattice.integer_flow_up_basis",
        "graphs.load_graph",
    ),
    "poly-det": (
        "polynomials.mul",
        "polynomials.exact_divide",
        "basis.exact_determinant",
        "basis.divides_all_dets_probe",
        "basis.check_basis",
    ),
    "qq-search": ("search.flow_up_search_bounded", "search.solve_rational_system"),
    "poly-gcd": (
        "polynomials.poly_gcd",
        "basis.label_lcm",
        "graphs.pairwise_coprime_labels",
        "basis.compute_q",
    ),
}


def import_cli():
    """The package's CLI module, imported from this checkout's ``src``."""
    if not (SRC / "graphsplines" / "cli.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import graphsplines.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported graphsplines from {cli.__file__}, not {SRC}")
    return cli


def invoke(main, argv):
    """(exit code or None if it raised, stdout) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, counted against error_rate
        code = None
    return code, out.getvalue()


def setup(cli, name: str, seed: int, directory: Path):
    """Generate the instances into ``directory`` and make one warm-up call."""
    directory.mkdir(parents=True, exist_ok=True)

    def flowup(graph_name, document):
        path = directory / graph_name
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        code, out = invoke(cli.main, ["flowup", str(path), "--json"])
        if code != 0:
            raise RuntimeError(f"flowup failed on {graph_name} while generating inputs")
        return json.loads(out)

    workload = workloads.build(name, seed, flowup)
    workloads.write_graphs(workload, directory)
    invoke(cli.main, workload.calls[0].argv(directory))
    return workload


def measure_setup(name: str, seed: int, work: Path) -> list:
    """Wall time from spawning a fresh interpreter to its first timed call."""
    times = []
    for repeat in range(SETUP_REPEATS):
        command = [
            sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", name, "--seed", str(seed),
            "--work", str(work / f"setup-{repeat}"),
        ]
        gauge = reference.gauge()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up run exited {child.returncode}")
        times.append(elapsed * reference.REFERENCE_S / ((gauge + reference.gauge()) / 2))
    return times


class Phase:
    """Closed-loop replay of whole call cycles for about ``seconds``.

    A call's time is scaled by ``REFERENCE_S`` over the mean of the reference
    kernel's times just before and just after it: the host's speed drifts by
    up to 50% within minutes, and the scaled times drift far less.

    The reference kernel is timed between calls whenever ``GAUGE_EVERY_S``
    has passed since it last was, and once more at the end, so every call
    lies between two gauges at most that far apart (plus the call itself).
    """

    def __init__(self, cli, workload, directory: Path, seconds: float, first_outputs,
                 min_calls: int = 0):
        self.latencies = []  # one list of call latencies per cycle
        self.scaled = []  # the same, scaled to the reference host speed
        self.records = []  # (call index, repeat agreed with the expected code and first output)
        argvs = [call.argv(directory) for call in workload.calls]
        expected = [call.expect_code for call in workload.calls]
        clock = time.perf_counter
        main = cli.main
        gauges = [reference.gauge()]
        gauged = start = clock()
        pending = []  # (cycle, call index, gauge before it) awaiting the next gauge
        while True:
            cycle_start = clock()
            latencies = []
            for index, argv in enumerate(argvs):
                if clock() - gauged > GAUGE_EVERY_S:
                    gauges.append(reference.gauge())
                    gauged = clock()
                t0 = clock()
                code, out = invoke(main, argv)
                latencies.append(clock() - t0)
                pending.append((len(self.latencies), index, len(gauges) - 1))
                first = first_outputs.setdefault(index, (code, out))
                self.records.append((index, code == expected[index] and (code, out) == first))
            now = clock()
            self.latencies.append(latencies)
            if now - start + (now - cycle_start) > seconds and len(self.records) >= min_calls:
                break
        gauges.append(reference.gauge())
        self.scaled = [list(cycle) for cycle in self.latencies]
        for cycle, index, before in pending:
            host = (gauges[before] + gauges[before + 1]) / 2
            self.scaled[cycle][index] *= reference.REFERENCE_S / host

    @property
    def cycles(self) -> int:
        return len(self.latencies)

    def scaled_cycle_s(self) -> float:
        """Median scaled time of one whole cycle."""
        return statistics.median(sum(cycle) for cycle in self.scaled)


def verify_outputs(workload, first_outputs) -> set:
    """Independent checks of each distinct call; returns the failing call indices."""
    failing = set()
    for index, call in enumerate(workload.calls):
        code, out = first_outputs[index]
        problems = []
        if code != call.expect_code:
            problems.append(f"exit {code}, expected {call.expect_code}")
        else:
            document = json.loads(out)
            if document.get("verdict") != call.expect_verdict:
                problems.append(f"verdict {document.get('verdict')!r}")
            problems += checks.CHECKS[call.check](call, document)
        if problems:
            failing.add(index)
            print(f"FAILED {call.kind} {call.graph} {call.size}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failing


def end_to_end(phase: Phase, setup_times) -> dict:
    latencies = [x for cycle in phase.scaled for x in cycle]
    return {
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.p90": (statistics.quantiles(latencies, n=10)[8], "s"),
        "calls_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def dominant_share(name: str, tracer: Tracer) -> float:
    """Share of cli.main total time held by the workload's predicted layer."""
    stats = tracer.stats
    whole = stats["cli.main"][2]
    if name == "zz-lattice":
        part = sum(v[1] for k, v in stats.items() if k.startswith("lattice."))
    elif name == "poly-det":
        part = stats["polynomials.mul"][1] + stats["polynomials.exact_divide"][1]
    elif name == "qq-search":
        part = sum(v[1] for k, v in stats.items() if k.startswith("search."))
    else:
        part = stats["polynomials.poly_gcd"][2]
    return part / whole if whole else 0.0


def per_layer(name: str, tracer: Tracer, plain: Phase, traced: Phase, errors: int) -> dict:
    metrics = {}
    for key, (calls, self_s, total_s) in tracer.stats.items():
        metrics[f"{key}.calls"] = (calls, "count")
        metrics[f"{key}.self_s"] = (self_s, "s")
        metrics[f"{key}.total_s"] = (total_s, "s")
    units = {"lattice.generator_max_bits": "bits"}
    for key, value in tracer.counters.items():
        metrics[key] = (value, units.get(key, "count"))
    solves = tracer.stats["search.solve_rational_system"][0]
    infeasible = tracer.counters["search.solve_rational_system.infeasible"]
    metrics["search.solve_rational_system.feasible_ratio"] = (
        (solves - infeasible) / solves if solves else 0.0, "fraction")
    metrics["trace.overhead_frac"] = (traced.scaled_cycle_s() / plain.scaled_cycle_s() - 1,
                                      "fraction")
    metrics["trace.dominant_share"] = (dominant_share(name, tracer), "fraction")
    attempted = len(plain.records) + len(traced.records)
    metrics["error_rate"] = (errors / attempted, "fraction")
    return metrics


def run(args) -> int:
    cli = import_cli()
    if args.setup_only:
        directory = Path(args.work)
        try:
            setup(cli, args.workload, args.seed, directory)
            print("ready", flush=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0

    work = Path.cwd() / ".splinebench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = measure_setup(args.workload, args.seed, work)
        directory = work / "main"
        workload = setup(cli, args.workload, args.seed, directory)
        first_outputs = {}
        if args.trace:
            plain = Phase(cli, workload, directory, args.seconds / 2, first_outputs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Phase(cli, workload, directory, args.seconds / 2, first_outputs)
            finally:
                tracer.restore()
            phases = [plain, traced]
        else:
            phases = [Phase(cli, workload, directory, args.seconds, first_outputs, MIN_CALLS)]
            metrics = end_to_end(phases[0], setup_times)
        wrong = verify_outputs(workload, first_outputs)
        records = [record for phase in phases for record in phase.records]
        attempted = len(records)
        failed = sum(1 for index, ok in records if not ok or index in wrong)
        if args.trace:
            missing = [key for key in REQUIRED_CALLS[args.workload]
                       if not tracer.stats[key][0]]
            if missing:
                print(f"error: traced run of {args.workload} recorded zero calls of "
                      f"{', '.join(missing)}", file=sys.stderr)
                return 1
            metrics = per_layer(args.workload, tracer, plain, traced, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for key, (value, unit) in metrics.items():
        print(f"{key} {value} {unit}")
    print(f"# {attempted} timed calls in {sum(p.cycles for p in phases)} cycles "
          f"of {len(workload.calls)}; timings scaled to the reference host speed",
          file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
